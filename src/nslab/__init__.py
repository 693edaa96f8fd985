"""nslab: spectral Navier-Stokes runs, filtered energy balances, and
constrained space-time minimization on the torus."""

from .basket import TestBasket, build_basket
from .config import ConfigError, RunConfig, load_config, parse_config
from .dissipation import (
    analyze_widths,
    defect_cross_validate,
    richardson_extrapolate,
)
from .filtering import (
    FilterKernel,
    filtered_pairs,
    kernel_for,
    make_kernel,
    resolved_balance,
    reynolds_stress_hat,
    velocity_product_hat,
    width_schedule,
)
from .minimizer import (
    FluxField,
    MinimizerSolution,
    assemble_flux,
    audit_widths,
    el_residual,
    k_functional,
    kkt_report,
    lagrange_ratio,
    oracle_mp,
    pair_basket,
    solve_mp,
)
from .snapshots import read_snapshot, write_snapshot
from .solver import BlowUpError, InitialCondition, Trajectory, make_initial, simulate
from .spectral import Grid, GridError

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConfigError",
    "FilterKernel",
    "FluxField",
    "Grid",
    "GridError",
    "InitialCondition",
    "MinimizerSolution",
    "RunConfig",
    "TestBasket",
    "Trajectory",
    "analyze_widths",
    "assemble_flux",
    "audit_widths",
    "build_basket",
    "defect_cross_validate",
    "el_residual",
    "filtered_pairs",
    "k_functional",
    "kernel_for",
    "kkt_report",
    "lagrange_ratio",
    "load_config",
    "make_initial",
    "make_kernel",
    "oracle_mp",
    "pair_basket",
    "parse_config",
    "read_snapshot",
    "resolved_balance",
    "reynolds_stress_hat",
    "richardson_extrapolate",
    "simulate",
    "solve_mp",
    "velocity_product_hat",
    "width_schedule",
    "write_snapshot",
]
