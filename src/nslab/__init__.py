"""nslab: spectral Navier-Stokes runs, filtered energy balances, and
constrained space-time minimization on the torus.

The names of __all__ resolve on first use (PEP 562), so `import nslab`
loads no submodule, and a command-line stage loads only the modules it
runs.
"""

import importlib

__version__ = "0.1.0"

# name -> the submodule that defines it
_HOMES = {
    "TestBasket": "basket",
    "build_basket": "basket",
    "RunConfig": "config",
    "load_config": "config",
    "parse_config": "config",
    "analyze_widths": "dissipation",
    "defect_cross_validate": "dissipation",
    "richardson_extrapolate": "dissipation",
    "BlowUpError": "errors",
    "ConfigError": "errors",
    "GridError": "errors",
    "FilterKernel": "filtering",
    "filtered_pairs": "filtering",
    "kernel_for": "filtering",
    "make_kernel": "filtering",
    "resolved_balance": "filtering",
    "reynolds_stress_hat": "filtering",
    "velocity_product_hat": "filtering",
    "FluxField": "minimizer",
    "MinimizerSolution": "minimizer",
    "assemble_flux": "minimizer",
    "audit_widths": "minimizer",
    "el_residual": "minimizer",
    "k_functional": "minimizer",
    "kkt_report": "minimizer",
    "lagrange_ratio": "minimizer",
    "oracle_mp": "minimizer",
    "pair_basket": "minimizer",
    "solve_mp": "minimizer",
    "read_snapshot": "snapshots",
    "write_snapshot": "snapshots",
    "InitialCondition": "solver",
    "Trajectory": "solver",
    "make_initial": "solver",
    "simulate": "solver",
    "Grid": "spectral",
    "width_schedule": "spectral",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
