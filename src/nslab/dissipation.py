"""Pointwise dissipation-defect estimators and their cross-validation.

Two independent discretizations of the same subfilter energy transfer:

* structure-function form: for each grid offset y inside the mollifier
  support,

      D_delta(x) = 1/4 * h^3 * sum_y grad(eta_delta)(y) . du |du|^2,
      du = u(x + y) - u(x),

  with grad(eta_delta) sampled exactly (same normalization constant as the
  spectral filter kernel);

* stress-strain form: -R_ij d_i ubar_j from the filtered Reynolds stress.

Both integrate against dyadic width schedules and extrapolate to delta -> 0
by a Richardson fit on the finest three widths.  The structure-function sum
is not evaluated offset by offset: expanding du |du|^2 turns it into five
circular correlations of the sampled grad(eta_delta) with pointwise products
of u (the discrete Duchon-Robert form), 27 scalar FFTs in all, whatever
delta is.  They split by what they depend on: 13 per snapshot
(structure_fields: u and the transforms of u_j u_k, u |u|^2 and |u|^2), 3
per width (kernel_gradient_hat, cached per grid) and 11 inverse transforms
per (width, snapshot) pair (defect_structure_function).  The stress-strain
density reduces a pair's filtered velocity and Reynolds stress: 15 inverse
transforms (6 stress and 9 strain components back to real space).
offsets_count(), the number of offsets the structure sum covers, stays for
perfbench/stage_trace.py, which logs it.

The estimators deliberately share no code path: the structure form never
touches the spectral multiplier, the stress form never touches increments.
analyze_widths runs both, and the resolved budget, over the pairs of
filtering.filtered_pairs (the pair loop is described there), adding only
the structure fields once per snapshot; each pair's stress serves the
budget and the stress-strain density.  defect_cross_validate returns its
CrossValidationReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtering import (
    _SYMMETRIC_INDEX,
    _UPPER,
    BalanceReport,
    balance_terms,
    cached_per_width,
    filtered_pairs,
    kernel_for,
    wrapped_displacements,
    wrapped_radius_sq,
)
from .spectral import VOLUME, dealias, gradient


class DissipationError(ValueError):
    """A dissipation-defect request that the driver refuses to run."""


def offsets_count(grid, delta):
    """Number of grid offsets with 0 < |y| < delta (periodically wrapped)."""
    r_sq = wrapped_radius_sq(grid)
    return int(np.count_nonzero((r_sq > 0.0) & (r_sq < float(delta) ** 2)))


def _kernel_gradient_hat(grid, delta):
    """Transform of grad(eta_delta) sampled on the wrapped grid, (3, n, n, nh).

    The samples come from the analytic mollifier formula with the filter
    kernel's normalization constant, at every offset with 0 < |y| < delta,
    and are zero elsewhere.  Every sample has a mirror at -y, so the sampled
    gradient is exactly odd.
    """
    delta = float(delta)
    norm_const = kernel_for(grid, delta).norm_const
    d = wrapped_displacements(grid)
    disp = np.stack(np.meshgrid(d, d, d, indexing="ij"))
    r = np.sqrt(np.sum(disp**2, axis=0))
    mask = (r > 0.0) & (r < delta)
    r_m = r[mask]
    rho = r_m / delta
    amp = np.zeros(grid.shape)
    with np.errstate(under="ignore"):
        amp[mask] = (
            norm_const
            * (-2.0 * rho / (1.0 - rho**2) ** 2)
            * np.exp(-1.0 / (1.0 - rho**2))
            / (r_m * delta)
        )
    return grid.forward(amp * disp)


def kernel_gradient_hat(grid, delta):
    """VOLUME / 4 * conj(_kernel_gradient_hat), cached per grid and width.

    conj(g_hat) * f_hat is the transform of the correlation C[g, f] / n^3;
    folding n^3 into the prefactor h^3 / 4 of the offset sum gives
    VOLUME / 4.  grad(eta_delta) is sampled once per width, not once per
    snapshot.
    """
    return cached_per_width(
        grid,
        "_kernel_gradient_cache",
        delta,
        lambda grid, delta: 0.25 * VOLUME * np.conj(_kernel_gradient_hat(grid, delta)),
    )


@dataclass(frozen=True)
class StructureFields:
    """The width-independent inputs of the structure density at one snapshot."""

    u_hat: np.ndarray  # dealiased velocity (3, n, n, nh)
    u: np.ndarray  # its real field (3, n, n, n)
    pairs: np.ndarray  # u_j u_k for j <= k, (6, n, n, n)
    speed_sq: np.ndarray  # |u|^2
    pairs_hat: np.ndarray  # (u_j u_k)^ as a (3, 3, n, n, nh) tensor
    cubic_hat: np.ndarray  # (u |u|^2)^
    speed_sq_hat: np.ndarray  # (|u|^2)^


def structure_fields(grid, u_hat):
    """StructureFields of one snapshot: 3 inverse and 10 forward transforms."""
    u_hat = dealias(grid, u_hat)
    u = grid.inverse(u_hat)
    j, k = _UPPER
    pairs = u[j] * u[k]
    speed_sq = np.sum(pairs[j == k], axis=0)
    return StructureFields(
        u_hat=u_hat,
        u=u,
        pairs=pairs,
        speed_sq=speed_sq,
        pairs_hat=grid.forward(pairs)[_SYMMETRIC_INDEX],
        cubic_hat=grid.forward(u * speed_sq),
        speed_sq_hat=grid.forward(speed_sq),
    )


def defect_structure_function(grid, fields, delta):
    """Structure-function transfer density, real field of shape (n, n, n).

    fields = structure_fields(grid, u_hat).  With g = grad(eta_delta),
    v = u(x + y) and w = u(x), the offset sum sum_y g . (v - w) |v - w|^2 is
    the sum of five circular correlations C[g_k, f](x) = sum_y g_k(y) f(x + y),
    each weighted pointwise by w:

        C[g_k, u_k |u|^2] - w_j (2 C[g_k, u_k u_j] + C[g_j, |u|^2])
        + |w|^2 C[g_k, u_k] + 2 w_j w_k C[g_k, u_j].

    The sixth term, -w_k |w|^2 sum_y g_k(y), vanishes because g is odd.
    Per call: 11 inverse transforms.
    """
    g_hat = kernel_gradient_hat(grid, delta)
    u_hat, u, pairs = fields.u_hat, fields.u, fields.pairs
    j, k = _UPPER
    cubic_hat = np.einsum("k...,k...->...", g_hat, fields.cubic_hat)
    div_hat = np.einsum("k...,k...->...", g_hat, u_hat)
    vec_hat = 2.0 * np.einsum("k...,kj...->j...", g_hat, fields.pairs_hat)
    vec_hat += g_hat * fields.speed_sq_hat
    sym_hat = g_hat[k] * u_hat[j] + g_hat[j] * u_hat[k]  # C[g_k, u_j] + C[g_j, u_k]

    density = grid.inverse(cubic_hat)
    density += fields.speed_sq * grid.inverse(div_hat)
    density -= np.einsum("j...,j...->...", u, grid.inverse(vec_hat))
    weights = np.where(j == k, 1.0, 2.0)
    density += np.einsum("p,p...,p...->...", weights, pairs, grid.inverse(sym_hat))
    return density


def defect_stress_strain(grid, ub_hat, delta, r_hat):
    """Stress-strain transfer density -R_ij d_i ubar_j, real field (n, n, n).

    ub_hat and r_hat are a pair's filtered velocity and Reynolds stress
    (filtering.filtered_pairs).  The formula does not read delta, the pair's
    width; perfbench/stage_trace.py logs it from this position.
    """
    stress = grid.inverse(r_hat[_UPPER])[_SYMMETRIC_INDEX]
    grad_ub = grid.inverse(gradient(grid, ub_hat))
    return -np.einsum("ijxyz,ijxyz->xyz", stress, grad_ub)


def space_integral(grid, density):
    return grid.h**3 * float(np.sum(density))


@dataclass(frozen=True)
class RichardsonFit:
    """Power-law fit I(delta) ~ limit + c delta^order from the finest three widths."""

    order: float
    limit: float
    deltas: tuple
    values: tuple


def richardson_extrapolate(deltas, values):
    """Fit order and limit from the last three entries of a dyadic schedule."""
    deltas = [float(d) for d in deltas]
    values = [float(v) for v in values]
    if len(deltas) < 3 or len(values) != len(deltas):
        raise DissipationError("need at least three matching widths/values")
    d3 = deltas[-3:]
    v3 = values[-3:]
    for a, b in zip(d3, d3[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise DissipationError(f"widths {d3} are not dyadic")
    num = v3[0] - v3[1]
    den = v3[1] - v3[2]
    if den == 0.0 or num / den <= 0.0:
        return RichardsonFit(order=float("nan"), limit=v3[2], deltas=tuple(d3), values=tuple(v3))
    order = float(np.log2(num / den))
    limit = v3[2] - den / (2.0**order - 1.0)
    return RichardsonFit(order=order, limit=float(limit), deltas=tuple(d3), values=tuple(v3))


@dataclass(frozen=True)
class CrossValidationReport:
    """Both estimators over a width schedule, with extrapolations and gaps.

    gap_rel normalizes the finest-width disagreement by the larger estimate;
    gap_dissipation normalizes it by the trajectory's total viscous
    dissipation nu * int ||grad u||^2 dt, the natural scale when the transfer
    itself vanishes as delta^2 for smooth fields.
    """

    deltas: tuple
    structure: tuple
    stress: tuple
    structure_fit: RichardsonFit
    stress_fit: RichardsonFit
    gap_rel: float
    gap_dissipation: float
    dissipation_scale: float
    structure_series: np.ndarray = field(repr=False)
    stress_series: np.ndarray = field(repr=False)

    @classmethod
    def from_series(cls, trajectory, deltas, structure_series, stress_series):
        """Fits and gaps from per-width space-integral series; deltas coarse
        to fine, one series row per width."""
        times = trajectory.times
        struct_vals = tuple(float(np.trapezoid(s, times)) for s in structure_series)
        stress_vals = tuple(float(np.trapezoid(s, times)) for s in stress_series)
        s_fine = struct_vals[-1]
        t_fine = stress_vals[-1]
        gap = abs(s_fine - t_fine)
        scale = max(abs(s_fine), abs(t_fine))
        dissipation_scale = float(trajectory.dissipation[-1])
        return cls(
            deltas=tuple(deltas),
            structure=struct_vals,
            stress=stress_vals,
            structure_fit=richardson_extrapolate(deltas[-3:], struct_vals[-3:]),
            stress_fit=richardson_extrapolate(deltas[-3:], stress_vals[-3:]),
            gap_rel=gap / scale if scale > 0.0 else 0.0,
            gap_dissipation=gap / dissipation_scale if dissipation_scale > 0.0 else gap,
            dissipation_scale=dissipation_scale,
            structure_series=np.asarray(structure_series),
            stress_series=np.asarray(stress_series),
        )


def _coarse_to_fine(deltas):
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if len(deltas) < 3:
        raise DissipationError(f"{len(deltas)} widths given; need three for extrapolation")
    return deltas


def analyze_widths(trajectory, deltas):
    """The resolved budget and both estimators at every width, in one pass.

    Over filtering.filtered_pairs, with the structure fields formed once per
    snapshot; the budget terms and the stress-strain density are two
    reductions of each pair.  Each width's series fill in time order, so the
    budgets equal those of resolved_balance bit for bit.  Returns (one
    BalanceReport per width, the CrossValidationReport), widths coarse to
    fine.
    """
    deltas = _coarse_to_fine(deltas)
    grid = trajectory.grid
    kernels = [kernel_for(grid, d) for d in deltas]
    terms = np.empty((len(deltas), 4, len(trajectory)))
    structure = np.empty((len(deltas), len(trajectory)))
    stress = np.empty((len(deltas), len(trajectory)))
    for i, u_hat, _, pairs in filtered_pairs(trajectory, kernels):
        fields = structure_fields(grid, u_hat)
        for w, _, ub_hat, r_hat in pairs:
            delta = deltas[w]
            terms[w, :, i] = balance_terms(grid, ub_hat, r_hat)
            structure[w, i] = space_integral(grid, defect_structure_function(grid, fields, delta))
            stress[w, i] = space_integral(grid, defect_stress_strain(grid, ub_hat, delta, r_hat))
    balances = [
        BalanceReport.from_series(kernel.delta, grid.nu, trajectory.times, *terms[w])
        for w, kernel in enumerate(kernels)
    ]
    return balances, CrossValidationReport.from_series(trajectory, deltas, structure, stress)


def defect_cross_validate(trajectory, deltas):
    """Both estimators on a dyadic schedule and their comparison: the
    CrossValidationReport of analyze_widths, the pass that analyze runs.

    At least three widths are required: the Richardson fits use the finest
    three.
    """
    return analyze_widths(trajectory, deltas)[1]
