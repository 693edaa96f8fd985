"""Dissipation-defect estimators and their cross-validation.

Two independent discretizations of the same subfilter energy transfer, each
reduced to its space integral per (width, snapshot) pair:

* structure-function form (Duchon-Robert): the density, for each grid
  offset y inside the mollifier support,

      D_delta(x) = 1/4 * h^3 * sum_y grad(eta_delta)(y) . du |du|^2,
      du = u(x + y) - u(x),

  with grad(eta_delta) sampled exactly (same normalization constant as the
  spectral filter kernel), integrated over x;

* stress-strain form: -int R_ij d_i ubar_j from the filtered Reynolds stress.

Both integrate against dyadic width schedules and extrapolate to delta -> 0
by a Richardson fit on the finest three widths.  Neither density is formed
on the grid.  The structure integral is linear in the sampled
grad(eta_delta): summed over x, the offset sum is a pairing of it with one
width-independent field B per snapshot (structure_fields), up to constants
the transform of the third-order structure function sum_x du |du|^2 as a
function of the offset.  B needs no transform beyond the product Pi that
filtering.filtered_pairs forms; grad(eta_delta) is sampled and
transformed once per width (kernel_gradient_hat, cached per grid).  Both
are band fields (spectral.Band), like every spectral field of the pair
loop: B is zero off the two-thirds band, so the pairing reads the band
only.  The stress-strain integral is -<R, grad ubar> by discrete Parseval, the
resolved budget's flux negated.  So a pair costs two Parseval pairings and
no transform.  offsets_count(), the number of offsets the structure sum
covers, stays for perfbench/stage_trace.py, which logs it.

The estimators deliberately share no formula: the structure form never
touches the spectral multiplier, the stress form never touches increments.
analyze_widths runs both, and the resolved budget, over the pairs of
filtering.filtered_pairs (the pair loop is described there), adding only B
once per snapshot, from the loop's Pi; each pair's stress serves the
budget and the stress-strain pairing.  defect_cross_validate returns its
CrossValidationReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DissipationError
from .filtering import (
    _SYMMETRIC_INDEX,
    BalanceReport,
    balance_terms,
    cached_per_width,
    filtered_pairs,
    kernel_for,
    wrapped_displacements,
    wrapped_radius_sq,
)
from .spectral import VOLUME, gradient, inner_product, parseval_sum


def offsets_count(grid, delta):
    """Number of grid offsets with 0 < |y| < delta (periodically wrapped)."""
    r_sq = wrapped_radius_sq(grid)
    return int(np.count_nonzero((r_sq > 0.0) & (r_sq < float(delta) ** 2)))


def _kernel_gradient_samples(grid, delta):
    """grad(eta_delta) sampled on the wrapped grid, (3, n, n, n).

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
    return amp * disp


def _kernel_gradient_hat(grid, delta):
    """Transform of the sampled grad(eta_delta) on the band, (3,) + band
    shape: the band of its rfftn, bitwise."""
    return grid.band.forward(_kernel_gradient_samples(grid, delta))


def kernel_gradient_hat(grid, delta):
    """VOLUME / 4 * conj(_kernel_gradient_hat), cached per grid and width.

    conj(g_hat) * f_hat is the transform of the correlation C[g, f] / n^3;
    folding n^3 into the prefactor h^3 / 4 of the offset sum gives
    VOLUME / 4, and the structure integral is the pairing of this field with
    structure_fields.  grad(eta_delta) is sampled once per width, not once
    per snapshot.
    """
    return cached_per_width(
        grid,
        "_kernel_gradient_cache",
        delta,
        lambda grid, delta: 0.25 * VOLUME * np.conj(_kernel_gradient_hat(grid, delta)),
    )


def structure_fields(grid, u_hat, product_hat):
    """The width-independent field B that the structure integral pairs with,
    a band field of u_hat's shape, at one snapshot:

        B_k = 2i Im(S_hat conj(u_hat_k) + 2 sum_j P_hat_jk conj(u_hat_j)),

    with P_hat = product_hat = Pi, the product filtered_pairs forms, and S_hat
    its trace, the transform of |u|^2, both band fields: off the band Pi,
    and so B, is zero.  No transform.
    """
    u_conj = np.conj(u_hat)
    trace_hat = product_hat[0] + product_hat[3] + product_hat[5]  # diagonal entries
    fields = np.zeros_like(u_conj)
    for k in range(3):
        x = trace_hat * u_conj[k]
        for j in range(3):
            x += 2.0 * product_hat[_SYMMETRIC_INDEX[j, k]] * u_conj[j]
        fields[k].imag = 2.0 * x.imag
    return fields


def defect_structure_function(grid, fields, delta):
    """Space integral of the structure-function transfer density at width delta.

    fields = structure_fields(grid, u_hat, Pi).  With g =
    grad(eta_delta), v = u(x + y) and w = u(x), the offset sum
    sum_x sum_y g . (v - w) |v - w|^2 keeps, after the terms v |v|^2 and
    w |w|^2 cancel in the sum over x, four cross terms, each a circular
    correlation of u with a pointwise product of u.  By discrete Parseval
    their sum is the pairing of the sampled g with B.  No transform.
    """
    return parseval_sum(grid.band.parseval_w, kernel_gradient_hat(grid, delta), fields)


def defect_stress_strain(grid, ub_hat, delta, r_hat):
    """Space integral of the stress-strain transfer density, -<R, grad ubar>.

    ub_hat and r_hat are a pair's filtered velocity and Reynolds stress
    (filtering.filtered_pairs).  The pairing is the resolved budget's flux
    (filtering.balance_terms) negated, bit for bit.  The formula does not
    read delta, the pair's width; perfbench/stage_trace.py logs it from this
    position.
    """
    return -inner_product(grid.band, r_hat, gradient(grid.band, ub_hat))


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
    # No power law fits values that are not monotone, or whose successive
    # differences are equal (order 0, which has no limit).
    if den == 0.0 or num == den or num / den <= 0.0:
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

    Over filtering.filtered_pairs, with the structure field formed once per
    snapshot from the loop's Pi; the budget terms and both estimators are
    reductions of each pair, and the stress-strain series is the negated
    flux series bit for bit.  Each width's series fill in time order, so
    the budgets equal those of resolved_balance bit for bit.  The grid's
    transform buffers are dropped after the pass.  Returns (one BalanceReport
    per width, the CrossValidationReport), widths coarse to fine.
    """
    deltas = _coarse_to_fine(deltas)
    grid = trajectory.grid
    kernels = [kernel_for(grid, d) for d in deltas]
    terms = np.empty((len(deltas), 4, len(trajectory)))
    structure = np.empty((len(deltas), len(trajectory)))
    stress = np.empty((len(deltas), len(trajectory)))
    for i, u_hat, product_hat, pairs in filtered_pairs(trajectory, kernels):
        fields = structure_fields(grid, u_hat, product_hat)
        for w, ub_hat, r_hat in pairs:
            delta = deltas[w]
            terms[w, :, i] = balance_terms(grid, ub_hat, r_hat)
            structure[w, i] = defect_structure_function(grid, fields, delta)
            stress[w, i] = defect_stress_strain(grid, ub_hat, delta, r_hat)
    grid.drop_buffers()
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
