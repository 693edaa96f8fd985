"""Coarse-graining of periodic fields by a compactly supported radial bump.

The mollifier at width delta is

    eta_delta(y) = C * exp(-1 / (1 - (|y|/delta)^2))   for |y| < delta,  else 0,

with C chosen so that the *grid* mass h^3 * sum_x eta_delta(x) equals 1
exactly.  Filtering acts in spectral space through the multiplier

    m(k) = h^3 * sum_x eta_delta(x) exp(-i k.x) = VOLUME * forward(eta_delta),

which is real (the sampled kernel is even under x -> -x mod 2pi), equals 1 at
k = 0 by construction, and satisfies |m(k)| <= 1 because eta >= 0.  Using the
grid-sampled kernel rather than the continuum one makes every discrete
identity below exact instead of "exact up to quadrature".

The filtered Reynolds stress is assembled in the dealiased spectral algebra,

    R_ij = filter(dealias(u_i u_j)) - ubar_i ubar_j,

so that the resolved-scale energy balance

    d/dt 1/2||ubar||^2 + nu ||grad ubar||^2 = <R, grad ubar>

holds to round-off for trajectories produced by the solver.  The product
Pi = dealias((u_j u_k)^) does not depend on the width: velocity_product_hat
forms it once per snapshot, and reynolds_stress_hat and
filtered_pressure_hat take it as an argument.  Both symmetric tensors are
formed as their 6 upper-triangle components and expanded through
_SYMMETRIC_INDEX.

filtered_pairs is the one loop over (width, snapshot) pairs, and the only
caller of velocity_product_hat and reynolds_stress_hat.  Snapshots run
outside and widths inside: per snapshot it forms Pi once (9 transforms) and
yields (i, u_hat, Pi, pairs); pairs then yields (m, kernel, ubar_hat, R_hat)
for each width m, forming the stress (9 transforms) only when the consumer
asks for it, so one stress is alive at a time.  Every consumer reduces the
pair it is given: resolved_balance and local_balance_test here,
dissipation.analyze_widths, minimizer.audit_widths and
minimizer.assemble_flux.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    VOLUME,
    dealias,
    gradient,
    gradient_norm_sq,
    grid_inner_product,
    inner_product,
    laplacian,
    norm_sq,
    tensor_divergence,
)

MULTIPLIER_IMAG_TOL = 1e-12

# Upper-triangle pairs (j, k), j <= k, in np.triu_indices(3) order, and the
# position of each (j, k) of a 3 x 3 tensor in that order.
_UPPER = np.triu_indices(3)
_SYMMETRIC_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


class KernelError(ValueError):
    """The requested filter width cannot be represented on the grid."""


def wrapped_displacements(grid):
    """Grid coordinates along one axis, wrapped into (-pi, pi]."""
    coords = grid.h * np.arange(grid.n)
    return np.where(coords <= np.pi, coords, coords - 2.0 * np.pi)


def wrapped_radius_sq(grid):
    """Squared distance to the nearest periodic image of the origin, shape (n, n, n)."""
    d = wrapped_displacements(grid)
    return (
        d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2
    )


@dataclass(frozen=True)
class FilterKernel:
    """Grid-sampled mollifier of one width plus its spectral multiplier."""

    delta: float
    samples: np.ndarray = field(repr=False)  # (n, n, n), h^3 * sum == 1
    multiplier: np.ndarray = field(repr=False)  # (n, n, n//2+1), real
    norm_const: float  # the C above; shared with the pointwise-defect estimator
    min_multiplier: float


def make_kernel(grid, delta):
    delta = float(delta)
    if delta > np.pi:
        raise KernelError(f"width {delta:.6g} exceeds pi; support does not embed in the box")
    if delta < 2.0 * grid.h - 1e-12:
        raise KernelError(f"width {delta:.6g} is below 2h = {2.0 * grid.h:.6g}; kernel unresolved")
    rho_sq = wrapped_radius_sq(grid) / delta**2
    inside = rho_sq < 1.0
    raw = np.zeros(grid.shape)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        raw[inside] = np.exp(-1.0 / (1.0 - rho_sq[inside]))
    mass = grid.h**3 * raw.sum()
    if mass <= 0.0:
        raise KernelError(f"width {delta:.6g} has no grid support")
    norm_const = 1.0 / mass
    samples = norm_const * raw
    mult_c = VOLUME * grid.forward(samples)
    imag_max = np.max(np.abs(mult_c.imag))
    if imag_max > MULTIPLIER_IMAG_TOL:
        raise KernelError(f"multiplier not real (max imag {imag_max:.3e})")
    mult = np.ascontiguousarray(mult_c.real)
    mult[0, 0, 0] = 1.0  # exact unit mass; the float value differs only by round-off
    if np.max(np.abs(mult)) > 1.0 + 1e-12:
        raise KernelError("multiplier magnitude exceeds 1")
    return FilterKernel(
        delta=delta,
        samples=samples,
        multiplier=mult,
        norm_const=norm_const,
        min_multiplier=float(mult.min()),
    )


def cached_per_width(grid, name, delta, build):
    """build(grid, delta), made once per grid and width and kept on the grid
    in the table `name` (per-width data is reused across snapshots)."""
    cache = grid.__dict__.setdefault(name, {})
    key = round(float(delta), 12)
    if key not in cache:
        cache[key] = build(grid, delta)
    return cache[key]


def kernel_for(grid, delta):
    """make_kernel with per-grid caching."""
    return cached_per_width(grid, "_kernel_cache", delta, make_kernel)


def width_schedule(grid, delta0, count):
    """Dyadic widths delta0 * 2^-j, j = 0..count-1, validated against the grid."""
    if count < 1:
        raise KernelError("schedule needs at least one width")
    widths = [float(delta0) * 2.0**-j for j in range(int(count))]
    for w in widths:
        if w > np.pi or w < 2.0 * grid.h - 1e-12:
            raise KernelError(
                f"schedule width {w:.6g} outside the representable band "
                f"[{2.0 * grid.h:.6g}, {np.pi:.6g}]"
            )
    return widths


def velocity_product_hat(grid, u_hat):
    """Pi = dealias((u_j u_k)^) for j <= k, shape (6, n, n, n//2+1).

    u is the dealiased velocity; 3 inverse and 6 forward scalar transforms.
    The product does not depend on the filter width, so one Pi serves every
    width at a snapshot.
    """
    u = grid.inverse(dealias(grid, u_hat))
    j, k = _UPPER
    return dealias(grid, grid.forward(u[j] * u[k]))


def reynolds_stress_hat(grid, kernel, u_hat, product_hat):
    """Spectral filtered Reynolds stress, shape (3, 3, n, n, n//2+1).

    R_ij = m * Pi_ij - (ubar_i ubar_j)^ with ubar = m * u and Pi =
    velocity_product_hat(grid, u_hat).  Per call: 3 inverse and 6 forward
    scalar transforms; with Pi's 9 per snapshot that is 18 for one width and
    9 + 9 per width for several.
    """
    ubar = grid.inverse(kernel.multiplier * u_hat)
    j, k = _UPPER
    stress = kernel.multiplier * product_hat - grid.forward(ubar[j] * ubar[k])
    return stress[_SYMMETRIC_INDEX]


def filtered_pairs(trajectory, kernels):
    """Per snapshot (i, u_hat, Pi, pairs); pairs lazily yields (m, kernel,
    ubar_hat, R_hat) for each of the kernels, in their order."""
    grid = trajectory.grid
    for i, u_hat in enumerate(trajectory.u_hats):
        product_hat = velocity_product_hat(grid, u_hat)
        yield i, u_hat, product_hat, _pairs(grid, kernels, u_hat, product_hat)


def _pairs(grid, kernels, u_hat, product_hat):
    for m, kernel in enumerate(kernels):
        r_hat = reynolds_stress_hat(grid, kernel, u_hat, product_hat)
        yield m, kernel, kernel.multiplier * u_hat, r_hat


def filtered_pressure_hat(grid, kernel, product_hat):
    """Zero-mean filtered pressure from -lap(pbar) = div div (m * Pi)."""
    t_hat = (kernel.multiplier * product_hat)[_SYMMETRIC_INDEX]
    kk = np.einsum("ixyz,jxyz,ijxyz->xyz", grid.k_vec, grid.k_vec, t_hat)
    return -kk * grid.inv_k_sq


@dataclass(frozen=True)
class BalanceReport:
    """Resolved-scale energy budget of one trajectory at one width.

    residual = |Ebar(T) - Ebar(0) + nu * int ||grad ubar||^2 - int <R, grad ubar>|
    with both time integrals taken by the trapezoid rule on the snapshot grid.
    """

    delta: float
    energy_drop: float  # Ebar(T) - Ebar(0)
    viscous: float  # nu * int ||grad ubar||^2 dt
    stress_flux: float  # int <R, grad ubar> dt
    residual: float
    stress_norm: float  # ||R||_{L2(0,T;L2)}
    times: np.ndarray = field(repr=False)
    resolved_energy: np.ndarray = field(repr=False)
    grad_sq: np.ndarray = field(repr=False)
    flux: np.ndarray = field(repr=False)

    @classmethod
    def from_series(cls, delta, nu, times, energy, grad_sq, flux, stress_sq):
        """Budget of per-snapshot balance_terms series, trapezoid rule in time."""
        viscous = nu * np.trapezoid(grad_sq, times)
        stress_flux = np.trapezoid(flux, times)
        drop = energy[-1] - energy[0]
        return cls(
            delta=delta,
            energy_drop=drop,
            viscous=viscous,
            stress_flux=stress_flux,
            residual=abs(drop + viscous - stress_flux),
            stress_norm=float(np.sqrt(max(np.trapezoid(stress_sq, times), 0.0))),
            times=times.copy(),
            resolved_energy=energy,
            grad_sq=grad_sq,
            flux=flux,
        )


def balance_terms(grid, ub_hat, r_hat):
    """One pair's budget terms from its filtered velocity and stress:
    (1/2 ||ubar||^2, ||grad ubar||^2, <R, grad ubar>, ||R||^2)."""
    return (
        0.5 * norm_sq(grid, ub_hat),
        gradient_norm_sq(grid, ub_hat),
        inner_product(grid, r_hat, gradient(grid, ub_hat)),
        inner_product(grid, r_hat, r_hat),
    )


def resolved_balance(trajectory, kernel):
    grid = trajectory.grid
    terms = np.empty((4, len(trajectory)))
    for i, _, _, pairs in filtered_pairs(trajectory, [kernel]):
        for _, _, ub_hat, r_hat in pairs:
            terms[:, i] = balance_terms(grid, ub_hat, r_hat)
    return BalanceReport.from_series(kernel.delta, grid.nu, trajectory.times, *terms)


def local_balance_test(trajectory, kernel, phi, window):
    """Space-time local energy budget against a separable test function.

    phi is a nonnegative real field (n, n, n); window supplies s(t) and
    s'(t).  With e = |ubar|^2 the tested identity is

        [ int e phi s ]_0^T = int int e (phi s' + nu lap(phi) s)
                            + int int (e + 2 pbar) (ubar . grad phi) s
                            - 2 nu int int |grad ubar|^2 phi s
                            - 2 int int ubar . (div R) phi s.

    With phi == 1 and a constant window every gradient term drops and the
    identity reduces to twice the resolved_balance budget.  Returns a dict of
    the individual terms plus the imbalance.
    """
    grid = trajectory.grid
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != grid.shape:
        raise ValueError(f"phi shape {phi.shape} != grid shape {grid.shape}")
    if phi.min() < -1e-12 * max(1.0, abs(phi.max())):
        raise ValueError("phi must be nonnegative for a local energy budget")
    phi_hat = grid.forward(phi)
    lap_phi = grid.inverse(laplacian(grid, phi_hat))
    grad_phi = grid.inverse(gradient(grid, phi_hat))

    times = trajectory.times
    n_snap = len(trajectory)
    s = window(times)
    s_dot = window.derivative(times)

    time_term = np.empty(n_snap)
    transport = np.empty(n_snap)
    viscous = np.empty(n_snap)
    transfer = np.empty(n_snap)
    boundary_density = np.empty(n_snap)
    for i, _, product_hat, pairs in filtered_pairs(trajectory, [kernel]):
        for _, _, ub_hat, r_hat in pairs:
            ub = grid.inverse(ub_hat)
            e = np.einsum("ixyz,ixyz->xyz", ub, ub)
            pbar = grid.inverse(filtered_pressure_hat(grid, kernel, product_hat))
            grad_ub = grid.inverse(gradient(grid, ub_hat))
            div_r = grid.inverse(tensor_divergence(grid, r_hat))
            boundary_density[i] = grid_inner_product(grid, e, phi)
            time_term[i] = (
                boundary_density[i] * s_dot[i]
                + grid.nu * s[i] * grid_inner_product(grid, e, lap_phi)
            )
            adv = np.einsum("ixyz,ixyz->xyz", ub, grad_phi)
            transport[i] = s[i] * grid_inner_product(grid, e + 2.0 * pbar, adv)
            gg = np.einsum("ijxyz,ijxyz->xyz", grad_ub, grad_ub)
            viscous[i] = -2.0 * grid.nu * s[i] * grid_inner_product(grid, gg, phi)
            ur = np.einsum("ixyz,ixyz->xyz", ub, div_r)
            transfer[i] = -2.0 * s[i] * grid_inner_product(grid, ur, phi)

    boundary = boundary_density[-1] * s[-1] - boundary_density[0] * s[0]
    terms = {
        "boundary": boundary,
        "time": np.trapezoid(time_term, times),
        "transport": np.trapezoid(transport, times),
        "viscous": np.trapezoid(viscous, times),
        "transfer": np.trapezoid(transfer, times),
    }
    terms["imbalance"] = abs(
        terms["boundary"]
        - (terms["time"] + terms["transport"] + terms["viscous"] + terms["transfer"])
    )
    return terms
