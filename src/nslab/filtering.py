"""Coarse-graining of periodic fields by a compactly supported radial bump.

The mollifier at width delta is

    eta_delta(y) = C * exp(-1 / (1 - (|y|/delta)^2))   for |y| < delta,  else 0,

with C chosen so that the *grid* mass h^3 * sum_x eta_delta(x) equals 1
exactly.  Filtering acts in spectral space through the multiplier

    m(k) = h^3 * sum_x eta_delta(x) exp(-i k.x) = VOLUME * forward(eta_delta),

which is real (the sampled kernel is even under x -> -x mod 2pi), equals 1 at
k = 0 by construction, and satisfies |m(k)| <= 1 because eta >= 0.  Using the
grid-sampled kernel rather than the continuum one makes every discrete
identity below exact instead of "exact up to quadrature".  The kernel keeps
m on the two-thirds band (spectral.Band) only: every field it filters is a
band field.

The filtered Reynolds stress is assembled in the dealiased spectral algebra
on the two-thirds band,

    R_ij = band(filter(band(u_i u_j)) - ubar_i ubar_j),

where band() keeps the modes the 2/3 rule keeps: outside the band
(ubar_i ubar_j)^ of two band fields is partly aliased, and nothing the
budget or the minimizer pairs R with has modes there.  Every spectral
field here is a band field (spectral.Band), and every spectral helper is
given grid.band, so that the resolved-scale energy balance

    d/dt 1/2||ubar||^2 + nu ||grad ubar||^2 = <R, grad ubar>

holds to round-off for trajectories produced by the solver.  The product
Pi = band((u_j u_k)^) does not depend on the width: it is formed once
per snapshot, and reynolds_stress_hat and filtered_pressure_hat take it as
an argument.  Both symmetric tensors are formed as their 6 upper-triangle
components and expanded through _SYMMETRIC_INDEX.  One product kernel,
_band_products, forms Pi from u and (ubar_i ubar_j)^ from ubar: the field
on the grid, its six products written with np.multiply into one array,
and that array's band forward transform, so no component is copied out
of the field before its product is taken.

filtered_pairs is the one loop over (width, snapshot) pairs, and the
pipeline's only caller of velocity_product_hat and reynolds_stress_hat.
Snapshots run outside and widths inside: per snapshot it forms Pi once and
yields (i, u_hat, Pi, pairs); pairs then yields (m, ubar_hat, R_hat) per
width m, forming the stress from that ubar_hat only when the consumer
draws the pair, so one stress is alive at a time.  The pipeline's
consumers are dissipation.analyze_widths and minimizer.audit_widths;
resolved_balance and local_balance_test here and minimizer.assemble_flux
are library entry points that the tests and the acceptance suite use as
independent references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KernelError
from .spectral import (
    VOLUME,
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
    multiplier: np.ndarray = field(repr=False)  # real, on the band: grid.band.spectral_shape
    norm_const: float  # the C above; shared with the structure-function estimator
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
    multiplier = grid.band.gather(mult)
    return FilterKernel(
        delta=delta,
        samples=samples,
        multiplier=multiplier,
        norm_const=norm_const,
        min_multiplier=float(multiplier.min()),
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


def _band_products(grid, v_hat):
    """band((v_j v_k)^) for j <= k, (6,) + band shape, of a band vector
    field: v on the grid, its six products written with np.multiply into
    one (6, n, n, n) array, and that array's band forward transform, 6
    scalar transforms after v's 3.  v is released before the forward, so
    at most v and the products are alive on the grid."""
    v = grid.inverse(v_hat)
    products = np.empty((6,) + grid.shape)
    for c, (j, k) in enumerate(zip(*_UPPER)):
        np.multiply(v[j], v[k], out=products[c])
    del v
    return grid.band.forward(products)


def velocity_product_hat(grid, u_hat):
    """Pi = (u_j u_k)^ on the band for j <= k, (6,) + band shape, from a
    band velocity: _band_products of u_hat, the band of dealias((u_j
    u_k)^), bitwise; 9 scalar band transforms.  One Pi serves every width
    at a snapshot."""
    return _band_products(grid, u_hat)


def reynolds_stress_hat(grid, kernel, ub_hat, product_hat):
    """Spectral filtered Reynolds stress on the band, (3, 3) + band shape.

    R_ij = m * Pi_ij - (ubar_i ubar_j)^ for the band fields ub_hat = m *
    u_hat and Pi = velocity_product_hat(grid, u_hat), with (ubar_i
    ubar_j)^ = _band_products(grid, ub_hat), the kernel Pi is formed by,
    and the difference taken in that result.  The modes off the band,
    where (ubar_i ubar_j)^ is partly aliased, are not part of R.  9
    scalar band transforms per call, so 9 + 9 per width with Pi's per
    snapshot.
    """
    resolved = _band_products(grid, ub_hat)
    return np.subtract(kernel.multiplier * product_hat, resolved, out=resolved)[_SYMMETRIC_INDEX]


def filtered_pairs(trajectory, kernels):
    """Per snapshot (i, u_hat, Pi, pairs); pairs lazily yields (m, ubar_hat,
    R_hat) for each of the kernels, in their order."""
    grid = trajectory.grid
    for i, u_hat in enumerate(trajectory.u_hats):
        product_hat = velocity_product_hat(grid, u_hat)
        yield i, u_hat, product_hat, _pairs(grid, kernels, u_hat, product_hat)


def _pairs(grid, kernels, u_hat, product_hat):
    for m, kernel in enumerate(kernels):
        ub_hat = kernel.multiplier * u_hat
        yield m, ub_hat, reynolds_stress_hat(grid, kernel, ub_hat, product_hat)


def filtered_pressure_hat(grid, kernel, product_hat):
    """Zero-mean filtered pressure from -lap(pbar) = div div (m * Pi), on the band."""
    band = grid.band
    t_hat = (kernel.multiplier * product_hat)[_SYMMETRIC_INDEX]
    kk = np.einsum("ixyz,jxyz,ijxyz->xyz", band.k_vec, band.k_vec, t_hat)
    return -kk * band.inv_k_sq


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
    """One pair's budget terms from its band filtered velocity and stress:
    (1/2 ||ubar||^2, ||grad ubar||^2, <R, grad ubar>, ||R||^2)."""
    band = grid.band
    return (
        0.5 * norm_sq(band, ub_hat),
        gradient_norm_sq(band, ub_hat),
        inner_product(band, r_hat, gradient(band, ub_hat)),
        inner_product(band, r_hat, r_hat),
    )


def resolved_balance(trajectory, kernel):
    grid = trajectory.grid
    terms = np.empty((4, len(trajectory)))
    for i, _, _, pairs in filtered_pairs(trajectory, [kernel]):
        for _, ub_hat, r_hat in pairs:
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
    band = grid.band
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
        for _, ub_hat, r_hat in pairs:
            ub = grid.inverse(ub_hat)
            e = np.einsum("ixyz,ixyz->xyz", ub, ub)
            pbar = grid.inverse(filtered_pressure_hat(grid, kernel, product_hat))
            grad_ub = grid.inverse(gradient(band, ub_hat))
            div_r = grid.inverse(tensor_divergence(band, r_hat))
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
