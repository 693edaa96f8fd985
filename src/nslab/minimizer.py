"""Constrained least-dissipation minimization and its diagnostics.

For a filtered trajectory the dissipative flux J = nu grad(ubar) - R enters
the quadratic functional

    K(v) = int_0^T ( 1/2 ||grad v||^2 - <J, grad v> ) dt

minimized over divergence-free zero-mean v(t) subject to the enstrophy-ball
constraint int_0^T ||grad v||^2 dt <= radius_sq.  Two independent solvers:

* solve_mp: the closed form.  Snapshot-wise Poisson solves lap(w) = P div J
  give the unconstrained minimizer w; if its enstrophy integral W exceeds
  the budget the whole trajectory is rescaled, v* = w / s with
  s = sqrt(W / radius_sq), and the single scalar multiplier follows from
  1 - 2 lambda = s.  So (1 - 2 lambda) v* = w in both regimes.

* oracle_mp: projected gradient descent in the constraint metric with ball
  projection by rescaling, Armijo backtracking, and multiple seeded starts.
  It reaches the minimizer iteratively from arbitrary starting points rather
  than by formula, so agreement with solve_mp is a genuine cross-check and
  the two paths are never merged.

audit_widths is the entry point for a trajectory.  It reduces the pairs of
filtering.filtered_pairs (the pair loop is described there), adding grad u
and its basket pairing once per snapshot; from each pair's filtered
velocity and Reynolds stress follow J, w and the nu = 1 minimizer
w1 = -P div(grad ubar - R) / |k|^2.  assemble_flux stores one width's J
from the same pairs.  Since v* = w / s with one scalar s per width, every
integral is accumulated in w unscaled, one row per width (the
stress-modeling tensors (1 - 2 lambda) sym grad v* are sym grad w
outright); after the pass the ball rule turns each width's W into s, lambda
and activity, and the s-dependent sums are divided by s or s^2.  Only the
finest v* is stored.  Basket pairings use TestBasket.pair/pair_gradient;
the Lagrange ratios and weak Euler-Lagrange residuals share one
BasketPairing; weak_convergence_diag and stress_limit_diagnostics reduce
across widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basket import spacetime_gradient_norm
from .filtering import filtered_pairs, kernel_for
from .spectral import (
    VOLUME,
    dealias,
    gradient,
    gradient_inner_product,
    gradient_norm_sq,
    inner_product,
    inverse_laplacian,
    leray_project,
    norm_sq,
    tensor_divergence,
    trapezoid_weights,
)

# A Lagrange ratio divides by int s<grad v*, grad psi>.  An element whose
# denominator is below this fraction of its flux scale (BasketPairing.scale)
# is nearly orthogonal to the minimizer: its ratio would amplify the
# pairings' round-off by more than 1/DEGENERATE_RTOL and so measure its own
# conditioning, not the identity.  el_residual still tests every element.
DEGENERATE_RTOL = 1e-4
ACTIVITY_RTOL = 1e-10
# A refinement series is "at the cancellation floor" when every entry is below
# this fraction of its triangle-inequality majorant: the pairing cancels to
# machine precision and its round-off residue carries no fittable decay order.
FLOOR_RTOL = 1e-12


class MinimizerError(ValueError):
    """A variational request that cannot be satisfied as posed."""


class FluxField:
    """Per-snapshot spectral flux tensor J[s, i, j] = (J_ij)_hat at time times[s].

    Solver-generated fluxes are assembled exactly as nu grad(ubar) - R; the
    class also accepts arbitrary tensors (manufactured test fluxes need not
    be symmetric).
    """

    def __init__(self, grid, times, j_hats):
        self.grid = grid
        self.times = np.asarray(times, dtype=np.float64)
        self.j_hats = j_hats
        if self.times.ndim != 1 or len(self.times) != j_hats.shape[0]:
            raise MinimizerError("times and flux snapshots disagree")
        self.weights = trapezoid_weights(self.times)
        self._rhs = None

    def __len__(self):
        return len(self.times)

    def poisson_rhs(self):
        """b[s] = P (div J)_hat per snapshot; cached."""
        if self._rhs is None:
            rhs = np.empty((len(self), 3) + self.grid.spectral_shape, dtype=complex)
            for i in range(len(self)):
                rhs[i] = _poisson_rhs(self.grid, self.j_hats[i])
            self._rhs = rhs
        return self._rhs


def _poisson_rhs(grid, j_hat):
    """b = P (div J)_hat of one flux snapshot; lap(w) = b gives w = -b / |k|^2."""
    return leray_project(grid, tensor_divergence(grid, j_hat))


def _ball_rule(big_w, radius_sq):
    """(s, lambda, active) of the ball-constrained minimizer v* = w / s.

    big_w is the enstrophy integral W of the unconstrained minimizer w.  A
    W beyond the budget rescales onto the sphere with s = sqrt(W / radius_sq)
    = 1 - 2 lambda > 1, so lambda < 0; otherwise v* = w and lambda = 0.
    """
    if radius_sq <= 0.0:
        raise MinimizerError("radius_sq must be positive")
    if big_w > radius_sq:
        s = float(np.sqrt(big_w / radius_sq))
        return s, 0.5 * (1.0 - s), True
    return 1.0, 0.0, bool(abs(big_w - radius_sq) <= ACTIVITY_RTOL * radius_sq)


def assemble_flux(trajectory, kernel):
    """Flux of a trajectory at one filter width: J = nu grad(ubar) - R."""
    grid = trajectory.grid
    j_hats = np.empty((len(trajectory), 3, 3) + grid.spectral_shape, dtype=complex)
    for i, _, _, pairs in filtered_pairs(trajectory, [kernel]):
        for _, _, ub_hat, r_hat in pairs:
            j_hats[i] = grid.nu * gradient(grid, ub_hat) - r_hat
    return FluxField(grid, trajectory.times, j_hats)


def make_gradient_flux(grid, times, profile_hat, window_values, scale=1.0):
    """Manufactured flux J(t) = scale * s(t) * grad(profile) with known minimizer.

    For divergence-free band-limited profile phi0, P div J = scale * s(t) *
    lap(phi0), so the unconstrained minimizer is w(t) = scale * s(t) * phi0
    exactly -- an analytic oracle for both solvers.
    """
    times = np.asarray(times, dtype=np.float64)
    window_values = np.asarray(window_values, dtype=np.float64)
    g = gradient(grid, profile_hat)
    j_hats = np.empty((len(times), 3, 3) + grid.spectral_shape, dtype=complex)
    for i, s in enumerate(window_values):
        j_hats[i] = (scale * s) * g
    return FluxField(grid, times, j_hats)


def enstrophy_integral(grid, times, v_hats):
    """int_0^T ||grad v||^2 dt by trapezoid quadrature on the snapshot grid."""
    tw = trapezoid_weights(times)
    return float(sum(tw[i] * gradient_norm_sq(grid, v_hats[i]) for i in range(len(times))))


def k_functional(flux, v_hats):
    """K(v) = int ( 1/2 ||grad v||^2 - <J, grad v> ) dt, evaluated literally."""
    grid = flux.grid
    tw = flux.weights
    total = 0.0
    for i in range(len(flux)):
        total += tw[i] * (
            0.5 * gradient_norm_sq(grid, v_hats[i])
            - inner_product(grid, flux.j_hats[i], gradient(grid, v_hats[i]))
        )
    return float(total)


@dataclass(frozen=True)
class MinimizerSolution:
    times: np.ndarray = field(repr=False)
    v_hats: np.ndarray = field(repr=False)  # (S, 3, n, n, n//2+1)
    lam: float
    one_minus_two_lambda: float
    enstrophy_used: float
    radius_sq: float
    k_value: float
    constraint_active: bool
    source: str  # "closed_form" | "oracle"
    iterations: int = 0
    grad_norm: float = 0.0
    grad_norm_ref: float = 0.0
    converged: bool = True
    start_spread: float = 0.0


def solve_mp(flux, radius_sq):
    """Closed-form KKT solution of the ball-constrained minimization."""
    radius_sq = float(radius_sq)
    grid = flux.grid
    v_hats = -flux.poisson_rhs() * grid.inv_k_sq
    s, lam, active = _ball_rule(enstrophy_integral(grid, flux.times, v_hats), radius_sq)
    v_hats /= s
    return MinimizerSolution(
        times=flux.times.copy(),
        v_hats=v_hats,
        lam=lam,
        one_minus_two_lambda=1.0 - 2.0 * lam,
        enstrophy_used=enstrophy_integral(grid, flux.times, v_hats),
        radius_sq=radius_sq,
        k_value=k_functional(flux, v_hats),
        constraint_active=active,
        source="closed_form",
    )


def _flat_inner(grid, a, b):
    return VOLUME * float(np.sum(grid.parseval_w * (a.real * b.real + a.imag * b.imag)))


def _weighted_quadratic(grid, tw5, weight, v):
    return VOLUME * float(np.sum(tw5 * grid.parseval_w * weight * (v.real**2 + v.imag**2)))


def oracle_mp(flux, radius_sq, iters=20000, seed=0, starts=3, tol=1e-10):
    """Projected gradient descent on the spectral coefficients.

    Reduced objective (exact for divergence-free v, by parts):
        F(v) = sum_i tw_i ( 1/2 ||grad v_i||^2 + <b_i, v_i> ),  b = P div J.
    Descent runs in the constraint inner product <x, y> = sum_i tw_i
    <grad x_i, grad y_i> -- the metric in which the feasible set is a ball,
    so projection is the exact rescale.  (With the coefficient-wise gradient
    the rescale is not a metric projection and the iteration stalls at
    non-stationary boundary points.)  Steps use Armijo backtracking
    (halving) with regrowth by 1.3 after acceptance; the objective increment
    is evaluated through its exact quadratic expansion to avoid round-off
    stall near the minimum.  Convergence is declared when the projected
    gradient falls below tol times the J-term gradient norm.  Returns the
    best of `starts` runs (start 0 is v = 0, the rest are seeded random
    divergence-free fields).
    """
    radius_sq = float(radius_sq)
    if radius_sq <= 0.0:
        raise MinimizerError("radius_sq must be positive")
    grid = flux.grid
    n_snap = len(flux)
    b = flux.poisson_rhs()
    tw = flux.weights
    tw5 = tw.reshape((n_snap, 1, 1, 1, 1))
    k_sq = grid.k_sq
    # b / k^2 in the zero-mean gauge (b has no mean: it is a divergence).
    bk = np.stack([-inverse_laplacian(grid, b[i]) for i in range(n_snap)])

    def a_inner(x, y):
        return VOLUME * float(
            np.sum(tw5 * grid.parseval_w * k_sq * (x.real * y.real + x.imag * y.imag))
        )

    def constraint(v):
        return _weighted_quadratic(grid, tw5, k_sq, v)

    def objective(v):
        return 0.5 * constraint(v) + _flat_inner(grid, tw5 * b, v)

    def project(v):
        c = constraint(v)
        if c > radius_sq:
            return v * np.sqrt(radius_sq / c), radius_sq
        return v, c

    def projected_gradient(v, c):
        g = v + bk
        if abs(c - radius_sq) <= 1e-9 * radius_sq and c > 0.0:
            # Constraint gradient in the same metric is 2v with norm^2 = 4c.
            mu = max(0.0, -a_inner(g, 2.0 * v) / (4.0 * c))
            return g + 2.0 * mu * v, mu
        return g, 0.0

    ref_grad = np.sqrt(a_inner(bk, bk))
    rng = np.random.default_rng(seed)
    results = []
    total_iters = 0
    for start in range(max(1, int(starts))):
        if start == 0:
            v = np.zeros((n_snap, 3) + grid.spectral_shape, dtype=complex)
        else:
            noise = rng.standard_normal((n_snap, 3) + grid.shape)
            v = np.empty((n_snap, 3) + grid.spectral_shape, dtype=complex)
            for i in range(n_snap):
                v[i] = leray_project(grid, dealias(grid, grid.forward(noise[i])))
            c0 = constraint(v)
            if c0 > 0.0:
                v *= np.sqrt(0.5 * radius_sq / c0)
        v, c = project(v)
        alpha = 1.0
        converged = False
        pg_norm = np.inf
        it = 0
        while it < iters:
            it += 1
            pg, _ = projected_gradient(v, c)
            pg_norm = np.sqrt(a_inner(pg, pg))
            if pg_norm <= tol * ref_grad or (ref_grad == 0.0 and pg_norm <= tol):
                converged = True
                break
            g = v + bk
            accepted = False
            while alpha > 1e-18:
                v_new, c_new = project(v - alpha * g)
                step = v_new - v
                df = a_inner(g, step) + 0.5 * a_inner(step, step)
                if df <= -(1e-4 / alpha) * a_inner(step, step):
                    v, c = v_new, c_new
                    alpha = min(alpha * 1.3, 1.0)
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break  # step size exhausted; report the point reached
        total_iters += it
        results.append((objective(v), v, c, pg_norm, converged))

    results.sort(key=lambda r: r[0])
    f_best, v_best, c_best, pg_best, conv_best = results[0]
    spread = 0.0
    for _, v_other, _, _, _ in results[1:]:
        d = enstrophy_integral(grid, flux.times, v_best - v_other)
        spread = max(spread, d)
    spread_ref = max(enstrophy_integral(grid, flux.times, v_best), 1e-300)
    pg, mu = projected_gradient(v_best, c_best)
    active = abs(c_best - radius_sq) <= ACTIVITY_RTOL * radius_sq
    lam = -mu if active else 0.0
    return MinimizerSolution(
        times=flux.times.copy(),
        v_hats=v_best,
        lam=lam,
        one_minus_two_lambda=1.0 - 2.0 * lam,
        enstrophy_used=c_best,
        radius_sq=radius_sq,
        k_value=k_functional(flux, v_best),
        constraint_active=active,
        source="oracle",
        iterations=total_iters,
        grad_norm=np.sqrt(a_inner(pg, pg)),
        grad_norm_ref=ref_grad,
        converged=all(r[4] for r in results),
        start_spread=spread / spread_ref,
    )


def solution_gap(grid, times, sol_a, sol_b):
    """Relative disagreement int ||grad(v_a - v_b)||^2 dt / max enstrophy."""
    d = enstrophy_integral(grid, times, sol_a.v_hats - sol_b.v_hats)
    ref = max(sol_a.enstrophy_used, sol_b.enstrophy_used, 1e-300)
    return d / ref


def kkt_report(solution):
    """Complementarity and sign bookkeeping for one solution."""
    slack = solution.radius_sq - solution.enstrophy_used
    return {
        "lambda": solution.lam,
        "one_minus_two_lambda": solution.one_minus_two_lambda,
        "slack": slack,
        "complementarity": abs(solution.lam * slack),
        "feasible": solution.enstrophy_used <= solution.radius_sq * (1.0 + 1e-12),
        "sign_ok": (solution.lam <= 0.0) if solution.constraint_active else (solution.lam == 0.0),
    }


def default_radius_sq(trajectory):
    """The enstrophy-ball budget 1/2 ||u0||^2 (the trajectory's initial energy)."""
    return float(trajectory.initial_energy)


def _basket_weights(basket, times):
    """w[i, k] = tw_i s_k(t_i): trapezoid weight times the window of element k."""
    windows = np.stack([el.window(times) for el in basket], axis=1)
    return trapezoid_weights(times)[:, None] * windows


def _basket_norms(basket, times):
    """||phi_k||_{L2(0,T;V)} per basket element."""
    return np.array([spacetime_gradient_norm(el, times) for el in basket])


@dataclass(frozen=True)
class BasketPairing:
    """Time-integrated basket pairings of one flux and one candidate minimizer.

    flux[k]  = int s_k <J, grad psi_k> dt
    vstar[k] = int s_k <grad v*, grad psi_k> dt
    scale[k] = ||J||_{L2L2} ||phi_k||_{L2(0,T;V)}, the flux scale of el_residual
    """

    one_minus_two_lambda: float
    flux: np.ndarray = field(repr=False)
    vstar: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)


def pair_basket(solution, flux, basket):
    """Pair any flux and candidate minimizer with the basket (one pass)."""
    grid = flux.grid
    weights = _basket_weights(basket, flux.times)
    pair_j = np.zeros(len(basket))
    pair_v = np.zeros(len(basket))
    j_sq = 0.0
    for i in range(len(flux)):
        j_hat = flux.j_hats[i]
        pair_j += weights[i] * basket.pair(j_hat)
        pair_v += weights[i] * basket.pair_gradient(solution.v_hats[i])
        j_sq += flux.weights[i] * inner_product(grid, j_hat, j_hat)
    scale = float(np.sqrt(max(j_sq, 0.0))) * _basket_norms(basket, flux.times)
    return BasketPairing(solution.one_minus_two_lambda, pair_j, pair_v, scale)


def lagrange_ratio(pairing):
    """Per-element ratio int s<J, grad psi> / int s<grad v*, grad psi>.

    Elements whose denominator is at most DEGENERATE_RTOL times their flux
    scale are skipped (ratio NaN); if all are degenerate that is an error.
    Every surviving ratio must match one_minus_two_lambda.
    """
    ok = np.abs(pairing.vstar) > DEGENERATE_RTOL * pairing.scale
    if not np.any(ok):
        raise MinimizerError("all basket denominators degenerate")
    ratios = np.full(len(ok), np.nan)
    ratios[ok] = pairing.flux[ok] / pairing.vstar[ok]
    reference = pairing.one_minus_two_lambda
    return {
        "ratios": ratios,
        "reference": reference,
        "max_deviation": float(np.nanmax(np.abs(ratios - reference))),
    }


def el_residual(pairing):
    """Weak Euler-Lagrange defect over the basket, relative units.

    For each element: |(1-2 lambda) int s<grad v*, grad psi> - int s<J, grad psi>|
    normalized by the larger of the two pairings and the flux scale
    ||J|| ||phi_k||.  The scale bounds the flux pairing (Cauchy-Schwarz), so
    criterion 9's bound is relative to it, not to the element's own pairing.
    For an element that lagrange_ratio keeps, the defect relative to its own
    pairing is |ratio - (1-2 lambda)| / |ratio|, at most max_deviation since
    |ratio| ~ 1-2 lambda >= 1; criterion 8 certifies that.  Only the skipped
    elements rest on the scale-relative bound alone.
    """
    weighted = pairing.one_minus_two_lambda * pairing.vstar
    scale = np.maximum(
        np.maximum(np.abs(pairing.flux), np.abs(weighted)), np.maximum(pairing.scale, 1e-300)
    )
    per_element = np.abs(weighted - pairing.flux) / scale
    return {"max": float(np.max(per_element)), "per_element": per_element}


@dataclass(frozen=True)
class BoussinesqReport:
    """Stress-modeling residuals at one width.

    The divergence-tested combination R - 2 nu sym(grad ubar) +
    2 (1-2 lambda) sym(grad v*) is the Euler-Lagrange equation rearranged,
    so its basket pairings must vanish to round-off (asserted).  The
    modeling form R - 2 (1-2 lambda) sym(grad v*) drops the viscous strain
    -- meaningful only in the refinement limit -- and is reported unasserted,
    both divergence-tested and pointwise.
    """

    delta: float
    el_form_max: float  # normalized, asserted small
    el_form: np.ndarray = field(repr=False)
    model_form_max: float  # normalized, report only
    model_form: np.ndarray = field(repr=False)
    pointwise_ratio: float  # ||R - 2(1-2 lambda) sym grad v*|| / ||R||, report only
    stress_norm: float


def boussinesq_residual(delta, el_pairs, model_pairs, stress_sq, resid_sq, basket_norms):
    """Normalize the time-integrated stress-modeling pairings of one width.

    el_pairs / model_pairs hold int s<T, grad psi_k> dt of the Euler-Lagrange
    and modeling tensors, stress_sq = int ||R||^2 dt and resid_sq =
    int ||R - 2(1-2 lambda) sym grad v*||^2 dt.
    """
    stress_norm = float(np.sqrt(max(stress_sq, 0.0)))
    scales = np.maximum(stress_norm * basket_norms, 1e-300)
    el_norm = np.abs(el_pairs) / scales
    model_norm = np.abs(model_pairs) / scales
    return BoussinesqReport(
        delta=delta,
        el_form_max=float(np.max(el_norm)),
        el_form=el_norm,
        model_form_max=float(np.max(model_norm)),
        model_form=model_norm,
        pointwise_ratio=float(np.sqrt(max(resid_sq, 0.0)) / max(stress_norm, 1e-300)),
        stress_norm=stress_norm,
    )


def energy_drop_identity(delta, resolved_energy, w_ubar):
    """Resolved energy drop vs -(1-2 lambda) int <grad v*, grad ubar> dt.

    resolved_energy is the series 1/2 ||ubar||^2 at this width, and w_ubar
    is int <grad w, grad ubar> dt for the unconstrained minimizer
    w = (1-2 lambda) v*.  The right side is the resolved-balance flux
    rewritten through the weak Euler-Lagrange equation with test function
    ubar, so the residual must match quadrature accuracy on resolved runs.
    """
    lhs = resolved_energy[-1] - resolved_energy[0]
    rhs = -w_ubar
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs), "delta": delta}


def _fit_order(deltas, values):
    """Least-squares slope of log|value| vs log(delta); NaN if underdetermined."""
    deltas = np.asarray(deltas, dtype=np.float64)
    values = np.abs(np.asarray(values, dtype=np.float64))
    mask = values > 0.0
    if np.count_nonzero(mask) < 2:
        return float("nan")
    slope = np.polyfit(np.log(deltas[mask]), np.log(values[mask]), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class ConvergenceReport:
    """Width-refinement pairings against the basket.

    a[w, j] = int < (1-2 lambda_w) grad v*_w - nu grad u, grad phi_j > dt
    b[w, j] = int < div R_w, phi_j > dt

    final_a_normalized = max_j |a[-1, j]| / (nu ||grad u||_{L2L2} ||grad phi_j||_{L2L2}).

    a_majorant/b_majorant carry the triangle-inequality bounds obtained by
    replacing every inner product with its Cauchy-Schwarz estimate.  A series
    whose entries all sit below FLOOR_RTOL times the majorant is cancelled to
    machine precision: the pairing is exactly zero in real arithmetic and no
    decay order can be fitted to the residual round-off noise.
    """

    deltas: tuple
    a: np.ndarray = field(repr=False)  # (widths, basket)
    b: np.ndarray = field(repr=False)
    order_a: np.ndarray = field(repr=False)  # per element
    order_b: np.ndarray = field(repr=False)
    monotone_a: bool
    monotone_b: bool
    lambdas: tuple
    one_minus_two_lambdas: tuple
    enstrophy: tuple  # int ||grad v*||^2 dt per width (weak-limit proxy)
    final_a_normalized: float
    grad_u_norm: float  # ||grad u||_{L2(0,T;L2)}
    basket_norms: np.ndarray = field(repr=False)  # ||phi_j||_{L2(0,T;V)}
    a_majorant: np.ndarray = field(repr=False)  # (widths, basket)
    b_majorant: np.ndarray = field(repr=False)
    a_at_floor: bool
    b_at_floor: bool


@dataclass(frozen=True)
class WidthAudit:
    """The minimizer at one width and every identity checked on it."""

    delta: float
    solution: MinimizerSolution  # scalars only: v_hats is released (None)
    lagrange: dict
    el: dict
    boussinesq: BoussinesqReport
    energy_drop: dict
    a: np.ndarray = field(repr=False)  # refinement pairings per basket element
    b: np.ndarray = field(repr=False)
    a_majorant: np.ndarray = field(repr=False)
    b_majorant: np.ndarray = field(repr=False)
    stress_limit: dict  # the nu = 1 row; dual_proxy is added from b


def weak_convergence_diag(widths, nu, grad_u_norm, basket_norms):
    """Width-refinement trends of the pairings a and b across audited widths."""
    deltas = tuple(w.delta for w in widths)
    a = np.stack([w.a for w in widths])
    b = np.stack([w.b for w in widths])
    maj_a = np.stack([w.a_majorant for w in widths])
    maj_b = np.stack([w.b_majorant for w in widths])
    final_a_normalized = float(
        np.max(np.abs(a[-1]) / (nu * grad_u_norm * basket_norms))
    )
    abs_a = np.abs(a)
    abs_b = np.abs(b)
    return ConvergenceReport(
        deltas=deltas,
        a=a,
        b=b,
        order_a=np.array([_fit_order(deltas, col) for col in abs_a.T]),
        order_b=np.array([_fit_order(deltas, col) for col in abs_b.T]),
        monotone_a=bool(np.all(np.diff(abs_a, axis=0) < 0.0)),
        monotone_b=bool(np.all(np.diff(abs_b, axis=0) < 0.0)),
        lambdas=tuple(w.solution.lam for w in widths),
        one_minus_two_lambdas=tuple(w.solution.one_minus_two_lambda for w in widths),
        enstrophy=tuple(w.solution.enstrophy_used for w in widths),
        final_a_normalized=final_a_normalized,
        grad_u_norm=grad_u_norm,
        basket_norms=basket_norms,
        a_majorant=maj_a,
        b_majorant=maj_b,
        a_at_floor=bool(np.all(abs_a <= FLOOR_RTOL * maj_a)),
        b_at_floor=bool(np.all(abs_b <= FLOOR_RTOL * maj_b)),
    )


def stress_limit_diagnostics(widths, basket_norms):
    """Reynolds-stress limit rows with the viscous weight set to 1.

    Per width: int <R, grad v*>, int <R, grad u>, int <grad u, grad v*>, the
    dual-norm proxy max_j |int <div R, phi_j>| / ||phi_j|| (the b row of the
    refinement pairings), K(v*) vs K(-v*), and the multiplier.  The
    comparison inequality
        int <R, grad v*>  <=  int <grad u, grad v*>
    is checked at the finest width with 5% slack; everything else is report
    only.
    """
    rows = [
        dict(w.stress_limit, dual_proxy=float(np.max(np.abs(w.b) / basket_norms)))
        for w in widths
    ]
    finest = rows[-1]
    inequality_ok = finest["stress_vstar"] <= (
        finest["gradu_gradv"] + 0.05 * abs(finest["gradu_gradv"]) + 1e-12
    )
    return {"rows": rows, "finest_inequality_ok": bool(inequality_ok)}


@dataclass(frozen=True)
class AuditReport:
    """audit_widths' result: per-width rows, their cross-width reductions,
    and the finest width's minimizer (for storage and the oracle check)."""

    widths: tuple  # WidthAudit per width, coarse to fine
    weak: ConvergenceReport
    stress_limit: dict
    solution: MinimizerSolution = field(repr=False)


def audit_widths(trajectory, deltas, basket, radius_sq):
    """Solve the minimization at every width and audit its identities.

    One pass over filtering.filtered_pairs, with grad u and its basket
    pairing formed once per snapshot.  Each width's unscaled integrals of
    w = (1-2 lambda) v* and of the nu = 1 minimizer w1 sit in a row of
    arrays with a leading width axis and are added in time order; after the
    pass one ball rule per problem scales them.  Widths run coarse to fine; only the finest width's
    v* is kept.
    """
    if len(deltas) < 3:
        raise MinimizerError("need at least three widths for refinement trends")
    radius_sq = float(radius_sq)
    grid = trajectory.grid
    nu = grid.nu
    times = trajectory.times
    tw = trapezoid_weights(times)
    weights = _basket_weights(basket, times)
    basket_norms = _basket_norms(basket, times)
    psi_l2, psi_grad = basket.norms()
    ordered = sorted((float(d) for d in deltas), reverse=True)
    kernels = [kernel_for(grid, delta) for delta in ordered]
    finest = len(kernels) - 1

    pair_j, pair_w, a, b, maj_a, maj_b, el_pairs, model_pairs = np.zeros(
        (8, len(kernels), len(basket))
    )
    big_w, j_w, j_sq, stress_sq, resid_sq, w_ubar, big_w1, j1_w1, r_w1, u_w1, r_u = np.zeros(
        (11, len(kernels))
    )
    resolved_energy = np.empty((len(kernels), len(trajectory)))
    grad_u_snap = np.empty(len(trajectory))
    v_hats = np.empty((len(trajectory), 3) + grid.spectral_shape, dtype=complex)
    for i, u_hat, _, pairs in filtered_pairs(trajectory, kernels):
        grad_u = gradient(grid, u_hat)
        grad_u_pair = basket.pair_gradient(u_hat)
        grad_u_snap[i] = np.sqrt(gradient_norm_sq(grid, u_hat))
        wt = weights[i]
        for m, _, ub_hat, r_hat in pairs:
            resolved_energy[m, i] = 0.5 * norm_sq(grid, ub_hat)
            grad_ub = gradient(grid, ub_hat)
            j_hat = nu * grad_ub - r_hat
            j1_hat = grad_ub - r_hat
            w_hat = -_poisson_rhs(grid, j_hat) * grid.inv_k_sq
            w1_hat = -_poisson_rhs(grid, j1_hat) * grid.inv_k_sq
            if m == finest:
                v_hats[i] = w_hat
            w_sq = gradient_norm_sq(grid, w_hat)
            big_w[m] += tw[i] * w_sq
            grad_w = gradient(grid, w_hat)
            j_w[m] += tw[i] * inner_product(grid, j_hat, grad_w)
            j_sq[m] += tw[i] * inner_product(grid, j_hat, j_hat)
            pw = basket.pair_gradient(w_hat)
            pair_j[m] += wt * basket.pair(j_hat)
            pair_w[m] += wt * pw
            a[m] += wt * (pw - nu * grad_u_pair)
            div_r = tensor_divergence(grid, r_hat)
            b[m] += wt * basket.pair(div_r)
            maj_a[m] += np.abs(wt) * psi_grad * (np.sqrt(w_sq) + nu * grad_u_snap[i])
            maj_b[m] += np.abs(wt) * np.sqrt(inner_product(grid, div_r, div_r)) * psi_l2
            sym_w = 0.5 * (grad_w + np.swapaxes(grad_w, 0, 1))
            sym_ub = 0.5 * (grad_ub + np.swapaxes(grad_ub, 0, 1))
            model = r_hat - 2.0 * sym_w
            el_tensor = r_hat - 2.0 * nu * sym_ub + 2.0 * sym_w
            el_pairs[m] += wt * basket.pair(el_tensor)
            model_pairs[m] += wt * basket.pair(model)
            stress_sq[m] += tw[i] * inner_product(grid, r_hat, r_hat)
            resid_sq[m] += tw[i] * inner_product(grid, model, model)
            w_ubar[m] += tw[i] * gradient_inner_product(grid, w_hat, ub_hat)
            big_w1[m] += tw[i] * gradient_norm_sq(grid, w1_hat)
            grad_w1 = gradient(grid, w1_hat)
            j1_w1[m] += tw[i] * inner_product(grid, j1_hat, grad_w1)
            r_w1[m] += tw[i] * inner_product(grid, r_hat, grad_w1)
            u_w1[m] += tw[i] * gradient_inner_product(grid, u_hat, w1_hat)
            r_u[m] += tw[i] * inner_product(grid, r_hat, grad_u)

    widths = []
    for m, (delta, kernel) in enumerate(zip(ordered, kernels)):
        s, lam, active = _ball_rule(big_w[m], radius_sq)
        omtl = 1.0 - 2.0 * lam
        sol = MinimizerSolution(
            times=times.copy(),
            v_hats=None,
            lam=lam,
            one_minus_two_lambda=omtl,
            enstrophy_used=float(big_w[m] / s**2),
            radius_sq=radius_sq,
            k_value=float(0.5 * big_w[m] / s**2 - j_w[m] / s),
            constraint_active=active,
            source="closed_form",
        )
        s1, lam1, _ = _ball_rule(big_w1[m], radius_sq)
        k1, j1_v1 = 0.5 * big_w1[m] / s1**2, j1_w1[m] / s1
        stress_limit = {
            "delta": kernel.delta,
            "lambda": lam1,
            "one_minus_two_lambda": 1.0 - 2.0 * lam1,
            "stress_vstar": r_w1[m] / s1,
            "stress_gradu": r_u[m],
            "gradu_gradv": u_w1[m] / s1,
            "k_value": k1 - j1_v1,
            "k_value_negated": k1 + j1_v1,
            "minimality_ok": bool(k1 - j1_v1 <= k1 + j1_v1 + 1e-12 * max(1.0, abs(k1 + j1_v1))),
        }
        flux_norm = float(np.sqrt(max(j_sq[m], 0.0)))
        pairing = BasketPairing(omtl, pair_j[m], pair_w[m] / s, flux_norm * basket_norms)
        widths.append(
            WidthAudit(
                delta=delta,
                solution=sol,
                lagrange=lagrange_ratio(pairing),
                el=el_residual(pairing),
                boussinesq=boussinesq_residual(
                    kernel.delta,
                    el_pairs[m],
                    model_pairs[m],
                    stress_sq[m],
                    resid_sq[m],
                    basket_norms,
                ),
                energy_drop=energy_drop_identity(kernel.delta, resolved_energy[m], w_ubar[m]),
                a=a[m],
                b=b[m],
                a_majorant=maj_a[m],
                b_majorant=maj_b[m],
                stress_limit=stress_limit,
            )
        )
    v_hats /= s  # the finest width's, the loop's last
    grad_u_norm = float(np.sqrt(np.dot(tw, grad_u_snap**2)))
    return AuditReport(
        widths=tuple(widths),
        weak=weak_convergence_diag(widths, nu, grad_u_norm, basket_norms),
        stress_limit=stress_limit_diagnostics(widths, basket_norms),
        solution=replace(widths[-1].solution, v_hats=v_hats),
    )
