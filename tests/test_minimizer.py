"""Tests for the constrained least-dissipation minimizer and its diagnostics.

Validates:
- flux bookkeeping: snapshot/time consistency, trapezoid weights, cached
  Poisson right-hand sides P div J
- manufactured gradient fluxes J = scale * s(t) * grad(phi) whose minimizer
  scale * s(t) * phi is known in closed form, in the interior and the
  boundary (active-constraint) regimes
- KKT bookkeeping: multiplier sign, complementarity, feasibility, and the
  scalar relation 1 - 2 lambda = sqrt(W / r^2) on the boundary
- agreement between the closed-form solver and the projected-gradient oracle
  started from zero and from random feasible points; the start spread,
  summed one snapshot at a time, is bit for bit the whole-array form's; the
  oracle's duality gap against the optimum known by hand
- weak diagnostics against the test-function basket: Lagrange ratios and
  Euler-Lagrange residuals from one shared pairing, and, from one
  audit_widths call on a solver trajectory, the resolved-energy pairing
  identity, the stress-limit rows (checked against a nu = 1 flux assembled
  and solved directly), stress-modeling residuals, and the width-refinement
  report; the streamed audit agrees with solve_mp on an assembled flux at
  every width and holds no per-snapshot tensor beyond the finest b = P div J,
  which is the assembled flux's bit for bit and gives solve_mp's v* and the
  oracle's input, with the oracle's k_value equal to K to round-off
- the bounded working set of the minimize stage: the audit pass and the
  oracle bit for bit against test-local references that form every field
  afresh (audit_reference, oracle_reference), at an interior and a saturated
  ball and 1 and 3 starts, with their inputs untouched, and their traced
  allocation peaks in tensor and trajectory sizes
- the band-layout pass against the full-layout reference (tests/full_layout.py):
  every field bit for bit on the band, the reductions within stated bounds
"""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from full_layout import full_minimizer_fields

from nslab import minimizer
from nslab.basket import build_basket, spacetime_gradient_norm, window_l2_sq
from nslab.dissipation import analyze_widths, structure_fields
from nslab.dissipation import kernel_gradient_hat as dissipation_kernel_gradient
from nslab.filtering import filtered_pairs, kernel_for, reynolds_stress_hat, velocity_product_hat
from nslab.minimizer import (
    DEGENERATE_RTOL,
    BasketPairing,
    FluxField,
    MinimizerError,
    MinimizerSolution,
    assemble_flux,
    audit_widths,
    default_radius_sq,
    el_residual,
    enstrophy_integral,
    k_functional,
    kkt_report,
    lagrange_ratio,
    make_gradient_flux,
    oracle_mp,
    pair_basket,
    solution_gap,
    solve_mp,
)
from nslab.solver import InitialCondition, make_initial, simulate
from nslab.spectral import (
    VOLUME,
    Grid,
    dealias,
    gradient,
    gradient_inner_product,
    gradient_norm_sq,
    inner_product,
    inverse_laplacian,
    laplacian,
    leray_project,
    norm_sq,
    parseval_sum,
    random_divergence_free,
    tensor_divergence,
    trapezoid_weights,
)

SCALE = 1.7


@pytest.fixture(scope="module")
def grid():
    return Grid(n=16, nu=0.05, dt=0.1, t_end=1.0, snapshot_stride=1)


@pytest.fixture(scope="module")
def times():
    return np.linspace(0.0, 1.0, 5)


@pytest.fixture(scope="module")
def profile(grid):
    rng = np.random.default_rng(7)
    return random_divergence_free(grid.band, rng, max_k_sq=9, amplitude=1.0)


@pytest.fixture(scope="module")
def svals(times):
    return 1.0 + 0.5 * np.sin(2.0 * np.pi * times + 0.3)


@pytest.fixture(scope="module")
def flux(grid, times, profile, svals):
    return make_gradient_flux(grid.band, times, profile, svals, scale=SCALE)


@pytest.fixture(scope="module")
def w_exact(profile, svals):
    return np.stack([SCALE * s * profile for s in svals])


@pytest.fixture(scope="module")
def big_w(grid, times, w_exact):
    return enstrophy_integral(grid.band, times, w_exact)


@pytest.fixture(scope="module")
def basket(grid):
    return build_basket(grid, t_end=1.0, seed=11, size=6, max_mode=2)


@pytest.fixture(scope="module")
def traj_grid():
    return Grid(n=16, nu=0.05, dt=2e-3, t_end=0.05, snapshot_stride=5)


@pytest.fixture(scope="module")
def trajectory(traj_grid):
    ic = InitialCondition(
        kind="random_band", amplitude=0.4, seed=3, slope=-1.0, k_min=1, k_max=3
    )
    return simulate(traj_grid, make_initial(traj_grid, ic))


@pytest.fixture(scope="module")
def traj_basket(traj_grid):
    return build_basket(traj_grid, t_end=traj_grid.t_end, seed=21, size=6, max_mode=2)


TRAJ_DELTAS = (np.pi, np.pi / 2.0, np.pi / 4.0)


@pytest.fixture(scope="module")
def audit(trajectory, traj_basket):
    """One audit of the trajectory at three widths (coarse to fine)."""
    return audit_widths(trajectory, TRAJ_DELTAS, traj_basket, default_radius_sq(trajectory))


def flux_oracle(flux, radius_sq, **options):
    """oracle_mp on the Poisson right-hand side b = P div J of a FluxField."""
    return oracle_mp(flux.grid, flux.times, flux.poisson_rhs(), radius_sq, **options)


@pytest.fixture(scope="module")
def interior_solution(flux, big_w):
    return solve_mp(flux, radius_sq=2.0 * big_w)


@pytest.fixture(scope="module")
def active_solution(flux, big_w):
    return solve_mp(flux, radius_sq=0.25 * big_w)


class TestFluxField:
    def test_time_snapshot_mismatch_rejected(self, grid, times, flux):
        """A flux whose time axis disagrees with its snapshot count is an error."""
        with pytest.raises(MinimizerError, match="disagree"):
            FluxField(grid.band, times[:-1], flux.j_hats)

    def test_weights_are_trapezoid(self, flux, times):
        """Quadrature weights are the trapezoid weights of the snapshot times."""
        dt = times[1] - times[0]
        expected = np.full(len(times), dt)
        expected[0] = expected[-1] = dt / 2.0
        assert np.allclose(flux.weights, expected, rtol=0.0, atol=1e-15)

    def test_poisson_rhs_matches_laplacian(self, grid, flux, profile, svals):
        """For J = c s(t) grad(phi) with div-free phi, P div J = c s(t) lap(phi)."""
        rhs = flux.poisson_rhs()
        for i, s in enumerate(svals):
            expected = SCALE * s * laplacian(grid.band, profile)
            assert np.max(np.abs(rhs[i] - expected)) < 1e-12

    def test_poisson_rhs_cached(self, flux):
        """A second request returns the same array object."""
        assert flux.poisson_rhs() is flux.poisson_rhs()

    def test_gradient_flux_values(self, grid, flux, profile, svals):
        """make_gradient_flux stores scale * s_i * grad(phi) per snapshot."""
        g = gradient(grid.band, profile)
        for i, s in enumerate(svals):
            assert np.max(np.abs(flux.j_hats[i] - SCALE * s * g)) < 1e-14

    def test_assembled_flux_matches_definition(self, traj_grid, trajectory):
        """assemble_flux produces nu grad(ubar) - R per snapshot."""
        kernel = kernel_for(traj_grid, np.pi / 2.0)
        flux = assemble_flux(trajectory, kernel)
        i = len(trajectory) // 2
        u_hat = trajectory.u_hats[i]
        ub_hat = kernel.multiplier * u_hat
        product_hat = velocity_product_hat(traj_grid, u_hat)
        r_hat = reynolds_stress_hat(traj_grid, kernel, ub_hat, product_hat)
        expected = traj_grid.nu * gradient(traj_grid.band, ub_hat) - r_hat
        assert np.max(np.abs(flux.j_hats[i] - expected)) < 1e-12


class TestManufacturedInterior:
    """Budget 2W leaves the constraint inactive; the Poisson solve is exact."""

    def test_recovers_exact_minimizer(self, grid, times, interior_solution, w_exact):
        """v* equals scale * s(t) * phi snapshot-by-snapshot to round-off."""
        gap = enstrophy_integral(grid.band, times, interior_solution.v_hats - w_exact)
        assert gap < 1e-20 * enstrophy_integral(grid.band, times, w_exact)

    def test_multiplier_zero(self, interior_solution):
        """Interior solution carries lambda = 0 and an inactive constraint."""
        assert interior_solution.lam == 0.0
        assert interior_solution.one_minus_two_lambda == 1.0
        assert not interior_solution.constraint_active

    def test_enstrophy_used(self, interior_solution, big_w):
        """Reported enstrophy equals the analytic integral of the minimizer."""
        assert interior_solution.enstrophy_used == pytest.approx(big_w, rel=1e-12)

    def test_k_value_is_minus_half_enstrophy(self, interior_solution, big_w):
        """At the unconstrained minimum K(w) = -W/2 for any quadratic of this form."""
        assert interior_solution.k_value == pytest.approx(-0.5 * big_w, rel=1e-12)

    def test_k_functional_at_zero(self, flux):
        """K(0) = 0, and the minimizer value lies strictly below it."""
        zeros = np.zeros_like(flux.j_hats[:, 0])
        assert k_functional(flux, zeros) == 0.0

    def test_perturbation_raises_k(self, grid, flux, interior_solution, profile):
        """Any perturbation of the interior minimizer increases K."""
        rng = np.random.default_rng(5)
        bump = random_divergence_free(grid.band, rng, max_k_sq=4, amplitude=0.3)
        perturbed = interior_solution.v_hats + 0.1 * np.stack([bump] * len(flux))
        assert k_functional(flux, perturbed) > interior_solution.k_value

    def test_kkt_report(self, interior_solution, big_w):
        """Slack is positive, complementarity exact, signs consistent."""
        report = kkt_report(interior_solution)
        assert report["lambda"] == 0.0
        assert report["slack"] == pytest.approx(big_w, rel=1e-12)
        assert report["complementarity"] == 0.0
        assert report["feasible"]
        assert report["sign_ok"]


class TestManufacturedActive:
    """Budget W/4 forces the boundary: v* = w / 2 and 1 - 2 lambda = 2."""

    def test_rescaled_minimizer(self, grid, times, active_solution, w_exact):
        """The constrained solution is the unconstrained one shrunk by s = 2."""
        gap = enstrophy_integral(grid.band, times, active_solution.v_hats - 0.5 * w_exact)
        assert gap < 1e-20 * enstrophy_integral(grid.band, times, w_exact)

    def test_scalar_multiplier(self, active_solution):
        """s = sqrt(W / r^2) = 2 gives lambda = (1 - s)/2 = -1/2."""
        assert active_solution.constraint_active
        assert active_solution.lam == pytest.approx(-0.5, abs=1e-12)
        assert active_solution.one_minus_two_lambda == pytest.approx(2.0, abs=1e-12)

    def test_constraint_saturated(self, active_solution, big_w):
        """Enstrophy used equals the budget exactly."""
        assert active_solution.enstrophy_used == pytest.approx(0.25 * big_w, rel=1e-12)

    def test_k_value_formula(self, active_solution, big_w):
        """K(w/s) = W (1/(2 s^2) - 1/s); for s = 2 this is -3W/8."""
        assert active_solution.k_value == pytest.approx(-0.375 * big_w, rel=1e-12)

    def test_kkt_report(self, active_solution, big_w):
        """Zero slack, negative multiplier, complementarity at round-off."""
        report = kkt_report(active_solution)
        assert report["lambda"] < 0.0
        assert abs(report["slack"]) < 1e-12 * big_w
        assert report["complementarity"] < 1e-12 * big_w
        assert report["feasible"]
        assert report["sign_ok"]


class TestOracleAgreement:
    """The projected-gradient oracle reproduces both regimes independently."""

    def test_interior_gap(self, grid, times, flux, big_w):
        """Oracle and closed form coincide when the constraint is slack."""
        closed = solve_mp(flux, radius_sq=2.0 * big_w)
        oracle = flux_oracle(flux, radius_sq=2.0 * big_w)
        assert oracle.converged
        assert oracle.source == "oracle"
        assert closed.source == "closed_form"
        assert solution_gap(grid.band, times, closed, oracle) < 1e-16
        assert oracle.lam == 0.0
        assert not oracle.constraint_active

    def test_active_gap_and_multiplier(self, grid, times, flux, big_w):
        """On the boundary the oracle recovers v* and the multiplier from mu."""
        closed = solve_mp(flux, radius_sq=0.25 * big_w)
        oracle = flux_oracle(flux, radius_sq=0.25 * big_w)
        assert oracle.converged
        assert oracle.constraint_active
        assert solution_gap(grid.band, times, closed, oracle) < 1e-16
        assert oracle.lam == pytest.approx(closed.lam, abs=1e-8)
        assert oracle.k_value == pytest.approx(closed.k_value, rel=1e-10)

    @pytest.mark.parametrize("starts", [1, 3])
    @pytest.mark.parametrize("share, k_star", [(2.0, -0.5), (0.25, -0.375)])
    def test_dual_gap(self, flux, big_w, starts, share, k_star):
        """On the manufactured flux the optimum is known by hand: K* = -W/2
        inside the ball (r^2 = 2W) and K* = r^2/2 - sqrt(W) r = -3W/8 on it
        (r^2 = W/4).  The oracle's duality gap F(v) - g(-lambda) is F(v) - K*
        to round-off, and it is nonnegative up to round-off: at the optimum
        the gap is zero in exact arithmetic, so its computed sign is that of
        the round-off (the benchmark runs print -2.2e-16 to 1.6e-16
        relative)."""
        oracle = flux_oracle(flux, radius_sq=share * big_w, starts=starts, seed=4)
        gap, rel = minimizer.dual_gap(oracle)
        assert oracle.converged
        assert abs(gap - (oracle.k_value - k_star * big_w)) <= 1e-14 * big_w
        scale = max(abs(oracle.k_value), abs(oracle.k_value - gap))
        assert rel == pytest.approx(gap / scale, rel=1e-12, abs=1e-300)
        assert rel >= -1e-14

    def test_dual_gap_away_from_the_optimum(self, flux, big_w):
        """At a point short of the optimum the gap is positive: with no
        iteration the zero start stays at v = 0, where F = 0 and, the ball
        inactive, mu = 0 and g = -W/2."""
        oracle = flux_oracle(flux, radius_sq=2.0 * big_w, starts=1, iters=0)
        gap, rel = minimizer.dual_gap(oracle)
        assert oracle.k_value == 0.0 and oracle.lam == 0.0
        assert gap == pytest.approx(0.5 * big_w, rel=1e-14)
        assert rel == 1.0

    def test_starts_agree(self, flux, big_w):
        """Random feasible starts land on the same point as the zero start."""
        oracle = flux_oracle(flux, radius_sq=0.25 * big_w, starts=3, seed=4)
        assert oracle.start_spread < 1e-12

    @pytest.mark.parametrize("iters", [0, 2000])
    def test_start_spread_is_whole_array_form(self, monkeypatch, grid, times, flux, big_w, iters):
        """The start spread summed one snapshot at a time equals, bit for bit,
        the spread of the whole-trajectory differences v_best - v_other, for
        starts left where they began (iters 0) and for converged ones."""
        seen = []

        def noting_starts(layout, times, v_hats):
            seen.append(sys._getframe(1).f_locals.get("results"))
            return enstrophy_integral(layout, times, v_hats)

        monkeypatch.setattr(minimizer, "enstrophy_integral", noting_starts)
        oracle = flux_oracle(flux, radius_sq=0.25 * big_w, starts=3, seed=4, iters=iters)
        results = seen[0]
        assert len(results) == 3
        v_best = results[0][1]
        spread = 0.0
        for _, v_other, _ in results[1:]:
            d = enstrophy_integral(grid.band, times, v_best - v_other)
            spread = max(spread, d)
        spread_ref = max(enstrophy_integral(grid.band, times, v_best), 1e-300)
        assert oracle.start_spread == spread / spread_ref
        if iters == 0:
            assert oracle.start_spread > 0.1

    def test_gradient_certificate(self, flux, big_w):
        """The projected gradient at the reported point meets the tolerance."""
        oracle = flux_oracle(flux, radius_sq=2.0 * big_w, tol=1e-10)
        assert oracle.grad_norm <= 1e-10 * oracle.grad_norm_ref
        assert oracle.iterations >= 1

    def test_solution_gap_of_identical(self, grid, times, flux, big_w):
        """The gap of a solution against itself is exactly zero."""
        sol = solve_mp(flux, radius_sq=2.0 * big_w)
        assert solution_gap(grid.band, times, sol, sol) == 0.0


class TestWeakDiagnostics:
    """Basket pairings certify the Euler-Lagrange equation of the solution."""

    def test_lagrange_ratios_interior(self, flux, big_w, basket):
        """Every non-degenerate ratio int<J, grad phi>/int<grad v*, grad phi> is 1."""
        sol = solve_mp(flux, radius_sq=2.0 * big_w)
        report = lagrange_ratio(pair_basket(sol, flux, basket))
        assert report["reference"] == 1.0
        assert report["max_deviation"] < 1e-9
        assert np.all(np.isfinite(report["ratios"]) | np.isnan(report["ratios"]))

    def test_lagrange_ratios_active(self, flux, big_w, basket):
        """On the boundary every surviving ratio equals 1 - 2 lambda = 2."""
        sol = solve_mp(flux, radius_sq=0.25 * big_w)
        report = lagrange_ratio(pair_basket(sol, flux, basket))
        assert report["reference"] == pytest.approx(2.0, abs=1e-12)
        assert report["max_deviation"] < 1e-9

    def test_lagrange_degenerate_basket(self, grid, times, flux, big_w, basket):
        """A zero candidate makes every denominator degenerate, which is an error."""
        sol = solve_mp(flux, radius_sq=2.0 * big_w)
        fake = MinimizerSolution(
            times=sol.times,
            v_hats=np.zeros_like(sol.v_hats),
            lam=0.0,
            one_minus_two_lambda=1.0,
            enstrophy_used=0.0,
            radius_sq=sol.radius_sq,
            k_value=0.0,
            constraint_active=False,
            source="closed_form",
        )
        with pytest.raises(MinimizerError, match="degenerate"):
            lagrange_ratio(pair_basket(fake, flux, basket))

    def test_lagrange_cutoff_is_relative_to_scale(self):
        """Rescaling a pairing's flux, vstar and scale together changes
        neither the skipped elements nor the maximal deviation."""
        rng = np.random.default_rng(4)
        scale = rng.uniform(0.5, 2.0, 12)
        vstar = scale * 10.0 ** rng.uniform(-7.0, -1.0, 12) * rng.choice((-1.0, 1.0), 12)
        flux = 3.0 * vstar * (1.0 + 1e-3 * rng.standard_normal(12))
        report = lagrange_ratio(BasketPairing(3.0, flux, vstar, scale))
        skipped = np.isnan(report["ratios"])
        assert np.array_equal(skipped, np.abs(vstar) <= DEGENERATE_RTOL * scale)
        assert 0 < skipped.sum() < 12
        for c in (1e-10, 1e10):
            scaled = lagrange_ratio(BasketPairing(3.0, c * flux, c * vstar, c * scale))
            assert np.array_equal(np.isnan(scaled["ratios"]), skipped)
            assert scaled["max_deviation"] == pytest.approx(report["max_deviation"], rel=1e-12)

    def test_el_residual_roundoff(self, flux, big_w, basket):
        """The weak Euler-Lagrange defect of the exact solution is round-off."""
        sol = solve_mp(flux, radius_sq=0.25 * big_w)
        report = el_residual(pair_basket(sol, flux, basket))
        assert report["max"] < 1e-10
        assert report["per_element"].shape == (len(basket),)

    def test_basket_norms(self, grid, times, basket):
        """Spatial profiles are unit-gradient and the space-time norm factorizes."""
        for element in basket:
            assert element.grad_norm_sq == pytest.approx(1.0, rel=1e-12)
            st = spacetime_gradient_norm(element, times)
            assert st == pytest.approx(np.sqrt(window_l2_sq(element, times)), rel=1e-12)


class TestTrajectoryDiagnostics:
    """Diagnostics on a short solver run behave as the identities demand."""

    def test_default_radius(self, trajectory):
        """The default enstrophy budget is the initial kinetic energy."""
        assert default_radius_sq(trajectory) == trajectory.initial_energy

    def test_solvers_agree_on_solver_flux(self, traj_grid, trajectory):
        """Closed form and oracle coincide on an assembled trajectory flux."""
        kernel = kernel_for(traj_grid, np.pi / 2.0)
        flux = assemble_flux(trajectory, kernel)
        radius_sq = default_radius_sq(trajectory)
        closed = solve_mp(flux, radius_sq)
        oracle = flux_oracle(flux, radius_sq)
        assert oracle.converged
        assert solution_gap(traj_grid.band, trajectory.times, closed, oracle) < 1e-12
        assert oracle.lam == pytest.approx(closed.lam, abs=1e-8)

    def test_pass_drops_transform_buffers(self, trajectory, traj_basket, audit):
        """audit_widths drops the grid's band-transform buffers when it
        returns, and a pass that starts with the buffers already made gives
        the same bits as one that makes them."""
        grid = trajectory.grid
        grid.band.inverse(trajectory.u_hats[-1])
        assert grid.__dict__["_buffers"]
        again = audit_widths(trajectory, TRAJ_DELTAS, traj_basket, default_radius_sq(trajectory))
        assert not grid.__dict__.get("_buffers")
        assert np.array_equal(again.rhs, audit.rhs) and again.scale == audit.scale
        assert np.array_equal(again.weak.a, audit.weak.a)
        assert np.array_equal(again.weak.b, audit.weak.b)
        assert again.stress_limit == audit.stress_limit
        for width, ref in zip(again.widths, audit.widths, strict=True):
            assert (width.solution.lam, width.solution.k_value) == (
                ref.solution.lam, ref.solution.k_value
            )

    def test_resolved_energy_pairing(self, traj_grid, audit, trajectory):
        """The filtered energy drop equals -(1-2 lambda) int<grad v*, grad ubar> dt
        up to the time-quadrature error of the budget."""
        kernel = kernel_for(traj_grid, np.pi / 2.0)
        report = audit.widths[1].energy_drop
        assert report["delta"] == kernel.delta
        assert report["lhs"] < 0.0
        assert report["residual"] < 1e-6 * trajectory.initial_energy
        assert report["rhs"] == pytest.approx(report["lhs"], abs=report["residual"] * 1.01)

    def test_stress_limit_rows(self, audit):
        """Each width row reports the pairings; the finest-width comparison
        inequality and minimality of K hold."""
        report = audit.stress_limit
        assert len(report["rows"]) == 3
        assert report["finest_inequality_ok"]
        for row in report["rows"]:
            assert row["minimality_ok"]
            assert row["dual_proxy"] >= 0.0
            assert row["k_value"] <= row["k_value_negated"] + 1e-12

    def test_stress_limit_widths_sorted(self, trajectory, traj_basket):
        """Rows come back coarse to fine regardless of the input order."""
        deltas = [np.pi / 4.0, np.pi, np.pi / 2.0]
        report = audit_widths(
            trajectory, deltas, traj_basket, default_radius_sq(trajectory)
        ).stress_limit
        assert [row["delta"] for row in report["rows"]] == [np.pi, np.pi / 2.0, np.pi / 4.0]

    def test_stress_limit_matches_direct_solve(self, traj_grid, trajectory, traj_basket, audit):
        """Every nu = 1 row matches a flux grad(ubar) - R assembled here from
        reynolds_stress_hat and solved by solve_mp, and its dual proxy is the
        b row of the refinement report."""
        grid, band = traj_grid, traj_grid.band
        times = trajectory.times
        tw = trapezoid_weights(times)
        radius_sq = default_radius_sq(trajectory)
        norms = np.array([spacetime_gradient_norm(el, times) for el in traj_basket])
        for w, row in enumerate(audit.stress_limit["rows"]):
            kernel = kernel_for(grid, row["delta"])
            r_hats = np.stack(
                [
                    reynolds_stress_hat(
                        grid, kernel, kernel.multiplier * u_hat, velocity_product_hat(grid, u_hat)
                    )
                    for u_hat in trajectory.u_hats
                ]
            )
            j_hats = np.stack(
                [
                    gradient(band, kernel.multiplier * u_hat) - r_hat
                    for u_hat, r_hat in zip(trajectory.u_hats, r_hats)
                ]
            )
            flux = FluxField(band, times, j_hats)
            sol = solve_mp(flux, radius_sq)
            expected = {
                "lambda": sol.lam,
                "one_minus_two_lambda": sol.one_minus_two_lambda,
                "stress_vstar": sum(
                    tw[i] * inner_product(band, r_hats[i], gradient(band, sol.v_hats[i]))
                    for i in range(len(times))
                ),
                "stress_gradu": sum(
                    tw[i] * inner_product(band, r_hats[i], gradient(band, u_hat))
                    for i, u_hat in enumerate(trajectory.u_hats)
                ),
                "gradu_gradv": sum(
                    tw[i] * gradient_inner_product(band, u_hat, sol.v_hats[i])
                    for i, u_hat in enumerate(trajectory.u_hats)
                ),
                "k_value": sol.k_value,
                "k_value_negated": k_functional(flux, -sol.v_hats),
            }
            for key, value in expected.items():
                assert row[key] == pytest.approx(value, rel=1e-12, abs=1e-300), key
            dual = np.max(np.abs(audit.weak.b[w]) / norms)
            assert row["dual_proxy"] == pytest.approx(dual, rel=1e-12)

    @pytest.mark.parametrize("regime", ["interior", "active"])
    def test_streamed_audit_matches_solve_mp(self, trajectory, traj_basket, regime):
        """At every width the streamed closed form (unscaled sums divided by
        1 - 2 lambda after the pass) gives the multiplier, enstrophy, K and
        activity of solve_mp on the assembled flux.  The finest b the audit
        keeps is the assembled flux's P div J, and the v* derived from it
        snapshot by snapshot is solve_mp's, both bit for bit."""
        radius_sq = default_radius_sq(trajectory) if regime == "interior" else 1e-4
        report = audit_widths(trajectory, TRAJ_DELTAS, traj_basket, radius_sq)
        for width in report.widths:
            flux = assemble_flux(trajectory, kernel_for(trajectory.grid, width.delta))
            sol = solve_mp(flux, radius_sq)
            got = width.solution
            assert got.constraint_active == sol.constraint_active == (regime == "active")
            for key in ("lam", "one_minus_two_lambda", "enstrophy_used", "k_value"):
                assert getattr(got, key) == pytest.approx(getattr(sol, key), rel=1e-12), key
        assert np.array_equal(report.rhs, flux.poisson_rhs())
        for i in range(len(trajectory)):
            assert np.array_equal(report.v_star(i), sol.v_hats[i])

    @pytest.mark.parametrize("regime", ["interior", "active"])
    def test_oracle_on_audit_rhs(self, trajectory, traj_basket, regime):
        """The oracle run on the audit's finest b reaches solve_mp's point,
        and its k_value, the reduced objective sum tw (1/2 ||grad v||^2 +
        <b, v>), is K(v) on the assembled flux to round-off."""
        radius_sq = default_radius_sq(trajectory) if regime == "interior" else 1e-4
        report = audit_widths(trajectory, TRAJ_DELTAS, traj_basket, radius_sq)
        grid, times = trajectory.grid, trajectory.times
        oracle = oracle_mp(grid.band, times, report.rhs, radius_sq)
        flux = assemble_flux(trajectory, kernel_for(grid, TRAJ_DELTAS[-1]))
        assert oracle.converged
        assert oracle.constraint_active == (regime == "active")
        assert solution_gap(grid.band, times, oracle, solve_mp(flux, radius_sq)) < 1e-12
        k_literal = k_functional(flux, oracle.v_hats)
        assert oracle.k_value == pytest.approx(k_literal, rel=1e-14)

    def test_audit_memory_does_not_grow_with_snapshots(self):
        """Doubling the snapshots grows the audit's peak allocation by less
        than one (10, 3, 3) flux or stress tensor: the pass streams."""
        grid_shape = (16, 16, 9)
        bound = 10 * 9 * np.prod(grid_shape) * np.dtype(complex).itemsize
        ic = InitialCondition(
            kind="random_band", amplitude=0.4, seed=3, slope=-1.0, k_min=1, k_max=3
        )
        peaks = []
        for steps in (10, 20):
            grid = Grid(n=16, nu=0.05, dt=2e-3, t_end=steps * 2e-3, snapshot_stride=1)
            traj = simulate(grid, make_initial(grid, ic))
            assert len(traj) == steps + 1
            basket = build_basket(grid, t_end=grid.t_end, seed=21, size=6, max_mode=2)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                audit_widths(traj, TRAJ_DELTAS, basket, default_radius_sq(traj))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < bound

    def test_stress_modeling_residuals(self, traj_grid, audit, traj_basket):
        """The divergence-tested Euler-Lagrange tensor vanishes to round-off;
        the modeling form and pointwise ratio are finite reports."""
        kernel = kernel_for(traj_grid, np.pi / 2.0)
        report = audit.widths[1].boussinesq
        assert report.delta == kernel.delta
        assert report.el_form_max < 1e-10
        assert report.el_form.shape == (len(traj_basket),)
        assert np.isfinite(report.model_form_max)
        assert report.model_form_max >= 0.0
        assert report.pointwise_ratio > 0.0
        assert report.stress_norm > 0.0

    def test_refinement_report(self, audit, traj_basket):
        """The width-refinement report carries per-width multipliers and
        per-element pairings with finite fit orders."""
        report = audit.weak
        assert report.deltas == (np.pi, np.pi / 2.0, np.pi / 4.0)
        assert report.a.shape == (3, len(traj_basket))
        assert report.b.shape == (3, len(traj_basket))
        assert len(report.lambdas) == 3
        assert len(report.enstrophy) == 3
        assert report.grad_u_norm > 0.0
        assert np.all(report.basket_norms > 0.0)
        assert report.final_a_normalized >= 0.0
        assert np.isfinite(report.final_a_normalized)
        assert report.order_a.shape == (len(traj_basket),)
        for omtl, lam in zip(report.one_minus_two_lambdas, report.lambdas):
            assert omtl == pytest.approx(1.0 - 2.0 * lam, rel=1e-12)

    def test_refinement_majorants_bound_pairings(self, audit):
        """Cauchy-Schwarz majorants dominate every pairing, and a random-band
        trajectory with genuine subfilter stress is not at the cancellation
        floor in either series."""
        report = audit.weak
        assert np.all(np.abs(report.a) <= report.a_majorant * (1.0 + 1e-12))
        assert np.all(np.abs(report.b) <= report.b_majorant * (1.0 + 1e-12))
        assert np.all(report.a_majorant > 0.0)
        assert np.all(report.b_majorant > 0.0)
        assert not report.a_at_floor
        assert not report.b_at_floor


class TestValidation:
    def test_oracle_rejects_mismatched_rhs(self, grid, times, flux):
        """The oracle needs one Poisson right-hand side per snapshot time."""
        with pytest.raises(MinimizerError, match="disagree"):
            oracle_mp(grid.band, times[:-1], flux.poisson_rhs(), radius_sq=1.0)

    def test_solve_rejects_nonpositive_radius(self, flux):
        """A zero or negative enstrophy budget is an error for both solvers."""
        with pytest.raises(MinimizerError, match="positive"):
            solve_mp(flux, radius_sq=0.0)
        with pytest.raises(MinimizerError, match="positive"):
            flux_oracle(flux, radius_sq=-1.0)

    def test_refinement_needs_three_widths(self, trajectory, traj_basket):
        """Fewer than three widths cannot support a refinement trend."""
        with pytest.raises(MinimizerError, match="three widths"):
            audit_widths(
                trajectory, [np.pi, np.pi / 2.0], traj_basket, default_radius_sq(trajectory)
            )


def audit_reference(trajectory, deltas, basket, radius_sq):
    """audit_widths with every per-pair field formed afresh and kept to the
    end of the pair, the Euler-Lagrange tensor formed on the whole band: the
    bitwise reference for the bounded-memory audit pass."""
    grid = trajectory.grid
    band = grid.band
    nu = grid.nu
    times = trajectory.times
    tw = trapezoid_weights(times)
    weights = minimizer._basket_weights(basket, times)
    basket_norms = minimizer._basket_norms(basket, times)
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
    rhs = np.empty((len(trajectory), 3) + band.spectral_shape, dtype=complex)
    for i, u_hat, _, pairs in filtered_pairs(trajectory, kernels):
        grad_u = gradient(band, u_hat)
        grad_u_pair = basket.pair_gradient(u_hat)
        grad_u_snap[i] = np.sqrt(gradient_norm_sq(band, u_hat))
        wt = weights[i]
        for m, ub_hat, r_hat in pairs:
            resolved_energy[m, i] = 0.5 * norm_sq(band, ub_hat)
            grad_ub = gradient(band, ub_hat)
            j_hat = nu * grad_ub - r_hat
            j1_hat = grad_ub - r_hat
            b_hat = minimizer._poisson_rhs(band, j_hat)
            if m == finest:
                rhs[i] = b_hat
            w_hat = -b_hat * band.inv_k_sq
            w1_hat = -minimizer._poisson_rhs(band, j1_hat) * band.inv_k_sq
            w_sq = gradient_norm_sq(band, w_hat)
            big_w[m] += tw[i] * w_sq
            grad_w = gradient(band, w_hat)
            j_w[m] += tw[i] * inner_product(band, j_hat, grad_w)
            j_sq[m] += tw[i] * inner_product(band, j_hat, j_hat)
            pw = basket.pair_gradient(w_hat)
            pair_j[m] += wt * basket.pair(j_hat)
            pair_w[m] += wt * pw
            a[m] += wt * (pw - nu * grad_u_pair)
            div_r = tensor_divergence(band, r_hat)
            b[m] += wt * basket.pair(div_r)
            maj_a[m] += np.abs(wt) * psi_grad * (np.sqrt(w_sq) + nu * grad_u_snap[i])
            maj_b[m] += np.abs(wt) * np.sqrt(inner_product(band, div_r, div_r)) * psi_l2
            sym_w = 0.5 * (grad_w + np.swapaxes(grad_w, 0, 1))
            sym_ub = 0.5 * (grad_ub + np.swapaxes(grad_ub, 0, 1))
            model = r_hat - 2.0 * sym_w
            el_tensor = r_hat - 2.0 * nu * sym_ub + 2.0 * sym_w
            el_pairs[m] += wt * basket.pair(el_tensor)
            model_pairs[m] += wt * basket.pair(model)
            stress_sq[m] += tw[i] * inner_product(band, r_hat, r_hat)
            resid_sq[m] += tw[i] * inner_product(band, model, model)
            w_ubar[m] += tw[i] * gradient_inner_product(band, w_hat, ub_hat)
            big_w1[m] += tw[i] * gradient_norm_sq(band, w1_hat)
            grad_w1 = gradient(band, w1_hat)
            j1_w1[m] += tw[i] * inner_product(band, j1_hat, grad_w1)
            r_w1[m] += tw[i] * inner_product(band, r_hat, grad_w1)
            u_w1[m] += tw[i] * gradient_inner_product(band, u_hat, w1_hat)
            r_u[m] += tw[i] * inner_product(band, r_hat, grad_u)

    widths = []
    for m, (delta, kernel) in enumerate(zip(ordered, kernels)):
        s, lam, active = minimizer._ball_rule(big_w[m], radius_sq)
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
        s1, lam1, _ = minimizer._ball_rule(big_w1[m], radius_sq)
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
            minimizer.WidthAudit(
                delta=delta,
                solution=sol,
                lagrange=lagrange_ratio(pairing),
                el=el_residual(pairing),
                boussinesq=minimizer.boussinesq_residual(
                    kernel.delta, el_pairs[m], model_pairs[m], stress_sq[m], resid_sq[m],
                    basket_norms,
                ),
                energy_drop=minimizer.energy_drop_identity(
                    kernel.delta, resolved_energy[m], w_ubar[m]
                ),
                a=a[m],
                b=b[m],
                a_majorant=maj_a[m],
                b_majorant=maj_b[m],
                stress_limit=stress_limit,
            )
        )
    grad_u_norm = float(np.sqrt(np.dot(tw, grad_u_snap**2)))
    return minimizer.AuditReport(
        widths=tuple(widths),
        weak=minimizer.weak_convergence_diag(widths, nu, grad_u_norm, basket_norms),
        stress_limit=minimizer.stress_limit_diagnostics(widths, basket_norms),
        grid=grid,
        rhs=rhs,
        scale=s,
    )


def oracle_reference(grid, times, rhs, radius_sq, iters=20000, seed=0, starts=3, tol=1e-10):
    """oracle_mp with b / |k|^2 stored and every iterate, gradient, step and
    reduction temporary formed afresh: the bitwise reference for the
    oracle's fixed buffers.  Each reduction sums each (n, n, nh) block and
    then the block sums, the order spectral.parseval_sum states."""
    radius_sq = float(radius_sq)
    times = np.asarray(times, dtype=np.float64)
    n_snap = len(times)
    tw = trapezoid_weights(times)
    tw5 = tw.reshape((n_snap, 1, 1, 1, 1))
    k_sq = grid.k_sq
    bk = np.stack([-inverse_laplacian(grid, rhs[i]) for i in range(n_snap)])

    def block_sum(a):
        return VOLUME * float(np.sum(np.sum(a, axis=(-3, -2, -1))))

    def a_inner(x, y):
        return block_sum(tw5 * grid.parseval_w * k_sq * (x.real * y.real + x.imag * y.imag))

    def objective(v):
        tb = tw5 * rhs
        return 0.5 * a_inner(v, v) + block_sum(
            grid.parseval_w * (tb.real * v.real + tb.imag * v.imag)
        )

    def project(v):
        c = a_inner(v, v)
        if c > radius_sq:
            return v * np.sqrt(radius_sq / c), radius_sq
        return v, c

    def projected_gradient(g, v, c):
        if abs(c - radius_sq) <= 1e-9 * radius_sq and c > 0.0:
            mu = max(0.0, -a_inner(g, 2.0 * v) / (4.0 * c))
            return g + 2.0 * mu * v, mu
        return g, 0.0

    ref_grad = np.sqrt(a_inner(bk, bk))
    rng = np.random.default_rng(seed)
    results = []
    total_iters = 0
    converged_all = True
    for start in range(max(1, int(starts))):
        if start == 0:
            v = np.zeros((n_snap, 3) + grid.spectral_shape, dtype=complex)
        else:
            v = np.empty((n_snap, 3) + grid.spectral_shape, dtype=complex)
            for i in range(n_snap):
                noise = rng.standard_normal((3,) + grid.shape)
                v[i] = leray_project(grid, dealias(grid, grid.forward(noise)))
            c0 = a_inner(v, v)
            if c0 > 0.0:
                v *= np.sqrt(0.5 * radius_sq / c0)
        v, c = project(v)
        alpha = 1.0
        converged = False
        it = 0
        while it < iters:
            it += 1
            g = v + bk
            pg, _ = projected_gradient(g, v, c)
            pg_norm = np.sqrt(a_inner(pg, pg))
            if pg_norm <= tol * ref_grad or (ref_grad == 0.0 and pg_norm <= tol):
                converged = True
                break
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
                break
        total_iters += it
        converged_all = converged_all and converged
        results.append((objective(v), v, c))

    results.sort(key=lambda r: r[0])
    f_best, v_best, c_best = results[0]
    spread = 0.0
    for _, v_other, _ in results[1:]:
        spread = max(spread, enstrophy_integral(grid, times, v_best - v_other))
    spread_ref = max(enstrophy_integral(grid, times, v_best), 1e-300)
    pg, mu = projected_gradient(v_best + bk, v_best, c_best)
    active = abs(c_best - radius_sq) <= minimizer.ACTIVITY_RTOL * radius_sq
    lam = -mu if active else 0.0
    return MinimizerSolution(
        times=times.copy(),
        v_hats=v_best,
        lam=lam,
        one_minus_two_lambda=1.0 - 2.0 * lam,
        enstrophy_used=c_best,
        radius_sq=radius_sq,
        k_value=f_best,
        constraint_active=active,
        source="oracle",
        iterations=total_iters,
        grad_norm=np.sqrt(a_inner(pg, pg)),
        grad_norm_ref=ref_grad,
        converged=converged_all,
        start_spread=spread / spread_ref,
    )


def same_bits(got, want, where="result"):
    """Assert that two results agree field by field, arrays and floats by
    their bytes and everything else by equality; a failure names the field."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            same_bits(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            same_bits(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for k, (x, y) in enumerate(zip(got, want)):
            same_bits(x, y, f"{where}[{k}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, (float, np.floating)):
        assert type(got) is type(want), where
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), where
    else:
        assert got == want, where


REGIMES = {"interior": None, "saturated": 1e-4}


def regime_radius(trajectory, regime):
    """The default ball (every width interior) or one every width saturates."""
    return default_radius_sq(trajectory) if REGIMES[regime] is None else REGIMES[regime]


class TestBoundedMinimize:
    """The minimize stage's fixed working set changes no bit: the audit pass
    against the per-pair fields formed afresh, the oracle against its
    stored b / |k|^2 and fresh iterates, and both inputs untouched; and
    its traced peaks stay within a fixed number of field sizes."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_audit_matches_reference(self, trajectory, traj_basket, regime):
        radius_sq = regime_radius(trajectory, regime)
        u_before = trajectory.u_hats.tobytes()
        report = audit_widths(trajectory, TRAJ_DELTAS, traj_basket, radius_sq)
        assert trajectory.u_hats.tobytes() == u_before
        want = audit_reference(trajectory, TRAJ_DELTAS, traj_basket, radius_sq)
        assert all(w.solution.constraint_active == (regime == "saturated") for w in want.widths)
        same_bits(report, want)

    @pytest.mark.parametrize("starts", [1, 3])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_oracle_matches_reference(self, trajectory, traj_basket, regime, starts):
        radius_sq = regime_radius(trajectory, regime)
        rhs = audit_widths(trajectory, TRAJ_DELTAS, traj_basket, radius_sq).rhs
        rhs_before = rhs.tobytes()
        band, times = trajectory.grid.band, trajectory.times
        got = oracle_mp(band, times, rhs, radius_sq, iters=2000, seed=9, starts=starts)
        assert rhs.tobytes() == rhs_before
        want = oracle_reference(band, times, rhs, radius_sq, iters=2000, seed=9, starts=starts)
        assert want.constraint_active == (regime == "saturated")
        same_bits(got, want)
        # The returned point owns its memory: no scratch buffer or input behind it.
        assert got.v_hats.base is None and not np.shares_memory(got.v_hats, rhs)

    def test_audit_working_set(self, trajectory, traj_basket):
        """On this 16^3, 6-snapshot trajectory the audit pass peaks at 5.18
        full-layout tensor fields (3, 3, n, n, n//2+1) above entry, 1.4 of
        them the band transforms' buffers, made on the first call and kept
        on the grid: the snapshot's grad u, Pi and stress, at most three of
        the pair's tensors with one inner product's two real slabs, and the
        finest b, all band fields, and ubar and its products on the grid.
        On the full layout it peaked at 9.06, with the complex-product inner
        product at 10.09, and forming every pair field afresh and keeping it
        to the end of the pair at 18.3."""
        grid = trajectory.grid
        for delta in TRAJ_DELTAS:
            kernel_for(grid, delta)  # cached per grid; not part of the pass
        grid.__dict__.pop("_buffers", None)
        tensor = 9 * np.prod(grid.spectral_shape) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            audit_widths(trajectory, TRAJ_DELTAS, traj_basket, 1e-4)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * tensor

    def test_oracle_working_set(self, trajectory, traj_basket):
        """On this trajectory, at 3 starts on a saturated ball, the oracle
        peaks at 6.69 trajectory-sized band arrays: 3 v's, g, the candidate,
        the step and parseval_sum's two real slabs, and a random start's
        noise on the grid.  On the full layout it peaked at 6.62 of its own
        arrays, 3.1 times the band peak in bytes; reducing through two real scratch
        arrays of the trajectory's size peaked at 7.62, and storing b / |k|^2
        and forming each iterate afresh at 10.4."""
        band, times = trajectory.grid.band, trajectory.times
        rhs = audit_widths(trajectory, TRAJ_DELTAS, traj_basket, 1e-4).rhs
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            oracle_mp(band, times, rhs, 1e-4, iters=2000, seed=9, starts=3)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 7.6 * rhs.nbytes


class TestBandPass:
    """The band-layout analysis against the full-layout reference of
    tests/full_layout.py, on 16^3 and 24^3 runs at the widths 8h, 4h, 2h:
    every pair's ubar and R and every width's b = P div J and w are the
    reference's band bit for bit, and so is v* on an interior ball; the
    reductions, summed over the band instead of the half spectrum, agree
    within the relative bounds below (measured: at most 2.6e-16 for the
    budget norms, 3.8e-16 for the closed-form scalars and 2.6e-17 of their
    Cauchy-Schwarz majorants for the pairings)."""

    @pytest.fixture(scope="class", params=[16, 24], ids=["16^3", "24^3"])
    def run(self, request):
        n = request.param
        grid = Grid(n=n, nu=0.05, dt=2e-3, t_end=0.02, snapshot_stride=2)
        ic = InitialCondition(
            kind="random_band", amplitude=0.6, seed=n, slope=-1.0, k_min=1,
            k_max=grid.dealias_cutoff,
        )
        traj = simulate(grid, make_initial(grid, ic))
        basket = build_basket(grid, t_end=grid.t_end, seed=5, size=6, max_mode=2)
        deltas = [8 * grid.h, 4 * grid.h, 2 * grid.h]
        return grid, traj, basket, deltas

    def test_fields_are_the_reference_band(self, run):
        grid, traj, _, deltas = run
        band = grid.band
        kernels = [kernel_for(grid, d) for d in deltas]
        rhs = [assemble_flux(traj, kernel).poisson_rhs() for kernel in kernels]
        for i, u_hat, _, pairs in filtered_pairs(traj, kernels):
            for m, ub_hat, r_hat in pairs:
                refs = full_minimizer_fields(grid, kernels[m], band.scatter(u_hat))
                b_hat = rhs[m][i]
                for got, want in zip((ub_hat, r_hat, b_hat, -b_hat * band.inv_k_sq), refs):
                    assert got.shape[-3:] == band.spectral_shape
                    assert np.array_equal(got, band.gather(want))
                    assert not np.any(want[..., ~grid.dealias_mask])

    def test_interior_v_star_is_the_reference_band(self, run):
        grid, traj, basket, deltas = run
        band = grid.band
        report = audit_widths(traj, deltas, basket, 1e6)
        assert report.scale == 1.0 and not report.solution.constraint_active
        for i, u_hat in enumerate(traj.u_hats):
            want = full_minimizer_fields(grid, kernel_for(grid, deltas[-1]), band.scatter(u_hat))
            assert np.array_equal(report.v_star(i), band.gather(want[3]))

    def test_budget_and_estimators_within_round_off(self, run):
        """Per snapshot: 1/2 ||ubar||^2 and ||grad ubar||^2 within 1e-14
        relative, <R, grad ubar> and ||R||^2 within 1e-14 of ||R|| ||grad
        ubar|| and ||R||^2, and the structure integral within 1e-14 of
        ||grad eta_hat|| ||B||, each against the full-layout sums."""
        grid, traj, _, deltas = run
        band = grid.band
        balances, defect = analyze_widths(traj, deltas)
        for w, delta in enumerate(defect.deltas):
            kernel = kernel_for(grid, delta)
            g_hat = band.scatter(dissipation_kernel_gradient(grid, delta))
            for i, u_hat in enumerate(traj.u_hats):
                ub, r, _, _ = full_minimizer_fields(grid, kernel, band.scatter(u_hat))
                grad_ub = gradient(grid, ub)
                energy, grad_sq = 0.5 * norm_sq(grid, ub), gradient_norm_sq(grid, ub)
                flux, stress_sq = inner_product(grid, r, grad_ub), norm_sq(grid, r)
                balance = balances[w]
                assert abs(balance.resolved_energy[i] - energy) <= 1e-14 * energy
                assert abs(balance.grad_sq[i] - grad_sq) <= 1e-14 * grad_sq
                assert abs(balance.flux[i] - flux) <= 1e-14 * np.sqrt(stress_sq * grad_sq)
                fields = band.scatter(
                    structure_fields(grid, u_hat, velocity_product_hat(grid, u_hat))
                )
                structure = parseval_sum(grid.parseval_w, g_hat, fields)
                scale = np.sqrt(norm_sq(grid, g_hat) * norm_sq(grid, fields))
                assert abs(defect.structure_series[w, i] - structure) <= 1e-14 * scale

    @pytest.mark.parametrize("radius_sq", [1e6, 1e-4], ids=["interior", "saturated"])
    def test_closed_form_within_round_off(self, run, radius_sq):
        """lambda, 1 - 2 lambda, the enstrophy used and K of every width
        within 1e-13 relative of solve_mp on the full-layout flux."""
        grid, traj, basket, deltas = run
        band = grid.band
        report = audit_widths(traj, deltas, basket, radius_sq)
        for width in report.widths:
            kernel = kernel_for(grid, width.delta)
            j_hats = []
            for u_hat in traj.u_hats:
                ub, r, _, _ = full_minimizer_fields(grid, kernel, band.scatter(u_hat))
                j_hats.append(grid.nu * gradient(grid, ub) - r)
            want = solve_mp(FluxField(grid, traj.times, np.stack(j_hats)), radius_sq)
            got = width.solution
            assert got.constraint_active == want.constraint_active == (radius_sq < 1.0)
            for key in ("lam", "one_minus_two_lambda", "enstrophy_used", "k_value"):
                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-13), key
