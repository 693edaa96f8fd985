"""Tests for coarse-graining, the resolved energy budget and time windows.

Validates:
- kernel normalization and the spectral-multiplier/circular-convolution identity
- width validation (box embedding above, grid resolution below)
- Reynolds stress symmetry and its trace/energy identity; the band stress
  from the shared product Pi equals, bit for bit, the band of the
  nine-component full-layout formula it replaced (tests/full_layout.py),
  which is zero off the band
- filtered pressure against the operator-composed Poisson equation
- resolved and local energy budgets closing on solver trajectories
- the pair loop filtered_pairs: one product per snapshot, stresses formed
  only as pairs are drawn and from the filtered velocity each pair yields,
  and one snapshot's working set; resolved_balance, local_balance_test and
  assemble_flux equal the per-snapshot loops they replaced bit for bit and
  form one product and one stress per snapshot
- window functions and their analytic derivatives
"""

import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from full_layout import full_multiplier, full_stress, hermitian_defect

from nslab import filtering
from nslab.filtering import (
    BalanceReport,
    KernelError,
    filtered_pairs,
    filtered_pressure_hat,
    kernel_for,
    local_balance_test,
    make_kernel,
    resolved_balance,
    reynolds_stress_hat,
    velocity_product_hat,
    wrapped_radius_sq,
)
from nslab.minimizer import assemble_flux
from nslab.solver import InitialCondition, make_initial, simulate
from nslab.spectral import (
    Grid,
    divergence,
    gradient,
    gradient_norm_sq,
    grid_inner_product,
    inner_product,
    laplacian,
    norm_sq,
    tensor_divergence,
    width_schedule,
)
from nslab.windows import BumpWindow


@dataclass(frozen=True)
class ConstantWindow:
    """s(t) = value everywhere: the whole-interval window of the local budgets."""

    value: float = 1.0

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=np.float64), self.value)

    def derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=np.float64))


@pytest.fixture(scope="module")
def grid():
    return Grid(n=16, nu=0.05, dt=2e-3, t_end=0.05, snapshot_stride=1)


@pytest.fixture(scope="module")
def u_hat(grid):
    ic = InitialCondition(
        kind="random_band", amplitude=0.8, seed=77, slope=-1.0, k_min=1, k_max=4
    )
    return make_initial(grid, ic)


@pytest.fixture(scope="module")
def trajectory(grid, u_hat):
    return simulate(grid, u_hat)


class TestKernel:
    """Mollifier normalization and multiplier properties."""

    def test_unit_mass(self, grid):
        kernel = make_kernel(grid, np.pi / 2.0)
        assert grid.h**3 * kernel.samples.sum() == pytest.approx(1.0, rel=1e-14)
        assert kernel.multiplier[0, 0, 0] == 1.0

    def test_multiplier_bounded_and_real(self, grid):
        kernel = make_kernel(grid, np.pi / 2.0)
        assert kernel.multiplier.dtype == np.float64
        assert kernel.multiplier.shape == grid.band.spectral_shape
        assert np.abs(kernel.multiplier).max() <= 1.0 + 1e-12
        assert kernel.min_multiplier == kernel.multiplier.min()
        full = full_multiplier(grid, kernel)
        assert kernel.multiplier.tobytes() == grid.band.gather(full).tobytes()

    def test_multiplier_is_convolution(self, grid):
        """m(k) u_hat must equal the circular convolution h^3 sum eta(y) u(x-y)
        for a band-limited u, whose filtered field is band-limited too."""
        rng = np.random.default_rng(4)
        f = grid.inverse(grid.band.forward(rng.standard_normal(grid.shape)))
        kernel = make_kernel(grid, np.pi / 2.0)
        direct = np.zeros(grid.shape)
        for s0, s1, s2 in np.argwhere(kernel.samples > 0.0):
            direct += kernel.samples[s0, s1, s2] * np.roll(f, (s0, s1, s2), axis=(0, 1, 2))
        direct *= grid.h**3
        via_multiplier = grid.inverse(kernel.multiplier * grid.band.forward(f))
        assert np.abs(direct - via_multiplier).max() < 1e-12 * np.abs(f).max()

    def test_width_validation(self, grid):
        with pytest.raises(KernelError, match="exceeds pi"):
            make_kernel(grid, 3.5)
        with pytest.raises(KernelError, match="below 2h"):
            make_kernel(grid, 0.5 * grid.h)

    def test_kernel_cache(self, grid):
        a = kernel_for(grid, np.pi / 4.0)
        b = kernel_for(grid, np.pi / 4.0)
        assert a is b

    def test_wrapped_radius(self, grid):
        r_sq = wrapped_radius_sq(grid)
        assert r_sq[0, 0, 0] == 0.0
        assert r_sq[1, 0, 0] == pytest.approx(grid.h**2)
        assert r_sq[-1, 0, 0] == pytest.approx(grid.h**2)  # wraps across the box
        assert r_sq.max() == pytest.approx(3.0 * np.pi**2)


class TestWidthSchedule:
    def test_dyadic_values(self, grid):
        sched = width_schedule(grid, np.pi, 3)
        assert sched == [np.pi, np.pi / 2.0, np.pi / 4.0]

    def test_rejects_unresolvable(self, grid):
        with pytest.raises(KernelError, match="outside the representable"):
            width_schedule(grid, np.pi, 4)  # pi/8 < 2h at n=16
        with pytest.raises(KernelError, match="outside the representable"):
            width_schedule(grid, 4.0, 1)
        with pytest.raises(KernelError, match="at least one"):
            width_schedule(grid, np.pi, 0)


def reference_stress_hat(grid, kernel, u_hat):
    """The stress of a band velocity as assembled before Pi was shared and
    before the analysis moved to the band: all nine components of
    dealias(m * dealias((u_i u_j)^) - (ubar_i ubar_j)^) in the full layout,
    the product formed per call, gathered to the band.  The stress is its
    two-thirds band: outside it, (ubar_i ubar_j)^ is partly aliased."""
    return grid.band.gather(full_stress(grid, kernel, grid.band.scatter(u_hat))[1])


def stress_hat(grid, kernel, u_hat):
    """One pair's stress as the pair loop forms it, from its own Pi, for a
    full-layout velocity gathered to the band."""
    u_hat = grid.band.gather(u_hat)
    product_hat = velocity_product_hat(grid, u_hat)
    return reynolds_stress_hat(grid, kernel, kernel.multiplier * u_hat, product_hat)


def index_array_products(grid, v_hat):
    """band((v_j v_k)^) for j <= k as formed before the product kernel:
    from the gathered copies v[j] and v[k] of the index arrays."""
    j, k = np.triu_indices(3)
    v = grid.inverse(v_hat)
    return grid.band.forward(v[j] * v[k])


class TestReynoldsStress:
    @pytest.mark.parametrize("n", [16, 24])
    def test_product_kernel_matches_index_arrays(self, n):
        """Pi and R, whose products the kernel writes in place, equal the
        index-array formulation byte for byte (n = 24: 3 divides n)."""
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        u_hat = g.band.forward(np.random.default_rng(n + 1).standard_normal((3,) + g.shape))
        product_hat = velocity_product_hat(g, u_hat)
        assert product_hat.tobytes() == index_array_products(g, u_hat).tobytes()
        for delta in width_schedule(g, np.pi, 3):
            kernel = kernel_for(g, delta)
            ub_hat = kernel.multiplier * u_hat
            expected = kernel.multiplier * product_hat - index_array_products(g, ub_hat)
            r_hat = reynolds_stress_hat(g, kernel, ub_hat, product_hat)
            assert r_hat.tobytes() == expected[filtering._SYMMETRIC_INDEX].tobytes()

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_shared_product_matches_reference(self, n):
        """One Pi per snapshot, 6 components each side, on the band,
        reproduces the nine-component full-layout formula exactly at every
        width; R has no mode off the band."""
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        u_hat = g.band.forward(np.random.default_rng(n).standard_normal((3,) + g.shape))
        product_hat = velocity_product_hat(g, u_hat)
        assert product_hat.shape == (6,) + g.band.spectral_shape
        for delta in width_schedule(g, np.pi, 3):
            kernel = kernel_for(g, delta)
            shared = reynolds_stress_hat(g, kernel, kernel.multiplier * u_hat, product_hat)
            assert shared.shape == (3, 3) + g.band.spectral_shape
            assert np.array_equal(shared, reference_stress_hat(g, kernel, u_hat))
            _, full = full_stress(g, kernel, g.band.scatter(u_hat))
            assert not np.any(full[..., ~g.dealias_mask])

    def test_symmetry(self, grid, u_hat):
        kernel = kernel_for(grid, np.pi / 2.0)
        r = grid.inverse(stress_hat(grid, kernel, u_hat))
        assert np.abs(r - np.swapaxes(r, 0, 1)).max() < 1e-14

    def test_trace_energy_identity(self, grid, u_hat):
        """integral tr(R) = ||u||^2 - ||ubar||^2 for dealiased u (Parseval)."""
        kernel = kernel_for(grid, np.pi / 2.0)
        r_hat = stress_hat(grid, kernel, u_hat)
        trace = r_hat[0, 0] + r_hat[1, 1] + r_hat[2, 2]
        ud = grid.band.gather(u_hat)
        expected = norm_sq(grid.band, ud) - norm_sq(grid.band, kernel.multiplier * ud)
        from nslab.spectral import VOLUME

        integral = VOLUME * float(trace[0, 0, 0].real)
        assert integral == pytest.approx(expected, rel=1e-12)

    def test_hermitian(self, grid, u_hat):
        kernel = kernel_for(grid, np.pi / 2.0)
        r_hat = grid.band.scatter(stress_hat(grid, kernel, u_hat))
        assert hermitian_defect(grid, r_hat) < 1e-12


class TestFilteredPressure:
    def test_poisson_equation(self, grid, u_hat):
        """-lap(pbar) = div div (filtered u x u), composed from tested operators."""
        kernel, band = kernel_for(grid, np.pi / 2.0), grid.band
        u_hat = band.gather(u_hat)
        p_hat = filtered_pressure_hat(grid, kernel, velocity_product_hat(grid, u_hat))
        u = grid.inverse(u_hat)
        prod = np.einsum("ixyz,jxyz->ijxyz", u, u)
        t_hat = kernel.multiplier * band.forward(prod)
        ddt = divergence(band, tensor_divergence(band, t_hat))
        lhs = -laplacian(band, p_hat)
        scale = np.abs(ddt).max()
        assert np.abs(lhs - ddt).max() < 1e-12 * scale
        assert p_hat[0, 0, 0] == 0.0


class TestResolvedBalance:
    """The budget Ebar(T) - Ebar(0) + nu int ||grad ubar||^2 = int <R, grad ubar>."""

    def test_budget_closes(self, grid, trajectory):
        for delta in (np.pi / 2.0, np.pi / 4.0):
            report = resolved_balance(trajectory, kernel_for(grid, delta))
            e0 = trajectory.initial_energy
            assert report.residual < 1e-6 * e0
            assert report.viscous > 0.0
            assert report.stress_norm > 0.0

    def test_identity_width_reduces_to_global_budget(self, grid, trajectory):
        """At m == 1 (no filtering) the stress flux vanishes and the budget is
        the global energy equality."""
        kernel = kernel_for(grid, np.pi / 2.0)
        identity = type(kernel)(
            delta=kernel.delta,
            samples=kernel.samples,
            multiplier=np.ones_like(kernel.multiplier),
            norm_const=kernel.norm_const,
            min_multiplier=1.0,
        )
        report = resolved_balance(trajectory, identity)
        assert abs(report.stress_flux) < 1e-9 * trajectory.initial_energy
        assert report.residual < 1e-6 * trajectory.initial_energy

    def test_smoothing_reduces_gradients(self, grid, trajectory):
        kernel = kernel_for(grid, np.pi / 2.0)
        ub = kernel.multiplier * trajectory.u_hats[0]
        band = grid.band
        assert gradient_norm_sq(band, ub) < gradient_norm_sq(band, trajectory.u_hats[0])


class TestLocalBalance:
    def test_constant_test_function(self, grid, trajectory):
        """phi == 1, s == 1: gradient terms drop and the budget is exactly
        twice the resolved_balance budget (same trapezoid-in-time error)."""
        kernel = kernel_for(grid, np.pi / 2.0)
        terms = local_balance_test(
            trajectory, kernel, np.ones(grid.shape), ConstantWindow()
        )
        assert terms["transport"] == pytest.approx(0.0, abs=1e-10)
        report = resolved_balance(trajectory, kernel)
        assert terms["boundary"] == pytest.approx(2.0 * report.energy_drop, rel=1e-10)
        assert terms["imbalance"] == pytest.approx(2.0 * report.residual, rel=1e-6)

    def test_localized_test_function(self, grid, u_hat):
        """A genuine space-time bump: all five terms participate.

        The identity is continuum-in-time, so the discrete check closes to
        the trapezoid quadrature error of the snapshot grid: the imbalance
        must be small AND shrink like dt^2 when the step is halved.
        """
        x1, x2, _ = grid.x
        phi = (1.0 + 0.5 * np.cos(x1)) * (1.0 + 0.3 * np.sin(x2))
        window = BumpWindow(t0=-0.2, t1=0.25)  # nonzero at both endpoints
        imbalances = []
        for dt in (2e-3, 1e-3):
            g = Grid(n=16, nu=0.05, dt=dt, t_end=0.05, snapshot_stride=1)
            traj = simulate(g, u_hat)
            terms = local_balance_test(traj, kernel_for(g, np.pi / 2.0), phi, window)
            assert abs(terms["transport"]) > 0.0
            assert abs(terms["time"]) > 0.0
            scale = max(abs(v) for k, v in terms.items() if k != "imbalance")
            assert terms["imbalance"] < 1e-4 * scale
            imbalances.append(terms["imbalance"])
        assert imbalances[1] < imbalances[0] / 3.0  # second-order quadrature

    def test_rejects_bad_phi(self, grid, trajectory):
        kernel = kernel_for(grid, np.pi / 2.0)
        with pytest.raises(ValueError, match="shape"):
            local_balance_test(trajectory, kernel, np.ones((4, 4, 4)), ConstantWindow())
        with pytest.raises(ValueError, match="nonnegative"):
            local_balance_test(
                trajectory, kernel, -np.ones(grid.shape), ConstantWindow()
            )


def reference_resolved_balance(trajectory, kernel):
    """resolved_balance as it was before the pair loop: each snapshot forms
    its own product, stress and filtered velocity."""
    grid = trajectory.grid
    band = grid.band
    terms = np.empty((4, len(trajectory)))
    for i, u_hat in enumerate(trajectory.u_hats):
        ub_hat = kernel.multiplier * u_hat
        r_hat = reynolds_stress_hat(grid, kernel, ub_hat, velocity_product_hat(grid, u_hat))
        terms[:, i] = (
            0.5 * norm_sq(band, ub_hat),
            gradient_norm_sq(band, ub_hat),
            inner_product(band, r_hat, gradient(band, ub_hat)),
            inner_product(band, r_hat, r_hat),
        )
    return BalanceReport.from_series(kernel.delta, grid.nu, trajectory.times, *terms)


def reference_assemble_flux(trajectory, kernel):
    """assemble_flux's J = nu grad(ubar) - R as it was before the pair loop."""
    grid = trajectory.grid
    j_hats = np.empty((len(trajectory), 3, 3) + grid.band.spectral_shape, dtype=complex)
    for i, u_hat in enumerate(trajectory.u_hats):
        ub_hat = kernel.multiplier * u_hat
        r_hat = reynolds_stress_hat(grid, kernel, ub_hat, velocity_product_hat(grid, u_hat))
        j_hats[i] = grid.nu * gradient(grid.band, ub_hat) - r_hat
    return j_hats


def reference_local_balance(trajectory, kernel, phi, window):
    """local_balance_test as it was before the pair loop, with the boundary
    density e . phi formed a second time inside the time term."""
    grid = trajectory.grid
    phi_hat = grid.forward(phi)
    lap_phi = grid.inverse(laplacian(grid, phi_hat))
    grad_phi = grid.inverse(gradient(grid, phi_hat))
    times = trajectory.times
    n_snap = len(trajectory)
    s = window(times)
    s_dot = window.derivative(times)
    time_term, transport, viscous, transfer, boundary_density = np.empty((5, n_snap))
    for i in range(n_snap):
        u_hat = trajectory.u_hats[i]
        product_hat = velocity_product_hat(grid, u_hat)
        ub_hat = kernel.multiplier * u_hat
        ub = grid.inverse(ub_hat)
        e = np.einsum("ixyz,ixyz->xyz", ub, ub)
        pbar = grid.inverse(filtered_pressure_hat(grid, kernel, product_hat))
        grad_ub = grid.inverse(gradient(grid.band, ub_hat))
        r_hat = reynolds_stress_hat(grid, kernel, ub_hat, product_hat)
        div_r = grid.inverse(tensor_divergence(grid.band, r_hat))
        boundary_density[i] = grid_inner_product(grid, e, phi)
        time_term[i] = grid_inner_product(grid, e, phi) * s_dot[i] + grid.nu * s[
            i
        ] * grid_inner_product(grid, e, lap_phi)
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


def call_log(monkeypatch, name):
    """Replace filtering.<name> by a wrapper that logs each call."""
    log = []
    func = getattr(filtering, name)

    def logged(*args):
        log.append(args)
        return func(*args)

    monkeypatch.setattr(filtering, name, logged)
    return log


class TestPairLoop:
    """filtered_pairs and the consumers that share it."""

    @pytest.fixture
    def local_inputs(self, grid):
        x1, x2, _ = grid.x
        phi = (1.0 + 0.5 * np.cos(x1)) * (1.0 + 0.3 * np.sin(x2))
        return phi, BumpWindow(t0=-0.2, t1=0.25)

    def test_stresses_formed_as_pairs_are_drawn(self, grid, trajectory, monkeypatch):
        """Pi is formed when a snapshot is drawn, each stress when its pair
        is, from the very ubar_hat that the pair yields; undrawn pairs form
        no stress."""
        first_product_hat = velocity_product_hat(grid, trajectory.u_hats[0])
        products = call_log(monkeypatch, "velocity_product_hat")
        stresses = call_log(monkeypatch, "reynolds_stress_hat")
        kernels = [kernel_for(grid, np.pi / 2.0), kernel_for(grid, np.pi / 4.0)]
        snapshots = filtered_pairs(trajectory, kernels)
        i, u_hat, product_hat, pairs = next(snapshots)
        assert (i, len(products), len(stresses)) == (0, 1, 0)
        assert np.array_equal(u_hat, trajectory.u_hats[0])
        assert np.array_equal(product_hat, first_product_hat)
        for m, (w, ub_hat, r_hat) in enumerate(pairs):
            kernel = kernels[m]
            assert (w, len(stresses)) == (m, m + 1)
            assert stresses[m][1] is kernel and stresses[m][2] is ub_hat
            assert np.array_equal(ub_hat, kernel.multiplier * u_hat)
            assert np.array_equal(r_hat, reference_stress_hat(grid, kernel, u_hat))
        assert [i for i, *_ in snapshots] == list(range(1, len(trajectory)))
        assert (len(products), len(stresses)) == (len(trajectory), 2)

    def test_pair_working_set(self, grid, trajectory):
        """One snapshot of this 16^3 trajectory, Pi and its three pairs with
        each stress reduced as it is drawn, in vector fields of the full
        layout (3, n, n, n//2+1).  The first snapshot peaks at 9.0 above
        entry: the band transforms' buffers are made then and kept on the
        grid (4.1 of the 9.0).  A later snapshot peaks at 3.3: a velocity
        on the grid and the six products written from it (2.7), and band
        fields.  Products formed from the gathered copies u[j] and u[k]
        peaked at 12.6 and 6.9; the full-layout pass at 13.7."""
        kernels = [kernel_for(grid, d) for d in width_schedule(grid, np.pi, 3)]
        vector = 3 * grid.n * grid.n * grid.nh * 16
        snapshots = filtered_pairs(trajectory, kernels)
        grid.__dict__.pop("_buffers", None)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _, _, _, pairs = next(snapshots)
                for _, _, r_hat in pairs:
                    inner_product(grid.band, r_hat, r_hat)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 9.2 * vector
        assert peaks[1] <= 3.5 * vector

    def test_consumers_match_reference_loops(self, grid, trajectory, local_inputs):
        """Each consumer equals the per-snapshot loop it replaced bit for bit."""
        kernel = kernel_for(grid, np.pi / 2.0)
        report = resolved_balance(trajectory, kernel)
        expected = reference_resolved_balance(trajectory, kernel)
        for f in fields(BalanceReport):
            assert np.array_equal(getattr(report, f.name), getattr(expected, f.name)), f.name
        flux = assemble_flux(trajectory, kernel)
        assert np.array_equal(flux.j_hats, reference_assemble_flux(trajectory, kernel))
        terms = local_balance_test(trajectory, kernel, *local_inputs)
        assert terms == reference_local_balance(trajectory, kernel, *local_inputs)

    def test_consumers_form_one_product_and_stress_per_snapshot(
        self, grid, trajectory, local_inputs, monkeypatch
    ):
        kernel = kernel_for(grid, np.pi / 2.0)
        for consume in (
            lambda: resolved_balance(trajectory, kernel),
            lambda: assemble_flux(trajectory, kernel),
            lambda: local_balance_test(trajectory, kernel, *local_inputs),
        ):
            products = call_log(monkeypatch, "velocity_product_hat")
            stresses = call_log(monkeypatch, "reynolds_stress_hat")
            consume()
            assert (len(products), len(stresses)) == (len(trajectory), len(trajectory))
            monkeypatch.undo()


class TestWindows:
    def test_constant_window(self):
        w = ConstantWindow(value=2.0)
        t = np.linspace(0.0, 1.0, 5)
        assert np.all(w(t) == 2.0)
        assert np.all(w.derivative(t) == 0.0)

    def test_bump_window_support_and_derivative(self):
        w = BumpWindow(t0=0.0, t1=1.0)
        t = np.linspace(-0.5, 1.5, 201)
        s = w(t)
        assert np.all(s[t <= 0.0] == 0.0)
        assert np.all(s[t >= 1.0] == 0.0)
        assert s.max() == pytest.approx(np.exp(-1.0), rel=1e-12)
        # analytic derivative against a central difference
        eps = 1e-6
        mid = np.linspace(0.1, 0.9, 17)
        numeric = (w(mid + eps) - w(mid - eps)) / (2.0 * eps)
        assert np.abs(w.derivative(mid) - numeric).max() < 1e-7

    def test_bump_window_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty window"):
            BumpWindow(t0=1.0, t1=1.0)
