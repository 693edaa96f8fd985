"""Tests for the time integrator and initial-condition factory.

Validates:
- initial-condition construction (energy normalization, spectra, errors)
- exact Beltrami decay u(t) = exp(-nu t) u(0) against the integrator
- the discrete energy ledger E(t) + nu int ||grad u||^2 = E(0)
- structural properties of the advection term (divergence-free, orthogonality)
- the rotational advection term against the convective form, and its
  transform count
- the band workspace step against the allocating expression form in the
  full layout, bit for bit on the retained modes, and its allocation peak
- blow-up detection with partial-trajectory salvage
- simulate's one preallocated record of band states against the
  list-and-stack loop, bit for bit, its snapshots' real-space bytes equal to
  those of the +0.0-scattered states, its allocation peak and the
  workspace's lifetime
- simulate's band ledger against a full-layout ledger of the same states,
  within 1e-15 relative
"""

import tracemalloc

import numpy as np
import pytest
from full_layout import hermitian_defect

from nslab.solver import (
    BlowUpError,
    InitialCondition,
    Trajectory,
    energy_spectrum,
    make_initial,
    nonlinear_term,
    simulate,
    step,
)
from nslab.spectral import (
    VOLUME,
    Grid,
    GridError,
    curl,
    dealias,
    divergence_max,
    gradient,
    gradient_norm_sq,
    inner_product,
    leray_project,
    norm_sq,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(n=16, nu=0.05, dt=5e-3, t_end=0.1, snapshot_stride=5)


class TestInitialConditions:
    """Factory output normalization and validation."""

    def test_beltrami_energy(self, grid):
        """ABC(1,1,1): integral |u|^2 = 3 (2 pi)^3, so E = 1.5 VOLUME."""
        u_hat = make_initial(grid, InitialCondition(kind="beltrami_abc", amplitude=2.0))
        assert 0.5 * norm_sq(grid, u_hat) == pytest.approx(4.0 * 1.5 * VOLUME, rel=1e-12)
        assert divergence_max(grid, u_hat) < 1e-13

    def test_taylor_green_structure(self, grid):
        u_hat = make_initial(grid, InitialCondition(kind="taylor_green"))
        assert divergence_max(grid, u_hat) < 1e-13
        assert np.abs(u_hat[2]).max() < 1e-15  # no third component
        assert 0.5 * norm_sq(grid, u_hat) == pytest.approx(VOLUME / 8.0, rel=1e-12)

    def test_random_band_energy_and_spectrum(self, grid):
        ic = InitialCondition(
            kind="random_band", amplitude=0.3, seed=42, slope=-2.0, k_min=1, k_max=4
        )
        u_hat = make_initial(grid, ic)
        assert 0.5 * norm_sq(grid, u_hat) == pytest.approx(
            0.5 * 0.3**2 * VOLUME, rel=1e-12
        )
        shells, energies = energy_spectrum(grid, u_hat)
        live = energies[:4]
        # E(s) proportional to s^slope holds exactly by construction
        ratios = live / live[0]
        expected = (shells[:4].astype(float)) ** -2.0
        assert np.abs(ratios - expected).max() < 1e-12
        assert np.abs(energies[4:]).max() == 0.0

    def test_random_band_reproducible(self, grid):
        ic = InitialCondition(
            kind="random_band", amplitude=0.3, seed=9, slope=-1.0, k_min=1, k_max=3
        )
        a = make_initial(grid, ic)
        b = make_initial(grid, ic)
        assert np.array_equal(a, b)

    def test_all_kinds_are_clean(self, grid):
        for ic in (
            InitialCondition(kind="beltrami_abc", abc=(1.0, 0.5, 0.25)),
            InitialCondition(kind="taylor_green", amplitude=0.1),
            InitialCondition(kind="random_band", amplitude=1.0, seed=0, slope=0.0, k_min=2, k_max=3),
        ):
            u_hat = make_initial(grid, ic)
            assert divergence_max(grid, u_hat) < 1e-13
            assert hermitian_defect(grid, u_hat) < 1e-13
            assert np.abs(u_hat[..., 0, 0, 0]).max() == 0.0

    def test_unknown_kind_rejected(self, grid):
        with pytest.raises(GridError, match="unknown initial condition"):
            make_initial(grid, InitialCondition(kind="vortex_sheet"))

    def test_random_band_requires_parameters(self, grid):
        with pytest.raises(GridError, match="requires"):
            make_initial(grid, InitialCondition(kind="random_band", seed=1))

    def test_random_band_rejects_unresolved_shell(self, grid):
        ic = InitialCondition(
            kind="random_band", amplitude=1.0, seed=1, slope=0.0, k_min=1, k_max=99
        )
        with pytest.raises(GridError, match="outside the resolved"):
            make_initial(grid, ic)


class TestBeltramiDecay:
    """The integrator against its closed-form solution."""

    def test_exact_exponential_decay(self):
        """For curl eigenfields the advection term is a pure gradient, so the
        discrete flow must match exp(-nu t) u0 to round-off at every snapshot."""
        grid = Grid(n=16, nu=0.3, dt=5e-3, t_end=0.2, snapshot_stride=8)
        u0 = make_initial(grid, InitialCondition(kind="beltrami_abc"))
        traj = simulate(grid, u0)
        scale = np.abs(u0).max()
        for i, t in enumerate(traj.times):
            exact = np.exp(-grid.nu * t) * grid.band.gather(u0)
            assert np.abs(traj.u_hats[i] - exact).max() / scale < 1e-13

    def test_advection_vanishes_for_beltrami(self, grid):
        u0 = make_initial(grid, InitialCondition(kind="beltrami_abc"))
        n = nonlinear_term(grid, grid.band.gather(u0))
        assert np.abs(n).max() / np.abs(u0).max() < 1e-13


class TestEnergyLedger:
    """Snapshot bookkeeping and the discrete energy equality."""

    def test_global_energy_residuals(self, grid):
        ic = InitialCondition(
            kind="random_band", amplitude=0.5, seed=21, slope=-1.0, k_min=1, k_max=4
        )
        traj = simulate(grid, make_initial(grid, ic))
        res = traj.global_energy_residuals()
        assert res[0] == 0.0
        # dominated by the O(dt^2) trapezoid quadrature of ||grad u||^2
        assert res.max() < 1e-6 * traj.initial_energy

    def test_snapshot_alignment(self, grid):
        ic = InitialCondition(kind="taylor_green", amplitude=0.2)
        traj = simulate(grid, make_initial(grid, ic))
        assert len(traj) == traj.times.size == traj.u_hats.shape[0]
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(grid.t_end)
        # stride 5 over 20 steps: snapshots at steps 0, 5, 10, 15, 20
        assert len(traj) == 5
        assert traj.step_energies.size == grid.steps + 1
        for i, t in enumerate(traj.times):
            assert 0.5 * norm_sq(grid.band, traj.u_hats[i]) == pytest.approx(
                traj.energies[i], rel=1e-14
            )
        assert traj.energies[0] == pytest.approx(traj.initial_energy)

    def test_final_state_always_recorded(self):
        """23 steps with stride 5 still ends at t_end."""
        grid = Grid(n=16, nu=0.05, dt=5e-3, t_end=0.115, snapshot_stride=5)
        ic = InitialCondition(kind="taylor_green", amplitude=0.2)
        traj = simulate(grid, make_initial(grid, ic))
        assert traj.times[-1] == pytest.approx(0.115)
        assert np.all(np.diff(traj.times) > 0.0)

    def test_energy_monotone_decay(self, grid):
        ic = InitialCondition(kind="taylor_green", amplitude=0.4)
        traj = simulate(grid, make_initial(grid, ic))
        assert np.all(np.diff(traj.step_energies) < 0.0)


class TestAdvectionTerm:
    """Structural invariants of the projected nonlinear term."""

    def test_divergence_free_output(self, grid):
        rng = np.random.default_rng(31)
        u = make_initial(
            grid,
            InitialCondition(
                kind="random_band", amplitude=1.0, seed=5, slope=-1.0, k_min=1, k_max=4
            ),
        )
        n = band_term(grid, u)
        assert divergence_max(grid, n) < 1e-13
        assert np.abs(n[..., 0, 0, 0]).max() == 0.0

    def test_energy_neutral(self, grid):
        """<u, -P[(u.grad)u]> = 0: advection moves energy between modes only."""
        u = make_initial(
            grid,
            InitialCondition(
                kind="random_band", amplitude=1.3, seed=8, slope=0.0, k_min=1, k_max=3
            ),
        )
        n = band_term(grid, u)
        scale = np.sqrt(norm_sq(grid, u) * norm_sq(grid, n))
        assert abs(inner_product(grid, u, n)) / scale < 1e-13

    def test_step_is_deterministic(self, grid):
        u = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.3))
        u = grid.band.gather(u)
        a = step(grid, u)
        b = step(grid, u)
        assert np.array_equal(a, b)


def band_term(grid, u_hat):
    """nonlinear_term of a full-layout field: gathered to the band, its term
    scattered back, +0.0 outside the band."""
    band = grid.band
    return band.scatter(nonlinear_term(grid, band.gather(u_hat)))


def convective_reference(grid, u_hat):
    """-P[(u.grad)u] from the full velocity gradient: 12 inverse and 3 forward
    transforms, the reference for the rotational form P[u x omega]."""
    u = grid.inverse(u_hat)
    grad = grid.inverse(gradient(grid, u_hat))  # [i, j] = d_i u_j
    adv = np.einsum("ixyz,ijxyz->jxyz", u, grad)
    return -leray_project(grid, dealias(grid, grid.forward(adv)))


class TestRotationalForm:
    """P[u x omega] is -P[(u.grad)u] with 9 transforms instead of 15."""

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_matches_convective_form(self, n):
        """Equal to round-off when the whole resolved band is excited: with
        the two-thirds rule the gradient |u|^2/2 is removed exactly."""
        grid = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-2)
        ic = InitialCondition(
            kind="random_band", amplitude=1.0, seed=n, slope=-1.0, k_min=1,
            k_max=grid.dealias_cutoff,
        )
        u = make_initial(grid, ic)
        ref = convective_reference(grid, u)
        assert np.abs(band_term(grid, u) - ref).max() / np.abs(ref).max() < 1e-13

    def test_one_inverse_and_one_forward(self, grid, monkeypatch):
        """One call makes one inverse of the stacked (u, omega) and one
        forward transform of u x omega, nothing else."""
        calls = []
        for name in ("forward", "inverse"):
            original = getattr(Grid, name)

            def counted(self, field, *args, name=name, original=original, **kwargs):
                calls.append((name, field.shape[0]))
                return original(self, field, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)
        u = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.3))
        u = grid.band.gather(u)
        calls.clear()
        nonlinear_term(grid, u)
        assert sorted(calls) == [("forward", 3), ("inverse", 6)]


def full_multipliers(grid):
    """(keep, e, half_step_decay) in the full layout: the dealias mask with
    the mean dropped, keep * k / |k| and exp(-nu |k|^2 dt / 2)."""
    keep = grid.dealias_mask.astype(np.float64)
    keep[0, 0, 0] = 0.0
    e = grid.k_vec * (keep * np.sqrt(grid.inv_k_sq))
    return keep, e, np.exp(-grid.nu * grid.k_sq * (0.5 * grid.dt))


def nonlinear_reference(grid, u_hat):
    """P[u x omega] evaluated in the full layout with a temporary per
    operation: the bitwise reference for nonlinear_term on the band."""
    uw = grid.inverse(np.concatenate((u_hat, curl(grid, u_hat))))
    u, w = uw[:3], uw[3:]
    f = grid.forward(
        np.stack((u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]))
    )
    keep, e, _ = full_multipliers(grid)
    return keep * f - e * (e[0] * f[0] + e[1] * f[1] + e[2] * f[2])


def step_reference(grid, u_hat):
    """The RK4 step evaluated in the full layout with temporaries: the
    bitwise reference for step on the band."""
    dt, e_half = grid.dt, full_multipliers(grid)[2]
    u_half = e_half * u_hat
    k1 = nonlinear_reference(grid, u_hat)
    k2 = nonlinear_reference(grid, u_half + e_half * (0.5 * dt * k1))
    k3 = nonlinear_reference(grid, u_half + 0.5 * dt * k2)
    k4 = nonlinear_reference(grid, e_half * (u_half + dt * k3))
    return e_half * (u_half + (dt / 6.0) * (e_half * k1 + 2.0 * (k2 + k3))) + (dt / 6.0) * k4


def full_band(n, seed=None):
    grid = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-2)
    ic = InitialCondition(
        kind="random_band", amplitude=1.0, seed=n if seed is None else seed, slope=-1.0,
        k_min=1, k_max=grid.dealias_cutoff,
    )
    return grid, make_initial(grid, ic)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_retained_bits(grid, got, want):
    """got equals the expression-form reference `want` bit for bit on the
    modes the two-thirds rule keeps, and is +0.0 on the discarded ones,
    where the reference holds +0.0 or -0.0."""
    keep = np.broadcast_to(grid.dealias_mask, grid.spectral_shape)
    dropped = got[..., ~keep]
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got[..., keep].tobytes() == want[..., keep].tobytes()
        and dropped.tobytes() == np.zeros_like(dropped).tobytes()
        and not np.any(want[..., ~keep])
    )


class TestWorkspaceStep:
    """step and nonlinear_term work on the band in grid.workspace; scattered
    to the full layout, their results equal the expression form with
    temporaries bit for bit on the retained modes, with +0.0 on the
    discarded ones."""

    STEPS = 30

    def march(self, grid, ref, steps=STEPS):
        band = grid.band
        u = band.gather(ref)
        for _ in range(steps):
            u, ref = step(grid, u), step_reference(grid, ref)
            assert same_retained_bits(grid, band.scatter(u), ref)
        return u

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_random_band_bitwise(self, n):
        grid, u = full_band(n)
        assert same_retained_bits(grid, band_term(grid, u), nonlinear_reference(grid, u))
        self.march(grid, u)

    def test_taylor_green_bitwise(self, grid):
        self.march(grid, make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.5)))

    def test_two_grids_interleaved(self):
        """Steps alternating between grids of different n share no buffer."""
        (ga, ra), (gb, rb) = full_band(16, seed=3), full_band(24, seed=4)
        ua, ub = ga.band.gather(ra), gb.band.gather(rb)
        for _ in range(self.STEPS):
            ua, ub = step(ga, ua), step(gb, ub)
            ra, rb = step_reference(ga, ra), step_reference(gb, rb)
            assert same_retained_bits(ga, ga.band.scatter(ua), ra)
            assert same_retained_bits(gb, gb.band.scatter(ub), rb)
        assert ga.workspace is not gb.workspace

    def test_input_unchanged_and_results_independent(self, grid):
        """step leaves its input alone; a returned array is the caller's, so
        neither a later step nor editing it changes the other."""
        u = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.3))
        u = grid.band.gather(u)
        u_before = u.copy()
        first = step(grid, u)
        assert same_bits(u, u_before)
        kept = first.copy()
        step(grid, first)
        assert same_bits(first, kept)
        first[...] = np.nan
        assert same_bits(step(grid, u), kept)

    def test_nonlinear_term_out(self, grid):
        u = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.3))
        out = np.empty((3,) + grid.band.spectral_shape, dtype=np.complex128)
        assert nonlinear_term(grid, grid.band.gather(u), out=out) is out
        assert same_retained_bits(grid, grid.band.scatter(out), nonlinear_reference(grid, u))

    def test_step_allocates_only_its_result(self):
        """After a warm-up step the workspace exists and one step allocates
        no stage: its traced peak is its result, 1.03 band fields at 24^3.
        The band multipliers are complex128, so no multiply casts through a
        buffer; with float64 multipliers numpy's cast buffer made it 2.03
        (step_reference peaks at 11 full-layout fields)."""
        grid, u = full_band(24)
        u = grid.band.gather(u)
        step(grid, u)
        tracemalloc.start()
        try:
            step(grid, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * u.nbytes


class TestBlowUp:
    """Failure detection and salvage."""

    def test_simulate_rejects_divergent_input(self, grid):
        rng = np.random.default_rng(1)
        bad = grid.forward(rng.standard_normal((3,) + grid.shape))
        with pytest.raises(GridError, match="divergence"):
            simulate(grid, bad)

    def test_blow_up_raises_with_partial(self):
        grid = Grid(n=16, nu=1e-8, dt=0.05, t_end=1.0, snapshot_stride=1)
        ic = InitialCondition(kind="taylor_green", amplitude=1e150)
        with pytest.raises(BlowUpError, match="blew up") as excinfo:
            simulate(grid, make_initial(grid, ic))
        err = excinfo.value
        assert isinstance(err.partial, Trajectory)
        assert err.step >= 1
        assert err.time == pytest.approx(err.step * grid.dt)
        assert len(err.partial) >= 1
        assert err.partial.times[0] == 0.0

    def test_blow_up_partial_matches_reference(self):
        """The salvaged snapshots are finite and bitwise equal to the
        states of the expression-form step up to the failure on the retained
        modes, +0.0 on the discarded ones."""
        grid = Grid(n=16, nu=1e-8, dt=0.05, t_end=1.0, snapshot_stride=1)
        u0 = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=1e150))
        with pytest.raises(BlowUpError) as excinfo:
            simulate(grid, u0)
        partial = excinfo.value.partial
        ref = [dealias(grid, u0).astype(np.complex128)]
        ref[0][..., 0, 0, 0] = 0.0
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            while np.all(np.isfinite(nxt := step_reference(grid, ref[-1]))):
                ref.append(nxt)
        assert excinfo.value.step == len(ref) == len(partial)
        assert np.all(np.isfinite(partial.u_hats))
        for got, want in zip(partial.u_hats, ref):
            assert same_retained_bits(grid, grid.band.scatter(got), want)


def simulate_reference(grid, u0_hat):
    """simulate as five growing lists stacked at the end, stepping the band,
    recording band states and taking its ledger apart with a temporary per
    operation, each block summed and then the block sums (the order
    spectral.parseval_sum states): the bitwise reference for simulate's
    record."""
    band = grid.band
    weight = band.gather(grid.parseval_w)
    gradient_weight = band.gather(grid.parseval_w * grid.k_sq)
    u = band.gather(dealias(grid, u0_hat).astype(np.complex128))
    u[..., 0, 0, 0] = 0.0

    def band_sum(w, v):
        blocks = np.sum(w * (v.real * v.real + v.imag * v.imag), axis=(-3, -2, -1))
        return VOLUME * float(np.sum(blocks))

    def energy(v):
        return 0.5 * band_sum(weight, v)

    times, snaps, energies, dissipation = [0.0], [u], [energy(u)], [0.0]
    step_energies = [energies[0]]
    diss = 0.0
    gsq_prev = band_sum(gradient_weight, u)

    def record():
        return Trajectory(
            grid=grid,
            times=np.asarray(times),
            u_hats=np.asarray(snaps),
            energies=np.asarray(energies),
            dissipation=np.asarray(dissipation),
            step_energies=np.asarray(step_energies),
        )

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for s in range(1, grid.steps + 1):
            u = step(grid, u)
            if not np.all(np.isfinite(u)):
                err = BlowUpError(s * grid.dt, s)
                err.partial = record()
                raise err
            gsq = band_sum(gradient_weight, u)
            diss += 0.5 * grid.dt * grid.nu * (gsq_prev + gsq)
            gsq_prev = gsq
            step_energies.append(energy(u))
            if s % grid.snapshot_stride == 0 or s == grid.steps:
                times.append(s * grid.dt)
                snaps.append(u)
                energies.append(step_energies[-1])
                dissipation.append(diss)
    return record()


RECORD_FIELDS = ("times", "u_hats", "energies", "dissipation", "step_energies")


def same_record(got, want):
    """Every field bit for bit, the band snapshots included."""
    return all(same_bits(getattr(got, f), getattr(want, f)) for f in RECORD_FIELDS)


class TestRecordOnce:
    """simulate allocates its snapshot stack and step ledger once and
    returns, or salvages, views of them."""

    @pytest.mark.parametrize("stride, snaps", [(4, 6), (3, 8)])  # 4 divides 20 steps, 3 does not
    def test_matches_list_and_stack_bitwise(self, stride, snaps):
        grid = Grid(n=16, nu=0.05, dt=5e-3, t_end=0.1, snapshot_stride=stride)
        u0 = make_initial(
            grid,
            InitialCondition(kind="random_band", amplitude=1.0, seed=5, slope=-1.0, k_min=1, k_max=5),
        )
        traj = simulate(grid, u0)
        assert len(traj) == snaps
        assert same_record(traj, simulate_reference(grid, u0))

    def test_blow_up_step_and_partial_unchanged(self):
        grid = Grid(n=16, nu=1e-8, dt=0.05, t_end=1.0, snapshot_stride=1)
        u0 = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=1e150))
        with pytest.raises(BlowUpError) as got:
            simulate(grid, u0)
        with pytest.raises(BlowUpError) as want:
            simulate_reference(grid, u0)
        assert got.value.step == want.value.step
        assert got.value.time == want.value.time
        assert same_record(got.value.partial, want.value.partial)

    def test_peak_holds_one_trajectory(self):
        """Stride 1 over 23 steps: 24 snapshots.  The list-and-stack loop
        peaks near (2 S + 13) u_hat.nbytes, since the list and its stack
        coexist; the preallocated stack holds one copy."""
        grid = Grid(n=16, nu=0.05, dt=2e-3, t_end=0.046, snapshot_stride=1)
        u0 = make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.3))
        tracemalloc.start()
        try:
            traj = simulate(grid, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 24
        assert peak < (len(traj) + 20) * u0.nbytes

    def test_discarded_modes_are_positive_zero(self):
        """Every state simulate records, BlowUpError.partial included, is a
        band row, and the snapshot files written from the band rows are
        byte for byte those written from the rows scattered to the full
        layout, +0.0 outside the two-thirds band (the expression form
        leaves -0.0 in some of those modes)."""

        def positive_zero_outside(grid, traj):
            band = grid.band
            if traj.u_hats.shape[-3:] != band.spectral_shape:
                return False
            for u_hat in traj.u_hats:
                full = band.scatter(u_hat)
                if grid.inverse(u_hat).tobytes() != grid.inverse(full).tobytes():
                    return False
            return True

        for n, ic in (
            (16, InitialCondition(kind="taylor_green", amplitude=0.5)),
            (18, InitialCondition(
                kind="random_band", amplitude=1.0, seed=2, slope=-1.0, k_min=1, k_max=5
            )),
        ):
            grid = Grid(n=n, nu=0.05, dt=5e-3, t_end=0.05, snapshot_stride=3)
            assert positive_zero_outside(grid, simulate(grid, make_initial(grid, ic)))
        grid = Grid(n=16, nu=1e-8, dt=0.05, t_end=1.0, snapshot_stride=1)
        with pytest.raises(BlowUpError) as excinfo:
            simulate(grid, make_initial(grid, InitialCondition(kind="taylor_green", amplitude=1e150)))
        assert positive_zero_outside(grid, excinfo.value.partial)

    def test_workspace_dropped_on_return_and_raise(self):
        grid = Grid(n=16, nu=0.05, dt=5e-3, t_end=0.02, snapshot_stride=2)
        simulate(grid, make_initial(grid, InitialCondition(kind="taylor_green", amplitude=0.3)))
        assert "workspace" not in grid.__dict__
        grid = Grid(n=16, nu=1e-8, dt=0.05, t_end=1.0, snapshot_stride=1)
        with pytest.raises(BlowUpError):
            simulate(grid, make_initial(grid, InitialCondition(kind="taylor_green", amplitude=1e150)))
        assert "workspace" not in grid.__dict__


class TestBandLedger:
    """simulate sums its energy ledger on the band.  Against a full-layout
    ledger of the same states (each scattered, then norm_sq and
    gradient_norm_sq over the whole half spectrum) it moves by round-off
    only, and its snapshots stay the expression-form march."""

    @pytest.mark.parametrize("n", [16, 24])
    def test_within_round_off_of_full_layout_ledger(self, n):
        grid = Grid(n=n, nu=0.05, dt=2e-3, t_end=0.05, snapshot_stride=5)  # 25 steps
        u0 = make_initial(
            grid,
            InitialCondition(
                kind="random_band", amplitude=1.0, seed=n, slope=-1.0, k_min=1,
                k_max=grid.dealias_cutoff,
            ),
        )
        traj = simulate(grid, u0)
        band = grid.band
        ref = dealias(grid, u0).astype(np.complex128)
        ref[..., 0, 0, 0] = 0.0
        u = band.gather(ref)
        full = band.scatter(u)
        energies, dissipation, snaps = [0.5 * norm_sq(grid, full)], [0.0], [ref]
        gsq_prev = gradient_norm_sq(grid, full)
        for s in range(1, grid.steps + 1):
            u, ref = step(grid, u), step_reference(grid, ref)
            full = band.scatter(u)
            gsq = gradient_norm_sq(grid, full)
            dissipation.append(dissipation[-1] + 0.5 * grid.dt * grid.nu * (gsq_prev + gsq))
            gsq_prev = gsq
            energies.append(0.5 * norm_sq(grid, full))
            if s % grid.snapshot_stride == 0:
                snaps.append(ref)
        for got, want in ((traj.step_energies, energies), (traj.dissipation, dissipation[::5])):
            want = np.asarray(want)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        assert len(traj) == len(snaps) == 6
        for got, want in zip(traj.u_hats, snaps):
            assert same_retained_bits(grid, band.scatter(got), want)
