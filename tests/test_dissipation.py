"""Tests for the dissipation-defect estimators.

The package reduces each (width, snapshot) pair to the space integral of
each estimator by a spectral pairing; the pointwise densities live here, as
test-local references.  Validates:
- frozen reference values from tools/oracle_defect_direct.py (an FFT-free
  reimplementation: circular-convolution filtering, analytic gradients,
  modular-index offset sums) on a closed-triad field, and that the tool run
  as a script still prints them and its recorded output
- pointwise agreement of the correlation form of the structure density with
  a direct offset-by-offset np.roll loop on random fields, and of the loop's
  space integral with the per-pair pairing
- the per-pair pairings against the space integrals of the reference
  densities, the structure field B formed from the pair loop's Pi against
  its expression in real arithmetic and against B from the undealiased
  product, and the transform
  calls per snapshot and per pair; the one-pass analyze_widths equals
  resolved_balance, its stress series is the negated budget flux, and its
  estimator series are the per-pair values
- exact zeros for single-mode fields (no closed triads)
- odd symmetry of both estimators under u -> -u
- translation invariance of the space integrals
- Richardson extrapolation on synthetic power laws and its failure modes
- defect_cross_validate: every width gets both estimators, three widths
  are required, gap metrics
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from full_layout import full_stress

from nslab import dissipation
from nslab.dissipation import (
    DissipationError,
    analyze_widths,
    defect_cross_validate,
    defect_stress_strain,
    defect_structure_function,
    offsets_count,
    richardson_extrapolate,
    structure_fields,
)
from nslab.filtering import (
    _SYMMETRIC_INDEX,
    filtered_pairs,
    kernel_for,
    resolved_balance,
    reynolds_stress_hat,
    velocity_product_hat,
)
from nslab.solver import InitialCondition, make_initial, simulate
from nslab.spectral import VOLUME, Grid, dealias, gradient, width_schedule

# Frozen output of tools/oracle_defect_direct.py (n=16, a=1.1, b=0.8, c=0.6).
# The oracle shares no code with the package: filtering is an explicit
# circular convolution, offsets are enumerated with modular index arithmetic,
# and velocity gradients are hand-coded trigonometry.
ORACLE = {
    np.pi: {"structure": 9.152876244470944, "stress": 7.586243519218473},
    np.pi / 2.0: {"structure": 3.68551507995784, "stress": 6.229181381980347},
}


TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_defect_direct.py"
_TOOL_VALUE = re.compile(
    r"^(delta|  structure|  stress|  closed-form stress) *= (?:np\.float64\()?([^)\s]+)", re.M
)


def tool_values(text):
    """{(delta, name): value} from the printout of oracle_defect_direct.py."""
    values, delta = {}, None
    for name, value in _TOOL_VALUE.findall(text):
        if name == "delta":
            delta = float(value)
        else:
            values[(delta, name.strip())] = float(value)
    return values


def as_band(grid, u_hat):
    """A velocity in the band layout: a full-layout one is gathered, which
    drops the modes the two-thirds rule drops."""
    if u_hat.shape[-3:] == grid.spectral_shape:
        return grid.band.gather(u_hat)
    return u_hat


def as_full(grid, u_hat):
    """A velocity in the full layout, dealiased: a band one is scattered."""
    if u_hat.shape[-3:] == grid.spectral_shape:
        return dealias(grid, u_hat)
    return grid.band.scatter(u_hat)


def structure_value(grid, u_hat, delta):
    """The package's structure integral of one snapshot at one width."""
    u_hat = as_band(grid, u_hat)
    return defect_structure_function(
        grid, structure_fields(grid, u_hat, velocity_product_hat(grid, u_hat)), delta
    )


def stress_value(grid, u_hat, delta):
    """The package's stress-strain integral of one snapshot at one width."""
    u_hat = as_band(grid, u_hat)
    kernel = kernel_for(grid, delta)
    ub_hat = kernel.multiplier * u_hat
    r_hat = reynolds_stress_hat(grid, kernel, ub_hat, velocity_product_hat(grid, u_hat))
    return defect_stress_strain(grid, ub_hat, delta, r_hat)


def structure_fields_from_f(grid, u_hat, f_hat):
    """B from the undealiased product F = (u_j u_k)^, j <= k, and the
    dealiased velocity: the reference that structure_fields is held to."""
    u_conj = np.conj(dealias(grid, u_hat))
    trace_hat = f_hat[0] + f_hat[3] + f_hat[5]
    fields = np.zeros_like(u_conj)
    for k in range(3):
        x = trace_hat * u_conj[k]
        for j in range(3):
            x += 2.0 * f_hat[_SYMMETRIC_INDEX[j, k]] * u_conj[j]
        fields[k].imag = 2.0 * x.imag
    return fields


def space_integral(grid, density):
    """Collocation quadrature h^3 * sum(density) of a real density."""
    return grid.h**3 * float(np.sum(density))


@pytest.fixture(scope="module")
def grid():
    return Grid(n=16, nu=0.05, dt=2e-3, t_end=0.02, snapshot_stride=1)


@pytest.fixture(scope="module")
def triad_hat(grid):
    """Closed-triad field (1,0,0) + (0,1,0) + (1,1,0) with cross-shell transfer."""
    x1, x2, _ = grid.x
    a, b, c = 1.1, 0.8, 0.6
    u = np.stack(
        [
            b * np.cos(x2),
            np.zeros(grid.shape),
            a * np.cos(x1) + c * np.sin(x1 + x2),
        ]
    )
    return grid.forward(u)


class TestOffsets:
    def test_count_is_ball_volume(self, grid):
        """Offsets fill a ball of radius delta minus the origin."""
        assert offsets_count(grid, 1.5 * grid.h) == 18  # 6 face + 12 edge neighbors
        assert offsets_count(grid, np.pi / 2.0) == 250  # |y| < 4h ball

    def test_count_monotone(self, grid):
        counts = [offsets_count(grid, d) for d in (np.pi / 4, np.pi / 2, np.pi)]
        assert counts[0] < counts[1] < counts[2]


def direct_structure_density(grid, u_hat, delta):
    """Reference: the structure-function offset sum, one np.roll per offset."""
    norm_const = kernel_for(grid, delta).norm_const
    u = grid.inverse(as_full(grid, u_hat))
    coords = grid.h * np.arange(grid.n)
    wrapped = np.where(coords <= np.pi, coords, coords - 2.0 * np.pi)
    acc = np.zeros(grid.shape)
    for shift in np.ndindex(grid.shape):
        y = wrapped[list(shift)]
        r = float(np.linalg.norm(y))
        if not 0.0 < r < delta:
            continue
        rho = r / delta
        grad_eta = norm_const * -2.0 * rho / (1.0 - rho**2) ** 2
        grad_eta *= np.exp(-1.0 / (1.0 - rho**2)) / (r * delta) * y
        du = np.roll(u, tuple(-s for s in shift), axis=(1, 2, 3)) - u
        acc += np.einsum("i,i...->...", grad_eta, du) * np.sum(du * du, axis=0)
    return 0.25 * grid.h**3 * acc


class TestAgainstDirectLoop:
    """The correlation form and the per-pair pairing against the
    offset-by-offset sum."""

    @pytest.mark.parametrize("n, cells", [(24, 8.0), (24, 4.0), (24, 2.0), (32, 16.0)])
    def test_pointwise(self, n, cells):
        """Random O(1) field; n=32 with 16 cells is delta = pi, 17070 offsets.
        The integral's bound is relative to that of |density|, the size of
        what cancels in it."""
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        delta = cells * g.h
        u_hat = g.forward(np.random.default_rng(n).standard_normal((3,) + g.shape))
        ref = direct_structure_density(g, u_hat, delta)
        fast = reference_structure_density(g, u_hat, delta)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()
        value = structure_value(g, u_hat, delta)
        assert abs(value - space_integral(g, ref)) <= 1e-12 * space_integral(g, np.abs(ref))


def reference_structure_density(grid, u_hat, delta):
    """Reference: the structure density as five circular correlations of
    the sampled grad(eta_delta) with pointwise products of u, 27 transforms."""
    u_hat = as_full(grid, u_hat)
    u = grid.inverse(u_hat)
    g_hat = 0.25 * VOLUME * np.conj(grid.forward(dissipation._kernel_gradient_samples(grid, delta)))
    j, k = np.triu_indices(3)
    pairs = u[j] * u[k]
    speed_sq = np.sum(pairs[j == k], axis=0)
    index = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
    pairs_hat = grid.forward(pairs)[index]
    cubic_hat = np.einsum("k...,k...->...", g_hat, grid.forward(u * speed_sq))
    div_hat = np.einsum("k...,k...->...", g_hat, u_hat)
    vec_hat = 2.0 * np.einsum("k...,kj...->j...", g_hat, pairs_hat)
    vec_hat += g_hat * grid.forward(speed_sq)
    sym_hat = g_hat[k] * u_hat[j] + g_hat[j] * u_hat[k]
    density = grid.inverse(cubic_hat)
    density += speed_sq * grid.inverse(div_hat)
    density -= np.einsum("j...,j...->...", u, grid.inverse(vec_hat))
    weights = np.where(j == k, 1.0, 2.0)
    density += np.einsum("p,p...,p...->...", weights, pairs, grid.inverse(sym_hat))
    return density


def reference_stress_density(grid, u_hat, delta):
    """Reference: the stress-strain density -R_ij d_i ubar_j on the grid,
    the nine-component stress formed apart in the full layout and
    dealiased, all nine components back to real space."""
    ub_hat, r_hat = full_stress(grid, kernel_for(grid, delta), as_full(grid, u_hat))
    stress = grid.inverse(r_hat)
    grad_ub = grid.inverse(gradient(grid, ub_hat))
    return -np.einsum("ijxyz,ijxyz->xyz", stress, grad_ub)


class TestSharedTransforms:
    """The per-pair pairings against the reference densities, and the
    transforms that analyze_widths shares."""

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_densities_match_reference(self, n):
        """Each pairing equals the space integral of its reference density
        within 1e-12 of the largest |integral| over the widths."""
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        u_hat = g.band.forward(np.random.default_rng(n + 1).standard_normal((3,) + g.shape))
        product_hat = velocity_product_hat(g, u_hat)
        fields = structure_fields(g, u_hat, product_hat)
        values, references = [], []
        for delta in width_schedule(g, np.pi, 3):
            kernel = kernel_for(g, delta)
            ub_hat = kernel.multiplier * u_hat
            r_hat = reynolds_stress_hat(g, kernel, ub_hat, product_hat)
            values.append(
                (
                    defect_structure_function(g, fields, delta),
                    defect_stress_strain(g, ub_hat, delta, r_hat),
                )
            )
            references.append(
                (
                    space_integral(g, reference_structure_density(g, u_hat, delta)),
                    space_integral(g, reference_stress_density(g, u_hat, delta)),
                )
            )
        values, references = np.array(values), np.array(references)
        scale = np.abs(references).max(axis=0)
        assert np.all(scale > 0.0)
        assert np.all(np.abs(values - references) <= 1e-12 * scale)

    def test_fields_from_shared_products(self, grid, trajectory):
        """The field B that analyze forms from the pair loop's Pi equals
        its expression in real arithmetic from the snapshot alone, Im(a conj b) = Im a Re b - Re a Im b with each P_jk = (u_j
        u_k)^ transformed apart and S = P_00 + P_11 + P_22, within 1e-14 of
        max |B| (numpy's complex multiply may fuse its products; measured
        2e-16).  Its real part is zero."""
        for _, u_hat, product_hat, _ in filtered_pairs(trajectory, [kernel_for(grid, np.pi)]):
            fields = grid.band.scatter(structure_fields(grid, u_hat, product_hat))
            u_hat = grid.band.scatter(u_hat)
            u = grid.inverse(u_hat)
            p_hat = np.array([[grid.forward(u[j] * u[k]) for k in range(3)] for j in range(3)])
            s_hat = p_hat[0, 0] + p_hat[1, 1] + p_hat[2, 2]
            re, im = u_hat.real, u_hat.imag
            want = np.zeros_like(u_hat)
            for k in range(3):
                b = s_hat.imag * re[k] - s_hat.real * im[k]
                for j in range(3):
                    b += 2.0 * (p_hat[j, k].imag * re[j] - p_hat[j, k].real * im[j])
                want[k].imag = 2.0 * b
            assert fields.shape == u_hat.shape
            assert not np.any(fields.real)
            assert np.abs(fields - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [16, 24])
    def test_fields_from_dealiased_product(self, n):
        """B from the band velocity and its band Pi equals, on the band, B
        from the undealiased product F = (u_j u_k)^ and the dealiased
        velocity in the full layout, which is zero off the band: both
        factors agree on the two-thirds band and one of them is zero off it.
        The fields are random, so neither u_hat nor F is band-limited; the
        two differ at most in the sign of zero, which array_equal ignores."""
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        u_hat = g.forward(np.random.default_rng(n + 2).standard_normal((3,) + g.shape))
        u = g.inverse(dealias(g, u_hat))
        j, k = np.triu_indices(3)
        f_hat = g.forward(u[j] * u[k])
        band_u = g.band.gather(u_hat)
        fields = structure_fields(g, band_u, velocity_product_hat(g, band_u))
        want = structure_fields_from_f(g, u_hat, f_hat)
        assert np.array_equal(fields, g.band.gather(want))
        assert not np.any(want[:, ~g.dealias_mask])

    def test_analyze_transforms_per_snapshot_and_pair(self, grid, trajectory, monkeypatch):
        """With the per-width kernels cached, analyze_widths makes 2
        transform calls per snapshot (Pi's: the velocity and the products
        u_j u_k; the structure field is formed from Pi) and 2 per pair (the
        stress's); both estimators are spectral pairings."""
        deltas = [np.pi, np.pi / 2.0, np.pi / 4.0]
        analyze_widths(trajectory, deltas)
        calls = []

        def counted(method):
            def call(self, *args, **kwargs):
                calls.append(method.__name__)
                return method(self, *args, **kwargs)

            return call

        for name in ("forward", "inverse"):
            monkeypatch.setattr(Grid, name, counted(getattr(Grid, name)))
        analyze_widths(trajectory, deltas)
        assert len(calls) == len(trajectory) * (2 + 2 * len(deltas))

    def test_stress_series_is_negated_flux(self, grid, trajectory):
        """The stress-strain pairing is the budget's flux pairing negated,
        bit for bit, at every width and snapshot."""
        balances, defect = analyze_widths(trajectory, [np.pi, np.pi / 2.0, np.pi / 4.0])
        for balance, series, total in zip(balances, defect.stress_series, defect.stress):
            assert np.array_equal(series, -balance.flux)
            assert total == -balance.stress_flux

    def test_one_pass_matches_per_width_reductions(self, grid, trajectory):
        """Each width's budget equals resolved_balance at that width alone;
        tests/test_filtering.py holds resolved_balance to the per-snapshot
        loop it had before the pair loop."""
        deltas = [np.pi / 4.0, np.pi, np.pi / 2.0]
        balances, defect = analyze_widths(trajectory, deltas)
        for balance, delta in zip(balances, defect.deltas):
            expected = resolved_balance(trajectory, kernel_for(grid, delta))
            assert balance.delta == delta
            assert (balance.energy_drop, balance.viscous, balance.stress_flux) == (
                expected.energy_drop,
                expected.viscous,
                expected.stress_flux,
            )
            assert (balance.residual, balance.stress_norm) == (
                expected.residual,
                expected.stress_norm,
            )
            assert np.array_equal(balance.flux, expected.flux)


class TestSpaceTime:
    """Each width's estimator series from the one-pass analyze_widths."""

    DELTAS = [np.pi / 4.0, np.pi, np.pi / 2.0]

    def test_series_matches_snapshots(self, grid, trajectory):
        """Each series holds the per-pair values bit for bit, at every width
        and snapshot, and they equal the space integrals of the reference
        densities within 1e-12 of the largest |integral| over the widths."""
        _, defect = analyze_widths(trajectory, self.DELTAS)
        assert defect.deltas == (np.pi, np.pi / 2.0, np.pi / 4.0)
        assert defect.structure_series.shape == (3, len(trajectory))
        for value, density, series in (
            (structure_value, reference_structure_density, defect.structure_series),
            (stress_value, reference_stress_density, defect.stress_series),
        ):
            for i, u_hat in enumerate(trajectory.u_hats):
                values = [value(grid, u_hat, delta) for delta in defect.deltas]
                assert np.array_equal(series[:, i], values)
                references = np.array(
                    [space_integral(grid, density(grid, u_hat, delta)) for delta in defect.deltas]
                )
                scale = np.abs(references).max()
                assert np.all(np.abs(series[:, i] - references) <= 1e-12 * scale)

    def test_total_is_trapezoid_of_series(self, grid, trajectory):
        _, defect = analyze_widths(trajectory, self.DELTAS)
        assert defect.stress_series.shape == (3, len(trajectory))
        for w in range(len(defect.deltas)):
            for series, totals in (
                (defect.structure_series, defect.structure),
                (defect.stress_series, defect.stress),
            ):
                assert totals[w] == float(np.trapezoid(series[w], trajectory.times))


class TestAgainstDirectOracle:
    """Both estimators against the FFT-free reimplementation."""

    @pytest.mark.parametrize("delta", [np.pi, np.pi / 2.0])
    def test_structure_function(self, grid, triad_hat, delta):
        value = structure_value(grid, triad_hat, delta)
        assert value == pytest.approx(ORACLE[delta]["structure"], rel=1e-12)

    @pytest.mark.parametrize("delta", [np.pi, np.pi / 2.0])
    def test_stress_strain(self, grid, triad_hat, delta):
        value = stress_value(grid, triad_hat, delta)
        assert value == pytest.approx(ORACLE[delta]["stress"], rel=1e-12)

    def test_tool_prints_frozen_values(self):
        """The tool, run as a script, still prints the values frozen in ORACLE
        and in its recorded output tools/oracle_defect_direct.out."""
        run = subprocess.run(
            [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=600, check=True
        )
        printed = tool_values(run.stdout)
        recorded = tool_values(TOOL.with_suffix(".out").read_text(encoding="utf-8"))
        assert len(printed) == 6
        assert printed.keys() == recorded.keys()
        for key, value in printed.items():
            assert value == pytest.approx(recorded[key], rel=1e-14), key
        for delta, frozen in ORACLE.items():
            for name, value in frozen.items():
                assert printed[(delta, name)] == pytest.approx(value, rel=1e-14), (delta, name)

    def test_single_mode_vanishes(self, grid):
        """One Fourier mode has no closed triads: every cubic statistic is 0."""
        x1 = grid.x[0]
        u_hat = grid.forward(np.stack([np.zeros(grid.shape)] * 2 + [1.1 * np.cos(x1)]))
        for delta in (np.pi, np.pi / 2.0):
            s = structure_value(grid, u_hat, delta)
            t = stress_value(grid, u_hat, delta)
            assert abs(s) < 1e-12
            assert abs(t) < 1e-12


class TestSymmetries:
    def test_odd_under_negation(self, grid, triad_hat):
        """Both estimators are cubic in u, hence odd: D(-u) = -D(u)."""
        delta = np.pi / 2.0
        for estimator in (structure_value, stress_value):
            plus = estimator(grid, triad_hat, delta)
            minus = estimator(grid, -triad_hat, delta)
            assert abs(plus + minus) < 1e-12 * abs(plus)

    def test_translation_invariance(self, grid, triad_hat):
        """Shifting the field moves the density but not its integral."""
        delta = np.pi / 2.0
        shifted = grid.forward(np.roll(grid.inverse(triad_hat), (3, 5, 1), axis=(1, 2, 3)))
        for estimator in (structure_value, stress_value):
            ref = estimator(grid, triad_hat, delta)
            moved = estimator(grid, shifted, delta)
            assert moved == pytest.approx(ref, rel=1e-11)


@pytest.fixture(scope="module")
def trajectory(grid):
    ic = InitialCondition(
        kind="random_band", amplitude=0.4, seed=3, slope=-1.0, k_min=1, k_max=3
    )
    return simulate(grid, make_initial(grid, ic))


class TestRichardson:
    def test_recovers_power_law(self):
        """I(delta) = L + c delta^p is fitted exactly from three dyadic widths."""
        p, limit, c = 2.3, 0.7, -1.9
        deltas = [np.pi / 2**j for j in range(4)]
        values = [limit + c * d**p for d in deltas]
        fit = richardson_extrapolate(deltas, values)
        assert fit.order == pytest.approx(p, rel=1e-12)
        assert fit.limit == pytest.approx(limit, rel=1e-12)
        assert fit.deltas == tuple(deltas[-3:])

    def test_uses_finest_three(self):
        """A corrupted coarsest width must not affect the fit."""
        deltas = [np.pi / 2**j for j in range(4)]
        values = [0.5 + 2.0 * d**2 for d in deltas]
        corrupted = [values[0] + 99.0] + values[1:]
        fit = richardson_extrapolate(deltas, corrupted)
        assert fit.order == pytest.approx(2.0, rel=1e-12)

    def test_rejects_non_dyadic(self):
        with pytest.raises(DissipationError, match="dyadic"):
            richardson_extrapolate([1.0, 0.6, 0.3], [1.0, 0.5, 0.25])

    def test_rejects_short_input(self):
        with pytest.raises(DissipationError, match="three"):
            richardson_extrapolate([1.0, 0.5], [1.0, 0.5])

    def test_non_monotone_values_give_nan_order(self):
        deltas = [1.0, 0.5, 0.25]
        fit = richardson_extrapolate(deltas, [1.0, 0.2, 0.5])
        assert np.isnan(fit.order)
        assert fit.limit == 0.5  # falls back to the finest value

    def test_equal_differences_give_nan_order(self):
        """Equal successive differences fit order 0, which has no limit."""
        fit = richardson_extrapolate([4.0, 2.0, 1.0], [3.0, 2.0, 1.0])
        assert np.isnan(fit.order)
        assert fit.limit == 1.0


class TestCrossValidation:
    def test_pass_drops_transform_buffers(self, trajectory):
        """analyze_widths drops the grid's band-transform buffers when it
        returns; a pass that starts with them already made, and one that
        makes them, give the same bits."""
        grid, deltas = trajectory.grid, [np.pi, np.pi / 2.0, np.pi / 4.0]
        runs = []
        for warm in (False, True):
            if warm:
                grid.band.inverse(trajectory.u_hats[-1])
                assert grid.__dict__["_buffers"]
            balances, report = analyze_widths(trajectory, deltas)
            assert not grid.__dict__.get("_buffers")
            runs.append(
                ([(b.stress_flux, b.stress_norm, b.flux.tobytes()) for b in balances],
                 report.structure_series.tobytes(), report.stress_series.tobytes())
            )
        assert runs[0] == runs[1]

    def test_report_on_affordable_schedule(self, grid):
        ic = InitialCondition(
            kind="random_band", amplitude=0.2, seed=11, slope=-2.0, k_min=1, k_max=2
        )
        traj = simulate(grid, make_initial(grid, ic))
        deltas = [np.pi, np.pi / 2.0, np.pi / 4.0]
        report = defect_cross_validate(traj, deltas)
        assert report.deltas == tuple(deltas)
        assert not np.any(np.isnan(report.structure))
        assert report.structure_series.shape == (3, len(traj))
        assert report.gap_rel >= 0.0
        assert report.dissipation_scale > 0.0
        assert report.gap_dissipation <= report.gap_rel * max(
            abs(report.structure[-1]), abs(report.stress[-1])
        ) / report.dissipation_scale + 1e-30

    def test_widest_width_has_finite_structure(self):
        """Every width gets a structure value, delta = pi (17070 offsets at
        32^3) included, and the fits use the finest three."""
        g = Grid(n=32, nu=0.05, dt=2e-3, t_end=4e-3, snapshot_stride=1)
        ic = InitialCondition(
            kind="random_band", amplitude=0.2, seed=11, slope=-2.0, k_min=1, k_max=2
        )
        traj = simulate(g, make_initial(g, ic))
        deltas = [np.pi, np.pi / 2.0, np.pi / 4.0, np.pi / 8.0]
        report = defect_cross_validate(traj, deltas)
        assert offsets_count(g, np.pi) == 17070
        assert np.all(np.isfinite(report.structure))
        assert np.all(np.isfinite(report.structure_series))
        assert np.all(np.isfinite(report.stress))
        assert report.structure_fit.deltas == tuple(deltas[1:])

    def test_requires_three_widths(self, grid):
        ic = InitialCondition(
            kind="random_band", amplitude=0.2, seed=11, slope=-2.0, k_min=1, k_max=2
        )
        traj = simulate(grid, make_initial(grid, ic))
        with pytest.raises(DissipationError, match="three"):
            defect_cross_validate(traj, [np.pi, np.pi / 2.0])
