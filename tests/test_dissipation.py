"""Tests for the pointwise dissipation-defect estimators.

Validates:
- frozen reference values from tools/oracle_defect_direct.py (an FFT-free
  reimplementation: circular-convolution filtering, analytic gradients,
  modular-index offset sums) on a closed-triad field, and that the tool run
  as a script still prints them and its recorded output
- pointwise agreement of the correlation form of the structure function with
  a direct offset-by-offset np.roll loop on random fields
- the densities from shared per-snapshot and per-width transforms equal the
  per-call formulas they replaced bit for bit, the structure fields formed
  from the pair loop's velocity products equal those formed apart, and the
  transform calls per snapshot and per pair are counted; the one-pass analyze_widths
  equals resolved_balance, and its estimator series are the per-pair
  density integrals
- exact zeros for single-mode fields (no closed triads)
- odd/even symmetry of both estimators under u -> -u
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

from nslab import dissipation
from nslab.dissipation import (
    DissipationError,
    analyze_widths,
    defect_cross_validate,
    defect_stress_strain,
    defect_structure_function,
    offsets_count,
    richardson_extrapolate,
    space_integral,
    structure_fields,
)
from nslab.filtering import (
    filtered_pairs,
    kernel_for,
    resolved_balance,
    reynolds_stress_hat,
    velocity_product_hat,
    velocity_products,
    width_schedule,
)
from nslab.solver import InitialCondition, make_initial, simulate
from nslab.spectral import VOLUME, Grid, dealias, gradient

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


def structure_density(grid, u_hat, delta):
    return defect_structure_function(
        grid, structure_fields(grid, u_hat, velocity_products(grid, u_hat)), delta
    )


def stress_density(grid, u_hat, delta):
    kernel = kernel_for(grid, delta)
    r_hat = reynolds_stress_hat(grid, kernel, u_hat, velocity_product_hat(grid, u_hat))
    return defect_stress_strain(grid, kernel.multiplier * u_hat, delta, r_hat)


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
    u = grid.inverse(dealias(grid, u_hat))
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
    """The correlation form against the offset-by-offset sum it replaces."""

    @pytest.mark.parametrize("n, cells", [(24, 8.0), (24, 4.0), (24, 2.0), (32, 16.0)])
    def test_pointwise(self, n, cells):
        """Random O(1) field; n=32 with 16 cells is delta = pi, 17070 offsets."""
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        delta = cells * g.h
        u_hat = g.forward(np.random.default_rng(n).standard_normal((3,) + g.shape))
        ref = direct_structure_density(g, u_hat, delta)
        fast = structure_density(g, u_hat, delta)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()


def reference_structure_density(grid, u_hat, delta):
    """The structure density as computed before its transforms were shared:
    all 27 transforms per call, grad(eta_delta) sampled each time."""
    u_hat = dealias(grid, u_hat)
    u = grid.inverse(u_hat)
    g_hat = 0.25 * VOLUME * np.conj(dissipation._kernel_gradient_hat(grid, delta))
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
    """The stress-strain density as computed before: the nine-component
    stress formed per call, all nine components back to real space."""
    kernel = kernel_for(grid, delta)
    u = grid.inverse(dealias(grid, u_hat))
    prod = np.einsum("ixyz,jxyz->ijxyz", u, u)
    filtered = kernel.multiplier * dealias(grid, grid.forward(prod))
    ubar = grid.inverse(kernel.multiplier * u_hat)
    resolved = np.einsum("ixyz,jxyz->ijxyz", ubar, ubar)
    stress = grid.inverse(filtered - grid.forward(resolved))
    grad_ub = grid.inverse(gradient(grid, kernel.multiplier * u_hat))
    return -np.einsum("ijxyz,ijxyz->xyz", stress, grad_ub)


class TestSharedTransforms:
    """Per-snapshot and per-width transforms shared across widths change no bit."""

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_densities_match_reference(self, n):
        g = Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-3, snapshot_stride=1)
        u_hat = g.forward(np.random.default_rng(n + 1).standard_normal((3,) + g.shape))
        fields = structure_fields(g, u_hat, velocity_products(g, u_hat))
        product_hat = velocity_product_hat(g, u_hat)
        for delta in width_schedule(g, np.pi, 3):
            structure = defect_structure_function(g, fields, delta)
            assert np.array_equal(structure, reference_structure_density(g, u_hat, delta))
            kernel = kernel_for(g, delta)
            r_hat = reynolds_stress_hat(g, kernel, u_hat, product_hat)
            stress = defect_stress_strain(g, kernel.multiplier * u_hat, delta, r_hat)
            assert np.array_equal(stress, reference_stress_density(g, u_hat, delta))

    def test_fields_from_shared_products(self, grid, trajectory):
        """The structure fields analyze forms from the pair loop's velocity
        products equal those formed from the snapshot alone, bit for bit."""
        j, k = np.triu_indices(3)
        snapshots = filtered_pairs(trajectory, [kernel_for(grid, np.pi)], structure_fields)
        for _, u_hat, fields, _ in snapshots:
            u = grid.inverse(dealias(grid, u_hat))
            pairs = u[j] * u[k]
            speed_sq = np.sum(pairs[j == k], axis=0)
            want = {
                "u_hat": dealias(grid, u_hat),
                "u": u,
                "pairs": pairs,
                "speed_sq": speed_sq,
                "pairs_hat": grid.forward(pairs)[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]],
                "cubic_hat": grid.forward(u * speed_sq),
                "speed_sq_hat": grid.forward(speed_sq),
            }
            for name, array in want.items():
                assert getattr(fields, name).tobytes() == array.tobytes(), name

    def test_analyze_transforms_per_snapshot_and_pair(self, grid, trajectory, monkeypatch):
        """With the per-width kernels cached, analyze_widths makes 4
        transform calls per snapshot (the velocity, the products u_j u_k
        that Pi and the structure fields share, u |u|^2 and |u|^2) and 8 per
        pair (the stress's 2, the structure density's 4 and the
        stress-strain density's 2)."""
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
        assert len(calls) == len(trajectory) * (4 + 8 * len(deltas))

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
        """Each series holds the space integrals of the per-pair densities
        bit for bit, at every width and snapshot."""
        _, defect = analyze_widths(trajectory, self.DELTAS)
        assert defect.deltas == (np.pi, np.pi / 2.0, np.pi / 4.0)
        assert defect.structure_series.shape == (3, len(trajectory))
        for w, delta in enumerate(defect.deltas):
            for density, series in (
                (structure_density, defect.structure_series),
                (stress_density, defect.stress_series),
            ):
                expected = np.array(
                    [
                        space_integral(grid, density(grid, u_hat, delta))
                        for u_hat in trajectory.u_hats
                    ]
                )
                assert np.array_equal(series[w], expected)

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
        value = space_integral(grid, structure_density(grid, triad_hat, delta))
        assert value == pytest.approx(ORACLE[delta]["structure"], rel=1e-12)

    @pytest.mark.parametrize("delta", [np.pi, np.pi / 2.0])
    def test_stress_strain(self, grid, triad_hat, delta):
        value = space_integral(grid, stress_density(grid, triad_hat, delta))
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
            s = space_integral(grid, structure_density(grid, u_hat, delta))
            t = space_integral(grid, stress_density(grid, u_hat, delta))
            assert abs(s) < 1e-12
            assert abs(t) < 1e-12


class TestSymmetries:
    def test_odd_under_negation(self, grid, triad_hat):
        """Both densities are cubic in u, hence odd: D(-u) = -D(u)."""
        delta = np.pi / 2.0
        s_plus = structure_density(grid, triad_hat, delta)
        s_minus = structure_density(grid, -triad_hat, delta)
        assert np.abs(s_plus + s_minus).max() < 1e-12 * np.abs(s_plus).max()
        t_plus = stress_density(grid, triad_hat, delta)
        t_minus = stress_density(grid, -triad_hat, delta)
        assert np.abs(t_plus + t_minus).max() < 1e-12 * np.abs(t_plus).max()

    def test_translation_invariance(self, grid, triad_hat):
        """Shifting the field moves the density but not its integral."""
        delta = np.pi / 2.0
        shifted = grid.forward(np.roll(grid.inverse(triad_hat), (3, 5, 1), axis=(1, 2, 3)))
        for estimator in (structure_density, stress_density):
            ref = space_integral(grid, estimator(grid, triad_hat, delta))
            moved = space_integral(grid, estimator(grid, shifted, delta))
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


class TestCrossValidation:
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
