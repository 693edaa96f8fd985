"""Acceptance suite: one test per criterion, one printed verdict line each.

The twelve criteria (tolerances in nslab.acceptance):

 1  spectral substrate identities        round trip, Parseval, projector,
                                         derivatives        <= 1e-11
 2  analytic-flow oracle                 Beltrami decay     <= 1e-6 rel
 3  global energy equality               ledger residual    <= 1e-6 rel
 4  resolved balance per width           budget residual    <= 1e-6 * E0
 5  dissipation-defect estimators        limits, orders >= 1.8, cross-gap
 6  closed form vs descent oracle        gap <= 1e-8, KKT <= 1e-10
 7  parallelogram identity               <= 1e-12 over 100 pairs
 8  Lagrange ratios                      interior + active  <= 1e-9
 9  Euler-Lagrange / Boussinesq          <= 1e-10 / 1e-9
10  weak-convergence trends              monotone, order > 0, final <= 1e-4
11  pipeline determinism                 byte-identical across thread counts
12  energy drop via the minimizer        <= 1e-6 rel

Shared runs are cached on the module-scoped lab, so the expensive artifacts
(the 32^3 analytic-flow run, the 64^3 defect-estimator run) are built once.
Run with `pytest tests/test_acceptance.py -s` to see every verdict line, or
use the `nslab verify` command which prints the same lines.

Known shortfall, reported honestly: criterion 10's magnitude clause
(final normalized |a| <= 1e-4) is a continuum-limit statement that the
finest kernel width admissible at 32^3 (delta = 2h = pi/8) cannot reach.
At every width of the schedule (pi, pi/2, pi/4, pi/8) the normalized
pairing is exactly |a| / (nu ||grad u|| ||psi||) = 0.0536 * (1 - m(1)),
where m(1) is the filter multiplier at |k| = 1 (lambda = 0 at each width).
At delta = pi/8, 1 - m(1) = 9.07e-3, so final |a| = 4.86e-4.  The bound
needs 1 - m(1) <= 1.9e-3, i.e. delta <~ pi/17.6, which delta >= 2h first
admits on an even grid at n >= 72.  Every other sub-clause of criterion 10
passes (the a-series decreases at order 1.88; the b-series is cancelled to
machine precision because the one-shell flow's subfilter stress divergence
is an exact gradient).  test_criterion_10_weak_convergence therefore
FAILS, and `nslab verify` prints the same single FAIL line.

Criterion 11 starts `python -m nslab` children in a scratch directory.
They import the same package as this process, whatever the cwd and even
with a relative PYTHONPATH, because the child environment puts the
absolute package root first (TestDeterminismSubprocess).
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

import nslab
from nslab import acceptance
from nslab.acceptance import BELTRAMI, AcceptanceLab, CriterionResult
from nslab.filtering import kernel_for
from nslab.spectral import Grid, trapezoid_weights


@pytest.fixture(scope="module")
def lab():
    return AcceptanceLab()


def check(result):
    line = (
        f"criterion {result.number:>2} {'PASS' if result.passed else 'FAIL'}  "
        f"{result.name:<28} [{result.seconds:7.1f}s]  {result.detail}"
    )
    print(line)
    assert result.passed, line


class TestCriteria:
    def test_criterion_01_spectral_substrate(self, lab):
        """Transform round trips, Parseval, Leray algebra and derivatives."""
        check(acceptance.criterion_1(lab))

    def test_criterion_02_analytic_flow(self, lab):
        """The integrated Beltrami flow tracks exp(-2 nu t) at every step."""
        check(acceptance.criterion_2(lab))

    def test_criterion_03_global_energy(self, lab):
        """E(t) + nu int ||grad u||^2 stays at E(0) on the shared run."""
        check(acceptance.criterion_3(lab))

    def test_criterion_04_resolved_balance(self, lab):
        """The filtered energy budget closes at every schedule width."""
        check(acceptance.criterion_4(lab))

    def test_criterion_05_defect_estimators(self, lab):
        """Both defect estimators extrapolate to zero at quadratic order
        and agree on the dissipation scale."""
        check(acceptance.criterion_5(lab))

    def test_criterion_06_minimizer_oracle(self, lab):
        """Closed form matches the descent oracle on ten manufactured
        fluxes spanning interior and active constraints."""
        check(acceptance.criterion_6(lab))

    def test_criterion_07_parallelogram(self, lab):
        """The quadratic functional satisfies the parallelogram identity."""
        check(acceptance.criterion_7(lab))

    def test_criterion_08_lagrange_ratio(self, lab):
        """Basket ratios reproduce 1 - 2 lambda in both regimes."""
        check(acceptance.criterion_8(lab))

    def test_criterion_09_euler_lagrange(self, lab):
        """Weak EL and divergence-tested stress residuals are round-off."""
        check(acceptance.criterion_9(lab))

    def test_criterion_10_weak_convergence(self, lab):
        """Width refinement shrinks the pairings monotonically with
        positive fitted order down to the normalized floor."""
        check(acceptance.criterion_10(lab))

    def test_criterion_11_determinism(self, lab):
        """Two pipeline runs under different thread counts emit
        byte-identical artifacts."""
        check(acceptance.criterion_11(lab))

    def test_criterion_12_energy_via_minimizer(self, lab):
        """The resolved energy drop is recovered from the minimizer pairing."""
        check(acceptance.criterion_12(lab))


def one_minus_m1(grid, delta):
    """1 - m(1): the filter's shortfall on the |k| = 1 shell (band row 1 of
    axis 0 is the mode (1, 0, 0))."""
    return 1.0 - float(kernel_for(grid, delta).multiplier[1, 0, 0])


class TestCriterion10Shortfall:
    """Criterion 10's |a| is the formula the module docstring states.

    The Beltrami flow's subfilter stress adds nothing to w and lambda = 0,
    so a_j = -nu (1 - m(1)) int s_j <grad u, grad psi_j> dt at every width.
    On the cached lab, with no new run: the normalized ratio
    |a_j| / (nu ||grad u|| ||grad psi_j|| (1 - m(1))) is the same at every
    width, and it is the direct basket pairing of grad u.
    """

    def test_ratio_is_width_independent_and_the_direct_pairing(self, lab):
        grid, weak = lab.beltrami.grid, lab.audit.weak
        shortfall = np.array([one_minus_m1(grid, delta) for delta in weak.deltas])
        norm = weak.grad_u_norm * weak.basket_norms
        ratio = np.abs(weak.a) / (grid.nu * norm * shortfall[:, None])
        assert np.all(np.abs(ratio - ratio[-1]) <= 1e-12 * ratio[-1])

        traj = lab.beltrami
        windows = np.stack([element.window(traj.times) for element in lab.basket], axis=1)
        weights = trapezoid_weights(traj.times)[:, None] * windows
        pairing = sum(w * lab.basket.pair_gradient(u_hat) for w, u_hat in zip(weights, traj.u_hats))
        direct = np.abs(pairing) / norm
        assert np.all(np.abs(ratio[-1] - direct) <= 1e-12 * direct)
        assert np.max(ratio[-1]) * shortfall[-1] == pytest.approx(weak.final_a_normalized, rel=1e-14)

        # The finest width delta >= 2h admits on a 72^3 grid, pi/18 (no run).
        fine = Grid(**dict(BELTRAMI, n=72))
        predicted = float(np.max(ratio[-1])) * one_minus_m1(fine, np.pi / 18.0)
        print(f"criterion 10 at n = 72, delta = pi/18: predicted final |a| {predicted:.3e}")
        assert predicted < 1e-4


class TestRunAll:
    """The aggregator prints one line per criterion plus the overall verdict."""

    def test_aggregation_and_stream(self, monkeypatch):
        def fake_pass(lab):
            return CriterionResult(1, "stub pass", True, "ok", 0.0)

        def fake_fail(lab):
            return CriterionResult(2, "stub fail", False, "bad", 0.0)

        monkeypatch.setattr(acceptance, "CRITERIA", (fake_pass, fake_fail))
        stream = io.StringIO()
        assert acceptance.run_all(stream=stream) is False
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("criterion  1 PASS")
        assert lines[1].startswith("criterion  2 FAIL")
        assert lines[2] == "overall: FAIL"

    def test_all_pass_returns_true(self, monkeypatch):
        def fake_pass(lab):
            return CriterionResult(3, "stub", True, "ok", 0.0)

        monkeypatch.setattr(acceptance, "CRITERIA", (fake_pass,))
        stream = io.StringIO()
        assert acceptance.run_all(stream=stream) is True
        assert stream.getvalue().splitlines()[-1] == "overall: PASS"


class TestManufacturedCases:
    """Criteria 8 and 9 read criterion 6's cases without its descent oracle."""

    def test_cached_without_oracle(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the manufactured cases must not run oracle_mp")

        monkeypatch.setattr(acceptance, "oracle_mp", no_oracle)
        lab = AcceptanceLab()
        basket, cases = lab.manufactured
        assert lab.manufactured[1] is cases
        assert len(cases) == 10
        assert {case["interior"] for case in cases} == {True, False}
        for case in cases:
            sol = case["solution"]
            assert sol.source == "closed_form"
            assert sol.constraint_active is not case["interior"]
        assert len(basket) == 8


class TestDeterminismSubprocess:
    """Criterion 11's children must import the nslab under test, from any cwd."""

    def test_child_imports_parent_package(self, monkeypatch, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(nslab.__file__)))
        # As under `PYTHONPATH=src pytest` from a checkout: relative to the cwd.
        monkeypatch.chdir(os.path.dirname(root))
        monkeypatch.setenv("PYTHONPATH", os.path.basename(root))
        env = acceptance._child_env(1, str(tmp_path))
        out = subprocess.run(
            [sys.executable, "-c", "import nslab; print(nslab.__file__)"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == os.path.abspath(nslab.__file__)

    def test_relative_workdir_made_absolute(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        calls = []

        def record(cfg_path, threads, cwd, out_root):
            calls.append((cfg_path, threads, cwd, out_root))
            run_dir = os.path.join(out_root, "run")
            os.makedirs(run_dir, exist_ok=True)
            return run_dir

        monkeypatch.setattr(acceptance, "_run_pipeline_subprocess", record)
        result = acceptance.criterion_11(None, workdir="relwd")
        assert [threads for _, threads, _, _ in calls] == [1, 4]
        for cfg_path, _, cwd, out_root in calls:
            assert os.path.isabs(cfg_path) and os.path.isfile(cfg_path)
            assert os.path.isabs(cwd) and os.path.isabs(out_root)
            assert os.path.samefile(os.path.dirname(cfg_path), tmp_path / "relwd")
        assert result.passed, result.detail
