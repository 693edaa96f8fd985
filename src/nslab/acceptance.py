"""Built-in acceptance suite: twelve pass/fail criteria over shared runs.

Criteria, tolerances and runtime budgets:

 1  spectral substrate identities              <= 1e-11
 2  Beltrami decay vs exp(-2 nu t)             <= 1e-6 relative
 3  global energy equality                     <= 1e-6 relative
 4  resolved balance, every width              <= 1e-6 * E0
 5  dissipation-defect estimators              limits <= 1e-6 * total
    (tiny-amplitude random-band run)           dissipation, order >= 1.8,
                                               cross-gap <= 10%
 6  closed form vs descent oracle              <= 1e-8 on 10 manufactured
                                               fluxes, KKT <= 1e-10
 7  parallelogram identity                     <= 1e-12, 100 pairs
 8  Lagrange ratios (interior + active)        <= 1e-9
 9  Euler-Lagrange / Boussinesq residuals      <= 1e-10 / 1e-9
10  weak-convergence trends                    monotone, positive order,
                                               final <= 1e-4 normalized
11  pipeline determinism                       byte-identical reruns across
                                               thread counts
12  resolved energy drop via the minimizer     <= 1e-6 relative

The expensive artifacts (the 32^3 Beltrami run and its per-width solutions)
are computed once and shared.  Each criterion prints one line; run_all
returns True only if every criterion passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time as time_mod
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basket import build_basket
from .dissipation import defect_cross_validate
from .filtering import kernel_for, resolved_balance
from .minimizer import (
    FluxField,
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
from .solver import InitialCondition, make_initial, simulate
from .spectral import (
    Grid,
    curl,
    dealias,
    divergence,
    gradient,
    grid_inner_product,
    inner_product,
    leray_project,
    norm_sq,
    random_divergence_free,
    width_schedule,
)

BELTRAMI = {"n": 32, "nu": 0.1, "dt": 1e-3, "t_end": 1.0, "snapshot_stride": 10}
BELTRAMI_DELTA0 = np.pi
BELTRAMI_COUNT = 4

# Criterion 5 runs on a tiny-amplitude single-shell random field so the
# subfilter transfer is nonzero (symmetric benchmark flows have exactly zero
# odd structure statistics) but concentrated at low wavenumbers, where the
# delta^2 scaling window of both estimators is actually reachable: with
# content in shells up to k the fitted order degrades once k*delta leaves the
# quadratic regime, and mixed-shell bands scramble the fit entirely.  The
# finer 64^3 grid exists solely to resolve the pi/16 width (kernels need
# delta >= 2h); the schedule [pi/4, pi/8, pi/16] then sits inside the
# asymptotic window for k = 1 content.
CASCADE = {"n": 64, "nu": 0.1, "dt": 2e-3, "t_end": 0.5, "snapshot_stride": 25}
CASCADE_INIT = {"amplitude": 1e-5, "seed": 1, "slope": -3.0, "k_min": 1, "k_max": 1}
CASCADE_DELTA0 = np.pi / 4.0
CASCADE_COUNT = 3


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


class AcceptanceLab:
    """Caches the shared runs, the per-width audit and the manufactured cases."""

    @cached_property
    def beltrami(self):
        grid = Grid(**BELTRAMI)
        u0 = make_initial(grid, InitialCondition(kind="beltrami_abc"))
        return simulate(grid, u0)

    @property
    def beltrami_schedule(self):
        return width_schedule(self.beltrami.grid, BELTRAMI_DELTA0, BELTRAMI_COUNT)

    @cached_property
    def cascade(self):
        grid = Grid(**CASCADE)
        u0 = make_initial(grid, InitialCondition(kind="random_band", **CASCADE_INIT))
        return simulate(grid, u0)

    @cached_property
    def basket(self):
        return build_basket(self.beltrami.grid, t_end=BELTRAMI["t_end"])

    @cached_property
    def audit(self):
        """Minimizer audit of the Beltrami run at every schedule width.

        The finest b = P div J, from which the finest v* derives, is
        dropped: at 101 snapshots it holds tens of MB that no criterion reads.
        """
        traj = self.beltrami
        report = audit_widths(traj, self.beltrami_schedule, self.basket, default_radius_sq(traj))
        return replace(report, rhs=None)

    @cached_property
    def manufactured(self):
        """(basket, cases): ten manufactured fluxes with closed-form solutions,
        checked by criterion 6's oracle and paired by criteria 8 and 9.  The
        fluxes live on the grid's two-thirds band, like every field the
        basket pairs with; a case's "grid" is that layout, grid.band."""
        grid = Grid(n=16, nu=0.05, dt=0.1, t_end=1.0, snapshot_stride=1)
        band = grid.band
        times = np.linspace(0.0, 1.0, 5)
        basket = build_basket(grid, t_end=1.0, seed=515, size=8, max_mode=2)
        cases = []
        for case in range(10):
            rng = np.random.default_rng(100 + case)
            profile = random_divergence_free(band, rng, max_k_sq=9, amplitude=1.0)
            svals = 1.0 + 0.5 * np.sin(2.0 * np.pi * times + rng.uniform(0.0, 2.0 * np.pi))
            scale = rng.uniform(0.5, 2.0)
            flux = make_gradient_flux(band, times, profile, svals, scale)
            w_exact = np.stack([scale * s * profile for s in svals])
            big_w = enstrophy_integral(band, times, w_exact)
            interior = case % 2 == 0
            radius_sq = 2.0 * big_w if interior else 0.25 * big_w
            cases.append(
                {
                    "grid": band,
                    "times": times,
                    "flux": flux,
                    "w_exact": w_exact,
                    "big_w": big_w,
                    "radius_sq": radius_sq,
                    "interior": interior,
                    "seed": 1000 + case,
                    "solution": solve_mp(flux, radius_sq),
                }
            )
        return basket, cases


def _result(number, name, passed, detail, t0):
    return CriterionResult(number, name, bool(passed), detail, time_mod.time() - t0)


def criterion_1(lab):
    t0 = time_mod.time()
    grid = Grid(n=32, nu=0.1, dt=1e-3, t_end=1e-3, snapshot_stride=1)
    rng = np.random.default_rng(42)
    worst = 0.0

    f = rng.standard_normal(grid.shape)
    back = grid.inverse(grid.forward(f))
    worst = max(worst, float(np.max(np.abs(back - f)) / np.max(np.abs(f))))

    f_hat = grid.forward(f)
    worst = max(
        worst,
        abs(grid_inner_product(grid, f, f) - norm_sq(grid, f_hat))
        / grid_inner_product(grid, f, f),
    )

    v_hat = grid.forward(rng.standard_normal((3,) + grid.shape))
    g_hat = grid.forward(rng.standard_normal((3,) + grid.shape))
    pv = leray_project(grid, v_hat)
    worst = max(
        worst,
        float(np.max(np.abs(leray_project(grid, pv) - pv)) / np.max(np.abs(pv))),
    )
    sym_gap = abs(
        inner_product(grid, pv, g_hat) - inner_product(grid, v_hat, leray_project(grid, g_hat))
    )
    worst = max(worst, sym_gap / abs(inner_product(grid, pv, g_hat)))

    x1, x2 = grid.x[0], grid.x[1]
    s_hat = grid.forward(np.sin(x1) + np.cos(2 * x2))
    grad = grid.inverse(gradient(grid, s_hat))
    worst = max(worst, float(np.max(np.abs(grad[0] - np.cos(x1)))))
    worst = max(worst, float(np.max(np.abs(grad[1] + 2 * np.sin(2 * x2)))))
    w_hat = dealias(grid, grid.forward(rng.standard_normal((3,) + grid.shape)))
    dcurl = divergence(grid, curl(grid, w_hat))
    worst = max(worst, float(np.max(np.abs(dcurl)) / np.max(np.abs(w_hat))))

    return _result(
        1, "spectral substrate", worst <= 1e-11, f"max identity residual {worst:.2e} (tol 1e-11)", t0
    )


def criterion_2(lab):
    t0 = time_mod.time()
    traj = lab.beltrami
    e0 = traj.initial_energy
    steps = np.arange(len(traj.step_energies))
    expected = e0 * np.exp(-2.0 * traj.grid.nu * steps * traj.grid.dt)
    err = float(np.max(np.abs(traj.step_energies - expected)) / e0)
    return _result(
        2, "analytic-flow oracle", err <= 1e-6, f"max rel energy error {err:.2e} (tol 1e-6)", t0
    )


def criterion_3(lab):
    t0 = time_mod.time()
    traj = lab.beltrami
    res = float(np.max(traj.global_energy_residuals()) / traj.initial_energy)
    return _result(
        3, "global energy equality", res <= 1e-6, f"max rel residual {res:.2e} (tol 1e-6)", t0
    )


def criterion_4(lab):
    t0 = time_mod.time()
    traj = lab.beltrami
    schedule = lab.beltrami_schedule
    residuals = [resolved_balance(traj, kernel_for(traj.grid, d)).residual for d in schedule]
    worst = max(residuals) / traj.initial_energy
    return _result(
        4,
        "resolved balance per width",
        worst <= 1e-6,
        f"max residual {worst:.2e} * E0 over {len(schedule)} widths (tol 1e-6)",
        t0,
    )


def criterion_5(lab):
    # The shared 64^3 simulation is built first and timed apart, so the
    # criterion's seconds are the estimators' own.
    t_sim = time_mod.time()
    traj = lab.cascade
    t0 = time_mod.time()
    schedule = width_schedule(traj.grid, CASCADE_DELTA0, CASCADE_COUNT)
    report = defect_cross_validate(traj, schedule)
    scale = report.dissipation_scale
    lim_s = abs(report.structure_fit.limit) / scale
    lim_t = abs(report.stress_fit.limit) / scale
    ok = (
        lim_s <= 1e-6
        and lim_t <= 1e-6
        and report.structure_fit.order >= 1.8
        and report.stress_fit.order >= 1.8
        and report.gap_dissipation <= 0.10
    )
    detail = (
        f"limits {lim_s:.2e}/{lim_t:.2e} (tol 1e-6), "
        f"orders {report.structure_fit.order:.2f}/{report.stress_fit.order:.2f} (>=1.8), "
        f"gap {report.gap_dissipation:.2e} (<=0.1); "
        f"64^3 simulation {t0 - t_sim:.1f}s not counted"
    )
    return _result(5, "dissipation-defect estimators", ok, detail, t0)


def criterion_6(lab):
    t0 = time_mod.time()
    _, cases = lab.manufactured
    worst_gap = 0.0
    worst_spread = 0.0
    worst_kkt = 0.0
    all_converged = True
    closed_ok = True
    for case in cases:
        grid, flux, radius_sq, sol = case["grid"], case["flux"], case["radius_sq"], case["solution"]
        if case["interior"]:
            gap_exact = enstrophy_integral(grid, case["times"], sol.v_hats - case["w_exact"])
            closed_ok &= gap_exact <= 1e-20 * case["big_w"] and sol.lam == 0.0
        else:
            closed_ok &= abs(sol.enstrophy_used - radius_sq) <= 1e-12 * radius_sq
            s_exact = np.sqrt(case["big_w"] / radius_sq)
            closed_ok &= abs(sol.one_minus_two_lambda - s_exact) <= 1e-12 * s_exact
        rhs = flux.poisson_rhs()
        osol = oracle_mp(grid, flux.times, rhs, radius_sq, iters=30000, seed=case["seed"], starts=3)
        worst_gap = max(worst_gap, solution_gap(grid, case["times"], osol, sol))
        worst_spread = max(worst_spread, osol.start_spread)
        worst_kkt = max(worst_kkt, kkt_report(osol)["complementarity"] / radius_sq)
        worst_kkt = max(worst_kkt, kkt_report(sol)["complementarity"] / radius_sq)
        all_converged &= osol.converged
        all_converged &= osol.k_value >= sol.k_value - 1e-10 * max(1.0, abs(sol.k_value))
    ok = (
        closed_ok
        and all_converged
        and worst_gap <= 1e-8
        and worst_spread <= 1e-8
        and worst_kkt <= 1e-10
    )
    detail = (
        f"{len(cases)} fluxes: oracle gap {worst_gap:.2e} (<=1e-8), "
        f"spread {worst_spread:.2e} (<=1e-8), KKT {worst_kkt:.2e} (<=1e-10), "
        f"converged={all_converged}, closed-form exact={closed_ok}"
    )
    return _result(6, "minimizer vs oracle", ok, detail, t0)


def criterion_7(lab):
    t0 = time_mod.time()
    grid = Grid(n=16, nu=0.05, dt=0.1, t_end=1.0, snapshot_stride=1)
    times = np.array([0.0, 0.5, 1.0])
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        j_hats = np.stack(
            [grid.forward(rng.standard_normal((3, 3) + grid.shape)) for _ in times]
        )
        flux = FluxField(grid, times, j_hats)
        v = np.stack(
            [random_divergence_free(grid, rng, max_k_sq=16, amplitude=1.0) for _ in times]
        )
        w = np.stack(
            [random_divergence_free(grid, rng, max_k_sq=16, amplitude=1.0) for _ in times]
        )
        lhs = 0.125 * enstrophy_integral(grid, times, v - w)
        kv, kw = k_functional(flux, v), k_functional(flux, w)
        rhs = 0.5 * kv + 0.5 * kw - k_functional(flux, 0.5 * (v + w))
        scale = max(1.0, abs(kv), abs(kw), lhs)
        worst = max(worst, abs(lhs - rhs) / scale)
    return _result(
        7,
        "parallelogram identity",
        worst <= 1e-12,
        f"max residual {worst:.2e} over 100 pairs (tol 1e-12)",
        t0,
    )


def criterion_8(lab):
    t0 = time_mod.time()
    widths = lab.audit.widths
    interior_dev = max(w.lagrange["max_deviation"] for w in widths)
    interior_all = all(not w.solution.constraint_active for w in widths)
    basket, cases = lab.manufactured
    active_dev = 0.0
    saw_active = False
    for case in cases:
        if not case["interior"]:
            saw_active = True
            pairing = pair_basket(case["solution"], case["flux"], basket)
            dev = lagrange_ratio(pairing)["max_deviation"]
            active_dev = max(active_dev, dev)
    ok = interior_all and saw_active and interior_dev <= 1e-9 and active_dev <= 1e-9
    detail = (
        f"interior dev {interior_dev:.2e}, active dev {active_dev:.2e} (tol 1e-9, "
        f"interior widths={interior_all}, active cases={saw_active})"
    )
    return _result(8, "Lagrange ratio", ok, detail, t0)


def criterion_9(lab):
    t0 = time_mod.time()
    el_width = max(w.el["max"] for w in lab.audit.widths)
    bq_width = max(w.boussinesq.el_form_max for w in lab.audit.widths)
    basket, cases = lab.manufactured
    el_manu = 0.0
    for case in cases:
        pairing = pair_basket(case["solution"], case["flux"], basket)
        el_manu = max(el_manu, el_residual(pairing)["max"])
    ok = el_width <= 1e-10 and el_manu <= 1e-10 and bq_width <= 1e-9
    detail = (
        f"EL residual {max(el_width, el_manu):.2e} (<=1e-10), "
        f"divergence-tested Boussinesq {bq_width:.2e} (<=1e-9)"
    )
    return _result(9, "Euler-Lagrange residual", ok, detail, t0)


def criterion_10(lab):
    t0 = time_mod.time()
    report = lab.audit.weak
    # A series cancelled to machine precision has already reached its limit of
    # zero; demanding a strict decrease of its round-off residue is vacuous.
    trend_a = report.a_at_floor or (report.monotone_a and float(np.min(report.order_a)) > 0.0)
    trend_b = report.b_at_floor or (report.monotone_b and float(np.min(report.order_b)) > 0.0)
    ok = trend_a and trend_b and report.final_a_normalized <= 1e-4
    a_part = (
        "a at cancellation floor"
        if report.a_at_floor
        else f"a monotone {report.monotone_a}, order {np.min(report.order_a):.2f}"
    )
    b_part = (
        "b at cancellation floor"
        if report.b_at_floor
        else f"b monotone {report.monotone_b}, order {np.min(report.order_b):.2f}"
    )
    detail = f"{a_part}; {b_part}; final |a| {report.final_a_normalized:.2e} (<=1e-4)"
    return _result(10, "weak-convergence trends", ok, detail, t0)


# The directory that holds this nslab package (``<root>/nslab/acceptance.py``).
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _determinism_config(out_dir):
    return {
        "grid": {"n": 16, "nu": 0.08, "dt": 5e-3, "t_end": 0.05, "snapshot_stride": 2},
        "init": {
            "kind": "random_band",
            "amplitude": 0.8,
            "seed": 21,
            "slope": -2.0,
            "k_min": 1,
            "k_max": 3,
        },
        "filters": {"delta0": float(np.pi), "count": 3},
        "minimizer": {"oracle": {"iters": 400, "starts": 2, "seed": 5}},
        "basket": {"seed": 77, "size": 6, "max_mode": 2},
        "output": {"dir": out_dir},
    }


def _child_env(threads, out_root):
    """Environment for a pipeline child that imports this very nslab.

    The package root goes first on ``PYTHONPATH`` as an absolute path: an
    inherited relative entry (``PYTHONPATH=src``) means nothing in the
    child's working directory, and an installed copy must not shadow the
    code under test.  The other inherited entries are kept after it.
    """
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["NSLAB_OUT"] = out_root
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([_PACKAGE_ROOT, *inherited])
    return env


def _run_pipeline_subprocess(cfg_path, threads, cwd, out_root):
    env = _child_env(threads, out_root)
    out = subprocess.run(
        [sys.executable, "-m", "nslab", "simulate", "--config", cfg_path],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    run_dir = out.stdout.strip().splitlines()[-1]
    for stage in (["analyze", run_dir], ["minimize", run_dir, "--oracle"], ["report", run_dir]):
        subprocess.run(
            [sys.executable, "-m", "nslab", *stage],
            check=True,
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )
    return run_dir if os.path.isabs(run_dir) else os.path.join(cwd, run_dir)


def _dir_fingerprint(root):
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                files[rel] = fh.read()
    return files


def criterion_11(lab, workdir=None):
    t0 = time_mod.time()
    made_tmp = not workdir
    # Absolute, because every stage runs with this directory as its cwd.
    tmp = tempfile.mkdtemp(prefix="nslab-verify-") if made_tmp else os.path.abspath(workdir)
    try:
        os.makedirs(tmp, exist_ok=True)
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(_determinism_config("det"), fh, indent=2, sort_keys=True)
        results = []
        for tag, threads in (("a", 1), ("b", 4)):
            out_root = os.path.join(tmp, tag)
            os.makedirs(out_root, exist_ok=True)
            run_dir = _run_pipeline_subprocess(cfg_path, threads, tmp, out_root)
            results.append(_dir_fingerprint(run_dir))
        same_names = set(results[0]) == set(results[1])
        diffs = [k for k in results[0] if same_names and results[0][k] != results[1][k]]
        ok = same_names and not diffs
        detail = (
            f"{len(results[0])} artifacts byte-identical across thread counts"
            if ok
            else f"mismatch: names_equal={same_names}, differing={diffs[:4]}"
        )
    except subprocess.CalledProcessError as exc:
        ok = False
        tail = (exc.stderr or "").strip().splitlines()
        detail = f"pipeline subprocess failed: {tail[-1] if tail else exc}"
    finally:
        if made_tmp:
            shutil.rmtree(tmp, ignore_errors=True)
    return _result(11, "pipeline determinism", ok, detail, t0)


def criterion_12(lab):
    t0 = time_mod.time()
    e0 = lab.beltrami.initial_energy
    worst = max(w.energy_drop["residual"] for w in lab.audit.widths) / e0
    return _result(
        12,
        "energy drop via minimizer",
        worst <= 1e-6,
        f"max rel residual {worst:.2e} over widths (tol 1e-6)",
        t0,
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(workdir=None, stream=None):
    stream = stream or sys.stdout
    lab = AcceptanceLab()
    all_ok = True
    for crit in CRITERIA:
        if crit is criterion_11:
            result = crit(lab, workdir=workdir)
        else:
            result = crit(lab)
        all_ok &= result.passed
        status = "PASS" if result.passed else "FAIL"
        print(
            f"criterion {result.number:>2} {status}  {result.name:<28} "
            f"[{result.seconds:7.1f}s]  {result.detail}",
            file=stream,
        )
    print("overall: " + ("PASS" if all_ok else "FAIL"), file=stream)
    return bool(all_ok)
