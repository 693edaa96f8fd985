"""Staged experiment pipeline over an on-disk run directory.

    simulate --config cfg.json   ->  run_dir/{config.json, run.json,
                                      snapshots/, energy_time.csv}
    analyze  run_dir             ->  width_ledger.csv, analysis.json
    minimize run_dir [--oracle]  ->  minimize.json, minimizer/, ledger update
    report   run_dir             ->  report/{summary.json, summary.txt, *.dat}

Each stage reads only what earlier stages wrote, so any stage can be re-run;
re-running writes byte-identical artifacts (nothing time- or host-dependent
is ever persisted).  A lock file naming the writer's pid guards against
concurrent writers.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import snapshots as snap_mod
from .config import load_config
from .config import dump_config
from .dissipation import analyze_widths
from .ledger import (
    LedgerError,
    atomic_open,
    read_ledger,
    read_width_ledger,
    write_time_ledger,
    write_width_ledger,
)
from .minimizer import _fit_order, audit_widths, default_radius_sq
from .minimizer import oracle_mp, solution_gap
from .solver import BlowUpError, Trajectory, make_initial, simulate

LOCK_NAME = ".lock"
STAGES = ("simulate", "analyze", "minimize", "report")


class PipelineError(RuntimeError):
    """A run directory in the wrong state for the requested stage."""


class RunPaths:
    def __init__(self, run_dir):
        self.run_dir = str(run_dir)
        self.config = os.path.join(run_dir, "config.json")
        self.state = os.path.join(run_dir, "run.json")
        self.snapshots = os.path.join(run_dir, "snapshots")
        self.time_ledger = os.path.join(run_dir, "energy_time.csv")
        self.width_ledger = os.path.join(run_dir, "width_ledger.csv")
        self.analysis = os.path.join(run_dir, "analysis.json")
        self.minimize = os.path.join(run_dir, "minimize.json")
        self.minimizer_dir = os.path.join(run_dir, "minimizer")
        self.report_dir = os.path.join(run_dir, "report")
        self.lock = os.path.join(run_dir, LOCK_NAME)


@contextlib.contextmanager
def run_lock(paths):
    """Hold the run directory's lock file, which names this process's pid.

    A lock naming a pid that no longer runs was left by a crashed stage: it
    is reported on stderr and taken over.  A live pid, or a lock without a
    pid, refuses the stage.
    """
    if not _create_lock(paths.lock):
        holder = _lock_pid(paths.lock)
        if holder is None or _pid_alive(holder) or not _take_stale_lock(paths, holder):
            raise PipelineError(
                f"{paths.run_dir}: locked by another writer (remove stale {LOCK_NAME} if none)"
            )
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(paths.lock)


def _create_lock(path):
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(f"{os.getpid()}\n")
    return True


def _lock_pid(path):
    """The positive pid a lock file names, else None (missing, empty, garbled)."""
    try:
        with open(path, "rb") as fh:
            pid = int(fh.read(32).strip() or b"0")
    except (FileNotFoundError, ValueError):
        return None
    return pid if pid > 0 else None


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # running, owned by another user
        pass
    return True


def _take_stale_lock(paths, dead_pid):
    # Move the stale lock aside atomically, so that of two stages taking it
    # over only one succeeds; a lock that turns out to be a fresh one written
    # since it was read is linked back in place.
    aside = f"{paths.lock}.{os.getpid()}"
    try:
        os.rename(paths.lock, aside)
    except FileNotFoundError:
        return _create_lock(paths.lock)
    try:
        if _lock_pid(aside) != dead_pid:
            with contextlib.suppress(FileExistsError):
                os.link(aside, paths.lock)
            return False
    finally:
        os.unlink(aside)
    print(
        f"{paths.run_dir}: taking over stale {LOCK_NAME} of pid {dead_pid}, which is not running",
        file=sys.stderr,
    )
    return _create_lock(paths.lock)


def _write_json(path, obj):
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise LedgerError(f"{path}: invalid JSON ({exc})") from None


def _load_state(paths):
    if not os.path.exists(paths.state):
        return {"status": "new", "stages": {}}
    state = _read_json(paths.state)
    if not isinstance(state, dict) or not isinstance(state.get("stages"), dict):
        raise LedgerError(f"{paths.state}: not a run record (an object with a 'stages' object)")
    return state


def _forget_stages(paths, state, stage):
    """Unmark `stage` and every stage after it before `stage` rewrites its
    artifacts, which the later stages read.

    In an in-order run there is nothing to unmark and run.json is untouched.
    """
    stages = state["stages"]
    forgotten = [name for name in STAGES[STAGES.index(stage) :] if name in stages]
    for name in forgotten:
        del stages[name]
    if forgotten:
        _write_json(paths.state, state)


def _require_stage(state, stage, run_dir):
    if not state.get("stages", {}).get(stage, False):
        raise PipelineError(f"{run_dir}: missing stage '{stage}' (run it first)")


def _require_run_dir(paths):
    if not os.path.isdir(paths.run_dir) or not os.path.exists(paths.config):
        raise PipelineError(f"{paths.run_dir}: not a run directory (no config.json)")


@contextlib.contextmanager
def _stage(run_dir, stage):
    """Frame of a stage after simulate; yields the run's RunPaths.

    Under the run lock it reads run.json, requires every earlier stage and
    an 'ok' run, and unmarks `stage` and every later stage; when the body
    returns it marks `stage`.  So the body reads the run only while it holds
    the lock, and a failed body leaves `stage` unmarked.
    """
    paths = RunPaths(run_dir)
    _require_run_dir(paths)
    with run_lock(paths):
        state = _load_state(paths)
        for earlier in STAGES[: STAGES.index(stage)]:
            _require_stage(state, earlier, run_dir)
        if state.get("status") != "ok":
            raise PipelineError(f"{run_dir}: cannot {stage} a '{state.get('status')}' run")
        _forget_stages(paths, state, stage)
        yield paths
        state["stages"][stage] = True
        _write_json(paths.state, state)


def cmd_simulate(config_path, output_root=None):
    """Run the solver for a config; returns the run directory.

    On blow-up every artifact produced so far (snapshots up to the failure,
    time ledger, config echo) is kept, run.json records the failure, and the
    BlowUpError propagates so callers exit nonzero.
    """
    cfg = load_config(config_path)
    run_dir = cfg.resolve_output_dir(output_root)
    paths = RunPaths(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    with run_lock(paths):
        grid = cfg.make_grid()
        u0 = make_initial(grid, cfg.make_initial_condition())
        status = "ok"
        failure = None
        try:
            traj = simulate(grid, u0)
        except BlowUpError as exc:
            traj = exc.partial
            status = "blow_up"
            failure = exc

        _forget_stages(paths, _load_state(paths), "simulate")
        snap_mod.write_series(paths.snapshots, grid, traj.times, traj.u_hats)
        write_time_ledger(
            paths.time_ledger,
            traj.times,
            traj.energies,
            traj.dissipation,
            traj.global_energy_residuals(),
        )
        dump_config(cfg, paths.config)
        state = {
            "status": status,
            "stages": {"simulate": True},
            "snapshot_count": len(traj),
            "steps": grid.steps,
        }
        if failure is not None:
            state["blow_up_time"] = failure.time
            state["blow_up_step"] = failure.step
        _write_json(paths.state, state)
    if failure is not None:
        raise failure
    return run_dir


def load_run(run_dir):
    """Rebuild (config, grid, trajectory) from a run directory.

    The snapshots are checked by snapshots.read_series; every cell of the
    time ledger must be finite, and the ledger's times those of the snapshots.
    """
    paths = RunPaths(run_dir)
    _require_run_dir(paths)
    cfg = load_config(paths.config)
    grid = cfg.make_grid()
    times, u_hats = snap_mod.read_series(paths.snapshots, grid)
    columns, data = read_ledger(paths.time_ledger)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise LedgerError(
            f"{paths.time_ledger}: non-finite {columns[col]} {float(data[row, col])} in row {row}"
        )
    if data.shape[0] != len(times) or not np.all(np.abs(data[:, 0] - times) <= 1e-12):
        detail = f"{columns[0]} column: {data.shape[0]} rows, {len(times)} snapshots"
        raise LedgerError(f"{paths.time_ledger}: disagrees with the snapshots ({detail})")
    traj = Trajectory(
        grid=grid,
        times=times,
        u_hats=u_hats,
        energies=data[:, 1],
        dissipation=data[:, 2],
    )
    return cfg, grid, traj


def cmd_analyze(run_dir):
    """Coarse-graining budgets and dissipation-defect estimates per width."""
    with _stage(run_dir, "analyze") as paths:
        cfg, grid, traj = load_run(run_dir)
        schedule = cfg.make_schedule(grid)
        balances, defect = analyze_widths(traj, schedule)
        rows = []
        balance_rows = []
        for rep, structure, stress in zip(balances, defect.structure, defect.stress):
            balance_rows.append(
                {
                    "delta": rep.delta,
                    "resolved_lhs": rep.energy_drop,
                    "resolved_viscous": rep.viscous,
                    "resolved_flux": rep.stress_flux,
                    "resolved_residual": rep.residual,
                    "stress_norm": rep.stress_norm,
                }
            )
            rows.append(dict(balance_rows[-1], defect_structure=structure, defect_stress=stress))
        defect_summary = {
            "deltas": list(defect.deltas),
            "structure": list(defect.structure),
            "stress": list(defect.stress),
            "structure_order": defect.structure_fit.order,
            "structure_limit": defect.structure_fit.limit,
            "stress_order": defect.stress_fit.order,
            "stress_limit": defect.stress_fit.limit,
            "gap_rel": defect.gap_rel,
            "gap_dissipation": defect.gap_dissipation,
            "dissipation_scale": defect.dissipation_scale,
        }

        write_width_ledger(paths.width_ledger, rows)
        analysis = {
            "schedule": list(schedule),
            "initial_energy": traj.initial_energy,
            "total_dissipation": float(traj.dissipation[-1]),
            "global_residual_max": float(np.max(traj.global_energy_residuals())),
            "balance": balance_rows,
            "defect": defect_summary,
        }
        _write_json(paths.analysis, analysis)
    return run_dir


def cmd_minimize(run_dir, oracle=False):
    """Solve the constrained minimization per width and audit its identities."""
    with _stage(run_dir, "minimize") as paths:
        cfg, grid, traj = load_run(run_dir)
        schedule = cfg.make_schedule(grid)
        basket = cfg.make_basket(grid)
        radius_sq = cfg.minimizer["radius_override"]
        if radius_sq is None:
            radius_sq = default_radius_sq(traj)
        audit = audit_widths(traj, schedule, basket, radius_sq)
        weak = audit.weak
        records = []
        for width in audit.widths:
            sol, bq, drop = width.solution, width.boussinesq, width.energy_drop
            records.append(
                {
                    "delta": width.delta,
                    "lambda": sol.lam,
                    "one_minus_two_lambda": sol.one_minus_two_lambda,
                    "enstrophy_used": sol.enstrophy_used,
                    "radius_sq": sol.radius_sq,
                    "k_value": sol.k_value,
                    "constraint_active": sol.constraint_active,
                    "lagrange_max_deviation": width.lagrange["max_deviation"],
                    "el_residual_max": width.el["max"],
                    "boussinesq_el_max": bq.el_form_max,
                    "boussinesq_model_max": bq.model_form_max,
                    "boussinesq_pointwise_ratio": bq.pointwise_ratio,
                    "energy_drop_lhs": drop["lhs"],
                    "energy_drop_rhs": drop["rhs"],
                    "energy_drop_residual": drop["residual"],
                }
            )

        oracle_record = None
        if oracle:
            osol = oracle_mp(grid, traj.times, audit.rhs, radius_sq, **cfg.minimizer["oracle"])
            v_star = np.stack([audit.v_star(i) for i in range(len(traj))])
            oracle_record = {
                "delta": schedule[-1],
                "gap": solution_gap(
                    grid, traj.times, osol, replace(audit.solution, v_hats=v_star)
                ),
                "k_value": osol.k_value,
                "k_value_closed_form": audit.solution.k_value,
                "lambda": osol.lam,
                "converged": osol.converged,
                "iterations": osol.iterations,
                "grad_norm": osol.grad_norm,
                "grad_norm_ref": osol.grad_norm_ref,
                "start_spread": osol.start_spread,
            }

        # The finest-width minimizer as a snapshot series, plus its record.
        snap_mod.write_series(
            paths.minimizer_dir, grid, traj.times, (audit.v_star(i) for i in range(len(traj)))
        )
        sidecar = {
            "delta": schedule[-1],
            "lambda": audit.solution.lam,
            "one_minus_two_lambda": audit.solution.one_minus_two_lambda,
            "enstrophy_used": audit.solution.enstrophy_used,
            "radius_sq": audit.solution.radius_sq,
            "k_value": audit.solution.k_value,
            "constraint_active": audit.solution.constraint_active,
        }
        _write_json(os.path.join(paths.minimizer_dir, "solution.json"), sidecar)

        minimize = {
            "radius_sq": radius_sq,
            "records": records,
            "weak_convergence": {
                "deltas": list(weak.deltas),
                "a": weak.a.tolist(),
                "b": weak.b.tolist(),
                "order_a": weak.order_a.tolist(),
                "order_b": weak.order_b.tolist(),
                "monotone_a": weak.monotone_a,
                "monotone_b": weak.monotone_b,
                "a_at_floor": weak.a_at_floor,
                "b_at_floor": weak.b_at_floor,
                "enstrophy": list(weak.enstrophy),
                "final_a_normalized": weak.final_a_normalized,
                "grad_u_norm": weak.grad_u_norm,
                "basket_norms": weak.basket_norms.tolist(),
            },
            "stress_limit": audit.stress_limit,
            "oracle": oracle_record,
        }
        _write_json(paths.minimize, minimize)

        # Fold the minimizer quantities into the width ledger.
        rows = read_width_ledger(paths.width_ledger)
        by_delta = {row["delta"]: row for row in rows}
        max_a = np.max(np.abs(weak.a), axis=1)
        max_b = np.max(np.abs(weak.b), axis=1)
        for w, rec in enumerate(records):
            row = by_delta[rec["delta"]]
            row["lambda"] = rec["lambda"]
            row["one_minus_two_lambda"] = rec["one_minus_two_lambda"]
            row["enstrophy_used"] = rec["enstrophy_used"]
            row["k_value"] = rec["k_value"]
            row["basket_max_a"] = float(max_a[w])
            row["basket_max_b"] = float(max_b[w])
            row["boussinesq_el_residual"] = rec["boussinesq_el_max"]
            row["energy_drop_residual"] = rec["energy_drop_residual"]
        for limit_row in audit.stress_limit["rows"]:
            row = by_delta[limit_row["delta"]]
            row["limit_stress_vstar"] = limit_row["stress_vstar"]
            row["limit_stress_gradu"] = limit_row["stress_gradu"]
            row["limit_gradu_gradv"] = limit_row["gradu_gradv"]
            row["limit_dual_proxy"] = limit_row["dual_proxy"]
        write_width_ledger(paths.width_ledger, rows)
    return run_dir


def cmd_report(run_dir):
    """Condense a completed run into summary + plot-ready files."""
    with _stage(run_dir, "report") as paths:
        analysis = _read_json(paths.analysis)
        minimize = _read_json(paths.minimize)
        _, time_data = read_ledger(paths.time_ledger)
        width_rows = read_width_ledger(paths.width_ledger)

        e0 = analysis["initial_energy"]
        deltas = analysis["schedule"]
        stress_norms = [row["stress_norm"] for row in analysis["balance"]]
        weak = minimize["weak_convergence"]
        defect = analysis["defect"]

        summary = {
            "initial_energy": e0,
            "total_dissipation": analysis["total_dissipation"],
            "global_residual_max_rel": analysis["global_residual_max"] / e0 if e0 else 0.0,
            "schedule": deltas,
            "resolved_residual_max_rel": max(
                row["resolved_residual"] for row in analysis["balance"]
            )
            / e0
            if e0
            else 0.0,
            "orders": {
                "stress_norm": _fit_order(deltas, stress_norms),
                "defect_structure": defect["structure_order"],
                "defect_stress": defect["stress_order"],
                "a": weak["order_a"],
                "b": weak["order_b"],
            },
            "defect": defect,
            "minimizer": minimize["records"],
            "weak_convergence": weak,
            "stress_limit": minimize["stress_limit"],
            "oracle": minimize["oracle"],
            "radius_sq": minimize["radius_sq"],
        }
        os.makedirs(paths.report_dir, exist_ok=True)
        _write_json(os.path.join(paths.report_dir, "summary.json"), summary)

        lines = []
        lines.append(f"run: {os.path.basename(os.path.abspath(run_dir))}")
        lines.append(f"initial energy            {e0:.6e}")
        lines.append(f"total viscous dissipation {analysis['total_dissipation']:.6e}")
        lines.append(
            f"global equality residual  {summary['global_residual_max_rel']:.3e} (rel)"
        )
        lines.append("")
        lines.append(
            "delta      resolved_resid  lambda        1-2lambda  max|a|      max|b|"
        )
        for row in width_rows:
            lines.append(
                f"{row['delta']:<10.6g} {row['resolved_residual']:<15.3e} "
                f"{row['lambda']:<13.4e} {row['one_minus_two_lambda']:<10.6g} "
                f"{row['basket_max_a']:<11.3e} {row['basket_max_b']:<11.3e}"
            )
        lines.append("")
        lines.append(
            f"orders: stress {summary['orders']['stress_norm']:.3f}  "
            f"defect_struct {defect['structure_order']:.3f}  "
            f"defect_stress {defect['stress_order']:.3f}"
        )
        lines.append(
            f"weak convergence: monotone_a={weak['monotone_a']} "
            f"monotone_b={weak['monotone_b']} final_a_normalized={weak['final_a_normalized']:.3e}"
        )
        with atomic_open(os.path.join(paths.report_dir, "summary.txt")) as fh:
            fh.write("\n".join(lines) + "\n")

        def write_dat(name, header_cols, rows):
            with atomic_open(os.path.join(paths.report_dir, name)) as fh:
                fh.write("# " + "  ".join(header_cols) + "\n")
                for r in rows:
                    fh.write("  ".join(f"{v:.17g}" for v in r) + "\n")

        write_dat(
            "energy.dat",
            ("t", "energy", "cumulative_dissipation", "global_residual"),
            time_data,
        )
        write_dat(
            "widths.dat",
            (
                "delta",
                "resolved_residual",
                "stress_norm",
                "defect_structure",
                "defect_stress",
                "basket_max_a",
                "basket_max_b",
            ),
            [
                (
                    row["delta"],
                    row["resolved_residual"],
                    row["stress_norm"],
                    row["defect_structure"],
                    row["defect_stress"],
                    row["basket_max_a"],
                    row["basket_max_b"],
                )
                for row in width_rows
            ],
        )
    return run_dir


def cmd_verify(workdir=None, stream=None):
    """Run the built-in acceptance suite; returns True when all criteria pass."""
    from . import acceptance

    return acceptance.run_all(workdir=workdir, stream=stream)
