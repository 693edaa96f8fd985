"""Staged experiment pipeline over an on-disk run directory.

    simulate --config cfg.json   ->  run_dir/{config.json, run.json,
                                      snapshots/, energy_time.csv}
    analyze  run_dir             ->  width_ledger.csv, analysis.json
    minimize run_dir [--oracle]  ->  minimize.json, minimizer/, ledger update
    report   run_dir             ->  report/{summary.json, summary.txt, *.dat}

Each stage reads only what earlier stages wrote, so any stage can be re-run;
re-running writes byte-identical artifacts (nothing time- or host-dependent
is ever persisted).  An exclusive flock on the run directory guards
against concurrent writers.

The module itself needs neither numpy nor a compute module: each stage
imports the ones it runs, so report loads none of them, simulate loads
neither the minimizer nor the defect estimators, analyze does not load the
minimizer and minimize does not load the estimators.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os

from .errors import BlowUpError, LedgerError, PipelineError
from .ledger import (
    atomic_open,
    read_time_ledger,
    read_width_ledger,
    write_time_ledger,
    write_width_ledger,
)

STAGES = ("simulate", "analyze", "minimize", "report")

# minimizer/solution.json: this subset of the finest width's minimize record.
SOLUTION_KEYS = ("delta", "lambda", "one_minus_two_lambda", "enstrophy_used", "radius_sq",
                 "k_value", "constraint_active")
# minimize.json's weak_convergence: these ConvergenceReport fields.
WEAK_KEYS = ("deltas", "a", "b", "order_a", "order_b", "monotone_a", "monotone_b", "a_at_floor",
             "b_at_floor", "enstrophy", "final_a_normalized", "grad_u_norm", "basket_norms")
# Width-ledger columns that minimize copies from each width's record, and
# the limit_<key> columns it copies from each stress-limit row.
RECORD_COLUMNS = ("lambda", "one_minus_two_lambda", "enstrophy_used", "k_value",
                  "energy_drop_residual")
LIMIT_KEYS = ("stress_vstar", "stress_gradu", "gradu_gradv", "dual_proxy")
# report/widths.dat: these width-ledger columns.
WIDTHS_DAT_COLUMNS = ("delta", "resolved_residual", "stress_norm", "defect_structure",
                      "defect_stress", "basket_max_a", "basket_max_b")


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


@contextlib.contextmanager
def run_lock(paths):
    """Hold an exclusive flock on the run directory itself for the block.

    The kernel drops the lock when its holder exits, however it exits, so a
    crashed stage never leaves the run locked.  A held lock refuses the stage.
    """
    fd = os.open(paths.run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"{paths.run_dir}: locked by another writer") from None
        yield
    finally:
        os.close(fd)


def _write_json(path, obj):
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, *keys):
    """A JSON record; with `keys`, an object that must hold each of them.

    A key is a dotted path into nested objects, and a path through a list
    holds for each of its rows: "balance.stress_norm" requires the
    stress_norm of every balance row.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        raise LedgerError(f"{path}: missing") from None
    except OSError as exc:  # a directory, or unreadable
        raise LedgerError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise LedgerError(f"{path}: invalid JSON ({exc})") from None
    for key in keys:
        list(_leaves(path, record, key))
    return record


def _leaves(path, node, key, where=""):
    """(location, value) of every node the dotted `key` reaches from `node`;
    a path through a list reaches into each of its rows."""
    name, _, rest = key.partition(".")
    where = f"{where}.{name}" if where else name
    if not isinstance(node, dict) or name not in node:
        raise LedgerError(f"{path}: missing key {where!r}")
    node = node[name]
    if rest and isinstance(node, list):
        for i, row in enumerate(node):
            yield from _leaves(path, row, rest, f"{where}[{i}]")
    elif rest:
        yield from _leaves(path, node, rest, where)
    else:
        yield where, node


def _require_numbers(path, record, *keys, finite=True):
    """Every value the dotted keys reach (each entry, for a list) is a real
    number, and finite unless `finite` is False."""
    for key in keys:
        for where, value in _leaves(path, record, key):
            entries = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, entry in entries:
                if (
                    isinstance(entry, bool)
                    or not isinstance(entry, (int, float))
                    or (finite and not math.isfinite(entry))
                ):
                    at = where if i is None else f"{where}[{i}]"
                    kind = "a finite number" if finite else "a number"
                    raise LedgerError(f"{path}: {at!r} is {entry!r}, not {kind}")


def _read_width_rows(path, schedule):
    """The width ledger's rows, whose delta column must be `schedule` in order."""
    rows = read_width_ledger(path)
    deltas = [float(row["delta"]) for row in rows]
    if deltas != list(schedule):
        raise LedgerError(f"{path}: delta column {deltas} is not the schedule {list(schedule)}")
    return rows


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
    from . import snapshots as snap_mod
    from .config import dump_config, load_config
    from .solver import make_initial, simulate

    cfg = load_config(config_path)
    run_dir = cfg.resolve_output_dir(output_root)
    paths = RunPaths(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    with run_lock(paths):
        state = _load_state(paths)
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

        _forget_stages(paths, state, "simulate")
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

    The snapshots are checked by snapshots.read_series and the time ledger
    by ledger.read_time_ledger; the ledger's times must be the snapshots'.
    """
    import numpy as np

    from . import snapshots as snap_mod
    from .config import load_config
    from .solver import Trajectory

    paths = RunPaths(run_dir)
    _require_run_dir(paths)
    cfg = load_config(paths.config)
    grid = cfg.make_grid()
    times, u_hats = snap_mod.read_series(paths.snapshots, grid)
    ledger = read_time_ledger(paths.time_ledger)
    t = np.asarray(ledger["t"])
    if len(t) != len(times) or not np.all(np.abs(t - times) <= 1e-12):
        detail = f"t column: {len(t)} rows, {len(times)} snapshots"
        raise LedgerError(f"{paths.time_ledger}: disagrees with the snapshots ({detail})")
    traj = Trajectory(
        grid=grid,
        times=times,
        u_hats=u_hats,
        energies=np.asarray(ledger["energy"]),
        dissipation=np.asarray(ledger["cumulative_dissipation"]),
    )
    return cfg, grid, traj


def cmd_analyze(run_dir):
    """Coarse-graining budgets and dissipation-defect estimates per width."""
    import numpy as np

    from .dissipation import analyze_widths
    from .spectral import _fit_order

    with _stage(run_dir, "analyze") as paths:
        cfg, grid, traj = load_run(run_dir)
        schedule = cfg.make_schedule(grid)
        balances, defect = analyze_widths(traj, schedule)
        balance_rows = [
            {
                "delta": rep.delta,
                "resolved_lhs": rep.energy_drop,
                "resolved_viscous": rep.viscous,
                "resolved_flux": rep.stress_flux,
                "resolved_residual": rep.residual,
                "stress_norm": rep.stress_norm,
            }
            for rep in balances
        ]
        write_width_ledger(
            paths.width_ledger,
            [
                dict(row, defect_structure=structure, defect_stress=stress)
                for row, structure, stress in zip(balance_rows, defect.structure, defect.stress)
            ],
        )
        analysis = {
            "schedule": list(schedule),
            "initial_energy": traj.initial_energy,
            "total_dissipation": float(traj.dissipation[-1]),
            "global_residual_max": float(np.max(traj.global_energy_residuals())),
            "balance": balance_rows,
            "stress_norm_order": _fit_order(schedule, [row["stress_norm"] for row in balance_rows]),
            "defect": {
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
            },
        }
        _write_json(paths.analysis, analysis)
    return run_dir


def cmd_minimize(run_dir, oracle=False):
    """Solve the constrained minimization per width and audit its identities."""
    import numpy as np

    from . import snapshots as snap_mod
    from .minimizer import audit_widths, default_radius_sq, dual_gap, enstrophy_integral, oracle_mp

    with _stage(run_dir, "minimize") as paths:
        cfg, grid, traj = load_run(run_dir)
        schedule = cfg.make_schedule(grid)
        ledger_rows = _read_width_rows(paths.width_ledger, schedule)
        basket = cfg.make_basket(grid)
        radius_sq = cfg.minimizer["radius_override"]
        if radius_sq is None:
            radius_sq = default_radius_sq(traj)
        audit = audit_widths(traj, schedule, basket, radius_sq)
        # The oracle and the minimizer/ writer read only audit.rhs and the
        # times: release the snapshot stack before they run.
        times = traj.times
        del traj
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
            osol = oracle_mp(grid.band, times, audit.rhs, radius_sq, **cfg.minimizer["oracle"])
            # solution_gap against v*, derived one snapshot at a time
            diff = (osol.v_hats[i] - audit.v_star(i) for i in range(len(times)))
            ref = max(osol.enstrophy_used, audit.solution.enstrophy_used, 1e-300)
            gap, gap_rel = dual_gap(osol)
            oracle_record = {
                "delta": schedule[-1],
                "gap": enstrophy_integral(grid.band, times, diff) / ref,
                "k_value": osol.k_value,
                "k_value_closed_form": audit.solution.k_value,
                "lambda": osol.lam,
                "converged": osol.converged,
                "iterations": osol.iterations,
                "grad_norm": osol.grad_norm,
                "grad_norm_ref": osol.grad_norm_ref,
                "start_spread": osol.start_spread,
                "dual_gap": {"absolute": gap, "relative": gap_rel},
            }

        # The finest-width minimizer as a snapshot series, plus its record.
        snap_mod.write_series(
            paths.minimizer_dir, grid, times, (audit.v_star(i) for i in range(len(times)))
        )
        sidecar = {key: records[-1][key] for key in SOLUTION_KEYS}
        _write_json(os.path.join(paths.minimizer_dir, "solution.json"), sidecar)

        minimize = {
            "radius_sq": radius_sq,
            "records": records,
            "weak_convergence": {key: np.asarray(getattr(weak, key)).tolist() for key in WEAK_KEYS},
            "stress_limit": audit.stress_limit,
            "oracle": oracle_record,
        }
        _write_json(paths.minimize, minimize)

        # Fold the minimizer quantities into the width ledger.
        max_a = np.max(np.abs(weak.a), axis=1)
        max_b = np.max(np.abs(weak.b), axis=1)
        for row, rec, a, b, limit in zip(
            ledger_rows, records, max_a, max_b, audit.stress_limit["rows"], strict=True
        ):
            row.update({column: rec[column] for column in RECORD_COLUMNS})
            row.update({f"limit_{key}": limit[key] for key in LIMIT_KEYS})
            row["basket_max_a"], row["basket_max_b"] = a, b
            row["boussinesq_el_residual"] = rec["boussinesq_el_max"]
        write_width_ledger(paths.width_ledger, ledger_rows)
    return run_dir


def cmd_report(run_dir):
    """Condense a completed run into summary + plot-ready files."""
    with _stage(run_dir, "report") as paths:
        analysis = _read_json(paths.analysis, "schedule", "initial_energy", "total_dissipation",
                              "global_residual_max", "balance.stress_norm",
                              "balance.resolved_residual", "stress_norm_order",
                              "defect.structure_order", "defect.stress_order")
        minimize = _read_json(paths.minimize, "records", "stress_limit", "oracle", "radius_sq",
                              "weak_convergence.order_a", "weak_convergence.order_b",
                              "weak_convergence.monotone_a", "weak_convergence.monotone_b",
                              "weak_convergence.final_a_normalized")
        deltas, balance = analysis["schedule"], analysis["balance"]
        if not isinstance(deltas, list) or not deltas:
            raise LedgerError(f"{paths.analysis}: 'schedule' is {deltas!r}, not a list of widths")
        if not isinstance(balance, list) or len(balance) != len(deltas):
            rows = len(balance) if isinstance(balance, list) else repr(balance)
            raise LedgerError(
                f"{paths.analysis}: 'balance' has {rows} rows for the "
                f"{len(deltas)} widths of the schedule"
            )
        _require_numbers(paths.analysis, analysis, "schedule", "initial_energy",
                         "total_dissipation", "global_residual_max", "balance.stress_norm",
                         "balance.resolved_residual")
        # fitted orders and final_a_normalized may be NaN (see README)
        _require_numbers(paths.analysis, analysis, "stress_norm_order",
                         "defect.structure_order", "defect.stress_order", finite=False)
        _require_numbers(paths.minimize, minimize, "weak_convergence.final_a_normalized",
                         finite=False)
        oracle = minimize["oracle"]
        if oracle is not None:
            _require_numbers(paths.minimize, minimize, "oracle.dual_gap.absolute",
                             "oracle.dual_gap.relative")
        time_ledger = read_time_ledger(paths.time_ledger)
        width_rows = _read_width_rows(paths.width_ledger, deltas)

        e0 = analysis["initial_energy"]
        weak = minimize["weak_convergence"]
        defect = analysis["defect"]
        resolved_max = max(row["resolved_residual"] for row in balance)

        summary = {
            "initial_energy": e0,
            "total_dissipation": analysis["total_dissipation"],
            "global_residual_max_rel": analysis["global_residual_max"] / e0 if e0 else 0.0,
            "schedule": deltas,
            "resolved_residual_max_rel": resolved_max / e0 if e0 else 0.0,
            "orders": {
                "stress_norm": analysis["stress_norm_order"],
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

        lines = [
            f"run: {os.path.basename(os.path.abspath(run_dir))}",
            f"initial energy            {e0:.6e}",
            f"total viscous dissipation {analysis['total_dissipation']:.6e}",
            f"global equality residual  {summary['global_residual_max_rel']:.3e} (rel)",
            "",
            "delta      resolved_resid  lambda        1-2lambda  max|a|      max|b|",
        ]
        for row in width_rows:
            lines.append(
                f"{row['delta']:<10.6g} {row['resolved_residual']:<15.3e} "
                f"{row['lambda']:<13.4e} {row['one_minus_two_lambda']:<10.6g} "
                f"{row['basket_max_a']:<11.3e} {row['basket_max_b']:<11.3e}"
            )
        lines += [
            "",
            f"orders: stress {summary['orders']['stress_norm']:.3f}  "
            f"defect_struct {defect['structure_order']:.3f}  "
            f"defect_stress {defect['stress_order']:.3f}",
            f"weak convergence: monotone_a={weak['monotone_a']} "
            f"monotone_b={weak['monotone_b']} final_a_normalized={weak['final_a_normalized']:.3e}",
        ]
        if oracle is not None:
            gap = oracle["dual_gap"]
            lines.append(
                f"oracle dual gap {gap['absolute']:.3e} ({gap['relative']:.3e} rel), "
                f"delta {oracle['delta']:.6g}"
            )
        with atomic_open(os.path.join(paths.report_dir, "summary.txt")) as fh:
            fh.write("\n".join(lines) + "\n")

        def write_dat(name, columns):
            """A plot file: a comment header naming the columns, then the rows."""
            with atomic_open(os.path.join(paths.report_dir, name)) as fh:
                fh.write("# " + "  ".join(columns) + "\n")
                for row in zip(*columns.values()):
                    fh.write("  ".join(f"{v:.17g}" for v in row) + "\n")

        write_dat("energy.dat", time_ledger)
        write_dat("widths.dat", {c: [row[c] for row in width_rows] for c in WIDTHS_DAT_COLUMNS})
    return run_dir


def cmd_verify(workdir=None, stream=None):
    """Run the built-in acceptance suite; returns True when all criteria pass."""
    from . import acceptance

    return acceptance.run_all(workdir=workdir, stream=stream)
