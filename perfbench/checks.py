"""Output checks for the artifacts of each pipeline stage.

Each check_<stage> function inspects what that stage wrote and returns a list
of problems; an empty list means the artifacts are present, parse, hold no
NaN outside the documented over-budget structure cells, and satisfy the exact
identities at the acceptance-suite tolerances.  The readers here are written
against the documented file formats and share no code with nslab.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct

import numpy as np

LAGRANGE_TOL = 1e-9  # max |ratio - (1 - 2 lambda)| over the basket
EL_TOL = 1e-10  # weak Euler-Lagrange residual, relative
BOUSSINESQ_TOL = 1e-9  # divergence-tested Boussinesq form, relative
ENERGY_REL_TOL = 1e-6  # global energy residual / E0
ORACLE_GAP_TOL = 1e-8  # closed form vs descent oracle

CSV_SCHEMA = "# nslab csv schema 1"
_NSEL = struct.Struct("<4sIIId")
_ANALYZE_COLUMNS = (
    "delta",
    "resolved_lhs",
    "resolved_viscous",
    "resolved_flux",
    "resolved_residual",
    "stress_norm",
    "defect_structure",
    "defect_stress",
)


def _read_json(path, problems):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None


def _nan_paths(obj, path=()):
    """Paths of every non-finite number in a parsed JSON tree."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nan_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nan_paths(value, path + (i,))
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield path


def _read_csv(path, problems):
    """(columns, rows of floats) of an nslab CSV ledger, or None."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.readline().rstrip("\n") != CSV_SCHEMA:
                problems.append(f"{os.path.basename(path)}: bad schema line")
                return None
            reader = csv.reader(fh)
            columns = next(reader)
            rows = [[float(v) for v in row] for row in reader if row]
    except (OSError, ValueError, StopIteration) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None
    if any(len(row) != len(columns) for row in rows):
        problems.append(f"{os.path.basename(path)}: ragged rows")
        return None
    return columns, rows


def _read_dat(path, problems):
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None
    if not header.startswith("# ") or not rows:
        problems.append(f"{os.path.basename(path)}: missing header or rows")
        return None
    return header[2:].split(), rows


def _check_snapshot_dir(directory, count, n, problems):
    names = sorted(f for f in os.listdir(directory) if f.endswith(".nsel")) if os.path.isdir(
        directory
    ) else []
    if names != [f"snap_{i:06d}.nsel" for i in range(count)]:
        problems.append(f"{os.path.basename(directory)}: expected {count} snapshots, got {len(names)}")
        return []
    times = []
    for name in names:
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        magic, version, n_file, ncomp, time = _NSEL.unpack_from(raw)
        if (magic, version, n_file, ncomp) != (b"NSEL", 1, n, 3):
            problems.append(f"{name}: bad header {(magic, version, n_file, ncomp)}")
        elif len(raw) != _NSEL.size + 8 * 3 * n**3:
            problems.append(f"{name}: size {len(raw)}")
        elif not np.all(np.isfinite(np.frombuffer(raw, dtype="<f8", offset=_NSEL.size))):
            problems.append(f"{name}: non-finite samples")
        times.append(time)
    return times


def _over_budget(analysis):
    """Widths whose structure-function ball exceeds the offset budget."""
    defect = analysis.get("defect", {})
    budget = defect.get("max_offsets")
    offsets = defect.get("offsets", {})
    return {float(key) for key, count in offsets.items() if budget is not None and count > budget}


def _fit_undefined(values):
    """richardson_extrapolate's no-fit case: the finest three values are not monotone."""
    v = [x for x in values if math.isfinite(x)][-3:]
    if len(v) < 3:
        return True
    num, den = v[0] - v[1], v[1] - v[2]
    return den == 0.0 or num / den <= 0.0


def _order_undefined(values):
    """_fit_order's underdetermined case: fewer than two nonzero values."""
    return sum(1 for x in values if x != 0.0) < 2


def _documented_nans(analysis, minimize=None):
    """Paths, in analysis/minimize/summary JSON, where nslab emits NaN by design.

    Structure-function cells of widths over the offset budget (README), a
    Richardson order whose finest three widths are not monotone, and a
    log-log slope fitted to fewer than two nonzero values (the last two are
    what nslab's fitting functions return when no fit exists).  Any other
    NaN is a failure.
    """
    defect = analysis.get("defect", {})
    over = _over_budget(analysis)
    allowed = {
        ("defect", "structure", i)
        for i, delta in enumerate(defect.get("deltas", []))
        if delta in over
    }
    for key, series in (("structure_order", "structure"), ("stress_order", "stress")):
        if series in defect and _fit_undefined(defect[series]):
            allowed |= {("defect", key), ("orders", f"defect_{series}")}
    if _order_undefined([row.get("stress_norm", 0.0) for row in analysis.get("balance", [])]):
        allowed.add(("orders", "stress_norm"))
    weak = (minimize or {}).get("weak_convergence", {})
    for key in ("a", "b"):
        columns = list(zip(*weak.get(key, [])))
        for j, column in enumerate(columns):
            if _order_undefined(column):
                allowed |= {("weak_convergence", f"order_{key}", j), ("orders", key, j)}
    return allowed


def _ledger_nans(table, over_budget, problems, label, only=None):
    """NaN in a width table is allowed only in over-budget structure cells."""
    columns, rows = table
    for c, name in enumerate(columns):
        if only is not None and name not in only:
            continue
        for row in rows:
            if not math.isfinite(row[c]) and not (
                name == "defect_structure" and row[0] in over_budget
            ):
                problems.append(f"{label}: non-finite {name} at delta {row[0]}")


def _report_nans(obj, allowed, problems, label):
    for path in _nan_paths(obj):
        if path not in allowed:
            problems.append(f"{label}: non-finite value at {'.'.join(map(str, path))}")


def check_simulate(run_dir, workload):
    problems = []
    state = _read_json(os.path.join(run_dir, "run.json"), problems)
    config = _read_json(os.path.join(run_dir, "config.json"), problems)
    if state is not None and (
        state.get("status") != "ok"
        or state.get("stages") != {"simulate": True}
        or state.get("snapshot_count") != workload.snapshots
        or state.get("steps") != workload.steps
    ):
        problems.append(f"run.json: unexpected state {state}")
    if config is not None and config.get("grid", {}).get("n") != workload.n:
        problems.append("config.json: grid.n does not echo the config")
    times = _check_snapshot_dir(
        os.path.join(run_dir, "snapshots"), workload.snapshots, workload.n, problems
    )
    ledger = _read_csv(os.path.join(run_dir, "energy_time.csv"), problems)
    if ledger is not None:
        columns, rows = ledger
        if columns != ["t", "energy", "cumulative_dissipation", "global_residual"]:
            problems.append(f"energy_time.csv: columns {columns}")
        elif [r[0] for r in rows] != times:
            problems.append("energy_time.csv: times disagree with the snapshots")
        elif not all(math.isfinite(v) for r in rows for v in r):
            problems.append("energy_time.csv: non-finite value")
        else:
            e0 = rows[0][1]
            worst = max(r[3] for r in rows)
            if worst > ENERGY_REL_TOL * e0:
                problems.append(f"global energy residual {worst:.3e} > {ENERGY_REL_TOL:g} E0")
    return problems


def check_analyze(run_dir, workload):
    problems = []
    analysis = _read_json(os.path.join(run_dir, "analysis.json"), problems)
    if analysis is None:
        return problems
    over = _over_budget(analysis)
    _report_nans(analysis, _documented_nans(analysis), problems, "analysis.json")
    defect = analysis.get("defect", {})
    if "error" in defect or len(defect.get("deltas", [])) != workload.widths:
        problems.append(f"analysis.json: defect cross-validation did not run ({defect.get('error')})")
    if len(analysis.get("balance", [])) != workload.widths:
        problems.append("analysis.json: missing balance rows")
    if analysis.get("global_residual_max", math.inf) > ENERGY_REL_TOL * analysis.get(
        "initial_energy", 0.0
    ):
        problems.append("analysis.json: global energy residual above tolerance")
    ledger = _read_csv(os.path.join(run_dir, "width_ledger.csv"), problems)
    if ledger is not None:
        missing = set(_ANALYZE_COLUMNS) - set(ledger[0])
        if missing:
            problems.append(f"width_ledger.csv: missing columns {sorted(missing)}")
        # Minimizer columns stay NaN until minimize fills them.
        _ledger_nans(ledger, over, problems, "width_ledger.csv", only=_ANALYZE_COLUMNS)
    return problems


def check_minimize(run_dir, workload):
    problems = []
    result = _read_json(os.path.join(run_dir, "minimize.json"), problems)
    analysis = _read_json(os.path.join(run_dir, "analysis.json"), problems)
    _read_json(os.path.join(run_dir, "minimizer", "solution.json"), problems)
    _check_snapshot_dir(
        os.path.join(run_dir, "minimizer"), workload.snapshots, workload.n, problems
    )
    if result is None or analysis is None:
        return problems
    _report_nans(result, _documented_nans(analysis, result), problems, "minimize.json")
    records = result.get("records", [])
    if len(records) != workload.widths:
        problems.append(f"minimize.json: {len(records)} records")
    for rec in records:
        where = f"delta {rec.get('delta')}"
        if not rec.get("lagrange_max_deviation", math.inf) <= LAGRANGE_TOL:
            problems.append(f"{where}: Lagrange deviation {rec.get('lagrange_max_deviation')}")
        if not rec.get("el_residual_max", math.inf) <= EL_TOL:
            problems.append(f"{where}: EL residual {rec.get('el_residual_max')}")
        if not rec.get("boussinesq_el_max", math.inf) <= BOUSSINESQ_TOL:
            problems.append(f"{where}: Boussinesq residual {rec.get('boussinesq_el_max')}")
        lam = rec.get("lambda")
        active = workload.active_ball
        if active and not (lam is not None and lam < 0.0 and rec.get("constraint_active")):
            problems.append(f"{where}: lambda {lam} does not saturate the ball")
        if not active and lam != 0.0:
            problems.append(f"{where}: lambda {lam} left the interior branch")
    record = result.get("oracle")
    if not record or not record.get("converged"):
        problems.append("oracle missing or not converged")
    elif not record.get("gap", math.inf) <= ORACLE_GAP_TOL:
        problems.append(f"oracle gap {record.get('gap')}")
    ledger = _read_csv(os.path.join(run_dir, "width_ledger.csv"), problems)
    if ledger is not None:
        _ledger_nans(ledger, _over_budget(analysis), problems, "width_ledger.csv")
    return problems


def check_report(run_dir, workload):
    problems = []
    state = _read_json(os.path.join(run_dir, "run.json"), problems)
    analysis = _read_json(os.path.join(run_dir, "analysis.json"), problems)
    minimize = _read_json(os.path.join(run_dir, "minimize.json"), problems)
    summary = _read_json(os.path.join(run_dir, "report", "summary.json"), problems)
    stages = {"simulate": True, "analyze": True, "minimize": True, "report": True}
    if state is not None and state.get("stages") != stages:
        problems.append(f"run.json: stages {state.get('stages')}")
    if analysis is None or minimize is None:
        return problems
    if summary is not None:
        _report_nans(summary, _documented_nans(analysis, minimize), problems, "summary.json")
    try:
        with open(os.path.join(run_dir, "report", "summary.txt"), encoding="utf-8") as fh:
            if not fh.read().startswith("run: "):
                problems.append("summary.txt: unexpected content")
    except OSError as exc:
        problems.append(f"summary.txt: {exc}")
    energy = _read_dat(os.path.join(run_dir, "report", "energy.dat"), problems)
    if energy is not None:
        if len(energy[1]) != workload.snapshots:
            problems.append("energy.dat: wrong row count")
        _ledger_nans(energy, set(), problems, "energy.dat")
    widths = _read_dat(os.path.join(run_dir, "report", "widths.dat"), problems)
    if widths is not None:
        if len(widths[1]) != workload.widths:
            problems.append("widths.dat: wrong row count")
        _ledger_nans(widths, _over_budget(analysis), problems, "widths.dat")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "analyze": check_analyze,
    "minimize": check_minimize,
    "report": check_report,
}


def tree_digest(run_dir):
    """SHA-256 over every file of a run directory: relative path, size, bytes."""
    digest = hashlib.sha256()
    for parent, dirs, files in os.walk(run_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(parent, name)
            rel = os.path.relpath(path, run_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()
