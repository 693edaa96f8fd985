"""Reduce the spans of traced pipeline iterations to per-layer metrics.

One traced iteration is the four span files of its stages.  Each metric is
computed per iteration and the run reports the median over its traced
iterations; per-call times (solver.step_s, dissipation.*.w<i>) are medians
over every call in the run.  Counts repeat exactly from run to run.  Byte
counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import math
import statistics

STAGES = ("simulate", "analyze", "minimize", "report")

# Layer function totals: span name -> (calls metric or None, seconds metric).
_TOTALS = {
    "spectral.fft": ("spectral.fft_calls", "spectral.fft_s"),
    "solver.nonlinear": ("solver.nonlinear_calls", "solver.nonlinear_s"),
    "snapshots.write": ("snapshots.write_calls", "snapshots.write_s"),
    "snapshots.read": ("snapshots.read_calls", "snapshots.read_s"),
    "filtering.make_kernel": ("filtering.make_kernel_calls", "filtering.make_kernel_s"),
    "filtering.stress": ("filtering.stress_calls", "filtering.stress_s"),
    "filtering.resolved_balance": (None, "filtering.resolved_balance_s"),
    "dissipation.cross_validate": (None, "dissipation.cross_validate_s"),
    "minimizer.assemble_flux": ("minimizer.assemble_flux_calls", "minimizer.assemble_flux_s"),
    "minimizer.solve_mp": ("minimizer.solve_mp_calls", "minimizer.solve_mp_s"),
    "minimizer.lagrange_ratio": (None, "minimizer.lagrange_ratio_s"),
    "minimizer.el_residual": (None, "minimizer.el_residual_s"),
    "minimizer.boussinesq_residual": (None, "minimizer.boussinesq_residual_s"),
    "minimizer.energy_drop_identity": (None, "minimizer.energy_drop_identity_s"),
    "minimizer.weak_convergence_diag": (None, "minimizer.weak_convergence_diag_s"),
    "minimizer.stress_limit_diagnostics": (None, "minimizer.stress_limit_diagnostics_s"),
    "minimizer.oracle": (None, "minimizer.oracle_s"),
    "basket.build": (None, "basket.build_s"),
    "pipeline.load_run": (None, "pipeline.load_run_s"),
}
_BYTES = {
    "spectral.fft": "spectral.fft_bytes",
    "snapshots.write": "snapshots.write_bytes",
    "snapshots.read": "snapshots.read_bytes",
}
_SELF = {
    "solver.simulate": "solver.simulate_self_s",
    **{f"pipeline.{stage}": f"pipeline.{stage}.self_s" for stage in STAGES},
}
WIDTHS = 3  # every workload uses a three-width schedule


def _unit(name):
    if name.endswith("_bytes"):
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    if ".stress_calls_per_pair." in name:
        return "calls/pair"
    if name.endswith(("_calls", "_offsets", "_iterations")):
        return "count"
    return "s"


def metric_names():
    """Every per-layer metric, in report order."""
    names = []
    for calls, seconds in _TOTALS.values():
        names += [n for n in (calls, seconds) if n]
    names += list(_BYTES.values()) + list(_SELF.values())
    names += ["solver.step_calls", "solver.step_s", "solver.step_p90_s"]
    names += [f"filtering.stress_calls_per_pair.{stage}" for stage in ("analyze", "minimize")]
    names += [f"dissipation.structure_s.w{w}" for w in range(WIDTHS)]
    names += [f"dissipation.stress_strain_s.w{w}" for w in range(WIDTHS)]
    names += ["dissipation.structure_offsets", "minimizer.oracle_iterations"]
    names += ["minimizer.oracle_iter_s", "trace.overhead_ratio"]
    return names


UNITS = {name: _unit(name) for name in metric_names()}


def _self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] is not None:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - child[span[0]] for span in spans]


def _width_index(delta, delta0):
    return int(round(math.log2(delta0 / delta)))


def _percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(math.ceil(q * len(values))) - 1)]


def iteration_metrics(stage_spans, pairs):
    """Metrics of one traced iteration.

    stage_spans maps each stage to its span list; pairs is the number of
    (width, snapshot) pairs, the base of the per-pair stress counts.
    """
    out = {name: 0.0 for name in list(_BYTES.values()) + list(_SELF.values())}
    for calls, seconds in _TOTALS.values():
        if calls:
            out[calls] = 0
        out[seconds] = 0.0
    for name in ("solver.step_calls", "dissipation.structure_offsets", "minimizer.oracle_iterations"):
        out[name] = 0
    stress_by_stage = {}
    for stage, spans in stage_spans.items():
        self_times = _self_times(spans)
        stress_by_stage[stage] = 0
        for span, self_s in zip(spans, self_times):
            name, duration, extra = span[1], span[3] - span[2], span[5] or {}
            if name in _TOTALS:
                calls, seconds = _TOTALS[name]
                if calls:
                    out[calls] += 1
                out[seconds] += duration
            if name in _BYTES:
                out[_BYTES[name]] += extra["bytes"]
            if name in _SELF:
                out[_SELF[name]] += self_s
            if name == "solver.step":
                out["solver.step_calls"] += 1
            elif name == "filtering.stress":
                stress_by_stage[stage] += 1
            elif name == "dissipation.structure":
                out["dissipation.structure_offsets"] += extra["offsets"]
            elif name == "minimizer.oracle":
                out["minimizer.oracle_iterations"] += extra["iterations"]
    for stage in ("analyze", "minimize"):
        out[f"filtering.stress_calls_per_pair.{stage}"] = stress_by_stage.get(stage, 0) / pairs
    return out


def per_call_times(stage_spans, delta0):
    """Durations of the calls reported per call: steps and defect estimators."""
    calls = {"solver.step": []}
    for w in range(WIDTHS):
        calls[f"dissipation.structure_s.w{w}"] = []
        calls[f"dissipation.stress_strain_s.w{w}"] = []
    for spans in stage_spans.values():
        for span in spans:
            name, duration = span[1], span[3] - span[2]
            if name == "solver.step":
                calls[name].append(duration)
            elif name in ("dissipation.structure", "dissipation.stress_strain"):
                w = _width_index(span[5]["delta"], delta0)
                calls[f"{name}_s.w{w}"].append(duration)
    return calls


def run_metrics(iterations, call_times, overhead_ratio):
    """Combine per-iteration metrics and pooled per-call times for one run."""
    out = {}
    for name in iterations[0]:
        out[name] = statistics.median(it[name] for it in iterations)
    steps = call_times["solver.step"]
    out["solver.step_s"] = statistics.median(steps)
    out["solver.step_p90_s"] = _percentile(steps, 0.90)
    for name, values in call_times.items():
        if name != "solver.step":
            out[name] = statistics.median(values)
    out["minimizer.oracle_iter_s"] = out["minimizer.oracle_s"] / max(
        out["minimizer.oracle_iterations"], 1
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in metric_names()}
