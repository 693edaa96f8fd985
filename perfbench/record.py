"""Repeat the benchmark over seeds and record the baseline.

    python3 perfbench/record.py spread --workload audit24 --seeds 1-10 [--trace 0] [--out F]
    python3 perfbench/record.py baseline [--spread F ...]

`spread` runs perfbench/run.py once per seed, one run at a time, and prints
for every metric the median, the quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median next to the metric's bound in
BENCHMARK.json.  `baseline` runs the default seed of every workload untraced
and traced and writes perfbench/baseline.json: the environment record, every
end-to-end and per-layer metric, the run directory's SHA-256, why each
workload was chosen, and any seed studies passed with --spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Workloads considered but not run, and known program defects left in place.
DROPPED = {
    "cascade64": (
        "64^3, 3 snapshots, widths pi/4..pi/16: one pipeline iteration takes about 75 s "
        "(analyze about 51 s in the delta = pi/4 structure loop), more than a 60 s run "
        "can hold; its structure-loop and stress-assembly layers are measured on audit24"
    ),
    "spinup64": (
        "simulate-only 64^3 run: it cannot report analyze_s and minimize_s, which every "
        "workload must report, and any 64^3 analysis schedule costs more than a run can "
        "hold; the solver-dominated case is spinup24"
    ),
    "spinup32, audit32": (
        "the 32^3 forms of spinup24 (150 steps) and audit24 (11 snapshots): one pipeline "
        "iteration takes 18-25 s, so a 60 s run holds 2-3 samples of each stage, and "
        "over ten seeds the run-to-run spread of simulate_s reached 21-33% of its median "
        "on the shared 2-core host; at 24^3 with 4 snapshots a run holds 6-10 iterations"
    ),
}
KNOWN_DEFECTS = [
    "Basket degeneracy (ROADMAP item 5, not fixed here): with 2 snapshots every "
    "basket window is zero at both snapshot times and minimize exits 2 with 'all "
    "basket denominators degenerate' after the earlier stages have run.  With 3 "
    "evenly spaced snapshots a window can still miss every snapshot, and "
    "minimize.json then carries NaN final_a_normalized and dual_proxy (with a "
    "RuntimeWarning).  Neither is rejected when the config is loaded.  The "
    "workloads use 4 snapshots, for which every window covers a snapshot "
    "for every basket seed.",
    "Richardson and log-log slope fits return NaN orders when the finest three "
    "widths are not monotone (it happens on some seeds), and README documents NaN "
    "only for over-budget structure cells.  The output checks accept exactly "
    "those NaN, after recomputing that the series is not monotone.",
]


def run_once(workload, seed, trace, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    info = {}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        info[key] = value
    return json.loads(lines[-1]), info


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    spec = bench_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    failures = 0
    for seed in parse_seeds(args.seeds):
        result, info = run_once(args.workload, seed, args.trace, spec["run_seconds"])
        failures += result["failed"] + (0 if result["correct"] else 1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                         if k in bounds and bounds[k] is not None), flush=True)
        if "pipeline_s" in info:
            print(f"  pipeline_s: {info['pipeline_s']}", flush=True)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share,
                         "n": len(vals)}
        bound = bounds.get(name)
        if bound is not None:
            flag = "ok" if share < bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"{name}: median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {share:.3f} (bound {bound}, a third {bound / 3:.3f}) {flag}")
    print(f"failures: {failures}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                       "summary": summary}, fh, indent=2, sort_keys=True)


def baseline(args):
    spec = bench_spec()
    record = {
        "about": (
            "Baseline of the nslab pipeline benchmark at the parent of the first "
            "optimisation: one run of the default seed per workload, untraced "
            "(end_to_end) and traced (per_layer).  Byte counts are computed from "
            "array sizes.  Times are wall-clock seconds on the machine in 'environment'."
        ),
        "seed": DEFAULT_SEED,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
        "dropped_workloads": DROPPED,
        "known_defects": KNOWN_DEFECTS,
    }
    for name, wl in WORKLOADS.items():
        plain, info = run_once(name, DEFAULT_SEED, 0, spec["run_seconds"])
        traced, _ = run_once(name, DEFAULT_SEED, 1, spec["run_seconds"])
        record["environment"] = json.loads(info["environment"])
        record["workloads"][name] = {
            "why": wl.why,
            "config": json.loads(info["config"]),
            "correct": plain["correct"] and traced["correct"],
            "failed_ratio": info["failed_ratio"],
            "run_dir_sha256": info["run_dir_sha256"].split()[0],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
        print(f"{name}: recorded", flush=True)
    for path in args.spread or []:
        with open(path, encoding="utf-8") as fh:
            study = json.load(fh)
        record["workloads"][study["workload"]].setdefault("seed_study", {})[
            f"seeds {study['seeds']}, trace {study['trace']}"
        ] = study["summary"]
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_spread.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p_spread.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_spread.add_argument("--out")
    p_base = sub.add_parser("baseline")
    p_base.add_argument("--spread", nargs="*", help="JSON files written by spread --out")
    args = parser.parse_args()
    spread(args) if args.command == "spread" else baseline(args)


if __name__ == "__main__":
    main()
