"""End-to-end benchmark of the nslab CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: this process launches one stage
process at a time (simulate, analyze, minimize --oracle, report) and starts
the next only when the previous one has exited.  Stage processes get the
absolute path of this checkout's src/ as PYTHONPATH, a working directory
under .perfbench_work/ (never the run directory), and one BLAS/OpenMP
thread.  The seed only shapes the generated config that nslab reads.

--trace 0 prints the end-to-end metrics: whole pipeline iterations, each
preceded by two set-up probes, until --seconds is used up (at least two
iterations, so repeats can be compared byte for byte).  Each metric is the
median over the run's samples, printed with the fastest and slowest sample
and the sample count; the probes are spread over the whole run like the
stages, so that drift in the host's speed affects both alike.  --trace 1
alternates untraced and traced iterations and prints the per-layer metrics
from the traced ones (see stage_trace.py and layers.py).  Every stage's
artifacts are checked (checks.py); a stage that exits nonzero or fails a
check counts as failed, and so does an iteration whose run directory differs
from the first iteration's.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from layers import STAGES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # at least this many set-up probes per run
PROBES_PER_ITERATION = 2
MIN_ITERATIONS = 2
HARD_LIMIT_S = 170.0  # a stage still running then is killed and counts as failed

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "minimize_s": "s",
    "pipeline_s": "s",
    "peak_rss_mib": "MiB",
}


class Process:
    """Result of one child process: wall time, exit code, peak RSS, output."""

    def __init__(self, argv, env, cwd, log, deadline):
        out_path, err_path = cwd / f"{log}.out", cwd / f"{log}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
            watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall = time.perf_counter() - start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")


def stage_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment_record():
    import numpy

    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, check=True)
            caches[level.lower()] = int(out.stdout)
        except (OSError, ValueError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "cache_bytes": caches,
        "git_revision": git_revision(),
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return out.stdout.strip()


class Bench:
    def __init__(self, workload, seed, trace, work):
        self.wl = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.env = stage_env()
        self.config_path = work / "config.json"
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failed_invocations = set()  # (iteration, stage)
        self.problems = []
        self.setup = []  # set-up probe wall times
        self.iterations = []  # dicts: traced, walls, rss, digest, spans

    @property
    def failed(self):
        return len(self.failed_invocations)

    def fail(self, k, stage, message):
        self.failed_invocations.add((k, stage))
        self.problems.append(f"iteration {k} {stage}: {message}")

    def probe(self, log):
        proc = Process(
            [sys.executable, str(HERE / "setup_probe.py"), str(self.config_path)],
            self.env, self.work, log, self.deadline,
        )
        if proc.code != 0:
            raise SystemExit(f"set-up probe failed ({proc.code}):\n{proc.stderr[-2000:]}")
        imported = Path(proc.stdout.strip().splitlines()[-1]).resolve()
        if SRC.resolve() not in imported.parents:
            raise SystemExit(f"imported nslab from {imported}, not from {SRC}")
        return proc.wall

    def iteration(self, k, traced):
        it_dir = self.work / f"iter{k}"
        it_dir.mkdir()
        env = dict(self.env, NSLAB_OUT=str(it_dir))
        run_dir = it_dir / "run"
        result = {"traced": traced, "walls": {}, "rss": 0.0, "digest": None, "spans": {}}
        stage_args = {
            "simulate": ["simulate", "--config", str(self.config_path)],
            "analyze": ["analyze", str(run_dir)],
            "minimize": ["minimize", str(run_dir), "--oracle"],
            "report": ["report", str(run_dir)],
        }
        for stage, args in stage_args.items():
            if traced:
                spans_path = self.work / f"spans_{k}_{stage}.json"
                argv = [sys.executable, str(HERE / "stage_trace.py"), str(spans_path),
                        f"{self.wl.name}/{self.seed}/{k}", *args]
            else:
                argv = [sys.executable, "-m", "nslab", *args]
            self.attempted += 1
            proc = Process(argv, env, self.work, f"iter{k}_{stage}", self.deadline)
            if proc.code != 0:
                self.fail(k, stage, f"exit {proc.code}: {proc.stderr[-1000:]}")
                return None
            problems = checks.CHECKS[stage](str(run_dir), self.wl)
            if stage == "simulate" and proc.stdout.strip() != str(run_dir):
                problems.insert(0, f"printed {proc.stdout.strip()!r}, not the run directory")
            if problems:
                self.fail(k, stage, "; ".join(problems[:5]))
            result["walls"][stage] = proc.wall
            result["rss"] = max(result["rss"], proc.rss_mib)
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    result["spans"][stage] = json.load(fh)["spans"]
        result["digest"] = checks.tree_digest(str(run_dir))
        shutil.rmtree(run_dir)
        return result

    def measure(self, seconds):
        start = time.perf_counter()
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.wl.config(self.seed, "run"), fh, indent=2)
        self.probe("warmup")  # fills the bytecode cache and checks the import path
        k = 0
        while True:
            t0 = time.perf_counter()
            if not self.trace:
                self.setup += [self.probe(f"setup{k}_{i}") for i in range(PROBES_PER_ITERATION)]
            result = self.iteration(k, traced=bool(self.trace and k % 2))
            if result is None:
                break
            self.iterations.append(result)
            k += 1
            took = time.perf_counter() - t0
            if k >= MIN_ITERATIONS and time.perf_counter() + took > start + seconds:
                break
        while not self.trace and len(self.setup) < SETUP_PROBES:
            self.setup.append(self.probe(f"setup{len(self.setup)}"))
        digests = [it["digest"] for it in self.iterations]
        for k, digest in enumerate(digests[1:], start=1):
            if digest != digests[0]:
                self.fail(k, STAGES[-1], "run directory differs from iteration 0")

    def end_to_end(self):
        plain = [it for it in self.iterations if not it["traced"]]
        walls = {s: [it["walls"][s] for it in plain] for s in STAGES}
        return {
            "setup_s": self.setup,
            "simulate_s": walls["simulate"],
            "analyze_s": walls["analyze"],
            "minimize_s": walls["minimize"],
            "pipeline_s": [sum(it["walls"].values()) for it in plain],
            "peak_rss_mib": [it["rss"] for it in plain],
        }

    def per_layer(self):
        plain = [sum(it["walls"].values()) for it in self.iterations if not it["traced"]]
        traced = [it for it in self.iterations if it["traced"]]
        overhead = statistics.median(sum(it["walls"].values()) for it in traced) / (
            statistics.median(plain)
        ) - 1.0
        pairs = self.wl.widths * self.wl.snapshots
        per_iteration = [layers.iteration_metrics(it["spans"], pairs) for it in traced]
        calls = {}
        for it in traced:
            for name, values in layers.per_call_times(it["spans"], self.wl.delta0).items():
                calls.setdefault(name, []).extend(values)
        return layers.run_metrics(per_iteration, calls, overhead), len(traced)


def recorded_digest(workload, seed):
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    if record.get("seed") != seed:
        return None
    return record.get("workloads", {}).get(workload, {}).get("run_dir_sha256")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "nslab" / "__init__.py").is_file():
        print(f"error: no nslab sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(wl, args.seed, args.trace, work)
        print("environment: " + json.dumps(environment_record(), sort_keys=True))
        print(f"workload: {wl.name} seed {args.seed} ({wl.why})")
        print("config: " + json.dumps(wl.config(args.seed, "run"), sort_keys=True))
        bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for problem in bench.problems:
        print(f"FAILED {problem}")
    digests = sorted({it["digest"] for it in bench.iterations})
    if digests:
        recorded = recorded_digest(wl.name, args.seed)
        verdict = "no recorded baseline for this seed" if recorded is None else (
            "matches the recorded baseline" if digests == [recorded]
            else "differs from the recorded baseline"
        )
        print(f"run_dir_sha256: {' '.join(digests)} ({len(bench.iterations)} iterations; "
              f"{verdict})")
    ratio = bench.failed / max(bench.attempted, 1)
    print(f"failed_ratio: {ratio:g} ({bench.failed} of {bench.attempted} stage invocations)")

    metrics = {}
    complete = any(not it["traced"] for it in bench.iterations) and (
        not args.trace or any(it["traced"] for it in bench.iterations)
    )
    if complete and not args.trace:
        for name, values in bench.end_to_end().items():
            value = statistics.median(values)
            print(f"{name}: {value:.6g} {END_TO_END[name]} median "
                  f"(min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
    elif complete:
        values, n_traced = bench.per_layer()
        for name, value in values.items():
            print(f"{name}: {value:.6g} {layers.UNITS[name]} (traced iterations: {n_traced})")
            metrics[name] = {"value": value, "unit": layers.UNITS[name]}
    result = {
        "correct": bench.failed == 0 and complete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
