"""Tests for the staged run pipeline and the command-line front end.

Validates:
- simulate writes config echo, run state, snapshots and the time ledger,
  honoring the output-root override
- the run lock is a flock on the run directory: while another process
  holds it every stage exits 1 and writes nothing, a holder killed outright
  frees it at once, and a stray .lock file does not lock the run
- stage ordering: each stage demands its predecessors and refuses to analyze
  a blown-up run
- analyze fills the per-width ledger and the defect-estimator summary with
  one Reynolds stress per (width, snapshot) and one grad(eta) per width;
  minimize folds multipliers and weak pairings into the same ledger,
  persists the finest-width minimizer as snapshots, and streams one Reynolds
  stress per (width, snapshot) with no stored flux, with or without --oracle
- report condenses everything into summary.json, summary.txt and .dat files
- analyze and minimize read the run only while holding its lock
- rerunning any stage reproduces byte-identical artifacts, an interrupted
  simulate rerun leaves no stage marked, an interrupted simulate or minimize
  rerun leaves the previous snapshots/ or minimizer/ with no temporary entry,
  and a JSON record or config echo whose write fails midway leaves the
  previous file in place
- blow-up runs keep their partial artifacts and propagate the failure
- CLI exit codes: 0 on success, 1 for runtime failures, 2 for bad input,
  including snapshot times that are not finite and strictly increasing,
  non-finite time-ledger cells, a time ledger that disagrees with the
  snapshots and a run.json that is not a run record, and a simulate
  config path that names a directory
- a corruption matrix: a dropped time-ledger column, a changed or dropped
  width-ledger row, a missing width ledger, a missing top-level or nested
  key that report reads from analysis.json or minimize.json, an
  analysis.json balance with no rows or fewer rows than the schedule, a
  fitted order that is not a number, a missing minimize.json, a missing
  snapshots/ directory, a non-finite snapshot sample, a directory where
  config.json, energy_time.csv, run.json, analysis.json, width_ledger.csv
  or a snapshot belongs and a file where snapshots/ belongs each make the
  stage that reads them exit 2 naming the file (and the key), with every
  other artifact left byte for byte
- a simulate rerun rejects a malformed run.json before it integrates
"""

import fcntl
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from nslab import cli, dissipation, filtering, minimizer, pipeline, snapshots, solver, spectral
from nslab.config import OUTPUT_ROOT_ENV, dump_config
from nslab.ledger import TIME_COLUMNS, atomic_path, read_ledger, read_width_ledger, write_ledger
from nslab.pipeline import PipelineError, RunPaths
from nslab.snapshots import list_snapshots, read_snapshot, write_snapshot
from nslab.solver import BlowUpError


class Interrupted(Exception):
    """Stands in for a signal or crash that stops a stage midway."""


def make_config(run_dir, **overrides):
    data = {
        "grid": {"n": 16, "nu": 0.05, "dt": 5e-3, "t_end": 0.05, "snapshot_stride": 1},
        "init": {
            "kind": "random_band",
            "amplitude": 0.4,
            "seed": 3,
            "slope": -1.0,
            "k_min": 1,
            "k_max": 3,
        },
        "filters": {"delta0": math.pi, "count": 3},
        "basket": {"seed": 21, "size": 4, "max_mode": 2},
        "output": {"dir": str(run_dir)},
    }
    data.update(overrides)
    return data


def read_ledger_array(path):
    """read_ledger with its rows as one (rows, columns) float array."""
    columns, rows = read_ledger(path)
    return columns, np.asarray(rows)


def write_config(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    """One full simulate/analyze/minimize/report chain with intermediate
    artifacts captured for later comparison."""
    root = tmp_path_factory.mktemp("pipeline")
    config_path = write_config(root / "config.json", make_config(root / "run"))
    run_dir = pipeline.cmd_simulate(config_path)
    paths = RunPaths(run_dir)
    record = {"root": root, "config_path": config_path, "run_dir": run_dir, "paths": paths}

    def grab(path):
        with open(path, "rb") as fh:
            return fh.read()

    record["snap0"] = grab(os.path.join(paths.snapshots, "snap_000000.nsel"))
    record["time_ledger"] = grab(paths.time_ledger)
    pipeline.cmd_analyze(run_dir)
    record["width_rows_pre_minimize"] = read_width_ledger(paths.width_ledger)
    record["analysis"] = grab(paths.analysis)
    pipeline.cmd_minimize(run_dir, oracle=True)
    record["minimize"] = grab(paths.minimize)
    record["width_ledger"] = grab(paths.width_ledger)
    pipeline.cmd_report(run_dir)
    record["summary"] = grab(os.path.join(paths.report_dir, "summary.json"))
    record["grab"] = grab
    return record


class TestSimulateStage:
    def test_artifacts_exist(self, completed):
        """simulate leaves config echo, state, snapshots and the time ledger."""
        paths = completed["paths"]
        assert os.path.exists(paths.config)
        assert os.path.exists(paths.state)
        assert os.path.exists(paths.time_ledger)
        assert len(list_snapshots(paths.snapshots)) == 11

    def test_state_records_run(self, completed):
        state = json.load(open(completed["paths"].state))
        assert state["status"] == "ok"
        assert state["stages"]["simulate"] is True
        assert state["snapshot_count"] == 11
        assert state["steps"] == 10

    def test_time_ledger_contents(self, completed):
        """Ledger times align with the snapshot files."""
        columns, data = read_ledger_array(completed["paths"].time_ledger)
        assert columns == TIME_COLUMNS
        assert data.shape == (11, 4)
        t0, fields = read_snapshot(
            os.path.join(completed["paths"].snapshots, "snap_000000.nsel")
        )
        assert data[0, 0] == t0 == 0.0
        assert fields.shape == (3, 16, 16, 16)
        assert np.all(np.diff(data[:, 0]) > 0)

    def test_config_echo_resolves_defaults(self, completed):
        """The persisted config parses back with every default made explicit."""
        echoed = json.load(open(completed["paths"].config))
        assert echoed["minimizer"]["oracle"] == {"iters": 2000, "starts": 3, "seed": 7}
        assert echoed["grid"]["snapshot_stride"] == 1

    def test_lock_blocks_concurrent_writer(self, completed, tmp_path, capsys):
        """While another process holds the run directory's flock every stage
        exits 1 naming the lock and leaves every artifact byte for byte."""
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        config_path = write_config(tmp_path / "cfg.json", make_config(run_dir))
        before = tree_bytes(run_dir, skip=())
        holder = hold_flock(run_dir)
        try:
            for argv in (["simulate", "--config", config_path], ["analyze", run_dir],
                         ["minimize", run_dir, "--oracle"], ["report", run_dir]):
                assert cli.main(argv) == 1
                assert "locked by another writer" in capsys.readouterr().err
        finally:
            holder.kill()
            holder.wait(timeout=10)
        assert tree_bytes(run_dir, skip=()) == before

    def test_killed_holder_releases_lock(self, completed, tmp_path, capsys):
        """The kernel drops the flock of a holder killed outright, so the
        next stage runs at once with nothing on stderr."""
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        holder = hold_flock(run_dir)
        holder.kill()  # SIGKILL
        holder.wait(timeout=10)
        assert cli.main(["report", run_dir]) == 0
        assert capsys.readouterr().err == ""

    def test_stray_lock_file_is_ignored(self, completed, tmp_path, capsys):
        """A `.lock` file naming a live pid, as older versions wrote, does not
        lock the run: the stage runs and leaves the file as it was."""
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        stray = os.path.join(run_dir, ".lock")
        with open(stray, "w", encoding="ascii") as fh:
            fh.write(f"{os.getppid()}\n")
        assert cli.main(["report", run_dir]) == 0
        assert capsys.readouterr().err == ""
        with open(stray, encoding="ascii") as fh:
            assert fh.read() == f"{os.getppid()}\n"

    def test_run_is_read_under_the_lock(self, completed, tmp_path, monkeypatch):
        """analyze and minimize read the run while they hold its lock, so a
        simulate rerun cannot land between their read and their write."""
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        held = []
        load_run = pipeline.load_run

        def load_run_noting_lock(path):
            held.append(not can_flock(path))
            return load_run(path)

        monkeypatch.setattr(pipeline, "load_run", load_run_noting_lock)
        pipeline.cmd_analyze(run_dir)
        pipeline.cmd_minimize(run_dir)
        assert held == [True, True]

    def test_lock_released(self, completed):
        """A completed stage leaves the run directory unlocked and no lock
        file in it."""
        assert can_flock(completed["run_dir"])
        assert not os.path.exists(os.path.join(completed["run_dir"], ".lock"))

    def test_output_root_override(self, tmp_path, monkeypatch):
        """NSLAB_OUT prefixes relative output directories end to end."""
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        config_path = write_config(
            tmp_path / "cfg.json",
            make_config("relative/run", grid={"n": 16, "nu": 0.05, "dt": 5e-3,
                                              "t_end": 0.01, "snapshot_stride": 1}),
        )
        run_dir = pipeline.cmd_simulate(config_path)
        assert run_dir == os.path.join(str(tmp_path), "relative/run")
        assert os.path.exists(os.path.join(run_dir, "config.json"))

    def test_output_root_argument(self, tmp_path, monkeypatch):
        """An explicit output root wins over the environment."""
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "ignored"))
        config_path = write_config(
            tmp_path / "cfg.json",
            make_config("arg/run", grid={"n": 16, "nu": 0.05, "dt": 5e-3,
                                         "t_end": 0.01, "snapshot_stride": 1}),
        )
        run_dir = pipeline.cmd_simulate(config_path, output_root=str(tmp_path / "explicit"))
        assert run_dir == os.path.join(str(tmp_path / "explicit"), "arg/run")


class TestStageOrdering:
    def test_analyze_needs_run_directory(self, tmp_path):
        with pytest.raises(PipelineError, match="not a run directory"):
            pipeline.cmd_analyze(tmp_path / "empty")

    def test_minimize_needs_analyze(self, tmp_path):
        """A freshly simulated run cannot jump straight to minimize."""
        config_path = write_config(
            tmp_path / "cfg.json", make_config(tmp_path / "run")
        )
        run_dir = pipeline.cmd_simulate(config_path)
        with pytest.raises(PipelineError, match="missing stage 'analyze'"):
            pipeline.cmd_minimize(run_dir)
        with pytest.raises(PipelineError, match="missing stage"):
            pipeline.cmd_report(run_dir)

    def test_rerun_stage_unmarks_later_stages(self, completed, tmp_path, capsys):
        """A rerun stage leaves the stages after it to be rerun as well.

        Otherwise report would trust the NaN minimizer cells that a second
        analyze writes to the width ledger.
        """
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        state_path = RunPaths(run_dir).state

        def stages():
            return set(json.load(open(state_path))["stages"])

        pipeline.cmd_minimize(run_dir)
        assert stages() == {"simulate", "analyze", "minimize"}
        pipeline.cmd_analyze(run_dir)
        assert stages() == {"simulate", "analyze"}
        with pytest.raises(PipelineError, match="missing stage 'minimize'"):
            pipeline.cmd_report(run_dir)
        assert cli.main(["report", run_dir]) == 1
        assert "missing stage 'minimize'" in capsys.readouterr().err

    def test_interrupted_simulate_rerun_unmarks_every_stage(
        self, completed, tmp_path, monkeypatch
    ):
        """A simulate rerun that stops after writing one snapshot leaves no
        stage marked, so report refuses the stale analysis and minimize
        records instead of condensing them; the previous snapshots stay as
        they were and no temporary entry is left behind."""
        run_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], run_dir)
        config_path = write_config(tmp_path / "cfg.json", make_config(run_dir))
        paths = RunPaths(str(run_dir))
        before = dir_bytes(paths.snapshots)
        interrupt_second_snapshot(monkeypatch)
        with pytest.raises(Interrupted):
            pipeline.cmd_simulate(config_path)
        assert json.load(open(paths.state))["stages"] == {}
        with pytest.raises(PipelineError, match="missing stage"):
            pipeline.cmd_report(str(run_dir))
        assert dir_bytes(paths.snapshots) == before
        assert no_temporaries(run_dir)

    def test_interrupted_minimize_rerun_keeps_minimizer(self, completed, tmp_path, monkeypatch):
        """A minimize rerun that stops after writing one v* snapshot leaves
        minimizer/ as it was, solution.json included, with no temporary
        entry, and minimize and report unmarked."""
        run_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], run_dir)
        paths = RunPaths(str(run_dir))
        before = dir_bytes(paths.minimizer_dir)
        interrupt_second_snapshot(monkeypatch)
        with pytest.raises(Interrupted):
            pipeline.cmd_minimize(str(run_dir))
        assert set(json.load(open(paths.state))["stages"]) == {"simulate", "analyze"}
        assert dir_bytes(paths.minimizer_dir) == before
        assert no_temporaries(run_dir)


def interrupt_second_snapshot(monkeypatch):
    """Make the second .nsel write of the next stage raise Interrupted."""
    written = []

    def write_one(path, time, field):
        if written:
            raise Interrupted(path)
        written.append(path)
        write_snapshot(path, time, field)

    monkeypatch.setattr(snapshots, "write_snapshot", write_one)


def dir_bytes(directory):
    names = os.listdir(directory)
    return {name: open(os.path.join(directory, name), "rb").read() for name in names}


def no_temporaries(run_dir):
    return not [name for name in os.listdir(run_dir) if name.endswith((".tmp", ".old"))]


def hold_flock(run_dir):
    """A child process that holds an exclusive flock on run_dir until killed."""
    script = (
        "import fcntl, os, sys, time\n"
        "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
        "fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
        "print('held', flush=True)\n"
        "time.sleep(600)\n"
    )
    child = subprocess.Popen([sys.executable, "-c", script, run_dir], stdout=subprocess.PIPE,
                             text=True)
    with child.stdout:
        assert child.stdout.readline() == "held\n"
    return child


def can_flock(run_dir):
    """Whether a fresh descriptor of run_dir can take its exclusive flock."""
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    finally:
        os.close(fd)
    return True


class TestAnalyzeStage:
    def test_width_ledger_before_minimize(self, completed):
        """analyze fills balance and defect columns; minimizer columns wait."""
        rows = completed["width_rows_pre_minimize"]
        assert len(rows) == 3
        assert [row["delta"] for row in rows] == [math.pi, math.pi / 2.0, math.pi / 4.0]
        for row in rows:
            assert np.isfinite(row["resolved_residual"])
            assert np.isfinite(row["defect_structure"])
            assert np.isfinite(row["defect_stress"])
            assert math.isnan(row["lambda"])
            assert math.isnan(row["basket_max_a"])

    def test_analysis_summary(self, completed):
        analysis = json.loads(completed["analysis"])
        assert analysis["schedule"] == [math.pi, math.pi / 2.0, math.pi / 4.0]
        assert analysis["initial_energy"] > 0.0
        assert analysis["total_dissipation"] > 0.0
        assert analysis["global_residual_max"] < 1e-6 * analysis["initial_energy"]
        assert len(analysis["balance"]) == 3
        defect = analysis["defect"]
        assert "error" not in defect
        assert len(defect["structure"]) == 3
        assert all(np.isfinite(v) for v in defect["structure"])
        assert all(np.isfinite(v) for v in defect["stress"])
        assert np.isfinite(defect["structure_limit"])
        assert np.isfinite(defect["stress_limit"])
        assert np.isfinite(defect["gap_rel"])
        assert "max_offsets" not in defect and "offsets" not in defect

    def test_stress_norm_order(self, completed):
        """analyze records the log-log slope of the stress norms over the
        schedule; report copies it as its stress_norm order, bit for bit."""
        analysis = json.loads(completed["analysis"])
        norms = [row["stress_norm"] for row in analysis["balance"]]
        order = spectral._fit_order(analysis["schedule"], norms)
        assert analysis["stress_norm_order"] == order and math.isfinite(order)
        assert json.loads(completed["summary"])["orders"]["stress_norm"] == order

    def test_stress_defect_is_negated_resolved_flux(self, completed):
        """The stress-strain defect and the resolved-balance flux are the
        same pairing <R, grad ubar> with opposite signs, two reductions of
        one stress assembly per (width, snapshot)."""
        analysis = json.loads(completed["analysis"])
        defect = analysis["defect"]
        flux = {row["delta"]: row["resolved_flux"] for row in analysis["balance"]}
        scale = max(abs(v) for v in flux.values())
        assert scale > 0.0
        for delta, stress in zip(defect["deltas"], defect["stress"]):
            assert abs(stress + flux[delta]) <= 1e-12 * scale

    def test_one_stress_per_pair(self, completed, tmp_path, monkeypatch):
        """analyze assembles one Reynolds stress per (width, snapshot) pair,
        3 widths x 11 snapshots, and samples grad(eta) once per width; its
        artifacts are unchanged."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        stress_calls = count_calls(monkeypatch, filtering.reynolds_stress_hat)
        sample_calls = count_calls(monkeypatch, dissipation._kernel_gradient_hat)
        pipeline.cmd_analyze(str(copy_dir))
        assert (len(stress_calls), len(sample_calls)) == (3 * 11, 3)
        analysis = completed["grab"](RunPaths(str(copy_dir)).analysis)
        assert analysis == completed["analysis"]


class TestMinimizeStage:
    def test_no_step_workspace_after_simulate(self, completed, tmp_path, monkeypatch):
        """analyze and minimize --oracle never build the solver's workspace."""
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        built = count_calls(monkeypatch, spectral.StepWorkspace)
        pipeline.cmd_analyze(run_dir)
        pipeline.cmd_minimize(run_dir, oracle=True)
        assert built == []

    def test_snapshots_released_before_oracle(self, completed, tmp_path, monkeypatch):
        """minimize --oracle drops the trajectory once the audit pass
        returns: the oracle and the minimizer/ writer run without the
        snapshot stack.  Its artifacts are unchanged."""
        run_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], run_dir)
        audited, alive = [], []

        audit_widths, oracle_mp = minimizer.audit_widths, minimizer.oracle_mp

        def audit(traj, *args):
            audited.append(weakref.ref(traj))
            return audit_widths(traj, *args)

        def oracle(*args, **kwargs):
            alive.append(audited[0]() is not None)
            return oracle_mp(*args, **kwargs)

        monkeypatch.setattr(minimizer, "audit_widths", audit)
        monkeypatch.setattr(minimizer, "oracle_mp", oracle)
        pipeline.cmd_minimize(run_dir, oracle=True)
        assert alive == [False]
        assert completed["grab"](RunPaths(run_dir).minimize) == completed["minimize"]

    def test_minimize_summary(self, completed):
        minimize = json.loads(completed["minimize"])
        assert len(minimize["records"]) == 3
        for rec in minimize["records"]:
            assert rec["lagrange_max_deviation"] < 1e-8
            assert rec["el_residual_max"] < 1e-8
            assert rec["boussinesq_el_max"] < 1e-8
            assert rec["energy_drop_residual"] < 1e-5
        assert minimize["radius_sq"] > 0.0
        weak = minimize["weak_convergence"]
        assert len(weak["deltas"]) == 3
        assert len(weak["a"]) == 3 and len(weak["a"][0]) == 4
        assert len(minimize["stress_limit"]["rows"]) == 3

    def test_oracle_record(self, completed):
        """--oracle cross-checks the closed form on the finest width."""
        oracle = json.loads(completed["minimize"])["oracle"]
        assert oracle is not None
        assert oracle["delta"] == math.pi / 4.0
        assert oracle["converged"] is True
        assert oracle["gap"] < 1e-10
        assert oracle["k_value"] == pytest.approx(oracle["k_value_closed_form"], rel=1e-9)

    def test_minimizer_snapshots(self, completed):
        """The finest-width minimizer is persisted snapshot-by-snapshot."""
        paths = completed["paths"]
        files = list_snapshots(paths.minimizer_dir)
        assert len(files) == 11
        t0, v0 = read_snapshot(files[0])
        assert t0 == 0.0
        assert v0.shape == (3, 16, 16, 16)
        sidecar = json.load(open(os.path.join(paths.minimizer_dir, "solution.json")))
        records = json.loads(completed["minimize"])["records"]
        assert sidecar["delta"] == records[-1]["delta"]
        assert sidecar["lambda"] == records[-1]["lambda"]
        assert sidecar["k_value"] == records[-1]["k_value"]

    def test_width_ledger_updated(self, completed):
        """minimize fills the columns analyze left as NaN."""
        rows = read_width_ledger(completed["paths"].width_ledger)
        for row in rows:
            assert np.isfinite(row["lambda"])
            assert np.isfinite(row["one_minus_two_lambda"])
            assert np.isfinite(row["basket_max_a"])
            assert np.isfinite(row["limit_dual_proxy"])
            assert row["one_minus_two_lambda"] == pytest.approx(
                1.0 - 2.0 * row["lambda"], rel=1e-12
            )

    def test_one_flux_and_stress_per_width(self, completed, tmp_path, monkeypatch):
        """minimize streams one Reynolds stress per (width, snapshot) pair,
        3 widths x 11 snapshots, and one product Pi per snapshot, with no
        stored flux and no solve_mp, with or without --oracle: the oracle
        takes the finest P div J that the audit pass formed."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        stress_calls = count_calls(monkeypatch, filtering.reynolds_stress_hat)
        product_calls = count_calls(monkeypatch, filtering.velocity_product_hat)
        flux_calls = count_calls(monkeypatch, minimizer.assemble_flux)
        solve_calls = count_calls(monkeypatch, minimizer.solve_mp)
        for oracle in (False, True):
            pipeline.cmd_minimize(str(copy_dir), oracle=oracle)
            assert (len(stress_calls), len(product_calls)) == (3 * 11, 11)
            assert (len(flux_calls), len(solve_calls)) == (0, 0)
            for log in (stress_calls, product_calls):
                log.clear()
        assert completed["grab"](RunPaths(str(copy_dir)).minimize) == completed["minimize"]


class TestAtomicWrites:
    def test_failed_json_write_keeps_previous_file(self, tmp_path):
        """A stage record whose serialization fails midway leaves the
        previous record intact and no temporary file behind."""
        path = tmp_path / "run.json"
        pipeline._write_json(str(path), {"stages": {"simulate": True}})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            pipeline._write_json(str(path), {"a": list(range(1000)), "b": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["run.json"]

    def test_failed_config_echo_keeps_previous_file(self, tmp_path):
        """The config echo is written the same way as the stage records."""
        path = tmp_path / "config.json"
        path.write_bytes(b"{}\n")
        broken = SimpleNamespace(to_dict=lambda: {"a": list(range(1000)), "b": object()})
        with pytest.raises(TypeError):
            dump_config(broken, str(path))
        assert path.read_bytes() == b"{}\n"
        assert os.listdir(tmp_path) == ["config.json"]


    def test_killed_writer_siblings_are_cleared(self, tmp_path):
        """A writer killed between the two renames leaves the complete
        directory as its .old sibling: the next write of that path renames it
        back before it starts, so a failed write leaves it in place, and
        removes the killed writer's .tmp."""
        path = tmp_path / "snapshots"
        old = tmp_path / "snapshots.old"
        old.mkdir()
        (old / "snap_000000.nsel").write_bytes(b"complete")
        (tmp_path / "snapshots.tmp").mkdir()
        with pytest.raises(Interrupted):
            with atomic_path(str(path)) as tmp:
                os.mkdir(tmp)
                raise Interrupted(tmp)
        assert os.listdir(tmp_path) == ["snapshots"]
        assert (path / "snap_000000.nsel").read_bytes() == b"complete"

    def test_stale_old_sibling_removed_when_path_exists(self, tmp_path):
        """With `path` in place a killed writer's .old is out of date and
        goes, as does its .tmp."""
        path = tmp_path / "analysis.json"
        path.write_bytes(b"previous")
        (tmp_path / "analysis.json.old").write_bytes(b"older")
        (tmp_path / "analysis.json.tmp").write_bytes(b"partial")
        with atomic_path(str(path)) as tmp, open(tmp, "wb") as fh:
            fh.write(b"new")
        assert os.listdir(tmp_path) == ["analysis.json"]
        assert path.read_bytes() == b"new"


def count_calls(monkeypatch, func):
    """Replace func in every nslab module that binds it; returns the call log."""
    log = []

    def counted(*args, **kwargs):
        log.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nslab" or name.startswith("nslab."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, counted)
    return log


class TestReportStage:
    def test_report_files(self, completed):
        report_dir = completed["paths"].report_dir
        for name in ("summary.json", "summary.txt", "energy.dat", "widths.dat"):
            assert os.path.exists(os.path.join(report_dir, name))
        state = json.load(open(completed["paths"].state))
        assert all(state["stages"].get(s) for s in ("simulate", "analyze", "minimize", "report"))

    def test_summary_json(self, completed):
        summary = json.loads(completed["summary"])
        assert summary["initial_energy"] > 0.0
        assert summary["global_residual_max_rel"] < 1e-6
        assert summary["resolved_residual_max_rel"] < 1e-5
        assert set(summary["orders"]) == {"stress_norm", "defect_structure", "defect_stress", "a", "b"}
        assert len(summary["minimizer"]) == 3
        assert summary["oracle"]["converged"] is True

    def test_summary_text(self, completed):
        text = open(os.path.join(completed["paths"].report_dir, "summary.txt")).read()
        assert text.startswith("run: ")
        assert "initial energy" in text
        assert "orders:" in text

    def test_dat_files(self, completed):
        """Plot files carry one comment header and all data rows."""
        report_dir = completed["paths"].report_dir
        energy = open(os.path.join(report_dir, "energy.dat")).read().splitlines()
        assert energy[0].startswith("# t  energy")
        assert len(energy) == 1 + 11
        widths = open(os.path.join(report_dir, "widths.dat")).read().splitlines()
        assert len(widths) == 1 + 3


class TestIdempotence:
    def test_rerun_reproduces_bytes(self, completed):
        """Re-running every stage rewrites byte-identical artifacts."""
        paths = completed["paths"]
        grab = completed["grab"]
        pipeline.cmd_simulate(completed["config_path"])
        assert grab(os.path.join(paths.snapshots, "snap_000000.nsel")) == completed["snap0"]
        assert grab(paths.time_ledger) == completed["time_ledger"]
        pipeline.cmd_analyze(completed["run_dir"])
        assert grab(paths.analysis) == completed["analysis"]
        pipeline.cmd_minimize(completed["run_dir"], oracle=True)
        assert grab(paths.minimize) == completed["minimize"]
        assert grab(paths.width_ledger) == completed["width_ledger"]
        pipeline.cmd_report(completed["run_dir"])
        assert grab(os.path.join(paths.report_dir, "summary.json")) == completed["summary"]


@pytest.fixture(scope="module")
def blown(tmp_path_factory):
    root = tmp_path_factory.mktemp("blowup")
    data = make_config(root / "run")
    data["init"] = {"kind": "taylor_green", "amplitude": 1e150}
    config_path = write_config(root / "cfg.json", data)
    with pytest.raises(BlowUpError) as err:
        pipeline.cmd_simulate(config_path)
    return str(root / "run"), err.value


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = write_config(root / "cfg.json", make_config(root / "run"))
    return root, config_path, str(root / "run")


class TestBlowUp:
    def test_partial_artifacts_kept(self, blown):
        """Snapshots up to the failure and the ledger survive the blow-up."""
        run_dir, err = blown
        paths = RunPaths(run_dir)
        assert len(list_snapshots(paths.snapshots)) >= 1
        assert os.path.exists(paths.time_ledger)
        state = json.load(open(paths.state))
        assert state["status"] == "blow_up"
        assert state["blow_up_step"] == err.step
        assert state["blow_up_time"] == err.time
        assert sorted(os.listdir(run_dir)) == ["config.json", "energy_time.csv", "run.json",
                                               "snapshots"]

    def test_blown_run_not_analyzable(self, blown):
        run_dir, _ = blown
        with pytest.raises(PipelineError, match="cannot analyze"):
            pipeline.cmd_analyze(run_dir)


def drop_time_column(paths):
    columns, data = read_ledger_array(paths.time_ledger)
    write_ledger(paths.time_ledger, columns[:-1], data[:, :-1])
    return paths.time_ledger


def change_width_delta(paths):
    columns, data = read_ledger_array(paths.width_ledger)
    data[1, columns.index("delta")] *= 1.0 + 2.0**-40
    write_ledger(paths.width_ledger, columns, data)
    return paths.width_ledger


def drop_width_row(paths):
    columns, data = read_ledger_array(paths.width_ledger)
    write_ledger(paths.width_ledger, columns, data[:-1])
    return paths.width_ledger


def remove_width_ledger(paths):
    os.unlink(paths.width_ledger)
    return paths.width_ledger


# damage -> (stage record, the key it drops as the error names it)
DROPPED_KEYS = {
    "drop_analysis_key": ("analysis", "balance"),
    "drop_structure_order": ("analysis", "defect.structure_order"),
    "drop_stress_order": ("analysis", "defect.stress_order"),
    "drop_stress_norm_order": ("analysis", "stress_norm_order"),
    "drop_row_stress_norm": ("analysis", "balance[1].stress_norm"),
    "drop_row_resolved_residual": ("analysis", "balance[0].resolved_residual"),
    "drop_order_a": ("minimize", "weak_convergence.order_a"),
    "drop_order_b": ("minimize", "weak_convergence.order_b"),
    "drop_monotone_a": ("minimize", "weak_convergence.monotone_a"),
    "drop_monotone_b": ("minimize", "weak_convergence.monotone_b"),
    "drop_final_a_normalized": ("minimize", "weak_convergence.final_a_normalized"),
}


def drop_json_key(path, key):
    """Delete a dotted key, with [i] for a list row, from a JSON record."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    *parents, last = [int(n) if n.isdigit() else n for n in re.findall(r"[^.\[\]]+", key)]
    node = record
    for name in parents:
        node = node[name]
    del node[last]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


# damage -> (stage record, the key it edits as the error names it, the edit)
MALFORMED_VALUES = {
    "empty_balance": ("analysis", "balance", lambda rows: []),
    "short_balance": ("analysis", "balance", lambda rows: rows[:2]),
    "text_stress_order": ("analysis", "defect.stress_order", lambda order: "x"),
    "text_stress_norm_order": ("analysis", "stress_norm_order", lambda order: "x"),
}


def edit_json_key(path, key, edit):
    """Replace the value at a dotted key of a JSON record by edit(value)."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    *parents, last = key.split(".")
    node = record
    for name in parents:
        node = node[name]
    node[last] = edit(node[last])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def remove_minimize_record(paths):
    os.unlink(paths.minimize)
    return paths.minimize


def remove_snapshots(paths):
    shutil.rmtree(paths.snapshots)
    return paths.snapshots


def nan_snapshot_sample(paths):
    victim = list_snapshots(paths.snapshots)[2]
    time, fields = read_snapshot(victim)
    fields[1, 2, 3, 4] = float("nan")
    write_snapshot(victim, time, fields)
    return victim


def directory_in_place_of(path):
    """Replace the file at path by an empty directory of its name."""
    os.unlink(path)
    os.mkdir(path)
    return path


def snapshots_as_file(paths):
    shutil.rmtree(paths.snapshots)
    with open(paths.snapshots, "wb"):
        pass
    return paths.snapshots


def snapshot_as_directory(paths):
    return directory_in_place_of(list_snapshots(paths.snapshots)[1])


# damage -> the RunPaths attribute of the file it turns into a directory
DIRECTORY_IN_PLACE = {
    "config_as_directory": "config",
    "time_ledger_as_directory": "time_ledger",
    "state_as_directory": "state",
    "analysis_as_directory": "analysis",
    "width_ledger_as_directory": "width_ledger",
}


CORRUPTIONS = {
    f.__name__: f
    for f in (
        drop_time_column,
        change_width_delta,
        drop_width_row,
        remove_width_ledger,
        remove_minimize_record,
        remove_snapshots,
        nan_snapshot_sample,
        snapshots_as_file,
        snapshot_as_directory,
    )
}
CORRUPTIONS.update(
    {
        damage: lambda paths, name=name: directory_in_place_of(getattr(paths, name))
        for damage, name in DIRECTORY_IN_PLACE.items()
    }
)
CORRUPTIONS.update(
    {
        damage: lambda paths, record=record, key=key: drop_json_key(getattr(paths, record), key)
        for damage, (record, key) in DROPPED_KEYS.items()
    }
)
CORRUPTIONS.update(
    {
        damage: lambda paths, record=record, key=key, edit=edit: edit_json_key(
            getattr(paths, record), key, edit
        )
        for damage, (record, key, edit) in MALFORMED_VALUES.items()
    }
)


def tree_bytes(root, skip=("run.json",)):
    """Every file under root but the top-level ones named in skip, by
    relative path, with its bytes."""
    found = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            if os.path.relpath(path, root) not in skip:
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, root)] = fh.read()
    return found


class TestCommandLine:
    def test_full_chain_exit_codes(self, cli_run, capsys):
        """simulate, analyze, minimize --oracle and report all exit 0."""
        root, config_path, run_dir = cli_run
        assert cli.main(["simulate", "--config", config_path]) == 0
        assert capsys.readouterr().out.strip() == run_dir
        assert cli.main(["analyze", run_dir]) == 0
        assert cli.main(["minimize", run_dir, "--oracle"]) == 0
        assert cli.main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "report written" in out

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_directory_is_input_error(self, tmp_path, capsys):
        """A config path that names a directory exits 2 naming it and
        writes nothing."""
        config_dir = tmp_path / "cfg.json"
        config_dir.mkdir()
        assert cli.main(["simulate", "--config", str(config_dir)]) == 2
        assert f"error: {config_dir}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert not any(config_dir.iterdir())

    def test_invalid_config_value(self, tmp_path, capsys):
        data = make_config(tmp_path / "run")
        data["grid"]["n"] = 15
        config_path = write_config(tmp_path / "bad.json", data)
        assert cli.main(["simulate", "--config", config_path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_run_dir_is_runtime_error(self, tmp_path, capsys):
        assert cli.main(["analyze", str(tmp_path / "ghost")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stage_order_is_runtime_error(self, cli_run, tmp_path, capsys):
        root, config_path, run_dir = cli_run
        fresh = write_config(
            tmp_path / "cfg.json", make_config(tmp_path / "fresh_run")
        )
        assert cli.main(["simulate", "--config", fresh]) == 0
        assert cli.main(["report", str(tmp_path / "fresh_run")]) == 1
        assert "missing stage" in capsys.readouterr().err

    def test_blow_up_exit_code(self, tmp_path, capsys):
        data = make_config(tmp_path / "run")
        data["init"] = {"kind": "taylor_green", "amplitude": 1e150}
        config_path = write_config(tmp_path / "cfg.json", data)
        assert cli.main(["simulate", "--config", config_path]) == 1
        assert "blew up" in capsys.readouterr().err

    def test_corrupt_snapshot_is_input_error(self, completed, tmp_path, capsys):
        """A damaged snapshot surfaces as a format error, exit code 2."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        victim = os.path.join(copy_dir, "snapshots", "snap_000000.nsel")
        raw = bytearray(open(victim, "rb").read())
        raw[:4] = b"XXXX"
        with open(victim, "wb") as fh:
            fh.write(raw)
        assert cli.main(["analyze", str(copy_dir)]) == 2
        assert "bad magic" in capsys.readouterr().err

    def test_grid_mismatch_is_input_error(self, completed, tmp_path, capsys):
        """Snapshots of another grid size are rejected when the run loads."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        config_path = os.path.join(copy_dir, "config.json")
        data = json.load(open(config_path))
        data["grid"]["n"] = 32
        write_config(config_path, data)
        assert cli.main(["analyze", str(copy_dir)]) == 2
        assert "grid mismatch" in capsys.readouterr().err

    def test_nonfinite_ledger_cell_is_input_error(self, completed, tmp_path, capsys):
        """A NaN energy in the time ledger stops the run at load time, exit 2,
        instead of reaching report as 'initial energy nan'."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        ledger = RunPaths(str(copy_dir)).time_ledger
        columns, data = read_ledger_array(ledger)
        data[0, 1] = float("nan")
        write_ledger(ledger, columns, data)
        assert cli.main(["analyze", str(copy_dir)]) == 2
        err = capsys.readouterr().err
        assert "energy_time.csv" in err and "non-finite energy" in err

    @pytest.mark.parametrize("damage", ["nan", "swap"])
    def test_bad_snapshot_times_are_input_error(self, completed, tmp_path, capsys, damage):
        """Snapshot times that are not finite and strictly increasing are
        rejected at load time, exit 2, naming the snapshots directory, even
        when the time ledger agrees with them."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        paths = RunPaths(str(copy_dir))
        columns, data = read_ledger_array(paths.time_ledger)
        files = list_snapshots(paths.snapshots)
        times = data[:, 0].copy()
        if damage == "nan":
            times[3] = float("nan")
        else:
            times[[3, 4]] = times[[4, 3]]
        for path, t in zip(files, times):
            write_snapshot(path, t, read_snapshot(path)[1])
        data[:, 0] = times
        write_ledger(paths.time_ledger, columns, data)
        assert cli.main(["analyze", str(copy_dir)]) == 2
        err = capsys.readouterr().err
        assert paths.snapshots in err and "bad times" in err

    @pytest.mark.parametrize("damage", ["shifted", "short"])
    def test_ledger_snapshot_disagreement_is_input_error(
        self, completed, tmp_path, capsys, damage
    ):
        """A time ledger whose times or row count disagree with the snapshots
        is a malformed ledger, exit 2, naming energy_time.csv."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        ledger = RunPaths(str(copy_dir)).time_ledger
        columns, data = read_ledger_array(ledger)
        if damage == "shifted":
            data[2, 0] += 1e-6
        else:
            data = data[:-1]
        write_ledger(ledger, columns, data)
        assert cli.main(["analyze", str(copy_dir)]) == 2
        assert "energy_time.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("record", ['[]', '"ok"', '{"status": "ok"}', '{"stages": []}'])
    def test_malformed_run_record_is_input_error(self, completed, tmp_path, capsys, record):
        """A run.json that is not an object with a 'stages' object exits 2,
        naming the file, instead of crashing the next stage."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        with open(RunPaths(str(copy_dir)).state, "w", encoding="utf-8") as fh:
            fh.write(record)
        assert cli.main(["analyze", str(copy_dir)]) == 2
        assert "run.json" in capsys.readouterr().err

    def test_malformed_run_record_stops_simulate_first(
        self, completed, tmp_path, capsys, monkeypatch
    ):
        """A simulate rerun reads run.json under the lock before it
        integrates, so a malformed one exits 2 naming the file at once and
        leaves every artifact byte for byte."""
        copy_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], copy_dir)
        with open(RunPaths(copy_dir).state, "w", encoding="utf-8") as fh:
            fh.write("[]")
        config_path = write_config(tmp_path / "cfg.json", make_config(copy_dir))
        before = tree_bytes(copy_dir, skip=())

        def no_simulate(grid, u0):
            raise AssertionError("integrated before reading run.json")

        monkeypatch.setattr(solver, "simulate", no_simulate)
        assert cli.main(["simulate", "--config", config_path]) == 2
        assert "run.json" in capsys.readouterr().err
        assert tree_bytes(copy_dir, skip=()) == before

    def test_damaged_stage_record_is_input_error(self, completed, tmp_path, capsys):
        """A damaged analysis.json exits 2 with an error naming the file."""
        copy_dir = tmp_path / "copy"
        shutil.copytree(completed["run_dir"], copy_dir)
        for damage in (b'{"schedule": [', b'{"schedule": "\xff"}'):
            with open(os.path.join(copy_dir, "analysis.json"), "wb") as fh:
                fh.write(damage)
            assert cli.main(["report", str(copy_dir)]) == 2
            assert "analysis.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, damage",
        [
            ("analyze", "drop_time_column"),
            ("minimize", "drop_time_column"),
            ("report", "drop_time_column"),
            ("minimize", "change_width_delta"),
            ("minimize", "drop_width_row"),
            ("report", "drop_width_row"),
            ("minimize", "remove_width_ledger"),
            ("report", "remove_minimize_record"),
            ("analyze", "remove_snapshots"),
            ("minimize", "remove_snapshots"),
            ("analyze", "nan_snapshot_sample"),
            ("analyze", "config_as_directory"),
            ("analyze", "time_ledger_as_directory"),
            ("analyze", "snapshots_as_file"),
            ("analyze", "snapshot_as_directory"),
            ("report", "state_as_directory"),
            ("report", "analysis_as_directory"),
            ("report", "width_ledger_as_directory"),
            *[("report", damage) for damage in DROPPED_KEYS],
            *[("report", damage) for damage in MALFORMED_VALUES],
        ],
    )
    def test_corrupt_stage_input_is_input_error(self, completed, tmp_path, capsys, stage, damage):
        """A stage input that is malformed, inconsistent with the run, or
        missing exits 2 naming the file, and a dropped key, before the stage
        writes anything: every artifact but run.json is left byte for byte
        as it was."""
        copy_dir = str(tmp_path / "copy")
        shutil.copytree(completed["run_dir"], copy_dir)
        victim = CORRUPTIONS[damage](RunPaths(copy_dir))
        before = tree_bytes(copy_dir)
        argv = [stage, copy_dir] + (["--oracle"] if stage == "minimize" else [])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert os.path.basename(victim) in err
        if damage in DROPPED_KEYS:
            assert f"missing key {DROPPED_KEYS[damage][1]!r}" in err
        if damage in MALFORMED_VALUES:
            assert repr(MALFORMED_VALUES[damage][1]) in err
        assert tree_bytes(copy_dir) == before

    def test_internal_value_error_propagates(self, completed, monkeypatch):
        """A ValueError that is not a bad-input error is a fault, not exit 2."""

        def broken(run_dir):
            raise ValueError("internal fault")

        monkeypatch.setattr(pipeline, "cmd_analyze", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["analyze", completed["run_dir"]])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_parser_help_names_commands(self):
        """The advertised grammar names every stage."""
        parser = cli.build_parser()
        text = parser.format_help()
        for word in ("simulate", "analyze", "minimize", "report", "verify"):
            assert word in text


# Prints the nslab modules and numpy a cli.main(argv) call leaves loaded.
IMPORT_PROBE = """
import json, sys
from nslab import cli
status = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "nslab")
print(json.dumps({"status": status, "loaded": loaded}))
"""
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
# Every home module of a moved exception class.
ERROR_HOMES = {
    "config": "ConfigError",
    "dissipation": "DissipationError",
    "spectral": "GridError",
    "filtering": "KernelError",
    "ledger": "LedgerError",
    "minimizer": "MinimizerError",
    "snapshots": "SnapshotFormatError",
    "solver": "BlowUpError",
    "pipeline": "PipelineError",
}


def loaded_by(*argv):
    """The modules a fresh interpreter has loaded after cli.main(argv) exits 0."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == 0, out.stderr
    return set(record["loaded"])


@pytest.fixture(scope="module")
def stage_imports(tmp_path_factory):
    """stage -> the modules its process loads, over one fresh run."""
    root = tmp_path_factory.mktemp("imports")
    run_dir = str(root / "run")
    config_path = write_config(root / "config.json", make_config(run_dir))
    return {
        "simulate": loaded_by("simulate", "--config", config_path),
        "analyze": loaded_by("analyze", run_dir),
        "minimize": loaded_by("minimize", run_dir, "--oracle"),
        "report": loaded_by("report", run_dir),
    }


class TestStageImports:
    """Each stage process loads only the modules it runs."""

    def test_report_loads_no_numpy(self, stage_imports):
        assert stage_imports["report"] == {
            "nslab", "nslab.cli", "nslab.errors", "nslab.ledger", "nslab.pipeline"
        }

    def test_simulate_loads_no_minimizer_or_estimators(self, stage_imports):
        assert "nslab.solver" in stage_imports["simulate"]
        assert not {"nslab.minimizer", "nslab.dissipation"} & stage_imports["simulate"]

    def test_simulate_loads_only_what_it_runs(self, stage_imports):
        """Parsing the config loads no basket, windows or filtering."""
        assert stage_imports["simulate"] == {
            "nslab", "nslab.cli", "nslab.config", "nslab.errors", "nslab.ledger",
            "nslab.pipeline", "nslab.snapshots", "nslab.solver", "nslab.spectral", "numpy",
        }

    def test_analyze_loads_no_minimizer(self, stage_imports):
        assert "nslab.dissipation" in stage_imports["analyze"]
        assert "nslab.minimizer" not in stage_imports["analyze"]

    def test_minimize_loads_no_estimators(self, stage_imports):
        assert "nslab.minimizer" in stage_imports["minimize"]
        assert "nslab.dissipation" not in stage_imports["minimize"]

    def test_import_package_loads_no_submodule(self):
        probe = "import sys, nslab; print(sorted(m for m in sys.modules if m.startswith('nslab')))"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "['nslab']"

    def test_every_export_is_its_defining_modules_object(self):
        import nslab

        assert sorted(nslab.__all__) == sorted(set(nslab.__all__))
        for name in nslab.__all__:
            value = getattr(nslab, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert name in dir(nslab)
        with pytest.raises(AttributeError):
            nslab.no_such_name  # noqa: B018

    def test_moved_exceptions_are_reexported(self):
        from nslab import errors

        for module, name in ERROR_HOMES.items():
            home = importlib.import_module(f"nslab.{module}")
            assert getattr(home, name) is getattr(errors, name), name
