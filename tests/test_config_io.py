"""Tests for run configuration, binary snapshots and CSV ledgers.

Validates:
- strict config parsing: defaults, unknown-key rejection at every level,
  sections that are not objects (falsy ones included) rejected by name,
  type and finiteness checks, per-kind initial-condition requirements, and
  cross-validation against grid/filter/basket rules, including the
  three-width minimum of the filter schedule
- output-directory resolution including the NSLAB_OUT override
- config file round trips and deterministic dumps
- .nsel snapshot round trips are bit exact, the on-disk layout is the
  documented x1-fastest order, and every malformed-file class is rejected
  with a named reason; a snapshot series is written and replaced as a whole
  directory, and a failed write keeps the previous series
- ledger schema line, 17-significant-digit float round trips, fixed column
  tuples, NaN padding for missing keys, byte-identical rewrites, and
  atomic replacement (a failed write keeps the previous file)
"""

import json
import math
import os
import struct

import numpy as np
import pytest

from nslab import cli
from nslab.config import (
    SCHEMA,
    ConfigError,
    OUTPUT_ROOT_ENV,
    dump_config,
    load_config,
    parse_config,
)
from nslab.ledger import (
    LedgerError,
    SCHEMA_LINE,
    TIME_COLUMNS,
    WIDTH_COLUMNS,
    format_float,
    read_ledger,
    read_width_ledger,
    write_ledger,
    write_time_ledger,
    write_width_ledger,
)
from nslab.snapshots import (
    MAGIC,
    SNAPSHOT_PATTERN,
    SnapshotFormatError,
    VERSION,
    list_snapshots,
    read_series,
    read_snapshot,
    snapshot_path,
    write_series,
    write_snapshot,
)
from nslab.solver import InitialCondition, make_initial, simulate
from nslab.spectral import Grid


def base_config():
    """A minimal valid configuration; filters fit the 16^3 grid."""
    return {
        "grid": {"n": 16, "nu": 0.05, "dt": 0.1, "t_end": 1.0, "snapshot_stride": 5},
        "init": {"kind": "taylor_green", "amplitude": 0.7},
        "filters": {"delta0": math.pi, "count": 3},
        "output": {"dir": "runs/example"},
    }


class TestConfigParsing:
    def test_minimal_config_and_defaults(self):
        """Omitted optional sections fall back to the documented defaults."""
        cfg = parse_config(base_config())
        assert cfg.grid["n"] == 16
        assert cfg.grid["snapshot_stride"] == 5
        assert cfg.init["kind"] == "taylor_green"
        assert cfg.init["amplitude"] == 0.7
        assert cfg.init["seed"] is None
        assert cfg.filters["count"] == 3
        assert cfg.minimizer["radius_override"] is None
        assert cfg.minimizer["oracle"] == {"iters": 2000, "starts": 3, "seed": 7}
        assert cfg.basket["seed"] == 2025
        assert cfg.basket["size"] == 12
        assert cfg.basket["max_mode"] == 2
        assert cfg.output["dir"] == "runs/example"

    def test_grid_and_schedule_constructors(self):
        """The parsed config builds the library objects it promises."""
        cfg = parse_config(base_config())
        grid = cfg.make_grid()
        assert isinstance(grid, Grid)
        assert grid.n == 16 and grid.nu == 0.05
        widths = cfg.make_schedule(grid)
        assert widths == [math.pi, math.pi / 2.0, math.pi / 4.0]
        basket = cfg.make_basket(grid)
        assert len(basket) == 12
        ic = cfg.make_initial_condition()
        assert isinstance(ic, InitialCondition)
        assert ic.kind == "taylor_green"

    def test_random_band_round_trip(self):
        """random_band carries its four extra keys through to_dict and back."""
        data = base_config()
        data["init"] = {
            "kind": "random_band",
            "amplitude": 0.4,
            "seed": 3,
            "slope": -1.0,
            "k_min": 1,
            "k_max": 3,
        }
        data["minimizer"] = {"radius_override": 2.5, "oracle": {"iters": 500}}
        cfg = parse_config(data)
        again = parse_config(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected_everywhere(self):
        """Every level of the tree rejects keys it does not define."""
        for path, key in [
            ((), "extra"),
            (("grid",), "m"),
            (("init",), "phase"),
            (("filters",), "kind"),
            (("minimizer",), "tol"),
            (("minimizer", "oracle"), "momentum"),
            (("basket",), "window"),
            (("output",), "format"),
        ]:
            data = base_config()
            data.setdefault("minimizer", {"oracle": {}})
            data.setdefault("basket", {})
            node = data
            for part in path:
                node = node.setdefault(part, {})
            node[key] = 1
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(data)

    def test_missing_required_keys(self):
        """grid.n, init.kind and output.dir cannot be defaulted."""
        for section, key in [("grid", "n"), ("init", "kind"), ("output", "dir")]:
            data = base_config()
            del data[section][key]
            with pytest.raises(ConfigError, match=f"{section}.{key}"):
                parse_config(data)

    def test_type_errors(self):
        """Booleans are not integers, strings are not numbers."""
        data = base_config()
        data["grid"]["n"] = True
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config(data)
        data = base_config()
        data["grid"]["nu"] = "thick"
        with pytest.raises(ConfigError, match="grid.nu"):
            parse_config(data)
        data = base_config()
        data["output"]["dir"] = 7
        with pytest.raises(ConfigError, match="output.dir"):
            parse_config(data)

    def test_nonfinite_rejected(self):
        """Infinite numerics cannot drive a run."""
        data = base_config()
        data["grid"]["t_end"] = float("inf")
        with pytest.raises(ConfigError, match="not finite"):
            parse_config(data)

    def test_unknown_init_kind(self):
        data = base_config()
        data["init"]["kind"] = "vortex_sheet"
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config(data)

    def test_random_band_requires_band_keys(self):
        """seed, slope, k_min and k_max are all mandatory for random_band."""
        for missing in ("seed", "slope", "k_min", "k_max"):
            data = base_config()
            data["init"] = {
                "kind": "random_band",
                "amplitude": 0.4,
                "seed": 3,
                "slope": -1.0,
                "k_min": 1,
                "k_max": 3,
            }
            del data["init"][missing]
            with pytest.raises(ConfigError, match=missing):
                parse_config(data)

    def test_band_keys_forbidden_elsewhere(self):
        """Band parameters on a deterministic kind are a config error."""
        data = base_config()
        data["init"]["slope"] = -2.0
        with pytest.raises(ConfigError, match="only valid for random_band"):
            parse_config(data)

    def test_minimizer_validation(self):
        data = base_config()
        data["minimizer"] = {"radius_override": -1.0, "oracle": {}}
        with pytest.raises(ConfigError, match="radius_override"):
            parse_config(data)
        data = base_config()
        data["minimizer"] = {"oracle": {"iters": 0}}
        with pytest.raises(ConfigError, match="iters and starts"):
            parse_config(data)

    def test_empty_output_dir(self):
        data = base_config()
        data["output"]["dir"] = ""
        with pytest.raises(ConfigError, match="output.dir"):
            parse_config(data)

    def test_cross_validation_against_grid_rules(self):
        """Bad grids, bands, schedules and baskets fail at load time."""
        data = base_config()
        data["grid"]["n"] = 15
        with pytest.raises(ConfigError):
            parse_config(data)
        data = base_config()
        data["init"] = {
            "kind": "random_band",
            "amplitude": 0.4,
            "seed": 3,
            "slope": -1.0,
            "k_min": 1,
            "k_max": 10,
        }
        with pytest.raises(ConfigError, match="outside"):
            parse_config(data)
        data = base_config()
        data["filters"] = {"delta0": math.pi / 8.0, "count": 3}
        with pytest.raises(ConfigError, match="outside the representable band"):
            parse_config(data)
        data = base_config()
        data["basket"] = {"max_mode": 9}
        with pytest.raises(ConfigError, match="basket"):
            parse_config(data)

    def test_config_not_mapping(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config([1, 2, 3])

    def test_falsy_section_is_not_omitted(self, tmp_path, capsys):
        """A section or subsection given as null, 0, 0.0, "" or [] is a
        malformed section, not an omitted one: it is rejected by name, and
        the CLI exits 2 before any stage runs."""
        sections = [(name,) for name in SCHEMA] + [("minimizer", "oracle")]
        for path in sections:
            for value in (None, 0, 0.0, "", []):
                data = base_config()
                data["minimizer"] = {"oracle": {}}
                node = data
                for part in path[:-1]:
                    node = node[part]
                node[path[-1]] = value
                where = ".".join(path)
                with pytest.raises(ConfigError, match=rf"^{where}: expected an object$"):
                    parse_config(data)
        data = base_config()
        data["basket"] = 0
        data["output"]["dir"] = str(tmp_path / "run")
        config_path = tmp_path / "falsy_basket.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(config_path)]) == 2
        assert "basket: expected an object" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestOutputResolution:
    def test_absolute_dir_passthrough(self, monkeypatch):
        """Absolute output paths ignore the environment root."""
        monkeypatch.setenv(OUTPUT_ROOT_ENV, "/somewhere/else")
        data = base_config()
        data["output"]["dir"] = "/abs/runs/x"
        cfg = parse_config(data)
        assert cfg.resolve_output_dir() == "/abs/runs/x"

    def test_env_root_applied(self, monkeypatch, tmp_path):
        """NSLAB_OUT prefixes relative output directories."""
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = parse_config(base_config())
        assert cfg.resolve_output_dir() == os.path.join(str(tmp_path), "runs/example")

    def test_default_root_is_cwd(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        cfg = parse_config(base_config())
        assert cfg.resolve_output_dir() == os.path.join(".", "runs/example")

    def test_explicit_root_wins(self, monkeypatch):
        """A root passed by the caller overrides the environment."""
        monkeypatch.setenv(OUTPUT_ROOT_ENV, "/env/root")
        cfg = parse_config(base_config())
        assert cfg.resolve_output_dir(root="/caller") == os.path.join("/caller", "runs/example")


class TestConfigFiles:
    def test_file_round_trip(self, tmp_path):
        """dump_config followed by load_config reproduces the dataclass."""
        cfg = parse_config(base_config())
        path = tmp_path / "run.json"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    def test_dump_deterministic(self, tmp_path):
        """Two dumps of the same config are byte identical."""
        cfg = parse_config(base_config())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_config(cfg, p1)
        dump_config(cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_fewer_than_three_widths_rejected(self, tmp_path, capsys):
        """The defect fit and the refinement trends need three widths, so a
        two-width schedule fails at load time with exit code 2, before any
        stage runs."""
        data = base_config()
        data["filters"]["count"] = 2
        data["output"]["dir"] = str(tmp_path / "run")
        path = tmp_path / "two_widths.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match="filters.count: need at least three widths"):
            load_config(path)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "filters.count" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_fewer_than_three_snapshots_rejected(self, tmp_path, capsys):
        """Basket windows vanish at t = 0 and t = t_end, so a run with two
        snapshots has no pairing to test; it fails at load time with exit
        code 2, before any stage runs.  Three snapshots load."""
        data = base_config()
        data["grid"].update({"dt": 5e-3, "t_end": 0.01, "snapshot_stride": 2})
        data["output"]["dir"] = str(tmp_path / "run")
        path = tmp_path / "two_snapshots.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match="2 snapshots; need at least three"):
            load_config(path)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "snapshots" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        data["grid"]["snapshot_stride"] = 1
        assert parse_config(data).make_grid().steps == 2

    def test_readme_example_loads(self):
        """The example config in README.md parses as shown."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(json.loads(block))
        assert cfg.make_grid().n == 32

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
        path.write_bytes(b'{"grid": "\xff"}')
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_dump_is_valid_json(self, tmp_path):
        path = tmp_path / "run.json"
        dump_config(parse_config(base_config()), path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["grid"]["n"] == 16


@pytest.fixture(scope="module")
def sample_fields():
    rng = np.random.default_rng(123)
    return rng.standard_normal((3, 16, 16, 16))


GRID16 = Grid(n=16, nu=0.05, dt=5e-3, t_end=0.05, snapshot_stride=5)


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path, sample_fields):
        """Arbitrary float64 fields survive a write/read cycle unchanged."""
        path = tmp_path / "snap_000000.nsel"
        write_snapshot(path, 0.125, sample_fields)
        time, fields = read_snapshot(path)
        assert time == 0.125
        assert fields.dtype == np.float64
        assert np.array_equal(fields, sample_fields)

    def test_header_layout(self, tmp_path, sample_fields):
        """The 24-byte header is magic, version, n, ncomp, time."""
        path = tmp_path / "s.nsel"
        write_snapshot(path, 2.5, sample_fields)
        head = path.read_bytes()[:24]
        magic, version, n, ncomp, time = struct.unpack("<4sIIId", head)
        assert magic == MAGIC == b"NSEL"
        assert version == VERSION == 1
        assert (n, ncomp, time) == (16, 3, 2.5)

    def test_payload_is_x1_fastest(self, tmp_path, sample_fields):
        """On disk the x1 index varies fastest: payload = fields[c, x3, x2, x1]."""
        path = tmp_path / "s.nsel"
        write_snapshot(path, 0.0, sample_fields)
        payload = np.frombuffer(path.read_bytes()[24:], dtype="<f8")
        expected = sample_fields.transpose(0, 3, 2, 1).ravel()
        assert np.array_equal(payload, expected)
        assert payload.size == 3 * 16**3

    def test_write_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="expected"):
            write_snapshot(tmp_path / "x.nsel", 0.0, np.zeros((16, 16, 16)))
        with pytest.raises(ValueError, match="expected"):
            write_snapshot(tmp_path / "x.nsel", 0.0, np.zeros((3, 16, 16, 8)))

    def test_bad_magic(self, tmp_path, sample_fields):
        path = tmp_path / "s.nsel"
        write_snapshot(path, 0.0, sample_fields)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XSEL"
        path.write_bytes(raw)
        with pytest.raises(SnapshotFormatError, match="bad magic") as err:
            read_snapshot(path)
        assert err.value.reason == "bad magic"

    def test_unsupported_version(self, tmp_path, sample_fields):
        path = tmp_path / "s.nsel"
        write_snapshot(path, 0.0, sample_fields)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(raw)
        with pytest.raises(SnapshotFormatError, match="unsupported version"):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.nsel"
        path.write_bytes(b"NSEL\x01")
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, sample_fields):
        path = tmp_path / "s.nsel"
        write_snapshot(path, 0.0, sample_fields)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SnapshotFormatError, match="size mismatch"):
            read_snapshot(path)

    def test_trailing_bytes(self, tmp_path, sample_fields):
        path = tmp_path / "s.nsel"
        write_snapshot(path, 0.0, sample_fields)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(SnapshotFormatError, match="trailing bytes"):
            read_snapshot(path)

    def test_empty_dimensions(self, tmp_path):
        path = tmp_path / "s.nsel"
        path.write_bytes(struct.pack("<4sIIId", b"NSEL", 1, 0, 3, 0.0))
        with pytest.raises(SnapshotFormatError, match="empty dimensions"):
            read_snapshot(path)

    def test_snapshot_path_naming(self, tmp_path):
        assert snapshot_path(tmp_path, 7) == os.path.join(tmp_path, "snap_000007.nsel")
        assert SNAPSHOT_PATTERN % 0 == "snap_000000.nsel"

    def test_index_gap_detected(self, tmp_path, sample_fields):
        """Directories with a missing index cannot be read as a trajectory."""
        write_snapshot(snapshot_path(tmp_path, 0), 0.0, sample_fields)
        write_snapshot(snapshot_path(tmp_path, 2), 0.2, sample_fields)
        with pytest.raises(SnapshotFormatError, match="index gap"):
            list_snapshots(tmp_path)
        with pytest.raises(SnapshotFormatError, match="index gap"):
            read_series(tmp_path, GRID16)

    def test_foreign_files_ignored(self, tmp_path, sample_fields):
        """Only snap_NNNNNN.nsel names participate in the listing."""
        write_snapshot(snapshot_path(tmp_path, 0), 0.0, sample_fields)
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "snap_1.nsel").write_text("wrong digits")
        assert list_snapshots(tmp_path) == [snapshot_path(tmp_path, 0)]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no snapshots"):
            read_series(tmp_path, GRID16)

    def test_unequal_snapshot_shapes(self, tmp_path, sample_fields):
        """A snapshot of another size than the grid's is a format error."""
        write_snapshot(snapshot_path(tmp_path, 0), 0.0, sample_fields)
        write_snapshot(snapshot_path(tmp_path, 1), 0.1, sample_fields[:, :4, :4, :4])
        with pytest.raises(SnapshotFormatError, match="grid mismatch"):
            read_series(tmp_path, GRID16)

    def test_trajectory_round_trip(self, tmp_path):
        """A simulated trajectory dumps its real-space samples bit for bit and
        reloads them as the same spectral fields."""
        grid = GRID16
        ic = InitialCondition(kind="taylor_green", amplitude=0.8)
        traj = simulate(grid, make_initial(grid, ic))
        out = tmp_path / "snapshots"
        write_series(out, grid, traj.times, traj.u_hats)
        assert os.listdir(tmp_path) == ["snapshots"]
        files = list_snapshots(out)
        assert len(files) == len(traj)
        for i, path in enumerate(files):
            time, fields = read_snapshot(path)
            assert time == traj.times[i]
            assert np.array_equal(fields, grid.inverse(traj.u_hats[i]))
        times, u_hats = read_series(out, grid)
        assert np.array_equal(times, traj.times)
        for i in range(len(traj)):
            assert np.array_equal(u_hats[i], grid.forward(grid.inverse(traj.u_hats[i])))

    def test_series_rewrite_replaces_directory(self, tmp_path, sample_fields):
        """A rewrite replaces the whole directory: a shorter series leaves no
        file of the longer one behind."""
        out = tmp_path / "snapshots"
        u_hats = [GRID16.forward(sample_fields * (i + 1)) for i in range(3)]
        write_series(out, GRID16, [0.0, 0.1, 0.2], u_hats)
        (out / "notes.txt").write_text("stale")
        write_series(out, GRID16, [0.0, 0.1], u_hats[:2])
        assert sorted(os.listdir(out)) == ["snap_000000.nsel", "snap_000001.nsel"]
        assert os.listdir(tmp_path) == ["snapshots"]

    @pytest.mark.parametrize("damage", ["interrupted", "short"])
    def test_failed_series_write_keeps_previous_series(self, tmp_path, sample_fields, damage):
        """A series write that fails midway -- an error while the fields are
        produced, or fewer fields than times -- keeps the previous series
        byte for byte and leaves no temporary entry."""
        out = tmp_path / "snapshots"
        u_hat = GRID16.forward(sample_fields)
        write_series(out, GRID16, [0.0, 0.1, 0.2], [u_hat, 2 * u_hat, 3 * u_hat])
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}

        def fields():
            yield u_hat
            if damage == "interrupted":
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt if damage == "interrupted" else ValueError):
            write_series(out, GRID16, [0.0, 0.1, 0.2], fields())
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        assert os.listdir(tmp_path) == ["snapshots"]


class TestFloatFormatting:
    def test_round_trip_exact(self):
        """17 significant digits reproduce every double bit-for-bit."""
        rng = np.random.default_rng(9)
        values = list(rng.standard_normal(200)) + [
            1.0 / 3.0,
            0.1,
            1e-300,
            -1e300,
            2.0**-52,
            math.pi,
            0.0,
        ]
        for x in values:
            assert float(format_float(x)) == x

    def test_nan_spelled_out(self):
        assert format_float(float("nan")) == "nan"
        assert math.isnan(float(format_float(float("nan"))))


class TestLedgers:
    def test_round_trip(self, tmp_path):
        """Columns and float data survive a write/read cycle exactly."""
        path = tmp_path / "ledger.csv"
        columns = ("a", "b", "c")
        rows = [(1.0, 1.0 / 3.0, -2.5e-8), (4.0, float("nan"), 1e300)]
        write_ledger(path, columns, rows)
        got_columns, data = read_ledger(path)
        assert got_columns == columns
        assert data.shape == (2, 3)
        assert data[0, 1] == 1.0 / 3.0
        assert math.isnan(data[1, 1])
        assert data[1, 2] == 1e300

    def test_schema_line_first(self, tmp_path):
        path = tmp_path / "ledger.csv"
        write_ledger(path, ("a",), [(1.0,)])
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == SCHEMA_LINE == "# nslab csv schema 1"

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("# nslab csv schema 2\na\n1.0\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="unknown ledger schema"):
            read_ledger(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text(SCHEMA_LINE + "\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="missing header"):
            read_ledger(path)

    def test_row_width_checked_on_write(self, tmp_path):
        with pytest.raises(LedgerError, match="row width"):
            write_ledger(tmp_path / "ledger.csv", ("a", "b"), [(1.0,)])

    def test_failed_write_keeps_previous_file(self, tmp_path):
        """A write that fails after some rows leaves the old ledger intact
        and no temporary file behind."""
        path = tmp_path / "ledger.csv"
        write_ledger(path, ("a", "b"), [(1.0, 2.0)])
        before = path.read_bytes()
        with pytest.raises(LedgerError, match="row width"):
            write_ledger(path, ("a", "b"), [(3.0, 4.0)] * 1000 + [(5.0,)])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ledger.csv"]

    def test_row_width_checked_on_read(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text(SCHEMA_LINE + "\na,b\n1.0\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="row width"):
            read_ledger(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        """A damaged cell is a ledger error naming the file, not a bare ValueError."""
        path = tmp_path / "ledger.csv"
        path.write_text(SCHEMA_LINE + "\na,b\n1.0,x\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="ledger.csv: non-numeric"):
            read_ledger(path)
        path.write_bytes(SCHEMA_LINE.encode() + b"\na,b\n1.0,\xff\n")
        with pytest.raises(LedgerError, match="ledger.csv: non-numeric"):
            read_ledger(path)

    def test_empty_data(self, tmp_path):
        path = tmp_path / "ledger.csv"
        write_ledger(path, ("a", "b"), [])
        columns, data = read_ledger(path)
        assert columns == ("a", "b")
        assert data.shape == (0, 2)

    def test_time_ledger_columns(self, tmp_path):
        path = tmp_path / "time.csv"
        write_time_ledger(path, [0.0, 0.1], [1.0, 0.9], [0.0, 0.1], [0.0, 1e-9])
        columns, data = read_ledger(path)
        assert columns == TIME_COLUMNS
        assert data.shape == (2, 4)

    def test_width_ledger_nan_padding(self, tmp_path):
        """Keys absent from a row dict surface as NaN in their column."""
        path = tmp_path / "width.csv"
        write_width_ledger(path, [{"delta": math.pi, "lambda": -0.5}])
        rows = read_width_ledger(path)
        assert len(rows) == 1
        assert rows[0]["delta"] == math.pi
        assert rows[0]["lambda"] == -0.5
        assert math.isnan(rows[0]["defect_structure"])
        assert set(rows[0]) == set(WIDTH_COLUMNS)

    def test_width_ledger_rejects_other_columns(self, tmp_path):
        path = tmp_path / "time.csv"
        write_time_ledger(path, [0.0], [1.0], [0.0], [0.0])
        with pytest.raises(LedgerError, match="width-ledger columns"):
            read_width_ledger(path)

    def test_rewrite_byte_identical(self, tmp_path):
        """The same rows always serialize to the same bytes."""
        rows = [
            {c: float(i + j) / 7.0 for j, c in enumerate(WIDTH_COLUMNS)}
            for i in range(3)
        ]
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_width_ledger(p1, rows)
        write_width_ledger(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
