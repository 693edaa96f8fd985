"""Strict JSON run configuration.

One file drives the whole pipeline.  Parsing is strict: unknown keys are
errors at every level, required keys must be present, and grid/filter/basket
values are validated against the same rules the library enforces, so a
config that loads is a config that runs.  `SCHEMA` is the key tree.

`NSLAB_OUT` overrides the root under which relative output.dir paths are
created.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError, KernelError
from .ledger import atomic_open
from .solver import InitialCondition, shell_targets
from .spectral import VOLUME, Grid, GridError, width_schedule

OUTPUT_ROOT_ENV = "NSLAB_OUT"

REQUIRED = object()

# build_basket's defaults.  basket reads them from here, so that parsing a
# config (simulate's first step) need not import basket.
BASKET_SEED = 2025
BASKET_SIZE = 12
BASKET_MAX_MODE = 2

# section -> key -> (type, default); a nested mapping is a subsection.  A
# default of REQUIRED makes the key mandatory; None makes it optional and
# leaves it out of the echo when absent.  The keys are the parameter names of
# Grid, InitialCondition, build_basket and oracle_mp.
SCHEMA = {
    "grid": {
        "n": (int, REQUIRED),
        "nu": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "t_end": (float, REQUIRED),
        "snapshot_stride": (int, 10),
    },
    "init": {
        "kind": (str, REQUIRED),
        "amplitude": (float, 1.0),
        "seed": (int, None),
        "slope": (float, None),
        "k_min": (int, None),
        "k_max": (int, None),
    },
    "filters": {"delta0": (float, math.pi / 4), "count": (int, 3)},
    "minimizer": {
        "radius_override": (float, None),
        "oracle": {"iters": (int, 2000), "starts": (int, 3), "seed": (int, 7)},
    },
    "basket": {
        "seed": (int, BASKET_SEED),
        "size": (int, BASKET_SIZE),
        "max_mode": (int, BASKET_MAX_MODE),
    },
    "output": {"dir": (str, REQUIRED)},
}

_BAND_KEYS = ("seed", "slope", "k_min", "k_max")


def _require_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return value


def _typed(value, kind, where):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{where}: not finite")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _reject_unknown(mapping, where):
    if mapping:
        raise ConfigError(f"{where}: unknown key(s) {sorted(mapping)}")


def _walk(schema, raw, where=""):
    """Type a tree of SCHEMA, filling defaults; `where` is its dotted path."""
    raw = dict(_require_mapping(raw, where or "config"))
    out = {}
    for key, spec in schema.items():
        path = f"{where}.{key}" if where else key
        if isinstance(spec, dict):
            out[key] = _walk(spec, raw.pop(key) if key in raw else {}, path)
        elif key in raw:
            out[key] = _typed(raw.pop(key), spec[0], path)
        elif spec[1] is REQUIRED:
            raise ConfigError(f"{path}: missing")
        else:
            out[key] = spec[1]
    _reject_unknown(raw, where or "config")
    return out


def _drop_none(section):
    return {
        key: _drop_none(value) if isinstance(value, dict) else value
        for key, value in section.items()
        if value is not None
    }


@dataclass(frozen=True)
class RunConfig:
    """A parsed config: one mapping per SCHEMA section, keyed as in the file."""

    grid: dict
    init: dict
    filters: dict
    minimizer: dict
    basket: dict
    output: dict

    def make_grid(self):
        return Grid(**self.grid)

    def make_initial_condition(self):
        return InitialCondition(**self.init)

    def make_schedule(self, grid):
        return width_schedule(grid, self.filters["delta0"], self.filters["count"])

    def make_basket(self, grid):
        from .basket import build_basket

        return build_basket(grid, t_end=self.grid["t_end"], **self.basket)

    def resolve_output_dir(self, root=None):
        output_dir = self.output["dir"]
        if os.path.isabs(output_dir):
            return output_dir
        root = root if root is not None else os.environ.get(OUTPUT_ROOT_ENV, ".")
        return os.path.join(root, output_dir)

    def to_dict(self):
        return {name: _drop_none(getattr(self, name)) for name in SCHEMA}


def parse_config(data):
    """Validate a parsed JSON object tree into a RunConfig."""
    cfg = RunConfig(**_walk(SCHEMA, data))
    init = cfg.init
    if init["kind"] not in ("taylor_green", "beltrami_abc", "random_band"):
        raise ConfigError(f"init.kind: unknown kind {init['kind']!r}")
    if init["kind"] == "random_band":
        for name in _BAND_KEYS:
            if init[name] is None:
                raise ConfigError(f"init.{name}: required for random_band")
    else:  # a seed is harmless for the deterministic kinds
        for name in _BAND_KEYS[1:]:
            if init[name] is not None:
                raise ConfigError(f"init.{name}: only valid for random_band")
    # A zero field has no energy to audit.  random_band's amplitude is an
    # RMS, whose sign would be lost; the trig kinds' is a signed prefactor.
    rms = init["kind"] == "random_band"
    if init["amplitude"] == 0.0 or (rms and init["amplitude"] < 0.0):
        need = "positive (an RMS) for random_band" if rms else "nonzero"
        raise ConfigError(f"init.amplitude: must be {need}, got {init['amplitude']}")
    # mean |u|^2 at unit amplitude, so that the energy below is the initial one
    mean_sq = {"random_band": 1.0, "taylor_green": 0.25, "beltrami_abc": 3.0}[init["kind"]]
    if not 0.0 < 0.5 * init["amplitude"] * init["amplitude"] * mean_sq * VOLUME < math.inf:
        raise ConfigError(f"init.amplitude: {init['amplitude']:g} under- or overflows the energy")
    if cfg.filters["count"] < 3:
        raise ConfigError(
            "filters.count: need at least three widths (the defect fit and the "
            "refinement trends use the finest three)"
        )
    radius_override = cfg.minimizer["radius_override"]
    if radius_override is not None and radius_override <= 0.0:
        raise ConfigError("minimizer.radius_override: must be positive")
    oracle = cfg.minimizer["oracle"]
    if oracle["iters"] < 1 or oracle["starts"] < 1:
        raise ConfigError("minimizer.oracle: iters and starts must be positive")
    # numpy's generators take only non-negative seeds.
    for path, seed in (
        ("init.seed", init["seed"]),
        ("basket.seed", cfg.basket["seed"]),
        ("minimizer.oracle.seed", oracle["seed"]),
    ):
        if seed is not None and seed < 0:
            raise ConfigError(f"{path}: must be non-negative, got {seed}")
    if not cfg.output["dir"]:
        raise ConfigError("output.dir: empty")

    # Cross-validate against the library's own rules so load-time failure is
    # the only failure mode for a bad config.
    try:
        grid_obj = cfg.make_grid()
        # simulate keeps t = 0, every snapshot_stride-th step and t_end.
        snapshots = 1 + -(-grid_obj.steps // grid_obj.snapshot_stride)
        if snapshots < 3:
            raise ConfigError(
                f"grid: {snapshots} snapshots; need at least three, because every "
                "basket window vanishes at t = 0 and t = t_end"
            )
        cfg.make_schedule(grid_obj)
        size, max_mode = cfg.basket["size"], cfg.basket["max_mode"]
        if size < 1 or max_mode < 1 or max_mode > grid_obj.dealias_cutoff:
            raise ConfigError("basket: size/max_mode out of range for this grid")
        k_min, k_max = init["k_min"], init["k_max"]
        if init["kind"] == "random_band":
            if not 1 <= k_min <= k_max <= grid_obj.dealias_cutoff:
                raise ConfigError(
                    f"init: band [{k_min}, {k_max}] outside [1, {grid_obj.dealias_cutoff}]"
                )
            try:
                shell_targets(cfg.make_initial_condition())
            except GridError as exc:
                raise ConfigError(f"init.slope: {exc}") from exc
    except (GridError, KernelError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: not found") from exc
    except OSError as exc:  # a directory, or unreadable
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def dump_config(cfg, path):
    """Echo the resolved config (defaults filled) deterministically."""
    with atomic_open(path) as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
