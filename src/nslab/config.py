"""Strict JSON run configuration.

One file drives the whole pipeline.  Parsing is strict: unknown keys are
errors at every level, required keys must be present, and grid/filter/basket
values are validated against the same rules the library enforces, so a
config that loads is a config that runs.  Key tree:

    grid      {n, nu, dt, t_end, snapshot_stride}
    init      {kind, amplitude, seed, slope, k_min, k_max}
    filters   {delta0, count}
    minimizer {radius_override, oracle {iters, starts, seed}}
    basket    {seed, size, max_mode}
    output    {dir}

`NSLAB_OUT` overrides the root under which relative output.dir paths are
created.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from . import basket as basket_mod
from .filtering import KernelError, width_schedule
from .solver import InitialCondition
from .spectral import Grid, GridError

OUTPUT_ROOT_ENV = "NSLAB_OUT"


class ConfigError(ValueError):
    """A config file that cannot drive a run; message names the bad key."""


def _require_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return value


def _take(mapping, where, key, kind, required=True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{where}.{key}: missing")
        return default
    value = mapping.pop(key)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{where}.{key}: not finite")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}.{key}: expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _reject_unknown(mapping, where):
    if mapping:
        raise ConfigError(f"{where}: unknown key(s) {sorted(mapping)}")


@dataclass(frozen=True)
class OracleConfig:
    iters: int = 2000
    starts: int = 3
    seed: int = 7


@dataclass(frozen=True)
class RunConfig:
    grid_n: int
    grid_nu: float
    grid_dt: float
    grid_t_end: float
    grid_snapshot_stride: int
    init_kind: str
    init_amplitude: float
    init_seed: int | None
    init_slope: float | None
    init_k_min: int | None
    init_k_max: int | None
    filters_delta0: float
    filters_count: int
    minimizer_radius_override: float | None
    oracle: OracleConfig
    basket_seed: int
    basket_size: int
    basket_max_mode: int
    output_dir: str

    def make_grid(self):
        return Grid(
            n=self.grid_n,
            nu=self.grid_nu,
            dt=self.grid_dt,
            t_end=self.grid_t_end,
            snapshot_stride=self.grid_snapshot_stride,
        )

    def make_initial_condition(self):
        return InitialCondition(
            kind=self.init_kind,
            amplitude=self.init_amplitude,
            seed=self.init_seed,
            slope=self.init_slope,
            k_min=self.init_k_min,
            k_max=self.init_k_max,
        )

    def make_schedule(self, grid):
        return width_schedule(grid, self.filters_delta0, self.filters_count)

    def make_basket(self, grid):
        return basket_mod.build_basket(
            grid,
            t_end=self.grid_t_end,
            seed=self.basket_seed,
            size=self.basket_size,
            max_mode=self.basket_max_mode,
        )

    def resolve_output_dir(self, root=None):
        if os.path.isabs(self.output_dir):
            return self.output_dir
        root = root if root is not None else os.environ.get(OUTPUT_ROOT_ENV, ".")
        return os.path.join(root, self.output_dir)

    def to_dict(self):
        return {
            "grid": {
                "n": self.grid_n,
                "nu": self.grid_nu,
                "dt": self.grid_dt,
                "t_end": self.grid_t_end,
                "snapshot_stride": self.grid_snapshot_stride,
            },
            "init": {
                "kind": self.init_kind,
                "amplitude": self.init_amplitude,
                **({"seed": self.init_seed} if self.init_seed is not None else {}),
                **({"slope": self.init_slope} if self.init_slope is not None else {}),
                **({"k_min": self.init_k_min} if self.init_k_min is not None else {}),
                **({"k_max": self.init_k_max} if self.init_k_max is not None else {}),
            },
            "filters": {"delta0": self.filters_delta0, "count": self.filters_count},
            "minimizer": {
                **(
                    {"radius_override": self.minimizer_radius_override}
                    if self.minimizer_radius_override is not None
                    else {}
                ),
                "oracle": {
                    "iters": self.oracle.iters,
                    "starts": self.oracle.starts,
                    "seed": self.oracle.seed,
                },
            },
            "basket": {
                "seed": self.basket_seed,
                "size": self.basket_size,
                "max_mode": self.basket_max_mode,
            },
            "output": {"dir": self.output_dir},
        }


def parse_config(data):
    """Validate a parsed JSON object tree into a RunConfig."""
    data = dict(_require_mapping(data, "config"))

    grid = dict(_require_mapping(data.pop("grid", None) or {}, "grid"))
    n = _take(grid, "grid", "n", int)
    nu = _take(grid, "grid", "nu", float)
    dt = _take(grid, "grid", "dt", float)
    t_end = _take(grid, "grid", "t_end", float)
    stride = _take(grid, "grid", "snapshot_stride", int, required=False, default=10)
    _reject_unknown(grid, "grid")

    init = dict(_require_mapping(data.pop("init", None) or {}, "init"))
    kind = _take(init, "init", "kind", str)
    amplitude = _take(init, "init", "amplitude", float, required=False, default=1.0)
    seed = _take(init, "init", "seed", int, required=False)
    slope = _take(init, "init", "slope", float, required=False)
    k_min = _take(init, "init", "k_min", int, required=False)
    k_max = _take(init, "init", "k_max", int, required=False)
    _reject_unknown(init, "init")
    if kind not in ("taylor_green", "beltrami_abc", "random_band"):
        raise ConfigError(f"init.kind: unknown kind {kind!r}")
    if kind == "random_band":
        for name, val in (("seed", seed), ("slope", slope), ("k_min", k_min), ("k_max", k_max)):
            if val is None:
                raise ConfigError(f"init.{name}: required for random_band")
    else:
        for name, val in (("slope", slope), ("k_min", k_min), ("k_max", k_max)):
            if val is not None:
                raise ConfigError(f"init.{name}: only valid for random_band")

    filters = dict(_require_mapping(data.pop("filters", None) or {}, "filters"))
    delta0 = _take(filters, "filters", "delta0", float, required=False, default=math.pi / 4)
    count = _take(filters, "filters", "count", int, required=False, default=3)
    _reject_unknown(filters, "filters")
    if count < 3:
        raise ConfigError(
            "filters.count: need at least three widths (the defect fit and the "
            "refinement trends use the finest three)"
        )

    minimizer = dict(_require_mapping(data.pop("minimizer", None) or {}, "minimizer"))
    radius_override = _take(minimizer, "minimizer", "radius_override", float, required=False)
    oracle_raw = dict(
        _require_mapping(minimizer.pop("oracle", None) or {}, "minimizer.oracle")
    )
    oracle = OracleConfig(
        iters=_take(oracle_raw, "minimizer.oracle", "iters", int, required=False, default=2000),
        starts=_take(oracle_raw, "minimizer.oracle", "starts", int, required=False, default=3),
        seed=_take(oracle_raw, "minimizer.oracle", "seed", int, required=False, default=7),
    )
    _reject_unknown(oracle_raw, "minimizer.oracle")
    _reject_unknown(minimizer, "minimizer")
    if radius_override is not None and radius_override <= 0.0:
        raise ConfigError("minimizer.radius_override: must be positive")
    if oracle.iters < 1 or oracle.starts < 1:
        raise ConfigError("minimizer.oracle: iters and starts must be positive")

    basket = dict(_require_mapping(data.pop("basket", None) or {}, "basket"))
    basket_seed = _take(basket, "basket", "seed", int, required=False, default=basket_mod.DEFAULT_SEED)
    basket_size = _take(basket, "basket", "size", int, required=False, default=basket_mod.DEFAULT_SIZE)
    basket_max_mode = _take(
        basket, "basket", "max_mode", int, required=False, default=basket_mod.DEFAULT_MAX_MODE
    )
    _reject_unknown(basket, "basket")

    output = dict(_require_mapping(data.pop("output", None) or {}, "output"))
    output_dir = _take(output, "output", "dir", str)
    _reject_unknown(output, "output")
    if not output_dir:
        raise ConfigError("output.dir: empty")

    _reject_unknown(data, "config")

    cfg = RunConfig(
        grid_n=n,
        grid_nu=nu,
        grid_dt=dt,
        grid_t_end=t_end,
        grid_snapshot_stride=stride,
        init_kind=kind,
        init_amplitude=amplitude,
        init_seed=seed,
        init_slope=slope,
        init_k_min=k_min,
        init_k_max=k_max,
        filters_delta0=delta0,
        filters_count=count,
        minimizer_radius_override=radius_override,
        oracle=oracle,
        basket_seed=basket_seed,
        basket_size=basket_size,
        basket_max_mode=basket_max_mode,
        output_dir=output_dir,
    )
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
        if basket_size < 1 or basket_max_mode < 1 or basket_max_mode > grid_obj.dealias_cutoff:
            raise ConfigError("basket: size/max_mode out of range for this grid")
        if kind == "random_band":
            if not 1 <= k_min <= k_max <= grid_obj.dealias_cutoff:
                raise ConfigError(
                    f"init: band [{k_min}, {k_max}] outside [1, {grid_obj.dealias_cutoff}]"
                )
    except (GridError, KernelError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: not found") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def dump_config(cfg, path):
    """Echo the resolved config (defaults filled) deterministically."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
