"""Benchmark workloads: each turns a seed into one nslab run config.

Every workload runs the whole CLI pipeline (simulate, analyze,
minimize --oracle, report), so every layer and every end-to-end metric is
measured on each of them; the workloads differ in which layer dominates.
The seed feeds init.seed, basket.seed and minimizer.oracle.seed and nothing
else, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Shared by both workloads: random_band initial data with RMS velocity 0.8 in
# shells 1..3, the dyadic width schedule 8h, 4h, 2h (h = 2 pi / n; the widest
# schedule whose finest width nslab accepts, 2h) and the default 12-element
# basket.
_INIT = {"kind": "random_band", "amplitude": 0.8, "slope": -2.0, "k_min": 1, "k_max": 3}
_WIDTHS = 3
_BASKET = {"size": 12, "max_mode": 2}
_ORACLE = {"iters": 2000, "starts": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    dt: float
    steps: int
    stride: int
    # None keeps the default ball radius (the initial energy); every width
    # then solves in the interior (lambda = 0).
    radius_override: float | None
    active_ball: bool  # expected branch of solve_mp at every width

    @property
    def snapshots(self):
        return self.steps // self.stride + (1 if self.steps % self.stride == 0 else 2)

    @property
    def widths(self):
        return _WIDTHS

    @property
    def delta0(self):
        return 8 * (2 * math.pi / self.n)

    def seeds(self, seed):
        """(init, basket, oracle) seeds derived from the benchmark seed."""
        rng = random.Random(f"{self.name}:{int(seed)}")
        return tuple(rng.randrange(1, 2**31) for _ in range(3))

    def config(self, seed, output_dir):
        init_seed, basket_seed, oracle_seed = self.seeds(seed)
        minimizer = {"oracle": dict(_ORACLE, seed=oracle_seed)}
        if self.radius_override is not None:
            minimizer["radius_override"] = self.radius_override
        return {
            "grid": {
                "n": self.n,
                "nu": 0.1,
                "dt": self.dt,
                "t_end": self.steps * self.dt,
                "snapshot_stride": self.stride,
            },
            "init": dict(_INIT, seed=init_seed),
            "filters": {"delta0": self.delta0, "count": self.widths},
            "minimizer": minimizer,
            "basket": dict(_BASKET, seed=basket_seed),
            "output": {"dir": output_dir},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spinup24",
            why=(
                "90-step 24^3 integration with 4 snapshots and an interior ball: "
                "the RK4 solver and its FFTs make simulate the largest stage"
            ),
            n=24,
            dt=2e-3,
            steps=90,
            stride=30,
            radius_override=None,
            active_ball=False,
        ),
        Workload(
            name="audit24",
            why=(
                "4 snapshots x 3 widths at 24^3 with a small radius so every "
                "width saturates the ball: structure loop, stress assembly and "
                "the oracle projection dominate"
            ),
            n=24,
            dt=2e-3,
            steps=30,
            stride=10,
            radius_override=0.005,
            active_ball=True,
        ),
    )
}
