"""Smooth scalar time windows with analytic derivatives.

Space-time test functions in this package factor as phi(x, t) = s(t) *
psi(x); the windows below supply s and ds/dt in closed form so that no time
derivative is ever taken numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BumpWindow:
    """C-infinity bump supported on (t0, t1), vanishing to all orders at both ends.

    s(t) = exp(-1 / (1 - tau^2)) with tau = (2t - t0 - t1) / (t1 - t0).
    """

    t0: float
    t1: float

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"empty window [{self.t0}, {self.t1}]")

    def _tau(self, t):
        return (2.0 * np.asarray(t, dtype=np.float64) - self.t0 - self.t1) / (self.t1 - self.t0)

    def __call__(self, t):
        tau = self._tau(t)
        out = np.zeros_like(tau)
        inside = np.abs(tau) < 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - tau[inside] ** 2))
        return out

    def derivative(self, t):
        tau = self._tau(t)
        out = np.zeros_like(tau)
        inside = np.abs(tau) < 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            ti = tau[inside]
            s = np.exp(-1.0 / (1.0 - ti**2))
            out[inside] = s * (-2.0 * ti / (1.0 - ti**2) ** 2) * (2.0 / (self.t1 - self.t0))
        return out
