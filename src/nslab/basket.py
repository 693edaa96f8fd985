"""Fixed basket of divergence-free space-time test functions.

Each element is phi_j(x, t) = s_j(t) * psi_j(x) where psi_j is the curl of a
band-limited random vector potential (hence exactly divergence free and mean
free) normalized to unit gradient norm, and s_j is a smooth bump window on a
random sub-interval of [0, T].  The basket is a deterministic function of
(seed, size, max_mode, t_end): every artifact in a run pairs against the same
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import BASKET_MAX_MODE, BASKET_SEED, BASKET_SIZE
from .spectral import VOLUME, curl, dealias, gradient_norm_sq, leray_project
from .windows import BumpWindow


@dataclass(frozen=True)
class BasketElement:
    window: BumpWindow
    grad_norm_sq: float  # int |grad psi|^2 dx (space only) == 1 after normalization


@dataclass(frozen=True)
class TestBasket:
    """The basket, its profiles stored only on the M modes where some psi_j is
    nonzero (0 < |k| <= max_mode: 22 half-complex modes for max_mode 2).
    support indexes those modes in the two-thirds band layout (spectral.Band),
    the layout of every field the pipeline pairs with the basket."""

    seed: int
    size: int
    max_mode: int
    t_end: float
    elements: tuple
    support: tuple = field(repr=False)  # (i1, i2, i3) band indices, M each
    k_vec: np.ndarray = field(repr=False)  # (3, M)
    weights: np.ndarray = field(repr=False)  # (M,) VOLUME * Parseval weight
    psi: np.ndarray = field(repr=False)  # (size, 3, M)
    grad_psi: np.ndarray = field(repr=False)  # (size, 3, 3, M), [k, i, j] = d_i psi_j

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _reduce(self, profiles, values, weights):
        """Re sum of weights * f * conj(profile_k) per element, rounded once
        (math.fsum) so that cancelling pairings keep only their products' error.
        values are f on the support modes (on_support)."""
        terms = (weights * values * np.conj(profiles)).real
        return np.array([math.fsum(row) for row in terms.reshape(len(self), -1).tolist()])

    def on_support(self, field_hat):
        """A band field's values on the M support modes, shape (..., M)."""
        return field_hat[(...,) + self.support]

    def pair(self, field_hat):
        """<f, psi_k> for a vector field f, <T, grad psi_k> for a tensor field T."""
        return self.pair_support(self.on_support(field_hat))

    def pair_support(self, values):
        """pair of a field given only by its values on the support modes: a
        field whose one reader is the basket need not be formed anywhere else."""
        profiles = self.psi if values.ndim == 2 else self.grad_psi
        return self._reduce(profiles, values, self.weights)

    def pair_gradient(self, v_hat):
        """<grad v, grad psi_k> for a vector field v."""
        weights = self.weights * np.sum(self.k_vec**2, axis=0)
        return self._reduce(self.psi, self.on_support(v_hat), weights)

    def norms(self):
        """(||psi_k||, ||grad psi_k||) per element."""
        sq = np.sum(self.weights * (self.psi.real**2 + self.psi.imag**2), axis=1)
        return np.sqrt(np.sum(sq, axis=1)), np.sqrt(sq @ np.sum(self.k_vec**2, axis=0))


def build_basket(grid, t_end, seed=BASKET_SEED, size=BASKET_SIZE, max_mode=BASKET_MAX_MODE):
    if size < 1:
        raise ValueError("basket size must be positive")
    if max_mode < 1 or max_mode > grid.dealias_cutoff:
        raise ValueError(
            f"max_mode {max_mode} outside the resolved band [1, {grid.dealias_cutoff}]"
        )
    # Every step below runs on the two-thirds band, where each mode gets the
    # operations it got in the full layout, so psi is the band of the
    # full-layout construction, bitwise.  Only the two gradient-norm sums
    # run over the scattered half spectrum: their summation order fixes
    # the bits of psi (a band sum moves them by up to 8e-16 relative).
    band = grid.band
    rng = np.random.default_rng(seed)
    modes = (band.k_sq > 0.0) & (band.k_sq <= float(max_mode) ** 2)
    elements = []
    profiles = []
    for j in range(size):
        noise = rng.standard_normal((3,) + grid.shape)
        a_hat = band.forward(noise) * modes
        psi_hat = leray_project(band, dealias(band, curl(band, a_hat)))
        gnsq = gradient_norm_sq(grid, band.scatter(psi_hat))
        if gnsq <= 0.0:
            raise ValueError(f"degenerate basket element {j}")
        psi_hat /= np.sqrt(gnsq)
        t0 = float(rng.uniform(0.0, 0.35)) * t_end
        t1 = t0 + float(rng.uniform(0.4, 0.6)) * t_end
        elements.append(
            BasketElement(
                window=BumpWindow(t0, t1),
                grad_norm_sq=gradient_norm_sq(grid, band.scatter(psi_hat)),
            )
        )
        # The curl, dealiasing and projection of a potential on these modes
        # leave every other mode exactly zero.
        profiles.append(psi_hat[:, modes])
    psi = np.stack(profiles)
    nonzero = np.any(psi != 0.0, axis=(0, 1))
    support = tuple(ix[nonzero] for ix in np.nonzero(modes))
    psi = psi[..., nonzero]
    k_vec = band.k_vec.real[(slice(None),) + support]
    return TestBasket(
        seed=int(seed), size=int(size), max_mode=int(max_mode), t_end=float(t_end),
        elements=tuple(elements),
        support=support,
        k_vec=k_vec,
        weights=VOLUME * band.parseval_w[0, 0, support[2]],
        psi=psi,
        grad_psi=1j * k_vec[:, None, :] * psi[:, None, :, :],
    )


def window_l2_sq(element, times):
    """int s_j(t)^2 dt by trapezoid quadrature on the snapshot grid."""
    s = element.window(times)
    return float(np.trapezoid(s * s, times))


def spacetime_gradient_norm(element, times):
    """sqrt( int s^2 dt * int |grad psi|^2 dx ), the L^2_t V_x norm of phi_j."""
    return float(np.sqrt(window_l2_sq(element, times) * element.grad_norm_sq))
