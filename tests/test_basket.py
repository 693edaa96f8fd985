"""Tests for the test-function basket stored on its spectral support.

Validates:
- TestBasket.pair (vector and tensor fields) and pair_gradient agree with the
  full-array Parseval pairings inner_product / gradient_inner_product against
  the profiles scattered back onto the whole spectral grid
- the support keeps every mode of every profile: its gradient-norm sum equals
  each element's grad_norm_sq, which build_basket takes from the full profile
- no array held by the basket or its elements spans the spectral grid
"""

import numpy as np
import pytest

from nslab.basket import build_basket
from nslab.spectral import Grid, gradient, gradient_inner_product, inner_product, norm_sq

CASES = [(16, 6), (24, 12)]  # (n, basket size)


@pytest.fixture(scope="module", params=CASES, ids=[f"{n}^3" for n, _ in CASES])
def grid_and_basket(request):
    n, size = request.param
    grid = Grid(n=n, nu=0.05, dt=0.1, t_end=1.0, snapshot_stride=1)
    return grid, build_basket(grid, t_end=1.0, seed=31, size=size, max_mode=2)


def _full_profiles(grid, basket):
    """psi scattered from the support onto the whole (size, 3, n, n, nh) grid."""
    psi = np.zeros((len(basket), 3) + grid.spectral_shape, dtype=complex)
    psi[(slice(None), slice(None)) + basket.support] = basket.psi
    return psi


def _random_spectral(grid, rng, components):
    return grid.forward(rng.standard_normal(components + grid.shape))


class TestPairing:
    def test_vector_pairing_matches_inner_product(self, grid_and_basket):
        grid, basket = grid_and_basket
        f = _random_spectral(grid, np.random.default_rng(1), (3,))
        psi = _full_profiles(grid, basket)
        expected = np.array([inner_product(grid, f, p) for p in psi])
        scale = np.sqrt(norm_sq(grid, f) * np.array([norm_sq(grid, p) for p in psi]))
        assert np.all(np.abs(basket.pair(f) - expected) <= 1e-13 * scale)

    def test_tensor_pairing_matches_inner_product(self, grid_and_basket):
        grid, basket = grid_and_basket
        t = _random_spectral(grid, np.random.default_rng(2), (3, 3))
        grad_psi = [gradient(grid, p) for p in _full_profiles(grid, basket)]
        expected = np.array([inner_product(grid, t, g) for g in grad_psi])
        scale = np.sqrt(norm_sq(grid, t) * np.array([norm_sq(grid, g) for g in grad_psi]))
        assert np.all(np.abs(basket.pair(t) - expected) <= 1e-13 * scale)

    def test_gradient_pairing_matches_gradient_inner_product(self, grid_and_basket):
        grid, basket = grid_and_basket
        v = _random_spectral(grid, np.random.default_rng(3), (3,))
        psi = _full_profiles(grid, basket)
        expected = np.array([gradient_inner_product(grid, v, p) for p in psi])
        grad_v = np.sqrt(gradient_inner_product(grid, v, v))
        scale = grad_v * np.array([np.sqrt(gradient_inner_product(grid, p, p)) for p in psi])
        assert np.all(np.abs(basket.pair_gradient(v) - expected) <= 1e-13 * scale)


class TestSupport:
    def test_support_sum_is_grad_norm_sq(self, grid_and_basket):
        """Sum over the support of w |k|^2 |psi_k|^2 equals the full-grid
        gradient norm build_basket recorded, so no mode was dropped."""
        _, basket = grid_and_basket
        k_sq = np.sum(basket.k_vec**2, axis=0)
        psi_sq = basket.psi.real**2 + basket.psi.imag**2
        support_sum = np.sum(basket.weights * k_sq * psi_sq, axis=(1, 2))
        recorded = np.array([el.grad_norm_sq for el in basket])
        assert np.all(np.abs(support_sum - recorded) <= 1e-14 * recorded)
        assert np.allclose(basket.norms()[1] ** 2, recorded, rtol=1e-14, atol=0.0)

    def test_support_is_the_basket_band(self, grid_and_basket):
        """max_mode 2: the 22 half-complex modes with 0 < |k|^2 <= 4, at any n."""
        grid, basket = grid_and_basket
        k_sq = np.sum(basket.k_vec**2, axis=0)
        assert len(k_sq) == 22
        assert np.all((k_sq > 0.0) & (k_sq <= 4.0))
        assert np.array_equal(basket.k_vec, grid.k_vec[(slice(None),) + basket.support])

    def test_no_array_spans_the_spectral_grid(self, grid_and_basket):
        grid, basket = grid_and_basket
        modes = len(basket.support[0])
        held = [vars(basket)] + [vars(el) for el in basket]
        arrays = [
            a
            for attrs in held
            for value in attrs.values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)
        ]
        assert len(arrays) >= 7  # three support indices, k_vec, weights, psi, grad_psi
        for a in arrays:
            assert a.shape[-1] == modes, a.shape
            assert a.size <= len(basket) * 9 * modes
