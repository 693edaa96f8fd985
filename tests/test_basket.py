"""Tests for the test-function basket stored on its spectral support.

Validates:
- TestBasket.pair (vector and tensor fields) and pair_gradient agree with the
  band-array Parseval pairings inner_product / gradient_inner_product against
  the profiles scattered back onto the whole two-thirds band
- the support keeps every mode of every profile: its gradient-norm sum equals
  each element's grad_norm_sq, which build_basket takes from the full profile
- no array held by the basket or its elements spans the spectral grid
- build_basket on the band gives the arrays of the full-layout construction
  byte for byte, its support mapped to band indices
"""

import numpy as np
import pytest

from nslab.basket import build_basket
from nslab.spectral import (
    VOLUME,
    Grid,
    curl,
    dealias,
    gradient,
    gradient_inner_product,
    gradient_norm_sq,
    inner_product,
    leray_project,
    norm_sq,
)

CASES = [(16, 6), (24, 12)]  # (n, basket size)


@pytest.fixture(scope="module", params=CASES, ids=[f"{n}^3" for n, _ in CASES])
def grid_and_basket(request):
    n, size = request.param
    grid = Grid(n=n, nu=0.05, dt=0.1, t_end=1.0, snapshot_stride=1)
    return grid, build_basket(grid, t_end=1.0, seed=31, size=size, max_mode=2)


def _full_profiles(grid, basket):
    """psi scattered from the support onto the whole band, (size, 3) + band shape."""
    psi = np.zeros((len(basket), 3) + grid.band.spectral_shape, dtype=complex)
    psi[(slice(None), slice(None)) + basket.support] = basket.psi
    return psi


def _random_spectral(grid, rng, components):
    return grid.band.forward(rng.standard_normal(components + grid.shape))


class TestPairing:
    def test_vector_pairing_matches_inner_product(self, grid_and_basket):
        grid, basket = grid_and_basket
        f = _random_spectral(grid, np.random.default_rng(1), (3,))
        psi = _full_profiles(grid, basket)
        band = grid.band
        expected = np.array([inner_product(band, f, p) for p in psi])
        scale = np.sqrt(norm_sq(band, f) * np.array([norm_sq(band, p) for p in psi]))
        assert np.all(np.abs(basket.pair(f) - expected) <= 1e-13 * scale)

    def test_tensor_pairing_matches_inner_product(self, grid_and_basket):
        grid, basket = grid_and_basket
        t = _random_spectral(grid, np.random.default_rng(2), (3, 3))
        band = grid.band
        grad_psi = [gradient(band, p) for p in _full_profiles(grid, basket)]
        expected = np.array([inner_product(band, t, g) for g in grad_psi])
        scale = np.sqrt(norm_sq(band, t) * np.array([norm_sq(band, g) for g in grad_psi]))
        assert np.all(np.abs(basket.pair(t) - expected) <= 1e-13 * scale)

    def test_gradient_pairing_matches_gradient_inner_product(self, grid_and_basket):
        grid, basket = grid_and_basket
        v = _random_spectral(grid, np.random.default_rng(3), (3,))
        psi = _full_profiles(grid, basket)
        band = grid.band
        expected = np.array([gradient_inner_product(band, v, p) for p in psi])
        grad_v = np.sqrt(gradient_inner_product(band, v, v))
        scale = grad_v * np.array([np.sqrt(gradient_inner_product(band, p, p)) for p in psi])
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
        assert np.array_equal(basket.k_vec, grid.band.k_vec.real[(slice(None),) + basket.support])

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


def reference_basket(grid, t_end, seed, size, max_mode):
    """The basket as built in the full half-complex layout: (support in
    full-layout indices, k_vec, weights, psi, grad_psi, grad_norm_sq)."""
    rng = np.random.default_rng(seed)
    modes = (grid.k_sq > 0.0) & (grid.k_sq <= float(max_mode) ** 2)
    profiles, gnsqs = [], []
    for _ in range(size):
        noise = rng.standard_normal((3,) + grid.shape)
        a_hat = grid.forward(noise) * modes
        psi_hat = leray_project(grid, dealias(grid, curl(grid, a_hat)))
        psi_hat /= np.sqrt(gradient_norm_sq(grid, psi_hat))
        rng.uniform(0.0, 0.35), rng.uniform(0.4, 0.6)  # the window draws
        gnsqs.append(gradient_norm_sq(grid, psi_hat))
        profiles.append(psi_hat[:, modes])
    psi = np.stack(profiles)
    nonzero = np.any(psi != 0.0, axis=(0, 1))
    support = tuple(ix[nonzero] for ix in np.nonzero(modes))
    psi = psi[..., nonzero]
    k_vec = grid.k_vec[(slice(None),) + support]
    weights = VOLUME * grid.parseval_w[0, 0, support[2]]
    grad_psi = 1j * k_vec[:, None, :] * psi[:, None, :, :]
    return support, k_vec, weights, psi, grad_psi, gnsqs


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("seed, size, max_mode", [(2025, 12, 2), (31, 6, 2), (515, 8, 3)])
def test_band_build_is_the_full_layout_build(n, seed, size, max_mode):
    """Every basket array is byte for byte that of the full-layout
    construction (the band forward is the gather of rfftn and each band
    mode gets the same operations; the two gradient-norm sums run over the
    scattered half spectrum, so grad_norm_sq is bitwise too), and the
    support indexes the same modes in the band layout."""
    grid = Grid(n=n, nu=0.05, dt=0.1, t_end=1.0, snapshot_stride=1)
    basket = build_basket(grid, t_end=1.0, seed=seed, size=size, max_mode=max_mode)
    support, k_vec, weights, psi, grad_psi, gnsqs = reference_basket(
        grid, 1.0, seed, size, max_mode
    )
    for got, want in (
        (basket.k_vec, k_vec),
        (basket.weights, weights),
        (basket.psi, psi),
        (basket.grad_psi, grad_psi),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert [el.grad_norm_sq for el in basket] == gnsqs
    n_, c = grid.n, grid.dealias_cutoff
    full_row = np.array([j if j <= c else n_ - (2 * c + 1) + j for j in range(2 * c + 1)])
    assert np.array_equal(full_row[basket.support[0]], support[0])
    assert np.array_equal(full_row[basket.support[1]], support[1])
    assert np.array_equal(basket.support[2], support[2])
