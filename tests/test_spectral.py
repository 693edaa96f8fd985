"""Tests for the spectral substrate.

Validates:
- grid construction and parameter validation
- transform conventions (coefficient normalization, round trips)
- the two-thirds band layout: gather/scatter, its multipliers and Parseval
  weights against their full-layout expressions, the band transforms bit
  for bit against irfftn/rfftn of the full layout, and every helper given
  the band as its layout against the same helper on the scattered fields
- differential operators against hand-computed trig derivatives
- vector-calculus identities (curl grad = 0, div curl = 0, Leray algebra)
- dealias, inverse_laplacian and leray_project into a given `out`, bit for
  bit their allocating forms
- Parseval pairing of spectral and collocation inner products; the four
  norms and pairings are one parseval_sum, bit for bit the block-order
  split-product sum, so <f, f> == ||f||^2 exactly, within round-off of the
  complex-product form, and with scratch of one slab of the first axis
- helper utilities (trapezoid weights, defect diagnostics, random fields)
"""

import tracemalloc

import numpy as np
import pytest
from full_layout import hermitian_defect

from nslab.spectral import (
    VOLUME,
    Grid,
    GridError,
    curl,
    dealias,
    divergence,
    divergence_max,
    gradient,
    gradient_inner_product,
    gradient_norm_sq,
    grid_inner_product,
    inner_product,
    inverse_laplacian,
    laplacian,
    leray_project,
    norm_sq,
    parseval_sum,
    random_divergence_free,
    tensor_divergence,
    trapezoid_weights,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(n=16, nu=0.05, dt=0.01, t_end=0.1)


@pytest.fixture(scope="module")
def random_scalar(grid):
    rng = np.random.default_rng(7)
    return grid.forward(rng.standard_normal(grid.shape))


@pytest.fixture(scope="module")
def random_vector(grid):
    rng = np.random.default_rng(11)
    return grid.forward(rng.standard_normal((3,) + grid.shape))


class TestGridConstruction:
    """Constructor invariants and rejection of inconsistent parameters."""

    def test_basic_attributes(self, grid):
        assert grid.n == 16
        assert grid.h == pytest.approx(2.0 * np.pi / 16)
        assert grid.shape == (16, 16, 16)
        assert grid.spectral_shape == (16, 16, 9)
        assert grid.steps == 10
        assert grid.dealias_cutoff == 5

    def test_wavevectors_are_integers(self, grid):
        assert np.all(grid.k_vec == np.round(grid.k_vec))
        assert grid.k_sq.max() == pytest.approx(8**2 + 8**2 + 8**2)

    def test_parseval_weights(self, grid):
        """Full spectral shape, constant along the first two axes."""
        assert grid.parseval_w.shape == grid.spectral_shape
        w = grid.parseval_w[0, 0]
        assert w[0] == 1.0 and w[-1] == 1.0
        assert np.all(w[1:-1] == 2.0)
        assert np.all(grid.parseval_w == w)

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(GridError, match="even integer"):
            Grid(n=17, nu=0.1, dt=0.01, t_end=0.1)
        with pytest.raises(GridError, match="even integer"):
            Grid(n=8, nu=0.1, dt=0.01, t_end=0.1)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(GridError, match="nu"):
            Grid(n=16, nu=0.0, dt=0.01, t_end=0.1)
        with pytest.raises(GridError, match="positive"):
            Grid(n=16, nu=0.1, dt=-0.01, t_end=0.1)

    def test_rejects_incommensurate_t_end(self):
        with pytest.raises(GridError, match="integer multiple"):
            Grid(n=16, nu=0.1, dt=0.01, t_end=0.105)

    def test_rejects_bad_stride(self):
        with pytest.raises(GridError, match="snapshot_stride"):
            Grid(n=16, nu=0.1, dt=0.01, t_end=0.1, snapshot_stride=0)

    def test_rejects_unstable_step(self):
        """dt * nu * k_max^2 beyond the RK4 real-axis bound is refused."""
        with pytest.raises(GridError, match="RK4"):
            Grid(n=32, nu=1.0, dt=0.1, t_end=1.0)


class TestTransforms:
    """Coefficient conventions and round trips."""

    def test_round_trip(self, grid, random_scalar):
        f = grid.inverse(random_scalar)
        again = grid.forward(f)
        assert np.abs(again - random_scalar).max() < 1e-14

    def test_single_mode_coefficients(self, grid):
        """sin(x1) carries -i/2 at k=(1,0,0); cos(2 x2) carries 1/2 at (0,2,0)."""
        x1, x2, _ = grid.x
        f_hat = grid.forward(np.sin(x1))
        assert f_hat[1, 0, 0] == pytest.approx(-0.5j, abs=1e-15)
        assert f_hat[-1, 0, 0] == pytest.approx(+0.5j, abs=1e-15)  # conjugate mode
        g_hat = grid.forward(np.cos(2.0 * x2))
        assert g_hat[0, 2, 0] == pytest.approx(0.5, abs=1e-15)
        # nothing anywhere else
        f_hat[1, 0, 0] = 0.0
        f_hat[-1, 0, 0] = 0.0
        assert np.abs(f_hat).max() < 1e-15

    def test_component_axes_preserved(self, grid):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3,) + grid.shape)
        v_hat = grid.forward(v)
        assert v_hat.shape == (3,) + grid.spectral_shape
        assert np.abs(grid.inverse(v_hat) - v).max() < 1e-13

    @pytest.mark.parametrize("lead", [(1,), (3,), (6,), (3, 3)])
    def test_inverse_is_irfftn_bitwise(self, grid, lead):
        """Grid.inverse runs irfftn's passes itself: the same bits with and
        without out=, and it leaves its input unchanged."""
        rng = np.random.default_rng(sum(lead))
        f_hat = grid.forward(rng.standard_normal(lead + grid.shape))
        before = f_hat.copy()
        want = np.fft.irfftn(f_hat, s=grid.shape, axes=(-3, -2, -1), norm="forward")
        out = np.empty_like(want)
        assert grid.inverse(f_hat, out=out) is out
        for got in (grid.inverse(f_hat), out):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert f_hat.tobytes() == before.tobytes()


def band_index(grid):
    """Full-layout indices (rows, rows, planes) of the band layout, from its
    documented order: band row j <= c is wavenumber j, row j > c is
    j - (2c + 1), and planes 0..c."""
    n, c = grid.n, grid.dealias_cutoff
    rows = np.array([j if j <= c else n - (2 * c + 1) + j for j in range(2 * c + 1)])
    return rows[:, None, None], rows[None, :, None], np.arange(c + 1)[None, None, :]


BAND_SIZES = [16, 18, 24, 30, 32]
BAND_LEADS = [(1,), (3,), (6,)]


class TestBandLayout:
    """The two-thirds band layout and the transforms that skip its zero
    lines, against rfftn/irfftn of the full layout, bit for bit."""

    @staticmethod
    def make_grid(n):
        return Grid(n=n, nu=0.05, dt=1e-3, t_end=1e-2)

    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_shape_holds_every_kept_mode(self, n):
        grid = self.make_grid(n)
        c = grid.dealias_cutoff
        assert grid.band.spectral_shape == (2 * c + 1, 2 * c + 1, c + 1)
        assert grid.band.spectral_shape != grid.spectral_shape
        kept = np.zeros(grid.spectral_shape, dtype=bool)
        kept[band_index(grid)] = True
        assert np.array_equal(kept, np.broadcast_to(grid.dealias_mask, grid.spectral_shape))

    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_gather_scatter_and_multipliers(self, n):
        grid = self.make_grid(n)
        band, at = grid.band, band_index(grid)
        rng = np.random.default_rng(n)
        full = rng.standard_normal((2,) + grid.spectral_shape) + 1j * rng.standard_normal(
            (2,) + grid.spectral_shape
        )
        gathered = band.gather(full)
        assert gathered.tobytes() == full[..., at[0], at[1], at[2]].tobytes()
        scattered = band.scatter(gathered)
        want = np.zeros_like(full)
        want[..., at[0], at[1], at[2]] = gathered
        assert scattered.tobytes() == want.tobytes()  # +0.0 outside the band
        # the band multipliers against their full-layout forms; those that
        # only multiply complex fields are stored as numpy would cast them
        keep = grid.dealias_mask.astype(np.float64)
        keep[0, 0, 0] = 0.0
        for got, full_form, dtype in (
            (band.k_vec, grid.k_vec, np.complex128),
            (band.keep, keep, np.complex128),
            (band.e, grid.k_vec * (keep * np.sqrt(grid.inv_k_sq)), np.complex128),
            (
                band.half_step_decay,
                np.exp(-grid.nu * grid.k_sq * (0.5 * grid.dt)),
                np.complex128,
            ),
            (band.k_sq, grid.k_sq, np.float64),
            (band.inv_k_sq, grid.inv_k_sq, np.float64),
            (band.parseval_w, grid.parseval_w, np.float64),
            (band.gradient_w, grid.parseval_w * grid.k_sq, np.float64),
        ):
            assert got.dtype == dtype
            want = full_form[..., at[0], at[1], at[2]].astype(dtype)
            assert got.tobytes() == want.tobytes()
        assert np.all(band.dealias_mask) and band.dealias_mask.shape == band.spectral_shape

    @pytest.mark.parametrize("lead", BAND_LEADS)
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_inverse_is_irfftn_of_scatter(self, n, lead):
        """Repeated calls reuse the zero-padded buffers and stay exact."""
        grid = self.make_grid(n)
        at = band_index(grid)
        rng = np.random.default_rng(n + sum(lead))
        for _ in range(2):
            band = rng.standard_normal(lead + grid.band.spectral_shape) + 1j * rng.standard_normal(
                lead + grid.band.spectral_shape
            )
            before = band.copy()
            full = np.zeros(lead + grid.spectral_shape, dtype=np.complex128)
            full[..., at[0], at[1], at[2]] = band
            want = np.fft.irfftn(full, s=grid.shape, axes=(-3, -2, -1), norm="forward")
            out = np.empty_like(want)
            assert grid.inverse(band, out=out) is out
            for got in (grid.inverse(band), out):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert band.tobytes() == before.tobytes()

    @pytest.mark.parametrize("lead", BAND_LEADS)
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_forward_is_gather_of_rfftn(self, n, lead):
        grid = self.make_grid(n)
        at = band_index(grid)
        rng = np.random.default_rng(2 * n + sum(lead))
        for _ in range(2):
            field = rng.standard_normal(lead + grid.shape)
            want = np.fft.rfftn(field, axes=(-3, -2, -1), norm="forward")[..., at[0], at[1], at[2]]
            out = np.empty(lead + grid.band.spectral_shape, dtype=np.complex128)
            assert grid.forward(field, out=out) is out
            assert out.tobytes() == want.tobytes()


    @pytest.mark.parametrize("n", [16, 24])
    def test_helpers_read_the_layout_they_are_given(self, n):
        """Given grid.band, every helper acts on band fields as it acts on
        their scatter in the full layout: the operators bit for bit on the
        band (array_equal; a full-layout dealias may flip the sign of a
        zero), the reductions within 1e-15 of the full-layout sums, which
        differ only in summation order.  band.forward and band.inverse are
        the grid's transforms with band fields."""
        grid = self.make_grid(n)
        band = grid.band
        rng = np.random.default_rng(3 * n)
        noise = rng.standard_normal((3,) + grid.shape)
        v = band.forward(noise)
        assert v.shape == (3,) + band.spectral_shape
        assert v.tobytes() == band.gather(grid.forward(noise)).tobytes()
        assert band.inverse(v).tobytes() == grid.inverse(band.scatter(v)).tobytes()
        t = band.forward(rng.standard_normal((3, 3) + grid.shape))
        full_v, full_t = band.scatter(v), band.scatter(t)
        for op, x, full_x in (
            (gradient, v, full_v),
            (divergence, v, full_v),
            (curl, v, full_v),
            (leray_project, v, full_v),
            (dealias, v, full_v),
            (laplacian, v, full_v),
            (inverse_laplacian, v, full_v),
            (tensor_divergence, t, full_t),
        ):
            assert np.array_equal(op(band, x), band.gather(op(grid, full_x))), op.__name__
        w = leray_project(band, band.forward(rng.standard_normal((3,) + grid.shape)))
        for op in (inner_product, gradient_inner_product):
            want = op(grid, full_v, band.scatter(w))
            assert abs(op(band, v, w) - want) <= 1e-15 * np.sqrt(
                op(grid, full_v, full_v) * op(grid, band.scatter(w), band.scatter(w))
            ), op.__name__
        for op in (norm_sq, gradient_norm_sq):
            want = op(grid, full_v)
            assert abs(op(band, v) - want) <= 1e-15 * want, op.__name__


class TestDifferentialOperators:
    """Operators against hand derivatives and exact vector identities."""

    def test_gradient_matches_analytic(self, grid):
        x1, x2, x3 = grid.x
        f = np.sin(2.0 * x1) * np.cos(x3)
        g = grid.inverse(gradient(grid, grid.forward(f)))
        assert np.abs(g[0] - 2.0 * np.cos(2.0 * x1) * np.cos(x3)).max() < 1e-12
        assert np.abs(g[1]).max() < 1e-12
        assert np.abs(g[2] + np.sin(2.0 * x1) * np.sin(x3)).max() < 1e-12

    def test_gradient_layout_on_vectors(self, grid, random_vector):
        """gradient of a vector stacks d_i along the first axis: out[i, j] = d_i u_j."""
        g = gradient(grid, random_vector)
        assert g.shape == (3, 3) + grid.spectral_shape
        for j in range(3):
            single = gradient(grid, random_vector[j])
            assert np.abs(g[:, j] - single).max() < 1e-15

    def test_divergence_of_gradient_is_laplacian(self, grid, random_scalar):
        lhs = divergence(grid, gradient(grid, random_scalar))
        rhs = laplacian(grid, random_scalar)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_curl_of_gradient_vanishes(self, grid, random_scalar):
        c = curl(grid, gradient(grid, random_scalar))
        assert np.abs(c).max() < 1e-12

    def test_divergence_of_curl_vanishes(self, grid, random_vector):
        d = divergence(grid, curl(grid, random_vector))
        assert np.abs(d).max() < 1e-12

    def test_tensor_divergence_contracts_first_index(self, grid, random_vector):
        t = gradient(grid, random_vector)  # t[i, j] = d_i u_j
        td = tensor_divergence(grid, t)
        for j in range(3):
            assert np.abs(td[j] - laplacian(grid, random_vector[j])).max() < 1e-12

    def test_inverse_laplacian_round_trip(self, grid, random_scalar):
        f = random_scalar.copy()
        f[0, 0, 0] = 0.0  # zero-mean gauge
        assert np.abs(laplacian(grid, inverse_laplacian(grid, f)) - f).max() < 1e-12
        assert inverse_laplacian(grid, f)[0, 0, 0] == 0.0

    def test_leray_projection_algebra(self, grid, random_vector, random_scalar):
        p = leray_project(grid, random_vector)
        assert divergence_max(grid, p) < 1e-14
        assert np.abs(leray_project(grid, p) - p).max() < 1e-13
        assert np.abs(p[..., 0, 0, 0]).max() == 0.0
        killed = leray_project(grid, gradient(grid, random_scalar))
        assert np.abs(killed).max() < 1e-13

    def test_leray_self_adjoint(self, grid):
        rng = np.random.default_rng(5)
        a = grid.forward(rng.standard_normal((3,) + grid.shape))
        b = grid.forward(rng.standard_normal((3,) + grid.shape))
        lhs = inner_product(grid, leray_project(grid, a), b)
        rhs = inner_product(grid, a, leray_project(grid, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dealias_truncates(self, grid, random_scalar):
        d = dealias(grid, random_scalar)
        cut = grid.dealias_cutoff
        live = (
            (np.abs(grid.k1) <= cut) & (np.abs(grid.k2) <= cut) & (np.abs(grid.k3) <= cut)
        )
        assert np.abs(d[~live]).max() == 0.0
        assert np.abs((d - random_scalar)[live]).max() == 0.0

    def test_out_writes_the_allocating_forms_bits(self, grid, random_vector):
        """dealias, inverse_laplacian and leray_project given `out` write
        into it, bit for bit the expression each one replaced."""
        v = random_vector
        for op, want in (
            (dealias, v * grid.dealias_mask),
            (inverse_laplacian, -grid.inv_k_sq * v),
            (leray_project, None),
        ):
            out = np.empty_like(v)
            assert op(grid, v, out=out) is out
            if want is None:
                kdotv = grid.k_vec[0] * v[0] + grid.k_vec[1] * v[1] + grid.k_vec[2] * v[2]
                want = v - grid.k_vec * (kdotv * grid.inv_k_sq)
                want[..., 0, 0, 0] = 0.0
            assert out.tobytes() == want.tobytes() == op(grid, v).tobytes(), op.__name__

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_edge_mode_square_does_not_alias(self, n):
        """cos(p x)^2 = (1 + cos(2p x))/2 for the last kept mode p: the 2p
        harmonic must alias onto a truncated mode, never back onto +-p."""
        g = Grid(n=n, nu=0.1, dt=1e-3, t_end=1e-2)
        p = g.dealias_cutoff
        sq = dealias(g, g.forward(np.cos(p * g.x[0]) ** 2))
        # an aliased 2p harmonic would put 1/4 there
        assert max(abs(sq[p, 0, 0]), abs(sq[-p, 0, 0])) < 1e-14
        assert sq[0, 0, 0] == pytest.approx(0.5, abs=1e-15)


class TestInnerProducts:
    """Parseval identities tying the spectral and collocation quadratures."""

    def test_parseval_against_grid_quadrature(self, grid):
        rng = np.random.default_rng(13)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        lhs = inner_product(grid, grid.forward(f), grid.forward(g))
        rhs = grid_inner_product(grid, f, g)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_norm_of_sine(self, grid):
        """integral sin(x1)^2 = (2 pi)^3 / 2, exactly representable."""
        f_hat = grid.forward(np.sin(grid.x[0]))
        assert norm_sq(grid, f_hat) == pytest.approx(0.5 * VOLUME, rel=1e-14)

    def test_norm_sq_consistent_with_inner_product(self, grid):
        """Exact over 20 draws: both are the same split-product sum, where
        the complex product (f * conj f).real may round differently."""
        rng = np.random.default_rng(19)
        for _ in range(20):
            f = grid.forward(rng.standard_normal((3,) + grid.shape))
            assert norm_sq(grid, f) == inner_product(grid, f, f)

    def test_gradient_norm_sq_consistent_with_gradient_inner_product(self, grid):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = grid.forward(rng.standard_normal((3,) + grid.shape))
            assert gradient_norm_sq(grid, f) == gradient_inner_product(grid, f, f)

    def test_gradient_pairing_avoids_forming_gradients(self, grid, random_vector):
        rng = np.random.default_rng(17)
        other = grid.forward(rng.standard_normal((3,) + grid.shape))
        direct = inner_product(grid, gradient(grid, random_vector), gradient(grid, other))
        weighted = gradient_inner_product(grid, random_vector, other)
        assert weighted == pytest.approx(direct, rel=1e-12)


def block_sum(weight, x, y):
    """The block-order split-product sum parseval_sum is documented to equal."""
    xy = weight * (x.real * y.real + x.imag * y.imag)
    return VOLUME * float(np.sum(np.sum(xy, axis=(-3, -2, -1))))


class TestParsevalSum:
    """The one reduction behind every norm and pairing."""

    @pytest.mark.parametrize("n", [16, 18])  # odd and even nh
    @pytest.mark.parametrize("lead", [(), (3,), (3, 3)])
    def test_functions_are_the_block_order_sum(self, n, lead):
        grid = Grid(n=n, nu=0.05, dt=0.01, t_end=0.1)
        rng = np.random.default_rng(n + len(lead))
        f, g = (grid.forward(rng.standard_normal(lead + grid.shape)) for _ in range(2))
        w, wk = grid.parseval_w, grid.parseval_w * grid.k_sq
        assert inner_product(grid, f, g) == block_sum(w, f, g)
        assert norm_sq(grid, f) == block_sum(w, f, f)
        assert gradient_inner_product(grid, f, g) == block_sum(wk, f, g)
        assert gradient_norm_sq(grid, f) == block_sum(wk, f, f)

    @pytest.mark.parametrize("n", [16, 18])
    def test_time_weight_indexed_along_the_first_axis(self, n):
        """An (S, 1, n, n, nh) weight, as the oracle's tw * |k|^2 weight,
        on an (S, 3, ...) pair."""
        grid = Grid(n=n, nu=0.05, dt=0.01, t_end=0.1)
        rng = np.random.default_rng(29)
        f, g = (grid.forward(rng.standard_normal((5, 3) + grid.shape)) for _ in range(2))
        tw = trapezoid_weights(np.linspace(0.0, 1.0, 5)).reshape((5, 1, 1, 1, 1))
        weight = tw * grid.gradient_w
        assert parseval_sum(weight, f, g) == block_sum(weight, f, g)
        assert parseval_sum(weight, f, f) == block_sum(weight, f, f)

    def test_within_round_off_of_the_complex_product_form(self, grid):
        """|new - old| <= 1e-14 sqrt(||f||^2 ||g||^2) against the sum of
        (f * conj g).real, for the plain and the gradient pairing."""
        rng = np.random.default_rng(31)
        pairs = (
            (grid.parseval_w, inner_product, norm_sq),
            (grid.gradient_w, gradient_inner_product, gradient_norm_sq),
        )
        for lead in ((), (3,), (3, 3)):
            f, g = (grid.forward(rng.standard_normal(lead + grid.shape)) for _ in range(2))
            for weight, pairing, norm in pairs:
                old = VOLUME * float(
                    np.sum(np.sum(weight * (f * np.conj(g)).real, axis=(-3, -2, -1)))
                )
                bound = 1e-14 * np.sqrt(norm(grid, f) * norm(grid, g))
                assert abs(pairing(grid, f, g) - old) <= bound

    def test_tensor_pairing_scratch_is_one_slab(self, grid):
        """One tensor pairing at 16^3 peaks at 0.51 tensor fields: two real
        slabs (3, n, n, nh) and numpy's fixed broadcast buffer.  The complex
        product form peaks at 1.70."""
        rng = np.random.default_rng(37)
        f, g = (grid.forward(rng.standard_normal((3, 3) + grid.shape)) for _ in range(2))
        inner_product(grid, f, g)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            inner_product(grid, f, g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * f.nbytes


class TestDiagnosticsAndHelpers:
    """Defect measures, quadrature weights and random field generation."""

    def test_divergence_max_flags_unprojected_fields(self, grid, random_vector):
        assert divergence_max(grid, random_vector) > 1e-2
        assert divergence_max(grid, leray_project(grid, random_vector)) < 1e-14

    def test_hermitian_defect(self, grid, random_scalar):
        assert hermitian_defect(grid, random_scalar) < 1e-13
        corrupted = random_scalar.copy()
        corrupted[1, 2, 0] += 0.5 * np.abs(random_scalar).max()
        assert hermitian_defect(grid, corrupted) > 1e-3

    def test_trapezoid_weights(self):
        t = np.array([0.0, 0.1, 0.3, 0.6])
        w = trapezoid_weights(t)
        assert w.sum() == pytest.approx(0.6)
        # linear functions are integrated exactly
        assert float(w @ t) == pytest.approx(0.18)
        with pytest.raises(GridError, match="increasing"):
            trapezoid_weights(np.array([0.0, 0.2, 0.1]))
        with pytest.raises(GridError, match="increasing"):
            trapezoid_weights(np.array([0.0]))

    def test_random_divergence_free(self, grid):
        rng = np.random.default_rng(23)
        v = random_divergence_free(grid, rng, max_k_sq=9, amplitude=2.5)
        assert norm_sq(grid, v) == pytest.approx(2.5**2, rel=1e-12)
        assert divergence_max(grid, v) < 1e-13
        assert np.abs(v[..., grid.k_sq > 9.0]).max() == 0.0
        assert np.abs(v[..., 0, 0, 0]).max() == 0.0
