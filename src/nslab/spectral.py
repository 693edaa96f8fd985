"""Spectral substrate for incompressible fields on the periodic box [0, 2*pi)^3.

The box edge is fixed at 2*pi so wavevectors are integer triples.  Real fields
live on an n^3 collocation grid; spectral fields use the half-complex rfftn
layout with shape (..., n, n, n//2 + 1).  Transforms follow the *coefficient*
convention

    u_hat(k) = (1/n^3) * sum_x u(x) exp(-i k.x),
    u(x)     = sum_k u_hat(k) exp(+i k.x),

so a single Fourier mode's coefficient is its analytic series coefficient
(e.g. sin(x1) has coefficients -i/2 at k=(1,0,0) and +i/2 at k=(-1,0,0)).
With this convention Parseval reads

    integral(f * g) = (2*pi)^3 * sum_k Re(f_hat(k) * conj(g_hat(k))),

where the sum runs over the full wavevector lattice; the half-complex layout
accounts for the missing conjugate modes with a weight of 2 on interior
planes of the last axis.  Every norm and inner product in the package is one
call of :func:`parseval_sum`: VOLUME * sum(weight * (Re x Re y + Im x Im y))
in split products (numpy may fuse (f * conj g).real into multiply-adds, and
then <f, f> and ||f||^2 differ in the last bits), summed per (n, n, nh) block
and then over the block sums.  Kept apart on purpose: basket's pairings
(math.fsum over the support modes, as they cancel) and energy_spectrum in
solver (its bits fix the random_band initial field).

The solver and the analysis work in a smaller layout, :class:`Band`: only
the modes the two-thirds rule keeps, stored contiguously.  Grid.forward and
Grid.inverse accept it and skip the transform lines that are zero in it.
Every helper below reads its multipliers (k_vec, k_sq, inv_k_sq,
dealias_mask, parseval_w, gradient_w) from the layout object it is given,
a Grid for full-layout fields or grid.band for band fields, so one code
path serves both; the band also holds the solver's multipliers.  The full
layout is only what the solver is given and what real-space data (a kernel
sample, noise) transforms to before its band is kept.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import GridError, KernelError

TWO_PI = 2.0 * np.pi
#: Volume of the computational box [0, 2*pi)^3.
VOLUME = TWO_PI**3
#: Extent of the RK4 stability region on the negative real axis.  With the
#: exact viscous integrating factor the viscous term imposes no sharp step
#: restriction; this bound is used as a construction-time sanity guard on
#: dt * nu * k_max^2 for the retained (dealiased) modes.
RK4_REAL_AXIS_BOUND = 2.785


class Grid:
    """Collocation grid, wavevectors and transform plumbing for one resolution.

    Args:
        n: collocation points per axis; must be even and >= 16.  Powers of two
            give the fastest transforms and are recommended.
        nu: kinematic viscosity (> 0).
        dt: time step (> 0); t_end must be an integer multiple of dt.
        t_end: final time (> 0).
        snapshot_stride: steps between retained snapshots (>= 1).
    """

    def __init__(self, n, nu, dt, t_end, snapshot_stride=10):
        if int(n) != n or n < 16 or n % 2 != 0:
            raise GridError(f"n must be an even integer >= 16, got {n}")
        if nu <= 0.0:
            raise GridError(f"nu must be positive, got {nu}")
        if dt <= 0.0 or t_end <= 0.0:
            raise GridError("dt and t_end must be positive")
        if int(snapshot_stride) != snapshot_stride or snapshot_stride < 1:
            raise GridError(f"snapshot_stride must be an integer >= 1, got {snapshot_stride}")
        steps = round(t_end / dt)
        if steps < 1 or abs(steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
            raise GridError(f"t_end={t_end} is not an integer multiple of dt={dt}")

        self.n = int(n)
        self.nu = float(nu)
        self.dt = float(dt)
        self.t_end = float(t_end)
        self.snapshot_stride = int(snapshot_stride)
        self.steps = steps
        self.h = TWO_PI / self.n
        self.shape = (self.n, self.n, self.n)
        self.nh = self.n // 2 + 1
        self.spectral_shape = (self.n, self.n, self.nh)

        k_full = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.float64)
        k_half = np.arange(self.nh, dtype=np.float64)
        self.k1 = k_full[:, None, None]
        self.k2 = k_full[None, :, None]
        self.k3 = k_half[None, None, :]
        #: Wavevector components broadcast to full spectral shape, (3, n, n, nh).
        self.k_vec = np.empty((3,) + self.spectral_shape, dtype=np.float64)
        self.k_vec[0] = self.k1
        self.k_vec[1] = self.k2
        self.k_vec[2] = self.k3
        self.k_sq = self.k_vec[0] ** 2 + self.k_vec[1] ** 2 + self.k_vec[2] ** 2
        # 1/|k|^2 with the zero mode mapped to 0: the inverse Laplacian is
        # defined on zero-mean data and pins the zero-mean gauge.
        with np.errstate(divide="ignore"):
            inv = np.where(self.k_sq > 0.0, 1.0 / np.where(self.k_sq > 0.0, self.k_sq, 1.0), 0.0)
        self.inv_k_sq = inv

        # Two-thirds rule: keep |k_i| < n/3 on every axis.  A product of two
        # kept modes then reaches at most 2*cutoff, and its alias
        # 2*cutoff - n stays below -cutoff, so no retained mode is polluted.
        self.dealias_cutoff = (self.n - 1) // 3
        cut = self.dealias_cutoff
        self.dealias_mask = (
            (np.abs(self.k1) <= cut) & (np.abs(self.k2) <= cut) & (np.abs(self.k3) <= cut)
        )

        # Parseval weights for the half-complex layout: planes k3=0 and k3=n/2
        # are self-conjugate, every interior plane stands in for two modes.
        # Stored at full spectral shape: numpy multiplies by a broadcast
        # operand through its buffered iterator, at about twice the cost.
        self.parseval_w = np.full(self.spectral_shape, 2.0)
        self.parseval_w[..., 0] = 1.0
        self.parseval_w[..., -1] = 1.0
        self.gradient_w = self.parseval_w * self.k_sq  # of the gradient pairings

        stability = self.dt * self.nu * 3.0 * cut**2
        if stability > RK4_REAL_AXIS_BOUND:
            raise GridError(
                f"dt*nu*k_max^2 = {stability:.3g} exceeds the RK4 bound "
                f"{RK4_REAL_AXIS_BOUND}; reduce dt or the resolution"
            )

        x1 = np.arange(self.n) * self.h
        self.x = np.meshgrid(x1, x1, x1, indexing="ij")

    def forward(self, field, out=None):
        """Real field(s) (..., n, n, n) -> spectral coefficients (..., n, n, nh).

        Given `out`, rfftn runs its three passes in it: rfft of the last axis
        into `out`, then fft of axes -2 and -3 in place.  An `out` in band
        layout (see Band) receives the band of that result, bitwise: rfft of
        every line, then fft of axis -2 on planes k3 <= c only and of axis -3
        on the kept (k2, k3) lines only, all in one transform buffer.
        """
        if out is None or out.shape[-3:] == self.spectral_shape:
            return np.fft.rfftn(field, axes=(-3, -2, -1), norm="forward", out=out)
        band = self.band
        work = self.buffer("forward", field.shape[:-3] + self.spectral_shape)
        np.fft.rfft(field, axis=-1, norm="forward", out=work)
        planes = work[..., band.planes]
        np.fft.fft(planes, axis=-2, norm="forward", out=planes)
        for _, rows in band.rows:
            lines = planes[..., rows, :]
            np.fft.fft(lines, axis=-3, norm="forward", out=lines)
        return band.gather(work, out=out)

    def inverse(self, field_hat, out=None):
        """Spectral coefficients (..., n, n, nh) or their band -> real field(s) (..., n, n, n).

        A full-layout field goes through irfftn.  A field in band layout
        (see Band) is transformed as irfftn of its scatter, bitwise, skipping
        the lines that are zero there: ifft of axis -3 on the kept (k2, k3)
        lines only, in two slab calls, ifft of axis -2 on planes k3 <= c
        only, and irfft of every line.  Its transform buffers hold zeros
        where no pass writes: the rows between the kept blocks and the
        planes above c.
        """
        if field_hat.shape[-3:] == self.spectral_shape:
            return np.fft.irfftn(
                field_hat, s=self.shape, axes=(-3, -2, -1), norm="forward", out=out
            )
        n, band, lead = self.n, self.band, field_hat.shape[:-3]
        width, depth = band.spectral_shape[1:]  # 2c + 1 kept rows of axis -2, c + 1 planes
        spread = self.buffer("inverse_rows", lead + (n, width, depth))
        lines = self.buffer("inverse_lines", lead + (n, n, depth))
        planes = self.buffer("inverse_planes", lead + self.spectral_shape)
        for kept, rows in band.rows:
            spread[..., rows, :, :] = field_hat[..., kept, :, :]
        for kept, rows in band.rows:
            np.fft.ifft(spread[..., kept, :], n, axis=-3, norm="forward", out=lines[..., rows, :])
        np.fft.ifft(lines, n, axis=-2, norm="forward", out=planes[..., band.planes])
        return np.fft.irfft(planes, n, axis=-1, norm="forward", out=out)

    def buffer(self, name, shape):
        """The band transforms' complex buffer of this name and shape,
        zero-filled when first made and kept on the grid for later calls (a
        band transform never writes where it relies on zeros).  Shared by
        every transform on this grid, so one grid must not transform from
        two threads at once."""
        buffers = self.__dict__.setdefault("_buffers", {})
        buf = buffers.get((name, shape))
        if buf is None:
            buf = buffers[name, shape] = np.zeros(shape, dtype=np.complex128)
        return buf

    def drop_buffers(self):
        """Release every Grid.buffer; the next band transform makes them anew."""
        self.__dict__.pop("_buffers", None)

    @cached_property
    def band(self):
        """The two-thirds band layout the solver and the analysis work in; see Band."""
        return Band(self)

    @cached_property
    def workspace(self):
        """Scratch arrays of solver.step and solver.nonlinear_term, built on
        the first step and reused by every later one until solver.simulate
        drops them on return; see StepWorkspace."""
        return StepWorkspace(self)

    def __repr__(self):
        return (
            f"Grid(n={self.n}, nu={self.nu}, dt={self.dt}, "
            f"t_end={self.t_end}, snapshot_stride={self.snapshot_stride})"
        )


def width_schedule(grid, delta0, count):
    """Dyadic widths delta0 * 2^-j, j = 0..count-1, validated against the grid."""
    if count < 1:
        raise KernelError("schedule needs at least one width")
    widths = [float(delta0) * 2.0**-j for j in range(int(count))]
    for w in widths:
        if w > np.pi or w < 2.0 * grid.h - 1e-12:
            raise KernelError(
                f"schedule width {w:.6g} outside the representable band "
                f"[{2.0 * grid.h:.6g}, {np.pi:.6g}]"
            )
    return widths


class Band:
    """The modes the two-thirds rule keeps, stored contiguously.

    With c = grid.dealias_cutoff these are rows 0..c and n-c..n-1 of axes -3
    and -2 and planes 0..c of axis -1 of the half-complex layout.  The band
    layout holds them as arrays of trailing shape spectral_shape = (2c+1,
    2c+1, c+1): band row j <= c is wavenumber j, row j > c is j - (2c+1).
    Every other mode of a dealiased field is zero.  That shape never equals
    (n, n, n/2+1), so Grid.forward and Grid.inverse tell the layout from an
    array's trailing shape.

    A Band is a layout object like its Grid: the spectral helpers of this
    module read k_vec, k_sq, inv_k_sq, dealias_mask (all True: every band
    mode passes the 2/3 rule), parseval_w and gradient_w from it, each the
    gather of the grid's, and shape, forward and inverse are the grid's
    real shape and transforms with band-layout spectral fields.

    The solver's multipliers live here too.  leray_project(dealias(v)) =
    keep * v - e * (e . v): keep is 1 on every band mode but the mean, and
    e = keep * k / |k|.  half_step_decay is exp(-nu |k|^2 dt / 2), the
    viscous integrating factor over half a step.  k_vec, keep, e and
    half_step_decay only ever multiply complex fields, so they are stored
    as complex128 (x + 0j, what numpy would cast them to): a multiply then
    needs no casting buffer and gives the same bits.
    """

    def __init__(self, grid):
        n, c = grid.n, grid.dealias_cutoff
        self._grid = grid
        self.shape = grid.shape
        self.full_shape = grid.spectral_shape
        self.spectral_shape = (2 * c + 1, 2 * c + 1, c + 1)
        #: (band rows, full rows) of the two kept blocks of axes -3 and -2
        self.rows = ((slice(0, c + 1), slice(0, c + 1)), (slice(c + 1, None), slice(n - c, n)))
        self.planes = slice(0, c + 1)
        k_vec = self.gather(grid.k_vec)
        self.k_sq, self.inv_k_sq = self.gather(grid.k_sq), self.gather(grid.inv_k_sq)
        self.dealias_mask = np.ones(self.spectral_shape, dtype=bool)
        keep = np.ones(self.spectral_shape)
        keep[0, 0, 0] = 0.0
        e = k_vec * (keep * np.sqrt(self.inv_k_sq))
        half_step_decay = np.exp(-grid.nu * self.k_sq * (0.5 * grid.dt))
        self.k_vec, self.keep, self.e, self.half_step_decay = (
            x.astype(np.complex128) for x in (k_vec, keep, e, half_step_decay)
        )
        self.parseval_w = self.gather(grid.parseval_w)
        self.gradient_w = self.gather(grid.gradient_w)

    def forward(self, field, out=None):
        """Real field(s) (..., n, n, n) -> their band (grid.forward)."""
        if out is None:
            out = np.empty(field.shape[:-3] + self.spectral_shape, dtype=np.complex128)
        return self._grid.forward(field, out=out)

    def inverse(self, field_hat, out=None):
        """Band field(s) -> real field(s) (..., n, n, n) (grid.inverse)."""
        return self._grid.inverse(field_hat, out=out)

    def gather(self, full, out=None):
        """The band of a half-complex field (..., n, n, nh), as four block copies."""
        if out is None:
            out = np.empty(full.shape[:-3] + self.spectral_shape, dtype=full.dtype)
        for kept1, rows1 in self.rows:
            for kept2, rows2 in self.rows:
                out[..., kept1, kept2, :] = full[..., rows1, rows2, self.planes]
        return out

    def scatter(self, band, out=None):
        """A band field in the half-complex layout, +0.0 outside the band:
        four block copies into zeros."""
        if out is None:
            out = np.zeros(band.shape[:-3] + self.full_shape, dtype=band.dtype)
        else:
            out.fill(0.0)
        for kept1, rows1 in self.rows:
            for kept2, rows2 in self.rows:
                out[..., rows1, rows2, self.planes] = band[..., kept1, kept2, :]
        return out


class StepWorkspace:
    """The buffers one RK4 step works in, so that a step allocates only its result.

    Spectral (complex) buffers are in band layout (Band) and hold 3-vectors
    unless noted: u_half = e_half u, k = the four stages, arg = the next
    stage's argument, uw_hat = the stacked (u, omega) (6 components; its
    first three then receive the forward transform of u x omega and its last
    three the projection's e (e . f)), scalar = two scalar fields (e . f and
    a product).  Real buffers: uw = (u, omega) on the grid (6 components),
    cross = u x omega, product = one scalar field.  The band transforms keep
    their zero-padded buffers on the grid (Grid.buffer).  Shared by every
    step on this grid, so one grid must not be stepped from two threads at
    once.
    """

    def __init__(self, grid):
        spec, real = grid.band.spectral_shape, grid.shape
        self.u_half = np.empty((3,) + spec, dtype=np.complex128)
        self.k = np.empty((4, 3) + spec, dtype=np.complex128)
        self.arg = np.empty((3,) + spec, dtype=np.complex128)
        self.uw_hat = np.empty((6,) + spec, dtype=np.complex128)
        self.scalar = np.empty((2,) + spec, dtype=np.complex128)
        self.uw = np.empty((6,) + real)
        self.cross = np.empty((3,) + real)
        self.product = np.empty(real)


def gradient(grid, f_hat):
    """Spectral gradient in grid's layout.  Scalar (n,n,nh) -> (3,n,n,nh); a
    leading component axis is preserved, e.g. vector (3,n,n,nh) ->
    (3,3,n,n,nh) with layout out[i, j] = (d/dx_i f_j)_hat (band fields
    alike, with the band's spectral shape)."""
    return 1j * grid.k_vec.reshape((3,) + (1,) * (f_hat.ndim - 3) + grid.spectral_shape) * f_hat


def divergence(grid, v_hat):
    """Spectral divergence of a vector field (3, n, n, nh) -> (n, n, nh)."""
    return 1j * (
        grid.k_vec[0] * v_hat[0] + grid.k_vec[1] * v_hat[1] + grid.k_vec[2] * v_hat[2]
    )


def tensor_divergence(grid, t_hat):
    """Divergence of a rank-2 field, contracting the first index:
    (3, 3, n, n, nh) -> (3, n, n, nh), out[j] = (d/dx_i T_ij)_hat."""
    return 1j * np.einsum("ixyz,ijxyz->jxyz", grid.k_vec, t_hat)


def laplacian(grid, f_hat):
    """Spectral Laplacian, -|k|^2 multiplier."""
    return -grid.k_sq * f_hat


def inverse_laplacian(grid, f_hat, out=None):
    """Solve lap(u) = f in the zero-mean gauge: the k=0 mode of the result is 0
    (and any k=0 content of f is discarded, consistent with solvability)."""
    return np.multiply(-grid.inv_k_sq, f_hat, out=out)


def curl(grid, v_hat):
    """Spectral curl of a vector field (3, n, n, nh)."""
    k1, k2, k3 = grid.k_vec
    out = np.empty_like(v_hat)
    out[0] = 1j * (k2 * v_hat[2] - k3 * v_hat[1])
    out[1] = 1j * (k3 * v_hat[0] - k1 * v_hat[2])
    out[2] = 1j * (k1 * v_hat[1] - k2 * v_hat[0])
    return out


def leray_project(grid, v_hat, out=None):
    """Leray projection u_hat -> (I - k k^T/|k|^2) u_hat, zero mode set to 0.

    Idempotent and self-adjoint; annihilates gradient fields and the mean.
    `out`, if given, must not overlap v_hat.
    """
    kdotv = (
        grid.k_vec[0] * v_hat[0] + grid.k_vec[1] * v_hat[1] + grid.k_vec[2] * v_hat[2]
    )
    coef = kdotv * grid.inv_k_sq
    out = np.multiply(grid.k_vec, coef, out=out)
    np.subtract(v_hat, out, out=out)
    out[..., 0, 0, 0] = 0.0
    return out


def dealias(grid, f_hat, out=None):
    """Two-thirds-rule truncation: zero every mode with any |k_i| >= n/3,
    i.e. keep |k_i| <= grid.dealias_cutoff = floor((n - 1)/3)."""
    return np.multiply(f_hat, grid.dealias_mask, out=out)


def parseval_sum(weight, x, y):
    """VOLUME * sum(weight * (Re x * Re y + Im x * Im y)), x and y of one shape.

    weight broadcasts against a slab of the first axis, or has x's rank and
    is indexed along that axis.  Each slab is formed in two real scratch
    slabs; each (n, n, nh) block is summed, then the block sums.
    """
    if x.ndim == 3:
        x, y = x[None], y[None]
    xy, imag = np.empty((2,) + x.shape[1:])
    sums = np.empty(x.shape[:-3])
    for i in range(x.shape[0]):
        np.multiply(x[i].real, y[i].real, out=xy)
        np.multiply(x[i].imag, y[i].imag, out=imag)
        xy += imag
        xy *= weight[i] if weight.ndim == x.ndim else weight
        sums[i] = np.sum(xy, axis=(-3, -2, -1))
    return VOLUME * float(np.sum(sums))


def inner_product(grid, f_hat, g_hat):
    """L2 inner product integral(f . g) over the box via Parseval.

    Component axes (any leading dims) are summed over, so vector and tensor
    fields contract fully.  Both arguments must be spectral.
    """
    return parseval_sum(grid.parseval_w, f_hat, g_hat)


def norm_sq(grid, f_hat):
    """Squared L2 norm integral(|f|^2), nonnegative by construction."""
    return parseval_sum(grid.parseval_w, f_hat, f_hat)


def gradient_inner_product(grid, f_hat, g_hat):
    """integral(grad f : grad g) = sum_k |k|^2 <f,g>_k without forming the
    gradients; equals inner_product(gradient(f), gradient(g)) up to round-off."""
    return parseval_sum(grid.gradient_w, f_hat, g_hat)


def gradient_norm_sq(grid, f_hat):
    """integral(|grad f|^2) via the |k|^2-weighted Parseval sum."""
    return parseval_sum(grid.gradient_w, f_hat, f_hat)


def grid_inner_product(grid, f, g):
    """Collocation quadrature h^3 * sum(f * g) for *real* fields.

    By discrete Parseval this equals inner_product(forward(f), forward(g))
    exactly; a unit test pins the two code paths together.
    """
    return grid.h**3 * float(np.sum(f * g))


def divergence_max(grid, v_hat):
    """Scale-free divergence defect max_k |k . v_hat| / max_k (|k| |v_hat|)."""
    d = np.abs(divergence(grid, v_hat))
    mag = np.sqrt(np.sum(np.abs(v_hat) ** 2, axis=0))
    scale = float((np.sqrt(grid.k_sq) * mag).max())
    return float(d.max()) / max(scale, 1e-300)


def trapezoid_weights(times):
    """Composite-trapezoid quadrature weights for a 1-D increasing time grid."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise GridError("times must be a 1-D strictly increasing array of length >= 2")
    w = np.zeros_like(t)
    dt = np.diff(t)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _fit_order(deltas, values):
    """Least-squares slope of log|value| vs log(delta); NaN if underdetermined."""
    deltas = np.asarray(deltas, dtype=np.float64)
    values = np.abs(np.asarray(values, dtype=np.float64))
    mask = values > 0.0
    if np.count_nonzero(mask) < 2:
        return float("nan")
    slope = np.polyfit(np.log(deltas[mask]), np.log(values[mask]), 1)[0]
    return float(slope)


def random_divergence_free(grid, rng, max_k_sq, amplitude=1.0):
    """Random real divergence-free band-limited vector field (spectral).

    White Gaussian grid noise is transformed, truncated to 0 < |k|^2 <=
    max_k_sq and Leray-projected, then rescaled to L2 norm `amplitude`.
    Hermitian symmetry is inherited from the real-space construction.
    """
    noise = rng.standard_normal((3,) + grid.shape)
    v_hat = grid.forward(noise)
    band = (grid.k_sq > 0.0) & (grid.k_sq <= max_k_sq)
    v_hat *= band
    v_hat = leray_project(grid, v_hat)
    nrm = np.sqrt(norm_sq(grid, v_hat))
    if nrm == 0.0:
        raise GridError("empty band in random_divergence_free")
    return v_hat * (amplitude / nrm)
