"""Time integration of incompressible Navier-Stokes on the periodic box.

The advection term is taken in rotational form, P[u x omega] with the
vorticity omega = curl u: u and omega are brought to the grid in one inverse
transform, their cross product goes back in one forward transform, and one
precomputed multiplier applies the two-thirds dealiasing and the Leray
projector P.  Since u x omega = -(u.grad)u + grad(|u|^2/2) and P removes
gradients, this is the convective term -P[(u.grad)u] with 9 transforms
instead of 15; it is exact because the two-thirds rule keeps the product
alias-free on the retained modes.  u.(u x omega) = 0 pointwise, so the term
moves energy between modes only.  The step is classical RK4 in
integrating-factor variables, so the viscous semigroup exp(-nu |k|^2 t) is
applied exactly and never restricts the step.  Pressure is never formed
during stepping; the projection removes it mode by mode.  The step holds
its state on the two-thirds band (spectral.Band), the only modes the
dealiasing keeps, so its arithmetic and transforms skip the modes that are
zero: step and nonlinear_term take band fields only, and simulate gathers
the initial field once, sums its energy ledger on the band and records
band states.

Beltrami (ABC) initial data gives an exact analytic solution of the discrete
system: omega = u for an eigenfield of curl, so u x omega vanishes pointwise
and the computed flow must follow u(t) = exp(-nu t) u(0) to round-off.  That
closed form is the solver's primary oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import BlowUpError, GridError
from .spectral import Grid


@dataclass(frozen=True)
class InitialCondition:
    """Recipe for an initial velocity field.

    kind: 'beltrami_abc', 'taylor_green' or 'random_band'.
    amplitude: for the trig fields a plain prefactor; for 'random_band' the
        RMS velocity, i.e. ||u||_{L2}^2 = amplitude^2 * (2*pi)^3.
    seed / slope / k_min / k_max: random_band parameters; the shell spectrum
        is E(s) proportional to s**slope for k_min <= s <= k_max, exact by
        construction.
    abc: the (A, B, C) coefficients for 'beltrami_abc'.
    """

    kind: str
    amplitude: float = 1.0
    seed: int | None = None
    slope: float | None = None
    k_min: int | None = None
    k_max: int | None = None
    abc: tuple = (1.0, 1.0, 1.0)


def make_initial(grid, ic):
    """Build the spectral initial velocity for an InitialCondition.

    The result is divergence-free, zero-mean, dealiased and Hermitian.
    """
    if ic.kind == "beltrami_abc":
        a, b, c = ic.abc
        x1, x2, x3 = grid.x
        u = np.empty((3,) + grid.shape)
        u[0] = a * np.sin(x3) + c * np.cos(x2)
        u[1] = b * np.sin(x1) + a * np.cos(x3)
        u[2] = c * np.sin(x2) + b * np.cos(x1)
        u_hat = grid.forward(ic.amplitude * u)
    elif ic.kind == "taylor_green":
        x1, x2, x3 = grid.x
        u = np.zeros((3,) + grid.shape)
        u[0] = np.sin(x1) * np.cos(x2) * np.cos(x3)
        u[1] = -np.cos(x1) * np.sin(x2) * np.cos(x3)
        u_hat = grid.forward(ic.amplitude * u)
    elif ic.kind == "random_band":
        u_hat = _random_band(grid, ic)
    else:
        raise GridError(f"unknown initial condition kind {ic.kind!r}")
    u_hat = spectral.leray_project(grid, spectral.dealias(grid, u_hat))
    return u_hat


def shell_targets(ic):
    """random_band's energy per shell s = k_min..k_max, s**slope scaled to a
    total of 1/2 amplitude^2 VOLUME; GridError unless all are finite, sum > 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        targets = np.arange(ic.k_min, ic.k_max + 1, dtype=np.float64) ** ic.slope
        targets *= 0.5 * ic.amplitude**2 * spectral.VOLUME / targets.sum()
    if not (np.all(np.isfinite(targets)) and targets.sum() > 0.0):
        raise GridError(f"random_band slope {ic.slope:g} leaves no finite shell energies")
    return targets


def _random_band(grid, ic):
    if ic.seed is None or ic.slope is None or ic.k_min is None or ic.k_max is None:
        raise GridError("random_band requires seed, slope, k_min and k_max")
    if not (1 <= ic.k_min <= ic.k_max <= grid.dealias_cutoff):
        raise GridError(
            f"random_band band [{ic.k_min}, {ic.k_max}] outside the resolved "
            f"range [1, {grid.dealias_cutoff}]"
        )
    targets = shell_targets(ic)
    rng = np.random.default_rng(ic.seed)
    noise = rng.standard_normal((3,) + grid.shape)
    u_hat = spectral.leray_project(grid, grid.forward(noise))
    k_mag = np.sqrt(grid.k_sq)
    shells, energies = energy_spectrum(grid, u_hat)
    band = slice(ic.k_min - 1, ic.k_max)
    scaled = np.zeros_like(u_hat)
    for s, target, current in zip(shells[band], targets, energies[band]):
        mask = (k_mag > s - 0.5) & (k_mag <= s + 0.5)
        if current <= 0.0:
            raise GridError(f"empty spectral shell {s} in random_band")
        scaled += np.sqrt(target / current) * (u_hat * mask)
    return scaled


def energy_spectrum(grid, u_hat):
    """Shell-summed kinetic energy spectrum.

    Returns (shells, energies) for integer shells 1..grid.dealias_cutoff with the
    convention sum(energies) = kinetic energy of the dealiased field.
    """
    k_mag = np.sqrt(grid.k_sq)
    shells = np.arange(1, grid.dealias_cutoff + 1)
    out = np.zeros(shells.size)
    density = grid.parseval_w * np.abs(spectral.dealias(grid, u_hat)) ** 2
    for i, s in enumerate(shells):
        mask = (k_mag > s - 0.5) & (k_mag <= s + 0.5)
        out[i] = 0.5 * spectral.VOLUME * float(np.sum(density * mask))
    return shells, out


def nonlinear_term(grid, u_hat, out=None):
    """Dealiased, projected advection term P[u x omega] in spectral space.

    Equal to -P[(u.grad)u], since u x omega = grad(|u|^2/2) - (u.grad)u and
    P removes gradients.  One inverse transform of the stacked (u, omega) and
    one forward transform of their product; zero for Beltrami data (omega =
    u).  Takes and returns fields in the two-thirds band layout (grid.band),
    works in grid.workspace and writes the term to `out`, or to a fresh
    array when `out` is None.  Bitwise equal to the band of

        uw = inverse(concatenate((u_hat, curl(u_hat)))); u, w = uw[:3], uw[3:]
        f = forward(stack((u[1]*w[2] - u[2]*w[1], u[2]*w[0] - u[0]*w[2],
                           u[0]*w[1] - u[1]*w[0])))
        keep * f - e * (e[0]*f[0] + e[1]*f[1] + e[2]*f[2])

    in the full layout, with keep and e the full-layout forms of band.keep
    and band.e (see spectral.Band), since it applies the same operations to
    the same operand types and the band transforms skip only zero lines.
    """
    band, ws = grid.band, grid.workspace
    uw_hat, (s, tmp) = ws.uw_hat, ws.scalar
    np.copyto(uw_hat[:3], u_hat)
    # omega_i = 1j * (k_a u_b - k_b u_a) for (i, a, b) cyclic, as spectral.curl
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        omega = uw_hat[3 + i]
        np.multiply(band.k_vec[a], u_hat[b], out=omega)
        np.multiply(band.k_vec[b], u_hat[a], out=tmp)
        np.subtract(omega, tmp, out=omega)
        np.multiply(1j, omega, out=omega)
    uw = grid.inverse(uw_hat, out=ws.uw)
    u, w = uw[:3], uw[3:]
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        np.multiply(u[a], w[b], out=ws.cross[i])
        np.multiply(u[b], w[a], out=ws.product)
        np.subtract(ws.cross[i], ws.product, out=ws.cross[i])
    f = grid.forward(ws.cross, out=uw_hat[:3])
    e = band.e
    np.multiply(e[0], f[0], out=s)
    np.multiply(e[1], f[1], out=tmp)
    np.add(s, tmp, out=s)
    np.multiply(e[2], f[2], out=tmp)
    np.add(s, tmp, out=s)
    projected = np.multiply(e, s, out=uw_hat[3:])
    np.multiply(band.keep, f, out=f)
    return np.subtract(f, projected, out=out)


def step(grid, u_hat):
    """One integrating-factor RK4 step of length grid.dt.

    Takes and returns fields in the two-thirds band layout (grid.band).
    Returns a fresh array, which no later step overwrites, and leaves u_hat
    unchanged; the stages live in grid.workspace, so one grid must not be
    stepped from two threads at once.  Each line below is one operation of
    the expressions in the comments, with the same operands, so the result
    is bitwise that of evaluating them with temporaries.
    """
    dt, e_half = grid.dt, grid.band.half_step_decay
    ws = grid.workspace
    u_half, (k1, k2, k3, k4), arg = ws.u_half, ws.k, ws.arg
    # Stages k_i = N(.); the full-step factor is applied as e_half twice:
    # e u + (e dt k1 + 2 e_half dt (k2 + k3) + dt k4) / 6
    #   = e_half (e_half u + dt (e_half k1 + 2 (k2 + k3)) / 6) + dt k4 / 6
    np.multiply(e_half, u_hat, out=u_half)
    nonlinear_term(grid, u_hat, out=k1)
    # k2 = N(u_half + e_half * (0.5 * dt * k1))
    np.multiply(0.5 * dt, k1, out=arg)
    np.multiply(e_half, arg, out=arg)
    np.add(u_half, arg, out=arg)
    nonlinear_term(grid, arg, out=k2)
    # k3 = N(u_half + 0.5 * dt * k2)
    np.multiply(0.5 * dt, k2, out=arg)
    np.add(u_half, arg, out=arg)
    nonlinear_term(grid, arg, out=k3)
    # k4 = N(e_half * (u_half + dt * k3))
    np.multiply(dt, k3, out=arg)
    np.add(u_half, arg, out=arg)
    np.multiply(e_half, arg, out=arg)
    nonlinear_term(grid, arg, out=k4)
    # e_half * (u_half + (dt / 6) * (e_half * k1 + 2 * (k2 + k3))) + (dt / 6) * k4
    np.multiply(e_half, k1, out=arg)
    np.add(k2, k3, out=k2)
    np.multiply(2.0, k2, out=k2)
    np.add(arg, k2, out=arg)
    np.multiply(dt / 6.0, arg, out=arg)
    np.add(u_half, arg, out=arg)
    np.multiply(e_half, arg, out=arg)
    np.multiply(dt / 6.0, k4, out=k4)
    return np.add(arg, k4)


@dataclass
class Trajectory:
    """Snapshots of one simulation plus its step-resolved energy ledger.

    times / u_hats / energies / dissipation are snapshot-aligned; u_hats are
    in the two-thirds band layout (grid.band), (S, 3) + band.spectral_shape,
    whoever made them: simulate records band states and
    snapshots.read_series reads each file straight into a band row.
    dissipation
    holds the cumulative nu * int_0^t ||grad u||^2 ds accumulated with the
    trapezoid rule at full step resolution (snapshot-level quadrature would
    waste most of the energy-equality tolerance).  step_energies records
    0.5*||u||^2 after every step for the integrator's energy audit.
    """

    grid: Grid
    times: np.ndarray
    u_hats: np.ndarray
    energies: np.ndarray
    dissipation: np.ndarray
    step_energies: np.ndarray = field(default=None, repr=False)

    @property
    def initial_energy(self):
        return float(self.energies[0])

    def __len__(self):
        return self.times.size

    def global_energy_residuals(self):
        """|E(t) + nu*int_0^t ||grad u||^2 - E(0)| at every snapshot."""
        return np.abs(self.energies + self.dissipation - self.energies[0])


def simulate(grid, u0_hat):
    """March the flow to grid.t_end, recording every snapshot_stride-th state.

    The initial state and the final state are always recorded.  The state is
    gathered once to the two-thirds band (grid.band) and stepped there; the
    energy ledger sums it on the band (parseval_sum with band.parseval_w and
    band.gradient_w), and a recorded state is copied into its band row of
    the snapshot stack.  The snapshot stack
    and the step ledger are allocated once, and the result and
    BlowUpError.partial are views of them.  Raises BlowUpError (with the
    failure time) on NaN or overflow.  grid.workspace and the transform
    buffers (Grid.buffer) are dropped on return.
    """
    if spectral.divergence_max(grid, u0_hat) > 1e-8:
        raise GridError("initial velocity is not divergence-free")
    band = grid.band
    u = band.gather(spectral.dealias(grid, u0_hat).astype(np.complex128))
    u[..., 0, 0, 0] = 0.0

    recorded = np.array([*range(0, grid.steps, grid.snapshot_stride), grid.steps])
    u_hats = np.empty((recorded.size,) + u.shape, dtype=np.complex128)
    # 0.5 ||u||^2 and the cumulative nu int_0^t ||grad u||^2 after each step
    step_energies, dissipation = np.empty((2, grid.steps + 1))

    def ledger(s, v):  # records 0.5 ||v||^2, returns ||grad v||^2
        step_energies[s] = 0.5 * spectral.parseval_sum(band.parseval_w, v, v)
        return spectral.parseval_sum(band.gradient_w, v, v)

    def trajectory(snaps, last):  # the first `snaps` snapshots, the ledger of steps 0..last
        at = recorded[:snaps]
        return Trajectory(
            grid=grid,
            times=at * grid.dt,
            u_hats=u_hats[:snaps],
            energies=step_energies[at],
            dissipation=dissipation[at],
            step_energies=step_energies[: last + 1],
        )

    u_hats[0] = u
    snaps = 1
    dissipation[0] = 0.0
    gsq_prev = ledger(0, u)
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for s in range(1, grid.steps + 1):
                u = step(grid, u)
                if not np.all(np.isfinite(u)):
                    err = BlowUpError(s * grid.dt, s)
                    err.partial = trajectory(snaps, s - 1)
                    raise err
                gsq = ledger(s, u)
                dissipation[s] = dissipation[s - 1] + 0.5 * grid.dt * grid.nu * (gsq_prev + gsq)
                gsq_prev = gsq
                if s == recorded[snaps]:
                    u_hats[snaps] = u
                    snaps += 1
    finally:
        grid.__dict__.pop("workspace", None)
        grid.drop_buffers()
    return trajectory(snaps, grid.steps)
