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
during stepping; the projection removes it mode by mode.

Beltrami (ABC) initial data gives an exact analytic solution of the discrete
system: omega = u for an eigenfield of curl, so u x omega vanishes pointwise
and the computed flow must follow u(t) = exp(-nu t) u(0) to round-off.  That
closed form is the solver's primary oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .spectral import Grid, GridError


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the representable range (NaN/overflow)."""

    def __init__(self, time, step):
        super().__init__(f"solution blew up at t={time:.6g} (step {step})")
        self.time = time
        self.step = step
        self.partial = None  # Trajectory of the states recorded before failure


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


def _random_band(grid, ic):
    if ic.seed is None or ic.slope is None or ic.k_min is None or ic.k_max is None:
        raise GridError("random_band requires seed, slope, k_min and k_max")
    if not (1 <= ic.k_min <= ic.k_max <= grid.dealias_cutoff):
        raise GridError(
            f"random_band band [{ic.k_min}, {ic.k_max}] outside the resolved "
            f"range [1, {grid.dealias_cutoff}]"
        )
    rng = np.random.default_rng(ic.seed)
    noise = rng.standard_normal((3,) + grid.shape)
    u_hat = spectral.leray_project(grid, grid.forward(noise))
    k_mag = np.sqrt(grid.k_sq)
    shells, energies = energy_spectrum(grid, u_hat)
    band = slice(ic.k_min - 1, ic.k_max)
    targets = shells[band].astype(np.float64) ** ic.slope
    e_total = 0.5 * ic.amplitude**2 * spectral.VOLUME
    targets *= e_total / targets.sum()
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


def nonlinear_term(grid, u_hat):
    """Dealiased, projected advection term P[u x omega] in spectral space.

    Equal to -P[(u.grad)u], since u x omega = grad(|u|^2/2) - (u.grad)u and
    P removes gradients.  One inverse transform of the stacked (u, omega) and
    one forward transform of their product; zero for Beltrami data (omega =
    u).
    """
    uw = grid.inverse(np.concatenate((u_hat, spectral.curl(grid, u_hat))))
    u, w = uw[:3], uw[3:]
    f = grid.forward(
        np.stack((u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]))
    )
    keep, e = grid.dealiased_leray
    return keep * f - e * (e[0] * f[0] + e[1] * f[1] + e[2] * f[2])


def step(grid, u_hat):
    """One integrating-factor RK4 step of length grid.dt."""
    dt, e_half = grid.dt, grid.half_step_decay
    # Stages k_i = N(.); the full-step factor is applied as e_half twice:
    # e u + (e dt k1 + 2 e_half dt (k2 + k3) + dt k4) / 6
    #   = e_half (e_half u + dt (e_half k1 + 2 (k2 + k3)) / 6) + dt k4 / 6
    u_half = e_half * u_hat
    k1 = nonlinear_term(grid, u_hat)
    k2 = nonlinear_term(grid, u_half + e_half * (0.5 * dt * k1))
    k3 = nonlinear_term(grid, u_half + 0.5 * dt * k2)
    k4 = nonlinear_term(grid, e_half * (u_half + dt * k3))
    return e_half * (u_half + (dt / 6.0) * (e_half * k1 + 2.0 * (k2 + k3))) + (dt / 6.0) * k4


@dataclass
class Trajectory:
    """Snapshots of one simulation plus its step-resolved energy ledger.

    times / u_hats / energies / dissipation are snapshot-aligned; dissipation
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

    The initial state and the final state are always recorded.  Raises
    BlowUpError (with the failure time) on NaN or overflow.
    """
    if spectral.divergence_max(grid, u0_hat) > 1e-8:
        raise GridError("initial velocity is not divergence-free")
    u = spectral.dealias(grid, u0_hat).astype(np.complex128)
    u[..., 0, 0, 0] = 0.0

    def energy(v):
        return 0.5 * spectral.norm_sq(grid, v)

    times = [0.0]
    snaps = [u.copy()]
    energies = [energy(u)]
    dissipation = [0.0]
    step_energies = [energies[0]]
    diss = 0.0
    gsq_prev = spectral.gradient_norm_sq(grid, u)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for s in range(1, grid.steps + 1):
            u = step(grid, u)
            if not np.all(np.isfinite(u)):
                err = BlowUpError(s * grid.dt, s)
                err.partial = Trajectory(
                    grid=grid,
                    times=np.asarray(times),
                    u_hats=np.asarray(snaps),
                    energies=np.asarray(energies),
                    dissipation=np.asarray(dissipation),
                    step_energies=np.asarray(step_energies),
                )
                raise err
            gsq = spectral.gradient_norm_sq(grid, u)
            diss += 0.5 * grid.dt * grid.nu * (gsq_prev + gsq)
            gsq_prev = gsq
            step_energies.append(energy(u))
            if s % grid.snapshot_stride == 0 or s == grid.steps:
                times.append(s * grid.dt)
                snaps.append(u.copy())
                energies.append(step_energies[-1])
                dissipation.append(diss)
    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        u_hats=np.asarray(snaps),
        energies=np.asarray(energies),
        dissipation=np.asarray(dissipation),
        step_energies=np.asarray(step_energies),
    )
