"""Direct integration of the planar point-vortex equations.

Each vortex, at complex position z = x + iy, moves in the field of the others,

    dz_j/dt = i sum_{k != j} Gamma_k (z_j - z_k) / |z_j - z_k|^2,

the strong vortex first.  Integration uses fixed-step classical RK4 and
serves as an end-to-end check on continued equilibria: an exact relative
equilibrium rotates rigidly, conserves the interaction Hamiltonian, the
center of vorticity, and the vorticity moment, and its perturbations grow
at the linearized rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import (
    _COLLIDED,
    _COLLISION_GUARD,
    RelativeEquilibrium,
    _biot_savart,
    _gammas,
    _pair_arrays,
)
from .errors import CollisionAbort, InvalidN, VortexCollision
from .search import TWO_PI
from .stability import _symmetry_directions, stability_verdict

_ABORT_SEP = 10.0 * _COLLISION_GUARD

# Most RK4 steps in one run; the (steps + 1, M) sample array is allocated up front.
_MAX_STEPS = 10**6


@dataclass
class PlanarConfiguration:
    """Complex positions x + iy (N+1,), strong vortex first, and the weak
    circulation eps; ValueError unless the positions are finite and 1-d,
    VortexCollision when two are within the collision guard."""

    positions: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.positions = z = np.asarray(self.positions, dtype=complex)
        if z.ndim != 1 or not np.isfinite(z).all():
            raise ValueError("positions must be a finite 1-d array of x + iy")
        if _biot_savart(z, self.gammas)[1] < _COLLISION_GUARD**2:
            raise VortexCollision(_COLLIDED)

    @classmethod
    def from_equilibrium(cls, eq: RelativeEquilibrium) -> "PlanarConfiguration":
        return cls(eq.positions(), eq.epsilon)

    @property
    def gammas(self) -> np.ndarray:
        return _gammas(self.epsilon, self.positions.size - 1)

    @property
    def center_of_vorticity(self) -> np.ndarray:
        return self.gammas @ self.positions


@dataclass
class Trajectory:
    times: np.ndarray
    positions: np.ndarray  # (steps+1, N+1) complex


def vortex_field(config: PlanarConfiguration) -> np.ndarray:
    """Complex velocities u + iv of all vortices."""
    return _biot_savart(config.positions, config.gammas)[0]


def hamiltonian(config: PlanarConfiguration) -> float:
    """Interaction energy -sum_{i<j} Gamma_i Gamma_j log |q_i - q_j|."""
    z, g = config.positions, config.gammas
    k = np.arange(g.size)
    upper = k[:, None] < k  # pairs i < j, row by row
    d = (z[:, None] - z)[upper]
    dist = np.sqrt(d.real * d.real + d.imag * d.imag)
    return float(-np.sum((g[:, None] * g)[upper] * np.log(dist)))


def vorticity_moment(config: PlanarConfiguration) -> float:
    """Conserved moment sum_i Gamma_i |q_i|^2."""
    z = config.positions
    return float(config.gammas @ (z.real * z.real + z.imag * z.imag))


def integrate_rk4(config: PlanarConfiguration, h: float, t_final: float) -> Trajectory:
    """Fixed-step classical RK4 up to t_final, sampling every step.

    Aborts with CollisionAbort (carrying the partial trajectory) when any
    pair comes within ten times the collision guard.  Raises ValueError,
    before any allocation, when t_final / h exceeds 10**6 steps.
    """
    if h <= 0.0 or t_final <= 0.0:
        raise ValueError("need h > 0 and t_final > 0")
    ratio = float(t_final) / float(h)
    if not ratio <= _MAX_STEPS:  # false for inf and nan too
        raise ValueError(f"t_final / h = {ratio:g} exceeds {_MAX_STEPS} steps")
    steps = max(1, int(round(ratio)))
    gammas = config.gammas
    z = config.positions
    out = np.empty((steps + 1, z.size), dtype=complex)
    out[0] = z
    times = h * np.arange(steps + 1)
    # one set of pair and stage arrays per run; each stage is done in place, in
    # the order of z + (h/2) k and z + (h/6) (k1 + 2 k2 + 2 k3 + k4), to the same bits
    pairs, (k1, k2, k3, k4, s) = _pair_arrays(z.shape), np.empty((5, z.size), dtype=complex)
    half, sixth = 0.5 * h, h / 6.0
    for i in range(steps + 1):
        z = out[i]
        # k1 of the next step also gives the abort check for the current state
        sep2 = _biot_savart(z, gammas, pairs, k1)[1]
        aborted = sep2 < _ABORT_SEP**2
        if aborted or i == steps:
            break
        _biot_savart(np.add(z, np.multiply(half, k1, s), s), gammas, pairs, k2)
        _biot_savart(np.add(z, np.multiply(half, k2, s), s), gammas, pairs, k3)
        _biot_savart(np.add(z, np.multiply(h, k3, s), s), gammas, pairs, k4)
        np.add(k1, np.multiply(2.0, k2, k2), k1)
        np.add(k1, np.multiply(2.0, k3, k3), k1)
        np.add(z, np.multiply(sixth, np.add(k1, k4, k1), k1), out[i + 1])
    traj = Trajectory(times[: i + 1], out[: i + 1])
    if aborted:
        raise CollisionAbort(
            f"vortices within {_ABORT_SEP:g} at t = {times[i]:g}", trajectory=traj
        )
    return traj


def rigidity_error(traj: Trajectory) -> float:
    """Max deviation of any pairwise distance from its initial value."""
    p, worst = traj.positions, 0.0
    for i in range(p.shape[1] - 1):  # one row of pairs: O(steps * M) memory
        d = p[:, i : i + 1] - p[:, i + 1 :]
        dist = np.sqrt(d.real * d.real + d.imag * d.imag)
        worst = max(worst, float(np.abs(dist - dist[0]).max()))
    return worst


@dataclass
class GrowthReport:
    fitted_rate: float
    predicted_rate: float
    amplitude: float
    window_points: int
    max_deviation: float
    trajectory: Trajectory | None = None


def perturbation_growth(
    eq: RelativeEquilibrium,
    amplitude: float = 1e-6,
    t_final: float = TWO_PI,
    h: float | None = None,
    seed: int = 0,
) -> GrowthReport:
    """Growth rate of a random perturbation against the rotating solution.

    Integrates the perturbed configuration, measures the Frobenius deviation
    from the exactly rotating equilibrium, and fits d/dt log(deviation) by
    least squares over the window where the deviation lies between
    10 * amplitude and 1e-2 (whole trajectory when the window is too short,
    as for stable equilibria).  The linear prediction is the largest real
    part in the linearization spectrum.

    The random perturbation displaces only the weak vortices and is chosen
    orthogonal, in polar coordinates, to the rigid rotation direction and to
    the uniform radius change.  Those two directions span the symmetry zero
    modes of the linearization; exciting them only adds a secular phase drift
    (larger rings rotate at a different rate) that masks the exponential
    rates the fit is after.  An N = 1 equilibrium has no other direction, so
    a nonzero amplitude raises InvalidN there.
    """
    predicted = stability_verdict(eq).max_real_part
    if h is None:
        h = t_final / 4096.0
    base = eq.positions()
    z0 = base.copy()
    if amplitude != 0.0:
        n = eq.n
        if n == 1:
            raise InvalidN("N = 1 has no perturbation direction off the symmetry modes")
        rng = np.random.default_rng(seed)
        delta = rng.standard_normal(2 * n)
        for unit in _symmetry_directions(eq.r):
            delta -= (delta @ unit) * unit
        disp = (delta[:n] + 1j * eq.r * delta[n:]) * np.exp(1j * eq.theta)
        z0[1:] += amplitude * disp / np.linalg.norm(disp)
    traj = integrate_rk4(PlanarConfiguration(z0, eq.epsilon), h, t_final)
    rotated = np.exp(1j * eq.omega * traj.times)[:, None] * base
    dev = np.linalg.norm(traj.positions - rotated, axis=1)
    floor = max(10.0 * amplitude, 1e-300)
    mask = (dev >= floor) & (dev <= 1e-2)
    if mask.sum() < 8:
        mask = dev > 0.0
    rate = 0.0
    if mask.sum() >= 2:
        rate = float(np.polyfit(traj.times[mask], np.log(dev[mask]), 1)[0])
    return GrowthReport(
        fitted_rate=rate,
        predicted_rate=predicted,
        amplitude=amplitude,
        window_points=int(mask.sum()),
        max_deviation=float(dev.max()),
        trajectory=traj,
    )
