"""Direct integration of the planar point-vortex equations.

The full system moves every vortex with the field induced by the others,

    dq_j/dt = sum_{i != j} Gamma_i (q_j - q_i)^perp / |q_j - q_i|^2,

with (x, y)^perp = (-x_2, x_1) applied componentwise.  Integration uses
fixed-step classical RK4 and serves as an end-to-end check on continued
equilibria: an exact relative equilibrium rotates rigidly, conserves the
interaction Hamiltonian, the center of vorticity, and the vorticity moment,
and its perturbations grow at the linearized rate.
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
)
from .errors import CollisionAbort, VortexCollision
from .search import TWO_PI
from .stability import _symmetry_directions, stability_verdict

_ABORT_SEP = 10.0 * _COLLISION_GUARD

# Most RK4 steps in one run; the (steps + 1, M) sample array is allocated up front.
_MAX_STEPS = 10**6


def _complex(positions: np.ndarray) -> np.ndarray:
    """Positions (..., M, 2) as complex x + iy (..., M), a view when contiguous."""
    return np.ascontiguousarray(positions).view(complex)[..., 0]


@dataclass
class PlanarConfiguration:
    """Positions (strong vortex first) and the weak circulation eps."""

    positions: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (N+1, 2) array")
        if _biot_savart(_complex(self.positions), self.gammas)[1] < _COLLISION_GUARD**2:
            raise VortexCollision("two vortices coincide in the initial data")

    @classmethod
    def from_equilibrium(cls, eq: RelativeEquilibrium) -> "PlanarConfiguration":
        return cls(eq.all_positions(), eq.epsilon)

    @property
    def n_weak(self) -> int:
        return self.positions.shape[0] - 1

    @property
    def gammas(self) -> np.ndarray:
        return _gammas(self.epsilon, self.n_weak)

    @property
    def center_of_vorticity(self) -> np.ndarray:
        return self.gammas @ self.positions


@dataclass
class Trajectory:
    times: np.ndarray
    positions: np.ndarray  # (steps+1, N+1, 2)


def vortex_field(config: PlanarConfiguration) -> np.ndarray:
    """Velocities (M, 2) of all vortices; VortexCollision below the guard distance."""
    vel, sep2 = _biot_savart(_complex(config.positions), config.gammas)
    if sep2 < _COLLISION_GUARD**2:
        raise VortexCollision(_COLLIDED)
    return vel.view(float).reshape(-1, 2)


def hamiltonian(config: PlanarConfiguration) -> float:
    """Interaction energy -sum_{i<j} Gamma_i Gamma_j log |q_i - q_j|."""
    pos = config.positions
    g = config.gammas
    k = np.arange(g.size)
    upper = k[:, None] < k  # pairs i < j, row by row
    d = (pos[:, None] - pos)[upper]
    dist = np.sqrt((d * d).sum(axis=1))
    if dist.min() < _COLLISION_GUARD:
        raise VortexCollision(_COLLIDED)
    return float(-np.sum((g[:, None] * g)[upper] * np.log(dist)))


def vorticity_moment(config: PlanarConfiguration) -> float:
    """Conserved moment sum_i Gamma_i |q_i|^2."""
    return float(config.gammas @ (config.positions**2).sum(axis=1))


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
    z = _complex(config.positions)
    out = np.empty((steps + 1, z.size), dtype=complex)
    out[0] = z
    times = h * np.arange(steps + 1)
    for i in range(steps + 1):
        # k1 of the next step also gives the abort check for the current state
        k1, sep2 = _biot_savart(z, gammas)
        aborted = sep2 < _ABORT_SEP**2
        if aborted or i == steps:
            break
        k2 = _biot_savart(z + 0.5 * h * k1, gammas)[0]
        k3 = _biot_savart(z + 0.5 * h * k2, gammas)[0]
        k4 = _biot_savart(z + h * k3, gammas)[0]
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    traj = Trajectory(times[: i + 1], out[: i + 1].view(float).reshape(i + 1, -1, 2))
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
        dist = np.sqrt((d * d).sum(axis=2))
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
    rates the fit is after.
    """
    predicted = stability_verdict(eq).max_real_part
    if h is None:
        h = t_final / 4096.0
    base = eq.all_positions()
    pos0 = base.copy()
    if amplitude != 0.0:
        rng = np.random.default_rng(seed)
        n = eq.r.size
        delta = rng.standard_normal(2 * n)
        for unit in _symmetry_directions(eq.r):
            delta -= (delta @ unit) * unit
        dr, dth = delta[:n], delta[n:]
        ct, st = np.cos(eq.theta), np.sin(eq.theta)
        disp = np.column_stack(
            [dr * ct - eq.r * dth * st, dr * st + eq.r * dth * ct]
        )
        pos0[1:] = base[1:] + amplitude * disp / np.linalg.norm(disp)
    traj = integrate_rk4(PlanarConfiguration(pos0, eq.epsilon), h, t_final)
    rotated = np.exp(1j * eq.omega * traj.times)[:, None] * _complex(base)
    dev = np.linalg.norm(_complex(traj.positions) - rotated, axis=1)
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
