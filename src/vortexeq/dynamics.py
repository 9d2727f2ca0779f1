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

from dataclasses import asdict, dataclass

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
from .stability import _symmetry_directions, stability_verdict

_ABORT_SEP = 10.0 * _COLLISION_GUARD

# Most RK4 steps in one run: integrate_rk4 allocates its (steps + 1, M) samples up front;
# simulate keeps 8 B per step for a perturbed run's fit
_MAX_STEPS = 10**6

# Time blocks of _block_rows(M) samples bound a whole-trajectory pass's temporaries
_BLOCK_ELEMENTS = 2**13


def _block_rows(m: int) -> int:
    """Samples in a time block of M vortices: rows of 2M + 1 CSV columns in _BLOCK_ELEMENTS."""
    return max(1, _BLOCK_ELEMENTS // (2 * m + 1))


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
    def from_equilibrium(
        cls, eq: RelativeEquilibrium, amplitude: float = 0.0, seed: int = 0
    ) -> "PlanarConfiguration":
        """The equilibrium's positions, the weak vortices moved by a random
        displacement of norm ``amplitude`` drawn from ``seed``.

        The displacement is orthogonal, in polar coordinates, to the rigid
        rotation and the uniform radius change: exciting those symmetry zero
        modes only adds a secular phase drift (larger rings rotate at a
        different rate) that masks the exponential rates a growth fit is
        after.  N = 1 has no other direction, so a nonzero amplitude raises
        InvalidN there."""
        z = eq.positions()
        if amplitude != 0.0:
            n = eq.n
            if n == 1:
                raise InvalidN("N = 1 has no perturbation direction off the symmetry modes")
            delta = np.random.default_rng(seed).standard_normal(2 * n)
            for unit in _symmetry_directions(eq.r):
                delta -= (delta @ unit) * unit
            disp = (delta[:n] + 1j * eq.r * delta[n:]) * np.exp(1j * eq.theta)
            z[1:] += amplitude * disp / np.linalg.norm(disp)
        return cls(z, eq.epsilon)

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


def _steps(h: float, t_final: float) -> int:
    """integrate_rk4's step count t_final / h; ValueError unless h, t_final > 0 and
    t_final / h is within 1e-9 (relative) of a whole number from 1 to 10**6."""
    if not (h > 0.0 and t_final > 0.0):  # nan too
        raise ValueError("need h > 0 and t_final > 0")
    ratio = float(t_final) / float(h)
    if not ratio <= _MAX_STEPS:  # false for inf and nan too
        raise ValueError(f"t_final / h = {ratio:g} exceeds {_MAX_STEPS} steps")
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise ValueError(f"t_final / h = {ratio!r} is not a whole number of steps")
    return steps


def _rk4_blocks(config: PlanarConfiguration, h: float, steps: int, rows: int):
    """RK4's samples as (first index, rows, aborted) in blocks of ``rows`` samples.  The rows
    are a view of one buffer that the next block overwrites; aborted is true on the last block
    of a run that aborts.  With rows > steps the one block is the whole run."""
    gammas, z = config.gammas, config.positions
    buf = np.empty((min(rows, steps) + 1, z.size), dtype=complex)  # and the next block's row 0
    buf[0] = z
    # one set of pair and stage arrays per run; each stage is done in place, in
    # the order of z + (h/2) k and z + (h/6) (k1 + 2 k2 + 2 k3 + k4), to the same bits
    pairs, (k1, k2, k3, k4, s) = _pair_arrays(z.shape), np.empty((5, z.size), dtype=complex)
    half, sixth, limit = 0.5 * h, h / 6.0, _ABORT_SEP**2
    for lo in range(0, steps + 1, rows):
        for j in range(rows):
            z = buf[j]
            # k1 of the next step also gives the abort check for the current state
            aborted = _biot_savart(z, gammas, pairs, k1)[1] < limit
            if aborted or lo + j == steps:
                yield lo, buf[: j + 1], bool(aborted)
                return
            _biot_savart(np.add(z, np.multiply(half, k1, s), s), gammas, pairs, k2)
            _biot_savart(np.add(z, np.multiply(half, k2, s), s), gammas, pairs, k3)
            _biot_savart(np.add(z, np.multiply(h, k3, s), s), gammas, pairs, k4)
            np.add(k1, np.multiply(2.0, k2, k2), k1)
            np.add(k1, np.multiply(2.0, k3, k3), k1)
            np.add(z, np.multiply(sixth, np.add(k1, k4, k1), k1), buf[j + 1])
        yield lo, buf[:rows], False
        buf[0] = buf[rows]


def integrate_rk4(config: PlanarConfiguration, h: float, t_final: float) -> Trajectory:
    """Fixed-step classical RK4 up to t_final, sampling every step.

    Aborts with CollisionAbort (carrying the partial trajectory) when any
    pair comes within ten times the collision guard.  Raises ValueError,
    before any allocation, unless t_final / h is a whole number of steps
    (to 1e-9 relative) and at most 10**6.
    """
    steps = _steps(h, t_final)
    ((_, z, aborted),) = _rk4_blocks(config, h, steps, steps + 1)
    traj = Trajectory(h * np.arange(len(z)), z)
    if aborted:
        raise CollisionAbort(
            f"vortices within {_ABORT_SEP:g} at t = {traj.times[-1]:g}", trajectory=traj
        )
    return traj


def _rigidity(first: np.ndarray, block: np.ndarray) -> float:
    """Max deviation of the pairwise distances in block's rows from those in row first."""
    block = np.concatenate((first, block))
    m, worst = block.shape[1], 0.0
    ring = np.concatenate((block, block), axis=1)
    for s in range(1, m // 2 + 1):  # the pairs (j, j + s mod M) cover every pair: O(block * M)
        d = block - ring[:, s : s + m]  # -(z_k - z_j) for k < j, so the same squares
        dist = np.sqrt(d.real * d.real + d.imag * d.imag)
        worst = max(worst, float(np.abs(dist - dist[0]).max()))
    return worst


def rigidity_error(traj: Trajectory) -> float:
    """Max deviation of any pairwise distance from its initial value."""
    p, rows = traj.positions, _block_rows(traj.positions.shape[1])
    return max(_rigidity(p[:1], p[lo : lo + rows]) for lo in range(0, len(p), rows))


def _deviation(eq: RelativeEquilibrium, times: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Frobenius distance of each row of block from the rigidly rotating equilibrium."""
    return np.linalg.norm(block - np.exp(1j * eq.omega * times)[:, None] * eq.positions(), axis=1)


@dataclass
class GrowthReport:
    fitted_rate: float
    predicted_rate: float
    amplitude: float
    window_points: int
    max_deviation: float


def perturbation_growth(
    eq: RelativeEquilibrium, traj: Trajectory, amplitude: float
) -> GrowthReport:
    """Growth rate of a trajectory started ``amplitude`` off the equilibrium,
    as ``PlanarConfiguration.from_equilibrium(eq, amplitude, seed)`` builds it.

    Measures the Frobenius deviation from the exactly rotating equilibrium and
    fits d/dt log(deviation) by least squares over the window where the
    deviation lies between 10 * amplitude and 1e-2.  With fewer than 8 samples
    there, as for stable equilibria, it reports no fit: ``fitted_rate`` 0.0 and
    ``window_points`` the window's count.  The linear prediction is the largest
    real part in the linearization spectrum.
    """
    dev, rows = np.empty(traj.times.size), _block_rows(traj.positions.shape[1])
    for lo in range(0, dev.size, rows):
        block = slice(lo, lo + rows)
        dev[block] = _deviation(eq, traj.times[block], traj.positions[block])
    return _growth(eq, traj.times, dev, amplitude)


def _growth(eq: RelativeEquilibrium, times, dev, amplitude: float) -> GrowthReport:
    """``perturbation_growth``'s fit to the deviation dev of each sample at times."""
    mask = (dev >= max(10.0 * amplitude, 1e-300)) & (dev <= 1e-2)
    fit = np.polyfit(times[mask], np.log(dev[mask]), 1) if mask.sum() >= 8 else [0.0]
    return GrowthReport(fitted_rate=float(fit[0]),
                        predicted_rate=stability_verdict(eq).max_real_part, amplitude=amplitude,
                        window_points=int(mask.sum()), max_deviation=float(dev.max()))


def _simulation(eq: RelativeEquilibrium, start: PlanarConfiguration, h: float, t_final: float,
                amplitude: float, report: dict):
    """simulate's run from start, eq moved by ``amplitude``: integrate_rk4's (times, positions)
    in blocks of ``_block_rows(M)`` rows, each also read for the rigidity and, when
    amplitude > 0, the deviation.  The dict report gets the diagnostics after the last block,
    while the CSV of these blocks is still a temp file, so an error there leaves no CSV."""
    steps, perturbed = _steps(h, t_final), amplitude > 0.0
    rigid, dev = 0.0, np.empty(steps + 1 if perturbed else 0)
    for lo, z, aborted in _rk4_blocks(start, h, steps, _block_rows(start.positions.size)):
        times, n = h * np.arange(lo, lo + len(z)), lo + len(z)
        rigid = max(rigid, _rigidity(start.positions[None], z))
        if perturbed:
            dev[lo:n] = _deviation(eq, times, z)
        yield times, z
    last = PlanarConfiguration(z[-1], eq.epsilon)
    h0, m0 = hamiltonian(start), vorticity_moment(start)
    report.update(aborted=aborted, rigidity_error=rigid, steps=n - 1,
                  hamiltonian_drift=abs(hamiltonian(last) - h0) / max(abs(h0), 1e-300),
                  moment_drift=abs(vorticity_moment(last) - m0) / max(abs(m0), 1e-300))
    if perturbed and not aborted:
        report["growth"] = asdict(_growth(eq, h * np.arange(n), dev[:n], amplitude))
