"""Continuation of ring critical points into relative equilibria at eps != 0.

A relative equilibrium of the full (1+N)-vortex problem rotating at rate
omega satisfies v_j = omega * q_j^perp for every vortex, where v_j is the
point-vortex velocity field.  The scaling r -> s r, omega -> omega / s^2
maps equilibria to equilibria, so omega = 1 throughout.  The strong vortex
is eliminated through the center of vorticity, q_0 = -eps * (q_1 + ... +
q_N), which makes its own equation automatic.  Each nondegenerate critical
point of the ring potential continues to a locally unique branch (r(eps),
theta(eps)) once the rotation is fixed by holding theta_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateSeed,
    InsufficientFamily,
    InvalidEpsilon,
    NoConvergence,
    VortexCollision,
)
from .search import CriticalPoint, _newton

# Smallest distance allowed between two vortices.
_COLLISION_GUARD = 1e-10
_COLLIDED = "two vortices are closer than the collision guard"

# Squared separations below the smallest normal float overflow 1 / d^2.
_TINY_SEP2 = np.finfo(float).tiny

# Largest |eps| that continuation accepts; ring seeds get min(this, 1/N^2).
_EPS_CEILING = 0.05

# Continuation converges once the reduced field's sup-norm is below this.
_RELEQ_TOL = 1e-12

# Most Newton steps that one continuation takes.
_RELEQ_MAX_ITER = 60


def _gammas(epsilon: float, n: int) -> np.ndarray:
    """The circulations (1, eps, ..., eps) of the strong vortex and N weak ones."""
    return np.concatenate(([1.0], np.full(n, epsilon)))


@dataclass
class RelativeEquilibrium:
    """A fixed point of the (1+N)-vortex problem in the frame rotating at
    omega = 1, stored as its radii, angles and eps.

    Construction, ``dataclasses.replace`` included, raises ValueError unless
    r and theta are nonempty finite 1-d arrays of equal length, eps is finite
    and nonzero, every radius is positive and the reduced field is below 1e-10.
    """

    omega: ClassVar[float] = 1.0

    r: np.ndarray
    theta: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.r = r = np.asarray(self.r, dtype=float)
        self.theta = theta = np.asarray(self.theta, dtype=float)
        self.epsilon = eps = float(self.epsilon)
        if r.size == 0:
            raise ValueError("r and theta must not be empty")
        if eps == 0.0 or not np.isfinite(eps):
            raise ValueError(f"epsilon must be finite and nonzero, got {eps!r}")
        if (r <= 0.0).any():  # a nan radius is left to reduced_field's check
            raise ValueError("radii must be positive")
        residual = float(np.abs(reduced_field(r, theta, eps)).max())
        if residual >= 1e-10:
            raise ValueError(f"equilibrium residual {residual:.3e} >= 1e-10")

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def residual(self) -> float:
        """Sup-norm of ``rotating_frame_residual`` at the stored state."""
        res = rotating_frame_residual(self.r, self.theta, self.epsilon)
        return float(np.abs(res).max())

    def positions(self) -> np.ndarray:
        """Complex positions x + iy (N+1,) from ``_positions``, strong vortex first."""
        return _positions(self.r, self.theta, self.epsilon)[0]


@dataclass
class ScalingReport:
    """Near-circle scaling ratios |q0|/|eps| and max| |q_j|^2 - 1 |/|eps|."""

    epsilons: np.ndarray
    q0_ratios: np.ndarray
    radius_ratios: np.ndarray
    q0_bounded: bool
    radius_bounded: bool


def _biot_savart(z: np.ndarray, gammas: np.ndarray):
    """Point-vortex velocities and the smallest squared pair separation.

    ``z`` holds the M positions as complex numbers x + iy, after any stack
    axes; the velocities come back the same way, u_j + i v_j = i sum_{k != j}
    Gamma_k (z_j - z_k) / |z_j - z_k|^2, with one separation per stack entry.
    """
    m = z.shape[-1]
    dz = z[..., None] - z[..., None, :]
    d2 = dz.real * dz.real + dz.imag * dz.imag
    d2.reshape(-1, m * m)[:, :: m + 1] = np.inf  # the diagonals, through a strided view
    low = d2.min()
    sep2 = d2.min(axis=(-2, -1)) if z.ndim > 1 else low  # one reduction unstacked (RK4)
    if low < _TINY_SEP2:
        # 1 / d2 would be inf: drop these pairs, the guards reject them by sep2
        d2[d2 < _TINY_SEP2] = np.inf
    return 1j * (dz * (gammas / d2)).sum(axis=-1), sep2


def _positions(r, theta, epsilon: float):
    """Complex positions z = x + iy of all vortices, and cos, sin(theta).

    The strong vortex comes first, at z_0 = -eps * sum(z_j), which keeps the
    center of vorticity at the origin; any stack axes lead.
    """
    ct, st = np.cos(theta), np.sin(theta)
    z = r * (ct + 1j * st)
    return np.concatenate((-epsilon * z.sum(axis=-1, keepdims=True), z), axis=-1), ct, st


def _field(x: np.ndarray, epsilon: float):
    """Reduced field of (..., 2N) states (r, theta), unvalidated, with the
    by-products that ``_reduced_jacobian`` reads and the collision flags.

    Returns (f, r, z, cos(theta), sin(theta), a, b, clear) over any stack
    axes: f = (a, b / r), a_j and b_j the radial and tangential velocity
    mismatch (v - q^perp), z the positions from ``_positions`` and clear
    False within the collision guard.
    """
    n = x.shape[-1] // 2
    r = x[..., :n]
    z, ct, st = _positions(r, x[..., n:], epsilon)
    vel, sep2 = _biot_savart(z, _gammas(epsilon, n))
    u, v = vel.real[..., 1:], vel.imag[..., 1:]
    a = ct * u + st * v
    b = -st * u + ct * v - r
    return np.concatenate((a, b / r), axis=-1), r, z, ct, st, a, b, sep2 >= _COLLISION_GUARD**2


def _checked_field(r, theta, epsilon: float):
    """``_field`` of one configuration, its flag dropped: ValueError unless r
    and theta are finite 1-d arrays of equal length and eps is finite,
    VortexCollision within the guard."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    if r.ndim != 1 or r.shape != theta.shape or not np.isfinite((r, theta)).all():
        raise ValueError("r and theta must be finite 1-d arrays of equal length")
    if not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    *field, clear = _field(np.concatenate((r, theta)), epsilon)
    if not clear:
        raise VortexCollision(_COLLIDED)
    return field


def rotating_frame_residual(r, theta, epsilon: float) -> np.ndarray:
    """Cartesian residual v_j - q_j^perp for the N weak vortices.

    The strong vortex sits at q_0 = -eps * sum(q_j).  Returns 2N values,
    x-components then y-components; all vanish exactly at a relative
    equilibrium.
    """
    ct, st, a, b = _checked_field(r, theta, epsilon)[3:]
    return np.concatenate((a * ct - b * st, a * st + b * ct))


def reduced_field(r, theta, epsilon: float) -> np.ndarray:
    """Reduced rotating-frame field (dr_j/dt, dtheta_j/dt - 1)."""
    return _checked_field(r, theta, epsilon)[0]


def _reduced_jacobian(r, zs, ct, st, a, b, epsilon: float) -> np.ndarray:
    """Jacobian of ``reduced_field`` at any state, in closed form.

    Takes the by-products of one ``_field`` row at the state.  The mismatch
    M_j = (u_j + i v_j) - i z_j is differentiated first: the conjugate
    velocity u_j - i v_j = -i sum_k Gamma_k / (z_j - z_k) is holomorphic in
    the positions, with z_0 = -eps sum z_k.  Each row is then
    turned by e^{-i theta_j} into radial and tangential parts, and the
    tangential rows are divided by r.  No two vortices may coincide.
    """
    n = r.size
    z, e = zs[1:], ct + 1j * st
    k = np.arange(n)
    diff = z[:, None] - zs
    diff[k, k + 1] = 1.0
    p = -1j * _gammas(epsilon, n) / (diff * diff)
    p[k, k + 1] = 0.0
    # dW_j/dz_l for W_j = u_j - i v_j, directly and through z_0
    dw = p[:, 1:] - epsilon * p[:, :1]
    dw[k, k] -= p.sum(axis=1)
    d_r = np.conj(dw * e)  # dz_l/dr_l = e^{i theta_l}, dz_l/dtheta_l = i z_l
    rot = np.hstack((d_r, -1j * d_r * r))
    rot[k, k] -= 1j * e
    rot[k, k + n] += z
    # a + i b = e^{-i theta} M, so d/dtheta_j gains -i (a_j + i b_j)
    rot *= (ct - 1j * st)[:, None]
    rot[k, k + n] -= 1j * (a + 1j * b)
    jac = np.vstack((rot.real, rot.imag / r[:, None]))
    jac[k + n, k] -= b / r**2
    return jac


def epsilon_ceiling(cp: CriticalPoint) -> float:
    """Continuation ceiling on |eps|: 0.05, or min(0.05, 1/N^2) for ring seeds."""
    if cp.symmetry_order == 2 * cp.config.size:  # all relabelings and reflections fix the gaps
        return min(_EPS_CEILING, 1.0 / cp.config.size**2)
    return _EPS_CEILING


def _checked_epsilons(cp: CriticalPoint, eps_list) -> list[float]:
    """The eps as floats; DegenerateSeed unless the seed has one zero Hessian
    eigenvalue, then InvalidEpsilon unless each 0 < |eps| <= the ceiling."""
    if cp.morse_index[1] != 1:
        raise DegenerateSeed(f"seed has {cp.morse_index[1]} zero eigenvalues; need exactly 1")
    ceiling = epsilon_ceiling(cp)
    eps_values = [float(e) for e in eps_list]
    for eps in eps_values:
        if not 0.0 < abs(eps) <= ceiling:  # false for nan too
            raise InvalidEpsilon(f"eps = {eps:g} outside 0 < |eps| <= {ceiling:g}")
    return eps_values


def _solve(cp: CriticalPoint, epsilon: float, x0: np.ndarray) -> RelativeEquilibrium:
    """Newton solve of the reduced field at eps from the state x0 = (r, theta)."""
    n = cp.config.size
    # row a_1 is redundant: sum r_j a_j + eps Re(conj(sum z_k) sum M_j) = 0 (angular impulse)
    x, _, _ = _newton(lambda x: _field(x, epsilon), lambda *by: _reduced_jacobian(*by, epsilon),
                      x0, n, _RELEQ_TOL, _RELEQ_MAX_ITER, VortexCollision(_COLLIDED))
    x[n:] += x0[n] - x[n]  # an LM step moves theta_1; the field is rotation invariant
    return RelativeEquilibrium(r=x[:n], theta=x[n:], epsilon=epsilon)


def continue_equilibrium(cp: CriticalPoint, epsilon: float) -> RelativeEquilibrium:
    """Newton-continue a nondegenerate critical point to eps != 0.

    Starts from the seed, r = 1 and the seed angles, and solves the 2N
    equations of the reduced field (a_j, b_j / r_j) jointly in (r, theta)
    with theta_1 held at the seed's first angle.  It is the system that
    ``linearize`` differentiates, evaluated by ``_field``, and each Newton
    step builds the same closed-form ``_reduced_jacobian`` from that
    evaluation's by-products.  The angular impulse identity sum r_j a_j +
    O(eps) = 0 makes row a_1 redundant, so ``search._newton`` takes square
    LU steps without row a_1 and column theta_1, switching to
    Levenberg-Marquardt steps as the search does; their theta_1 is turned back.
    Convergence means all 2N below 1e-12 in sup-norm within 60 steps; theta
    columns scale like eps, so theta is fixed only to 1e-12/|eps|.

    Raises DegenerateSeed unless the seed has exactly one zero Hessian
    eigenvalue, InvalidEpsilon unless 0 < |eps| <= the ceiling,
    VortexCollision if the start has two vortices within the guard, and
    NoConvergence when the line search stalls, the Newton system is
    singular or the cap is reached.
    """
    (eps,) = _checked_epsilons(cp, [epsilon])
    return _solve(cp, eps, np.concatenate((np.ones(cp.config.size), cp.config)))


def sweep_epsilon(cp: CriticalPoint, eps_list) -> list[RelativeEquilibrium]:
    """Continue one seed across several eps values, each from its nearest start.

    The whole list is checked first, as ``continue_equilibrium`` checks one
    eps.  Each eps then starts from the equilibrium solved at the eps nearest
    to it when that is closer than the seed's eps = 0, else from the seed
    (ties go to the seed).  So a list of decades gives each record exactly
    ``continue_equilibrium``, and fine increasing steps walk out along the
    branch.  Returns one equilibrium per entry; on the first failure a
    NoConvergence is raised whose ``partial`` carries those found so far.
    """
    starts = {0.0: (np.ones(cp.config.size), cp.config)}  # the seed first wins ties
    results: list[RelativeEquilibrium] = []
    for eps in _checked_epsilons(cp, eps_list):
        start = starts[min(starts, key=lambda e: abs(eps - e))]
        try:
            results.append(_solve(cp, eps, np.concatenate(start)))
        except (NoConvergence, VortexCollision) as exc:
            raise NoConvergence(
                f"sweep failed at eps = {eps:g}: {exc}", partial=results
            ) from exc
        starts[eps] = (results[-1].r, results[-1].theta)
    return results


def verify_lemma1_scaling(family: list[RelativeEquilibrium]) -> ScalingReport:
    """Check the near-circle scaling of a continued family.

    For equilibria of one sign of eps, both |q_0| and max| |q_j|^2 - 1 | are
    O(eps), so the ratios against |eps| should stay bounded across the
    family: max/min < 10, or identically zero for symmetric families whose
    center of vorticity vanishes exactly.  Needs at least three distinct
    |eps| magnitudes (InsufficientFamily otherwise).
    """
    if len(family) < 3:
        raise InsufficientFamily("need at least 3 family members")
    eps = np.array([eq.epsilon for eq in family])
    if not (np.all(eps > 0.0) or np.all(eps < 0.0)):
        raise InsufficientFamily("family members must share the sign of eps")
    if np.unique(np.abs(eps)).size < 3:
        raise InsufficientFamily("need at least 3 distinct |eps| magnitudes")
    q0 = np.array([abs(eq.positions()[0]) for eq in family])
    rad = np.array([np.abs(eq.r**2 - 1.0).max() for eq in family])
    q0_ratios = q0 / np.abs(eps)
    radius_ratios = rad / np.abs(eps)

    def bounded(ratios: np.ndarray) -> bool:
        hi = float(ratios.max())
        lo = float(ratios.min())
        return hi < 1e-8 or (lo > 0.0 and hi / lo < 10.0)

    return ScalingReport(
        epsilons=eps,
        q0_ratios=q0_ratios,
        radius_ratios=radius_ratios,
        q0_bounded=bounded(q0_ratios),
        radius_bounded=bounded(radius_ratios),
    )
