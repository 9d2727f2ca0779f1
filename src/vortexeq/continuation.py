"""Continuation of ring critical points into relative equilibria at eps != 0.

A relative equilibrium of the full (1+N)-vortex problem rotating at rate
omega satisfies v_j = omega * q_j^perp for every vortex, where v_j is the
point-vortex velocity field.  The strong vortex is eliminated through the
center of vorticity, q_0 = -eps * (q_1 + ... + q_N), which makes its own
equation automatic.  With omega = 1 fixed, each nondegenerate critical point
of the ring potential continues to a locally unique branch (r(eps),
theta(eps)) once the rotational phase is pinned to the seed angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollisionApproach,
    DegenerateSeed,
    InsufficientFamily,
    InvalidEpsilon,
    NoConvergence,
    VortexCollision,
)
from .search import TWO_PI, CriticalPoint, _cyclic_gaps, _newton

# Smallest distance allowed between two vortices.
_COLLISION_GUARD = 1e-10
_COLLIDED = "two vortices are closer than the collision guard"

# Squared separations below the smallest normal float overflow 1 / d^2.
_TINY_SEP2 = np.finfo(float).tiny

# Largest |eps| that continuation accepts; ring seeds get min(this, 1/N^2).
_EPS_CEILING = 0.05


@dataclass
class Circulations:
    """Circulations (1, eps, ..., eps) of the strong vortex and N weak ones."""

    epsilon: float

    def gammas(self, n_weak: int) -> np.ndarray:
        return np.concatenate(([1.0], np.full(n_weak, self.epsilon)))


@dataclass
class RelativeEquilibrium:
    """A rotating-frame fixed point of the (1+N)-vortex problem."""

    r: np.ndarray
    theta: np.ndarray
    epsilon: float
    omega: float
    residual: float
    source: CriticalPoint | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.r.size

    def weak_positions(self) -> np.ndarray:
        return np.column_stack(
            (self.r * np.cos(self.theta), self.r * np.sin(self.theta))
        )

    def strong_position(self) -> np.ndarray:
        return -self.epsilon * self.weak_positions().sum(axis=0)

    def all_positions(self) -> np.ndarray:
        """Positions with the strong vortex first."""
        weak = self.weak_positions()
        return np.vstack((self.strong_position(), weak))


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


def _mismatch(r, theta, epsilon: float, omega: float):
    """Radial and tangential velocity mismatch (v - omega q^perp) per vortex.

    Returns (a, b, cos(theta), sin(theta), clear) over any stack axes, with
    a_j the radial component, b_j the tangential one and clear False within
    the collision guard.  The strong vortex sits at z_0 = -eps * sum(z_j),
    which keeps the center of vorticity at the origin.
    """
    r = np.asarray(r)
    theta = np.asarray(theta)
    ct, st = np.cos(theta), np.sin(theta)
    z = r * (ct + 1j * st)
    vel, sep2 = _biot_savart(
        np.concatenate((-epsilon * z.sum(axis=-1, keepdims=True), z), axis=-1),
        Circulations(epsilon).gammas(r.shape[-1]),
    )
    u, v = vel.real[..., 1:], vel.imag[..., 1:]
    a = ct * u + st * v
    b = -st * u + ct * v - omega * r
    return a, b, ct, st, sep2 >= _COLLISION_GUARD**2


def _checked_mismatch(r, theta, epsilon: float, omega: float):
    """``_mismatch`` of one configuration; VortexCollision within the guard."""
    *mismatch, clear = _mismatch(r, theta, epsilon, omega)
    if not clear:
        raise VortexCollision(_COLLIDED)
    return mismatch


def _cartesian(a, b, ct, st) -> np.ndarray:
    """The mismatch rotated back to x-components then y-components."""
    return np.concatenate((a * ct - b * st, a * st + b * ct), axis=-1)


def rotating_frame_residual(r, theta, epsilon: float, omega: float = 1.0) -> np.ndarray:
    """Cartesian residual v_j - omega q_j^perp for the N weak vortices.

    The strong vortex sits at q_0 = -eps * sum(q_j).  Returns 2N values,
    x-components then y-components; all vanish exactly at a relative
    equilibrium with rotation rate omega.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if r.shape != theta.shape or r.ndim != 1:
        raise ValueError("r and theta must be 1-d arrays of equal length")
    return _cartesian(*_checked_mismatch(r, theta, epsilon, omega))


def _augmented_system(x: np.ndarray, phi: np.ndarray, epsilon: float, omega: float):
    """Residual and phase rows of a (..., 2N) stack of states, and collision flags."""
    n = phi.size
    a, b, ct, st, clear = _mismatch(x[..., :n], x[..., n:], epsilon, omega)
    phase = np.sum(x[..., n:] - phi, axis=-1, keepdims=True)
    return np.concatenate((_cartesian(a, b, ct, st), phase), axis=-1), clear


def _mismatch_jacobian(r, theta, epsilon: float, omega: float) -> np.ndarray:
    """[dM/dr, dM/dtheta] (N x 2N) of the mismatch M_j = (u_j + i v_j) - i omega z_j.

    u_j - i v_j = -i sum_k Gamma_k / (z_j - z_k) is holomorphic in the positions,
    with z_0 = -eps sum z_k.  No two vortices may coincide.
    """
    e = np.exp(1j * theta)
    z = r * e
    k = np.arange(z.size)
    diff = z[:, None] - np.concatenate(([-epsilon * z.sum()], z))
    diff[k, k + 1] = 1.0
    p = -1j * Circulations(epsilon).gammas(z.size) / (diff * diff)
    p[k, k + 1] = 0.0
    # dW_j/dz_l for W_j = u_j - i v_j, directly and through z_0
    dw = p[:, 1:] - epsilon * p[:, :1]
    dw[k, k] -= p.sum(axis=1)
    d_r = np.conj(dw * e)  # dz_l/dr_l = e^{i theta_l}, dz_l/dtheta_l = i z_l
    jac = np.hstack((d_r, -1j * d_r * r))
    jac[k, k] -= 1j * omega * e
    jac[k, k + z.size] += omega * z
    return jac


def _is_ngon(config: np.ndarray, tol: float = 1e-8) -> bool:
    gaps = _cyclic_gaps(config)
    return bool(np.abs(gaps - TWO_PI / config.size).max() < tol)


def epsilon_ceiling(cp: CriticalPoint) -> float:
    """Continuation ceiling on |eps|: 0.05, or min(0.05, 1/N^2) for ring seeds."""
    if _is_ngon(cp.config):
        return min(_EPS_CEILING, 1.0 / cp.config.size**2)
    return _EPS_CEILING


def continue_equilibrium(
    cp: CriticalPoint,
    epsilon: float,
    releq_tol: float = 1e-12,
    max_iter: int = 60,
    _warm_start: np.ndarray | None = None,
) -> RelativeEquilibrium:
    """Newton-continue a nondegenerate critical point to eps != 0, omega = 1.

    Solves the 2N rotating-frame residual equations jointly in (r, theta)
    with the phase constraint sum(theta_j - phi_j) = 0 against the seed
    angles phi.  The shared driver ``search._newton`` takes least-squares
    steps on the closed-form Jacobian and halves them until the squared
    2-norm of residual and phase drops.  Convergence means their sup-norm
    below ``releq_tol`` within ``max_iter`` Newton steps.

    Raises DegenerateSeed unless the seed has exactly one zero Hessian
    eigenvalue, InvalidEpsilon for eps = 0 or |eps| above the ceiling,
    NoConvergence when the line search stalls or the cap is reached, and
    CollisionApproach if the start has two vortices within the guard.
    """
    if epsilon == 0.0 or not np.isfinite(epsilon):
        raise InvalidEpsilon("continuation needs a finite nonzero eps")
    if cp.morse_index[1] != 1:
        raise DegenerateSeed(
            f"seed has {cp.morse_index[1]} zero eigenvalues; need exactly 1"
        )
    ceiling = epsilon_ceiling(cp)
    if abs(epsilon) > ceiling:
        raise InvalidEpsilon(f"|eps| = {abs(epsilon):g} exceeds ceiling {ceiling:g}")

    phi = cp.config
    n = phi.size
    x = (
        np.concatenate((np.ones(n), phi))
        if _warm_start is None
        else _warm_start.copy()
    )
    phase = np.concatenate((np.zeros(n), np.ones(n)))

    def lstsq_step(z: np.ndarray, fz: np.ndarray) -> np.ndarray:
        jac = _mismatch_jacobian(z[:n], z[n:], epsilon, 1.0)
        jac = np.vstack((jac.real, jac.imag, phase))
        return np.linalg.lstsq(jac, -fz, rcond=None)[0]

    x, fx = _newton(
        lambda z: _augmented_system(z, phi, epsilon, 1.0),
        lstsq_step,
        x,
        releq_tol,
        max_iter,
        _COLLIDED,
    )
    return RelativeEquilibrium(
        r=x[:n],
        theta=x[n:],
        epsilon=float(epsilon),
        omega=1.0,
        residual=float(np.abs(fx[:-1]).max()),
        source=cp,
    )


def sweep_epsilon(
    cp: CriticalPoint, eps_list, **kwargs
) -> list[RelativeEquilibrium]:
    """Continue one seed across several eps values, warm-starting in order.

    Returns one equilibrium per entry.  On the first failure a NoConvergence
    is raised whose ``partial`` attribute carries the equilibria found so
    far.  An eps of exactly zero anywhere in the list is rejected up front.
    """
    eps_values = [float(e) for e in eps_list]
    if any(e == 0.0 for e in eps_values):
        raise InvalidEpsilon("sweep list must not contain eps = 0")
    results: list[RelativeEquilibrium] = []
    warm = None
    for eps in eps_values:
        try:
            eq = continue_equilibrium(cp, eps, _warm_start=warm, **kwargs)
        except (NoConvergence, CollisionApproach) as exc:
            raise NoConvergence(
                f"sweep failed at eps = {eps:g}: {exc}", partial=results
            ) from exc
        results.append(eq)
        warm = np.concatenate((eq.r, eq.theta))
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
    q0 = np.array([np.linalg.norm(eq.strong_position()) for eq in family])
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
