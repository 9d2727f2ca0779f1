"""Limit potential for N weak vortices on the unit circle about a strong center.

When a single strong vortex (circulation 1) is orbited by N vortices of
circulation eps -> 0, the weak vortices settle on the unit circle and their
angular positions theta_1..theta_N are governed by the potential

    V(theta) = - sum_{i<j} [ cos(theta_i - theta_j)
                             + (1/2) log(2 - 2 cos(theta_i - theta_j)) ].

Critical points of V are the limits of relative-equilibrium families of the
full (1+N)-vortex problem.  This module evaluates V, its gradient and Hessian,
and classifies critical points by the Hessian spectrum on the quotient by the
rotational symmetry (V is invariant under a common shift of all angles, so the
Hessian always annihilates (1,...,1)).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import AngularCollision, InvalidN, NotCritical
from .spectra import SpectrumReport, eig_symmetric

# Collision guard on the 1 - cos(theta_i - theta_j) separation scale.
EPS_SEP = 1e-10
_COLLIDED = f"two angles closer than the collision guard (1-cos < {EPS_SEP:g})"

# Largest gradient sup-norm that classify accepts as a critical point.
_GRAD_TOL = 1e-8


class CriticalPointClass(Enum):
    LOCAL_MIN = "min"
    LOCAL_MAX = "max"
    SADDLE = "saddle"
    DEGENERATE = "degenerate"


def _angles(theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or th.size < 2:
        raise ValueError("expected a 1-d array of at least two angles")
    if not np.all(np.isfinite(th)):
        raise ValueError("angles must be finite")
    return th


def _geometry(theta: np.ndarray):
    """Pairwise geometry of a (..., N) stack of angle rows, unvalidated.

    Returns (d, c, om, clear) with d[..., j, i] = theta_j - theta_i,
    c = cos(d), om = 1 - c with its diagonals set to inf, and per-row flags,
    False where two angles collide (1 - cos < EPS_SEP; that row is
    meaningless).  The one geometry behind V, grad V and the Hessian.
    """
    n = theta.shape[-1]
    d = theta[..., :, None] - theta[..., None, :]
    c = np.cos(d)
    om = 1.0 - c
    om.reshape(-1, n * n)[:, :: n + 1] = np.inf  # diagonals (strided)
    return d, c, om, om.min(axis=(-2, -1)) >= EPS_SEP


def _checked(kernel, theta):
    """``kernel`` (``_geometry`` or ``_gradients``) on one validated row of
    angles, its flag dropped.  Raises AngularCollision when two collide."""
    *out, clear = kernel(_angles(theta))
    if not clear:
        raise AngularCollision(_COLLIDED)
    return out


def potential(theta) -> float:
    """Evaluate V(theta).  Raises AngularCollision near coincident angles."""
    _, c, _ = _checked(_geometry, theta)
    cu = c[np.triu_indices(len(c), 1)]
    return float(-np.sum(cu + 0.5 * np.log(2.0 - 2.0 * cu)))


def _gradients(theta: np.ndarray):
    """Gradients of V over a (..., N) stack of angle rows, unvalidated, and
    per-row flags, False where two angles collide (that row is meaningless)."""
    d, _, om, clear = _geometry(theta)
    np.maximum(om, EPS_SEP, out=om)  # changes only collided rows; keeps 1 / om finite
    return np.sum(np.sin(d) * (1.0 - 1.0 / (2.0 * om)), axis=-1), clear  # diagonals: sin(0) * 1 = 0


def gradient(theta) -> np.ndarray:
    """Gradient of V.

    Component j is sum_{i != j} sin(theta_j - theta_i) *
    (1 - 1/(2 - 2 cos(theta_j - theta_i))).  The components always sum to
    zero: V is invariant under a common rotation of all angles.
    """
    return _checked(_gradients, theta)[0]


def hessian(theta) -> np.ndarray:
    """Hessian of V.

    Off-diagonal entries are -cos(theta_i - theta_j) -
    1/(2 - 2 cos(theta_i - theta_j)); each diagonal entry is minus the sum of
    the off-diagonal entries in its row, so row sums vanish identically and
    (1,...,1) is always in the kernel.
    """
    _, c, om = _checked(_geometry, theta)
    h = -c - 1.0 / (2.0 * om)
    diag = h.reshape(-1)[:: len(h) + 1]
    diag[:] = 0.0  # so the row sums see the off-diagonal entries only
    diag[:] = -h.sum(axis=1)
    return h


def classify(
    theta, tol: float = 1e-9
) -> tuple[CriticalPointClass, SpectrumReport]:
    """Classify a critical point of V by its Hessian spectrum.

    A nondegenerate critical point has exactly one zero eigenvalue (the
    rotational symmetry direction).  With that single zero, positive
    semidefinite means LOCAL_MIN, negative semidefinite LOCAL_MAX, and a
    mixed spectrum SADDLE.  Two or more zeros give DEGENERATE.

    Raises NotCritical when the gradient sup-norm reaches 1e-8.
    """
    return _classify(theta, gradient(theta), tol)[:2]


def _classify(theta, g: np.ndarray, tol: float):
    """``classify`` with the gradient given; also returns the Morse index."""
    res = float(np.abs(g).max())
    if res >= _GRAD_TOL:
        raise NotCritical(f"gradient sup-norm {res:.3e} >= {_GRAD_TOL:g}")
    report = eig_symmetric(hessian(theta), tol=tol)
    ev = report.eigenvalues.real
    thr = report.tol_used * max(1.0, float(np.abs(ev).max()))
    morse = (int(np.sum(ev < -thr)), int(report.zero_count), int(np.sum(ev > thr)))
    if report.zero_count != 1:
        return CriticalPointClass.DEGENERATE, report, morse
    if np.all(ev > -thr):
        return CriticalPointClass.LOCAL_MIN, report, morse
    if np.all(ev < thr):
        return CriticalPointClass.LOCAL_MAX, report, morse
    return CriticalPointClass.SADDLE, report, morse


def ngon(n: int) -> np.ndarray:
    """Angles of the regular n-gon, theta_j = 2*pi*j/n for j = 0..n-1."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("n-gon needs an integer n >= 2")
    return 2.0 * np.pi * np.arange(n) / n
