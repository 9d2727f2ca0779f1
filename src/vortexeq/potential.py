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
    return d, c, om, np.minimum.reduce(om, (-2, -1)) >= EPS_SEP


def _checked(kernel, theta):
    """``kernel`` (``_geometry`` or ``_gradients``) on one validated row of
    angles, its flag dropped.  Raises AngularCollision when two collide."""
    *out, clear = kernel(_angles(theta))
    if not clear:
        raise AngularCollision(_COLLIDED)
    return out


# V from the c of one row's ``_geometry``, Hessians from the c and om of any stack.
def _value(c: np.ndarray) -> float:
    k = np.arange(len(c))
    cu = c[k[:, None] < k]  # the upper triangle, row by row
    return float(-np.sum(cu + 0.5 * np.log(2.0 - 2.0 * cu)))


def _hess(c: np.ndarray, om: np.ndarray) -> np.ndarray:
    h = -c - 0.5 / om  # bit for bit -c - 1 / (2 om), one temporary fewer
    n = h.shape[-1]
    diag = h.reshape(-1, n * n)[:, :: n + 1]  # (rows, n), strided
    diag[:] = 0.0  # so the row sums see the off-diagonal entries only
    diag[:] = -np.add.reduce(h, -1)
    return h


def potential(theta) -> float:
    """Evaluate V(theta).  Raises AngularCollision near coincident angles."""
    return _value(_checked(_geometry, theta)[1])


def _gradients(theta: np.ndarray):
    """(g, c, om, clear): gradients of V over a (..., N) stack of angle rows,
    unvalidated, the ``_geometry`` c and om behind them, and per-row flags,
    False where two angles collide (that row is meaningless)."""
    d, c, om, clear = _geometry(theta)
    np.maximum(om, EPS_SEP, out=om)  # changes only collided rows; keeps 1 / om finite
    g = np.add.reduce(np.sin(d) * (1.0 - 0.5 / om), -1)  # diagonals: sin(0) * 1 = 0
    return g, c, om, clear


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
    return _hess(*_checked(_geometry, theta)[1:])


def classify(theta) -> tuple[CriticalPointClass, SpectrumReport]:
    """Classify a critical point of V by its Hessian spectrum.

    A nondegenerate critical point has exactly one zero eigenvalue (the
    rotational symmetry direction).  With that single zero, positive
    semidefinite means LOCAL_MIN, negative semidefinite LOCAL_MAX, and a
    mixed spectrum SADDLE.  Two or more zeros give DEGENERATE.  An eigenvalue
    is zero below 1e-9 * max(1, largest |eigenvalue|) in magnitude.

    Raises NotCritical when the gradient sup-norm reaches 1e-8.
    """
    return _classify(gradient(theta), hessian(theta))[:2]


def _classify(g: np.ndarray, h: np.ndarray):
    """``classify`` from the gradient and Hessian; also returns the Morse index."""
    res = float(np.abs(g).max())
    if res >= _GRAD_TOL:
        raise NotCritical(f"gradient sup-norm {res:.3e} >= {_GRAD_TOL:g}")
    report = eig_symmetric(h)
    ev, thr = report.eigenvalues, report.tol_used
    neg, zero, pos = morse = (int(np.sum(ev < -thr)), report.zero_count, int(np.sum(ev > thr)))
    if zero != 1:
        cls = CriticalPointClass.DEGENERATE
    elif neg == 0:
        cls = CriticalPointClass.LOCAL_MIN
    elif pos == 0:
        cls = CriticalPointClass.LOCAL_MAX
    else:
        cls = CriticalPointClass.SADDLE
    return cls, report, morse


def ngon(n: int) -> np.ndarray:
    """Angles of the regular n-gon, theta_j = 2*pi*j/n for j = 0..n-1."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("n-gon needs an integer n >= 2")
    return 2.0 * np.pi * np.arange(n) / n
