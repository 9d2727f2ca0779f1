"""Linear stability of continued relative equilibria.

The reduced rotating-frame system evolves (r_j, theta_j) for the N weak
vortices with the strong vortex eliminated.  Its linearization at an
equilibrium always carries two structural zero eigenvalues (rotation of the
configuration and the rescaling family r -> s r, omega -> omega / s^2); the
remaining 2N - 2 eigenvalues shrink like sqrt(|eps|) and decide stability.
For a seed Hessian eigenvalue zeta != 0 the matching pair is asymptotically
+/- sqrt(-2 zeta eps): imaginary when zeta eps > 0, real otherwise.  Summed
over modes this yields the dichotomy: stable for eps > 0 iff the seed is a
local minimum, stable for eps < 0 iff it is a local maximum.

The linearization is ``continuation._reduced_jacobian``, the closed-form
Jacobian of the reduced field that continuation's Newton step also solves
with, so the equilibrium and its stability come from one system.  A
``RelativeEquilibrium`` cannot be built where the reduced field is 1e-10 or
more.

A reflection that fixes the equilibrium (every census family has one)
reverses time, TJ = -JT (Lamb and Roberts, Physica D 112 (1998) 1), so the
spectrum is +-sqrt of the eigenvalues of an N x N product of projected
blocks of J; with no reflection, of J projected off both symmetry directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# reduced_field is re-bound here: __init__ and perfbench trace stability.reduced_field
from .continuation import (
    RelativeEquilibrium,
    _checked_mismatch,
    _reduced_jacobian,
    reduced_field,
)
from .errors import DegenerateSeed, InvalidEpsilon, InvalidN
from .search import TWO_PI, CriticalPoint
from .spectra import SpectrumReport

# An eigenvalue is imaginary when |Re lambda| <= this times |lambda|.
_IMAG_REL_TOL = 1e-4

# An eigenvalue is zero when |lambda| < this times sqrt(|eps|).
_ZERO_TOL = 1e-6


class StabilityClass(Enum):
    LINEARLY_STABLE = "stable"
    LINEARLY_UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass
class StabilityVerdict:
    classification: StabilityClass
    spectrum: SpectrumReport
    max_real_part: float
    instability_count: int


def linearize(eq: RelativeEquilibrium) -> np.ndarray:
    """Closed-form Jacobian of the reduced field at an equilibrium.

    State ordering is (r_1..r_N, theta_1..theta_N).
    """
    a, b = _checked_mismatch(eq.r, eq.theta, eq.epsilon)[:2]
    return _reduced_jacobian(eq.r, eq.theta, eq.epsilon, a, b)


def _symmetry_directions(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rotation (0, 1..1) and scaling (r, 0) directions in (r, theta) space."""
    zeros = np.zeros(r.size)
    w_rot = np.concatenate((zeros, np.ones(r.size)))
    w_scl = np.concatenate((r, zeros))
    return w_rot / np.linalg.norm(w_rot), w_scl / np.linalg.norm(w_scl)


def _reflection(r: np.ndarray, theta: np.ndarray) -> np.ndarray | None:
    """The map j -> (c - j) mod N of the c whose defect max |r_(c-j) - r_j| +
    max |theta_j + theta_(c-j) - theta_0 - theta_c| (mod 2 pi) is smallest,
    if that defect is below 1e-10; else None."""
    j = np.arange(r.size)
    perm = j[:, None] - j  # row c; negative entries index from the end
    turn = theta[perm] + (theta - theta[0]) - theta[:, None]
    turn -= TWO_PI * np.round(turn / TWO_PI)
    defect = np.abs(r[perm] - r).max(axis=1) + np.abs(turn).max(axis=1)
    c = int(np.argmin(defect))
    return perm[c] % r.size if defect[c] < 1e-10 else None


def _deflated_spectrum(eq: RelativeEquilibrium) -> np.ndarray:
    """The 2N - 2 eigenvalues of the linearization J off the scaling and
    rotation directions.  A reflection T that fixes the equilibrium has
    TJ = -JT, so with P+- = (1 +- T) / 2 they are +-sqrt(mu), mu in the
    spectrum of P+ J P- J P+ on T = +1 less the scaling direction's simple
    zero.  With no T they are the spectrum of PJP less its two zeros, P the
    orthogonal projection off both directions."""
    jac = linearize(eq)
    perm = _reflection(eq.r, eq.theta)
    if perm is None:
        for w in _symmetry_directions(eq.r):
            jac -= np.outer(jac @ w, w)
            jac -= np.outer(w, w @ jac)
        lam = np.linalg.eigvals(jac)
        return lam[np.argsort(np.abs(lam))[2:]]
    j = np.arange(eq.n)
    mate = np.concatenate((perm, eq.n + perm))
    sign = np.repeat([1.0, -1.0], eq.n)  # T e_i = sign_i e_mate(i)
    # one index of each orbit on T = +1: dr on {j, perm(j)}, dtheta on a pair
    plus = np.flatnonzero(np.concatenate((j <= perm, j < perm)))
    jp, jtp = [x[:, plus] + x[:, mate[plus]] * sign[plus] for x in (jac, jac.T)]
    # P+[:, plus] is a basis of T = +1 with dual rows P+[plus] times the orbit
    # size; jtp.T and jp - T jp are 2 (P+ J)[plus] and 4 (P- J P+)[:, plus]
    scale = (2.0 - (plus == mate[plus])) / 8
    mu = np.linalg.eigvals(jtp.T @ (jp - sign[:, None] * jp[mate]) * scale[:, None])
    root = np.sqrt(mu[np.argsort(np.abs(mu))[1:]].astype(complex))
    return np.concatenate((root, -root)) + 0j  # + 0j turns -0.0 parts into 0.0


def stability_verdict(eq: RelativeEquilibrium) -> StabilityVerdict:
    """Classify an equilibrium from the linearization spectrum.

    The two structural symmetry eigenvalues count as zeros; further
    eigenvalues below 1e-6 * sqrt(|eps|) in magnitude flag a degenerate
    (Marginal) case.  With exactly two zeros the verdict is LinearlyStable
    iff every remaining eigenvalue is pure imaginary, |Re| < 1e-4 *
    |lambda|.  ``instability_count`` is the number of eigenvalues with real
    part above that relative threshold.
    """
    rest = _deflated_spectrum(eq)
    zero_abs = _ZERO_TOL * np.sqrt(abs(eq.epsilon))
    nonzero = rest[np.abs(rest) >= zero_abs]
    n_zero = 2 + rest.size - nonzero.size
    growing = nonzero.real > _IMAG_REL_TOL * np.abs(nonzero)
    if n_zero > 2:
        cls = StabilityClass.MARGINAL
    elif np.any(growing):
        cls = StabilityClass.LINEARLY_UNSTABLE
    else:
        cls = StabilityClass.LINEARLY_STABLE
    full = np.concatenate((np.zeros(2, dtype=complex), rest))
    # the real parts of imaginary modes are roundoff; they must not decide
    # the order, so they sort as zero
    noise = np.abs(full.real) <= _IMAG_REL_TOL * np.abs(full)
    order = np.lexsort((full.imag, np.where(noise, 0.0, full.real)))
    spectrum = SpectrumReport(
        eigenvalues=full[order], zero_count=n_zero, tol_used=zero_abs
    )
    return StabilityVerdict(
        classification=cls,
        spectrum=spectrum,
        max_real_part=float(rest.real.max(initial=0.0)),
        instability_count=int(np.sum(growing)),
    )


def asymptotic_eigenvalues(cp: CriticalPoint, epsilon: float) -> np.ndarray:
    """Leading-order linearization eigenvalues predicted from the seed.

    Each nonzero Hessian eigenvalue zeta contributes the pair
    +/- sqrt(-2 zeta eps): imaginary for zeta eps > 0, real for
    zeta eps < 0.  Returns 2(N-1) values sorted by (real, imaginary) part.
    """
    if cp.morse_index[1] != 1:
        raise DegenerateSeed("asymptotic spectrum needs a nondegenerate seed")
    ev = cp.spectrum.eigenvalues
    keep = np.argsort(np.abs(ev))[cp.spectrum.zero_count:]
    val = np.sqrt((-2.0 * epsilon) * ev[keep] + 0j)
    arr = np.column_stack((val, -val)).ravel() + 0j  # +val, -val; no -0.0 parts
    return arr[np.lexsort((arr.imag, arr.real))]


def cabral_schmidt_check(
    n: int, epsilon: float, verdict: StabilityVerdict
) -> tuple[bool, bool]:
    """Ring stability interval in the strength ratio p = 1/eps.

    The ring of N vortices about a central vortex of relative strength p is
    linearly stable exactly for
        (N^2 - 8N + 8)/16 < p < (N-1)^2 / 4   (N even)
        (N^2 - 8N + 7)/16 < p < (N-1)^2 / 4   (N odd).
    Returns (inside_interval, consistent) where ``consistent`` compares the
    interval against ``verdict``, this toolkit's verdict for the continued
    ring at eps.

    The interval is stated for N >= 3.  For N = 2 it would claim stability
    for 0 < p < 1/4, where both the linearization and direct integration
    show growth, so n < 3 raises InvalidN; eps = 0 raises InvalidEpsilon.
    """
    if n < 3:
        raise InvalidN("need n >= 3")
    if epsilon == 0.0:
        raise InvalidEpsilon("need eps != 0")
    p = 1.0 / epsilon
    lower = (n * n - 8 * n + 8) / 16.0 if n % 2 == 0 else (n * n - 8 * n + 7) / 16.0
    upper = (n - 1) ** 2 / 4.0
    inside = lower < p < upper
    stable = verdict.classification is StabilityClass.LINEARLY_STABLE
    return inside, inside == stable
