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

The linearization is built in closed form from the Biot-Savart Jacobian of
``continuation``, at states where the reduced field is below 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .continuation import (
    RelativeEquilibrium,
    _checked_mismatch,
    _mismatch_jacobian,
    continue_equilibrium,
)
from .errors import DegenerateSeed
from .potential import ngon
from .search import CriticalPoint, newton_refine
from .spectra import SpectrumReport

# An eigenvalue is imaginary when |Re lambda| <= this times |lambda|.
_IMAG_REL_TOL = 1e-4


class StabilityClass(Enum):
    LINEARLY_STABLE = "stable"
    LINEARLY_UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass
class StabilityVerdict:
    classification: StabilityClass
    spectrum: SpectrumReport
    n_zero: int
    max_real_part: float
    instability_count: int


def reduced_field(r, theta, epsilon: float, omega: float = 1.0) -> np.ndarray:
    """Reduced rotating-frame field (dr_j/dt, dtheta_j/dt - omega)."""
    a, b = _checked_mismatch(r, theta, epsilon, omega)[:2]
    return np.concatenate((a, b / np.asarray(r)))


def _require_equilibrium(eq: RelativeEquilibrium) -> None:
    """ValueError when the reduced field at the state is 1e-10 or more in
    magnitude; the stored ``eq.residual`` is not read."""
    residual = float(np.abs(reduced_field(eq.r, eq.theta, eq.epsilon, eq.omega)).max())
    if residual >= 1e-10:
        raise ValueError(f"equilibrium residual {residual:.3e} >= 1e-10")


def linearize(eq: RelativeEquilibrium) -> np.ndarray:
    """Closed-form Jacobian of the reduced field at an equilibrium.

    State ordering is (r_1..r_N, theta_1..theta_N).  The state is checked
    first by ``_require_equilibrium``.
    """
    _require_equilibrium(eq)
    return _reduced_jacobian(eq.r, eq.theta, eq.epsilon, eq.omega)


def _reduced_jacobian(r, theta, epsilon: float, omega: float) -> np.ndarray:
    """Jacobian of ``reduced_field`` at any state, in closed form.

    The rows are the mismatch Jacobian rotated into radial and tangential
    parts, with the tangential rows divided by r.
    """
    n = r.size
    # a + i b = e^{-i theta} M, so d/dtheta_j gains -i (a_j + i b_j)
    a, b, ct, st = _checked_mismatch(r, theta, epsilon, omega)
    rot = _mismatch_jacobian(r, theta, epsilon, omega)
    rot *= (ct - 1j * st)[:, None]
    k = np.arange(n)
    rot[k, k + n] -= 1j * (a + 1j * b)
    jac = np.vstack((rot.real, rot.imag / r[:, None]))
    jac[k + n, k] -= b / r**2
    return jac


def _structural_deflation(mat: np.ndarray, eq: RelativeEquilibrium) -> np.ndarray:
    """Eigenvalues of the linearization less the two-dimensional symmetry block.

    The rotation direction (0, 1..1) and the scaling direction (r, 0) span an
    invariant subspace on which the linearization is nilpotent.  The reduced
    field is rotation invariant, so the first is mapped to 0 exactly; the
    second is mapped into the subspace up to twice the field, which
    ``linearize`` bounds by 1e-10.
    """
    n = eq.n
    w_rot = np.concatenate((np.zeros(n), np.ones(n))) / np.sqrt(n)
    w_scl = np.concatenate((eq.r, np.zeros(n)))
    w_scl = w_scl / np.linalg.norm(w_scl)
    q, _ = np.linalg.qr(np.column_stack((w_rot, w_scl)), mode="complete")
    b = q.T @ mat @ q
    return np.linalg.eigvals(b[2:, 2:])


def stability_verdict(eq: RelativeEquilibrium, tol: float = 1e-6) -> StabilityVerdict:
    """Classify an equilibrium from the linearization spectrum.

    The two structural symmetry eigenvalues count as zeros; further
    eigenvalues below tol * sqrt(|eps|) in magnitude flag a degenerate
    (Marginal) case.  With exactly two zeros the verdict is LinearlyStable
    iff every remaining eigenvalue is pure imaginary, |Re| < 1e-4 *
    |lambda|.  ``instability_count`` is the number of eigenvalues with real
    part above that relative threshold.
    """
    rest = _structural_deflation(linearize(eq), eq)
    zero_abs = tol * np.sqrt(abs(eq.epsilon))
    extra = int(np.sum(np.abs(rest) < zero_abs))
    n_zero = 2 + extra
    nonzero = rest[np.abs(rest) >= zero_abs]
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
        n_zero=n_zero,
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
    ev = np.asarray(cp.spectrum.eigenvalues).real
    keep = np.argsort(np.abs(ev))[cp.spectrum.zero_count:]
    zeta = ev[keep]
    out = []
    for z in zeta:
        val = np.sqrt(complex(-2.0 * z * epsilon))
        out.extend((val, -val))
    arr = np.asarray(out, dtype=complex)
    order = np.lexsort((arr.imag, arr.real))
    return arr[order]


def cabral_schmidt_check(
    n: int, epsilon: float, verdict: StabilityVerdict | None = None
) -> tuple[bool, bool]:
    """Ring stability interval in the strength ratio p = 1/eps.

    The ring of N vortices about a central vortex of relative strength p is
    linearly stable exactly for
        (N^2 - 8N + 8)/16 < p < (N-1)^2 / 4   (N even)
        (N^2 - 8N + 7)/16 < p < (N-1)^2 / 4   (N odd).
    Returns (inside_interval, consistent) where ``consistent`` compares the
    interval against this toolkit's verdict for the continued ring at eps
    (computed on demand when not supplied).

    The interval is stated for N >= 3.  For N = 2 it would claim stability
    for 0 < p < 1/4, where both the linearization and direct integration
    show growth, so n < 3 raises ValueError.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if epsilon == 0.0:
        raise ValueError("need eps != 0")
    p = 1.0 / epsilon
    lower = (n * n - 8 * n + 8) / 16.0 if n % 2 == 0 else (n * n - 8 * n + 7) / 16.0
    upper = (n - 1) ** 2 / 4.0
    inside = lower < p < upper
    if verdict is None:
        seed = newton_refine(ngon(n))
        verdict = stability_verdict(continue_equilibrium(seed, epsilon))
    stable = verdict.classification is StabilityClass.LINEARLY_STABLE
    return inside, inside == stable
