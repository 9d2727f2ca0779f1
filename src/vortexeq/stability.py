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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .continuation import (
    RelativeEquilibrium,
    _mismatch,
    _mismatch_jacobian,
    continue_equilibrium,
)
from .errors import DegenerateSeed, JacobianUnstable
from .potential import hessian, ngon
from .search import CriticalPoint, newton_refine
from .spectra import SpectrumReport, skew_inner

# Largest relative disagreement between the closed-form Jacobian and its
# central-difference checks.
_FD_CHECK_TOL = 1e-5

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


@dataclass
class PairingReport:
    """Skew products Omega(v, conj(v)) for the nonzero-eigenvalue modes."""

    eigenvalues: np.ndarray
    pairings: np.ndarray
    normalized: np.ndarray  # |Omega| / sqrt(|eps|)
    threshold: float
    all_nondegenerate: bool


@dataclass
class TruncationReport:
    """Block-wise distance between the exact linearization and its
    leading-order model [[-eps A, eps V_tt], [-2 I, eps A]]."""

    epsilon: float
    block_errors: dict = field(default_factory=dict)
    expected_orders: dict = field(default_factory=dict)


def reduced_field(r, theta, epsilon: float, omega: float = 1.0) -> np.ndarray:
    """Reduced rotating-frame field (dr_j/dt, dtheta_j/dt - omega).

    Accepts complex input, so its Jacobian can be checked by complex step.
    """
    a, b = _mismatch(r, theta, epsilon, omega)[:2]
    return np.concatenate((a, b / np.asarray(r)))


def linearize(eq: RelativeEquilibrium, fd_step: float = 1e-7) -> np.ndarray:
    """Jacobian of the exact reduced field at an equilibrium.

    State ordering is (r_1..r_N, theta_1..theta_N).  The Jacobian is in
    closed form; central differences at steps h and h/2 (h = fd_step *
    scale) must still agree with it to 1e-5 relative, otherwise
    JacobianUnstable is raised.
    """
    if eq.residual >= 1e-10:
        raise ValueError(f"equilibrium residual {eq.residual:.3e} >= 1e-10")
    n = eq.n
    x0 = np.concatenate((eq.r, eq.theta))
    func = lambda z: reduced_field(z[:n], z[n:], eq.epsilon, eq.omega)

    # a + i b = e^{-i theta} M, so d/dtheta_j gains -i (a_j + i b_j)
    a, b, ct, st = _mismatch(eq.r, eq.theta, eq.epsilon, eq.omega)
    rot = _mismatch_jacobian(eq.r, eq.theta, eq.epsilon, eq.omega)
    rot *= (ct - 1j * st)[:, None]
    k = np.arange(n)
    rot[k, k + n] -= 1j * (a + 1j * b)
    jac = np.vstack((rot.real, rot.imag / eq.r[:, None]))
    jac[k + n, k] -= b / eq.r**2

    scale = max(1.0, float(np.abs(x0).max()))
    h = fd_step * scale

    def central(step: float) -> np.ndarray:
        cols = []
        for k in range(2 * n):
            e = np.zeros(2 * n)
            e[k] = step
            cols.append((func(x0 + e) - func(x0 - e)) / (2.0 * step))
        return np.column_stack(cols)

    j1 = central(h)
    j2 = central(0.5 * h)
    ref = max(1.0, float(np.abs(j1).max()))
    if np.abs(j1 - j2).max() > _FD_CHECK_TOL * ref:
        raise JacobianUnstable("central differences at h and h/2 disagree")
    richardson = (4.0 * j2 - j1) / 3.0
    if np.abs(jac - richardson).max() > _FD_CHECK_TOL * ref:
        raise JacobianUnstable("closed form and extrapolated differences disagree")
    return jac


def _structural_deflation(mat: np.ndarray, eq: RelativeEquilibrium):
    """Split off the exact two-dimensional symmetry block.

    The rotation direction (0, 1..1) and the scaling direction (r, 0) span an
    invariant subspace on which the linearization is nilpotent.  Returns the
    eigenvalues of the complementary block and the invariance defect.
    """
    n = eq.n
    w_rot = np.concatenate((np.zeros(n), np.ones(n))) / np.sqrt(n)
    w_scl = np.concatenate((eq.r, np.zeros(n)))
    w_scl = w_scl / np.linalg.norm(w_scl)
    q, _ = np.linalg.qr(np.column_stack((w_rot, w_scl)), mode="complete")
    b = q.T @ mat @ q
    defect = float(np.abs(b[2:, :2]).max())
    rest = np.linalg.eigvals(b[2:, 2:])
    return rest, defect


def stability_verdict(eq: RelativeEquilibrium, tol: float = 1e-6) -> StabilityVerdict:
    """Classify an equilibrium from the linearization spectrum.

    The two structural symmetry eigenvalues count as zeros; further
    eigenvalues below tol * sqrt(|eps|) in magnitude flag a degenerate
    (Marginal) case.  With exactly two zeros the verdict is LinearlyStable
    iff every remaining eigenvalue is pure imaginary, |Re| < 1e-4 *
    |lambda|.  ``instability_count`` is the number of eigenvalues with real
    part above that relative threshold.
    """
    mat = linearize(eq)
    rest, defect = _structural_deflation(mat, eq)
    zero_abs = tol * np.sqrt(abs(eq.epsilon))
    if defect > max(1e-8, 1e-6 * float(np.abs(mat).max())):
        # symmetry structure not usable; fall back to the raw spectrum
        rest = np.linalg.eigvals(mat)
        order = np.argsort(np.abs(rest))
        rest = rest[order][2:]
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
        eigenvalues=full[order],
        zero_count=n_zero,
        tol_used=zero_abs,
        is_real_spectrum=bool(np.abs(full.imag).max(initial=0.0) < zero_abs),
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


def skew_pairing_check(eq: RelativeEquilibrium) -> PairingReport:
    """Skew products Omega(v, conj(v)) for the 2N-2 non-symmetry modes.

    Eigenvectors are normalized to unit length; a mode is nondegenerately
    paired when |Omega| exceeds 0.1 * sqrt(|eps|).  Report-only.
    """
    mat = linearize(eq)
    values, vectors = np.linalg.eig(mat)
    order = np.argsort(-np.abs(values))[: mat.shape[0] - 2]
    lam = values[order]
    pairings = np.empty(lam.size, dtype=complex)
    for i, k in enumerate(order):
        v = vectors[:, k]
        v = v / np.linalg.norm(v)
        pairings[i] = skew_inner(v, np.conj(v))
    threshold = 0.1 * np.sqrt(abs(eq.epsilon))
    normalized = np.abs(pairings) / np.sqrt(abs(eq.epsilon))
    return PairingReport(
        eigenvalues=lam,
        pairings=pairings,
        normalized=normalized,
        threshold=threshold,
        all_nondegenerate=bool(np.all(np.abs(pairings) > threshold)),
    )


def _sine_coupling(phi: np.ndarray) -> np.ndarray:
    a = np.sin(phi[None, :] - phi[:, None])  # a[i, j] = sin(phi_j - phi_i)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))  # a_ii = sum_j sin(phi_i - phi_j)
    return a


def truncation_crosscheck(eq: RelativeEquilibrium) -> TruncationReport:
    """Compare the exact linearization against its leading-order model.

    The model, assembled from the seed angles phi, is
    [[-eps A, eps V_tt(phi)], [-2 I, eps A]] with a_ij = sin(phi_j - phi_i)
    and a_ii = sum_{j != i} sin(phi_i - phi_j).  Off the lower-left block the
    model truncates at O(eps^2); the lower-left block truncates at O(eps).
    Report-only: the stated orders are meant to be verified by comparing
    reports at eps and eps/10.
    """
    if eq.source is None:
        raise ValueError("equilibrium carries no seed critical point")
    phi = eq.source.config
    n = phi.size
    eps = eq.epsilon
    a = _sine_coupling(phi)
    vtt = hessian(phi)
    model = np.block(
        [[-eps * a, eps * vtt], [-2.0 * np.eye(n), eps * a]]
    )
    exact = linearize(eq)
    diff = exact - model
    blocks = {
        "upper_left": diff[:n, :n],
        "upper_right": diff[:n, n:],
        "lower_left": diff[n:, :n],
        "lower_right": diff[n:, n:],
    }
    return TruncationReport(
        epsilon=eps,
        block_errors={k: float(np.abs(v).max()) for k, v in blocks.items()},
        expected_orders={
            "upper_left": 2,
            "upper_right": 2,
            "lower_left": 1,
            "lower_right": 2,
        },
    )


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
