"""Multistart Newton search for critical points of the ring potential.

Configurations are identified up to common rotation, relabeling, and
reflection, so every located critical point is reduced to a canonical
representative and families are deduplicated by their gap sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AngularCollision, InvalidN, NoConvergence
from .potential import (
    CriticalPointClass,
    _COLLIDED,
    _angles,
    _checked,
    _classify,
    _geometry,
    _gradients,
    gradient,
    hessian,
    potential,
)
from .spectra import SpectrumReport, eig_symmetric

TWO_PI = 2.0 * np.pi

# Lexicographic comparisons between gap sequences treat entries within this
# fuzz as equal, so roundoff cannot flip the chosen representative.
_LEX_FUZZ = 1e-9

# Smallest gap between neighbouring angles in a sampled start.
_START_GAP = 1e-2

# Converged points closer than this in symmetry distance are one family.
_DEDUP_TOL = 1e-6

# Most Newton steps that newton_refine takes.
_NEWTON_MAX_ITER = 200


@dataclass
class CriticalPoint:
    """A critical point of the ring potential, built from its angles alone.

    Construction, ``dataclasses.replace`` included, canonicalizes ``config``
    and computes the other fields from it.  It raises ValueError unless the
    angles are a finite 1-d array of at least two, AngularCollision when two
    collide and NotCritical when the gradient sup-norm reaches 1e-8.
    """

    config: np.ndarray
    cls: CriticalPointClass = field(init=False)
    spectrum: SpectrumReport = field(init=False)
    morse_index: tuple[int, int, int] = field(init=False)  # (negative, zero, positive)
    residual: float = field(init=False)
    value: float = field(init=False)
    reflection_symmetric: bool = field(init=False)

    def __post_init__(self):
        self.config = canon = canonicalize(self.config)
        g = gradient(canon)
        self.cls, self.spectrum, self.morse_index = _classify(canon, g)
        gaps = _cyclic_gaps(canon)
        mirrored = float(np.abs(gaps - _symmetry_orbit(gaps)[gaps.size :]).max(axis=1).min())
        self.residual = float(np.abs(g).max())
        self.value = potential(canon)
        self.reflection_symmetric = mirrored < 1e-8


@dataclass
class FamilyCatalog:
    """Deduplicated critical points for one N, sorted by potential value."""

    n: int
    points: list[CriticalPoint]
    metadata: dict = field(default_factory=dict)


def _cyclic_gaps(theta) -> np.ndarray:
    th = np.sort(np.mod(np.asarray(theta, dtype=float), TWO_PI))
    gaps = np.empty(th.size)
    gaps[:-1] = np.diff(th)
    gaps[-1] = TWO_PI - (th[-1] - th[0])
    return gaps


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if abs(x - y) > _LEX_FUZZ:
            return x < y
    return False


def _symmetry_orbit(gaps: np.ndarray) -> np.ndarray:
    # rows 0..N-1 are the cyclic shifts of gaps, rows N..2N-1 those of its reversal
    idx = np.add.outer(np.arange(gaps.size), np.arange(gaps.size)) % gaps.size
    return gaps[np.vstack((idx, gaps.size - 1 - idx))]


def canonicalize(theta) -> np.ndarray:
    """Reduce to the canonical representative of the symmetry orbit.

    The result has theta_1 = 0 and ascending angles in [0, 2*pi); among the
    N cyclic relabelings and the reflection theta -> -theta it realizes the
    lexicographically smallest gap sequence.  Idempotent.
    """
    _checked(_geometry, theta)  # raises on malformed or colliding angles
    gaps = _cyclic_gaps(theta)
    best = gaps
    for cand in _symmetry_orbit(gaps):
        if _lex_less(cand, best):
            best = cand
    out = np.zeros(gaps.size)
    out[1:] = np.cumsum(best[:-1])
    return out


def symmetry_distance(theta_a, theta_b) -> float:
    """Sup-distance between gap sequences, minimized over the symmetry group."""
    ga = _cyclic_gaps(np.asarray(theta_a, dtype=float))
    gb = _cyclic_gaps(np.asarray(theta_b, dtype=float))
    if ga.size != gb.size:
        return float("inf")
    return float(np.abs(ga - _symmetry_orbit(gb)).max(axis=1).min())


def _pinned_step(jac: np.ndarray, f: np.ndarray, keep) -> np.ndarray:
    # Newton step of search and continuation: jac[1:, keep] s[keep] = -f[1:].
    # Equation 0 is redundant in both (sum(f) = 0 in the search), and the one
    # angle outside keep is held, which fixes the common rotation.
    s = np.zeros_like(f)
    try:
        s[keep] = np.linalg.solve(jac[1:, keep], -f[1:])
    except np.linalg.LinAlgError:
        raise NoConvergence("singular Newton system with theta_1 held") from None
    return s


_ALPHA = np.ldexp(1.0, -np.arange(30))[:, None]  # line-search steps 2**-k, k = 0..29


def _backtrack(residual, x: np.ndarray, s: np.ndarray, f0: float):
    """(trial, f) for the first x + 2**-k s, in k order, that is clear of
    collisions with ||f||_2^2 < f0.  k = 0 goes alone, then k = 1..4 and
    k = 5..29 as stacks, which pay the per-call overhead once; at most
    4096 // n^2 rows per call, as large-n rows are bound by arithmetic."""
    trial = x + s
    f, clear = residual(trial)
    if clear and float(f @ f) < f0:
        return trial, f
    cap = max(1, 4096 // x.size**2)
    for a, b in ((1, 5), (5, 30)):
        for lo in range(a, b, cap):
            trials = x + _ALPHA[lo : min(lo + cap, b)] * s
            for trial, f, clear in zip(trials, *residual(trials)):
                if clear and float(f @ f) < f0:
                    return trial, f
    raise NoConvergence("line search stalled before reaching tolerance")


def _newton(residual, step, x: np.ndarray, tol: float, max_iter: int, collided: Exception):
    """Damped Newton solve of residual(x) = 0, shared by search and continuation.

    ``residual`` maps points (..., n), with or without a stack axis, to
    their residuals (..., m) and flags (...) that are False where a point
    collides.  ``step(x, f)`` is the full Newton step at x; ``_backtrack``
    halves it until ||f||_2^2 drops and never accepts a colliding trial.
    Returns (x, f) once ||f||_inf < tol, within at most ``max_iter`` steps.
    Raises ``collided``, the caller's collision error for its geometry, if
    x collides, and NoConvergence when the line search stalls or the cap is
    reached.
    """
    f, clear = residual(x)
    if not clear:
        raise collided
    for _ in range(max_iter):
        if float(np.abs(f).max()) < tol:
            return x, f
        x, f = _backtrack(residual, x, step(x, f), float(f @ f))
    if float(np.abs(f).max()) < tol:
        return x, f
    raise NoConvergence(f"no convergence within {max_iter} iterations")


def newton_refine(theta0, newton_tol: float = 1e-12) -> CriticalPoint:
    """Damped Newton refinement of theta0 to a critical point.

    Runs the shared driver ``_newton`` on grad V.  The step solves the
    Newton system with theta_1 held, which removes the rotation direction;
    the line search on ||grad V||^2 halves it up to 29 times.  Convergence
    means ||grad V||_inf < newton_tol within 200 Newton steps.
    Raises ValueError on malformed angles, AngularCollision if two start
    angles collide, and NoConvergence at the iteration cap, when the line
    search stalls or when the Newton system is singular.
    """
    th, _ = _newton(
        _gradients,
        lambda t, g: _pinned_step(hessian(t), g, slice(1, None)),
        _angles(theta0),
        newton_tol,
        _NEWTON_MAX_ITER,
        AngularCollision(_COLLIDED),
    )
    return CriticalPoint(th)


def sample_wedge(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one configuration uniformly from the ordered-gap wedge interior.

    Gaps eta_2..eta_N all exceed delta = 0.01 and their sum stays below
    2*pi - delta, i.e. theta_1 = 0 < theta_2 < ... < theta_N < 2*pi - delta.
    """
    span = TWO_PI - n * _START_GAP
    if span <= 0.0:
        raise InvalidN(f"n = {n} leaves no room for gaps of {_START_GAP:g}")
    parts = rng.dirichlet(np.ones(n))
    gaps = _START_GAP + span * parts[: n - 1]
    out = np.zeros(n)
    out[1:] = np.cumsum(gaps)
    return out


def multistart_search(
    n: int,
    n_starts: int,
    seed: int = 0,
    newton_tol: float = 1e-12,
) -> FamilyCatalog:
    """Locate critical-point families from random starts in the gap wedge.

    Runs ``n_starts`` Newton refinements from wedge samples drawn with the
    given seed, folds converged points into families by symmetry distance
    below 1e-6 (first representative wins), and returns the catalog sorted
    by potential value.  Deterministic for a fixed seed.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("multistart search needs an integer n >= 2")
    rng = np.random.default_rng(seed)
    points: list[CriticalPoint] = []
    failures = {"no_convergence": 0, "collision": 0}
    converged = 0
    for _ in range(int(n_starts)):
        start = sample_wedge(n, rng)
        try:
            cp = newton_refine(start, newton_tol=newton_tol)
        except NoConvergence:
            failures["no_convergence"] += 1
            continue
        except AngularCollision:
            failures["collision"] += 1
            continue
        converged += 1
        for known in points:
            if symmetry_distance(cp.config, known.config) < _DEDUP_TOL:
                break
        else:
            points.append(cp)
    points.sort(key=lambda p: p.value)
    return FamilyCatalog(
        n=int(n),
        points=points,
        metadata={
            "n_starts": int(n_starts),
            "seed": int(seed),
            "newton_tol": newton_tol,
            "n_converged": converged,
            "failures": failures,
        },
    )
