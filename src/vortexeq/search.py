"""Multistart Newton search for critical points of the ring potential.

Configurations are identified up to common rotation, relabeling, and
reflection, so every located critical point is reduced to a canonical
representative and families are deduplicated by their gap sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AngularCollision, CollisionApproach, NoConvergence
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


@dataclass
class CriticalPoint:
    """A critical point of the ring potential in canonical form."""

    config: np.ndarray
    cls: CriticalPointClass
    spectrum: SpectrumReport
    morse_index: tuple[int, int, int]  # (negative, zero, positive)
    residual: float
    value: float
    reflection_symmetric: bool


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


def _pinned_step(theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Newton step with theta_1 held: H[1:, 1:] s[1:] = -g[1:].  As H 1 = 0 and
    # sum(g) = 0 this solves H s = -g, so it differs from any other Newton step
    # only by a common rotation, which V ignores and canonicalize removes.
    s = np.zeros_like(g)
    try:
        s[1:] = np.linalg.solve(hessian(theta)[1:, 1:], -g[1:])
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


def _newton(residual, step, x: np.ndarray, tol: float, max_iter: int, collision: str):
    """Damped Newton solve of residual(x) = 0, shared by search and continuation.

    ``residual`` maps points (..., n), with or without a stack axis, to
    their residuals (..., m) and flags (...) that are False where a point
    collides.  ``step(x, f)`` is the full Newton step at x; ``_backtrack``
    halves it until ||f||_2^2 drops.  Returns (x, f) once ||f||_inf < tol,
    within at most ``max_iter`` steps.  Raises CollisionApproach(collision)
    if x collides and NoConvergence when the line search stalls or the cap
    is reached.
    """
    f, clear = residual(x)
    if not clear:
        raise CollisionApproach(collision)
    for _ in range(max_iter):
        if float(np.abs(f).max()) < tol:
            return x, f
        x, f = _backtrack(residual, x, step(x, f), float(f @ f))
    if float(np.abs(f).max()) < tol:
        return x, f
    raise NoConvergence(f"no convergence within {max_iter} iterations")


def _build_point(theta: np.ndarray, tol_zero: float) -> CriticalPoint:
    canon = canonicalize(theta)
    g = gradient(canon)
    cls, report, morse = _classify(canon, g, tol_zero)
    gaps = _cyclic_gaps(canon)
    mirrored = float(np.abs(gaps - _symmetry_orbit(gaps)[gaps.size :]).max(axis=1).min())
    return CriticalPoint(
        config=canon,
        cls=cls,
        spectrum=report,
        morse_index=morse,
        residual=float(np.abs(g).max()),
        value=potential(canon),
        reflection_symmetric=mirrored < 1e-8,
    )


def newton_refine(
    theta0,
    newton_tol: float = 1e-12,
    max_iter: int = 200,
    tol_zero: float = 1e-9,
) -> CriticalPoint:
    """Damped Newton refinement of theta0 to a critical point.

    Runs the shared driver ``_newton`` on grad V.  The step solves the
    Newton system with theta_1 held, which removes the rotation direction;
    the line search on ||grad V||^2 halves it up to 29 times.  Convergence
    means ||grad V||_inf < newton_tol within ``max_iter`` Newton steps.
    Raises NoConvergence at the iteration cap, when the line search stalls
    or when the Newton system is singular, and CollisionApproach if the
    start collides.
    """
    th, _ = _newton(
        _gradients,
        _pinned_step,
        _angles(theta0),
        newton_tol,
        max_iter,
        _COLLIDED,
    )
    return _build_point(th, tol_zero)


def sample_wedge(n: int, rng: np.random.Generator, delta: float = 1e-2) -> np.ndarray:
    """Draw one configuration uniformly from the ordered-gap wedge interior.

    Gaps eta_2..eta_N all exceed delta and their sum stays below
    2*pi - delta, i.e. theta_1 = 0 < theta_2 < ... < theta_N < 2*pi - delta.
    """
    span = TWO_PI - n * delta
    if span <= 0.0:
        raise ValueError("delta too large for this n")
    parts = rng.dirichlet(np.ones(n))
    gaps = delta + span * parts[: n - 1]
    out = np.zeros(n)
    out[1:] = np.cumsum(gaps)
    return out


def multistart_search(
    n: int,
    n_starts: int,
    seed: int = 0,
    delta: float = 1e-2,
    dedup_tol: float = 1e-6,
    newton_tol: float = 1e-12,
    tol_zero: float = 1e-9,
) -> FamilyCatalog:
    """Locate critical-point families from random starts in the gap wedge.

    Runs ``n_starts`` Newton refinements from wedge samples drawn with the
    given seed, folds converged points into families by symmetry distance
    (first representative wins), and returns the catalog sorted by potential
    value.  Deterministic for a fixed seed.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("multistart search needs an integer n >= 2")
    rng = np.random.default_rng(seed)
    points: list[CriticalPoint] = []
    failures = {"no_convergence": 0, "collision": 0}
    converged = 0
    for _ in range(int(n_starts)):
        start = sample_wedge(n, rng, delta)
        try:
            cp = newton_refine(start, newton_tol=newton_tol, tol_zero=tol_zero)
        except NoConvergence:
            failures["no_convergence"] += 1
            continue
        except (CollisionApproach, AngularCollision):
            failures["collision"] += 1
            continue
        converged += 1
        for known in points:
            if symmetry_distance(cp.config, known.config) < dedup_tol:
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
            "delta": delta,
            "dedup_tol": dedup_tol,
            "newton_tol": newton_tol,
            "tol_zero": tol_zero,
            "n_converged": converged,
            "failures": failures,
        },
    )
