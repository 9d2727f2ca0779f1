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
    _classify,
    _validate_angles,
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


def _symmetry_orbit(gaps: np.ndarray) -> list[np.ndarray]:
    orbit = []
    for seq in (gaps, gaps[::-1]):
        for k in range(seq.size):
            orbit.append(np.roll(seq, -k))
    return orbit


def canonicalize(theta) -> np.ndarray:
    """Reduce to the canonical representative of the symmetry orbit.

    The result has theta_1 = 0 and ascending angles in [0, 2*pi); among the
    N cyclic relabelings and the reflection theta -> -theta it realizes the
    lexicographically smallest gap sequence.  Idempotent.
    """
    th = _validate_angles(theta)
    gaps = _cyclic_gaps(th)
    best = gaps
    for cand in _symmetry_orbit(gaps):
        if _lex_less(cand, best):
            best = cand
    out = np.zeros(th.size)
    out[1:] = np.cumsum(best[:-1])
    return out


def symmetry_distance(theta_a, theta_b) -> float:
    """Sup-distance between gap sequences, minimized over the symmetry group."""
    ga = _cyclic_gaps(np.asarray(theta_a, dtype=float))
    gb = _cyclic_gaps(np.asarray(theta_b, dtype=float))
    if ga.size != gb.size:
        return float("inf")
    return min(float(np.abs(ga - cand).max()) for cand in _symmetry_orbit(gb))


def _pinv_step(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Newton step restricted to the complement of the rotation direction:
    # pseudo-inverse of the Hessian with near-zero modes dropped.
    ev, q = np.linalg.eigh(h)
    cut = 1e-10 * max(1.0, float(np.abs(ev).max()))
    inv = np.where(np.abs(ev) > cut, 1.0 / np.where(ev == 0.0, 1.0, ev), 0.0)
    return -q @ (inv * (q.T @ g))


def _build_point(theta: np.ndarray, tol_zero: float) -> CriticalPoint:
    canon = canonicalize(theta)
    g = gradient(canon)
    cls, report = _classify(canon, g, tol_zero)
    residual = float(np.abs(g).max())
    ev = report.eigenvalues.real
    thr = report.tol_used * max(1.0, float(np.abs(ev).max()))
    morse = (
        int(np.sum(ev < -thr)),
        int(report.zero_count),
        int(np.sum(ev > thr)),
    )
    gaps = _cyclic_gaps(canon)
    mirrored = min(
        float(np.abs(gaps - np.roll(gaps[::-1], -k)).max()) for k in range(gaps.size)
    )
    return CriticalPoint(
        config=canon,
        cls=cls,
        spectrum=report,
        morse_index=morse,
        residual=residual,
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

    The step solves the Newton system through the Hessian pseudo-inverse on
    the complement of the rotation direction; a backtracking line search on
    ||grad V||^2 halves the step up to 30 times.  Convergence means
    ||grad V||_inf < newton_tol.  Raises NoConvergence at the iteration cap
    and CollisionApproach if angles collapse toward a collision.
    """
    th = np.array(theta0, dtype=float)
    try:
        g = gradient(th)
    except AngularCollision as exc:
        raise CollisionApproach(str(exc)) from exc
    for _ in range(max_iter):
        f0 = float(g @ g)
        if float(np.abs(g).max()) < newton_tol:
            return _build_point(th, tol_zero)
        step = _pinv_step(hessian(th), g)
        alpha = 1.0
        for _ in range(30):
            trial = th + alpha * step
            try:
                gt = gradient(trial)
            except AngularCollision:
                alpha *= 0.5
                continue
            if float(gt @ gt) < f0:
                th, g = trial, gt
                break
            alpha *= 0.5
        else:
            raise NoConvergence("line search stalled before reaching tolerance")
    if float(np.abs(g).max()) < newton_tol:
        return _build_point(th, tol_zero)
    raise NoConvergence(f"no convergence within {max_iter} iterations")


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
