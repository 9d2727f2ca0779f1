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
    _hess,
    _value,
    gradient,
)
from .spectra import SpectrumReport

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

# LM takes over a search start after a Newton step accepted at alpha <= 2**-this, or not at all.
_LM_SWITCH_K = 5


def _newton_tol(n: int) -> float:
    # ||grad V||_inf bottoms out near 0.04 eps n^3 from roundoff; stop at about
    # six times that: 1e-12 for n <= 26, and below the 1e-8 criticality check
    return min(1e-9, max(1e-12, np.finfo(float).eps * n**3 / 4))


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
    symmetry_order: int = field(init=False)  # |Stab|: relabelings and reflections fixing the gaps

    def __post_init__(self):
        self.config, stab = _canonical(_angles(self.config))
        g = gradient(self.config)  # checks collisions; public, as perfbench traces it
        _, c, om, _ = _geometry(self.config)  # one geometry for the Hessian and V
        self.cls, self.spectrum, self.morse_index = _classify(g, _hess(c, om))
        self.residual = float(np.abs(g).max())
        self.value = _value(c)
        self.reflection_symmetric = bool(stab[self.config.size :].any())
        self.symmetry_order = int(stab.sum())


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


def _symmetry_orbit(gaps: np.ndarray) -> np.ndarray:
    # rows 0..N-1 are the cyclic shifts of gaps, rows N..2N-1 those of its reversal
    idx = np.add.outer(np.arange(gaps.size), np.arange(gaps.size)) % gaps.size
    return gaps[np.vstack((idx, gaps.size - 1 - idx))]


def _canonical(theta) -> tuple[np.ndarray, np.ndarray]:
    # canonicalize's angles, unvalidated, and which _symmetry_orbit rows fix the
    # gaps; rows are filtered column by column until the first ties all the rest
    gaps = _cyclic_gaps(theta)
    orbit = _symmetry_orbit(gaps)
    rows, j = np.arange(len(orbit)), 0
    while rows.size > 1 and np.abs(orbit[rows] - orbit[rows[0]]).max() > _LEX_FUZZ:
        rows = rows[orbit[rows, j] - orbit[rows, j].min() <= _LEX_FUZZ]
        j += 1
    out = np.concatenate(([0.0], np.cumsum(orbit[rows[0], :-1])))
    return out, np.abs(gaps - orbit).max(axis=1) < 1e-8


def canonicalize(theta) -> np.ndarray:
    """Reduce to the canonical representative of the symmetry orbit.

    The result has theta_1 = 0 and ascending angles in [0, 2*pi); among the
    N cyclic relabelings and their reflections it realizes the
    lexicographically smallest gap sequence.  Entries within 1e-9 count as
    equal, and of tied rows the first in orbit order wins: the cyclic shifts
    of the sorted gaps, then those of their reversal.  Idempotent.
    """
    _checked(_geometry, theta)  # raises on malformed or colliding angles
    return _canonical(theta)[0]


def symmetry_distance(theta_a, theta_b) -> float:
    """Sup-distance between gap sequences, minimized over the symmetry group."""
    ga, gb = _cyclic_gaps(theta_a), _cyclic_gaps(theta_b)
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


def _lm_step(jac: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    # Levenberg-Marquardt step (Yamashita and Fukushima 2001): (J^T J + ||f||_2^2 I
    # + w w^T) s = -J^T f, w the unit common rotation of the last n unknowns; a
    # C-ordered J^T keeps the search's products bit for bit those of H @ H and H @ g
    jt = np.ascontiguousarray(jac.T)
    a = jt @ jac + (f @ f) * np.eye(len(jt))
    a[-n:, -n:] += 1.0 / n
    return np.linalg.solve(a, -(jt @ f))


_ALPHA = np.ldexp(1.0, -np.arange(30))[:, None]  # line-search steps 2**-k, k = 0..29


def _backtrack(residual, x: np.ndarray, s: np.ndarray, f: np.ndarray, aux: list):
    """(trial, f, aux, k) for the first x + 2**-k s, in k order, clear of
    collisions and lowering ||f||_2^2, aux being its residual's by-products,
    else (x, f, aux, 30).  k = 0 goes alone, then k = 1..4 and k = 5..29 as
    stacks, which pay the per-call overhead once; at most 4096 // n^2 rows
    per call, as large-n rows are bound by arithmetic."""
    f0 = float(f @ f)
    trial = x + s
    ft, *trial_aux, clear = residual(trial)
    if clear and float(ft @ ft) < f0:
        return trial, ft, trial_aux, 0
    cap = max(1, 4096 // x.size**2)
    for a, b in ((1, 5), (5, 30)):
        for lo in range(a, b, cap):
            trials = x + _ALPHA[lo : min(lo + cap, b)] * s
            for k, (trial, ft, *trial_aux, clear) in enumerate(zip(trials, *residual(trials)), lo):
                if clear and float(ft @ ft) < f0:
                    return trial, ft, trial_aux, k
    return x, f, aux, len(_ALPHA)


def _newton(residual, jacobian, x: np.ndarray, n: int, tol: float, max_iter: int,
            collided: Exception):
    """Damped Newton solve of residual(x) = 0, shared by search and continuation.

    ``residual`` maps points (..., m), with or without a stack axis, to their
    residuals (..., m), any by-products that ``jacobian(x, f, *by-products)``
    reads, and flags (...) that are False where a point collides.  A common
    rotation moves the last ``n`` unknowns alike.  Steps are ``_pinned_step``
    (theta_1 = x[-n] held) until ``_backtrack``, which halves a step until
    ||f||_2^2 drops and skips colliding trials, first accepts one only at
    k >= _LM_SWITCH_K or not at all, and ``_lm_step`` from then on.
    Returns (x, f, steps) once ||f||_inf < tol, after steps <= ``max_iter``
    steps of both kinds.  Raises ``collided``, the caller's collision error
    for its geometry, if x collides, and NoConvergence when the line search
    stalls after the switch or the cap is reached.
    """
    f, *aux, clear = residual(x)
    if not clear:
        raise collided
    keep, lm = np.arange(x.size) != x.size - n, False
    for steps in range(max_iter):
        if float(np.abs(f).max()) < tol:
            return x, f, steps
        jac = jacobian(x, f, *aux)
        s = _lm_step(jac, f, n) if lm else _pinned_step(jac, f, keep)
        x, f, aux, k = _backtrack(residual, x, s, f, aux)
        if k >= _LM_SWITCH_K and not lm:
            lm = True
        elif k == len(_ALPHA):
            raise NoConvergence("line search stalled before reaching tolerance")
    if float(np.abs(f).max()) < tol:
        return x, f, max_iter
    raise NoConvergence(f"no convergence within {max_iter} iterations")


def _refine(theta0) -> tuple[np.ndarray, int]:
    # newton_refine's solve: the uncanonicalized angles it reaches and its step count
    th0 = _angles(theta0)
    th, _, steps = _newton(_gradients, lambda t, g, c, om: _hess(c, om), th0, th0.size,
                           _newton_tol(th0.size), _NEWTON_MAX_ITER, AngularCollision(_COLLIDED))
    return th, steps


def newton_refine(theta0) -> CriticalPoint:
    """Damped Newton refinement of theta0 to a critical point.

    Runs ``_newton`` on grad V, the Hessian its Jacobian.  The step solves the
    Newton system with theta_1 held, which removes the rotation direction;
    the line search on ||grad V||^2 halves it up to 29 times.  From the first
    step accepted only at alpha <= 2**-5, or not at all, ``_lm_step`` takes
    over.  Convergence means ||grad V||_inf < min(1e-9, max(1e-12, eps N^3 / 4))
    within 200 steps, eps the machine epsilon: 1e-12 up to N = 26, and about
    six times the roundoff floor of ||grad V||_inf above.
    Raises ValueError on malformed angles, AngularCollision if two start
    angles collide, and NoConvergence at the iteration cap, when the line
    search stalls or when the Newton system is singular.
    """
    return CriticalPoint(_refine(theta0)[0])


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


def multistart_search(n: int, n_starts: int, seed: int = 0) -> FamilyCatalog:
    """Locate critical-point families from random starts in the gap wedge.

    Runs ``newton_refine``'s solve, whose tolerance follows from n, from
    ``n_starts`` wedge samples drawn with the given seed.  A converged start
    within symmetry distance 1e-6 of a known family joins it; only the first
    of each family is built into a ``CriticalPoint``.  Returns the catalog
    sorted by potential value; ``newton_steps`` in its metadata sums the
    steps of the converged starts.  Deterministic for a fixed seed.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("multistart search needs an integer n >= 2")
    rng = np.random.default_rng(seed)
    points: list[CriticalPoint] = []
    failures = {"no_convergence": 0, "collision": 0}
    steps = 0
    for _ in range(int(n_starts)):
        try:
            th, k = _refine(sample_wedge(n, rng))
        except (NoConvergence, AngularCollision) as exc:
            failures["collision" if isinstance(exc, AngularCollision) else "no_convergence"] += 1
            continue
        steps += k
        # symmetry_distance does not depend on the orbit representative, bar roundoff
        if all(symmetry_distance(th, known.config) >= _DEDUP_TOL for known in points):
            points.append(CriticalPoint(th))
    points.sort(key=lambda p: p.value)
    return FamilyCatalog(
        n=int(n),
        points=points,
        metadata={
            "n_starts": int(n_starts),
            "seed": int(seed),
            "n_converged": max(0, int(n_starts)) - sum(failures.values()),
            "failures": failures,
            "newton_steps": steps,
            # (-1)^index over each family's 2N / |Stab| copies in the cell: 1 = chi (Milnor)
            "euler_sum": sum((-1) ** p.morse_index[0] * 2 * int(n) // p.symmetry_order
                             for p in points),
        },
    )
