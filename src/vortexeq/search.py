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


def _stack_rows(n: int) -> int:
    # starts per _newton_stack call in a census: 32 up to n = 16, then fewer as a
    # row's arithmetic outweighs the call overhead; from n = 40 on stacks lost
    return max(1, min(32, 8192 // n**2)) if n < 40 else 1


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


def _merit(f: np.ndarray) -> np.ndarray:
    # ||f||_2^2 of each row, bit for bit float(f @ f) as einsum and (f * f).sum(-1) are not
    return f @ f if f.ndim == 1 else (f[..., None, :] @ f[..., :, None])[..., 0, 0]


def _pinned_step(jac: np.ndarray, f: np.ndarray, keep) -> np.ndarray:
    # Newton step of search and continuation, any stack axes leading: jac[1:, keep]
    # s[keep] = -f[1:].  Equation 0 is redundant in both (sum(f) = 0 in the search),
    # and the one angle outside keep is held, which fixes the common rotation.
    s = np.zeros_like(f)
    try:
        s[..., keep] = np.linalg.solve(jac[..., 1:, keep], -f[..., 1:, None])[..., 0]
    except np.linalg.LinAlgError:
        raise NoConvergence("singular Newton system with theta_1 held") from None
    return s


def _lm_step(jac: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    # Levenberg-Marquardt step (Yamashita and Fukushima 2001), stacks too: (J^T J +
    # ||f||_2^2 I + w w^T) s = -J^T f, w the unit common rotation of the last n unknowns;
    # a C-ordered J^T keeps the search's products bit for bit those of H @ H and H @ g
    jt = np.ascontiguousarray(jac.swapaxes(-1, -2))
    a = jt @ jac + _merit(f)[..., None, None] * np.eye(jt.shape[-1])
    a[..., -n:, -n:] += 1.0 / n
    return np.linalg.solve(a, -(jt @ f[..., None]))[..., 0]


_ALPHA = np.ldexp(1.0, -np.arange(30))[:, None]  # line-search steps 2**-k, k = 0..29
# What ends a solve without convergence, by _newton_stack code 3, 4 and 5.
_FAILS = ("singular Newton system with theta_1 held",
          "line search stalled before reaching tolerance", "no convergence within {} iterations")


def _newton_stack(residual, jacobian, x: np.ndarray, n: int, tol: float, max_iter: int):
    """Damped Newton solves of residual(x) = 0 from x (m,), or from each row of
    x (B, m) as one stack, for search and continuation; each row gets the bits
    of its solve alone.

    ``residual`` maps points (..., m) to residuals (..., m), by-products that
    ``jacobian`` turns into Jacobians (..., m, m), and flags, False where a
    point collides.  A common rotation moves the last ``n`` unknowns alike.  A
    row takes ``_pinned_step`` (theta_1 = x[-n] held) until its line search,
    which halves the step until ||f||_2^2 drops and skips colliding trials,
    first accepts one only at k >= _LM_SWITCH_K or not at all, then
    ``_lm_step``.  Rows that refuse the full step try 2**-k s for k = 1..4,
    then 5..29, at most 4096 // m^2 values of k per call.  Returns (x, f,
    steps, code), code 1 where ||f||_inf < tol within ``max_iter`` steps, 2
    for a colliding start, else 3..5 as in _FAILS.  Boolean masks index a lone
    x as a stack of one; its flags are numpy scalars, whose truth is far
    cheaper to test than ``.all()``.
    """
    m, lone = x.shape[-1], x.ndim == 1
    keep, (f, *aux, clear) = np.arange(m) != m - n, residual(x)
    merit, lm, why = _merit(f), clear & False, 2 * ~clear  # no row on LM steps; why: 0 going on
    every, some = (bool, bool) if lone else (np.ndarray.all, np.ndarray.any)
    if not lone:  # where each live row's x, f, steps and code go
        at, out = np.arange(len(x)), [np.empty_like(x), np.empty_like(f), *np.zeros((2, len(x)), int)]
    ended, kinds = not every(clear), (False, False)  # a row failed; any, all rows on LM steps
    for step in range(max_iter + 1):
        conv = np.maximum.reduce(np.abs(f), -1) < tol
        if ended or step == max_iter or some(conv):  # record the rows that end, drop them
            why = np.maximum(why, conv)
            why = why + 5 * (why == 0) * (step == max_iter)
            if lone:
                return x, f, step, why
            end = why > 0
            for o, v in zip(out, (x[end], f[end], step, why[end])):
                o[at[end]] = v
            if end.all():
                return out
            at, x, f, merit, lm, why, *aux = (a[~end] for a in (at, x, f, merit, lm, why, *aux))
            ended, kinds = False, (lm.any(), lm.all())
        jac = jacobian(*aux)
        try:  # one stacked call for each kind of step
            if kinds[0] and not kinds[1]:
                s = np.empty_like(x)
                s[lm], s[~lm] = _lm_step(jac[lm], f[lm], n), _pinned_step(jac[~lm], f[~lm], keep)
            else:
                s = _lm_step(jac, f, n) if kinds[1] else _pinned_step(jac, f, keep)
        except NoConvergence:  # a singular system ends its own row only
            s, why, ended = np.zeros_like(x), np.array(why), True
            for i in np.ndindex(lm.shape):
                try:
                    s[i] = _lm_step(jac[i], f[i], n) if lm[i] else _pinned_step(jac[i], f[i], keep)
                except NoConvergence:
                    why[i] = 3
        trial = x + s
        ft, *trial_aux, clear = residual(trial)
        mt = _merit(ft)
        ok = clear & (mt < merit)
        if not every(ok):  # back off the rows that refuse their full step
            new, k = [trial, ft, np.asarray(mt), *trial_aux], len(_ALPHA) * ~ok
            pend, cap = ~ok & (why == 0), max(1, 4096 // m**2)  # a singular row stays put
            xp, sp, mp = x[pend, None], s[pend, None], np.asarray(merit)[pend, None]
            for lo, hi in ((lo, min(lo + cap, b)) for a, b in ((1, 5), (5, 30))
                           for lo in range(a, b, cap)):
                if not some(pend):
                    break
                trials = xp + _ALPHA[lo:hi] * sp
                ft, *trial_aux, clear = residual(trials)
                mt = _merit(ft)
                ok = clear & (mt < mp)
                hit = ok.any(axis=-1)
                if lone and hit[0]:  # a lone row takes views of its accepted trial
                    k, pend = lo + ok.argmax(), False
                    new = [t[0, k - lo] for t in (trials, ft, mt, *trial_aux)]
                elif hit.any():  # the first accepted k of each row that has one
                    j, took = ok.argmax(axis=-1)[hit], np.zeros_like(pend)
                    took[pend] = hit
                    k[took] = lo + j
                    for a, t in zip(new, (trials, ft, mt, *trial_aux)):
                        a[took] = t[hit, j]
                    pend, xp, sp, mp = pend & ~took, xp[~hit], sp[~hit], mp[~hit]
            if some(pend):  # rows that accept no trial keep their point
                for a, old in zip(new, (x, f, merit, *aux)):
                    a[pend] = old[pend]
            trial, ft, mt, *trial_aux = new
            if some(pend | (k >= _LM_SWITCH_K)):  # switch to LM steps, or stall on them
                switch = ~lm & (k >= _LM_SWITCH_K)
                why, lm = np.maximum(why, 4 * (pend & ~switch)), lm | switch
                ended, kinds = ended or some(why), (some(lm), every(lm))
        x, f, merit, aux = trial, ft, mt, trial_aux


def _newton(residual, jacobian, x: np.ndarray, n: int, tol: float, max_iter: int,
            collided: Exception):
    """``_newton_stack`` from the one point x (m,): its (x, f, steps), or raises
    ``collided``, the caller's collision error for its geometry, if x collides,
    else NoConvergence with the reason."""
    x, f, steps, code = _newton_stack(residual, jacobian, x, n, tol, max_iter)
    if code != 1:
        raise collided if code == 2 else NoConvergence(_FAILS[code - 3].format(max_iter))
    return x, f, steps


def newton_refine(theta0) -> CriticalPoint:
    """Damped Newton refinement of theta0 to a critical point.

    Runs ``_newton``, the one-row entry of ``_newton_stack``, on grad V, the
    Hessian its Jacobian.  The step solves the Newton system with theta_1
    held, which removes the rotation direction; the line search on
    ||grad V||^2 halves it up to 29 times.  From the first
    step accepted only at alpha <= 2**-5, or not at all, ``_lm_step`` takes
    over.  Convergence means ||grad V||_inf < min(1e-9, max(1e-12, eps N^3 / 4))
    within 200 steps, eps the machine epsilon: 1e-12 up to N = 26, and about
    six times the roundoff floor of ||grad V||_inf above.
    Raises ValueError on malformed angles, AngularCollision if two start
    angles collide, and NoConvergence at the iteration cap, when the line
    search stalls or when the Newton system is singular.
    """
    th0 = _angles(theta0)
    return CriticalPoint(_newton(_gradients, _hess, th0, th0.size, _newton_tol(th0.size),
                                 _NEWTON_MAX_ITER, AngularCollision(_COLLIDED))[0])


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

    Draws ``n_starts`` wedge samples with the given seed, each stack's just
    before its solve, and solves them in order as ``newton_refine`` does (its
    tolerance follows from n), ``_stack_rows(n)`` starts per ``_newton_stack``
    call; each start ends bit for bit as its solve alone.  In start order, a
    converged start within symmetry distance 1e-6 of a known family joins it;
    only the first of each family is built into a ``CriticalPoint``.  Returns
    the catalog sorted by potential value; ``newton_steps`` in its metadata
    sums the steps of the converged starts.  Deterministic for a fixed seed.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("multistart search needs an integer n >= 2")
    rng = np.random.default_rng(seed)
    points: list[CriticalPoint] = []
    failures = {"no_convergence": 0, "collision": 0}
    steps, rows = 0, _stack_rows(n)
    for lo in range(0, int(n_starts), rows):
        block = np.array([sample_wedge(n, rng) for _ in range(min(rows, int(n_starts) - lo))])
        block = block[0] if rows == 1 else block  # a lone row is cheaper
        thetas, _, ks, codes = _newton_stack(_gradients, _hess, block, n, _newton_tol(n),
                                             _NEWTON_MAX_ITER)
        thetas, ks, codes = thetas.reshape(-1, n), np.atleast_1d(ks), np.atleast_1d(codes)
        failures["collision"] += int(np.sum(codes == 2))
        failures["no_convergence"] += int(np.sum(codes > 2))
        steps += int(ks[codes == 1].sum())
        for th in thetas[codes == 1]:
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
