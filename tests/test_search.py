"""Canonical forms, symmetry quotient, Newton refinement, multistart search."""

import dataclasses
import importlib
import sys

import numpy as np
import pytest

from vortexeq import (
    AngularCollision,
    CriticalPoint,
    CriticalPointClass,
    InvalidN,
    NoConvergence,
    NotCritical,
    canonicalize,
    continue_equilibrium,
    gradient,
    hessian,
    multistart_search,
    newton_refine,
    ngon,
    sample_wedge,
    symmetry_distance,
)
from vortexeq import continuation, search
from vortexeq.potential import _GRAD_TOL


def sequential_newton(residual, jacobian, x, n, tol, max_iter, collided):
    """Reference for ``search._newton``: the same damped Newton solve with the
    line search run one trial point at a time, alpha = 1, 1/2, ..., 2**-29,
    the Jacobian fed the by-products of the accepted point's residual, and the
    same switch from ``search._pinned_step``, without equation 0 and with
    x[-n] held, to ``search._lm_step`` after a step accepted at k >= 5 or not
    at all.  Returns (x, f, steps)."""
    f, *aux, clear = residual(x)
    if not clear:
        raise collided
    keep, lm = np.arange(x.size) != x.size - n, False
    for steps in range(max_iter):
        if float(np.abs(f).max()) < tol:
            return x, f, steps
        jac = jacobian(*aux)
        s = search._lm_step(jac, f, n) if lm else search._pinned_step(jac, f, keep)
        f0 = float(f @ f)
        alpha = 1.0
        for k in range(30):
            trial = x + alpha * s
            ft, *trial_aux, clear = residual(trial)
            if clear and float(ft @ ft) < f0:
                x, f, aux = trial, ft, trial_aux
                break
            alpha *= 0.5
        else:
            k = 30
        if k >= 5 and not lm:
            lm = True
        elif k == 30:
            raise NoConvergence("line search stalled before reaching tolerance")
    if float(np.abs(f).max()) < tol:
        return x, f, max_iter
    raise NoConvergence(f"no convergence within {max_iter} iterations")


def sequential_stack(newton, residual, jacobian, x, n, tol, max_iter):
    """Reference for ``search._newton_stack``: ``newton`` on each row of the
    stack (or on x alone), in order, returning the stack's (x, f, steps,
    code), code 1 for a converged row, 2 for a colliding start and 3..5 for
    the NoConvergence messages in ``search._FAILS``."""
    collided = AngularCollision("collided")
    messages = [m.format(max_iter) for m in search._FAILS]
    out = []
    for row in np.atleast_2d(x):
        try:
            out.append((*newton(residual, jacobian, row, n, tol, max_iter, collided), 1))
        except AngularCollision as exc:
            assert exc is collided
            out.append((row, row, 0, 2))
        except NoConvergence as exc:
            out.append((row, row, 0, 3 + messages.index(str(exc))))
    columns = tuple(np.array(column) for column in zip(*out))
    return columns if x.ndim > 1 else tuple(column[0] for column in columns)


def pinv_step(h, g):
    """Reference for ``search._pinned_step``: the Newton step restricted to the
    complement of the rotation direction, through the pseudo-inverse of the
    Hessian with near-zero modes dropped."""
    ev, q = np.linalg.eigh(h)
    cut = 1e-10 * max(1.0, float(np.abs(ev).max()))
    inv = np.where(np.abs(ev) > cut, 1.0 / np.where(ev == 0.0, 1.0, ev), 0.0)
    return -q @ (inv * (q.T @ g))


def stacked_pinv_step(h, g, keep):
    """``pinv_step`` on one row, or on each row of a stack; ``keep`` is unused."""
    if g.ndim == 1:
        return pinv_step(h, g)
    return np.array([pinv_step(hr, gr) for hr, gr in zip(h, g)])


def lex_less(a, b):
    """Reference order for ``search._canonical``: a before b at the first
    entry where they differ by more than ``_LEX_FUZZ``."""
    for x, y in zip(a, b):
        if abs(x - y) > search._LEX_FUZZ:
            return x < y
    return False


def lex_scan_canonicalize(theta):
    """Reference for ``canonicalize``: the orbit rows scanned one at a time in
    orbit order, a row replacing the best so far only when ``lex_less``."""
    gaps = search._cyclic_gaps(theta)
    best = gaps
    for cand in search._symmetry_orbit(gaps):
        if lex_less(cand, best):
            best = cand
    out = np.zeros(gaps.size)
    out[1:] = np.cumsum(best[:-1])
    return out


@pytest.fixture
def sequential(monkeypatch):
    """Run ``fn`` with the reference line search in place of the library's,
    a census solving its starts one at a time; check that it ran, and keep
    the count of its solves in ``run.solves``."""

    def run(fn, *args):
        solves = []

        def counted(*a):
            solves.append(a)
            return sequential_newton(*a)

        with monkeypatch.context() as m:
            for module in (search, continuation):
                m.setattr(module, "_newton", counted)
            m.setattr(search, "_newton_stack", lambda *a: sequential_stack(counted, *a))
            result = fn(*args)
        assert solves, "the sequential reference never ran"
        run.solves = len(solves)
        return result

    return run


def test_canonicalize_starts_at_zero_ascending():
    theta = canonicalize([2.0, 0.3, 4.3])
    assert theta[0] == 0.0
    assert np.all(np.diff(theta) > 0)
    assert np.all(theta < 2 * np.pi)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = np.sort(rng.random(5)) * 2 * np.pi
        raw += np.arange(5) * 1e-3  # keep gaps nonzero
        once = canonicalize(raw)
        twice = canonicalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)


def test_canonicalize_rotation_invariant():
    theta = np.array([0.0, 0.9, 2.2, 4.0])
    for shift in (0.5, 1.7, -2.4):
        np.testing.assert_allclose(
            canonicalize(theta + shift), canonicalize(theta), atol=1e-12
        )


def test_canonicalize_reflection_pair():
    a = canonicalize([0.0, np.pi / 3])
    b = canonicalize([0.0, 2 * np.pi - np.pi / 3])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_canonicalize_permutation_invariant():
    rng = np.random.default_rng(1)
    theta = np.array([0.1, 1.0, 2.5, 3.9, 5.5])
    for _ in range(5):
        perm = rng.permutation(5)
        np.testing.assert_allclose(
            canonicalize(theta[perm]), canonicalize(theta), atol=1e-12
        )


def test_canonicalize_picks_the_lex_scan_row_on_every_orbit_image(census_catalogs):
    # each family relabelled or reflected (one image per orbit row of its
    # gaps), rotated and listed in a shuffled order comes back to the stored
    # angles, as the one-row-at-a-time scan picks them, with its reflection flag
    rng = np.random.default_rng(5)
    for n, catalog in census_catalogs.items():
        for p in catalog.points:
            for k, row in enumerate(search._symmetry_orbit(search._cyclic_gaps(p.config))):
                image = np.concatenate(([0.0], np.cumsum(row[:-1]))) + 0.37 * k - 1.1
                image = image[rng.permutation(n)]
                got = canonicalize(image)
                np.testing.assert_allclose(got, lex_scan_canonicalize(image), atol=1e-12)
                np.testing.assert_allclose(got, p.config, atol=1e-12)
                assert CriticalPoint(image).reflection_symmetric == p.reflection_symmetric


def test_canonicalize_breaks_near_ties_at_a_later_entry():
    # the gaps a = 1 + 5e-10 and b = 1 tie within _LEX_FUZZ, and so do the
    # rows (a, 1.2, b, 1.3, ...) and (b, 1.2, a, ...); the fourth entry puts
    # the row from a first, where an exact lexicographic order starts from b
    a, b = 1.0 + 5e-10, 1.0
    gaps = np.array([a, 1.2, b, 1.3, 2 * np.pi - a - b - 2.5])
    theta = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    orbit = search._symmetry_orbit(search._cyclic_gaps(theta))
    exact = orbit[np.lexsort(orbit.T[::-1])[0]]
    assert exact[0] == pytest.approx(b, abs=1e-12)
    for image in (theta, -theta + 2.0):
        got = canonicalize(image)
        np.testing.assert_array_equal(got, lex_scan_canonicalize(image))
        np.testing.assert_allclose(np.diff(got), gaps[:-1], atol=1e-12)
        assert np.abs(np.diff(got) - exact[:-1]).max() > 0.4


def test_critical_point_builds_one_geometry_and_one_orbit(monkeypatch, min3_point):
    calls = {"_geometry": 0, "_symmetry_orbit": 0}

    def counting(name):
        kernel = getattr(search, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(search, name, counting(name))
    point = CriticalPoint(-min3_point.config + 0.5)
    np.testing.assert_allclose(point.config, min3_point.config, atol=1e-12)
    assert calls == {"_geometry": 1, "_symmetry_orbit": 1}


def test_symmetry_distance_zero_on_orbit():
    theta = np.array([0.0, 0.8, 2.0, 3.5])
    assert symmetry_distance(theta, theta + 1.234) < 1e-12
    assert symmetry_distance(theta, -theta) < 1e-12
    assert symmetry_distance(theta, np.roll(theta, 2)) < 1e-12


def test_symmetry_distance_separates_families():
    d = symmetry_distance([0.0, np.pi / 3], [0.0, np.pi])
    assert d > 0.5


def test_newton_refine_from_perturbed_ring():
    rng = np.random.default_rng(2)
    start = ngon(5) + 1e-3 * rng.standard_normal(5)
    point = newton_refine(start)
    assert symmetry_distance(point.config, ngon(5)) < 1e-9
    assert point.residual < 1e-12


def test_newton_refine_classifies():
    point = newton_refine(np.array([0.0, np.pi / 3]))
    assert point.cls is CriticalPointClass.LOCAL_MIN
    assert point.morse_index == (0, 1, 1)
    assert point.reflection_symmetric


def test_newton_refine_kernel_rows_and_calls(monkeypatch):
    # the start and the full step of each of six Newton steps go unstacked,
    # one row's stack of four trials settles the one backtrack, and one last
    # call gives the converged point's residual and NotCritical check; the
    # modules are looked up by name because ``vortexeq.potential`` is the function
    modules = [importlib.import_module(f"vortexeq.{m}") for m in ("potential", "search")]
    inner = modules[0]._gradients
    shapes = []

    def counted(theta):
        shapes.append(theta.shape)
        return inner(theta)

    for module in modules:
        monkeypatch.setattr(module, "_gradients", counted)
    newton_refine(np.array([0.0, 1.0, 2.5, 4.0]))
    assert shapes == [(4,)] * 3 + [(1, 4, 4)] + [(4,)] * 5


def test_newton_refine_quarter_arc_values():
    point = newton_refine(np.array([0.1, np.pi / 4 + 0.05, np.pi / 2 - 0.02]))
    ev = np.sort(point.spectrum.eigenvalues.real)
    np.testing.assert_allclose(
        ev, [0.0, 2 + np.sqrt(2), 3 + 3 * np.sqrt(2)], atol=1e-9
    )


def test_newton_refine_reports_no_convergence(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(search, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="^no convergence within 1 iterations$"):
            newton_refine(np.array([0.0, 1.0, 2.0, 4.0]))
    # a local minimum of ||grad V||^2 that is not critical: the Newton step
    # and then the Levenberg-Marquardt step find no trial that lowers it
    stall = "^line search stalled before reaching tolerance$"
    with pytest.raises(NoConvergence, match=stall):
        newton_refine(np.array([0.0, 0.970764, 1.027183, 2.288592, 2.507473, 2.537743, 2.575321]))


def test_newton_refine_rescues_a_stalled_newton_start(monkeypatch):
    # pinned Newton steps alone stall from here; the Levenberg-Marquardt
    # steps that take over reach the regular pentagon
    start = np.array([0.0, 2.721061, 3.151143, 4.889553, 5.970518])
    with monkeypatch.context() as mp:
        mp.setattr(search, "_LM_SWITCH_K", 31)  # never switch
        with pytest.raises(NoConvergence, match="^line search stalled"):
            newton_refine(start)
    point = newton_refine(start)
    assert symmetry_distance(point.config, ngon(5)) < 1e-9
    assert point.residual < 1e-12


def test_newton_refine_rejects_colliding_start():
    message = r"^two angles closer than the collision guard \(1-cos < 1e-10\)$"
    with pytest.raises(AngularCollision, match=message):
        newton_refine(np.array([0.0, 1e-9]))


def test_critical_point_is_built_from_its_angles_alone():
    assert [f.name for f in dataclasses.fields(CriticalPoint) if f.init] == ["config"]


# One fault each, as three angles, with the error and words it raises.
BAD_CRITICAL_POINTS = {
    "not_critical": ([0.0, 1.0, 2.5], NotCritical, "gradient sup-norm"),
    "collision": ([0.0, 1e-11, 2.0], AngularCollision, "collision guard"),
    "nan": ([0.0, np.nan, 2.0], ValueError, "angles must be finite"),
    "two_d": ([[0.0, 2.0, 4.0]], ValueError, "expected a 1-d array"),
}


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("case", BAD_CRITICAL_POINTS)
def test_critical_point_checks_itself(min3_point, case, build):
    angles, error, words = BAD_CRITICAL_POINTS[case]
    with pytest.raises(error, match=words):
        if build == "constructor":
            CriticalPoint(angles)
        else:
            dataclasses.replace(min3_point, config=angles)


def test_sample_wedge_respects_gap_floor():
    rng = np.random.default_rng(3)
    for n in (2, 4, 9):
        for _ in range(50):
            theta = sample_wedge(n, rng)
            assert theta.size == n
            assert theta[0] == 0.0
            gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * np.pi]]))
            assert gaps.min() >= 1e-2 - 1e-12
            assert gaps.sum() == pytest.approx(2 * np.pi, abs=1e-12)


def test_vortex_counts_out_of_range_raise_invalid_n():
    with pytest.raises(InvalidN, match="^multistart search needs an integer n >= 2$"):
        multistart_search(1, 10)
    # 629 gaps of 0.01 exceed 2 pi
    with pytest.raises(InvalidN, match="^n = 629 leaves no room for gaps of 0.01$"):
        sample_wedge(629, np.random.default_rng(0))


def test_multistart_finds_three_families_n3(catalog3):
    assert len(catalog3.points) == 3
    classes = [p.cls for p in catalog3.points]
    assert classes == [
        CriticalPointClass.LOCAL_MIN,
        CriticalPointClass.SADDLE,
        CriticalPointClass.LOCAL_MAX,
    ]
    values = [p.value for p in catalog3.points]
    assert values == sorted(values)


def test_multistart_two_families_n2(catalog2):
    assert len(catalog2.points) == 2
    assert catalog2.points[0].cls is CriticalPointClass.LOCAL_MIN
    assert catalog2.points[1].cls is CriticalPointClass.LOCAL_MAX
    assert catalog2.points[1].value == pytest.approx(1 - np.log(2), abs=1e-12)


@pytest.fixture(scope="module")
def catalog75():
    return multistart_search(75, 100, seed=0)


def test_multistart_finds_three_families_n75(catalog75):
    # with the Newton tolerance held at 1e-12, below the roundoff floor of
    # ||grad V||_inf at this N, only the ring was found
    assert {p.morse_index[0] for p in catalog75.points} >= {0, 1, 2}


def test_newton_tolerance_clears_the_roundoff_floor(catalog75):
    assert [search._newton_tol(n) for n in range(2, 28)] == [1e-12] * 25 + [
        np.finfo(float).eps * 27**3 / 4
    ]
    assert search._newton_tol(10**6) < _GRAD_TOL
    # full pinned Newton steps from each rotated family stall at a floor
    # that lies about 5x below the tolerance
    rng = np.random.default_rng(0)
    for p in catalog75.points:
        for _ in range(4):
            theta = p.config + rng.uniform(0.0, 2 * np.pi)
            floor = np.inf
            for _ in range(6):
                theta = theta + search._pinned_step(
                    hessian(theta), gradient(theta), slice(1, None)
                )
                floor = min(floor, float(np.abs(gradient(theta)).max()))
            assert 2 * floor < search._newton_tol(75)


def test_multistart_saddle_spectrum_n3(catalog3):
    ev = np.sort(catalog3.points[1].spectrum.eigenvalues.real)
    np.testing.assert_allclose(
        ev, [3 - 3 * np.sqrt(2), 0.0, 2 - np.sqrt(2)], atol=1e-9
    )


def test_multistart_deterministic_and_seed_stable():
    a = multistart_search(3, 80, seed=9)
    b = multistart_search(3, 80, seed=9)
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        np.testing.assert_array_equal(pa.config, pb.config)
    c = multistart_search(3, 120, seed=10)
    assert len(c.points) == len(a.points)
    for pa, pc in zip(a.points, c.points):
        assert symmetry_distance(pa.config, pc.config) < 1e-9


def test_multistart_metadata(catalog3):
    md = catalog3.metadata
    assert md["n_starts"] == 500
    assert md["seed"] == 1
    assert md["n_converged"] + sum(md["failures"].values()) == 500
    assert md["n_converged"] > 0
    assert md["euler_sum"] == 1


def test_census_stalls_are_rare():
    # pinned Newton alone stalled in 1,051 of these 8,800 starts; with the
    # Levenberg-Marquardt rescue at most 2 stall, and every census still
    # passes the Euler characteristic check
    stalls = 0
    for n in range(2, 13):
        for seed in range(4):
            catalog = multistart_search(n, 200, seed=seed)
            stalls += catalog.metadata["failures"]["no_convergence"]
            assert catalog.metadata["euler_sum"] == 1, (n, seed)
    assert stalls <= 2


def test_catalog_points_are_critical(catalog4):
    for p in catalog4.points:
        assert p.residual < 1e-12
        assert np.abs(gradient(p.config)).max() < 1e-10
        assert sum(p.morse_index) == 4


def test_census_euler_characteristic(census_catalogs):
    # The ordered cell theta_1 = 0 < theta_2 < ... < theta_N < 2 pi is an
    # open simplex and V -> +inf at its boundary, so its critical points
    # satisfy sum (-1)^index = chi = 1 (Milnor, Morse Theory, 1963).  A family
    # has 2N / |Stab| copies in the cell, Stab being the dihedral relabelings
    # and reflections that fix its gap sequence.  A missing pair of families
    # whose terms cancel goes unseen, so this is a necessary check only.
    for n, catalog in census_catalogs.items():
        total = 0
        for p in catalog.points:
            gaps = search._cyclic_gaps(p.config)
            stab = int((np.abs(gaps - search._symmetry_orbit(gaps)).max(axis=1) < 1e-8).sum())
            assert stab == p.symmetry_order, (n, p.config)
            assert (2 * n) % stab == 0, (n, p.config)
            total += (-1) ** p.morse_index[0] * (2 * n // stab)
        assert total == catalog.metadata["euler_sum"] == 1, n


def test_stabilizer_orders():
    # the ring is fixed by all N relabelings and N reflections, a generic
    # ordered configuration by the identity alone
    for n in (2, 5, 8):
        assert CriticalPoint(ngon(n)).symmetry_order == 2 * n
    flags = search._canonical([0.0, 0.3, 1.1, 2.9])[1]
    assert flags.tolist() == [True] + [False] * 7


def test_line_search_skips_collided_trials():
    # unknowns (u, theta), theta held, and residual f = (0, u), colliding on
    # [-0.5, 0.45]: the Jacobian entry 1/4 gives the step -3, so from u = 0.75
    # the trials are -2.25 (merit up), -0.75 (merit equal), then 0 and 0.375
    # (lower merit, collided), then 0.5625, the first to count
    def residual(x):
        u = x[..., 0]
        return np.stack((np.zeros_like(u), u), axis=-1), np.abs(u + 0.025) > 0.475

    def jacobian():
        return np.array([[0.0, 0.0], [0.25, 0.0]])

    for newton in (search._newton, sequential_newton):
        collided = AngularCollision("collided")
        x, f, steps = newton(residual, jacobian, np.array([0.75, 1.0]), 1, 0.6, 1, collided)
        assert x.tolist() == [0.5625, 1.0] and f.tolist() == [0.0, 0.5625] and steps == 1
        with pytest.raises(AngularCollision, match="^collided$") as raised:
            newton(residual, jacobian, np.array([0.0, 1.0]), 1, 0.6, 1, collided)
        assert raised.value is collided


def test_newton_hands_over_to_rescue_after_a_short_step(monkeypatch):
    # unknowns (u, theta), theta held, and residual f = (0, u), whose Jacobian
    # entry is c above u = 0.5 and 1 below.  From u = 0.75, c = 3/128 gives the
    # step -32, first accepted at alpha = 2**-5 (u = -0.25), so LM steps take
    # over and converge in three; c = 3/64 gives the step -16, accepted at
    # alpha = 2**-4 (u = -0.25), and a second pinned step lands on 0
    calls = []

    def spied(name):
        step = getattr(search, name)
        return lambda *args: calls.append(name) or step(*args)

    for name in ("_pinned_step", "_lm_step"):
        monkeypatch.setattr(search, name, spied(name))

    def residual(x):
        u = x[..., 0]  # also the by-product the Jacobian reads
        return np.stack((np.zeros_like(u), u), axis=-1), u, np.isfinite(u)

    def jacobian(c):
        return lambda u: np.array([[0.0, 0.0], [c if u > 0.5 else 1.0, 0.0]])

    pinned, lm = "_pinned_step", "_lm_step"
    for newton in (search._newton, sequential_newton):
        for c, seen in ((3 / 128, [pinned, lm, lm, lm]), (3 / 64, [pinned, pinned])):
            calls.clear()
            x, _, steps = newton(residual, jacobian(c), np.array([0.75, 1.0]), 1, 1e-9, 5,
                                 AngularCollision("collided"))
            assert abs(x[0]) < 1e-9 and x[1] == 1.0 and calls == seen and steps == len(seen)
        assert x[0] == 0.0
        # the cap counts pinned and LM steps alike
        calls.clear()
        with pytest.raises(NoConvergence, match="^no convergence within 2 iterations$"):
            newton(residual, jacobian(3 / 128), np.array([0.75, 1.0]), 1, 1e-9, 2,
                   AngularCollision("collided"))
        assert calls == [pinned, lm]


def test_lm_step_is_the_damped_least_squares_step():
    # (H^2 + ||g||^2 I + 11^T / N) s = -H g, and as H 1 = 0 and sum(g) = 0
    # the step adds no common rotation
    rng = np.random.default_rng(5)
    for n in (2, 5, 12):
        theta = sample_wedge(n, rng)
        h, g = hessian(theta), gradient(theta)
        s = search._lm_step(h, g, n)
        a = h @ h + (g @ g) * np.eye(n) + np.ones((n, n)) / n
        np.testing.assert_allclose(a @ s, -h @ g, rtol=1e-10, atol=1e-12 * np.abs(h @ g).max())
        assert abs(s.sum()) <= 1e-12 * np.abs(s).max() * n
    # next to the N = 2 maximum ||g||^2 is below the roundoff of H^2, so without
    # the rank-one term the system is singular; with it the step lands on the gap pi
    theta = np.array([0.0, np.pi + 1e-9])
    s = search._lm_step(hessian(theta), gradient(theta), 2)
    assert abs(np.diff(theta + s)[0] - np.pi) < 1e-15
    # continuation's (r, theta): (J^T J + ||f||^2 I + w w^T) s = -J^T f, w the
    # unit common rotation of theta, and as J w = 0 the step has no component
    # along (0, 1, ..., 1)
    for n in (3, 6, 9):
        r, theta, eps = 1.0 + 0.02 * rng.standard_normal(n), sample_wedge(n, rng), -0.03
        f, *by_products, _ = continuation._field(np.concatenate((r, theta)), eps)
        jac = continuation._reduced_jacobian(*by_products, eps)
        s = search._lm_step(jac, f, n)
        w = np.concatenate((np.zeros(n), np.ones(n)))
        a = jac.T @ jac + (f @ f) * np.eye(2 * n) + np.outer(w, w) / n
        rhs = jac.T @ f
        np.testing.assert_allclose(a @ s, -rhs, rtol=1e-10, atol=1e-12 * np.abs(rhs).max())
        assert abs(s @ w) <= 1e-12 * np.abs(s).max() * n


def test_stacked_forms_are_bitwise_those_of_each_row():
    # the stacked solve rests on these: each row of the stacked merit, J^T J,
    # J^T f and solve, and of both steps, has the bits of its own 2-D call
    rng = np.random.default_rng(11)
    for m in (2, 3, 5, 8, 12, 25, 50, 100):
        f = rng.standard_normal((9, m)) * 10.0 ** rng.integers(-9, 3, (9, 1))
        jac = rng.standard_normal((9, m, m))
        jt = np.ascontiguousarray(np.swapaxes(jac, -1, -2))
        keep = np.arange(m) != m // 2
        stacked = (search._merit(f), jt @ jac, (jt @ f[..., None])[..., 0],
                   np.linalg.solve(jac, f[..., None])[..., 0],
                   search._pinned_step(jac, f, keep), search._lm_step(jac, f, 1))
        for i in range(9):
            alone = (np.float64(float(f[i] @ f[i])), jt[i] @ jac[i], jt[i] @ f[i],
                     np.linalg.solve(jac[i], f[i]), search._pinned_step(jac[i], f[i], keep),
                     search._lm_step(jac[i], f[i], 1))
            for a, b in zip(stacked, alone):
                assert a[i].tobytes() == b.tobytes(), m


def test_a_singular_row_ends_alone(monkeypatch):
    # one start of a stack gets a zero Hessian at its first step: its pinned
    # system is singular and it ends with code 3, and each other row ends as
    # its solve alone does, bit for bit
    rng = np.random.default_rng(4)
    starts = np.array([sample_wedge(6, rng) for _ in range(5)])
    tol, cap = search._newton_tol(6), search._NEWTON_MAX_ITER
    alone = [search._newton(search._gradients, search._hess, row, 6, tol, cap, None)
             for row in starts]
    marker, hess = np.cos(starts[2, 0] - starts[2, 1]), search._hess

    def singular_at_start_2(c, om):
        h = hess(c, om)
        h[c[..., 0, 1] == marker] = 0.0
        return h

    x, f, steps, codes = search._newton_stack(search._gradients, singular_at_start_2, starts,
                                              6, tol, cap)
    assert codes.tolist() == [1, 1, 3, 1, 1]
    for i in (0, 1, 3, 4):
        assert x[i].tobytes() == alone[i][0].tobytes() and f[i].tobytes() == alone[i][1].tobytes()
        assert steps[i] == alone[i][2]


# N = 15, 20 and 30 split the trials k = 5..29: at most 4096 // N^2 per call.
# N = 12 with 60 starts and N = 7 with 200 split the census into several
# stacks, and the N = 7 one holds a start that stalls after the switch.
LADDER_CASES = [(n, seed, 40) for n in range(2, 13) for seed in range(6)] + [
    (n, seed, 15) for n in (15, 20, 30) for seed in range(2)
] + [(12, 0, 60), (7, 3, 200)]


@pytest.mark.parametrize("n, seed, starts", LADDER_CASES)
def test_multistart_matches_sequential_line_search(monkeypatch, sequential, n, seed, starts):
    stacks = []
    stack = search._newton_stack
    monkeypatch.setattr(search, "_newton_stack", lambda *a: stacks.append(a[2].size // n) or stack(*a))
    got = multistart_search(n, starts, seed=seed)
    # the starts go in order, in stacks of _stack_rows(n) rows (a lone row for 1)
    rows = search._stack_rows(n)
    assert stacks == [min(rows, starts - lo) for lo in range(0, starts, rows)]
    ref = sequential(multistart_search, n, starts, seed)
    assert sequential.solves == starts
    assert got.metadata == ref.metadata
    assert len(got.points) == len(ref.points)
    for p, q in zip(got.points, ref.points):
        np.testing.assert_array_equal(p.config, q.config)
        assert (p.value, p.morse_index, p.residual) == (q.value, q.morse_index, q.residual)


@pytest.mark.parametrize("n, starts", [(4, 70), (12, 50), (40, 3)])
def test_multistart_draws_each_stack_just_before_its_solve(monkeypatch, n, starts):
    # drawing every start before the first solve held about 350 B a start
    events = []
    draw, stack = search.sample_wedge, search._newton_stack
    monkeypatch.setattr(search, "sample_wedge", lambda *a: events.append("draw") or draw(*a))
    monkeypatch.setattr(search, "_newton_stack", lambda *a: events.append("solve") or stack(*a))
    multistart_search(n, starts, seed=0)
    rows = search._stack_rows(n)
    assert events.index("solve") <= rows
    assert events == [e for lo in range(0, starts, rows)
                      for e in ["draw"] * min(rows, starts - lo) + ["solve"]]


@pytest.mark.parametrize("n, seed", [(3, 0), (6, 1), (9, 2), (12, 3)])
def test_newton_steps_match_sequential_line_search(sequential, n, seed):
    got = multistart_search(n, 30, seed=seed).metadata
    ref = sequential(multistart_search, n, 30, seed).metadata
    assert sequential.solves == 30
    # every wedge start takes at least one step
    assert got["newton_steps"] == ref["newton_steps"] >= got["n_converged"] > 0


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_multistart_builds_a_point_only_for_a_new_family(monkeypatch, n, seed):
    built = []

    def counted(theta):
        built.append(theta)
        return CriticalPoint(theta)

    with monkeypatch.context() as m:
        m.setattr(search, "CriticalPoint", counted)
        catalog = multistart_search(n, 60, seed=seed)
    assert len(built) == len(catalog.points) > 0
    # each family keeps the point of the first start that converged into it
    rng = np.random.default_rng(seed)
    refined = []
    for _ in range(60):
        try:
            refined.append(newton_refine(sample_wedge(n, rng)).config)
        except (NoConvergence, AngularCollision):
            pass
    for p in catalog.points:
        first = next(c for c in refined if symmetry_distance(c, p.config) < search._DEDUP_TOL)
        np.testing.assert_array_equal(p.config, first)


def test_search_never_calls_the_validated_hessian(monkeypatch):
    # the rescue test's start, so both the pinned and the LM step run
    start = np.array([0.0, 2.721061, 3.151143, 4.889553, 5.970518])
    want_point, want = newton_refine(start), multistart_search(8, 60, seed=2)
    public = importlib.import_module("vortexeq.potential").hessian

    def refuse(theta):
        raise AssertionError("the validated hessian was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("vortexeq") and getattr(module, "hessian", None) is public:
            monkeypatch.setattr(module, "hessian", refuse)
    point, got = newton_refine(start), multistart_search(8, 60, seed=2)
    np.testing.assert_array_equal(point.config, want_point.config)
    assert (point.value, point.residual) == (want_point.value, want_point.residual)
    assert got.metadata == want.metadata
    assert [p.config.tolist() for p in got.points] == [p.config.tolist() for p in want.points]


def test_continuation_matches_sequential_line_search(
    sequential, triangle_point, collinear_point, catalog3, catalog4, ring_points, census_catalogs
):
    seeds = [triangle_point, collinear_point, *catalog3.points, *catalog4.points]
    seeds += ring_points.values()
    seeds = [cp for cp in seeds if cp.morse_index[1] == 1]
    assert len(seeds) >= 10
    # the last solve hands over to LM steps
    cases = [(cp, eps) for cp in seeds for eps in (1e-3, -1e-3)]
    for cp, eps in cases + [(census_catalogs[9].points[1], -0.05)]:
        got = continue_equilibrium(cp, eps)
        ref = sequential(continue_equilibrium, cp, eps)
        np.testing.assert_array_equal(got.r, ref.r)
        np.testing.assert_array_equal(got.theta, ref.theta)
        assert got.residual == ref.residual


def test_pinned_step_is_pinv_step_plus_a_rotation():
    # H 1 = 0 and sum(g) = 0, so holding theta_1 changes the Newton step
    # only by a common rotation; both steps carry a roundoff of about
    # kappa * eps, kappa the condition number of H off the rotation
    rng = np.random.default_rng(7)
    rows = [sample_wedge(n, rng) for n in range(2, 13) for _ in range(5)]
    rows.append(ngon(100) + 1e-3 * rng.standard_normal(100))
    for theta in rows:
        g, h = gradient(theta), hessian(theta)
        ev = np.sort(np.abs(np.linalg.eigvalsh(h)))[1:]
        ref = pinv_step(h, g)
        step = search._pinned_step(h, g, slice(1, None))
        assert step[0] == 0.0
        tol = 1e-10 + 100 * np.finfo(float).eps * ev[-1] / ev[0]
        assert np.ptp(step - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("n", range(3, 9))
def test_multistart_with_pinv_step_finds_same_families(monkeypatch, n):
    for seed in (0, 1):
        got = multistart_search(n, 60, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(search, "_pinned_step", stacked_pinv_step)
            ref = multistart_search(n, 60, seed=seed)
        assert len(got.points) == len(ref.points)
        for p, q in zip(got.points, ref.points):
            assert p.morse_index == q.morse_index
            assert symmetry_distance(p.config, q.config) < 1e-9


def test_singular_newton_system_is_no_convergence(monkeypatch):
    # the step builds its Hessian with search._hess from the residual's geometry
    monkeypatch.setattr(search, "_hess", lambda c, om: np.zeros_like(c))
    with pytest.raises(NoConvergence, match="^singular Newton system with theta_1 held$"):
        newton_refine(np.array([0.0, 1.0, 2.5, 4.0]))
    catalog = multistart_search(4, 5, seed=0)
    assert catalog.points == []
    assert catalog.metadata["failures"] == {"no_convergence": 5, "collision": 0}
