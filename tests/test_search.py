"""Canonical forms, symmetry quotient, Newton refinement, multistart search."""

import dataclasses
import importlib

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


def sequential_newton(residual, step, x, tol, max_iter, collided):
    """Reference for ``search._newton``: the same damped Newton solve with the
    line search run one trial point at a time, alpha = 1, 1/2, ..., 2**-29."""
    f, clear = residual(x)
    if not clear:
        raise collided
    for _ in range(max_iter):
        if float(np.abs(f).max()) < tol:
            return x, f
        s = step(x, f)
        f0 = float(f @ f)
        alpha = 1.0
        for _ in range(30):
            trial = x + alpha * s
            ft, clear = residual(trial)
            if clear and float(ft @ ft) < f0:
                x, f = trial, ft
                break
            alpha *= 0.5
        else:
            raise NoConvergence("line search stalled before reaching tolerance")
    if float(np.abs(f).max()) < tol:
        return x, f
    raise NoConvergence(f"no convergence within {max_iter} iterations")


def pinv_step(h, g):
    """Reference for ``search._pinned_step``: the Newton step restricted to the
    complement of the rotation direction, through the pseudo-inverse of the
    Hessian with near-zero modes dropped."""
    ev, q = np.linalg.eigh(h)
    cut = 1e-10 * max(1.0, float(np.abs(ev).max()))
    inv = np.where(np.abs(ev) > cut, 1.0 / np.where(ev == 0.0, 1.0, ev), 0.0)
    return -q @ (inv * (q.T @ g))


@pytest.fixture
def sequential(monkeypatch):
    """Run ``fn`` with the reference line search in place of the library's."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            for module in (search, continuation):
                m.setattr(module, "_newton", sequential_newton)
            return fn(*args)

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
    # a four-row stack settles the one backtrack, and one last call gives
    # the converged point's residual and NotCritical check; the modules are
    # looked up by name because ``vortexeq.potential`` is the function
    modules = [importlib.import_module(f"vortexeq.{m}") for m in ("potential", "search")]
    inner = modules[0]._gradients
    shapes = []

    def counted(theta):
        shapes.append(theta.shape)
        return inner(theta)

    for module in modules:
        monkeypatch.setattr(module, "_gradients", counted)
    newton_refine(np.array([0.0, 1.0, 2.5, 4.0]))
    assert shapes == [(4,)] * 3 + [(4, 4)] + [(4,)] * 5


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
    # a local minimum of ||grad V||^2: every trial of some step fails
    stall = "^line search stalled before reaching tolerance$"
    with pytest.raises(NoConvergence, match=stall):
        newton_refine(np.array([0.0, 2.721061, 3.151143, 4.889553, 5.970518]))


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


def test_catalog_points_are_critical(catalog4):
    for p in catalog4.points:
        assert p.residual < 1e-12
        assert np.abs(gradient(p.config)).max() < 1e-10
        assert sum(p.morse_index) == 4


def test_line_search_skips_collided_trials():
    # residual f = x, colliding on [-0.6, 0.3]: from x = 1 the step -3 gives
    # trials -2 (merit up), then -0.5 and 0.25 (lower merit, collided), then
    # 0.625, the first to count
    def residual(x):
        return x, np.abs(x[..., 0] + 0.15) > 0.45

    def step(x, f):
        return np.array([-3.0])

    for newton in (search._newton, sequential_newton):
        collided = AngularCollision("collided")
        x, f = newton(residual, step, np.array([1.0]), 0.7, 1, collided)
        assert x.tolist() == f.tolist() == [0.625]
        with pytest.raises(AngularCollision, match="^collided$") as raised:
            newton(residual, step, np.array([0.0]), 0.7, 1, collided)
        assert raised.value is collided


# N = 15, 20 and 30 split the 25-row stack: at most 4096 // N^2 rows per call.
LADDER_CASES = [(n, seed, 40) for n in range(2, 13) for seed in range(6)] + [
    (n, seed, 15) for n in (15, 20, 30) for seed in range(2)
]


@pytest.mark.parametrize("n, seed, starts", LADDER_CASES)
def test_multistart_matches_sequential_line_search(sequential, n, seed, starts):
    got = multistart_search(n, starts, seed=seed)
    ref = sequential(multistart_search, n, starts, seed)
    assert got.metadata == ref.metadata
    assert len(got.points) == len(ref.points)
    for p, q in zip(got.points, ref.points):
        np.testing.assert_array_equal(p.config, q.config)
        assert (p.value, p.morse_index, p.residual) == (q.value, q.morse_index, q.residual)


def test_continuation_matches_sequential_line_search(
    sequential, triangle_point, collinear_point, catalog3, catalog4, ring_points
):
    seeds = [triangle_point, collinear_point, *catalog3.points, *catalog4.points]
    seeds += ring_points.values()
    seeds = [cp for cp in seeds if cp.morse_index[1] == 1]
    assert len(seeds) >= 10
    for cp in seeds:
        for eps in (1e-3, -1e-3):
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
            m.setattr(search, "_pinned_step", lambda h, g, keep: pinv_step(h, g))
            ref = multistart_search(n, 60, seed=seed)
        assert len(got.points) == len(ref.points)
        for p, q in zip(got.points, ref.points):
            assert p.morse_index == q.morse_index
            assert symmetry_distance(p.config, q.config) < 1e-9


def test_singular_newton_system_is_no_convergence(monkeypatch):
    monkeypatch.setattr(search, "hessian", lambda t: np.zeros((t.size, t.size)))
    with pytest.raises(NoConvergence, match="^singular Newton system with theta_1 held$"):
        newton_refine(np.array([0.0, 1.0, 2.5, 4.0]))
    catalog = multistart_search(4, 5, seed=0)
    assert catalog.points == []
    assert catalog.metadata["failures"] == {"no_convergence": 5, "collision": 0}
