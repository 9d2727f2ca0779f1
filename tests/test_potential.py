"""Limit potential, gradient, Hessian: exact fixtures, finite-difference
oracles, symmetry invariances, and classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexeq import (
    AngularCollision,
    CriticalPointClass,
    InvalidN,
    NotCritical,
    classify,
    gradient,
    hessian,
    ngon,
    potential,
)
from vortexeq.potential import _gradients, _hess

SQRT2 = np.sqrt(2.0)


def fd_gradient(theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        out[j] = (potential(theta + e) - potential(theta - e)) / (2 * h)
    return out


def fd_hessian(theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        out[:, j] = (gradient(theta + e) - gradient(theta - e)) / (2 * h)
    return out


def random_corpus(rng, sizes=range(2, 11), per_size=5, min_gap=0.3):
    for n in sizes:
        for _ in range(per_size):
            gaps = min_gap + rng.random(n)
            theta = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
            theta *= 2 * np.pi / (theta[-1] + gaps[-1])
            yield theta


def test_potential_collinear_pair_value():
    assert potential([0.0, np.pi]) == pytest.approx(1.0 - np.log(2.0), abs=1e-14)


def test_potential_equilateral_pair_value():
    # at separation pi/3 the log term vanishes (2 - 2cos = 1)
    assert potential([0.0, np.pi / 3]) == pytest.approx(-0.5, abs=1e-14)


def test_potential_rotation_invariance():
    rng = np.random.default_rng(0)
    for theta in random_corpus(rng, per_size=2):
        shifted = theta + 1.2345
        assert potential(shifted) == pytest.approx(potential(theta), rel=1e-13)


def test_potential_permutation_invariance():
    rng = np.random.default_rng(1)
    for theta in random_corpus(rng, per_size=2):
        perm = rng.permutation(theta.size)
        assert potential(theta[perm]) == pytest.approx(potential(theta), rel=1e-13)


def test_gradient_right_angle_pair():
    g = gradient([0.0, np.pi / 2])
    np.testing.assert_allclose(g, [-0.5, 0.5], atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for theta in random_corpus(rng):
        g = gradient(theta)
        ref = fd_gradient(theta)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(g - ref).max() / scale < 1e-6


def test_gradient_sums_to_zero():
    rng = np.random.default_rng(3)
    for theta in random_corpus(rng, per_size=2):
        assert abs(gradient(theta).sum()) < 1e-12


def test_gradient_vanishes_at_exact_critical_points():
    for theta in (
        [0.0, np.pi],
        [0.0, np.pi / 3],
        [0.0, np.pi / 4, np.pi / 2],
        [0.0, 3 * np.pi / 4, 5 * np.pi / 4],
        ngon(7),
    ):
        assert np.abs(gradient(theta)).max() < 1e-13


def test_hessian_exact_equilateral_pair():
    h = hessian([0.0, np.pi / 3])
    np.testing.assert_allclose(h, [[1.5, -1.5], [-1.5, 1.5]], atol=1e-12)
    eig = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(eig, [0.0, 3.0], atol=1e-12)


def test_hessian_exact_collinear_pair():
    h = hessian([0.0, np.pi])
    np.testing.assert_allclose(h, [[-0.75, 0.75], [0.75, -0.75]], atol=1e-12)


def test_hessian_quarter_arc_spectrum():
    # hand values: eigenvalues {0, 2 + sqrt(2), 3 + 3 sqrt(2)}
    h = hessian([0.0, np.pi / 4, np.pi / 2])
    eig = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(eig, [0.0, 2 + SQRT2, 3 + 3 * SQRT2], atol=1e-12)


def test_hessian_symmetric_with_zero_row_sums():
    rng = np.random.default_rng(4)
    for theta in random_corpus(rng, per_size=2):
        h = hessian(theta)
        assert np.abs(h - h.T).max() < 1e-13
        assert np.abs(h.sum(axis=1)).max() < 1e-12
        ones = np.ones(theta.size)
        assert np.abs(h @ ones).max() < 1e-12


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for theta in random_corpus(rng):
        h = hessian(theta)
        ref = fd_hessian(theta)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(h - ref).max() / scale < 1e-5


def test_classify_minimum():
    cls, report = classify([0.0, np.pi / 3])
    assert cls is CriticalPointClass.LOCAL_MIN
    assert report.zero_count == 1


def test_classify_maximum_collinear():
    cls, report = classify([0.0, np.pi])
    assert cls is CriticalPointClass.LOCAL_MAX
    np.testing.assert_allclose(
        np.sort(report.eigenvalues.real), [-1.5, 0.0], atol=1e-12
    )


def test_classify_saddle():
    cls, report = classify([0.0, 2 * np.pi / 3, np.pi, 4 * np.pi / 3])
    assert cls is CriticalPointClass.SADDLE
    np.testing.assert_allclose(
        np.sort(report.eigenvalues.real), [-1.5, 0.0, 1.0, 4.0], atol=1e-10
    )


def test_classify_rejects_noncritical():
    with pytest.raises(NotCritical):
        classify([0.0, np.pi / 2])


def test_ngon_exact_critical_point():
    for n in range(2, 30):
        theta = ngon(n)
        assert theta.size == n
        assert np.abs(gradient(theta)).max() < 1e-12


def test_ngon_invalid():
    with pytest.raises(InvalidN):
        ngon(1)
    with pytest.raises(InvalidN):
        ngon(0)


def test_collision_guard():
    with pytest.raises(AngularCollision):
        potential([0.0, 1e-9])
    with pytest.raises(AngularCollision):
        gradient([0.0, 2 * np.pi - 1e-9])
    with pytest.raises(AngularCollision):
        hessian([0.0, 1.0, 1.0])


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        potential([0.0])
    with pytest.raises(ValueError):
        potential([[0.0, 1.0]])
    with pytest.raises(ValueError):
        potential([0.0, np.nan])


def fd5(func, theta, h):
    """Five-point central differences of func along each angle (columns)."""
    cols = []
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        cols.append(
            (8 * (func(theta + e) - func(theta - e))
             - (func(theta + 2 * e) - func(theta - 2 * e))) / (12 * h)
        )
    return np.array(cols).T


@st.composite
def near_pair_angles(draw, log10_sep):
    """Well-separated angles, rotated, plus one more angle ``sep`` away from
    one of them (possibly across the 2*pi seam)."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = next(random_corpus(rng, sizes=[n], per_size=1))
    theta = theta + draw(st.floats(0.0, 2 * np.pi))
    k = draw(st.integers(0, n - 1))
    sep = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(log10_sep)
    wrap = 2 * np.pi * draw(st.integers(-1, 1))
    return np.append(theta, theta[k] + sep + wrap), abs(sep)


@settings(max_examples=40, deadline=None, database=None)
@given(near_pair_angles(st.floats(-4.0, -1.0)))
def test_derivatives_near_collision_match_finite_differences(case):
    theta, sep = case
    h = 1e-2 * sep
    ref = fd5(lambda t: np.array([potential(t)]), theta, h)[0]
    assert np.abs(gradient(theta) - ref).max() < 1e-5 * np.abs(ref).max()
    ref = fd5(gradient, theta, h)
    assert np.abs(hessian(theta) - ref).max() < 1e-5 * np.abs(ref).max()


@settings(max_examples=40, deadline=None, database=None)
@given(near_pair_angles(st.floats(-12.0, np.log10(1.4e-5))))
def test_collision_guard_below_threshold(case):
    # 1 - cos(1.4e-5) < 1e-10, the default guard
    theta, _ = case
    for func in (potential, gradient, hessian, classify):
        with pytest.raises(AngularCollision):
            func(theta)


@st.composite
def angle_stacks(draw):
    """A (k, N) stack of angle rows, N = 2..12 and k = 1..29, some of them
    with a pair within the collision guard (coincident or closer)."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 29))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(-10.0, 10.0, (k, n))
    for row in rng.choice(k, draw(st.integers(0, k)), replace=False):
        i, j = rng.choice(n, 2, replace=False)
        theta[row, j] = theta[row, i] + 2 * np.pi * rng.integers(-1, 2) + rng.choice(
            [0.0, 1e-300, 1e-9, -1e-6]
        )
    return theta


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None, database=None)
@given(angle_stacks())
def test_stacked_gradient_rows_match_gradient(theta):
    # the Newton step reads each accepted row's Hessian from the c and om of
    # the stack, so both must match the one-row public functions bit for bit
    g, c, om, clear = _gradients(theta)
    assert g.shape == theta.shape and clear.shape == theta.shape[:1]
    for row, g_row, c_row, om_row, clear_row in zip(theta, g, c, om, clear):
        if clear_row:
            assert gradient(row).tobytes() == g_row.tobytes()
            assert hessian(row).tobytes() == _hess(c_row, om_row).tobytes()
        else:
            with pytest.raises(AngularCollision):
                gradient(row)
            assert np.all(np.isfinite(g_row))


def reference_potential_hessian(row):
    """V and its Hessian from the plain formulas: one cos matrix, the
    Hessian's diagonal filled by ``np.fill_diagonal`` after the off-diagonal
    row sums, and V summed over the upper triangle."""
    c = np.cos(row[:, None] - row[None, :])
    om = 1.0 - c
    np.fill_diagonal(om, 1.0)
    h = -c - 1.0 / (2.0 * om)
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, -h.sum(axis=1))
    cu = c[np.triu_indices(row.size, 1)]
    return float(-np.sum(cu + 0.5 * np.log(2.0 - 2.0 * cu))), h


@settings(max_examples=80, deadline=None, database=None)
@given(angle_stacks())
def test_potential_and_hessian_match_reference_formulas_bitwise(theta):
    for row, clear in zip(theta, _gradients(theta)[-1]):
        if clear:
            v, h = reference_potential_hessian(row)
            assert np.float64(potential(row)).tobytes() == np.float64(v).tobytes()
            assert hessian(row).tobytes() == h.tobytes()
