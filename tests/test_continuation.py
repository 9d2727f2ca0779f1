"""Newton continuation to nonzero epsilon, scaling law checks, error paths."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexeq import (
    Circulations,
    CollisionApproach,
    DegenerateSeed,
    InsufficientFamily,
    InvalidEpsilon,
    NoConvergence,
    PlanarConfiguration,
    VortexCollision,
    continue_equilibrium,
    epsilon_ceiling,
    gradient,
    linearize,
    newton_refine,
    ngon,
    reduced_field,
    rotating_frame_residual,
    sweep_epsilon,
    verify_lemma1_scaling,
)
from vortexeq import continuation
from vortexeq.continuation import _augmented_system, _mismatch, _mismatch_jacobian
from vortexeq.spectra import SpectrumReport
from vortexeq.search import CriticalPoint
from vortexeq.potential import CriticalPointClass
from tests.test_dynamics import pairwise_field


# Imaginary step of the complex-step oracle (Martins, Sturdza & Alonso, ACM
# TOMS 29 (2003) 245): the field uses only analytic operations, so
# Im f(x + i h e_k) / h is column k of the Jacobian to roundoff, with no
# subtractive cancellation.
CS_STEP = 1e-100

# (N, eps) cases for the closed-form Jacobian checks; both signs of eps and
# one eps near the continuation ceiling.
JACOBIAN_CASES = [(n, eps) for n in (2, 3, 7, 20) for eps in (1e-3, -1e-3, -0.04)]


def cs_jacobian(func, x):
    """Complex-step Jacobian of func at the real point x."""
    cols = []
    for k in range(x.size):
        xk = x.astype(complex)
        xk[k] += 1j * CS_STEP
        cols.append(np.imag(func(xk)) / CS_STEP)
    return np.column_stack(cols)


def real_form_mismatch(r, theta, epsilon, omega):
    """Radial and tangential mismatch (a, b) from the pairwise x/y sum.

    The library kernel takes positions as complex numbers, which leaves no
    room for a complex step; this real-form field keeps x and y apart and
    uses only analytic operations, so ``cs_jacobian`` can differentiate it.
    """
    ct, st = np.cos(theta), np.sin(theta)
    x, y = r * ct, r * st
    x = np.concatenate(([-epsilon * x.sum()], x))
    y = np.concatenate(([-epsilon * y.sum()], y))
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, 1.0)
    w = Circulations(epsilon).gammas(r.size)[None, :] / d2
    np.fill_diagonal(w, 0.0)
    u, v = -(dy * w).sum(axis=1)[1:], (dx * w).sum(axis=1)[1:]
    return ct * u + st * v, -st * u + ct * v - omega * r


def real_form_reduced(x, epsilon, omega):
    """Reduced field (a, b / r) at x = (r, theta), in real form."""
    n = x.size // 2
    a, b = real_form_mismatch(x[:n], x[n:], epsilon, omega)
    return np.concatenate((a, b / x[:n]))


# Largest relative disagreement allowed in the central-difference check of
# linearize.
FD_CHECK_TOL = 1e-5


def fd_disagreement(eq, fd_step=1e-7):
    """Relative disagreement of linearize(eq) with central differences.

    Differences at h = fd_step * max(1, |x|) and h/2 must agree with each
    other, and their Richardson extrapolation with the closed form.  Returns
    the larger of the two sup-norm gaps over max(1, |J_h|).
    """
    n = eq.n
    x0 = np.concatenate((eq.r, eq.theta))
    h = fd_step * max(1.0, float(np.abs(x0).max()))
    func = lambda z: reduced_field(z[:n], z[n:], eq.epsilon, eq.omega)

    def central(step):
        cols = []
        for k in range(2 * n):
            e = np.zeros(2 * n)
            e[k] = step
            cols.append((func(x0 + e) - func(x0 - e)) / (2.0 * step))
        return np.column_stack(cols)

    j1 = central(h)
    j2 = central(0.5 * h)
    richardson = (4.0 * j2 - j1) / 3.0
    gap = max(np.abs(j1 - j2).max(), np.abs(linearize(eq) - richardson).max())
    return gap / max(1.0, float(np.abs(j1).max()))


def off_equilibrium_state(n, seed):
    """Radii within 10% of 1 and angles within 30% of a gap of the n-gon."""
    rng = np.random.default_rng(seed)
    r = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, n)
    theta = ngon(n) + 0.3 * np.pi / n * rng.uniform(-1.0, 1.0, n)
    return r, theta


def make_degenerate_point():
    eig = np.array([0.0, 0.0, 1.0])
    spectrum = SpectrumReport(eig, zero_count=2, tol_used=1e-9)
    return CriticalPoint(
        config=np.array([0.0, 2.0, 4.0]),
        cls=CriticalPointClass.DEGENERATE,
        spectrum=spectrum,
        morse_index=(0, 2, 1),
        residual=0.0,
        value=0.0,
        reflection_symmetric=False,
    )


def test_circulations_layout():
    gam = Circulations(1e-3).gammas(4)
    np.testing.assert_allclose(gam, [1.0, 1e-3, 1e-3, 1e-3, 1e-3])


def test_residual_vanishes_at_zero_epsilon():
    theta = np.array([0.3, 1.1, 2.7])
    res = rotating_frame_residual(np.ones(3), theta, 0.0)
    assert np.abs(res).max() == 0.0


def test_radial_mismatch_tends_to_gradient():
    # on the unit circle the radial defect is eps * grad V + O(eps^2)
    theta = np.array([0.3, 1.1, 2.7])
    eps = 1e-8
    a, _ = _mismatch(np.ones(3), theta, eps, 1.0)[:2]
    assert np.abs(a / eps - gradient(theta)).max() < 1e-6


def test_cartesian_residual_norm_matches_polar():
    rng = np.random.default_rng(0)
    theta = np.sort(rng.random(4)) * 5.0
    r = 1.0 + 0.05 * rng.standard_normal(4)
    a, b = _mismatch(r, theta, 1e-2, 0.9)[:2]
    res = rotating_frame_residual(r, theta, 1e-2, 0.9)
    assert res.size == 8
    assert np.linalg.norm(res) == pytest.approx(
        np.sqrt((a * a + b * b).sum()), rel=1e-12
    )


@pytest.mark.parametrize("n, eps", JACOBIAN_CASES)
def test_newton_jacobian_matches_complex_step(n, eps):
    r, theta = off_equilibrium_state(n, seed=n)
    x = np.concatenate((r, theta))
    phi = theta + 0.01

    def augmented(z):
        a, b = real_form_mismatch(z[:n], z[n:], eps, 1.3)
        ct, st = np.cos(z[n:]), np.sin(z[n:])
        return np.concatenate((a * ct - b * st, a * st + b * ct, [np.sum(z[n:] - phi)]))

    ref = cs_jacobian(augmented, x)
    assert np.abs(_augmented_system(x, phi, eps, 1.3)[0] - augmented(x)).max() <= 1e-14
    # stacked as in continue_equilibrium: Re M, Im M, then the phase row
    jac = _mismatch_jacobian(r, theta, eps, 1.3)
    jac = np.vstack((jac.real, jac.imag, np.concatenate((np.zeros(n), np.ones(n)))))
    assert np.abs(jac - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n, eps", JACOBIAN_CASES)
def test_real_form_reference_matches_library(n, eps):
    r, theta = off_equilibrium_state(n, seed=n)
    x = np.concatenate((r, theta))
    ref = np.concatenate(real_form_mismatch(r, theta, eps, 1.3))
    got = np.concatenate(_mismatch(r, theta, eps, 1.3)[:2])
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    ref = real_form_reduced(x, eps, 1.3)
    got = reduced_field(r, theta, eps, 1.3)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_continued_equilibrium_residual(min3_point):
    for eps in (1e-3, -1e-3, 1e-2):
        eq = continue_equilibrium(min3_point, eps)
        assert eq.residual < 1e-12
        assert eq.epsilon == eps
        assert eq.r.shape == (3,)


def test_ring_radius_law():
    for n in (2, 5, 12, 20):
        point = newton_refine(ngon(n))
        for eps in (1e-3, -1e-3):
            eq = continue_equilibrium(point, eps)
            expected = np.sqrt(1 + eps * (n - 1) / 2.0)
            assert np.abs(eq.r - expected).max() < 1e-10


def test_pair_triangle_stays_equilateral():
    point = newton_refine(np.array([0.0, np.pi / 3]))
    eq = continue_equilibrium(point, 1e-2)
    pos = eq.all_positions()
    d = [np.linalg.norm(pos[i] - pos[j]) for i in range(3) for j in range(i + 1, 3)]
    assert max(d) - min(d) < 1e-12


def test_continuation_equivariance(min3_point):
    eq0 = continue_equilibrium(min3_point, 1e-3)
    rotated = dataclasses.replace(min3_point, config=min3_point.config + 0.7)
    eq1 = continue_equilibrium(rotated, 1e-3)
    np.testing.assert_allclose(eq1.r, eq0.r, atol=1e-13)
    np.testing.assert_allclose(eq1.theta - 0.7, eq0.theta, atol=1e-12)
    assert eq1.omega == pytest.approx(eq0.omega, abs=1e-13)


def test_invalid_epsilon(min3_point):
    with pytest.raises(InvalidEpsilon):
        continue_equilibrium(min3_point, 0.0)
    with pytest.raises(InvalidEpsilon):
        continue_equilibrium(min3_point, 0.2)


def test_ring_epsilon_ceiling():
    point = newton_refine(ngon(10))
    assert epsilon_ceiling(point) == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(InvalidEpsilon):
        continue_equilibrium(point, 0.02)
    point3 = newton_refine(np.array([0.0, np.pi / 4, np.pi / 2]))
    assert epsilon_ceiling(point3) == pytest.approx(0.05, abs=1e-15)


def test_degenerate_seed_rejected():
    with pytest.raises(DegenerateSeed):
        continue_equilibrium(make_degenerate_point(), 1e-3)


def test_sweep_warm_start(min3_point):
    family = sweep_epsilon(min3_point, [1e-2, 1e-3, 1e-4])
    assert [eq.epsilon for eq in family] == [1e-2, 1e-3, 1e-4]
    assert all(eq.residual < 1e-12 for eq in family)


def test_sweep_partial_on_failure(min3_point):
    # the cold step to 1e-4 takes 2 Newton steps, the jump to 4e-2 takes 4
    with pytest.raises(NoConvergence) as info:
        sweep_epsilon(min3_point, [1e-4, 4e-2], max_iter=3)
    partial = info.value.partial
    assert len(partial) == 1
    assert partial[0].epsilon == 1e-4


def test_max_iter_counts_newton_steps(min3_point):
    eq = continue_equilibrium(min3_point, 1e-4)
    warm = np.concatenate((eq.r, eq.theta))
    jumped = continue_equilibrium(min3_point, 4e-2, max_iter=4, _warm_start=warm)
    assert jumped.residual < 1e-12
    with pytest.raises(NoConvergence):
        continue_equilibrium(min3_point, 4e-2, max_iter=3, _warm_start=warm)


def test_residual_comes_from_the_last_newton_evaluation(monkeypatch):
    calls = []
    inner = continuation._mismatch
    monkeypatch.setattr(
        continuation, "_mismatch", lambda *args: calls.append(1) or inner(*args)
    )
    eq = continue_equilibrium(newton_refine(ngon(10)), 1e-3)
    assert len(calls) == 4
    assert eq.residual == np.abs(rotating_frame_residual(eq.r, eq.theta, 1e-3)).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coincident_vortices_raise_typed_errors(min3_point):
    for dy in (0.0, 1e-160):  # coincident, and 1/d^2 beyond the float range
        with pytest.raises(VortexCollision):
            PlanarConfiguration([[0.0, 0.0], [1.0, 0.0], [1.0, dy]], Circulations(1e-3))
    with pytest.raises(VortexCollision):
        rotating_frame_residual([1.0, 1.0, 1.0], [0.0, 0.0, 2.0], 1e-3)
    with pytest.raises(CollisionApproach):
        continue_equilibrium(
            min3_point, 1e-3, _warm_start=np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0])
        )


def test_colliding_warm_start_message(min3_point):
    message = "^two vortices are closer than the collision guard$"
    with pytest.raises(CollisionApproach, match=message):
        continue_equilibrium(
            min3_point, 1e-3, _warm_start=np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0])
        )


def test_sweep_rejects_zero(min3_point):
    with pytest.raises(InvalidEpsilon):
        sweep_epsilon(min3_point, [1e-3, 0.0])


def test_lemma1_ratios_bounded(min3_point):
    family = sweep_epsilon(min3_point, [1e-2, 1e-3, 1e-4])
    report = verify_lemma1_scaling(family)
    assert report.q0_bounded
    assert report.radius_bounded
    assert report.q0_ratios.max() / report.q0_ratios.min() < 10
    assert report.radius_ratios.max() / report.radius_ratios.min() < 10


def test_lemma1_ring_exact():
    point = newton_refine(ngon(5))
    family = sweep_epsilon(point, [1e-2, 1e-3, 1e-4])
    report = verify_lemma1_scaling(family)
    # strong vortex stays pinned at the origin for the ring family
    for eq in family:
        assert np.linalg.norm(eq.strong_position()) < 1e-12
    np.testing.assert_allclose(report.radius_ratios, 2.0, atol=1e-8)


def test_lemma1_requires_enough_members(min3_point):
    one = sweep_epsilon(min3_point, [1e-3])
    with pytest.raises(InsufficientFamily):
        verify_lemma1_scaling(one)
    mixed = sweep_epsilon(min3_point, [1e-2, 1e-3]) + sweep_epsilon(
        min3_point, [-1e-3]
    )
    with pytest.raises(InsufficientFamily):
        verify_lemma1_scaling(mixed)


def test_positions_layout(min3_eq):
    pos = min3_eq.all_positions()
    assert pos.shape == (4, 2)
    np.testing.assert_allclose(pos[0], min3_eq.strong_position(), atol=0)
    np.testing.assert_allclose(pos[1:], min3_eq.weak_positions(), atol=0)


@st.composite
def weak_ring(draw, log10_sep):
    """Perturbed ring radii and angles with vortices 0 and 1 ``sep`` apart."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, n)
    theta = np.cumsum(2 * np.pi / n * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, n)))
    sep = 10.0 ** draw(log10_sep)
    r[1] = r[0] + sep
    theta[1] = theta[0]
    return r, theta


@settings(max_examples=60, deadline=None, database=None)
@given(weak_ring(st.floats(-8.0, -1.0)), st.floats(-0.05, 0.05), st.floats(0.5, 1.5))
def test_residual_matches_pairwise_sum(ring, eps, omega):
    r, theta = ring
    weak = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    pos = np.vstack((-eps * weak.sum(axis=0), weak))
    vel, scale = pairwise_field(pos, Circulations(eps).gammas(r.size))
    ref = vel[1:] - omega * np.column_stack((-weak[:, 1], weak[:, 0]))
    res = rotating_frame_residual(r, theta, eps, omega).reshape(2, -1).T
    tol = 1e-13 * (scale[1:] + omega * r)
    assert np.all(np.abs(res - ref).max(axis=1) <= tol)


@settings(max_examples=40, deadline=None, database=None)
@given(weak_ring(st.floats(-14.0, np.log10(0.99e-10))), st.floats(-0.05, 0.05))
def test_residual_guard_below_threshold(ring, eps):
    r, theta = ring
    with pytest.raises(VortexCollision):
        rotating_frame_residual(r, theta, eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(1, 29), st.integers(0, 2**32 - 1),
       st.floats(-0.05, 0.05).filter(lambda e: e != 0.0))
def test_stacked_augmented_system_rows_match_one_row(n, k, seed, eps):
    # rows with two weak vortices coincident or closer than the guard are
    # flagged, not raised, and stay finite
    rng = np.random.default_rng(seed)
    r = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, (k, n))
    theta = rng.uniform(-4.0, 4.0, (k, n))
    if n > 1:
        for row in rng.choice(k, rng.integers(0, k + 1), replace=False):
            r[row, 1] = r[row, 0] + rng.choice([0.0, 1e-160, 1e-12])
            theta[row, 1] = theta[row, 0]
    x = np.concatenate((r, theta), axis=1)
    phi = rng.uniform(-4.0, 4.0, n)
    f, clear = _augmented_system(x, phi, eps, 1.0)
    assert f.shape == (k, 2 * n + 1) and clear.shape == (k,)
    assert np.all(np.isfinite(f))
    for x_row, f_row, clear_row in zip(x, f, clear):
        f_one, clear_one = _augmented_system(x_row, phi, eps, 1.0)
        assert f_one.tobytes() == f_row.tobytes() and clear_one == clear_row
        if clear_row:
            res = rotating_frame_residual(x_row[:n], x_row[n:], eps)
            assert res.tobytes() == f_row[:-1].tobytes()
        else:
            with pytest.raises(VortexCollision):
                rotating_frame_residual(x_row[:n], x_row[n:], eps)
