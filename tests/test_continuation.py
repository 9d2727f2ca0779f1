"""Newton continuation to nonzero epsilon, scaling law checks, error paths."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vortexeq import (
    DegenerateSeed,
    InsufficientFamily,
    InvalidEpsilon,
    NoConvergence,
    PlanarConfiguration,
    RelativeEquilibrium,
    VortexCollision,
    continue_equilibrium,
    epsilon_ceiling,
    gradient,
    linearize,
    newton_refine,
    ngon,
    reduced_field,
    rotating_frame_residual,
    stability_verdict,
    sweep_epsilon,
    symmetry_distance,
    verify_lemma1_scaling,
)
from vortexeq import continuation, search
from vortexeq.continuation import (
    _augmented_system,
    _gammas,
    _mismatch,
    _reduced_jacobian,
)
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


def real_form_mismatch(r, theta, epsilon):
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
    w = _gammas(epsilon, r.size)[None, :] / d2
    np.fill_diagonal(w, 0.0)
    u, v = -(dy * w).sum(axis=1)[1:], (dx * w).sum(axis=1)[1:]
    return ct * u + st * v, -st * u + ct * v - r


def real_form_reduced(x, epsilon):
    """Reduced field (a, b / r) at x = (r, theta), in real form."""
    n = x.size // 2
    a, b = real_form_mismatch(x[:n], x[n:], epsilon)
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
    func = lambda z: reduced_field(z[:n], z[n:], eq.epsilon)

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


def test_circulations_layout():
    gam = _gammas(1e-3, 4)
    np.testing.assert_allclose(gam, [1.0, 1e-3, 1e-3, 1e-3, 1e-3])


def test_residual_vanishes_at_zero_epsilon():
    theta = np.array([0.3, 1.1, 2.7])
    res = rotating_frame_residual(np.ones(3), theta, 0.0)
    assert np.abs(res).max() == 0.0


def test_radial_mismatch_tends_to_gradient():
    # on the unit circle the radial defect is eps * grad V + O(eps^2)
    theta = np.array([0.3, 1.1, 2.7])
    eps = 1e-8
    a, _ = _mismatch(np.ones(3), theta, eps)[:2]
    assert np.abs(a / eps - gradient(theta)).max() < 1e-6


def test_cartesian_residual_norm_matches_polar():
    rng = np.random.default_rng(0)
    theta = np.sort(rng.random(4)) * 5.0
    r = 1.0 + 0.05 * rng.standard_normal(4)
    a, b = _mismatch(r, theta, 1e-2)[:2]
    res = rotating_frame_residual(r, theta, 1e-2)
    assert res.size == 8
    assert np.linalg.norm(res) == pytest.approx(
        np.sqrt((a * a + b * b).sum()), rel=1e-12
    )


@pytest.mark.parametrize("n, eps", JACOBIAN_CASES)
def test_newton_jacobian_matches_complex_step(n, eps):
    r, theta = off_equilibrium_state(n, seed=n)
    x = np.concatenate((r, theta))
    ref = cs_jacobian(lambda z: real_form_reduced(z, eps), x)
    f = _augmented_system(x, eps)[0]
    assert np.abs(f - real_form_reduced(x, eps)).max() <= 1e-14
    # a and b from the residual, as continue_equilibrium passes them
    jac = _reduced_jacobian(r, theta, eps, f[:n], f[n:] * r)
    assert np.abs(jac - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n, eps", JACOBIAN_CASES)
def test_real_form_reference_matches_library(n, eps):
    r, theta = off_equilibrium_state(n, seed=n)
    x = np.concatenate((r, theta))
    ref = np.concatenate(real_form_mismatch(r, theta, eps))
    got = np.concatenate(_mismatch(r, theta, eps)[:2])
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    ref = real_form_reduced(x, eps)
    got = reduced_field(r, theta, eps)
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
    pos = eq.positions()
    d = [abs(pos[i] - pos[j]) for i in range(3) for j in range(i + 1, 3)]
    assert max(d) - min(d) < 1e-12


def test_continuation_equivariance(census_catalogs):
    # a seed is canonical once built, so a rotated, a relabelled and a
    # reflected copy of each family are the same seed and continue to the
    # same equilibrium
    for n in range(3, 7):
        for cp in census_catalogs[n].points:
            eq = continue_equilibrium(cp, 1e-3)
            phi = cp.config
            for copy in (phi + 0.7, np.roll(phi, 1), -phi):
                twin = CriticalPoint(copy)
                assert np.abs(twin.config - phi).max() <= 1e-11, (n, copy)
                eq_twin = continue_equilibrium(twin, 1e-3)
                assert np.abs(eq_twin.r - eq.r).max() <= 1e-11, (n, copy)
                assert np.abs(eq_twin.theta - eq.theta).max() <= 1e-11, (n, copy)


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
    # the ring is told by its gaps alone, whatever the labels, orientation
    # and rotation; the N = 2 pair with gaps (pi/3, 5 pi/3) is no ring
    rng = np.random.default_rng(2)
    for n in (5, 7, 10):
        image = CriticalPoint(-ngon(n)[rng.permutation(n)] + 0.7)
        assert epsilon_ceiling(image) == pytest.approx(1.0 / n**2, abs=1e-15)
    assert epsilon_ceiling(CriticalPoint([0.0, np.pi / 3])) == pytest.approx(0.05, abs=1e-15)


def test_epsilon_ceiling_reads_the_stored_symmetry_order(ring_points, min3_point, monkeypatch):
    # the ring test reads CriticalPoint.symmetry_order and builds no orbit
    monkeypatch.setattr(search, "_symmetry_orbit", None)
    assert [epsilon_ceiling(cp) for cp in ring_points.values()] == [0.05, 1 / 25, 1 / 100]
    assert epsilon_ceiling(min3_point) == 0.05


def test_degenerate_seed_rejected(degenerate_point):
    assert degenerate_point.cls is CriticalPointClass.DEGENERATE
    assert degenerate_point.morse_index == (0, 3, 0)
    with pytest.raises(DegenerateSeed):
        continue_equilibrium(degenerate_point, 1e-3)


def test_sweep_warm_start(min3_point):
    family = sweep_epsilon(min3_point, [1e-2, 1e-3, 1e-4])
    assert [eq.epsilon for eq in family] == [1e-2, 1e-3, 1e-4]
    assert all(eq.residual < 1e-12 for eq in family)


def test_sweep_toward_zero_stays_on_the_seed_branch(census_catalogs):
    # the N = 9 index-1 family swept in from the ceiling: once the seed at
    # eps = 0 is nearer than every solved eps, the solve starts from the seed
    cp = census_catalogs[9].points[1]
    assert cp.morse_index == (1, 1, 7)
    eps_list = [-0.05, -0.03, -0.01, -1e-3, -1e-4]
    family = sweep_epsilon(cp, eps_list)
    assert [eq.epsilon for eq in family] == eps_list
    for eq in family:
        assert symmetry_distance(eq.theta, cp.config) <= 50 * abs(eq.epsilon), eq.epsilon


def test_a_decade_sweep_gives_each_record_its_cold_continuation(census_catalogs):
    # 5e-4 is as near the seed's eps = 0 as 1e-3, and ties go to the seed
    cp = census_catalogs[9].points[1]
    swept = sweep_epsilon(cp, [1e-2, 1e-3, 5e-4])
    for eq in swept[1:]:
        cold = continue_equilibrium(cp, eq.epsilon)
        np.testing.assert_array_equal(eq.r, cold.r)
        np.testing.assert_array_equal(eq.theta, cold.theta)


def test_fine_increasing_steps_keep_their_warm_starts(min3_point):
    # 2e-3 is nearer 1e-3 than 0, and 3e-3 nearer 2e-3: each starts warm
    family = sweep_epsilon(min3_point, [1e-3, 2e-3, 3e-3])
    chain = [continue_equilibrium(min3_point, 1e-3)]
    for eps in (2e-3, 3e-3):
        warm = np.concatenate((chain[-1].r, chain[-1].theta))
        chain.append(continuation._solve(min3_point, eps, warm))
    for eq, expected in zip(family, chain, strict=True):
        np.testing.assert_array_equal(eq.r, expected.r)
        np.testing.assert_array_equal(eq.theta, expected.theta)


def test_continuation_hands_over_to_lm(census_catalogs, monkeypatch):
    # the N = 9 family (1, 1, 7) at eps = -0.05: a pinned Newton step is first
    # accepted only at alpha <= 2**-5, LM steps finish the solve, and theta_1
    # is turned back to the seed's
    cp = census_catalogs[9].points[1]
    assert cp.morse_index == (1, 1, 7)
    with monkeypatch.context() as m:
        m.setattr(search, "_LM_SWITCH_K", 31)  # pinned Newton steps only
        pinned = continue_equilibrium(cp, -0.05)
    calls = []
    lm_step = search._lm_step
    monkeypatch.setattr(search, "_lm_step", lambda *args: calls.append(1) or lm_step(*args))
    eq = continue_equilibrium(cp, -0.05)
    assert calls
    assert eq.theta[0] == 0.0 == cp.config[0]
    assert np.abs(reduced_field(eq.r, eq.theta, eq.epsilon)).max() < 1e-12
    assert np.abs(np.concatenate((eq.r - pinned.r, eq.theta - pinned.theta))).max() <= 1e-14


def test_sweep_partial_on_failure(min3_point, monkeypatch):
    # the cold step to 1e-4 takes 2 Newton steps, the jump to 4e-2 takes 4
    monkeypatch.setattr(continuation, "_RELEQ_MAX_ITER", 3)
    with pytest.raises(NoConvergence) as info:
        sweep_epsilon(min3_point, [1e-4, 4e-2])
    partial = info.value.partial
    assert len(partial) == 1
    assert partial[0].epsilon == 1e-4


def test_singular_continuation_step_is_no_convergence(min3_point, monkeypatch):
    monkeypatch.setattr(
        continuation, "_reduced_jacobian", lambda r, *_: np.zeros((2 * r.size, 2 * r.size))
    )
    with pytest.raises(NoConvergence, match="^singular Newton system with theta_1 held$"):
        continue_equilibrium(min3_point, 1e-4)
    with pytest.raises(NoConvergence, match="^sweep failed at eps = 0.0001: singular") as info:
        sweep_epsilon(min3_point, [1e-4])
    assert info.value.partial == []


def test_max_iter_counts_newton_steps(min3_point, monkeypatch):
    eq = continue_equilibrium(min3_point, 1e-4)
    warm = np.concatenate((eq.r, eq.theta))
    monkeypatch.setattr(continuation, "_RELEQ_MAX_ITER", 4)
    jumped = continuation._solve(min3_point, 4e-2, warm)
    assert jumped.residual < 1e-12
    monkeypatch.setattr(continuation, "_RELEQ_MAX_ITER", 3)
    with pytest.raises(NoConvergence):
        continuation._solve(min3_point, 4e-2, warm)


@pytest.mark.parametrize("n", range(3, 13))
def test_cold_continuation_stays_on_the_seed_branch(n, census_catalogs):
    # every census family, from the default cold start, at +-1e-3 and +-1e-2
    # within the ceiling; the verdicts are the abstract's: a minimum is stable
    # iff eps > 0, a maximum iff eps < 0, and every other family is unstable
    for cp in census_catalogs[n].points:
        negative, _, positive = cp.morse_index
        for eps in (1e-3, -1e-3, 1e-2, -1e-2):
            if abs(eps) > epsilon_ceiling(cp):
                continue
            eq = continue_equilibrium(cp, eps)
            assert symmetry_distance(eq.theta, cp.config) <= 50 * abs(eps)
            stable = (negative == 0 and eps > 0) or (positive == 0 and eps < 0)
            verdict = stability_verdict(eq).classification.value
            assert verdict == ("stable" if stable else "unstable")


def test_continuation_holds_theta_1(census_catalogs):
    # every census family and the N = 25, 50, 100 rings: theta_1 keeps the
    # seed's first angle to the bit, and a warm start keeps its own
    seeds = [cp for catalog in census_catalogs.values() for cp in catalog.points]
    seeds += [newton_refine(ngon(n)) for n in (25, 50, 100)]
    for cp in seeds:
        eps = min(1e-3, epsilon_ceiling(cp))
        for sign in (1.0, -1.0):
            assert continue_equilibrium(cp, sign * eps).theta[0] == cp.config[0]
    eq = continue_equilibrium(seeds[0], 1e-3)
    warm = np.concatenate((eq.r, eq.theta + 0.25))
    assert continuation._solve(seeds[0], 2e-3, warm).theta[0] == warm[eq.n]


def test_an_equilibrium_is_checked_once_when_built(monkeypatch):
    calls = []
    inner = continuation._mismatch
    monkeypatch.setattr(
        continuation, "_mismatch", lambda *args: calls.append(1) or inner(*args)
    )
    eq = continue_equilibrium(newton_refine(ngon(10)), 1e-3)
    assert len(calls) == 5  # four Newton evaluations, then the construction check
    stability_verdict(eq)
    assert len(calls) == 6  # the Jacobian's own evaluation; no second check


# One fault each, as a function of a valid equilibrium, and the words of the
# ValueError it raises.
BAD_EQUILIBRIA = {
    "scalar_r": (lambda eq: {"r": 1.0}, "r and theta must be finite 1-d"),
    "unequal_lengths": (lambda eq: {"r": eq.r[:2]}, "r and theta must be finite 1-d"),
    "nan_in_theta": (lambda eq: {"theta": eq.theta * [1.0, np.nan, 1.0]},
                     "r and theta must be finite 1-d"),
    "zero_radius": (lambda eq: {"r": eq.r * [0.0, 1.0, 1.0]}, "radii must be positive"),
    "negative_radius": (lambda eq: {"r": eq.r * [-1.0, 1.0, 1.0]},
                        "radii must be positive"),
    "zero_epsilon": (lambda eq: {"epsilon": 0.0}, "epsilon must be finite and nonzero"),
    "infinite_epsilon": (lambda eq: {"epsilon": np.inf},
                         "epsilon must be finite and nonzero"),
    "moved_theta": (lambda eq: {"theta": eq.theta + [1e-3, 0.0, 0.0]},
                    "equilibrium residual .* >= 1e-10"),
    "empty": (lambda eq: {"r": [], "theta": []}, "r and theta must not be empty"),
}


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("case", BAD_EQUILIBRIA)
def test_relative_equilibrium_checks_itself(min3_eq, case, build):
    edit, words = BAD_EQUILIBRIA[case]
    fields = {"r": min3_eq.r, "theta": min3_eq.theta, "epsilon": min3_eq.epsilon}
    with pytest.raises(ValueError, match=words):
        if build == "constructor":
            RelativeEquilibrium(**dict(fields, **edit(min3_eq)))
        else:
            dataclasses.replace(min3_eq, **edit(min3_eq))


def test_relative_equilibrium_converts_its_fields(min3_eq):
    eq = RelativeEquilibrium(
        r=list(min3_eq.r), theta=list(min3_eq.theta), epsilon=np.float64(1e-3)
    )
    assert eq.r.dtype == eq.theta.dtype == float
    assert type(eq.epsilon) is float
    np.testing.assert_array_equal(eq.theta, min3_eq.theta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coincident_vortices_raise_typed_errors(min3_point):
    for dy in (0.0, 1e-160):  # coincident, and 1/d^2 beyond the float range
        with pytest.raises(VortexCollision):
            PlanarConfiguration([0j, 1.0 + 0j, complex(1.0, dy)], 1e-3)
    with pytest.raises(VortexCollision):
        rotating_frame_residual([1.0, 1.0, 1.0], [0.0, 0.0, 2.0], 1e-3)
    with pytest.raises(VortexCollision):
        continuation._solve(min3_point, 1e-3, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0]))


def test_colliding_warm_start_message(min3_point):
    message = "^two vortices are closer than the collision guard$"
    with pytest.raises(VortexCollision, match=message):
        continuation._solve(min3_point, 1e-3, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0]))


def test_sweep_rejects_zero(min3_point):
    with pytest.raises(InvalidEpsilon):
        sweep_epsilon(min3_point, [1e-3, 0.0])


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf, 0.2, -0.2])
def test_sweep_checks_every_eps_before_the_first_solve(min3_point, monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("a continuation ran")

    monkeypatch.setattr(continuation, "_solve", no_solve)
    with pytest.raises(InvalidEpsilon, match=r"outside 0 < \|eps\| <= 0\.05"):
        sweep_epsilon(min3_point, [1e-3, bad])


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
        assert abs(eq.positions()[0]) < 1e-12
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
    pos = min3_eq.positions()
    assert pos.shape == (4,) and pos.dtype == complex
    r, theta = min3_eq.r, min3_eq.theta
    np.testing.assert_allclose(pos[0], -min3_eq.epsilon * pos[1:].sum(), atol=0)
    np.testing.assert_allclose(pos[1:], r * np.cos(theta) + 1j * r * np.sin(theta), atol=0)


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
@given(weak_ring(st.floats(-8.0, -1.0)), st.floats(-0.05, 0.05))
def test_residual_matches_pairwise_sum(ring, eps):
    r, theta = ring
    weak = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    pos = np.vstack((-eps * weak.sum(axis=0), weak))
    vel, scale = pairwise_field(pos, _gammas(eps, r.size))
    ref = vel[1:] - np.column_stack((-weak[:, 1], weak[:, 0]))
    res = rotating_frame_residual(r, theta, eps).reshape(2, -1).T
    tol = 1e-13 * (scale[1:] + r)
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
    f, clear = _augmented_system(x, eps)
    assert f.shape == (k, 2 * n) and clear.shape == (k,)
    assert np.all(np.isfinite(f))
    for x_row, f_row, clear_row in zip(x, f, clear):
        f_one, clear_one = _augmented_system(x_row, eps)
        assert f_one.tobytes() == f_row.tobytes() and clear_one == clear_row
        if clear_row:
            res = reduced_field(x_row[:n], x_row[n:], eps)
            assert res.tobytes() == f_row.tobytes()
        else:
            with pytest.raises(VortexCollision):
                reduced_field(x_row[:n], x_row[n:], eps)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(-0.05, 0.05))
def test_angular_impulse_identity_holds_off_equilibrium(n, seed, eps):
    # every vortex motion conserves sum Gamma_j |q_j|^2, which a rotation
    # leaves unchanged; with q_0 = -eps sum z_k its rate at any state is
    # 2 eps (sum r_j a_j + eps Re(conj(sum z_k) sum M_j))
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 1.5, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    a, b, ct, st_, clear = _mismatch(r, theta, eps)
    assume(clear)
    e = ct + 1j * st_
    m = (a + 1j * b) * e
    rate = r @ a + eps * (np.conj((r * e).sum()) * m.sum()).real
    # a is O(eps) and vanishes at N = 1, so its roundoff is set by the speed
    # |M_j + i z_j| it is projected from
    assert abs(rate) <= 1e-13 * np.abs(m + 1j * r * e).max()


def dropped_row_check(jac, k):
    """How far row k of a Jacobian is from the span of the other rows, and the
    smallest singular value once row k and the theta_1 column are removed."""
    n = jac.shape[0] // 2
    row, rest = jac[k], np.delete(jac, k, axis=0)
    coef = np.linalg.lstsq(rest.T, row, rcond=None)[0]
    residual = np.linalg.norm(rest.T @ coef - row) / np.linalg.norm(row)
    square = np.delete(rest, n, axis=1)
    return residual, np.linalg.svd(square, compute_uv=False).min()


def test_the_square_step_drops_a_redundant_row(census_catalogs):
    # continue_equilibrium solves with row a_1 and column theta_1 removed; at
    # each continued census family the a_1 row is a combination of the others
    # and the square system is far from singular.  Row b_1 / r_1 fails one of
    # the two at every N: at the families with sum z_k = 0 it is independent
    # of the other rows and the square system is singular.
    b_row_fails = set()
    for n in range(3, 13):
        for cp in census_catalogs[n].points:
            for eps in (1e-3, -1e-3):
                jac = linearize(continue_equilibrium(cp, eps))
                residual, smallest = dropped_row_check(jac, 0)
                assert residual < 1e-10 and smallest > 1e-2 * abs(eps), (n, eps)
                residual, smallest = dropped_row_check(jac, n)
                if residual >= 1e-10 or smallest <= 1e-2 * abs(eps):
                    b_row_fails.add(n)
    assert b_row_fails == set(range(3, 13))
