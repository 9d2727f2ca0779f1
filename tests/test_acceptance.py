"""Acceptance suite: one test (one ``pytest -v`` line) per required behavior.

Each test pins the tolerances of one top-level requirement.  Shared fixtures
build the continued-equilibrium corpus once per module.
"""

import warnings

import numpy as np
import pytest

from vortexeq import (
    CriticalPointClass,
    PlanarConfiguration,
    StabilityClass,
    asymptotic_eigenvalues,
    block_determinant,
    cabral_schmidt_check,
    continue_equilibrium,
    eig_symmetric,
    gradient,
    hamiltonian,
    hessian,
    integrate_rk4,
    linearize,
    multistart_search,
    newton_refine,
    ngon,
    ngon_spectrum_closed_form,
    rigidity_error,
    sample_wedge,
    stability_verdict,
    symmetry_distance,
    verify_lemma1_scaling,
    vorticity_moment,
)
from tests.test_potential import fd_gradient, fd_hessian, random_corpus

TWO_PI = 2.0 * np.pi


def nonzero_hessian_eigenvalues(point):
    ev = point.spectrum.eigenvalues.real
    keep = np.argsort(np.abs(ev))[point.spectrum.zero_count:]
    return np.sort(ev[keep])


@pytest.fixture(scope="module")
def ngon_dense():
    return {
        n: np.sort(eig_symmetric(hessian(ngon(n))).eigenvalues.real)
        for n in range(3, 101)
    }


@pytest.fixture(scope="module")
def ring_eqs():
    out = {}
    for n in range(2, 21):
        seed = newton_refine(ngon(n))
        for eps in (1e-3, -1e-3):
            out[(n, eps)] = continue_equilibrium(seed, eps)
    return out


@pytest.fixture(scope="module")
def s4_points(catalog2, catalog3, catalog4):
    return [p for cat in (catalog2, catalog3, catalog4) for p in cat.points]


@pytest.fixture(scope="module")
def s4_eqs(s4_points):
    return {
        (i, eps): continue_equilibrium(p, eps)
        for i, p in enumerate(s4_points)
        for eps in (1e-3, -1e-3)
    }


@pytest.fixture(scope="module")
def lemma1_family(min3_point):
    return [continue_equilibrium(min3_point, e) for e in (1e-2, 1e-3, 1e-4)]


def test_criterion_01_pair_hessian_fixture():
    h = hessian([0.0, np.pi / 3])
    np.testing.assert_allclose(h, [[1.5, -1.5], [-1.5, 1.5]], atol=1e-12)
    ev = np.sort(eig_symmetric(h).eigenvalues.real)
    np.testing.assert_allclose(ev, [0.0, 3.0], atol=1e-12)


def test_criterion_02_four_vortex_family_tables(catalog4):
    assert len(catalog4.points) == 3
    by_negatives = {p.morse_index[0]: p for p in catalog4.points}
    assert set(by_negatives) == {0, 1, 2}
    np.testing.assert_allclose(
        nonzero_hessian_eigenvalues(by_negatives[0]), [3.7, 8.4, 12.4], atol=0.05
    )
    np.testing.assert_allclose(
        nonzero_hessian_eigenvalues(by_negatives[1]), [-1.5, 1.0, 4.0], atol=1e-9
    )
    np.testing.assert_allclose(
        nonzero_hessian_eigenvalues(by_negatives[2]), [-0.5, -0.5, 2.0], atol=1e-9
    )


def test_criterion_03_circulant_closed_form_agreement(ngon_dense):
    for n, dense in ngon_dense.items():
        closed = ngon_spectrum_closed_form(n)
        assert np.abs(np.sort(closed) - dense).max() < 1e-9, f"n={n}"
        assert np.abs(closed + 0.5).min() < 1e-12
        if n >= 4:
            assert np.abs(closed - (n - 2)).min() < 1e-12


def test_criterion_04_ring_morse_index(ngon_dense):
    for n in range(4, 101):
        ev = ngon_dense[n]
        neg = int(np.sum(ev < -1e-9))
        zero = int(np.sum(np.abs(ev) <= 1e-9))
        pos = int(np.sum(ev > 1e-9))
        assert (neg, zero, pos) == (2, 1, n - 3), f"n={n}"


def test_criterion_05_family_census():
    for n in range(2, 13):
        catalog = multistart_search(n, 1000, seed=3)
        negatives = {p.morse_index[0] for p in catalog.points}
        expected = {0, 1} if n == 2 else {0, 1, 2}
        assert negatives >= expected, f"n={n}: missing families"
        assert catalog.points[0].morse_index[0] == 0
        if n >= 3:
            ring = next(p for p in catalog.points if p.morse_index[0] == 2)
            assert symmetry_distance(ring.config, ngon(n)) < 1e-6
        if len(catalog.points) != len(expected):
            warnings.warn(
                f"n={n}: {len(catalog.points)} families found "
                f"(expected {len(expected)}) — extras are a finding, not a failure"
            )
    # large-n spot checks: reduced start budgets, presence + index only
    for n, starts, seed in ((25, 120, 5), (50, 80, 5), (100, 150, 11)):
        catalog = multistart_search(n, starts, seed=seed)
        negatives = {p.morse_index[0] for p in catalog.points}
        assert negatives >= {0, 1, 2}, f"n={n}: {negatives}"
        assert catalog.points[0].morse_index[0] == 0


def test_criterion_06_continuation_correctness(ring_eqs, s4_eqs, lemma1_family):
    for (n, eps), eq in ring_eqs.items():
        law = np.sqrt(1.0 + eps * (n - 1) / 2.0)
        assert np.abs(eq.r - law).max() < 1e-10, f"n={n} eps={eps}"
        assert eq.residual < 1e-12
    for eq in s4_eqs.values():
        assert eq.residual < 1e-12
    report = verify_lemma1_scaling(lemma1_family)
    assert report.q0_bounded
    assert report.radius_bounded


def test_criterion_07_stability_dichotomy(s4_points, s4_eqs):
    for (i, eps), eq in s4_eqs.items():
        cls = s4_points[i].cls
        expected_stable = (eps > 0 and cls is CriticalPointClass.LOCAL_MIN) or (
            eps < 0 and cls is CriticalPointClass.LOCAL_MAX
        )
        verdict = stability_verdict(eq)
        got_stable = verdict.classification is StabilityClass.LINEARLY_STABLE
        assert got_stable == expected_stable, f"family {i} eps={eps}"
        if s4_points[i].config.size == 4 and eps < 0:
            assert verdict.classification is StabilityClass.LINEARLY_UNSTABLE


def test_criterion_08_sqrt_epsilon_scaling(min3_point):
    magnitudes = {}
    for eps in (1e-4, 1e-5):
        eq = continue_equilibrium(min3_point, eps)
        spectrum = stability_verdict(eq).spectrum
        exact = spectrum.eigenvalues[
            np.abs(spectrum.eigenvalues) >= spectrum.tol_used
        ]
        assert exact.size == 4
        predicted = asymptotic_eigenvalues(min3_point, eps)
        exact = exact[np.lexsort((exact.real, exact.imag))]
        predicted = predicted[np.lexsort((predicted.real, predicted.imag))]
        rel = np.abs(exact - predicted) / np.abs(predicted)
        assert rel.max() < 0.05
        magnitudes[eps] = np.sort(np.abs(exact))
    ratio = magnitudes[1e-4] / magnitudes[1e-5]
    assert np.abs(ratio / np.sqrt(10.0) - 1.0).max() < 0.05


def test_criterion_09_dynamics_validation(ring_eqs, s4_eqs, lemma1_family, min3_eq):
    corpus = list(ring_eqs.values()) + list(s4_eqs.values()) + lemma1_family
    for eq in corpus:
        config = PlanarConfiguration.from_equilibrium(eq)
        period = TWO_PI / abs(eq.omega)
        traj = integrate_rk4(config, period / 2048, period)
        assert rigidity_error(traj) < 1e-6
        h0, m0 = hamiltonian(config), vorticity_moment(config)
        last = PlanarConfiguration(traj.positions[-1], config.epsilon)
        assert abs(hamiltonian(last) - h0) / abs(h0) < 1e-8
        assert abs(vorticity_moment(last) - m0) / abs(m0) < 1e-8

    base = min3_eq.positions().view(float).reshape(-1, 2)
    config = PlanarConfiguration.from_equilibrium(min3_eq)

    def final_position_error(steps):
        traj = integrate_rk4(config, TWO_PI / steps, TWO_PI)
        angle = min3_eq.omega * traj.times[-1]
        c, s = np.cos(angle), np.sin(angle)
        exact = base @ np.array([[c, -s], [s, c]]).T
        return np.abs(traj.positions[-1].view(float).reshape(-1, 2) - exact).max()

    order = np.log2(final_position_error(256) / final_position_error(512))
    assert 3.7 <= order <= 4.3


def test_criterion_10_ring_instability_counts(ring_eqs):
    plus = stability_verdict(ring_eqs[(10, 1e-3)])
    minus = stability_verdict(ring_eqs[(10, -1e-3)])
    assert plus.classification is StabilityClass.LINEARLY_UNSTABLE
    assert plus.instability_count == 2
    assert minus.classification is StabilityClass.LINEARLY_UNSTABLE
    assert minus.instability_count == 7


def test_criterion_11_strength_ratio_consistency(ring_eqs):
    for n in range(4, 21):
        for eps in (1e-3, -1e-3):
            verdict = stability_verdict(ring_eqs[(n, eps)])
            inside, consistent = cabral_schmidt_check(n, eps, verdict=verdict)
            assert not inside, f"n={n} eps={eps}"
            assert verdict.classification is StabilityClass.LINEARLY_UNSTABLE
            assert consistent


def test_criterion_12_property_suites():
    rng = np.random.default_rng(42)
    for theta in random_corpus(rng):
        g_ref, h_ref = fd_gradient(theta), fd_hessian(theta)
        g_err = np.abs(gradient(theta) - g_ref).max()
        h_err = np.abs(hessian(theta) - h_ref).max()
        assert g_err / max(1.0, np.abs(g_ref).max()) < 1e-6
        assert h_err / max(1.0, np.abs(h_ref).max()) < 1e-5

    eq = continue_equilibrium(newton_refine(np.array([0.0, np.pi / 3])), 1e-3)
    lam = np.linalg.eigvals(linearize(eq))
    for value in lam:
        assert np.min(np.abs(lam + value)) < 1e-8

    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        a = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        b = rng.standard_normal((k, k))
        c = rng.standard_normal((k, k))
        d = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        full, via_a, via_d = block_determinant(a, b, c, d)
        scale = max(1.0, abs(full))
        assert abs(via_a - full) / scale < 1e-10
        assert abs(via_d - full) / scale < 1e-10

    first = multistart_search(3, 80, seed=9)
    second = multistart_search(3, 80, seed=9)
    assert len(first.points) == len(second.points)
    for p, q in zip(first.points, second.points):
        assert np.array_equal(p.config, q.config)
    assert np.array_equal(
        sample_wedge(5, np.random.default_rng(4)),
        sample_wedge(5, np.random.default_rng(4)),
    )
