"""Canonical forms, symmetry quotient, Newton refinement, multistart search."""

import importlib

import numpy as np
import pytest

from vortexeq import (
    CollisionApproach,
    CriticalPointClass,
    NoConvergence,
    canonicalize,
    gradient,
    multistart_search,
    newton_refine,
    ngon,
    sample_wedge,
    symmetry_distance,
)


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


def test_newton_refine_gradient_calls(monkeypatch):
    # one gradient per iterate and line-search trial, plus one that the
    # converged point's residual and NotCritical check share; the modules
    # are looked up by name because ``vortexeq.potential`` is the function
    modules = [importlib.import_module(f"vortexeq.{m}") for m in ("potential", "search")]
    original = modules[0].gradient
    calls = []

    def counted(theta):
        calls.append(1)
        return original(theta)

    for module in modules:
        monkeypatch.setattr(module, "gradient", counted)
    newton_refine(np.array([0.0, 1.0, 2.5, 4.0]))
    assert len(calls) == 9


def test_newton_refine_quarter_arc_values():
    point = newton_refine(np.array([0.1, np.pi / 4 + 0.05, np.pi / 2 - 0.02]))
    ev = np.sort(point.spectrum.eigenvalues.real)
    np.testing.assert_allclose(
        ev, [0.0, 2 + np.sqrt(2), 3 + 3 * np.sqrt(2)], atol=1e-9
    )


def test_newton_refine_reports_no_convergence():
    with pytest.raises(NoConvergence):
        newton_refine(np.array([0.0, 1.0, 2.0, 4.0]), max_iter=1)


def test_newton_refine_rejects_colliding_start():
    with pytest.raises(CollisionApproach):
        newton_refine(np.array([0.0, 1e-9]))


def test_sample_wedge_respects_gap_floor():
    rng = np.random.default_rng(3)
    for n in (2, 4, 9):
        for _ in range(50):
            theta = sample_wedge(n, rng, delta=1e-2)
            assert theta.size == n
            assert theta[0] == 0.0
            gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * np.pi]]))
            assert gaps.min() >= 1e-2 - 1e-12
            assert gaps.sum() == pytest.approx(2 * np.pi, abs=1e-12)


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
