"""Symmetric eigensolver, ring spectrum closed form, block determinants."""

import numpy as np
import pytest

from vortexeq import (
    InvalidN,
    SingularBlock,
    block_determinant,
    eig_symmetric,
    hessian,
    ngon,
    ngon_spectrum_closed_form,
)


def test_eig_symmetric_known_2x2():
    report = eig_symmetric([[1.5, -1.5], [-1.5, 1.5]])
    np.testing.assert_allclose(report.eigenvalues.real, [0.0, 3.0], atol=1e-12)
    assert report.zero_count == 1


def test_eig_symmetric_sorted_and_orthonormal():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    s = a + a.T
    ev = eig_symmetric(s).eigenvalues.real
    assert np.all(np.diff(ev) >= -1e-12)
    # the reported order is the column order of eigh's eigenbasis
    v = np.linalg.eigh(s)[1]
    np.testing.assert_allclose(s @ v, v * ev, atol=1e-10)


def test_eig_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError, match="^matrix is not symmetric within 1e-12 relative$"):
        eig_symmetric([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="^expected a square matrix$"):
        eig_symmetric(np.zeros((2, 3)))


def test_eig_symmetric_reports_the_absolute_zero_threshold():
    # spectral radius 1e3: 5e-8 is below 1e-9 * 1e3 and counts as the one zero
    report = eig_symmetric(np.diag([1e3, 5e-8, -2.0]))
    assert report.tol_used == pytest.approx(1e-6, rel=1e-12)
    assert report.zero_count == 1 == np.sum(np.abs(report.eigenvalues) < report.tol_used)


def test_ring_closed_form_small_cases():
    np.testing.assert_allclose(
        np.sort(ngon_spectrum_closed_form(2)), [-1.5, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        np.sort(ngon_spectrum_closed_form(3)), [-0.5, -0.5, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        np.sort(ngon_spectrum_closed_form(4)), [-0.5, -0.5, 0.0, 2.0], atol=1e-14
    )


def test_ring_closed_form_structure():
    for n in (5, 8, 13, 40):
        ev = ngon_spectrum_closed_form(n)
        assert ev[0] == 0.0
        assert ev[1] == pytest.approx(-0.5, abs=1e-14)
        assert ev[n - 1] == pytest.approx(-0.5, abs=1e-14)
        # second harmonic equals n - 2; interior harmonics all positive
        assert ev[2] == pytest.approx(n - 2, rel=1e-13)
        assert np.all(ev[2:n - 1] > 0)


def test_ring_closed_form_matches_dense():
    for n in (3, 7, 25, 60):
        closed = np.sort(ngon_spectrum_closed_form(n))
        dense = np.sort(eig_symmetric(hessian(ngon(n))).eigenvalues.real)
        assert np.abs(closed - dense).max() < 1e-9


def test_ring_closed_form_invalid():
    with pytest.raises(InvalidN):
        ngon_spectrum_closed_form(1)


def test_block_determinant_triple_agreement():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = rng.integers(2, 6)
        a = rng.standard_normal((n, n)) + 3 * np.eye(n)
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        d = rng.standard_normal((n, n)) + 3 * np.eye(n)
        full, via_a, via_d = block_determinant(a, b, c, d)
        scale = max(1.0, abs(full))
        assert abs(full - via_a) / scale < 1e-10
        assert abs(full - via_d) / scale < 1e-10


def test_block_determinant_identity_blocks():
    eye = np.eye(3)
    zero = np.zeros((3, 3))
    full, via_a, via_d = block_determinant(eye, zero, zero, 2 * eye)
    assert full == pytest.approx(8.0, rel=1e-12)
    assert via_a == pytest.approx(8.0, rel=1e-12)
    assert via_d == pytest.approx(8.0, rel=1e-12)


def test_block_determinant_singular_block():
    zero = np.zeros((2, 2))
    eye = np.eye(2)
    with pytest.raises(SingularBlock):
        block_determinant(zero, eye, eye, eye)


def test_block_determinant_shape_mismatch():
    with pytest.raises(ValueError, match="^blocks must share one square shape$"):
        block_determinant(np.eye(2), np.eye(3), np.eye(2), np.eye(2))
