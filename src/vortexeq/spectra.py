"""Eigenvalue utilities: the symmetric eigensolver, the ring spectrum in
closed form, and block determinants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidN, NoConvergence, SingularBlock

_COND_LIMIT = 1e12

# A symmetric eigenvalue is zero below this times max(1, spectral radius).
_ZERO_TOL = 1e-9


@dataclass
class SpectrumReport:
    """Eigenvalues sorted by (real, imaginary) part, with a zero count.

    Real for a symmetric matrix (``eig_symmetric``), complex for a
    linearization (``stability_verdict``).

    ``zero_count`` is the number of eigenvalues with |lambda| below the
    absolute threshold ``tol_used``.
    """

    eigenvalues: np.ndarray
    zero_count: int
    tol_used: float


def eig_symmetric(s) -> SpectrumReport:
    """Full spectrum of a real symmetric matrix, real and in ascending order.

    Raises ValueError unless the matrix is square, finite and symmetric within
    1e-12 relative sup-norm, NoConvergence if LAPACK does not converge.  An
    |eigenvalue| below ``tol_used`` = 1e-9 * max(1, spectral radius) is zero.
    """
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(m).all():  # nan would pass the symmetry test below
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    try:
        # eigh, not eigvalsh: LAPACK takes another path without vectors and
        # the eigenvalues move in the last bits
        values = np.linalg.eigh(0.5 * (m + m.T))[0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    mags = np.abs(values)
    tol = _ZERO_TOL * max(1.0, float(mags.max()))
    return SpectrumReport(eigenvalues=values, zero_count=int(np.sum(mags < tol)), tol_used=tol)


def ngon_spectrum_closed_form(n: int) -> np.ndarray:
    """Hessian eigenvalues at the regular n-gon, in closed form.

    The Hessian at the n-gon is circulant, so its eigenvalues are the values
    q(w^j) of the generator polynomial at the n-th roots of unity:

        q(1) = 0,
        q(w) = q(w^(n-1)) = -1/2          (n >= 3),
        q(w^j) = b(j, n) for 2 <= j <= n-2, where
        b(j, n) = (1/2) sum_{k=1}^{n-1} (1 - cos(2*pi*j*k/n))
                                        / (1 - cos(2*pi*k/n)) > 0.

    n = 2 is the special case {0, -3/2}.  Entries are returned indexed by j.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("closed-form ring spectrum needs an integer n >= 2")
    n = int(n)
    if n == 2:
        return np.array([0.0, -1.5])
    out = np.zeros(n)
    out[1] = out[n - 1] = -0.5
    if n >= 4:
        k = np.arange(1, n)
        denom = 1.0 - np.cos(2.0 * np.pi * k / n)
        j = np.arange(2, n - 1)
        numer = 1.0 - np.cos(2.0 * np.pi * np.outer(j, k) / n)
        out[2 : n - 1] = 0.5 * np.sum(numer / denom, axis=1)
    return out


def block_determinant(a, b, c, d) -> tuple[float, float, float]:
    """Determinant of [[A, B], [C, D]] three ways.

    Returns (direct 2n x 2n determinant,
             det(A) * det(D - C A^-1 B),
             det(D) * det(A - B D^-1 C)).

    Raises SingularBlock when A or D has condition number above 1e12, and
    ValueError for inconsistent shapes.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    shapes = {x.shape for x in (a, b, c, d)}
    if len(shapes) != 1 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("blocks must share one square shape")
    for name, blk in (("A", a), ("D", d)):
        if np.linalg.cond(blk) > _COND_LIMIT:
            raise SingularBlock(f"block {name} condition number exceeds {_COND_LIMIT:g}")
    full = np.block([[a, b], [c, d]])
    det_full = float(np.linalg.det(full))
    det_a = float(np.linalg.det(a) * np.linalg.det(d - c @ np.linalg.solve(a, b)))
    det_d = float(np.linalg.det(d) * np.linalg.det(a - b @ np.linalg.solve(d, c)))
    return det_full, det_a, det_d
