"""Linearization, stability verdicts, asymptotic spectra, and the paper's
pairing and truncation claims checked against the exact linearization."""

import dataclasses

import numpy as np
import pytest

from vortexeq import (
    DegenerateSeed,
    InvalidEpsilon,
    InvalidN,
    NoConvergence,
    RelativeEquilibrium,
    StabilityClass,
    asymptotic_eigenvalues,
    cabral_schmidt_check,
    continue_equilibrium,
    epsilon_ceiling,
    hessian,
    linearize,
    newton_refine,
    ngon,
    reduced_field,
    stability_verdict,
)
from vortexeq import continuation, stability
from vortexeq.continuation import _field, _reduced_jacobian
from vortexeq.stability import _IMAG_REL_TOL, _ZERO_TOL, _symmetry_directions
from tests.test_continuation import (
    FD_CHECK_TOL,
    JACOBIAN_CASES,
    cs_jacobian,
    fd_disagreement,
    off_equilibrium_state,
    real_form_reduced,
)

# Equilibria for the central-difference check: the conftest fixtures, then
# (N, eps) rings.
FD_EQUILIBRIA = ["triangle_eq", "collinear_eq", "min3_eq"] + [
    (n, eps) for n in (4, 5, 10) for eps in (1e-3, -1e-3)
]


def test_reduced_field_vanishes_at_equilibrium(min3_eq):
    f = reduced_field(min3_eq.r, min3_eq.theta, min3_eq.epsilon)
    assert np.abs(f).max() < 1e-12


def test_linearize_requires_equilibrium(min3_eq):
    # a state off the equilibrium cannot be built, so it never reaches linearize
    with pytest.raises(ValueError, match="residual"):
        dataclasses.replace(min3_eq, theta=min3_eq.theta + [1e-3, 0.0, 0.0])


def test_linearize_block_structure(min3_eq):
    n = 3
    eps = min3_eq.epsilon
    mat = linearize(min3_eq)
    assert mat.shape == (2 * n, 2 * n)
    ll = mat[n:, :n]
    assert np.abs(ll + 2 * np.eye(n)).max() < 10 * abs(eps)
    ur = mat[:n, n:]
    vtt = hessian(min3_eq.theta)
    assert np.abs(ur - eps * vtt).max() < 100 * eps * eps


@pytest.mark.parametrize("n, eps", JACOBIAN_CASES)
def test_linearize_matches_complex_step(n, eps):
    r, theta = off_equilibrium_state(n, seed=n)
    x = np.concatenate((r, theta))
    by_products = _field(x, eps)[1:-1]
    a, b = by_products[-2:]
    # off equilibrium, so the -i (a + i b) and -b / r^2 diagonal terms count
    assert np.abs(a).max() > 1e-5 and np.abs(b).max() > 1e-2
    ref = cs_jacobian(lambda z: real_form_reduced(z, eps), x)
    jac = _reduced_jacobian(*by_products, eps)
    assert np.abs(jac - ref).max() <= 1e-12 * np.abs(ref).max()


def reference_reduced_jacobian(r, zs, ct, st, a, b, epsilon):
    """``_reduced_jacobian`` as it was with fancy-index diagonals, kept verbatim
    as a bitwise oracle."""
    n = r.size
    z, e = zs[1:], ct + 1j * st
    k = np.arange(n)
    diff = z[:, None] - zs
    diff[k, k + 1] = 1.0
    p = -1j * continuation._gammas(epsilon, n) / (diff * diff)
    p[k, k + 1] = 0.0
    dw = p[:, 1:] - epsilon * p[:, :1]
    dw[k, k] -= p.sum(axis=1)
    d_r = np.conj(dw * e)
    rot = np.concatenate((d_r, -1j * d_r * r), axis=1)
    rot[k, k] -= 1j * e
    rot[k, k + n] += z
    rot *= (ct - 1j * st)[:, None]
    rot[k, k + n] -= 1j * (a + 1j * b)
    jac = np.concatenate((rot.real, rot.imag / r[:, None]))
    jac[k + n, k] -= b / r**2
    return jac


def test_reduced_jacobian_diagonals_match_the_fancy_index_formula_bitwise(census_catalogs):
    states = []
    for n, catalog in census_catalogs.items():
        for cp in catalog.points:
            for eps in (1e-3, -1e-3):
                try:
                    eq = continue_equilibrium(cp, eps)
                except (DegenerateSeed, NoConvergence):
                    continue
                states.append((n, eq.r, eq.theta, eps))
    assert len(states) >= 2 * sum(len(c.points) for c in census_catalogs.values()) - 4
    for n in (25, 50, 100):
        eps = 1e-4
        eq = continue_equilibrium(newton_refine(ngon(n)), eps)
        states.append((n, eq.r, eq.theta, eps))
    states.append((7, *off_equilibrium_state(7, seed=3), -3e-2))
    for n, r, theta, eps in states:
        by_products = _field(np.concatenate((r, theta)), eps)[1:-1]
        jac = _reduced_jacobian(*by_products, eps)
        assert jac.shape == (2 * n, 2 * n)
        assert jac.tobytes() == reference_reduced_jacobian(*by_products, eps).tobytes(), (n, eps)


@pytest.mark.parametrize("case", FD_EQUILIBRIA, ids=str)
def test_linearize_matches_central_differences(request, ring_points, case):
    if isinstance(case, str):
        eq = request.getfixturevalue(case)
    else:
        n, eps = case
        eq = continue_equilibrium(ring_points[n], eps)
    assert fd_disagreement(eq) <= FD_CHECK_TOL


def test_linearize_flags_bad_step(min3_eq):
    assert fd_disagreement(min3_eq, fd_step=0.5) > FD_CHECK_TOL


def test_verdict_dichotomy_pair():
    point = newton_refine(np.array([0.0, np.pi / 3]))
    stable = stability_verdict(continue_equilibrium(point, 1e-3))
    assert stable.classification is StabilityClass.LINEARLY_STABLE
    assert stable.spectrum.zero_count == 2
    assert stable.instability_count == 0
    unstable = stability_verdict(continue_equilibrium(point, -1e-3))
    assert unstable.classification is StabilityClass.LINEARLY_UNSTABLE
    assert unstable.instability_count == 1
    assert unstable.max_real_part == pytest.approx(np.sqrt(6e-3), rel=0.02)


def test_verdict_marginal_with_extra_zero_eigenvalues(monkeypatch, triangle_eq):
    # with the zero threshold above every |eigenvalue|, the two nonzero ones
    # count as zeros too
    monkeypatch.setattr(stability, "_ZERO_TOL", 100.0)
    verdict = stability_verdict(triangle_eq)
    assert verdict.classification is StabilityClass.MARGINAL
    assert verdict.spectrum.zero_count == 4


def test_verdict_spectrum_structure(triangle_eq):
    verdict = stability_verdict(triangle_eq)
    ev = verdict.spectrum.eigenvalues
    assert ev.size == 4
    assert np.count_nonzero(ev == 0) == 2
    nonzero = ev[ev != 0]
    # pure imaginary conjugate pair at the linearized frequency
    assert np.abs(nonzero.real).max() < 1e-4 * np.abs(nonzero).max()
    np.testing.assert_allclose(
        np.sort(nonzero.imag), [-np.sqrt(6e-3), np.sqrt(6e-3)], rtol=5e-3
    )


def test_spectrum_pairs_lambda_with_minus_lambda(min3_eq):
    # the reflection gives each eigenvalue as +-sqrt(mu), so -lambda is there
    # bit for bit
    ev = np.asarray(stability_verdict(min3_eq).spectrum.eigenvalues)
    for lam in ev:
        assert np.abs(ev + lam).min() == 0.0


def test_spectrum_order_survives_one_ulp(min3_eq):
    # stable: every real part is roundoff, and a 1-ulp nudge must not
    # reorder the reported spectrum
    base = stability_verdict(min3_eq).spectrum.eigenvalues
    for name in ("r", "theta"):
        for j in range(min3_eq.n):
            values = getattr(min3_eq, name).copy()
            values[j] = np.nextafter(values[j], np.inf)
            nudged = dataclasses.replace(min3_eq, **{name: values})
            ev = stability_verdict(nudged).spectrum.eigenvalues
            assert np.abs(ev - base).max() < 1e-10, (name, j)


def dense_deflated_spectrum(eq):
    """The 2N - 2 eigenvalues off the symmetry block, by ``eigvals`` on the
    whole deflated linearization in a QR-completed basis."""
    q, _ = np.linalg.qr(np.column_stack(_symmetry_directions(eq.r)), mode="complete")
    return np.linalg.eigvals((q.T @ linearize(eq) @ q)[2:, 2:])


def dense_verdict(eq):
    """(classification, instability count) from ``dense_deflated_spectrum``
    under the verdict's own thresholds."""
    rest = dense_deflated_spectrum(eq)
    nonzero = rest[np.abs(rest) >= _ZERO_TOL * np.sqrt(abs(eq.epsilon))]
    growing = int(np.sum(nonzero.real > _IMAG_REL_TOL * np.abs(nonzero)))
    if nonzero.size < rest.size:
        return StabilityClass.MARGINAL, growing
    if growing:
        return StabilityClass.LINEARLY_UNSTABLE, growing
    return StabilityClass.LINEARLY_STABLE, growing


def worst_relative_mismatch(found, oracle):
    """Largest |lambda - oracle| / |oracle| over a one-to-one nearest matching."""
    oracle = list(oracle)
    worst = 0.0
    for lam in found:
        k = int(np.argmin(np.abs(np.subtract(oracle, lam))))
        worst = max(worst, abs(oracle[k] - lam) / abs(oracle[k]))
        oracle.pop(k)
    return worst


def seed_reflection(theta):
    """The map j -> (c - j) mod N of a c with theta_j + theta_(c-j) equal to
    theta_0 + theta_c mod 2 pi for every j, found one c at a time; or None."""
    n = theta.size
    for c in range(n):
        perm = (c - np.arange(n)) % n
        turn = theta + theta[perm] - theta[0] - theta[c]
        if np.abs(np.angle(np.exp(1j * turn))).max() < 1e-8:
            return perm
    return None


def time_reversal(perm):
    """T: (dr_j, dtheta_j) -> (dr_perm(j), -dtheta_perm(j)) as a matrix."""
    n = perm.size
    t = np.zeros((2 * n, 2 * n))
    t[np.arange(n), perm] = 1.0
    t[n + np.arange(n), n + perm] = -1.0
    return t


@pytest.fixture(scope="module")
def reflected_corpus(census_catalogs):
    """(seed, eq) for every N = 2..12 census family and the N = 25, 50 and
    100 rings, continued to eps = +-1e-3 and +-1e-6 (within the ceiling)."""
    seeds = [cp for cat in census_catalogs.values() for cp in cat.points]
    seeds += [newton_refine(ngon(n)) for n in (25, 50, 100)]
    corpus = []
    for cp in seeds:
        for eps in (1e-3, -1e-3, 1e-6, -1e-6):
            eps = np.copysign(min(abs(eps), epsilon_ceiling(cp)), eps)
            corpus.append((cp, continue_equilibrium(cp, eps)))
    return corpus


def test_reflection_reverses_time(reflected_corpus):
    for cp, eq in reflected_corpus:
        perm = seed_reflection(cp.config)
        assert perm is not None, cp.config
        jac = linearize(eq)
        t = time_reversal(perm)
        bound = 1e-12 * np.abs(jac).max()
        assert np.abs(t @ jac + jac @ t).max() <= bound, (eq.n, eq.epsilon)
        if abs(eq.epsilon) >= 1e-4:
            # the fast path runs; its reflection is one of the seed's
            found = stability._reflection(eq.r, eq.theta)
            assert found is not None, (eq.n, eq.epsilon)
            assert np.array_equal(found[found], np.arange(eq.n))
            t = time_reversal(found)
            assert np.abs(t @ jac + jac @ t).max() <= bound, (eq.n, eq.epsilon)


def test_verdict_matches_dense_deflation(reflected_corpus):
    for _, eq in reflected_corpus:
        verdict = stability_verdict(eq)
        cls, count = dense_verdict(eq)
        assert verdict.classification is cls, (eq.n, eq.epsilon)
        assert verdict.instability_count == count, (eq.n, eq.epsilon)
        ev = verdict.spectrum.eigenvalues
        rest = ev[np.argsort(np.abs(ev))[2:]]
        assert worst_relative_mismatch(rest, dense_deflated_spectrum(eq)) <= 1e-9


@pytest.mark.parametrize("reflection", [True, False], ids=["reflected", "projected"])
def test_dropped_zeros_are_far_below_the_rest(monkeypatch, reflected_corpus, reflection):
    # the reflected path drops one mu, the scaling direction's zero, and the
    # path with no reflection the two zeros of PJP; each is far below every
    # value kept
    if not reflection:
        monkeypatch.setattr(stability, "_reflection", lambda r, theta: None)
    solved = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        solved.append(eigvals(a))
        return solved[-1]

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    for _, eq in reflected_corpus:
        stability._deflated_spectrum(eq)
        mags = np.sort(np.abs(solved[-1]))
        if mags.size == eq.n:  # mu = lambda^2 on the reflected path
            assert mags[0] * 1e6 <= mags[1], (eq.n, eq.epsilon)
        else:
            assert mags[1] <= 1e-12 * mags[-1], (eq.n, eq.epsilon)
    assert len(solved) == len(reflected_corpus)


def test_verdict_matches_eigvals_at_small_eps(catalog4):
    # at |eps| = 1e-6 the reflection holds only to the residual over |eps|;
    # the rows are projected onto each half, so its defect does not reach
    # the spectrum
    seed = next(cp for cp in catalog4.points if cp.morse_index[0] == 1)
    for eps in (1e-6, -1e-6):
        eq = continue_equilibrium(seed, eps)
        assert stability._reflection(eq.r, eq.theta) is not None
        dense = np.linalg.eigvals(linearize(eq))
        ev = stability_verdict(eq).spectrum.eigenvalues
        rest = ev[np.argsort(np.abs(ev))[2:]]
        assert worst_relative_mismatch(rest, dense[np.argsort(np.abs(dense))[2:]]) <= 1e-12


def assert_same_verdict(got, want):
    assert got.classification is want.classification
    assert got.instability_count == want.instability_count
    assert got.spectrum.zero_count == want.spectrum.zero_count
    assert np.abs(got.spectrum.eigenvalues - want.spectrum.eigenvalues).max() <= 1e-10


def test_verdict_without_reflection_relabelled(catalog4):
    # 0, 2, 1, 3 is neither a rotation nor a reflection of the cyclic order,
    # so no reflection (c - j) mod N fixes the relabelled state; the square
    # is left out, as j -> 3 - j still fixes it
    order = [0, 2, 1, 3]
    seeds = [cp for cp in catalog4.points if cp.symmetry_order < 8]
    assert len(seeds) >= 2
    for cp in seeds:
        for eps in (1e-3, -1e-3):
            eq = continue_equilibrium(cp, eps)
            moved = RelativeEquilibrium(eq.r[order], eq.theta[order], eps)
            assert stability._reflection(moved.r, moved.theta) is None
            assert_same_verdict(stability_verdict(moved), stability_verdict(eq))


def test_verdict_without_reflection_found(monkeypatch, triangle_eq, min3_eq, ring_points):
    eqs = [triangle_eq, min3_eq] + [
        continue_equilibrium(ring_points[n], eps) for n in (4, 5, 10) for eps in (1e-3, -1e-3)
    ]
    want = [stability_verdict(eq) for eq in eqs]
    monkeypatch.setattr(stability, "_reflection", lambda r, theta: None)
    for eq, verdict in zip(eqs, want):
        assert_same_verdict(stability_verdict(eq), verdict)


@pytest.mark.parametrize("reflection", [True, False], ids=["reflected", "dense"])
def test_verdict_one_weak_vortex(monkeypatch, reflection):
    if not reflection:
        monkeypatch.setattr(stability, "_reflection", lambda r, theta: None)
    eq = RelativeEquilibrium(r=[1.0 / np.sqrt(1.01)], theta=[0.0], epsilon=1e-2)
    verdict = stability_verdict(eq)
    assert verdict.classification is StabilityClass.LINEARLY_STABLE
    assert verdict.spectrum.zero_count == 2
    assert np.array_equal(verdict.spectrum.eigenvalues, np.zeros(2))
    assert verdict.instability_count == 0
    assert verdict.max_real_part == 0.0


def test_asymptotic_matches_exact_small_eps(min3_point):
    for eps in (1e-4, 1e-5):
        eq = continue_equilibrium(min3_point, eps)
        exact = stability_verdict(eq).spectrum.eigenvalues
        exact = np.sort(np.abs(exact[exact != 0]))
        predicted = np.sort(np.abs(asymptotic_eigenvalues(min3_point, eps)))
        assert np.abs(exact - predicted).max() / predicted.max() < 0.05


def test_asymptotic_sqrt_scaling(min3_point):
    lo = np.abs(asymptotic_eigenvalues(min3_point, 1e-5)).max()
    hi = np.abs(asymptotic_eigenvalues(min3_point, 1e-4)).max()
    assert hi / lo == pytest.approx(np.sqrt(10), rel=1e-12)


def test_asymptotic_rejects_degenerate(degenerate_point):
    with pytest.raises(DegenerateSeed):
        asymptotic_eigenvalues(degenerate_point, 1e-3)


def test_asymptotic_has_no_negative_zero(catalog4):
    # the stable minimum's predicted modes are imaginary, with real part
    # +0.0, which the CLI writes as 0.0
    seed = next(cp for cp in catalog4.points if cp.morse_index[0] == 0)
    predicted = asymptotic_eigenvalues(seed, 1e-2)
    assert np.all(predicted.real == 0.0)
    assert not np.any(np.signbit(predicted.real))


def test_skew_pairing_triangle(triangle_eq):
    # Hamiltonian pairing: each unit mode v off the symmetry block has
    # |Omega(v, conj v)| > 0.1 sqrt|eps|, Omega(v, w) = v^T [[0, -I], [I, 0]] w
    n = triangle_eq.n
    values, vectors = np.linalg.eig(linearize(triangle_eq))
    keep = np.argsort(-np.abs(values))[: 2 * n - 2]
    v = vectors[:, keep] / np.linalg.norm(vectors[:, keep], axis=0)
    omega = (v[n:] * np.conj(v[:n]) - v[:n] * np.conj(v[n:])).sum(axis=0)
    assert keep.size == 2
    assert np.all(np.abs(omega) > 0.1 * np.sqrt(abs(triangle_eq.epsilon)))


def truncation_errors(eq, phi):
    """Block-wise sup distance from linearize(eq) to its leading-order model.

    The model at the seed angles phi is [[-eps A, eps V_tt], [-2 I, eps A]]
    with a_ij = sin(phi_j - phi_i) and a_ii = sum_{j != i} sin(phi_i - phi_j).
    """
    n = phi.size
    eps = eq.epsilon
    a = np.sin(phi[None, :] - phi[:, None])
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    model = np.block([[-eps * a, eps * hessian(phi)], [-2.0 * np.eye(n), eps * a]])
    diff = np.abs(linearize(eq) - model)
    return {
        "upper_left": diff[:n, :n].max(),
        "upper_right": diff[:n, n:].max(),
        "lower_left": diff[n:, :n].max(),
        "lower_right": diff[n:, n:].max(),
    }


def test_truncation_error_orders(min3_point):
    # the model truncates at O(eps^2), except the lower-left block at O(eps)
    errs = {}
    for eps in (1e-3, 1e-4):
        eq = continue_equilibrium(min3_point, eps)
        errs[eps] = truncation_errors(eq, min3_point.config)
    orders = {"upper_left": 2, "upper_right": 2, "lower_left": 1, "lower_right": 2}
    for block, expected in orders.items():
        ratio = errs[1e-3][block] / errs[1e-4][block]
        target = 10.0 ** expected
        assert target / 2 < ratio < target * 2, (block, ratio)


def test_ring_instability_counts():
    point = newton_refine(ngon(10))
    plus = stability_verdict(continue_equilibrium(point, 1e-3))
    assert plus.classification is StabilityClass.LINEARLY_UNSTABLE
    assert plus.instability_count == 2
    minus = stability_verdict(continue_equilibrium(point, -1e-3))
    assert minus.instability_count == 7


def ring_fourier_blocks(n, eps):
    """Closed-form 2 x 2 blocks of the ring linearization, one per mode p.

    At the ring r_j = R = sqrt(1 + eps (N - 1) / 2), theta_j = 2 pi j / N
    the linearization in (r_j, theta_j) is block-circulant, so a perturbation
    (rho, tau) e^{2 pi i p j / N} sees the block

        [[eps S_p / R^2,                        eps (W_p / 2 - C_p) / R],
         [(eps (W_p / 2 - C_p) / R^2 - 2) / R,  -eps S_p / R^2        ]].

    The weak vortices enter through W_p, a sum over m = 1..N-1 of
    (1 - cos(p psi_m)) / (1 - cos psi_m) with psi_m = 2 pi m / N, which is
    p (N - p).  The strong vortex at -eps sum z_k enters through cos psi and
    sin psi, whose transforms C_p and S_p vanish except at p = 1 and N - 1.
    Returns the (N, 2, 2) blocks.
    """
    r2 = 1.0 + eps * (n - 1) / 2.0
    r = np.sqrt(r2)
    p = np.arange(n)
    psi = 2.0 * np.pi * np.arange(1, n) / n
    weak = ((1.0 - np.cos(p[:, None] * psi)) / (1.0 - np.cos(psi))).sum(axis=1)
    cos_hat = 0.5 * n * ((p == 1).astype(float) + (p == n - 1))
    sin_hat = -0.5j * n * ((p == 1).astype(float) - (p == n - 1))
    blocks = np.empty((n, 2, 2), dtype=complex)
    blocks[:, 0, 0] = eps * sin_hat / r2
    blocks[:, 0, 1] = eps * (0.5 * weak - cos_hat) / r
    blocks[:, 1, 0] = (eps * (0.5 * weak - cos_hat) / r2 - 2.0) / r
    blocks[:, 1, 1] = -eps * sin_hat / r2
    return blocks


def continued_ring(n, eps):
    return continue_equilibrium(newton_refine(ngon(n)), eps)


@pytest.mark.parametrize("n, eps", [(10, 1e-3), (10, -1e-3), (100, 1e-4), (100, -1e-4)])
def test_ring_linearization_is_block_circulant(n, eps):
    jac = linearize(continued_ring(n, eps))
    j = np.arange(n)[:, None]
    for rows in (slice(0, n), slice(n, 2 * n)):
        for cols in (slice(0, n), slice(n, 2 * n)):
            block = jac[rows, cols]
            # row j shifted left by j is row 0
            assert np.abs(block[j, (j + j.T) % n] - block[0]).max() <= 1e-12
    # the Fourier transform of the first rows gives the closed-form blocks
    first = jac[[0, n]].reshape(2, 2, n)
    numeric = n * np.fft.ifft(first, axis=-1).transpose(2, 0, 1)
    assert np.abs(numeric - ring_fourier_blocks(n, eps)).max() <= 1e-12


# Every ring up to N = 30, then every seventh up to N = 100: the dense
# eigensolve costs N^3, and all of N = 3..100 would take about 1.5 s.
ORACLE_RING_SIZES = [*range(3, 31), *range(31, 100, 7), 100]


def test_ring_fourier_blocks_give_the_verdict_spectrum():
    for n in ORACLE_RING_SIZES:
        point = newton_refine(ngon(n))
        for eps in (min(1e-3, 1.0 / n**2), -min(1e-3, 1.0 / n**2)):
            verdict = stability_verdict(continue_equilibrium(point, eps))
            found = verdict.spectrum.eigenvalues
            # the two structural zeros, which the block of mode 0 holds
            found = found[np.argsort(np.abs(found))[2:]]
            oracle = list(np.linalg.eigvals(ring_fourier_blocks(n, eps)[1:]).ravel())
            for lam in found:
                k = int(np.argmin(np.abs(np.subtract(oracle, lam))))
                assert abs(oracle[k] - lam) <= 1e-10 * abs(oracle[k]), (n, eps)
                oracle.pop(k)


def test_ring_fourier_blocks_give_criterion_10_counts():
    # N = 10: one real pair per growing mode, modes 1 and 9 at eps = +1e-3
    # and modes 2..8 at eps = -1e-3, so 2 and 7 growing eigenvalues
    for eps, modes in ((1e-3, [1, 9]), (-1e-3, list(range(2, 9)))):
        lam = np.linalg.eigvals(ring_fourier_blocks(10, eps))
        growing = lam.real > _IMAG_REL_TOL * np.abs(lam)
        assert list(np.flatnonzero(growing.any(axis=1))) == modes
        assert growing.sum() == len(modes)
        verdict = stability_verdict(continued_ring(10, eps))
        assert verdict.instability_count == len(modes)


def test_cabral_schmidt_with_supplied_verdict():
    point = newton_refine(ngon(6))
    verdict = stability_verdict(continue_equilibrium(point, 1e-3))
    inside, consistent = cabral_schmidt_check(6, 1e-3, verdict=verdict)
    assert not inside
    assert consistent


def closed_form_ring(n, eps):
    r = np.full(n, np.sqrt(1.0 + eps * (n - 1) / 2.0))
    return RelativeEquilibrium(r=r, theta=ngon(n), epsilon=eps)


def test_cabral_schmidt_window_edges():
    # 10% either side of each positive end of the stable window in p = 1/eps
    for n in range(3, 21):
        lower = (n * n - 8 * n + (8 if n % 2 == 0 else 7)) / 16.0
        upper = (n - 1) ** 2 / 4.0
        cases = [(0.9 * upper, True), (1.1 * upper, False)]
        if lower > 0:
            cases += [(0.9 * lower, False), (1.1 * lower, True)]
        for p, stable in cases:
            eq = closed_form_ring(n, 1.0 / p)
            assert eq.residual < 1e-13
            verdict = stability_verdict(eq)
            inside, consistent = cabral_schmidt_check(n, 1.0 / p, verdict=verdict)
            assert inside == stable, (n, p)
            assert consistent, (n, p)
            expected = (
                StabilityClass.LINEARLY_STABLE if stable
                else StabilityClass.LINEARLY_UNSTABLE
            )
            assert verdict.classification is expected, (n, p)


def test_cabral_schmidt_rejects_pair():
    # at N = 2 the interval would call p = 0.2 stable; the ring is unstable
    verdict = stability_verdict(closed_form_ring(2, 5.0))
    assert verdict.instability_count == 1
    with pytest.raises(InvalidN, match="^need n >= 3$"):
        cabral_schmidt_check(2, 5.0, verdict)


def test_cabral_schmidt_rejects_zero_eps():
    verdict = stability_verdict(closed_form_ring(4, 1e-3))
    with pytest.raises(InvalidEpsilon, match="^need eps != 0$"):
        cabral_schmidt_check(4, 0.0, verdict)
