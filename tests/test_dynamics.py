"""Direct RK4 integration: field values, conservation, rigidity, growth."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexeq import (
    CollisionAbort,
    InvalidN,
    PlanarConfiguration,
    RelativeEquilibrium,
    Trajectory,
    VortexCollision,
    continuation,
    continue_equilibrium,
    dynamics,
    hamiltonian,
    integrate_rk4,
    newton_refine,
    ngon,
    perturbation_growth,
    potential,
    rigidity_error,
    stability,
    vortex_field,
    vorticity_moment,
)
from vortexeq.continuation import _TINY_SEP2

TWO_PI = 2 * np.pi


def unit_pair(eps):
    return PlanarConfiguration(np.array([0j, 1.0 + 0j]), eps)


def test_field_two_vortex_example():
    vel = vortex_field(unit_pair(1e-3)).view(float).reshape(-1, 2)
    np.testing.assert_allclose(vel[0], [0.0, -1e-3], atol=1e-16)
    np.testing.assert_allclose(vel[1], [0.0, 1.0], atol=1e-16)


def test_field_center_of_vorticity_stationary():
    rng = np.random.default_rng(0)
    pos = (rng.standard_normal((5, 2)) * 2.0).view(complex).ravel()
    config = PlanarConfiguration(pos, 2e-3)
    vel = vortex_field(config)
    assert vel.shape == (5,)
    vel = vel.view(float).reshape(-1, 2)
    np.testing.assert_allclose(config.gammas @ vel, [0.0, 0.0], atol=1e-14)


def test_field_rotates_equilibrium(min3_eq):
    config = PlanarConfiguration.from_equilibrium(min3_eq)
    vel = vortex_field(config)
    perp = 1j * config.positions
    assert np.abs((vel - min3_eq.omega * perp).view(float)).max() < 1e-12


def test_hamiltonian_unit_distances():
    pair = PlanarConfiguration(np.array([0j, 1.0 + 0j]), 1.0)
    assert hamiltonian(pair) == pytest.approx(0.0, abs=1e-15)
    far = PlanarConfiguration(np.array([0j, np.e + 0j]), 1.0)
    assert hamiltonian(far) == pytest.approx(-1.0, abs=1e-14)


def test_hamiltonian_scaling_law():
    rng = np.random.default_rng(1)
    pos = rng.standard_normal((4, 2)).view(complex).ravel()
    config = PlanarConfiguration(pos, 1.0)
    scaled = PlanarConfiguration(3.0 * pos, 1.0)
    n = 4
    drop = (n * (n - 1) / 2) * np.log(3.0)
    assert hamiltonian(scaled) == pytest.approx(hamiltonian(config) - drop, rel=1e-12)


def test_pair_sums_match_the_triu_indices_formula_bitwise():
    # V and H sum over pairs i < j through an ordered mask; it must keep the
    # row-major pair order of np.triu_indices, so the sums agree to the bit
    rng = np.random.default_rng(5)
    for n in [*range(2, 30), 50, 100]:
        iu = np.triu_indices(n, 1)
        theta = rng.uniform(0.0, TWO_PI, n)
        cu = np.cos(theta[:, None] - theta[None, :])[iu]
        ref = np.float64(-np.sum(cu + 0.5 * np.log(2.0 - 2.0 * cu)))
        assert np.float64(potential(theta)).tobytes() == ref.tobytes(), n
        pairs = rng.standard_normal((n, 2))
        config = PlanarConfiguration(pairs.view(complex).ravel(), 1e-3)
        pos, g = config.positions.view(float).reshape(-1, 2), config.gammas
        d = pos[iu[0]] - pos[iu[1]]
        ref = np.float64(-np.sum(g[iu[0]] * g[iu[1]] * np.log(np.sqrt((d * d).sum(axis=1)))))
        assert np.float64(hamiltonian(config)).tobytes() == ref.tobytes(), n


def test_hamiltonian_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    pos = rng.standard_normal((4, 2)).view(complex).ravel()
    config = PlanarConfiguration(pos, 5e-3)
    moved = pos * np.exp(0.8j) + (0.3 - 0.7j)
    assert hamiltonian(
        PlanarConfiguration(moved, 5e-3)
    ) == pytest.approx(hamiltonian(config), rel=1e-12)


def test_configuration_rejects_collision():
    with pytest.raises(VortexCollision):
        PlanarConfiguration(np.array([0j, 1e-11 + 0j]), 1e-3)


@pytest.mark.parametrize("positions", [
    [0j, 1.0, np.nan], [0j, 1.0, complex(1.0, np.inf)], [[0.0, 0.0], [1.0, 0.0]],
], ids=["nan", "inf", "real_pairs"])
def test_configuration_rejects_non_finite_or_real_pairs(positions):
    # positions are one finite complex x + iy per vortex, never (M, 2) pairs
    with pytest.raises(ValueError, match="finite 1-d array"):
        PlanarConfiguration(np.array(positions), 1e-3)


def test_rk4_conservation_one_period(min3_eq):
    config = PlanarConfiguration.from_equilibrium(min3_eq)
    traj = integrate_rk4(config, TWO_PI / 4096, TWO_PI)
    assert traj.times.size == 4097
    assert np.all(np.diff(traj.times) > 0)
    assert rigidity_error(traj) < 1e-6
    h0 = hamiltonian(config)
    m0 = vorticity_moment(config)
    last = PlanarConfiguration(traj.positions[-1], config.epsilon)
    assert abs(hamiltonian(last) - h0) / abs(h0) < 1e-8
    assert abs(vorticity_moment(last) - m0) / abs(m0) < 1e-8
    cov0 = config.center_of_vorticity
    cov1 = PlanarConfiguration(
        traj.positions[-1], config.epsilon
    ).center_of_vorticity
    assert np.abs(cov1 - cov0).max() < 1e-10


def test_rk4_convergence_order(min3_eq):
    base = min3_eq.positions().view(float).reshape(-1, 2)
    config = PlanarConfiguration.from_equilibrium(min3_eq)

    def final_error(steps):
        traj = integrate_rk4(config, TWO_PI / steps, TWO_PI)
        angle = min3_eq.omega * traj.times[-1]
        c, s = np.cos(angle), np.sin(angle)
        exact = base @ np.array([[c, -s], [s, c]]).T
        return np.abs(traj.positions[-1].view(float).reshape(-1, 2) - exact).max()

    def rigidity(steps):
        return rigidity_error(integrate_rk4(config, TWO_PI / steps, TWO_PI))

    order = np.log2(final_error(256) / final_error(512))
    assert 3.7 <= order <= 4.3
    # the shape error superconverges: the leading global error is a rotation
    # lag, invisible to pairwise distances, so at least 4th order here
    assert np.log2(rigidity(256) / rigidity(512)) >= 3.7


def real_form_rk4(pos, gammas, h, steps):
    """Classical RK4 on (M, 2) real positions with the pairwise x/y field."""

    def field(p):
        d = p[:, None, :] - p[None, :, :]
        d2 = (d * d).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        w = gammas[None, :] / d2
        return np.column_stack((-(d[:, :, 1] * w).sum(1), (d[:, :, 0] * w).sum(1)))

    out = [pos]
    for _ in range(steps):
        k1 = field(pos)
        k2 = field(pos + 0.5 * h * k1)
        k3 = field(pos + 0.5 * h * k2)
        k4 = field(pos + h * k3)
        pos = pos + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(pos)
    return np.array(out)


@pytest.mark.parametrize("case", ["min3_eq", "ring20"])
def test_rk4_matches_real_form(request, case):
    if case == "ring20":
        eq = continue_equilibrium(newton_refine(ngon(20)), 1e-3)
    else:
        eq = request.getfixturevalue(case)
    config = PlanarConfiguration.from_equilibrium(eq)
    traj = integrate_rk4(config, TWO_PI / 512, TWO_PI)
    pos = config.positions.view(float).reshape(-1, 2)
    ref = real_form_rk4(pos, config.gammas, TWO_PI / 512, 512)
    assert traj.positions.shape + (2,) == ref.shape
    assert np.abs(traj.positions.view(float).reshape(ref.shape) - ref).max() <= 1e-13


def test_rk4_collision_abort():
    pos = np.array([0j, 5e-10 + 0j, 1.0 + 0j])
    config = PlanarConfiguration(pos, 1e-3)
    with pytest.raises(CollisionAbort) as info:
        integrate_rk4(config, 1e-3, 1.0)
    partial = info.value.trajectory
    assert partial is not None
    assert partial.times.size >= 1


def test_rk4_collision_abort_mid_run():
    # two weak vortices near the unit circle, 5e-10 apart radially and 2e-9
    # tangentially; the strong vortex's shear closes the tangential gap
    pos = np.array([0j, 1.0 - 1e-9j, 1.0 + 5e-10 + 1e-9j, -1.5 + 0j])
    config = PlanarConfiguration(pos, 1e-20)
    with pytest.raises(CollisionAbort) as info:
        integrate_rk4(config, 0.01, 5.0)
    partial = info.value.trajectory
    assert partial.times[-1] == 0.01 * 115
    assert partial.times.size == 116
    sep = np.abs(partial.positions[:, 1] - partial.positions[:, 2])
    # the run stops at the first sample within ten times the guard
    assert sep[-1] < 1e-9 <= sep[:-1].min()


@pytest.mark.parametrize("h,t_final", [(1e-300, 1e300), (1e-7, 1.0)])
def test_rk4_step_count_is_bounded(h, t_final, monkeypatch):
    # rejected before the (steps + 1, M) sample array is allocated
    config = unit_pair(1e-3)

    def no_steps(*args):
        raise AssertionError("integration started")

    # a run builds its pair arrays, then calls the kernel at every stage
    for entry in ("_pair_arrays", "_biot_savart"):
        monkeypatch.setattr(dynamics, entry, no_steps)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds 1000000 steps"):
            integrate_rk4(config, h, t_final)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "h,t_final", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -1.0), (np.nan, 1.0), (0.1, np.nan)]
)
def test_integrate_rk4_needs_positive_step_and_time(h, t_final):
    with pytest.raises(ValueError, match="^need h > 0 and t_final > 0$"):
        integrate_rk4(unit_pair(1e-3), h, t_final)


@pytest.mark.parametrize("h,t_final", [(1.0, 0.3), (0.4, 1.0), (0.1, 1e-12)])
def test_integrate_rk4_needs_a_whole_step_count(h, t_final):
    # one step of 1.0 would end at t = 1.0, and two steps of 0.4 at t = 0.8
    with pytest.raises(ValueError, match="is not a whole number of steps$"):
        integrate_rk4(unit_pair(1e-3), h, t_final)


def test_integrate_rk4_ends_at_t_final():
    # 6.3 / 0.01 is 629.9999999999999 in floating point: 630 steps, within 1e-9
    traj = integrate_rk4(unit_pair(1e-3), 0.01, 6.3)
    assert traj.times.size == 631
    assert traj.times[-1] == pytest.approx(6.3, rel=1e-12)


def reference_biot_savart(z, gammas):
    """The Biot-Savart kernel as it was before it wrote into caller-owned
    arrays, kept verbatim as a bitwise oracle."""
    m = z.shape[-1]
    dz = z[..., None] - z[..., None, :]
    d2 = dz.real * dz.real + dz.imag * dz.imag
    d2.reshape(-1, m * m)[:, :: m + 1] = np.inf  # the diagonals, through a strided view
    low = d2.min()
    sep2 = d2.min(axis=(-2, -1)) if z.ndim > 1 else low  # one reduction unstacked (RK4)
    if low < _TINY_SEP2:
        # 1 / d2 would be inf: drop these pairs, the guards reject them by sep2
        d2[d2 < _TINY_SEP2] = np.inf
    return 1j * (dz * (gammas / d2)).sum(axis=-1), sep2


def reference_rk4(config, h, t_final):
    """The RK4 loop as it was before it ran in place, kept verbatim as a
    bitwise oracle; returns the trajectory and whether the run aborted."""
    steps = max(1, int(round(float(t_final) / float(h))))
    gammas = config.gammas
    z = config.positions
    out = np.empty((steps + 1, z.size), dtype=complex)
    out[0] = z
    times = h * np.arange(steps + 1)
    for i in range(steps + 1):
        # k1 of the next step also gives the abort check for the current state
        k1, sep2 = reference_biot_savart(z, gammas)
        aborted = sep2 < dynamics._ABORT_SEP**2
        if aborted or i == steps:
            break
        k2 = reference_biot_savart(z + 0.5 * h * k1, gammas)[0]
        k3 = reference_biot_savart(z + 0.5 * h * k2, gammas)[0]
        k4 = reference_biot_savart(z + h * k3, gammas)[0]
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    return Trajectory(times[: i + 1], out[: i + 1]), aborted


def near_rows(m, rng):
    """Three rows of m random positions: one clear, one with a coincident
    pair and one with a pair 1e-160 apart."""
    z = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    z[1, 1] = z[1, 0]
    z[2, :2] = 0.0, 1e-160j  # representable only near the origin
    return z


def test_kernel_matches_reference_bitwise():
    rng = np.random.default_rng(11)
    for m in [*range(2, 14), 25, 51, 101]:
        gammas = np.concatenate(([1.0], rng.uniform(-1e-2, 1e-2, m - 1)))
        stack = rng.standard_normal((3, 4, m)) + 1j * rng.standard_normal((3, 4, m))
        cases = [stack, stack[1, 2], near_rows(m, rng), *near_rows(m, rng)]
        for z in cases:
            vel, sep2 = dynamics._biot_savart(z, gammas)
            ref_vel, ref_sep2 = reference_biot_savart(z, gammas)
            assert vel.tobytes() == ref_vel.tobytes(), (m, z.shape)
            # the separations are taken before the dropped pairs become inf
            assert np.asarray(sep2).tobytes() == np.asarray(ref_sep2).tobytes(), (m, z.shape)
        rows = dynamics._biot_savart(near_rows(m, rng), gammas)[1]
        assert rows[0] > 0.0 and rows[1] == 0.0 and 0.0 < rows[2] < _TINY_SEP2


def rk4_cases(min3_eq):
    ring20 = continue_equilibrium(newton_refine(ngon(20)), 1e-3)
    rng = np.random.default_rng(4)
    perturbed = min3_eq.positions() + 1e-3 * rng.standard_normal(8).view(complex)
    near = np.array([0j, 1.0 - 1e-9j, 1.0 + 5e-10 + 1e-9j, -1.5 + 0j])
    return [
        (PlanarConfiguration.from_equilibrium(min3_eq), TWO_PI / 512, TWO_PI),
        (PlanarConfiguration.from_equilibrium(ring20), TWO_PI / 512, TWO_PI),
        (PlanarConfiguration(perturbed, min3_eq.epsilon), TWO_PI / 512, TWO_PI),
        (PlanarConfiguration(near, 1e-20), 0.01, 5.0),  # aborts at step 115
    ]


def run_rk4(config, h, t_final):
    try:
        return integrate_rk4(config, h, t_final), False
    except CollisionAbort as exc:
        return exc.trajectory, True


def assert_same_run(got, ref):
    (traj, aborted), (ref_traj, ref_aborted) = got, ref
    assert aborted == ref_aborted
    assert traj.times.tobytes() == ref_traj.times.tobytes()
    assert traj.positions.tobytes() == ref_traj.positions.tobytes()


def test_rk4_matches_reference_bitwise(min3_eq):
    cases = rk4_cases(min3_eq)
    for case in cases:
        assert_same_run(run_rk4(*case), reference_rk4(*case))
    # the abort comes at the same step, with the same partial trajectory
    assert run_rk4(*cases[-1])[0].times.size == 116


def blocked_rk4(config, h, t_final, rows):
    """The run as _rk4_blocks streams it in blocks of ``rows`` samples, each
    copied before the next overwrites it and joined; returns the trajectory and
    whether the run aborted."""
    steps = dynamics._steps(h, t_final)
    blocks = [(lo, z.copy(), aborted)
              for lo, z, aborted in dynamics._rk4_blocks(config, h, steps, rows)]
    assert [lo for lo, _, _ in blocks] == [k * rows for k in range(len(blocks))]
    assert all(len(z) == rows and not aborted for _, z, aborted in blocks[:-1])
    z = np.concatenate([z for _, z, _ in blocks])
    return Trajectory(h * np.arange(len(z)), z), blocks[-1][2]


@pytest.mark.parametrize("size", ["1", "B-1", "B", "B+1", "2B+3"])
def test_rk4_block_edges_do_not_show(min3_eq, ring_points, size):
    # simulate streams the run in blocks of B = _block_rows(M) samples for the CSV's
    # 2M + 1 columns; whichever sample a block ends on, the run is
    # the one-array loop's to the bit
    for eq in (min3_eq, continue_equilibrium(ring_points[10], 1e-3)):
        b = dynamics._block_rows(eq.n + 1)
        steps = {"1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+3": 2 * b + 3}[size]
        start = PlanarConfiguration.from_equilibrium(eq, 1e-3, 1)
        case = (start, TWO_PI / 512, steps * TWO_PI / 512)
        got = blocked_rk4(*case, b)
        assert got[0].times.size == steps + 1
        assert_same_run(got, reference_rk4(*case))


@pytest.mark.parametrize("rows", [115, 116, None], ids=["first-row", "last-row", "inside"])
def test_rk4_abort_at_a_block_edge(min3_eq, rows):
    # the abort comes at sample 115: on the first row of the second block, on
    # the last row of the first block, or inside the first block (B = 910)
    case = rk4_cases(min3_eq)[-1]
    got = blocked_rk4(*case, rows or dynamics._block_rows(4))
    assert got[1] and got[0].times.size == 116
    assert_same_run(got, reference_rk4(*case))


def test_rk4_runs_share_no_state(min3_eq):
    # runs of different N, one of them aborted, interleaved: each is the run
    # made alone, and no module holds an array between runs
    cases = rk4_cases(min3_eq)
    alone = [reference_rk4(*case) for case in cases]
    for k in [3, 0, 1, 3, 2, 0, 3, 1, 2]:
        assert_same_run(run_rk4(*cases[k]), alone[k])
    for module in (dynamics, continuation):
        assert not [name for name, v in vars(module).items() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("gap", [0.0, 1e-160], ids=["coincident", "1e-160"])
def test_guard_on_pairs_below_tiny(gap):
    rng = np.random.default_rng(6)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z[1], z[3] = 0.0, gap  # representable only near the origin
    with pytest.raises(VortexCollision):
        PlanarConfiguration(z, 1e-3)
    # a configuration changed after it was built reaches the kernel unchecked:
    # the close pair drops out of the field, with no overflow warning
    config = PlanarConfiguration(rng.standard_normal(5) + 0j, 1e-3)
    config.positions = z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vel = vortex_field(config)
    assert np.isfinite(vel).all()
    assert vel.tobytes() == reference_biot_savart(z, config.gammas)[0].tobytes()


def test_rigidity_error_flags_shear():
    rng = np.random.default_rng(3)
    pos = (rng.standard_normal((4, 2)) * 1.5).view(complex).ravel()
    config = PlanarConfiguration(pos, 0.5)
    traj = integrate_rk4(config, 1e-3, 1.0)
    assert rigidity_error(traj) > 1e-3


def test_rigidity_error_matches_all_pairs(min3_eq):
    rng = np.random.default_rng(5)
    config = PlanarConfiguration.from_equilibrium(min3_eq)
    pairs = rng.standard_normal((33, 7, 2))
    long = 2 * dynamics._block_rows(7) + 3  # over two time blocks
    trajectories = [
        Trajectory(np.arange(33.0), pairs.view(complex)[..., 0]),
        integrate_rk4(config, 0.05, 2.0),
        Trajectory(np.arange(float(long)), rng.standard_normal((long, 14)).view(complex)),
    ]
    for traj in trajectories:
        pos = traj.positions.view(float).reshape(*traj.positions.shape, 2)
        iu = np.triu_indices(pos.shape[1], 1)
        d = pos[:, iu[0], :] - pos[:, iu[1], :]
        dist = np.sqrt((d * d).sum(axis=2))
        assert rigidity_error(traj) == float(np.abs(dist - dist[0]).max())


def perturbed_run(eq, amplitude, t_final, h, seed=0):
    """The growth report and trajectory of one run from a perturbed start."""
    start = PlanarConfiguration.from_equilibrium(eq, amplitude, seed)
    traj = integrate_rk4(start, h, t_final)
    return perturbation_growth(eq, traj, amplitude), traj


def test_growth_unstable_pair_matches_prediction(collinear_eq):
    report, traj = perturbed_run(collinear_eq, 1e-6, 200.0, 0.02)
    target = np.sqrt(2 * 1.5 * 1e-3)
    assert report.fitted_rate == pytest.approx(target, rel=0.2)
    assert report.predicted_rate == pytest.approx(target, rel=0.01)
    assert report.window_points > 100
    # the deviation from the rigidly rotating start, one sample at a time
    pos = traj.positions.view(float).reshape(*traj.positions.shape, 2)
    base = collinear_eq.positions().view(float).reshape(-1, 2)
    dev = np.empty(traj.times.size)
    for i, t in enumerate(traj.times):
        c, s = np.cos(collinear_eq.omega * t), np.sin(collinear_eq.omega * t)
        dev[i] = np.linalg.norm(pos[i] - base @ np.array([[c, -s], [s, c]]).T)
    assert report.max_deviation == pytest.approx(dev.max(), rel=1e-12)
    window = (dev >= 10.0 * report.amplitude) & (dev <= 1e-2)
    assert report.window_points == np.count_nonzero(window)
    # over more than two time blocks, the deviation and the fit have the bits
    # of the whole-trajectory arithmetic
    assert traj.times.size > 2 * dynamics._block_rows(traj.positions.shape[1])
    rotated = np.exp(1j * collinear_eq.omega * traj.times)[:, None] * collinear_eq.positions()
    whole = np.linalg.norm(traj.positions - rotated, axis=1)
    fitted = (whole >= 10.0 * report.amplitude) & (whole <= 1e-2)
    assert report.max_deviation == float(whole.max())
    assert report.fitted_rate == float(np.polyfit(traj.times[fitted], np.log(whole[fitted]), 1)[0])


def test_growth_stable_pair_stays_flat(triangle_eq):
    report, _ = perturbed_run(triangle_eq, 1e-6, 200.0, 0.02)
    unstable_rate = np.sqrt(2 * 1.5 * 1e-3)
    assert abs(report.fitted_rate) < 0.1 * unstable_rate
    assert report.max_deviation < 1e-4


def test_growth_zero_amplitude(triangle_eq):
    report, _ = perturbed_run(triangle_eq, 0.0, TWO_PI, TWO_PI / 4096)
    assert report.max_deviation < 1e-10


def test_growth_deterministic(collinear_eq):
    a, _ = perturbed_run(collinear_eq, 1e-6, 20.0, 0.05, seed=4)
    b, _ = perturbed_run(collinear_eq, 1e-6, 20.0, 0.05, seed=4)
    assert a.fitted_rate == b.fitted_rate
    assert a.max_deviation == b.max_deviation


def test_unperturbed_start_is_the_equilibrium(min3_eq):
    plain = PlanarConfiguration.from_equilibrium(min3_eq).positions
    assert plain.tobytes() == min3_eq.positions().tobytes()
    for seed in (0, 7):
        zero = PlanarConfiguration.from_equilibrium(min3_eq, 0.0, seed).positions
        assert zero.tobytes() == plain.tobytes()


def test_perturbed_start_moves_the_weak_vortices_off_the_symmetry_modes(min3_eq):
    # an amplitude of 1 keeps the rounding of z + displacement below 1e-15 of it
    z = min3_eq.positions()
    moved = PlanarConfiguration.from_equilibrium(min3_eq, 1.0, 3).positions
    assert moved[:1].tobytes() == z[:1].tobytes()  # the strong vortex stays put
    disp = moved[1:] - z[1:]
    assert np.linalg.norm(disp) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    # back to (dr, dtheta): orthogonal to the rotation and scaling directions
    polar = disp * np.exp(-1j * min3_eq.theta)
    delta = np.concatenate((polar.real, polar.imag / min3_eq.r))
    for unit in stability._symmetry_directions(min3_eq.r):
        assert abs(delta @ unit) <= 1e-14 * np.linalg.norm(delta)


def test_perturbed_start_follows_the_seed(min3_eq):
    def start(seed):
        return PlanarConfiguration.from_equilibrium(min3_eq, 1e-6, seed).positions.tobytes()

    assert start(5) == start(5)
    assert start(5) != start(6)


def test_perturbed_start_needs_two_weak_vortices():
    eps = 1e-2
    eq = RelativeEquilibrium(r=[1.0 / np.sqrt(1.0 + eps)], theta=[0.0], epsilon=eps)
    with pytest.raises(InvalidN, match="^N = 1 has no perturbation direction"):
        PlanarConfiguration.from_equilibrium(eq, 1e-6)
    assert PlanarConfiguration.from_equilibrium(eq).positions.size == 2


def pairwise_field(pos, gammas):
    """Point-vortex velocities summed pair by pair."""
    vel = np.zeros_like(pos)
    scale = np.zeros(len(pos))
    for j in range(len(pos)):
        for i in range(len(pos)):
            if i != j:
                dx, dy = pos[j] - pos[i]
                d2 = dx * dx + dy * dy
                vel[j] += gammas[i] * np.array([-dy, dx]) / d2
                scale[j] += abs(gammas[i]) / np.sqrt(d2)
    return vel, scale


@st.composite
def near_pair_positions(draw, log10_sep):
    """Random vortex positions with one pair ``sep`` apart."""
    m = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(-2.0, 2.0, (m, 2))
    k, j = rng.choice(m, 2, replace=False)
    angle = draw(st.floats(0.0, 2 * np.pi))
    sep = 10.0 ** draw(log10_sep)
    pos[k] = pos[j] + sep * np.array([np.cos(angle), np.sin(angle)])
    return pos, sep


@settings(max_examples=60, deadline=None, database=None)
@given(
    near_pair_positions(st.floats(-8.0, 0.0)),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-8.0, 0.0),
)
def test_field_matches_pairwise_sum(case, sign, log10_eps):
    pos, _ = case
    eps = sign * 0.5 * 10.0**log10_eps
    config = PlanarConfiguration(pos.view(complex).ravel(), eps)
    ref, scale = pairwise_field(pos, config.gammas)
    err = np.abs(vortex_field(config).view(float).reshape(-1, 2) - ref).max(axis=1)
    assert np.all(err <= 1e-13 * scale)


@settings(max_examples=40, deadline=None, database=None)
@given(near_pair_positions(st.floats(-14.0, np.log10(0.99e-10))))
def test_configuration_guard_below_threshold(case):
    pos, _ = case
    with pytest.raises(VortexCollision):
        PlanarConfiguration(pos.view(complex).ravel(), 1e-3)
