"""Command-line interface: exit codes, file schemas, determinism, atomicity."""

import json

import numpy as np
import pytest

from vortexeq import (
    NoConvergence,
    RelativeEquilibrium,
    Trajectory,
    cli,
    continuation,
    dynamics,
    stability,
)
from vortexeq.cli import _trajectory_csv, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


@pytest.fixture(scope="module")
def catalog4_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "catalog4.json"
    assert main(["find", "--n", "4", "--starts", "300", "--seed", "1",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def equilibria_path(tmp_path_factory, catalog4_path):
    path = tmp_path_factory.mktemp("cli-eq") / "eq4.json"
    assert main(["continue", "--catalog", str(catalog4_path), "--family", "0",
                 "--eps", "1e-2,1e-3,1e-4,-1e-3", "--out", str(path)]) == 0
    return path


# (command, option) pairs where the command does not read the option.  The
# first six were tolerances that are now fixed: the start gap (1e-2), the
# family dedup distance (1e-6), the Hessian zero threshold (1e-9 times
# max(1, largest |eigenvalue|)), the search's Newton tolerance (worked out
# from N), the continuation residual (1e-12) and the linearization zero
# threshold (1e-6 sqrt(|eps|)).
DROPPED_FLAGS = [
    ("find", "--delta"),
    ("find", "--dedup-tol"),
    ("find", "--tol-zero"),
    ("find", "--tol-newton"),
    ("continue", "--tol-newton"),
    ("stability", "--tol-zero"),
    ("ngon-spectrum", "--seed"),
    ("ngon-spectrum", "--tol-newton"),
    ("ngon-spectrum", "--tol-zero"),
    ("continue", "--seed"),
    ("continue", "--tol-zero"),
    ("stability", "--seed"),
    ("stability", "--tol-newton"),
    ("simulate", "--tol-newton"),
    ("simulate", "--tol-zero"),
]

CONFIG_KEYS = {
    "find": {"command", "format", "n", "starts", "seed", "plot_data"},
    "ngon-spectrum": {"command", "format", "n"},
    "continue": {"command", "format", "catalog", "family", "eps"},
    "stability": {"command", "format", "equilibria"},
    "simulate": {"command", "format", "equilibria", "index", "h", "T", "perturb",
                 "seed"},
}


@pytest.fixture(scope="module")
def valid_argv(catalog4_path, equilibria_path):
    return {
        "find": ["--n", "2", "--starts", "1"],
        "ngon-spectrum": ["--n", "4"],
        "continue": ["--catalog", str(catalog4_path), "--eps", "1e-3"],
        "stability": ["--equilibria", str(equilibria_path)],
        "simulate": ["--equilibria", str(equilibria_path), "--h", "0.1", "--T", "1"],
    }


@pytest.mark.parametrize("command,flag", DROPPED_FLAGS)
def test_unread_flags_are_usage_errors(valid_argv, command, flag):
    assert run_usage_error(command, *valid_argv[command], flag, "1") == 2


def _csv_config(path):
    line = path.read_text().split("\n")[1]
    assert line.startswith("# config=")
    return json.loads(line[len("# config="):])


def test_config_key_sets(tmp_path, catalog4_path, equilibria_path, capsys):
    configs = {
        "find": json.loads(catalog4_path.read_text())["config"],
        "continue": json.loads(equilibria_path.read_text())["config"],
    }
    run(capsys, "stability", "--equilibria", str(equilibria_path),
        "--out", str(tmp_path / "st.json"))
    configs["stability"] = json.loads((tmp_path / "st.json").read_text())["config"]
    run(capsys, "ngon-spectrum", "--n", "4", "--out", str(tmp_path / "ngon.csv"))
    configs["ngon-spectrum"] = _csv_config(tmp_path / "ngon.csv")
    run(capsys, "simulate", "--equilibria", str(equilibria_path), "--h", "0.1",
        "--T", "1", "--out", str(tmp_path / "sim"))
    configs["simulate"] = _csv_config(tmp_path / "sim.csv")
    report = json.loads((tmp_path / "sim.report.json").read_text())
    assert report["config"] == configs["simulate"]
    for command, config in configs.items():
        assert set(config) == CONFIG_KEYS[command], command
        assert config["command"] == command
        csv = command in ("ngon-spectrum", "simulate")
        assert config["format"] == ("csv" if csv else "json")


def test_find_catalog_schema(catalog4_path):
    data = json.loads(catalog4_path.read_text())
    assert data["tool"] == "vortexeq"
    assert data["version"]
    assert data["config"]["command"] == "find"
    assert data["config"]["seed"] == 1
    assert data["n"] == 4
    assert len(data["families"]) == 3
    first = data["families"][0]
    assert set(first) >= {"angles", "class", "morse_index", "spectrum",
                          "value", "residual"}
    assert first["class"] == "min"
    values = [f["value"] for f in data["families"]]
    assert values == sorted(values)


def test_find_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "find", "--n", "3", "--starts", "60",
                         "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_find_stdout_mode(capsys):
    code, out, _ = run(capsys, "find", "--n", "2", "--starts", "50", "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["families"]) == 2


def test_find_plot_data(tmp_path, capsys):
    path = tmp_path / "cat.json"
    code, _, _ = run(capsys, "find", "--n", "3", "--starts", "60", "--seed", "3",
                     "--plot-data", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    for fam in data["families"]:
        pts = np.asarray(fam["plot_data"])
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-12)


def test_find_rejects_a_negative_seed(tmp_path, capsys):
    # a usage error before the search starts, so no file is written
    path = tmp_path / "cat.json"
    assert run_usage_error("find", "--n", "3", "--starts", "5", "--seed", "-1",
                           "--out", str(path)) == 2
    assert "argument --seed:" in capsys.readouterr().err
    assert not path.exists()


def test_find_usage_errors():
    assert run_usage_error("find", "--n", "1") == 2
    assert run_usage_error("find", "--n", "3", "--starts", "-4") == 2
    assert run_usage_error("find", "--n", "3", "--starts", "0") == 2
    assert run_usage_error("find") == 2
    assert run_usage_error("find", "--n", "4", "--format", "csv") == 2


def test_no_temp_files_left(tmp_path, capsys):
    path = tmp_path / "cat.json"
    run(capsys, "find", "--n", "2", "--starts", "40", "--out", str(path))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "cat.json"]
    assert leftovers == []


@pytest.fixture
def at_bounds(equilibria_path):
    # every bounded option at its bound, but --h and --T, whose bound 0 is excluded
    return {
        "find": {"--n": "2", "--starts": "1", "--seed": "0"},
        "ngon-spectrum": {"--n": "3"},
        "simulate": {"--equilibria": str(equilibria_path), "--h": "0.1", "--T": "1",
                     "--perturb": "0", "--seed": "0"},
    }


# the first value past each bound: the bound itself where it is excluded
PAST_BOUND = {
    ("find", "--n"): "1", ("find", "--starts"): "0", ("find", "--seed"): "-1",
    ("ngon-spectrum", "--n"): "2", ("simulate", "--h"): "0", ("simulate", "--T"): "0",
    ("simulate", "--perturb"): "-5e-324", ("simulate", "--seed"): "-1",
}


@pytest.mark.parametrize("command", ["find", "ngon-spectrum", "simulate"])
def test_bounds_are_accepted(tmp_path, capsys, at_bounds, command):
    argv = {**at_bounds[command], "--out": str(tmp_path / "out.csv")}
    assert run(capsys, command, *(tok for pair in argv.items() for tok in pair))[0] == 0


@pytest.mark.parametrize("command,flag,value", [
    (*option, value) for option, past in PAST_BOUND.items()
    for value in (past, "nan", "inf", "abc")
])
def test_each_bounded_option_refuses_its_own_value(tmp_path, capsys, at_bounds, command, flag,
                                                   value):
    # a usage error before anything runs, naming the argument; no file is written
    argv = {**at_bounds[command], flag: value, "--out": str(tmp_path / "out.csv")}
    assert run_usage_error(command, *(tok for pair in argv.items() for tok in pair)) == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ngon_spectrum_table(tmp_path, capsys):
    path = tmp_path / "spec4.csv"
    code, _, _ = run(capsys, "ngon-spectrum", "--n", "4", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# tool=vortexeq")
    assert lines[2] == "j,closed_form,dense,abs_difference"
    rows = [line.split(",") for line in lines[3:]]
    closed = sorted(float(r[1]) for r in rows)
    np.testing.assert_allclose(closed, [-0.5, -0.5, 0.0, 2.0], atol=1e-12)
    assert max(float(r[3]) for r in rows) < 1e-9


def test_ngon_spectrum_contains_n_minus_2(tmp_path, capsys):
    path = tmp_path / "spec5.csv"
    run(capsys, "ngon-spectrum", "--n", "5", "--out", str(path))
    rows = path.read_text().strip().split("\n")[3:]
    closed = [float(r.split(",")[1]) for r in rows]
    assert any(abs(v - 3.0) < 1e-12 for v in closed)


def test_ngon_spectrum_usage():
    assert run_usage_error("ngon-spectrum", "--n", "2") == 2


def test_continue_output(equilibria_path):
    data = json.loads(equilibria_path.read_text())
    eps = [e["epsilon"] for e in data["equilibria"]]
    assert eps == [1e-2, 1e-3, 1e-4, -1e-3]
    assert max(e["residual"] for e in data["equilibria"]) < 1e-12
    assert data["seed_family"]["class"] == "min"
    pos = data["lemma1_scaling"]["positive"]
    assert pos["q0_bounded"] and pos["radius_bounded"]
    assert data["lemma1_scaling"]["negative"] is None


def test_continue_usage_errors(catalog4_path):
    assert run_usage_error("continue", "--catalog", str(catalog4_path),
                           "--eps", "1e-3,0") == 2
    assert run_usage_error("continue", "--catalog", str(catalog4_path),
                           "--eps", "") == 2
    for eps in ("1e-3,nan", "1e-3,inf", "-inf"):
        assert run_usage_error("continue", "--catalog", str(catalog4_path),
                               "--eps", eps) == 2


def test_continue_checks_every_eps_before_solving(tmp_path, catalog4_path, capsys,
                                                  monkeypatch):
    # eps = 0.2 is above the ceiling: the run stops before eps = 1e-3 is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("a continuation ran")

    monkeypatch.setattr(continuation, "_solve", no_solve)
    out = tmp_path / "eq.json"
    code, _, err = run(capsys, "continue", "--catalog", str(catalog4_path),
                       "--eps", "1e-3,0.2", "--out", str(out))
    assert code == 1
    assert "InvalidEpsilon: eps = 0.2 outside 0 < |eps| <= 0.05" in err
    assert list(tmp_path.iterdir()) == []


def test_continue_missing_catalog(capsys):
    code, _, err = run(capsys, "continue", "--catalog", "/nonexistent.json",
                       "--eps", "1e-3")
    assert code == 1
    assert "error" in err


def test_continue_degenerate_seed(tmp_path, catalog4_path, capsys):
    # a record that claims a degenerate index is rejected: the loader
    # recomputes (0, 1, 3) from the angles and refuses the mismatch
    data = json.loads(catalog4_path.read_text())
    fam = dict(data["families"][0])
    fam["morse_index"] = [0, 2, 2]
    data["families"] = [fam]
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "continue", "--catalog", str(bad), "--eps", "1e-3")
    assert code == 1
    assert "malformed input" in err and "morse_index [0, 2, 2]" in err


def _continue_in(directory, monkeypatch, capsys, catalog):
    # the config echoes the --catalog path, so every run uses the same one
    directory.mkdir()
    (directory / "catalog4.json").write_text(json.dumps(catalog))
    monkeypatch.chdir(directory)
    code, _, err = run(capsys, "continue", "--catalog", "catalog4.json",
                       "--family", "1", "--eps", "1e-3,-1e-3", "--out", "eq.json")
    return code, err, directory / "eq.json"


def test_continue_reads_only_angles_and_morse_index(tmp_path, catalog4_path,
                                                    monkeypatch, capsys):
    data = json.loads(catalog4_path.read_text())
    code, _, full = _continue_in(tmp_path / "full", monkeypatch, capsys, data)
    assert code == 0
    data["families"] = [{k: fam[k] for k in ("angles", "morse_index")}
                        for fam in data["families"]]
    code, _, stripped = _continue_in(tmp_path / "stripped", monkeypatch, capsys, data)
    assert code == 0
    assert stripped.read_bytes() == full.read_bytes()


def test_continue_rejects_a_non_critical_family(tmp_path, catalog4_path,
                                                monkeypatch, capsys):
    # theta_2 moved by 1e-3 leaves every stored field as it was, but the
    # gradient sup-norm is now 2.3e-3
    data = json.loads(catalog4_path.read_text())
    fam = data["families"][1]
    fam["angles"][1] += 1e-3
    code, err, out = _continue_in(tmp_path / "moved", monkeypatch, capsys, data)
    assert code == 1
    assert "NotCritical" in err
    assert not out.exists()


def test_stability_recomputes_the_seed_spectrum(tmp_path, equilibria_path,
                                                monkeypatch, capsys):
    # the asymptotic predictions come from the spectrum recomputed at the
    # seed's angles, not from the stored one
    def verdicts(name, data):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "eq.json").write_text(json.dumps(data))
        monkeypatch.chdir(directory)
        code, _, _ = run(capsys, "stability", "--equilibria", "eq.json",
                         "--out", "verdicts.json")
        assert code == 0
        return (directory / "verdicts.json").read_bytes()

    data = json.loads(equilibria_path.read_text())
    untouched = verdicts("untouched", data)
    seed = data["seed_family"]
    seed["spectrum"] = [2.0 * v for v in seed["spectrum"]]
    assert verdicts("edited", data) == untouched


def test_continue_partial_output_on_failure(tmp_path, catalog4_path, capsys,
                                            monkeypatch):
    solve = continuation._solve

    def fail_second(cp, eps, x0):
        if eps == 2e-3:
            raise NoConvergence("stalled on purpose")
        return solve(cp, eps, x0)

    monkeypatch.setattr(continuation, "_solve", fail_second)
    out = tmp_path / "partial.json"
    code, _, err = run(capsys, "continue", "--catalog", str(catalog4_path),
                       "--family", "0", "--eps", "1e-3,2e-3,3e-3", "--out", str(out))
    assert code == 1
    data = json.loads(out.read_text())
    assert data["error"] == "sweep failed at eps = 0.002: stalled on purpose"
    assert [eq["epsilon"] for eq in data["equilibria"]] == [1e-3]
    assert data["equilibria"][0]["residual"] < 1e-12
    assert err == f"error: {data['error']}\n"


def test_stability_verdicts(tmp_path, equilibria_path, capsys):
    out = tmp_path / "verdicts.json"
    code, _, _ = run(capsys, "stability", "--equilibria", str(equilibria_path),
                     "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    verdicts = {v["epsilon"]: v for v in data["verdicts"]}
    assert verdicts[1e-3]["classification"] == "stable"
    assert verdicts[-1e-3]["classification"] == "unstable"
    assert verdicts[-1e-3]["instability_count"] == 3
    for v in data["verdicts"]:
        assert v["n_zero"] == 2
        assert len(v["spectrum"]) == 8
        assert v["asymptotic"]["mismatch"] < 0.1
    mm = [verdicts[e]["asymptotic"]["mismatch"] for e in (1e-2, 1e-3, 1e-4)]
    assert mm[0] > mm[1] > mm[2]


def bottleneck_mismatch(actual, predicted):
    """Oracle for the stability command's asymptotic mismatch: the least
    worst |a - p| / |p| over all one-to-one matchings of the actual and
    predicted eigenvalues, found by bisecting the sorted costs for the least
    one whose allowed pairs admit a perfect matching (augmenting paths)."""
    cost = np.abs(actual[:, None] - predicted[None, :]) / np.abs(predicted)
    levels = np.unique(cost)

    def perfect(limit):
        allowed, owner = cost <= limit, [-1] * len(predicted)

        def augment(i, seen):
            for j in np.flatnonzero(allowed[i]):
                if j not in seen:
                    seen.add(j)
                    if owner[j] < 0 or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, set()) for i in range(len(actual)))

    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if perfect(levels[mid]) else (mid + 1, hi)
    return float(levels[lo])


def test_asymptotic_mismatch_is_the_bottleneck_matching(tmp_path):
    # at N = 50 and eps < 0 a greedy nearest-first pairing matched imaginary
    # predictions with real eigenvalues and reported 12.3 for the minimum and
    # 25.2 for the ring; the spectra agree with the prediction to about 4%.
    # The sorted-order matching bounds the optimum from above, and exceeds it
    # where the prediction is off by over 100%: at N = 9 (family 1, eps = -5e-2
    # and -3e-2) it reports 1.277 and 1.195 against optima of 1.186 and 1.014.
    runs = [(50, 80, 5, 0, "-1e-4,1e-4"), (50, 80, 5, 2, "-1e-4,1e-4"),
            (9, 200, 9, 1, "-5e-2,-3e-2")]
    found = []
    for n, starts, seed, family, eps in runs:
        catalog = tmp_path / f"catalog{n}.json"
        if not catalog.exists():
            assert main(["find", "--n", str(n), "--starts", str(starts), "--seed", str(seed),
                         "--out", str(catalog)]) == 0
        families = json.loads(catalog.read_text())["families"]
        assert families[family]["morse_index"][0] == (family if n == 50 else 1)
        eq, verdicts = tmp_path / f"eq{n}-{family}.json", tmp_path / f"verdicts{n}-{family}.json"
        assert main(["continue", "--catalog", str(catalog), "--family", str(family),
                     f"--eps={eps}", "--out", str(eq)]) == 0
        assert main(["stability", "--equilibria", str(eq), "--out", str(verdicts)]) == 0
        for v in json.loads(verdicts.read_text())["verdicts"]:
            actual = np.array([complex(*pair) for pair in v["spectrum"]])
            predicted = np.array([complex(*pair) for pair in v["asymptotic"]["eigenvalues"]])
            oracle = bottleneck_mismatch(actual[np.abs(actual) > 0], predicted)
            mismatch = v["asymptotic"]["mismatch"]
            assert mismatch >= oracle
            if n == 50:  # the minimum and the ring
                assert mismatch == pytest.approx(oracle, rel=1e-3)
                assert mismatch < 0.05, (family, v["epsilon"])
            else:
                found.append((v["epsilon"], round(mismatch, 3), round(oracle, 3)))
    assert found == [(-5e-2, 1.277, 1.186), (-3e-2, 1.195, 1.014)]


def test_stability_reports_marginal_verdicts(equilibria_path, capsys, monkeypatch):
    # a zero threshold above every |eigenvalue| makes all eight zeros
    monkeypatch.setattr(stability, "_ZERO_TOL", 100.0)
    code, out, _ = run(capsys, "stability", "--equilibria", str(equilibria_path))
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 4
    for v in verdicts:
        assert v["classification"] == "marginal"
        assert v["n_zero"] == 8


@pytest.mark.parametrize("eps", [["--eps", "-1e-3"], ["--eps=-1e-3"],
                                 ["--eps", "-1e-3,-1e-2"], ["--eps=-1e-3,-1e-2"]])
def test_negative_eps_after_a_space_or_equals(tmp_path, catalog4_path, capsys, eps):
    out = tmp_path / "eq.json"
    code, _, _ = run(capsys, "continue", "--catalog", str(catalog4_path), *eps,
                     "--out", str(out))
    assert code == 0
    values = [float(v) for v in eps[-1].split("=")[-1].split(",")]
    assert [e["epsilon"] for e in json.loads(out.read_text())["equilibria"]] == values


def test_negative_eps_pipeline(tmp_path, catalog4_path, capsys):
    eq = tmp_path / "eq-neg.json"
    code, _, _ = run(capsys, "continue", "--catalog", str(catalog4_path),
                     "--eps=-1e-3,-1e-2", "--out", str(eq))
    assert code == 0
    data = json.loads(eq.read_text())
    assert [e["epsilon"] for e in data["equilibria"]] == [-1e-3, -1e-2]
    assert max(e["residual"] for e in data["equilibria"]) < 1e-12
    out = tmp_path / "verdicts-neg.json"
    code, _, _ = run(capsys, "stability", "--equilibria", str(eq), "--out", str(out))
    assert code == 0
    verdicts = json.loads(out.read_text())["verdicts"]
    assert [v["epsilon"] for v in verdicts] == [-1e-3, -1e-2]
    assert all(v["classification"] == "unstable" for v in verdicts)
    assert all(v["n_zero"] == 2 for v in verdicts)


def test_stability_recomputes_the_residual(tmp_path, equilibria_path, capsys):
    # theta_1 moved by 1e-3 leaves the stored residual at roundoff, but the
    # state is no longer an equilibrium (true residual about 8e-6)
    data = json.loads(equilibria_path.read_text())
    rec = dict(data["equilibria"][1])
    assert rec["epsilon"] == 1e-3 and rec["residual"] < 1e-12
    rec["theta"] = [rec["theta"][0] + 1e-3] + rec["theta"][1:]
    data["equilibria"] = [rec]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "verdicts.json"
    code, _, err = run(capsys, "stability", "--equilibria", str(bad),
                       "--out", str(out))
    assert code == 1
    assert "residual" in err
    assert not out.exists()


def test_simulate_rejects_a_non_equilibrium(tmp_path, equilibria_path, capsys):
    # the same tampered record as above, integrated without --perturb
    data = json.loads(equilibria_path.read_text())
    rec = dict(data["equilibria"][1])
    rec["theta"] = [rec["theta"][0] + 1e-3] + rec["theta"][1:]
    data["equilibria"] = [rec]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "simulate", "--equilibria", str(bad), "--h", "0.1",
                       "--T", "1", "--out", str(tmp_path / "run"))
    assert code == 1
    assert "residual" in err
    assert not (tmp_path / "run.csv").exists()
    assert not (tmp_path / "run.report.json").exists()


def test_equilibria_load_from_epsilon_r_and_theta(tmp_path, equilibria_path,
                                                  monkeypatch, capsys):
    # the config echoes --equilibria, so every run uses the same relative path
    def outputs(name, data):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "eq.json").write_text(json.dumps(data))
        monkeypatch.chdir(directory)
        for argv in (["stability", "--out", "verdicts.json"],
                     ["simulate", "--index", "1", "--h", "0.05", "--T", "3",
                      "--out", "run"],
                     ["simulate", "--index", "3", "--h", "0.05", "--T", "3",
                      "--perturb", "1e-6", "--out", "run-perturbed"]):
            code, _, _ = run(capsys, argv[0], "--equilibria", "eq.json", *argv[1:])
            assert code == 0
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "eq.json"}

    data = json.loads(equilibria_path.read_text())
    full = outputs("full", data)
    data["equilibria"] = [{k: rec[k] for k in ("epsilon", "r", "theta")}
                          for rec in data["equilibria"]]
    assert outputs("stripped", data) == full
    assert len(full) == 5


# One edited field of the second equilibrium, and the words the error names.
MALFORMED_EQUILIBRIA = {
    "omega": ({"omega": 2.0}, "omega must be 1"),
    "scalar_r": ({"r": 5.0}, "r and theta"),
    "nan_in_r": ({"r": [float("nan"), 1.0, 1.0]}, "r and theta"),
    "zero_epsilon": ({"epsilon": 0.0}, "epsilon must be finite and nonzero"),
    "zero_r": ({"r": [0.0, 1.0, 1.0, 1.0]}, "radii must be positive"),
    "negative_r": ({"r": [-1.0, 1.0, 1.0, 1.0]}, "radii must be positive"),
    "empty": ({"r": [], "theta": []}, "r and theta must not be empty"),
}


@pytest.mark.parametrize("command", ["stability", "simulate"])
@pytest.mark.parametrize("case", MALFORMED_EQUILIBRIA)
def test_malformed_equilibria_rejected(tmp_path, equilibria_path, capsys, command, case):
    edit, words = MALFORMED_EQUILIBRIA[case]
    data = json.loads(equilibria_path.read_text())
    data["equilibria"] = [dict(data["equilibria"][1], **edit)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    extra = ["--h", "0.1", "--T", "1"] if command == "simulate" else []
    code, _, err = run(capsys, command, "--equilibria", str(bad), *extra,
                         "--out", str(tmp_path / "out"))
    assert code == 1
    assert "malformed input" in err and words in err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("family", [{"morse_index": 5}, 3], ids=["morse_index", "family"])
def test_wrongly_typed_catalog_field_rejected(tmp_path, catalog4_path, capsys, family):
    data = json.loads(catalog4_path.read_text())
    if isinstance(family, dict):
        family = dict(data["families"][0], **family)
    data["families"] = [family]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "continue", "--catalog", str(bad), "--eps", "1e-3")
    assert code == 1
    assert "malformed input" in err and "TypeError" in err


def test_trajectory_csv_rows_are_float_reprs():
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 0.1, 1.0 / 3.0]
    positions = np.array(values[:6] + values[1:7]).view(complex).reshape(2, 3)
    traj = Trajectory(np.array([0.0, 1e-300]), positions)
    lines = _trajectory_csv(traj, {"command": "simulate"}).split("\n")
    rows = [
        ",".join(repr(float(v)) for v in [t, *positions[i].view(float)])
        for i, t in enumerate(traj.times)
    ]
    assert lines[3:] == rows + [""]
    assert lines[3].startswith("0.0,-0.0,5e-324,")


def test_stability_deterministic(tmp_path, equilibria_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "stability", "--equilibria", str(equilibria_path),
            "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_report_and_csv(tmp_path, equilibria_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                     "--index", "1", "--h", "0.01", "--T", "6.3",
                     "--out", str(out))
    assert code == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["aborted"] is False
    assert report["rigidity_error"] < 1e-6
    assert report["hamiltonian_drift"] < 1e-8
    assert report["moment_drift"] < 1e-8
    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert lines[2] == "t,x0,y0,x1,y1,x2,y2,x3,y3,x4,y4"
    assert len(lines) == 3 + report["steps"] + 1


def test_simulate_without_out_prints_the_csv_then_the_report(tmp_path, equilibria_path,
                                                             capsys):
    argv = ["simulate", "--equilibria", str(equilibria_path), "--index", "1",
            "--h", "0.1", "--T", "0.3", "--perturb", "1e-6"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    files = (tmp_path / "run.csv").read_text() + (tmp_path / "run.report.json").read_text()
    assert out == files


def test_simulate_starts_where_continuation_solved(tmp_path, equilibria_path,
                                                    capsys, monkeypatch):
    # the first CSV row is eq.positions() to the bit, and the strong vortex
    # sits at the -eps * sum(z_j) that continuation's field was solved at
    rec = json.loads(equilibria_path.read_text())["equilibria"][1]
    eq = RelativeEquilibrium(r=rec["r"], theta=rec["theta"], epsilon=rec["epsilon"])
    z = eq.positions()
    for perturb in ("0", "1e-6"):
        out = tmp_path / f"run{perturb}"
        code, _, _ = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                         "--index", "1", "--h", "0.1", "--T", "0.2",
                         "--perturb", perturb, "--out", str(out))
        assert code == 0
        row = (tmp_path / f"run{perturb}.csv").read_text().split("\n")[3].split(",")
        first = np.array([float(v) for v in row[1:]])
        assert first[:2].tobytes() == z[:1].view(float).tobytes()
        if perturb == "0":
            assert first.tobytes() == z.view(float).tobytes()
    solved = []
    kernel = continuation._biot_savart
    monkeypatch.setattr(continuation, "_biot_savart",
                        lambda zs, gammas: solved.append(zs) or kernel(zs, gammas))
    continuation._field(np.concatenate((eq.r, eq.theta)), eq.epsilon)
    assert z.tobytes() == solved[0].tobytes()


@pytest.mark.parametrize("perturb", ["0", "1e-6"])
def test_simulate_abort_keeps_the_start(tmp_path, equilibria_path, capsys, monkeypatch,
                                        perturb):
    # every pair is closer than an abort distance of 10, so the first step
    # aborts: exit 1, and both files hold the start alone
    monkeypatch.setattr(dynamics, "_ABORT_SEP", 10.0)
    code, out, err = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                         "--index", "1", "--h", "0.1", "--T", "1",
                         "--perturb", perturb, "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert err == "error: integration aborted on close approach\n"
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["aborted"] is True
    assert report["steps"] == 0
    lines = (tmp_path / "run.csv").read_text().split("\n")
    assert lines[2] == "t,x0,y0,x1,y1,x2,y2,x3,y3,x4,y4"
    assert lines[3].startswith("0.0,")
    assert lines[4:] == [""]


def test_simulate_perturb_needs_two_weak_vortices(tmp_path, capsys):
    # one weak vortex has no direction left once the rotation and scaling
    # modes are projected out; the run stops before it divides 0 by 0
    eps = 1e-2
    eq_path = tmp_path / "one.json"
    eq_path.write_text(json.dumps({"equilibria": [
        {"epsilon": eps, "r": [1.0 / np.sqrt(1.0 + eps)], "theta": [0.0]}]}))
    argv = ["simulate", "--equilibria", str(eq_path), "--h", "0.1", "--T", "1"]
    code, _, err = run(capsys, *argv, "--perturb", "1e-6", "--out", str(tmp_path / "p"))
    assert code == 1
    assert "error: InvalidN: N = 1 has no perturbation direction" in err
    assert "malformed input" not in err
    assert list(tmp_path.iterdir()) == [eq_path]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 0
    assert "nan" not in (tmp_path / "run.csv").read_text().lower()


def test_perturbed_drifts_are_measured_from_the_perturbed_start(
    tmp_path, equilibria_path, capsys
):
    period = 2.0 * np.pi
    code, _, _ = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                     "--h", repr(period / 2048), "--T", repr(period),
                     "--perturb", "1e-3", "--out", str(tmp_path / "run"))
    assert code == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["hamiltonian_drift"] < 1e-10
    assert report["moment_drift"] < 1e-10


def test_simulate_growth_on_unstable_family(tmp_path, catalog4_path, capsys):
    eq_path = tmp_path / "saddle.json"
    code, _, _ = run(capsys, "continue", "--catalog", str(catalog4_path),
                     "--family", "1", "--eps", "1e-3", "--out", str(eq_path))
    assert code == 0
    out = tmp_path / "growth"
    code, _, _ = run(capsys, "simulate", "--equilibria", str(eq_path),
                     "--h", "0.02", "--T", "200", "--perturb", "1e-6",
                     "--out", str(out))
    assert code == 0
    report = json.loads((tmp_path / "growth.report.json").read_text())
    growth = report["growth"]
    assert growth["fitted_rate"] > 0.01
    assert growth["predicted_rate"] > 0.0
    assert growth["fitted_rate"] == pytest.approx(growth["predicted_rate"], rel=0.2)


def test_simulate_usage_errors(equilibria_path):
    assert run_usage_error("simulate", "--equilibria", str(equilibria_path),
                           "--h", "0", "--T", "1") == 2
    assert run_usage_error("simulate", "--equilibria", str(equilibria_path),
                           "--h", "0.1", "--T", "-1") == 2


# None of these may reach the integrator: an infinite --T overflows the step
# count, an infinite --h or --perturb writes NaN rows, a NaN --perturb
# is skipped by the amplitude test yet written into the JSON config as NaN,
# which is not JSON, and no random generator takes a negative --seed.
@pytest.mark.parametrize("flag,value", [
    ("--h", "inf"), ("--h", "nan"), ("--T", "inf"), ("--T", "nan"),
    ("--perturb", "-1e-6"), ("--perturb", "inf"), ("--perturb", "nan"), ("--seed", "-1"),
])
def test_simulate_rejects_non_finite_values(equilibria_path, capsys, flag, value):
    argv = {"--h": "0.1", "--T": "1", "--perturb": "1e-6", flag: value}
    assert run_usage_error("simulate", "--equilibria", str(equilibria_path),
                           *(tok for pair in argv.items() for tok in pair)) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("h,T", [("1e-300", "1e300"), ("1e-7", "1")])
def test_simulate_rejects_too_many_steps(equilibria_path, capsys, monkeypatch, h, T):
    # a usage error before the file is read, so nothing is integrated
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_json", no_read)
    assert run_usage_error("simulate", "--equilibria", str(equilibria_path),
                           "--h", h, "--T", T) == 2
    assert "--T / --h <= 1000000" in capsys.readouterr().err


def test_simulate_bad_index(equilibria_path, capsys):
    code, _, err = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                       "--index", "99", "--h", "0.1", "--T", "1")
    assert code == 1
    assert "out of range" in err
