"""Command-line interface: exit codes, file schemas, determinism, atomicity."""

import errno
import json
import os
import struct
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from vortexeq import (
    CollisionAbort,
    NoConvergence,
    PlanarConfiguration,
    RelativeEquilibrium,
    StabilityClass,
    Trajectory,
    cli,
    continuation,
    dynamics,
    integrate_rk4,
    newton_refine,
    ngon,
    perturbation_growth,
    stability,
)
from vortexeq.cli import _json_text, _trajectory_csv, main


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


SIMULATE_DIAGNOSTICS = {"aborted", "rigidity_error", "steps", "hamiltonian_drift",
                        "moment_drift"}


def test_json_output_key_sets(tmp_path, catalog4_path, equilibria_path, capsys, monkeypatch):
    # every JSON output is the tool, version and config header and the records of
    # its command, nothing else
    header = {"tool", "version", "config"}

    def keys(path):
        return set(json.loads(path.read_text()))

    assert keys(catalog4_path) == header | {"n", "families", "metadata"}
    continued = header | {"seed_family", "equilibria", "lemma1_scaling"}
    assert keys(equilibria_path) == continued
    run(capsys, "stability", "--equilibria", str(equilibria_path),
        "--out", str(tmp_path / "st.json"))
    assert keys(tmp_path / "st.json") == header | {"verdicts"}
    for perturb, growth in (("0", set()), ("1e-6", {"growth"})):
        run(capsys, "simulate", "--equilibria", str(equilibria_path), "--h", "0.1",
            "--T", "1", "--perturb", perturb, "--out", str(tmp_path / "sim"))
        assert keys(tmp_path / "sim.report.json") == header | SIMULATE_DIAGNOSTICS | growth

    def stall(cp, eps, x0):
        raise NoConvergence("stalled on purpose")

    monkeypatch.setattr(continuation, "_solve", stall)
    code, _, _ = run(capsys, "continue", "--catalog", str(catalog4_path), "--eps", "1e-3",
                     "--out", str(tmp_path / "failed.json"))
    assert code == 1
    assert keys(tmp_path / "failed.json") == continued | {"error"}


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


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=lambda m: f"umask{m:03o}")
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, capsys, umask):
    path = tmp_path / "cat.json"
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "find", "--n", "2", "--starts", "5", "--out", str(path))
    finally:
        os.umask(old)
    assert code == 0
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("case", ["out-is-a-directory", "catalog-is-a-directory",
                                  "out-not-writable"])
def test_file_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch, case):
    def no_access(*args, **kwargs):  # what mkstemp raises in a directory we may not write
        raise PermissionError(13, "Permission denied", str(tmp_path))

    if case == "out-not-writable":
        monkeypatch.setattr(cli.tempfile, "mkstemp", no_access)
    directory = tmp_path / "dir"
    directory.mkdir()
    argv = {
        "out-is-a-directory": ["find", "--n", "3", "--starts", "5", "--out", str(directory)],
        "catalog-is-a-directory": ["continue", "--catalog", str(directory), "--eps", "1e-3",
                                   "--out", str(tmp_path / "eq.json")],
        "out-not-writable": ["find", "--n", "3", "--starts", "5",
                             "--out", str(tmp_path / "cat.json")],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]  # no temp file left
    assert list(directory.iterdir()) == []


def test_failed_rename_names_the_out_path(tmp_path, capsys, monkeypatch):
    # mkstemp succeeds next to "runs"; only the rename onto the directory fails
    (tmp_path / "runs").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "find", "--n", "3", "--starts", "5", "--out", "runs")
    assert code == 1
    assert out == ""
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'runs'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]  # no temp file left


def _bits(x):
    return struct.pack("<d", x)


@dataclass
class _Opaque:
    x: float = 1.0


def test_json_text_writes_library_values_bit_for_bit():
    pairs = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(1 / 3, -5e-324)])
    payload = {
        "neg_zero": np.float64(-0.0),
        "subnormal": 5e-324,
        "third": np.array([1 / 3, -0.0, 5e-324]),
        "pairs": pairs,
        "flag": np.bool_(True),
        "count": np.int64(-7),
        "class": StabilityClass.MARGINAL,
    }
    back = json.loads(_json_text(payload))
    assert _bits(back["neg_zero"]) == _bits(-0.0)
    assert _bits(back["subnormal"]) == _bits(5e-324)
    assert [_bits(x) for x in back["third"]] == [_bits(1 / 3), _bits(-0.0), _bits(5e-324)]
    assert [[_bits(re), _bits(im)] for re, im in back["pairs"]] == [
        [_bits(z.real), _bits(z.imag)] for z in pairs
    ]
    assert back["flag"] is True
    assert back["count"] == -7 and type(back["count"]) is int
    assert back["class"] == "marginal"


@pytest.mark.parametrize("value", [_Opaque(), object(), 1j, {1, 2}],
                         ids=["dataclass", "object", "complex", "set"])
def test_json_text_refuses_unknown_objects(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text({"value": [value]})


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


def test_continue_usage_errors(catalog4_path, capsys):
    assert run_usage_error("continue", "--catalog", str(catalog4_path),
                           "--eps", "1e-3,0") == 2
    assert run_usage_error("continue", "--catalog", str(catalog4_path),
                           "--eps", "") == 2
    for eps in ("1e-3,nan", "1e-3,inf", "-inf"):
        assert run_usage_error("continue", "--catalog", str(catalog4_path),
                               "--eps", eps) == 2
    capsys.readouterr()
    assert run_usage_error("continue", "--catalog", str(catalog4_path),
                           "--eps", "abc") == 2
    assert "argument --eps: could not convert string to float" in capsys.readouterr().err


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


def test_continue_writes_the_residual_its_record_was_checked_with(equilibria_path):
    # each record's residual is the reduced field's sup-norm that the
    # RelativeEquilibrium constructor computed and checked, bit for bit
    for rec in json.loads(equilibria_path.read_text())["equilibria"]:
        eq = RelativeEquilibrium(rec["r"], rec["theta"], rec["epsilon"])
        field = stability.reduced_field(rec["r"], rec["theta"], rec["epsilon"])
        assert rec["residual"] == eq.residual == float(np.abs(field).max())
        assert rec["residual"] < 1e-12


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


# Equilibria files whose top level, or whose record, is an array and not an object.
NOT_OBJECTS = [("stability", [1, 2]), ("stability", {"equilibria": [[1, 2]]}),
               ("simulate", {"equilibria": [[1, 2]]})]


@pytest.mark.parametrize("command,data", NOT_OBJECTS,
                         ids=["stability-file", "stability-record", "simulate-record"])
def test_arrays_for_objects_are_malformed_input(tmp_path, capsys, command, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    extra = ["--h", "0.1", "--T", "1"] if command == "simulate" else []
    code, out, err = run(capsys, command, "--equilibria", str(bad), *extra,
                         "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == "" and err.startswith("error: malformed input: ") and err.count("\n") == 1
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
    blocks = [(traj.times, traj.positions)]
    lines = "".join(_trajectory_csv({"command": "simulate"}, 3, blocks)).split("\n")
    rows = [
        ",".join(repr(float(v)) for v in [t, *positions[i].view(float)])
        for i, t in enumerate(traj.times)
    ]
    assert lines[3:] == rows + [""]
    assert lines[3].startswith("0.0,-0.0,5e-324,")


@pytest.mark.parametrize("size", ["1", "B", "B+1", "2B+3"])
def test_trajectory_csv_block_edges_do_not_show(size):
    # B rows of M = 3 vortices fill one chunk of the streamed CSV; the joined
    # text is the one-shot text, whichever row a chunk ends on
    b = dynamics._block_rows(3)
    samples = {"1": 1, "B": b, "B+1": b + 1, "2B+3": 2 * b + 3}[size]
    rng = np.random.default_rng(samples)
    traj = Trajectory(rng.uniform(0, 10, samples),
                      rng.standard_normal((samples, 6)).view(complex))
    config = {"command": "simulate"}
    blocks = [(traj.times[lo : lo + b], traj.positions[lo : lo + b])
              for lo in range(0, samples, b)]
    chunks = list(_trajectory_csv(config, 3, blocks))
    assert len(chunks) == 1 + -(-samples // b)
    head = [f"# tool=vortexeq version={cli.__version__}",
            "# config=" + json.dumps(config, sort_keys=True), "t,x0,y0,x1,y1,x2,y2"]
    rows = [",".join(map(repr, [t, *z.view(float).tolist()]))
            for t, z in zip(traj.times.tolist(), traj.positions)]
    assert "".join(chunks) == "\n".join(head + rows) + "\n"


def equilibrium_at(path, index):
    rec = json.loads(path.read_text())["equilibria"][index]
    return RelativeEquilibrium(r=rec["r"], theta=rec["theta"], epsilon=rec["epsilon"])


def csv_rows(traj):
    """The CSV rows of a trajectory: t and each x, y as the repr of its float."""
    return [",".join(map(repr, [t, *z.view(float).tolist()]))
            for t, z in zip(traj.times.tolist(), traj.positions)]


@pytest.mark.parametrize("perturb", ["0", "1e-6"])
@pytest.mark.parametrize("size", ["B-1", "B", "B+1", "2B+3"])
def test_simulate_writes_the_library_trajectory(tmp_path, equilibria_path, capsys, size,
                                                perturb):
    # the CSV streams in blocks of B = _block_rows(M) rows for its 2M + 1 columns;
    # whichever row of a block the run ends on, the rows are
    # integrate_rk4's samples from the same start, bit for bit
    eq = equilibrium_at(equilibria_path, 1)
    b = dynamics._block_rows(eq.n + 1)
    samples = {"B-1": b - 1, "B": b, "B+1": b + 1, "2B+3": 2 * b + 3}[size]
    h, T = 0.01, (samples - 1) * 0.01
    code, _, _ = run(capsys, "simulate", "--equilibria", str(equilibria_path), "--index", "1",
                     "--h", repr(h), "--T", repr(T), "--perturb", perturb,
                     "--out", str(tmp_path / "run"))
    assert code == 0
    traj = integrate_rk4(PlanarConfiguration.from_equilibrium(eq, float(perturb), 0), h, T)
    assert traj.times.size == samples
    assert (tmp_path / "run.csv").read_text().split("\n")[3:] == csv_rows(traj) + [""]


def test_simulate_abort_writes_the_library_partial_trajectory(tmp_path, equilibria_path,
                                                              capsys, monkeypatch):
    # with an abort distance of 0.5 the perturbed eps = -1e-3 run aborts at step
    # 860, inside its second block of rows: exit 1, and the CSV holds the
    # trajectory that integrate_rk4's CollisionAbort carries, bit for bit
    monkeypatch.setattr(dynamics, "_ABORT_SEP", 0.5)
    eq = equilibrium_at(equilibria_path, 3)
    code, out, err = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                         "--index", "3", "--h", "0.05", "--T", "100", "--perturb", "1e-4",
                         "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == "" and err == "error: integration aborted on close approach\n"
    with pytest.raises(CollisionAbort) as info:
        integrate_rk4(PlanarConfiguration.from_equilibrium(eq, 1e-4, 0), 0.05, 100.0)
    traj = info.value.trajectory
    b = dynamics._block_rows(eq.n + 1)
    assert traj.times.size - 1 == 860 and b < 860 < 2 * b - 1
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["aborted"] is True and report["steps"] == 860 and "growth" not in report
    assert (tmp_path / "run.csv").read_text().split("\n")[3:] == csv_rows(traj) + [""]


def test_failed_streamed_write_leaves_no_trace(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text("the earlier run\n")

    def chunks():
        yield "# tool=vortexeq\n"
        raise RuntimeError("no second chunk")

    with pytest.raises(RuntimeError, match="no second chunk"):
        cli._atomic_write(str(path), chunks())
    assert path.read_bytes() == b"the earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]  # no .vortexeq-* file


def test_simulate_memory_is_the_trajectory_plus_bounded_blocks(tmp_path, ring_points):
    # a perturbed N = 10 ring over 8192 steps traces at most twice its
    # (steps + 1, N + 1) complex trajectory: the CSV is streamed in row blocks
    # and the diagnostics run in time blocks
    eq = continuation.continue_equilibrium(ring_points[10], 1e-3)
    path = tmp_path / "ring10.json"
    path.write_text(json.dumps({"equilibria": [
        {"epsilon": eq.epsilon, "r": eq.r.tolist(), "theta": eq.theta.tolist()}]}))
    steps, h = 8192, 1e-3

    def simulate(n_steps):
        return main(["simulate", "--equilibria", str(path), "--h", repr(h),
                     "--T", repr(n_steps * h), "--perturb", "1e-6", "--out", str(tmp_path / "run")])

    assert simulate(2) == 0  # a short run first pays the one-off costs, such as lazy imports
    tracemalloc.start()
    try:
        assert simulate(steps) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "run.report.json").read_text())["steps"] == steps
    assert peak <= 2 * (steps + 1) * (10 + 1) * 16


def test_simulate_memory_per_step_does_not_depend_on_n(tmp_path, equilibria_path):
    # RK4 runs in blocks streamed to the CSV and the diagnostics, so a perturbed
    # run holds about one float of deviation per step whatever N is, where a
    # whole trajectory would hold 16 (N + 1) bytes per step; a run with no fit,
    # such as the stable N = 4 minimum at eps = 1e-3, holds no more.  Both runs
    # are long enough that a per-step cost, not the one-off peak, sets their peaks
    h, growth, runs = 1e-3, {}, {4: [str(equilibria_path), "--index", "1"]}
    for n in (10, 25):
        eq = continuation.continue_equilibrium(newton_refine(ngon(n)), 1e-3)
        path = tmp_path / f"ring{n}.json"
        path.write_text(json.dumps({"equilibria": [
            {"epsilon": eq.epsilon, "r": eq.r.tolist(), "theta": eq.theta.tolist()}]}))
        runs[n] = [str(path)]
    for n, equilibria in runs.items():
        def simulate(n_steps):
            return main(["simulate", "--equilibria", *equilibria, "--h", repr(h), "--T",
                         repr(n_steps * h), "--perturb", "1e-6", "--out", str(tmp_path / "run")])

        assert simulate(2) == 0  # a short run first pays the one-off costs, such as lazy imports
        peaks = []
        for steps in (8192, 16384):
            tracemalloc.start()
            try:
                assert simulate(steps) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert json.loads((tmp_path / "run.report.json").read_text())["steps"] == steps
        growth[n] = (peaks[1] - peaks[0]) / (16384 - 8192)
    assert max(growth.values()) <= 48, growth


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
    assert "growth" not in report
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


def test_simulate_growth_is_the_library_fit(tmp_path, equilibria_path, capsys):
    # the report's growth is perturbation_growth on the run from the perturbed start
    h, T, amplitude, seed = 0.05, 3.0, 1e-4, 3
    code, _, _ = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                     "--index", "1", "--h", repr(h), "--T", repr(T),
                     "--perturb", repr(amplitude), "--seed", str(seed),
                     "--out", str(tmp_path / "run"))
    assert code == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    rec = json.loads(equilibria_path.read_text())["equilibria"][1]
    eq = RelativeEquilibrium(r=rec["r"], theta=rec["theta"], epsilon=rec["epsilon"])
    start = PlanarConfiguration.from_equilibrium(eq, amplitude, seed)
    traj = integrate_rk4(start, h, T)
    assert report["growth"] == asdict(perturbation_growth(eq, traj, amplitude))


def test_growth_without_a_window_reports_no_fit(tmp_path, equilibria_path, capsys):
    # over one period the stable N = 4 minimum's deviation never reaches
    # 10 * amplitude, so its window holds fewer than 8 samples and nothing is fitted
    h, T, amplitude = 0.01, 6.3, 1e-6
    code, _, _ = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                     "--index", "1", "--h", repr(h), "--T", repr(T),
                     "--perturb", repr(amplitude), "--out", str(tmp_path / "run"))
    assert code == 0
    growth = json.loads((tmp_path / "run.report.json").read_text())["growth"]
    rec = json.loads(equilibria_path.read_text())["equilibria"][1]
    eq = RelativeEquilibrium(r=rec["r"], theta=rec["theta"], epsilon=rec["epsilon"])
    traj = integrate_rk4(PlanarConfiguration.from_equilibrium(eq, amplitude, 0), h, T)
    assert growth == asdict(perturbation_growth(eq, traj, amplitude))
    assert growth["window_points"] < 8
    assert growth["fitted_rate"] == growth["predicted_rate"] == 0.0


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


@pytest.mark.parametrize("h,T", [("1", "0.3"), ("0.4", "1")])
def test_simulate_rejects_a_fractional_step_count(tmp_path, equilibria_path, capsys,
                                                  monkeypatch, h, T):
    # one step of 1 would end at t = 1 and two of 0.4 at t = 0.8: a usage error
    # before the file is read, and no file is written
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_json", no_read)
    assert run_usage_error("simulate", "--equilibria", str(equilibria_path),
                           "--h", h, "--T", T, "--out", str(tmp_path / "run")) == 2
    assert "is not a whole number of steps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_bad_index(equilibria_path, capsys):
    code, _, err = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                       "--index", "99", "--h", "0.1", "--T", "1")
    assert code == 1
    assert "out of range" in err
