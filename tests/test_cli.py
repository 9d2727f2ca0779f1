"""Command-line interface: exit codes, file schemas, determinism, atomicity."""

import json

import numpy as np
import pytest

from vortexeq import Trajectory
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


# (command, option) pairs where the command does not read the option.
DROPPED_FLAGS = [
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
    "find": {"command", "format", "n", "starts", "seed", "delta", "dedup_tol",
             "tol_newton", "tol_zero", "plot_data"},
    "ngon-spectrum": {"command", "format", "n"},
    "continue": {"command", "format", "catalog", "family", "eps", "tol_newton"},
    "stability": {"command", "format", "equilibria", "tol_zero"},
    "simulate": {"command", "format", "equilibria", "index", "h", "T", "perturb",
                 "seed"},
}


@pytest.fixture(scope="module")
def valid_argv(catalog4_path, equilibria_path):
    return {
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


def test_find_usage_errors():
    assert run_usage_error("find", "--n", "1") == 2
    assert run_usage_error("find") == 2
    assert run_usage_error("find", "--n", "4", "--format", "csv") == 2


def test_no_temp_files_left(tmp_path, capsys):
    path = tmp_path / "cat.json"
    run(capsys, "find", "--n", "2", "--starts", "40", "--out", str(path))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "cat.json"]
    assert leftovers == []


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


def test_continue_missing_catalog(capsys):
    code, _, err = run(capsys, "continue", "--catalog", "/nonexistent.json",
                       "--eps", "1e-3")
    assert code == 1
    assert "error" in err


def test_continue_degenerate_seed(tmp_path, catalog4_path, capsys):
    data = json.loads(catalog4_path.read_text())
    fam = dict(data["families"][0])
    fam["morse_index"] = [0, 2, 2]
    data["families"] = [fam]
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "continue", "--catalog", str(bad), "--eps", "1e-3")
    assert code == 1
    assert "DegenerateSeed" in err


def test_continue_partial_output_on_failure(tmp_path, catalog4_path, capsys):
    out = tmp_path / "partial.json"
    code, _, err = run(capsys, "continue", "--catalog", str(catalog4_path),
                       "--family", "0", "--eps", "1e-3,0.049",
                       "--tol-newton", "1e-15", "--out", str(out))
    if code == 1:
        data = json.loads(out.read_text())
        assert "error" in data
        assert isinstance(data["equilibria"], list)
    else:
        assert code == 0


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


def test_trajectory_csv_rows_are_float_reprs():
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 0.1, 1.0 / 3.0]
    positions = np.array(values[:6] + values[1:7]).reshape(2, 3, 2)
    traj = Trajectory(np.array([0.0, 1e-300]), positions, 1e-300, "rk4", 1e-3)
    lines = _trajectory_csv(traj, {"command": "simulate"}).split("\n")
    rows = [
        ",".join(repr(float(v)) for v in [t, *positions[i].ravel()])
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


def test_simulate_bad_index(equilibria_path, capsys):
    code, _, err = run(capsys, "simulate", "--equilibria", str(equilibria_path),
                       "--index", "99", "--h", "0.1", "--T", "1")
    assert code == 1
    assert "out of range" in err
