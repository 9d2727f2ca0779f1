"""Tests of the benchmark's own code: statistics, span arithmetic, metric
names, seed plumbing and exact repeats of the hardware-independent counters.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing  # noqa: E402
from perfbench.stats import (  # noqa: E402
    METRIC_NAME,
    TAIL_BEYOND,
    beyond,
    nearest_rank,
    tail_percentile,
)
from perfbench.workloads import Branch, Census, Simulate, WORKLOADS, sub_seed  # noqa: E402

UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --- tail percentile -------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(TAIL_BEYOND + 1, 3000):
        pct = tail_percentile(n)
        assert beyond(n, pct) >= TAIL_BEYOND, n
        assert beyond(n, pct + 1) < TAIL_BEYOND, n


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(TAIL_BEYOND)


def test_tail_value_and_count_on_known_samples():
    samples = [float(k) for k in range(100, 0, -1)]  # 100..1, unsorted
    assert tail_percentile(100) == 90
    assert nearest_rank(sorted(samples), 90) == 90.0
    assert run.tail(samples) == (90.0, 90, 10)
    assert run.tail(samples[:55]) == (90.0, 81, 10)


# --- self time ---------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    spans = [
        (0, -1, "op", 0, 100),                  # 0: children 1, 3, 4
        (0, 0, "search.newton_refine", 10, 40),  # 1: child 2
        (0, 1, "potential.gradient", 15, 25),    # 2
        (0, 0, "potential.hessian", 50, 90),     # 3
        (0, 0, "potential.hessian", 80, 95),     # 4 overlaps 3: covered once
        (1, -1, "op", 200, 210),                 # 5: no children
    ]
    assert tracing.self_times(spans) == [25, 20, 10, 40, 15, 10]
    summary = tracing.summarize(spans)
    assert summary["op_ns"] == 110
    assert summary["calls"]["potential.hessian"] == 2
    assert summary["self_ns"]["potential.hessian"] == 55
    assert summary["layer_ns"]["potential"] == 65
    assert summary["layer_ns"]["search"] == 20
    assert summary["edges"][("search.newton_refine", "potential.gradient")] == 1
    assert summary["edges"][("op", "potential.hessian")] == 2


def test_tracer_wraps_every_binding_and_restores_them():
    import vortexeq.search  # noqa: F401

    search = sys.modules["vortexeq.search"]
    potential = sys.modules["vortexeq.potential"]
    original = potential.gradient
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert search.gradient is potential.gradient is not original
        tracer.run_op(0, search.newton_refine, [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert search.gradient is original and potential.gradient is original
    names = [span[2] for span in tracer.spans]
    assert names[0] == tracing.OP
    assert "search.newton_refine" in names and "potential.gradient" in names
    assert all(span[0] == 0 for span in tracer.spans)


# --- CPU picker ----------------------------------------------------------------


def test_cpu_picker_moves_on_while_the_spin_is_slow(monkeypatch):
    import os

    usable = os.sched_getaffinity(0)
    spins = iter([1.0] * 3 * len(usable) + [2.0, 1.1])
    monkeypatch.setattr(run, "spin_s", lambda: next(spins))
    picker = run.CpuPicker()
    try:
        picker.pick()  # slow (2.0 > 1.3 x 1.0): move once; then 1.1 is fast
        assert picker.moves == 1
        assert picker.fastest == 1.0
    finally:
        picker.release()
    assert os.sched_getaffinity(0) == usable


# --- metric names and BENCHMARK.json ------------------------------------------


def test_metric_names_and_units_follow_the_pattern():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert METRIC_NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert not METRIC_NAME.fullmatch("bad name")
    assert not METRIC_NAME.fullmatch(".leading-dot")


def test_benchmark_json_matches_the_harness():
    bench = load_benchmark()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in bench[key]} == table
    for entry in bench["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    for entry in bench["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# --- seed plumbing -----------------------------------------------------------


def test_seed_argument_reaches_the_workload_inputs():
    args = run.parse_args(["--workload", "census", "--seed", "7", "--seconds", "3"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("census", 7, 3.0, 0)
    census = Census()
    ops = census.round(census.setup(args.seed, ""))
    assert ops == census.round(census.setup(7, ""))
    assert ops != census.round(census.setup(8, ""))
    assert len({op.args for op in ops}) == len(ops) == census.ops_per_round
    assert sub_seed(7, 1, 2) == sub_seed(7, 1, 2) != sub_seed(8, 1, 2)


# --- exact repeats of the hardware-independent counters ----------------------


def small_workloads(tmp_path):
    census = Census()
    census.ns, census.starts, census.ops_per_round = (3, 8), 30, 2
    branch = Branch()
    branch.ns, branch.catalog_starts, branch.rings = (3, 4), 20, (6,)
    simulate = Simulate()
    simulate.rings = (3,)
    for workload in (census, branch, simulate):
        workdir = tmp_path / workload.name
        workdir.mkdir()
        yield workload, str(workdir)


def test_exact_counters_repeat_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for workload, workdir in small_workloads(tmp_path):
        seen = []
        for _ in range(2):
            state = workload.setup(5, workdir)
            ops = workload.round(state)[:4]
            values = run.traced_round(workload, state, ops, workdir)[0]
            seen.append({k: values[k] for k in run.EXACT})
        assert seen[0] == seen[1], workload.name
        assert any(v for v in seen[0].values()), workload.name
        assert all(math.isfinite(v) for v in seen[0].values())
