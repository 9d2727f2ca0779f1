"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of the
same checkout.  A workload builds one round of ops from the seed.  With
``--trace 0`` the round repeats as a closed loop for ``--seconds`` seconds,
and the end-to-end metrics are computed from each op's fastest repeat.  With
``--trace 1`` each op of the round runs twice, first plain and then with
spans recorded around the library's public functions, and the per-layer
metrics are reported.  Every op's output is checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"

# BLAS threads, fixed before numpy loads; one thread keeps runs steady on a
# shared machine and never exceeds nproc.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# setup_s is the median of this many set-ups.  Each is the import time of
# numpy and vortexeq in a fresh interpreter plus one build of the inputs.
SETUP_REPEATS = 5
IMPORT_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import numpy, vortexeq; print(time.perf_counter() - t)"
)
# Other tenants of the host slow one core at a time, in bursts of seconds.
# Before each timed step the runner times a short fixed spin, and while the
# spin takes more than SLOWER times its fastest time, the runner moves to the
# next usable CPU.
SLOWER = 1.3
SPIN_STEPS = 5000
# A slow program still exits well inside three minutes: no new round starts
# after this many seconds of measuring.
MAX_MEASURE_S = 120.0

# name -> unit; must match BENCHMARK.json.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("potential", "spectra", "search", "continuation", "stability", "dynamics", "cli")

PER_LAYER = {
    "potential.gradient.calls_per_op": "count",
    "potential.gradient.self_us": "us",
    "potential.hessian.calls_per_op": "count",
    "potential.hessian.self_us": "us",
    "spectra.eig_symmetric.calls_per_op": "count",
    "spectra.eig_symmetric.self_us": "us",
    "search.newton_refine.calls_per_op": "count",
    "search.newton_refine.self_ms": "ms",
    "search.iters_per_start": "count",
    "search.grad_per_iter": "count",
    "search.stall_share": "share",
    "search.collision_share": "share",
    "search.new_family_share": "share",
    "search.symmetry_distance.calls_per_op": "count",
    "continuation.continue_equilibrium.self_ms": "ms",
    "stability.linearize.self_ms": "ms",
    "stability.reduced_field.calls_per_op": "count",
    "stability.stability_verdict.self_ms": "ms",
    "dynamics.rk4_step_us": "us",
    "dynamics.integrate_rk4.calls_per_op": "count",
    "dynamics.hamiltonian.self_us": "us",
    "dynamics.rigidity_error.self_ms": "ms",
    "dynamics.perturbation_growth.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_out_per_op": "bytes",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "trace.overhead_share": "share",
}

# Per-layer metrics that count work rather than time it; they repeat exactly
# for a given seed on any machine.
EXACT = tuple(
    name for name in PER_LAYER
    if name.endswith(".calls_per_op") or name in (
        "search.iters_per_start", "search.grad_per_iter", "search.stall_share",
        "search.collision_share", "search.new_family_share", "cli.bytes_out_per_op",
    )
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="vortexeq benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Running ops


def execute(workload, state, op, tracer=None, op_id=-1):
    """Run one op, then check it.

    Returns (latency_s, output, errors, counts); the output is None when the
    op raised.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(state, op)
        else:
            out = tracer.run_op(op_id, workload.run, state, op)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"], {}
    latency = time.perf_counter() - start
    try:
        errors, counts = workload.check(state, op, out)
    except Exception as exc:
        errors, counts = [f"check raised {type(exc).__name__}: {exc}"], {}
    return latency, out, errors, counts


def round_errors(workload, state, ops, outs) -> list[str]:
    """Errors of the round-level check; skipped when an op already failed."""
    if any(out is None for out in outs):
        return []
    try:
        return [f"round: {e}" for e in workload.check_round(state, ops, outs)]
    except Exception as exc:
        return [f"round check raised {type(exc).__name__}: {exc}"]


class Tally:
    """Op latencies in run order, failures and summed counters of one pass."""

    def __init__(self) -> None:
        self.log: list[tuple[str, float]] = []  # (op label, latency in s)
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}

    def add(self, op, latency, errors, counts) -> None:
        self.log.append((op.label, latency))
        if errors:
            self.failures.append(f"{op.label}: {'; '.join(errors)}")
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def spin_s() -> float:
    """Seconds taken by a fixed loop of pure-Python additions."""
    start = time.perf_counter()
    total = 0
    for k in range(SPIN_STEPS):
        total += k
    return time.perf_counter() - start


class CpuPicker:
    """Keeps this single-threaded process on a usable CPU whose core is not
    slowed down by other tenants at the moment."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.index = 0
        self.moves = 0
        self.fastest = math.inf
        for cpu in reversed(self.cpus):
            os.sched_setaffinity(0, {cpu})
            self.fastest = min(self.fastest, *(spin_s() for _ in range(3)))

    def pick(self) -> None:
        """Move on from the current CPU while the spin is slow there,
        trying each CPU at most once."""
        for _ in self.cpus:
            spin = spin_s()
            self.fastest = min(self.fastest, spin)
            if spin <= SLOWER * self.fastest:
                return
            self.index += 1
            self.moves += 1
            os.sched_setaffinity(0, {self.cpus[self.index % len(self.cpus)]})

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def measure(workload, state, ops, seconds: float, picker: CpuPicker):
    """Repeat the round while another round, at the mean round time so far,
    still ends within ``seconds``, and at least ``workload.min_rounds`` times.

    Returns (tally, rounds, best) with best[i] the fastest latency of op i.
    """
    tally = Tally()
    best = [math.inf] * len(ops)
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (
            rounds >= workload.min_rounds and elapsed * (rounds + 1) / rounds > seconds
        ):
            return tally, rounds, best
        outs = []
        for i, op in enumerate(ops):
            picker.pick()
            latency, out, errors, counts = execute(workload, state, op)
            tally.add(op, latency, errors, counts)
            outs.append(out)
            best[i] = min(best[i], latency)
        tally.failures += round_errors(workload, state, ops, outs)
        rounds += 1


# ---------------------------------------------------------------------------
# Metrics


def tail(latencies) -> tuple[float, int, int]:
    """(latency at the highest percentile with ten samples beyond it,
    that percentile, the number of samples beyond it)."""
    from perfbench.stats import beyond, nearest_rank, tail_percentile

    n = len(latencies)
    pct = tail_percentile(n)
    return nearest_rank(sorted(latencies), pct), pct, beyond(n, pct)


def per_layer(summary, counts, n_ops: int, work, overhead: float) -> dict:
    calls, self_ns, edges = summary["calls"], summary["self_ns"], summary["edges"]

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def mean_self(name, unit_ns):
        return ratio(self_ns.get(name, 0), calls.get(name, 0)) / unit_ns

    iters = edges.get(("search.newton_refine", "potential.hessian"), 0)
    grads = edges.get(("search.newton_refine", "potential.gradient"), 0)
    values = {
        "potential.gradient.calls_per_op": per_op("potential.gradient"),
        "potential.gradient.self_us": mean_self("potential.gradient", 1e3),
        "potential.hessian.calls_per_op": per_op("potential.hessian"),
        "potential.hessian.self_us": mean_self("potential.hessian", 1e3),
        "spectra.eig_symmetric.calls_per_op": per_op("spectra.eig_symmetric"),
        "spectra.eig_symmetric.self_us": mean_self("spectra.eig_symmetric", 1e3),
        "search.newton_refine.calls_per_op": per_op("search.newton_refine"),
        "search.newton_refine.self_ms": mean_self("search.newton_refine", 1e6),
        "search.iters_per_start": ratio(iters, calls.get("search.newton_refine", 0)),
        "search.grad_per_iter": ratio(grads, iters),
        "search.stall_share": ratio(counts.get("stalls", 0), counts.get("starts", 0)),
        "search.collision_share": ratio(counts.get("collisions", 0), counts.get("starts", 0)),
        "search.new_family_share": ratio(counts.get("families", 0), counts.get("converged", 0)),
        "search.symmetry_distance.calls_per_op": per_op("search.symmetry_distance"),
        "continuation.continue_equilibrium.self_ms":
            mean_self("continuation.continue_equilibrium", 1e6),
        "stability.linearize.self_ms": mean_self("stability.linearize", 1e6),
        "stability.reduced_field.calls_per_op": per_op("stability.reduced_field"),
        "stability.stability_verdict.self_ms": mean_self("stability.stability_verdict", 1e6),
        "dynamics.rk4_step_us": ratio(
            self_ns.get("dynamics.integrate_rk4", 0), work.get("dynamics.integrate_rk4", 0)
        ) / 1e3,
        "dynamics.integrate_rk4.calls_per_op": per_op("dynamics.integrate_rk4"),
        "dynamics.hamiltonian.self_us": mean_self("dynamics.hamiltonian", 1e3),
        "dynamics.rigidity_error.self_ms": mean_self("dynamics.rigidity_error", 1e6),
        "dynamics.perturbation_growth.self_ms": mean_self("dynamics.perturbation_growth", 1e6),
        "cli.main.self_ms": mean_self("cli.main", 1e6),
        "cli.bytes_out_per_op": counts.get("bytes_out", 0) / n_ops,
        "trace.overhead_share": overhead,
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = ratio(summary["layer_ns"].get(layer, 0), summary["op_ns"])
    return values


# ---------------------------------------------------------------------------
# Machine record


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "vortexeq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


# ---------------------------------------------------------------------------


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def traced_round(workload, state, ops, workdir: str):
    """Run each of ``ops`` plain and then traced, so that both passes see the
    same machine conditions.  Returns (per-layer values, failures, tracer,
    report fields)."""
    from perfbench.tracing import Tracer, summarize
    from perfbench.workloads import probe

    execute(workload, state, ops[0])  # warm-up; the same op is checked below
    plain, traced, tracer = Tally(), Tally(), Tracer()
    outs = {"plain": [], "traced": []}
    for i, op in enumerate(ops):
        latency, out, errors, counts = execute(workload, state, op)
        plain.add(op, latency, errors, counts)
        outs["plain"].append(out)
        tracer.install()
        try:
            latency, out, errors, counts = execute(workload, state, op, tracer, i)
        finally:
            tracer.uninstall()
        traced.add(op, latency, errors, counts)
        outs["traced"].append(out)
    failures = plain.failures + traced.failures
    for key in outs:
        failures += round_errors(workload, state, ops, outs[key])
    plain_s = sum(t for _, t in plain.log)
    traced_s = sum(t for _, t in traced.log)
    values = per_layer(summarize(tracer.spans), traced.counts, len(ops), tracer.work,
                       traced_s / plain_s - 1.0)

    # Time a function the workload never calls on the probe instead.
    probed = Tracer()
    probed.install()
    try:
        probed.run_op(0, probe, workdir)
    finally:
        probed.uninstall()
    fill = per_layer(summarize(probed.spans), {}, 1, probed.work, 0.0)
    from_probe = [
        name for name, unit in PER_LAYER.items()
        if unit in ("us", "ms") and values[name] == 0.0
    ]
    for name in from_probe:
        values[name] = fill[name]
    extra = {"plain_s": plain_s, "traced_s": traced_s, "span_count": len(tracer.spans),
             "counts": traced.counts, "from_probe": from_probe}
    return values, failures, tracer, extra


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy and vortexeq."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def untraced_run(workload, seed: int, seconds: float, workdir: str, import_s: float):
    """Set up SETUP_REPEATS times, then measure.  Returns (end-to-end values,
    attempted, failures, report fields)."""
    imports, builds = [], []
    picker = CpuPicker()
    try:
        for _ in range(SETUP_REPEATS):
            picker.pick()
            imports.append(fresh_import_s())
            t0 = time.perf_counter()
            state = workload.setup(seed, fresh_dir(workdir))
            builds.append(time.perf_counter() - t0)
        ops = workload.round(state)
        # Warm-up; the same op runs and is checked again in the loop.
        execute(workload, state, ops[0])
        tally, rounds, best = measure(workload, state, ops, seconds, picker)
    finally:
        picker.release()
    tail_s, pct, n_beyond = tail(best)
    values = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(i + b for i, b in zip(imports, builds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = len(tally.log)
    starts = tally.counts.get("starts")
    fail_share = (
        (tally.counts["stalls"] + tally.counts["collisions"]) / starts
        if starts else len(tally.failures) / attempted
    )
    extra = {
        "rounds": rounds, "ops_per_round": len(ops), "tail_percentile": pct,
        "tail_beyond": n_beyond, "import_s": import_s, "setup_imports_s": imports,
        "setup_builds_s": builds,
        "fail_share": fail_share, "counts": tally.counts, "cpu_moves": picker.moves,
        "best_ms": {op.label: t * 1e3 for op, t in zip(ops, best)},
        "latencies_ms": [[label, t * 1e3] for label, t in tally.log],
    }
    return values, attempted, tally.failures, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vortexeq" / "__init__.py").is_file():
        print(f"error: no vortexeq sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.path[:0] = [str(SRC), str(ROOT)]

    start = time.perf_counter()
    import numpy  # noqa: F401
    import vortexeq

    import_s = time.perf_counter() - start
    if Path(vortexeq.__file__).resolve().parent != (SRC / "vortexeq").resolve():
        print(f"error: imported vortexeq from {vortexeq.__file__}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = fresh_dir(os.path.join(WORK_DIR, workload.name))
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    try:
        if args.trace:
            state = workload.setup(args.seed, workdir)
            ops = workload.round(state)
            values, failures, tracer, extra = traced_round(workload, state, ops, workdir)
            attempted, units = 2 * len(ops), PER_LAYER
            extra["spans"] = os.path.join(OUT_DIR, f"spans-{name}.jsonl.gz")
            tracer.dump(extra["spans"])
        else:
            values, attempted, failures, extra = untraced_run(
                workload, args.seed, args.seconds, workdir, import_s
            )
            units = END_TO_END
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    metrics = {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()}
    report.update(extra, metrics=metrics, attempted=attempted, failures=failures)
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print("machine " + json.dumps(report["machine"], sort_keys=True))
    for key in ("rounds", "ops_per_round", "tail_percentile", "tail_beyond", "fail_share",
                "cpu_moves", "span_count", "plain_s", "traced_s", "from_probe"):
        if key in report:
            print(f"{key} = {report[key]}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
