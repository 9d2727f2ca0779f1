"""The benchmark's workloads: their inputs, their ops and the checks on each op.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  Inputs come only from the workload seed.  A workload
builds one round of ops from the seed, and a run repeats that round, so
every op runs several times on the same input.  Library functions are looked
up on their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import import_module

import numpy as np

from vortexeq.potential import CriticalPointClass
from vortexeq.stability import StabilityClass

# The package re-exports a function named ``potential``, which shadows the
# submodule attribute, so the modules are taken from the import system.
cli, continuation, potential, search, stability = (
    import_module(f"vortexeq.{name}")
    for name in ("cli", "continuation", "potential", "search", "stability")
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the workload seed and the given keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# Reference formulas, written independently of the library, for the checks.


def ring_gradient(theta: np.ndarray) -> np.ndarray:
    """Gradient of the ring potential V(theta)."""
    d = theta[:, None] - theta[None, :]
    off = ~np.eye(theta.size, dtype=bool)
    chord2 = np.where(off, 2.0 - 2.0 * np.cos(d), 1.0)
    return np.where(off, np.sin(d) * (1.0 - 1.0 / chord2), 0.0).sum(axis=1)


def releq_residual(r, theta, epsilon: float, omega: float) -> float:
    """Sup-norm of v_j - omega q_j^perp over the weak vortices."""
    q = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    q0 = -epsilon * q.sum(axis=0)
    pos = np.vstack((q0, q))
    gam = np.concatenate(([1.0], np.full(q.shape[0], epsilon)))
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff**2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    w = gam[None, :] / d2
    vel = np.column_stack(((-diff[:, :, 1] * w).sum(1), (diff[:, :, 0] * w).sum(1)))
    perp = np.column_stack((-q[:, 1], q[:, 0]))
    return float(np.abs(vel[1:] - omega * perp).max())


def uniform_gaps(theta: np.ndarray) -> float:
    """Largest deviation of the cyclic gaps from 2*pi/N (0 for the n-gon)."""
    th = np.sort(np.mod(theta, TWO_PI))
    gaps = np.diff(np.append(th, th[0] + TWO_PI))
    return float(np.abs(gaps - TWO_PI / th.size).max())


def catalog_errors(cat, n: int, starts: int) -> list[str]:
    """Checks on one catalog.  A family's gradient must stay below 1e-8, the
    tolerance of ``classify``."""
    errors = []
    md = cat.metadata
    if cat.n != n or md["n_starts"] != starts:
        errors.append(f"catalog n={cat.n} starts={md['n_starts']}")
    if md["n_converged"] + sum(md["failures"].values()) != starts:
        errors.append("converged + failed starts != attempted starts")
    values = [p.value for p in cat.points]
    if values != sorted(values):
        errors.append("families not sorted by potential value")
    for p in cat.points:
        if sum(p.morse_index) != n:
            errors.append(f"morse index {p.morse_index} does not sum to {n}")
        res = float(np.abs(ring_gradient(p.config)).max())
        if not res < 1e-8:
            errors.append(f"family residual {res:.2e} >= 1e-8")
    return errors


def counts_of(cat) -> dict:
    md = cat.metadata
    return {
        "starts": md["n_starts"],
        "stalls": md["failures"]["no_convergence"],
        "collisions": md["failures"]["collision"],
        "converged": md["n_converged"],
        "families": len(cat.points),
    }


def equilibrium_record(eq) -> dict:
    """An equilibrium in the layout of the CLI's equilibria files."""
    return {"epsilon": eq.epsilon, "omega": eq.omega, "r": eq.r.tolist(),
            "theta": eq.theta.tolist(), "residual": eq.residual}


def probe(workdir: str) -> None:
    """Call every traced function at least once, on small fixed inputs.

    The traced run takes a function's time per call from this probe when
    the workload itself never calls it, so every time metric is measured.
    """
    cp = search.newton_refine(potential.ngon(4))
    eq = continuation.continue_equilibrium(cp, 1e-3)
    stability.stability_verdict(eq)
    path = os.path.join(workdir, "probe.json")
    with open(path, "w") as fh:
        json.dump({"equilibria": [equilibrium_record(eq)]}, fh)
    period = TWO_PI / 8
    cli.main(["simulate", "--equilibria", path, "--h", repr(period / 256),
              "--T", repr(period), "--perturb", "1e-6",
              "--out", os.path.join(workdir, "probe.csv")])


# ---------------------------------------------------------------------------


class Workload:
    """A fixed round of ops built from the seed; runs repeat the round."""

    name: str
    why: str
    min_rounds = 3

    def setup(self, seed: int, workdir: str):
        return {"seed": seed}

    def round(self, state) -> list[Op]:
        raise NotImplementedError

    def run(self, state, op: Op):
        raise NotImplementedError

    def check(self, state, op: Op, out) -> tuple[list[str], dict]:
        """Errors in one op's output, and counters to sum over ops."""
        raise NotImplementedError

    def check_round(self, state, ops: list[Op], outs: list) -> list[str]:
        """Errors visible only across the outputs of a whole round."""
        return []


class Census(Workload):
    """Small-N family discovery (criterion 05): one op is a census,
    multistart_search(N, starts, seed) for every N in 2..12."""

    name = "census"
    why = ("one op = multistart_search(N, 4 starts) for each N in 2..12, 40 op seeds; "
           "per-call overhead in potential and Newton stalls; bypasses continuation, "
           "stability, dynamics")
    ns = tuple(range(2, 13))
    starts = 4
    # A census of 44 starts costs about 0.1 s.  Stalls make single
    # searches vary by 2-5x, but summed over the 11 sizes an op varies far
    # less, so the round's median op is steady across seeds.  The smallest
    # family basin at N <= 12 holds about 7% of wedge starts, so the 160
    # starts a round makes at each N miss a family with probability near 1e-5.
    ops_per_round = 40

    def round(self, state) -> list[Op]:
        return [
            Op(f"census #{k}", tuple(sub_seed(state["seed"], n, k) for n in self.ns))
            for k in range(self.ops_per_round)
        ]

    def run(self, state, op: Op):
        return [
            search.multistart_search(n, self.starts, seed=seed)
            for n, seed in zip(self.ns, op.args)
        ]

    def check(self, state, op: Op, cats):
        errors, counts = [], {}
        for n, cat in zip(self.ns, cats):
            errors += [f"n={n}: {e}" for e in catalog_errors(cat, n, self.starts)]
            for p in cat.points:
                if p.morse_index[0] == 2:
                    dev = uniform_gaps(p.config)
                    if not dev < 1e-6:
                        errors.append(f"n={n}: ring family is {dev:.2e} from the n-gon")
            for key, value in counts_of(cat).items():
                counts[key] = counts.get(key, 0) + value
        return errors, counts

    def check_round(self, state, ops, outs):
        errors = []
        for i, n in enumerate(self.ns):
            points = [p for cats in outs for p in cats[i].points]
            negatives = {p.morse_index[0] for p in points}
            expected = {0, 1} if n == 2 else {0, 1, 2}
            if not expected <= negatives:
                errors.append(f"n={n}: no family with {sorted(expected - negatives)} negatives")
            elif min(points, key=lambda p: p.value).morse_index[0] != 0:
                errors.append(f"n={n}: lowest family is not the minimum")
        return errors


class Branch(Workload):
    """Continuation plus stability verdict: one op is
    continue_equilibrium(seed, +-eps) followed by stability_verdict."""

    name = "branch"
    why = ("one op = continue_equilibrium(seed, +-eps) then stability_verdict; seeds are all "
           "N=2..12 families and rings at N=25,50,100; bypasses search and potential")
    ns = tuple(range(2, 13))
    # About 3% of set-ups miss a family, which drops two of the 70 ops.
    catalog_starts = 60
    rings = (25, 50, 100)

    def setup(self, seed: int, workdir: str):
        seeds = []
        for n in self.ns:
            cat = search.multistart_search(n, self.catalog_starts, seed=sub_seed(seed, n))
            seeds.extend(cat.points)
        seeds.extend(search.newton_refine(potential.ngon(n)) for n in self.rings)
        ops = []
        for k, cp in enumerate(seeds):
            eps = min(1e-3, continuation.epsilon_ceiling(cp))
            label = f"n={cp.config.size} neg={cp.morse_index[0]}"
            ops += [Op(f"{label} eps=+", (k, eps)), Op(f"{label} eps=-", (k, -eps))]
        return {"seeds": seeds, "ops": ops}

    def round(self, state) -> list[Op]:
        return state["ops"]

    def run(self, state, op: Op):
        k, eps = op.args
        eq = continuation.continue_equilibrium(state["seeds"][k], eps)
        return eq, stability.stability_verdict(eq)

    def check(self, state, op: Op, out):
        eq, verdict = out
        cp = state["seeds"][op.args[0]]
        eps = op.args[1]
        errors = []
        res = releq_residual(eq.r, eq.theta, eq.epsilon, eq.omega)
        if not (eq.residual < 1e-12 and res < 1e-12):
            errors.append(f"residual {max(eq.residual, res):.2e} >= 1e-12")
        if uniform_gaps(cp.config) < 1e-8:
            law = math.sqrt(1.0 + eps * (cp.config.size - 1) / 2.0)
            dev = float(np.abs(eq.r - law).max())
            if not dev < 1e-10:
                errors.append(f"ring radius {dev:.2e} from the radius law")
        expected = (eps > 0 and cp.cls is CriticalPointClass.LOCAL_MIN) or (
            eps < 0 and cp.cls is CriticalPointClass.LOCAL_MAX
        )
        got = verdict.classification is StabilityClass.LINEARLY_STABLE
        if got != expected:
            errors.append(f"verdict {verdict.classification.value} breaks the dichotomy")
        return errors, {}


class Simulate(Workload):
    """One period of RK4 at h = T/2048 through the CLI: one op is
    cli.main(["simulate", ...]) on an equilibrium file written in set-up."""

    name = "simulate"
    why = ("one op = CLI simulate of one period at h=T/2048 on N=3..50 equilibria, all but "
           "N=50 also with --perturb 1e-6; RK4 and CSV output; bypasses search and continuation")
    rings = (3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 50)
    steps = 2048
    # Every equilibrium but the N = 50 ring also runs perturbed, so a round
    # holds 29 ops and its tail percentile lies above the median.
    unperturbed = ("ring n=50",)

    def setup(self, seed: int, workdir: str):
        eqs, labels = [], []
        for n in self.rings:
            cp = search.newton_refine(potential.ngon(n))
            eps = min(1e-3, continuation.epsilon_ceiling(cp))
            eqs.append(continuation.continue_equilibrium(cp, eps))
            labels.append(f"ring n={n}")
        # The lowest family with 0 and with 1 negative eigenvalue at N = 3
        # and 4, so every seed gives a round of the same ops.
        for n in (3, 4):
            cat = search.multistart_search(n, 60, seed=sub_seed(seed, n))
            for negatives, eps, tag in ((0, 1e-3, "min"), (1, -1e-3, "neg=1")):
                cp = next((p for p in cat.points if p.morse_index[0] == negatives), None)
                if cp is None:
                    raise RuntimeError(f"n={n}: set-up found no family with {negatives} negatives")
                eqs.append(continuation.continue_equilibrium(cp, eps))
                labels.append(f"n={n} {tag}")
        path = os.path.join(workdir, "equilibria.json")
        with open(path, "w") as fh:
            json.dump({"equilibria": [equilibrium_record(eq) for eq in eqs]}, fh)
        return {"seed": seed, "path": path, "labels": labels,
                "out": os.path.join(workdir, "trajectory.csv")}

    def round(self, state) -> list[Op]:
        period = repr(TWO_PI)
        h = repr(TWO_PI / self.steps)
        ops = []
        for i, label in enumerate(state["labels"]):
            argv = ["simulate", "--equilibria", state["path"], "--index", str(i),
                    "--h", h, "--T", period, "--out", state["out"]]
            ops.append(Op(label, tuple(argv)))
            if label not in self.unperturbed:
                extra = ("--perturb", "1e-6", "--seed", str(sub_seed(state["seed"], i)))
                ops.append(Op(f"{label} perturbed", tuple(argv) + extra))
        return ops

    def run(self, state, op: Op):
        return cli.main(list(op.args))

    def check(self, state, op: Op, code):
        if code != 0:
            return [f"exit code {code}"], {}
        stem = state["out"][:-4]
        with open(stem + ".report.json") as fh:
            report = json.load(fh)
        errors = []
        if report.get("aborted") or report.get("steps") != self.steps:
            errors.append(f"aborted={report.get('aborted')} steps={report.get('steps')}")
        perturbed = "--perturb" in op.args
        if not perturbed and not report["rigidity_error"] < 1e-6:
            errors.append(f"rigidity error {report['rigidity_error']:.2e}")
        for key in ("hamiltonian_drift", "moment_drift"):
            if not report[key] < 1e-8:
                errors.append(f"{key} {report[key]:.2e}")
        if perturbed and not math.isfinite(report["growth"]["fitted_rate"]):
            errors.append("growth rate is not finite")
        with open(stem + ".csv", "rb") as fh:
            rows = sum(1 for _ in fh)
        if rows != 3 + self.steps + 1:
            errors.append(f"trajectory has {rows} lines")
        size = os.path.getsize(stem + ".csv") + os.path.getsize(stem + ".report.json")
        return errors, {"bytes_out": size}


WORKLOADS = {w.name: w for w in (Census(), Branch(), Simulate())}
