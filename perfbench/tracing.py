"""Spans recorded around the library's public functions, from outside it.

A ``Tracer`` replaces each traced function in every ``vortexeq`` module
namespace that binds it (``search.gradient`` as well as
``potential.gradient``), so calls made inside the library are recorded too.
Each call becomes one span: its name, start, end, parent span and the op it
belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Traced functions as "<module>.<function>"; the module part is the layer.
TRACED = (
    "potential.gradient",
    "potential.hessian",
    "potential.potential",
    "potential.classify",
    "spectra.eig_symmetric",
    "search.multistart_search",
    "search.newton_refine",
    "search.canonicalize",
    "search.symmetry_distance",
    "continuation.continue_equilibrium",
    "continuation.rotating_frame_residual",
    "stability.linearize",
    "stability.reduced_field",
    "stability.stability_verdict",
    "dynamics.integrate_rk4",
    "dynamics.hamiltonian",
    "dynamics.vorticity_moment",
    "dynamics.rigidity_error",
    "dynamics.perturbation_growth",
    "cli.main",
)

OP = "op"  # name of the span around one whole op

# Work units taken from a traced call's result.
WORK = {"dynamics.integrate_rk4": lambda traj: traj.times.size - 1}


class Tracer:
    """In-memory span recorder; spans are (op, parent, name, start_ns, end_ns).

    A span's id is its index in ``spans``; parent -1 marks a root.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (self._op, parent, name, start, end)
            if work is not None:
                self.work[name] += work(result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op ``op_id`` inside a root span named OP."""
        self._op = op_id
        try:
            return self.wrap(OP, fn)(*args)
        finally:
            self._op = -1

    def install(self) -> None:
        """Replace every traced function in all loaded vortexeq modules."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "vortexeq" or name.startswith("vortexeq."))
        ]
        for qualified in TRACED:
            layer, attr = qualified.split(".")
            original = getattr(sys.modules[f"vortexeq.{layer}"], attr)
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "op": op, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end}, separators=(",", ":")
                ) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, (_, parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, _, _, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".")[0]


def summarize(spans) -> dict:
    """Per-name call counts and self time, per-layer self time, op wall time,
    and call counts keyed by (parent name, child name)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    edges: dict[tuple[str, str], int] = defaultdict(int)
    op_ns = 0
    for (_, parent, name, start, end), own in zip(spans, selfs):
        calls[name] += 1
        self_ns[name] += own
        layer_ns[layer_of(name)] += own
        if name == OP:
            op_ns += end - start
        if parent >= 0:
            edges[(spans[parent][2], name)] += 1
    return {
        "calls": calls,
        "self_ns": self_ns,
        "layer_ns": layer_ns,
        "edges": edges,
        "op_ns": op_ns,
    }
