"""Command-line front end: catalog search, spectra, continuation, stability,
and direct simulation, serialized as JSON/CSV data files.

Every output embeds the tool version and the fully resolved run
configuration, and files are written atomically (temp file + rename).
Identical command lines with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .continuation import (
    RelativeEquilibrium,
    sweep_epsilon,
    verify_lemma1_scaling,
)
from .dynamics import (
    _MAX_STEPS,
    PlanarConfiguration,
    hamiltonian,
    integrate_rk4,
    perturbation_growth,
    rigidity_error,
    vorticity_moment,
)
from .errors import (
    CollisionAbort,
    InsufficientFamily,
    NoConvergence,
    VortexEqError,
)
from .potential import hessian, ngon
from .search import CriticalPoint, multistart_search
from .spectra import eig_symmetric, ngon_spectrum_closed_form
from .stability import asymptotic_eigenvalues, stability_verdict

TOOL_NAME = "vortexeq"


def _atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".vortexeq-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _floats(arr) -> list:
    return [float(x) for x in np.asarray(arr).ravel()]


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _config(args: argparse.Namespace, fmt: str) -> dict:
    """The resolved run configuration: every parsed option but ``--out``."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "func")}
    config["format"] = fmt
    return config


def _header(config: dict) -> dict:
    return {"tool": TOOL_NAME, "version": __version__, "config": config}


def _csv(config: dict, columns: list[str], rows) -> str:
    """CSV text: tool and config comment lines, column header, rows of reprs."""
    head = [f"# tool={TOOL_NAME} version={__version__}",
            "# config=" + json.dumps(config, sort_keys=True), ",".join(columns)]
    return "\n".join(head + [",".join(map(repr, row)) for row in rows]) + "\n"


def _pick(records: list, index: int, what: str, where: str):
    """records[index], or VortexEqError when index is out of range."""
    if not 0 <= index < len(records):
        raise VortexEqError(f"{what} index {index} out of range ({where} has {len(records)})")
    return records[index]


def _family_record(idx: int, p: CriticalPoint, plot_data: bool) -> dict:
    rec = {
        "id": idx,
        "angles": _floats(p.config),
        "class": p.cls.value,
        "morse_index": list(p.morse_index),
        "spectrum": _floats(p.spectrum.eigenvalues),
        "value": float(p.value),
        "residual": float(p.residual),
        "reflection_symmetric": bool(p.reflection_symmetric),
    }
    if plot_data:
        rec["plot_data"] = [
            [float(np.cos(t)), float(np.sin(t))] for t in p.config
        ]
    return rec


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _family_from_record(rec: dict) -> CriticalPoint:
    """Rebuild a catalog family from its angles alone, without re-solving.

    Everything else is recomputed, so NotCritical is raised when the angles
    are not a critical point; a stored Morse index that disagrees with the
    recomputed one raises ValueError.
    """
    cp = CriticalPoint(rec["angles"])
    if tuple(rec["morse_index"]) != cp.morse_index:
        raise ValueError(
            f"stored morse_index {rec['morse_index']} differs from the "
            f"recomputed {list(cp.morse_index)}"
        )
    return cp


def _equilibrium_record(eq: RelativeEquilibrium) -> dict:
    return {
        "epsilon": float(eq.epsilon),
        "omega": float(eq.omega),
        "r": _floats(eq.r),
        "theta": _floats(eq.theta),
        "residual": float(eq.residual),
    }


def _equilibrium_from_record(rec: dict) -> RelativeEquilibrium:
    """Rebuild an equilibrium from eps, r and theta, which the constructor
    checks; a stored residual is not read.  ValueError unless a stored omega
    is 1."""
    if rec.get("omega", RelativeEquilibrium.omega) != RelativeEquilibrium.omega:
        raise ValueError(f"omega must be 1, got {rec['omega']!r}")
    return RelativeEquilibrium(r=rec["r"], theta=rec["theta"], epsilon=rec["epsilon"])


def _scaling_record(family: list[RelativeEquilibrium]) -> dict | None:
    try:
        rep = verify_lemma1_scaling(family)
    except InsufficientFamily:
        return None
    return {
        "epsilons": _floats(rep.epsilons),
        "q0_ratios": _floats(rep.q0_ratios),
        "radius_ratios": _floats(rep.radius_ratios),
        "q0_bounded": bool(rep.q0_bounded),
        "radius_bounded": bool(rep.radius_bounded),
    }


def cmd_find(args: argparse.Namespace) -> int:
    catalog = multistart_search(args.n, args.starts, seed=args.seed)
    payload = _header(_config(args, "json"))
    payload["n"] = catalog.n
    payload["families"] = [
        _family_record(i, p, args.plot_data) for i, p in enumerate(catalog.points)
    ]
    payload["metadata"] = {
        k: catalog.metadata[k] for k in ("n_converged", "failures", "euler_sum")
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_ngon_spectrum(args: argparse.Namespace) -> int:
    closed = ngon_spectrum_closed_form(args.n)
    dense = eig_symmetric(hessian(ngon(args.n))).eigenvalues
    order = np.argsort(closed, kind="stable")
    matched = np.empty_like(closed)
    matched[order] = np.sort(dense)
    rows = zip(range(args.n), closed.tolist(), matched.tolist(), np.abs(closed - matched).tolist())
    _emit(_csv(_config(args, "csv"), ["j", "closed_form", "dense", "abs_difference"], rows),
          args.out)
    return 0


def cmd_continue(args: argparse.Namespace) -> int:
    record = _pick(_load_json(args.catalog)["families"], args.family, "family", "catalog")
    cp = _family_from_record(record)
    payload = _header(_config(args, "json"))
    payload["seed_family"] = _family_record(args.family, cp, "plot_data" in record)
    done: list[RelativeEquilibrium] = []
    failure = None
    try:
        done = sweep_epsilon(cp, args.eps)
    except NoConvergence as exc:
        done = list(exc.partial or [])
        failure = str(exc)
    payload["equilibria"] = [_equilibrium_record(eq) for eq in done]
    by_sign = {
        "positive": [eq for eq in done if eq.epsilon > 0],
        "negative": [eq for eq in done if eq.epsilon < 0],
    }
    payload["lemma1_scaling"] = {
        sign: _scaling_record(group) for sign, group in by_sign.items()
    }
    if failure is not None:
        payload["error"] = failure
    _emit(_json_text(payload), args.out)
    if failure is None:
        return 0
    print(f"error: {failure}", file=sys.stderr)
    return 1


def cmd_stability(args: argparse.Namespace) -> int:
    data = _load_json(args.equilibria)
    seed_rec = data.get("seed_family")
    cp = _family_from_record(seed_rec) if seed_rec else None
    payload = _header(_config(args, "json"))
    verdicts = []
    for rec in data["equilibria"]:
        eq = _equilibrium_from_record(rec)
        verdict = stability_verdict(eq)
        eigenvalues = np.asarray(verdict.spectrum.eigenvalues)
        entry = {
            "epsilon": float(eq.epsilon),
            "classification": verdict.classification.value,
            "n_zero": verdict.spectrum.zero_count,
            "max_real_part": float(verdict.max_real_part),
            "instability_count": verdict.instability_count,
            "spectrum": _complex_pairs(eigenvalues),
            "asymptotic": None,
        }
        if cp is not None and cp.morse_index[1] == 1:
            predicted = asymptotic_eigenvalues(cp, eq.epsilon)
            actual = eigenvalues[np.abs(eigenvalues) > 0]
            # worst |lambda - p| / |p| matched in sorted order of Re lambda^2, each match
            # taking the nearer sign of the pair +/- lambda: an upper bound on the optimal
            # (bottleneck) matching's, above it where p is off by over 100% (N = 9, eps < 0)
            a, p = (v[np.argsort((v * v).real, kind="stable")] for v in (actual, predicted))
            worst = np.minimum(np.abs(a - p), np.abs(a + p)) / np.abs(p) if a.size == p.size else []
            entry["asymptotic"] = {
                "eigenvalues": _complex_pairs(predicted),
                "mismatch": float(np.max(worst)) if len(worst) else None,
            }
        verdicts.append(entry)
    payload["verdicts"] = verdicts
    _emit(_json_text(payload), args.out)
    return 0


def _trajectory_csv(traj, config: dict) -> str:
    cols = ["t"] + [f"{c}{j}" for j in range(traj.positions.shape[1]) for c in "xy"]
    flat = traj.positions.view(float)  # x0, y0, x1, y1, ... per row
    # one row at a time: a whole-trajectory tolist() holds every float at once
    return _csv(config, cols, ([t] + row.tolist() for t, row in zip(traj.times.tolist(), flat)))


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config(args, "csv")
    records = _load_json(args.equilibria)["equilibria"]
    eq = _equilibrium_from_record(_pick(records, args.index, "equilibrium", "file"))
    aborted = False
    growth = None
    try:
        if args.perturb > 0.0:
            growth = perturbation_growth(
                eq, amplitude=args.perturb, t_final=args.T, h=args.h, seed=args.seed
            )
            traj = growth.trajectory
        else:
            traj = integrate_rk4(PlanarConfiguration.from_equilibrium(eq), args.h, args.T)
    except CollisionAbort as exc:
        traj = exc.trajectory
        aborted = True
    csv_path = args.out
    report_path = None
    if csv_path is not None:
        stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
        csv_path = stem + ".csv"
        report_path = stem + ".report.json"
    report = _header(config)
    report["aborted"] = aborted
    # drifts from the first sample, which is the perturbed start under --perturb
    first = PlanarConfiguration(traj.positions[0], eq.epsilon)
    last = PlanarConfiguration(traj.positions[-1], eq.epsilon)
    h0 = hamiltonian(first)
    m0 = vorticity_moment(first)
    report["rigidity_error"] = float(rigidity_error(traj))
    report["hamiltonian_drift"] = abs(hamiltonian(last) - h0) / max(abs(h0), 1e-300)
    report["moment_drift"] = abs(vorticity_moment(last) - m0) / max(abs(m0), 1e-300)
    report["steps"] = int(traj.times.size - 1)
    if growth is not None:
        report["growth"] = {
            "fitted_rate": float(growth.fitted_rate),
            "predicted_rate": float(growth.predicted_rate),
            "amplitude": float(growth.amplitude),
            "window_points": int(growth.window_points),
            "max_deviation": float(growth.max_deviation),
        }
    _emit(_trajectory_csv(traj, config), csv_path)
    _emit(_json_text(report), report_path)
    if aborted:
        print("error: integration aborted on close approach", file=sys.stderr)
        return 1
    return 0


def _number(kind: type, low: int, strict: bool = False):
    """argparse type: a finite ``kind`` >= low, > low if ``strict``; named after
    ``kind``, so text that does not convert reads "invalid int value: 'abc'"."""
    def convert(text: str):
        value = kind(text)
        if not ((low < value) if strict else (low <= value)) or value == np.inf:  # nan fails too
            op = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be finite and {op} {low}, got {text}")
        return value
    convert.__name__ = kind.__name__
    return convert


def _eps_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty epsilon list")
    if not all(0.0 < abs(v) < np.inf for v in values):  # false for nan too
        raise argparse.ArgumentTypeError("epsilon values must be finite and nonzero")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Point-vortex equilibria: search, spectra, continuation, "
        "stability, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    positive, seed = _number(float, 0, strict=True), _number(int, 0)

    p_find = sub.add_parser("find", help="multistart search for critical-point families")
    p_find.add_argument("--n", type=_number(int, 2), required=True, help="number of weak vortices")
    p_find.add_argument("--starts", type=_number(int, 1), default=500)
    p_find.add_argument("--plot-data", action="store_true",
                        help="embed unit-circle point lists per family")
    p_find.add_argument("--seed", type=seed, default=0, help="RNG seed for the starts")
    p_find.set_defaults(func=cmd_find)

    p_spec = sub.add_parser("ngon-spectrum",
                            help="closed-form vs dense spectrum of the regular polygon")
    p_spec.add_argument("--n", type=_number(int, 3), required=True)
    p_spec.set_defaults(func=cmd_ngon_spectrum)

    p_cont = sub.add_parser("continue",
                            help="continue a catalog family to nonzero epsilon")
    p_cont.add_argument("--catalog", required=True, help="catalog JSON from find")
    p_cont.add_argument("--family", type=int, default=0, help="family id in the catalog")
    p_cont.add_argument("--eps", type=_eps_values, required=True,
                        help="comma-separated nonzero epsilon values")
    p_cont.set_defaults(func=cmd_continue)

    p_stab = sub.add_parser("stability", help="linear stability of continued equilibria")
    p_stab.add_argument("--equilibria", required=True,
                        help="equilibria JSON from continue")
    p_stab.set_defaults(func=cmd_stability)

    p_sim = sub.add_parser("simulate", help="integrate the full vortex system")
    p_sim.add_argument("--equilibria", required=True,
                       help="equilibria JSON from continue")
    p_sim.add_argument("--index", type=int, default=0,
                       help="equilibrium index within the file")
    p_sim.add_argument("--h", type=positive, required=True, help="RK4 step size")
    p_sim.add_argument("--T", type=positive, required=True, help="final time")
    p_sim.add_argument("--perturb", type=_number(float, 0), default=0.0,
                       help="perturbation amplitude (0 = unperturbed)")
    p_sim.add_argument("--seed", type=seed, default=0,
                       help="RNG seed for the perturbation")
    p_sim.set_defaults(func=cmd_simulate)

    for p in (p_find, p_spec, p_cont, p_stab, p_sim):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--eps" in argv[:-1]:  # argparse reads "--eps -1e-3" as two flags
        i = argv.index("--eps")
        argv[i : i + 2] = [f"--eps={argv[i + 1]}"]
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.T / args.h > _MAX_STEPS:
        parser.error(f"simulate requires --T / --h <= {_MAX_STEPS}")
    try:
        return args.func(args)
    except VortexEqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
