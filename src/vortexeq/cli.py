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
from .potential import CriticalPointClass
from .search import CriticalPoint, multistart_search
from .spectra import SpectrumReport, eig_symmetric, ngon_spectrum_closed_form
from .stability import _require_equilibrium, asymptotic_eigenvalues, stability_verdict

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
    values = np.asarray(arr).ravel()
    if np.iscomplexobj(values):
        values = values.real
    return [float(x) for x in values]


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _config(args: argparse.Namespace, fmt: str) -> dict:
    """The resolved run configuration: every parsed option but ``--out``."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "func")}
    config["format"] = fmt
    return config


def _header(config: dict) -> dict:
    return {"tool": TOOL_NAME, "version": __version__, "config": config}


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
    """Rebuild a catalog entry without re-solving (keeps synthetic inputs)."""
    eig = np.asarray(rec["spectrum"], dtype=float)
    morse = tuple(int(k) for k in rec["morse_index"])
    spectrum = SpectrumReport(eigenvalues=eig, zero_count=morse[1], tol_used=0.0)
    return CriticalPoint(
        config=np.asarray(rec["angles"], dtype=float),
        cls=CriticalPointClass(rec["class"]),
        spectrum=spectrum,
        morse_index=morse,
        residual=float(rec["residual"]),
        value=float(rec["value"]),
        reflection_symmetric=bool(rec.get("reflection_symmetric", False)),
    )


def _equilibrium_record(eq: RelativeEquilibrium) -> dict:
    return {
        "epsilon": float(eq.epsilon),
        "omega": float(eq.omega),
        "r": _floats(eq.r),
        "theta": _floats(eq.theta),
        "residual": float(eq.residual),
    }


def _equilibrium_from_record(rec: dict) -> RelativeEquilibrium:
    return RelativeEquilibrium(
        r=np.asarray(rec["r"], dtype=float),
        theta=np.asarray(rec["theta"], dtype=float),
        epsilon=float(rec["epsilon"]),
        omega=float(rec["omega"]),
        residual=float(rec["residual"]),
    )


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
    catalog = multistart_search(
        args.n,
        args.starts,
        seed=args.seed,
        delta=args.delta,
        dedup_tol=args.dedup_tol,
        newton_tol=args.tol_newton,
        tol_zero=args.tol_zero,
    )
    payload = _header(_config(args, "json"))
    payload["n"] = catalog.n
    payload["families"] = [
        _family_record(i, p, args.plot_data) for i, p in enumerate(catalog.points)
    ]
    payload["metadata"] = {
        "n_converged": catalog.metadata["n_converged"],
        "failures": catalog.metadata["failures"],
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_ngon_spectrum(args: argparse.Namespace) -> int:
    closed = ngon_spectrum_closed_form(args.n)
    from .potential import hessian, ngon

    dense = eig_symmetric(hessian(ngon(args.n))).eigenvalues.real
    order = np.argsort(closed, kind="stable")
    matched = np.empty_like(closed)
    matched[order] = np.sort(dense)
    lines = [
        f"# tool={TOOL_NAME} version={__version__}",
        "# config=" + json.dumps(_config(args, "csv"), sort_keys=True),
        "j,closed_form,dense,abs_difference",
    ]
    for j in range(args.n):
        diff = float(abs(closed[j] - matched[j]))
        lines.append(f"{j},{float(closed[j])!r},{float(matched[j])!r},{diff!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_continue(args: argparse.Namespace) -> int:
    catalog = _load_json(args.catalog)
    families = catalog["families"]
    if not 0 <= args.family < len(families):
        raise VortexEqError(
            f"family index {args.family} out of range (catalog has {len(families)})"
        )
    record = families[args.family]
    cp = _family_from_record(record)
    payload = _header(_config(args, "json"))
    payload["seed_family"] = dict(record, id=args.family)
    done: list[RelativeEquilibrium] = []
    failure = None
    try:
        done = sweep_epsilon(cp, args.eps, releq_tol=args.tol_newton)
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
        print(f"error: {failure}", file=sys.stderr)
        return 1
    _emit(_json_text(payload), args.out)
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    data = _load_json(args.equilibria)
    seed_rec = data.get("seed_family")
    cp = _family_from_record(seed_rec) if seed_rec else None
    payload = _header(_config(args, "json"))
    verdicts = []
    for rec in data["equilibria"]:
        eq = _equilibrium_from_record(rec)
        verdict = stability_verdict(eq, tol=args.tol_zero)
        eigenvalues = np.asarray(verdict.spectrum.eigenvalues)
        entry = {
            "epsilon": float(eq.epsilon),
            "classification": verdict.classification.value,
            "n_zero": verdict.n_zero,
            "max_real_part": float(verdict.max_real_part),
            "instability_count": verdict.instability_count,
            "spectrum": _complex_pairs(eigenvalues),
            "asymptotic": None,
        }
        if cp is not None and cp.morse_index[1] == 1:
            predicted = asymptotic_eigenvalues(cp, eq.epsilon)
            actual = eigenvalues[np.abs(eigenvalues) > 0]
            mismatch = None
            if actual.size == predicted.size and actual.size > 0:
                remaining = list(actual)
                worst = 0.0
                for p in sorted(predicted, key=abs, reverse=True):
                    k = min(range(len(remaining)), key=lambda i: abs(remaining[i] - p))
                    worst = max(worst, abs(remaining.pop(k) - p) / abs(p))
                mismatch = float(worst)
            entry["asymptotic"] = {
                "eigenvalues": _complex_pairs(predicted),
                "mismatch": mismatch,
            }
        verdicts.append(entry)
    payload["verdicts"] = verdicts
    _emit(_json_text(payload), args.out)
    return 0


def _trajectory_csv(traj, config: dict) -> str:
    n_pts = traj.positions.shape[1]
    cols = ["t"]
    for j in range(n_pts):
        cols += [f"x{j}", f"y{j}"]
    lines = [
        f"# tool={TOOL_NAME} version={__version__}",
        "# config=" + json.dumps(config, sort_keys=True),
        ",".join(cols),
    ]
    flat = traj.positions.reshape(traj.times.size, 2 * n_pts)
    # one row at a time: a whole-trajectory tolist() holds every float at once
    for t, row in zip(traj.times.tolist(), flat):
        lines.append(",".join(map(repr, [t] + row.tolist())))
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config(args, "csv")
    data = _load_json(args.equilibria)
    records = data["equilibria"]
    if not 0 <= args.index < len(records):
        raise VortexEqError(
            f"equilibrium index {args.index} out of range (file has {len(records)})"
        )
    eq = _equilibrium_from_record(records[args.index])
    base = PlanarConfiguration.from_equilibrium(eq)
    aborted = False
    growth = None
    try:
        if args.perturb > 0.0:
            growth = perturbation_growth(
                eq, amplitude=args.perturb, t_final=args.T, h=args.h, seed=args.seed
            )
            traj = growth.trajectory
        else:
            _require_equilibrium(eq)
            traj = integrate_rk4(base, args.h, args.T)
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
    if traj is not None and traj.times.size > 0:
        h0 = hamiltonian(base)
        m0 = vorticity_moment(base)
        last = PlanarConfiguration(traj.positions[-1], base.circulations)
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
    csv_text = _trajectory_csv(traj, config) if traj is not None else ""
    if csv_path is None:
        sys.stdout.write(csv_text)
        sys.stdout.write(_json_text(report))
    else:
        _emit(csv_text, csv_path)
        _emit(_json_text(report), report_path)
    if aborted:
        print("error: integration aborted on close approach", file=sys.stderr)
        return 1
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _eps_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty epsilon list")
    if any(v == 0.0 for v in values):
        raise argparse.ArgumentTypeError("epsilon values must be nonzero")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Point-vortex equilibria: search, spectra, continuation, "
        "stability, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser("find", help="multistart search for critical-point families")
    p_find.add_argument("--n", type=int, required=True, help="number of weak vortices")
    p_find.add_argument("--starts", type=int, default=500)
    p_find.add_argument("--delta", type=float, default=1e-2,
                        help="minimum sampled angular gap")
    p_find.add_argument("--dedup-tol", type=float, default=1e-6)
    p_find.add_argument("--plot-data", action="store_true",
                        help="embed unit-circle point lists per family")
    p_find.add_argument("--seed", type=int, default=0, help="RNG seed for the starts")
    p_find.add_argument("--tol-newton", type=float, default=1e-12,
                        help="Newton gradient sup-norm tolerance")
    p_find.add_argument("--tol-zero", type=float, default=1e-9,
                        help="zero Hessian eigenvalue tolerance, times "
                        "max(1, largest |eigenvalue|)")
    p_find.set_defaults(func=cmd_find)

    p_spec = sub.add_parser("ngon-spectrum",
                            help="closed-form vs dense spectrum of the regular polygon")
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.set_defaults(func=cmd_ngon_spectrum)

    p_cont = sub.add_parser("continue",
                            help="continue a catalog family to nonzero epsilon")
    p_cont.add_argument("--catalog", required=True, help="catalog JSON from find")
    p_cont.add_argument("--family", type=int, default=0, help="family id in the catalog")
    p_cont.add_argument("--eps", type=_eps_values, required=True,
                        help="comma-separated nonzero epsilon values")
    p_cont.add_argument("--tol-newton", type=float, default=1e-12,
                        help="Newton residual sup-norm tolerance")
    p_cont.set_defaults(func=cmd_continue)

    p_stab = sub.add_parser("stability", help="linear stability of continued equilibria")
    p_stab.add_argument("--equilibria", required=True,
                        help="equilibria JSON from continue")
    p_stab.add_argument("--tol-zero", type=float, default=1e-9,
                        help="zero eigenvalue tolerance, scaled by sqrt(|eps|)")
    p_stab.set_defaults(func=cmd_stability)

    p_sim = sub.add_parser("simulate", help="integrate the full vortex system")
    p_sim.add_argument("--equilibria", required=True,
                       help="equilibria JSON from continue")
    p_sim.add_argument("--index", type=int, default=0,
                       help="equilibrium index within the file")
    p_sim.add_argument("--h", type=_positive_float, required=True, help="RK4 step size")
    p_sim.add_argument("--T", type=_positive_float, required=True, help="final time")
    p_sim.add_argument("--perturb", type=float, default=0.0,
                       help="perturbation amplitude (0 = unperturbed)")
    p_sim.add_argument("--seed", type=int, default=0,
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
    if args.command == "find" and args.n < 2:
        parser.error("find requires --n >= 2")
    if args.command == "ngon-spectrum" and args.n < 3:
        parser.error("ngon-spectrum requires --n >= 3")
    if args.command == "simulate" and args.perturb < 0.0:
        parser.error("--perturb must be nonnegative")
    try:
        return args.func(args)
    except VortexEqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
