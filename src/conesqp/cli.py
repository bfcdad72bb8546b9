"""Command-line harness: solve / diagnose / probe-calmness / oracle-check.

Exit codes: 0 on success, 1 when the run produced FAILURE artifacts (or an
oracle deviation beyond tolerance), 2 on usage or schema errors and on a
search that ran out of its work budget.  JSON reports are byte-identical
for identical inputs, seed and version; wall time is printed to the
console only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, cones, diagnostics, registry, sqp
from .polyhedra import BudgetExceeded
from .problem import KKTPair
from .registry import SchemaError
from .tolerances import ORACLE_GATE


def _parse_vector(text: str, length: int, name: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"--{name}: expected comma-separated floats, got {text!r}") from exc
    if vec.shape != (length,):
        raise SchemaError(f"--{name}: expected {length} entries, got {vec.size}")
    return vec


def _fmt(x: float) -> str:
    return f"{x:.3g}"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else ("inf" if v > 0 else "-inf")
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(_jsonable(doc), sort_keys=True).encode()).hexdigest()


def _emit(args, payload: dict, failures: list[str]) -> int:
    payload = _jsonable(payload)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    for f in failures:
        print(f)
    return 1 if failures else 0


def _report_skeleton(command: str, inputs: dict, seed: int) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": _jsonable(inputs),
        "inputs_digest": _digest({"command": command, "seed": seed, "inputs": inputs}),
    }


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    p = registry.load_problem(args.problem)
    x0 = _parse_vector(args.x0, p.n, "x0") if args.x0 else np.zeros(p.n)
    lam0 = _parse_vector(args.lam0, p.m, "lam0") if args.lam0 else np.zeros(p.m)
    cfg = sqp.SQPConfig(
        max_iters=args.max_iters, stop_tol=args.tol, delta=args.delta, seed=args.seed
    )
    t0 = time.perf_counter()
    rep = sqp.run_basic_sqp(p, KKTPair(x0, lam0), cfg)
    wall = time.perf_counter() - t0

    print(f"problem {p.name}: n={p.n}, m={p.m}")
    header = f"{'k':>3} {'step':>10} {'stationarity':>13} {'complement':>11} {'feasibility':>12}"
    has_err = rep.errors_to_reference is not None
    if has_err:
        header += f" {'error':>10} {'ratio':>8}"
    print(header)
    for k, res in enumerate(rep.residuals):
        row = f"{k:>3} "
        row += f"{_fmt(rep.step_norms[k - 1]) if 0 < k <= len(rep.step_norms) else '-':>10} "
        row += f"{_fmt(res.stationarity):>13} {_fmt(res.complementarity):>11} {_fmt(res.feasibility):>12}"
        if has_err:
            err = rep.errors_to_reference[k]
            row += f" {_fmt(err):>10}"
            if k > 0 and rep.errors_to_reference[k - 1] > 0:
                row += f" {_fmt(err / rep.errors_to_reference[k - 1]):>8}"
            else:
                row += f" {'-':>8}"
        print(row)
    print(f"status: {rep.status}", end="")
    if rep.status == sqp.SOLVABILITY_FAILURE:
        print(f" at k={rep.failure_iter} (subproblem: {rep.subproblem_status})", end="")
    if rep.status == sqp.LOCALIZATION_VIOLATED:
        print(f" at k={rep.failure_iter} (step exceeded delta={cfg.delta})", end="")
    print(f"; rate: {rep.rate.classification}")
    print(f"final residual: {rep.residuals[-1].total:.3e}  wall time: {wall:.3f}s")

    payload = _report_skeleton(
        "solve",
        {
            "problem": args.problem, "x0": x0, "lam0": lam0,
            "max_iters": cfg.max_iters, "tol": cfg.stop_tol, "delta": cfg.delta,
        },
        args.seed,
    )
    payload["report"] = {
        "status": rep.status,
        "failure_iter": rep.failure_iter,
        "subproblem_status": rep.subproblem_status,
        "iterates": [{"x": it.x, "lam": it.lam} for it in rep.iterates],
        "residuals": [
            {"stationarity": r.stationarity, "complementarity": r.complementarity,
             "feasibility": r.feasibility, "total": r.total}
            for r in rep.residuals
        ],
        "step_norms": list(rep.step_norms),
        "errors_to_reference": list(rep.errors_to_reference) if has_err else None,
        "rate": {"classification": rep.rate.classification, "ratios": list(rep.rate.ratios)},
    }
    payload["failures"] = []
    return _emit(args, payload, [])


# ---------------------------------------------------------------------------
# diagnose / probe-calmness


def _point_from_args(p, args):
    if (args.x is None) != (args.lam is None):
        raise SchemaError("--x and --lam go together: give both or neither")
    if args.x is None:
        if p.reference is None:
            raise SchemaError("--x/--lam required (problem has no reference point)")
        return p.reference
    return KKTPair(_parse_vector(args.x, p.n, "x"), _parse_vector(args.lam, p.m, "lam"))


def _probe_payload(probe):
    if probe is None:
        return None
    return {
        "profile": probe.profile,
        "growth": probe.growth,
        "samples": [
            {"radius": s.radius, "max_ratio": s.max_ratio,
             "n_solved": s.n_solved, "n_samples": s.n_samples}
            for s in probe.samples
        ],
    }


def _cmd_diagnose(args) -> int:
    p = registry.load_problem(args.problem)
    z = _point_from_args(p, args)
    cfg = diagnostics.DiagnosticsConfig(seed=args.seed, jobs=args.jobs, run_probe=not args.no_probe)
    t0 = time.perf_counter()
    rep = diagnostics.classify_stationary_point(p, z, cfg)
    wall = time.perf_counter() - t0

    print(f"problem {p.name} at x={[float(v) for v in z.x]}, lam={[float(v) for v in z.lam]}")
    ssoc_txt = "holds" if rep.ssoc.holds else "FAILS"
    print(f"  second-order sufficiency: {ssoc_txt} (min {_fmt(rep.ssoc.min_value)}"
          + ("" if rep.ssoc.conclusive else ", sampled") + ")")
    print(f"  strict Robinson qualification: {'holds' if rep.srcq.holds else 'FAILS'}"
          f" ({rep.srcq.certificate})")
    nc = rep.noncriticality
    print(f"  multiplier: {'noncritical' if nc.noncritical else 'CRITICAL'}"
          + ("" if nc.conclusive else f" ({nc.reason})"))
    if nc.witness is not None:
        print(f"    witness w={[float(v) for v in nc.witness[0]]}, u={[float(v) for v in nc.witness[1]]}")
    print(f"  multiplier map: {rep.multiplier_calm.verdict} ({rep.multiplier_calm.reason})")
    uniq = {True: "unique", False: "not unique", None: "undetermined"}[rep.lambda_unique]
    print(f"  multiplier set: nonempty={rep.multipliers.nonempty}, {uniq}")
    if rep.calmness_probe is not None:
        pr = rep.calmness_probe
        print(f"  calmness probe: {pr.profile} (growth {_fmt(pr.growth)})")
        for s in pr.samples:
            print(f"    r={s.radius:.0e}  max ratio {_fmt(s.max_ratio)}  ({s.n_solved} solutions)")
    consistent = {True: "consistent", False: "VIOLATED", None: "not assertable"}
    print(f"  isolated-calmness biconditional: {consistent[rep.isolated_calmness_consistent]}")
    print(f"  qualification biconditional: {consistent[rep.qualification_consistent]}")
    print(f"  wall time: {wall:.3f}s")

    payload = _report_skeleton(
        "diagnose", {"problem": args.problem, "x": z.x, "lam": z.lam}, args.seed
    )
    payload["report"] = {
        "ssoc": {"min_value": rep.ssoc.min_value, "holds": rep.ssoc.holds,
                 "witness": rep.ssoc.witness, "conclusive": rep.ssoc.conclusive},
        "srcq": {"holds": rep.srcq.holds, "certificate": rep.srcq.certificate,
                 "witness": rep.srcq.witness, "conclusive": rep.srcq.conclusive,
                 "primal_crosscheck": rep.srcq.primal_crosscheck},
        "noncritical": {"holds": nc.noncritical, "conclusive": nc.conclusive,
                        "witness": None if nc.witness is None else
                        {"w": nc.witness[0], "u": nc.witness[1]}},
        "multiplier_calm": {"verdict": rep.multiplier_calm.verdict,
                            "reason": rep.multiplier_calm.reason},
        "multipliers": {
            "status": rep.multipliers.status, "nonempty": rep.multipliers.nonempty,
            "unique": rep.multipliers.unique, "sample": rep.multipliers.sample,
            "bounding_box": rep.multipliers.bounding_box,
        },
        "lambda_unique": rep.lambda_unique,
        "calmness_probe": _probe_payload(rep.calmness_probe),
        "isolated_calmness_consistent": rep.isolated_calmness_consistent,
        "qualification_consistent": rep.qualification_consistent,
    }
    payload["failures"] = list(rep.failures)
    return _emit(args, payload, list(rep.failures))


def _cmd_probe(args) -> int:
    p = registry.load_problem(args.problem)
    z = _point_from_args(p, args)
    cfg = diagnostics.DiagnosticsConfig(
        seed=args.seed, jobs=args.jobs, probe_samples=args.samples
    )
    t0 = time.perf_counter()
    probe = diagnostics.probe_isolated_calmness(p, z, cfg)
    wall = time.perf_counter() - t0
    print(f"problem {p.name}: perturbed-KKT distance ratios near the point")
    for s in probe.samples:
        print(f"  r={s.radius:.0e}  max ratio {_fmt(s.max_ratio)}  ({s.n_solved} solutions)")
    print(f"profile: {probe.profile} (growth {_fmt(probe.growth)}); wall time {wall:.3f}s")
    payload = _report_skeleton(
        "probe-calmness",
        {"problem": args.problem, "x": z.x, "lam": z.lam, "samples": args.samples},
        args.seed,
    )
    payload["report"] = _probe_payload(probe)
    payload["failures"] = []
    return _emit(args, payload, [])


# ---------------------------------------------------------------------------
# oracle-check


_NAMED_CONES = {"zero": cones.zero, "orthant": cones.orthant, "soc": cones.second_order}


def _cone_from_name(name: str):
    for prefix, ctor in _NAMED_CONES.items():
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return ctor(int(name[len(prefix):]))
    raise SchemaError(
        f"--cone {name!r} not recognized; use e.g. soc3, orthant4, zero2"
    )


def _cmd_oracle_check(args) -> int:
    cone = _cone_from_name(args.cone)
    if args.n < 1:
        raise SchemaError(f"--n must be at least 1, got {args.n}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    checked = 0
    t0 = time.perf_counter()
    for _ in range(args.n):
        y, lam = cones.sample_boundary_pair(cone, rng)
        w = cones.sample_critical_direction(cone, y, lam, rng)
        closed = cones.second_subderivative(cone, y, lam, w)
        oracle = cones.dq_oracle_second_subderivative(cone, y, lam, w)
        dev = abs(closed - oracle) / (1.0 + abs(closed))
        worst = max(worst, dev)
        checked += 1
    wall = time.perf_counter() - t0
    ok = worst <= ORACLE_GATE
    print(f"cone {args.cone}: {checked} random critical triples, "
          f"max relative deviation {worst:.3e} ({'OK' if ok else 'FAIL'}), wall {wall:.2f}s")
    payload = _report_skeleton(
        "oracle-check", {"cone": args.cone, "n": args.n}, args.seed
    )
    payload["report"] = {"max_deviation": worst, "n": checked, "ok": ok}
    failures = [] if ok else [f"FAILURE: oracle deviation {worst:.3e} beyond {ORACLE_GATE:g}"]
    payload["failures"] = failures
    return _emit(args, payload, failures)


def _cmd_list(args) -> int:
    reg = registry.registry()
    for name in sorted(reg):
        p = reg[name].problem
        blocks = ",".join(f"{b.kind}{b.dim}" for b in p.cone.blocks)
        print(f"{name:<16} n={p.n} m={p.m} cone=[{blocks}] known_points={len(reg[name].known_points)}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesqp",
        description="Basic SQP over cone constraints and second-order KKT stability diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", type=str, default=None, help="write a JSON report here")

    def point(sp):
        sp.add_argument("problem")
        sp.add_argument("--x", type=str, default=None)
        sp.add_argument("--lam", type=str, default=None)
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepts only 1: the probe runs serially")

    sp = sub.add_parser("solve", help="run the SQP iteration on a problem")
    sp.add_argument("problem", help="registry name or JSON problem file")
    sp.add_argument("--x0", type=str, default=None, help="comma-separated start point")
    sp.add_argument("--lam0", type=str, default=None, help="comma-separated start multiplier")
    sp.add_argument("--max-iters", type=int, default=sqp.SQPConfig.max_iters)
    sp.add_argument("--delta", type=float, default=sqp.SQPConfig.delta, help="localization radius")
    sp.add_argument("--tol", type=float, default=sqp.SQPConfig.stop_tol,
                    help="KKT residual stopping tolerance")
    common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("diagnose", help="second-order stability report at a KKT point")
    point(sp)
    sp.add_argument("--no-probe", action="store_true", help="skip the perturbation probe")
    common(sp)
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser("probe-calmness", help="perturbed-KKT distance-ratio profile")
    point(sp)
    sp.add_argument("--samples", type=int, default=diagnostics.DiagnosticsConfig.probe_samples,
                    help="random directions per radius")
    common(sp)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("oracle-check", help="closed-form vs difference-quotient agreement")
    sp.add_argument("--cone", type=str, default="soc3", help="e.g. soc3, orthant4, zero2")
    sp.add_argument("--n", type=int, default=100)
    common(sp)
    sp.set_defaults(func=_cmd_oracle_check)

    sp = sub.add_parser("list-problems", help="list the built-in problem registry")
    sp.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
