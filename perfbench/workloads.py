"""The four workloads: seeded inputs, the operations timed, and their checks.

Each workload is a ``generate(seed, out_dir)`` that makes the inputs (the
benchmark's own work, untimed) and writes every generated problem as a JSON
problem file, and a ``setup(cs, inputs)`` that hands those inputs to the
program and returns the operations.  ``cs`` is the freshly imported
``conesqp`` package.  An operation is a call into the program, timed, and a
check of what it returned, untimed; the check returns an error text or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import problems

REGISTRY_POINTS = 7  # known points of the built-in registry


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _write_docs(out_dir: Path, docs) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = out_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths.append(path)
    return paths


def _csv(v) -> str:
    return ",".join(repr(float(t)) for t in v)


# ---------------------------------------------------------------------------
# registry_probe: `conesqp diagnose --json` with the probe at every known point


def registry_probe_generate(seed: int, out_dir: Path):
    # the points are the registry's; the seed only orders them
    return {"order": np.random.default_rng(seed).permutation(REGISTRY_POINTS), "out": out_dir}


_EXPECT_FIELDS = {  # registry `expect` key -> path in the JSON report
    "ssoc_holds": ("ssoc", "holds"),
    "srcq": ("srcq", "holds"),
    "noncritical": ("noncritical", "holds"),
    "unique": ("lambda_unique",),
    "calm": ("multiplier_calm", "verdict"),
    "probe": ("calmness_probe", "profile"),
}


def _dig(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def registry_probe_setup(cs, inputs) -> list[Op]:
    points = [(name, kp) for name, entry in cs.registry.registry().items()
              for kp in entry.known_points]
    if len(points) != REGISTRY_POINTS:
        raise RuntimeError(f"registry holds {len(points)} known points, expected {REGISTRY_POINTS}")
    out_dir = inputs["out"]
    out_dir.mkdir(parents=True, exist_ok=True)
    first_bytes: dict[str, bytes] = {}
    ops = []
    for i in inputs["order"]:
        name, kp = points[i]
        label = f"{name}@x={_csv(kp.point.x)};lam={_csv(kp.point.lam)}"
        path = out_dir / f"{name}-{i}.json"
        argv = ["diagnose", name, "--x", _csv(kp.point.x), "--lam", _csv(kp.point.lam),
                "--jobs", "1", "--seed", "0", "--json", str(path)]

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cs.cli.main(argv)

        def check(rc, label=label, path=path, expect=kp.expect, lam=kp.point.lam):
            if rc != 0:
                return f"exit code {rc}"
            raw = path.read_bytes()
            if first_bytes.setdefault(label, raw) != raw:
                return "JSON report differs from the first pass"
            doc = json.loads(raw)
            if doc["failures"]:
                return f"failures {doc['failures']}"
            rep = doc["report"]
            for key, want in expect.items():
                if key == "ssoc_min":
                    got = rep["ssoc"]["min_value"]
                    if not (isinstance(got, float) and abs(got - want) <= 1e-6):
                        return f"ssoc_min {got} != {want}"
                    continue
                got = _dig(rep, _EXPECT_FIELDS[key])
                if got != want:
                    return f"{key} {got!r} != {want!r}"
            if label.startswith("critical_toy") and lam[0] == -1.0:
                ratios = {s["radius"]: s["max_ratio"] for s in rep["calmness_probe"]["samples"]}
                for r in (1e-2, 1e-6):
                    if not 1.0 / 3.0 <= ratios[r] * math.sqrt(r) <= 3.0:
                        return f"probe ratio {ratios[r]} at r={r} is not within 3x of r^-1/2"
            return None

        ops.append(Op(label, call, check))
    return ops


# ---------------------------------------------------------------------------
# degenerate_faces: classify_stationary_point without the probe at the origin


def degenerate_faces_generate(seed: int, out_dir: Path):
    cases = problems.degenerate_cases(np.random.default_rng(seed))
    return list(zip(cases, _write_docs(out_dir, [c.doc for c in cases])))


def degenerate_faces_setup(cs, inputs) -> list[Op]:
    cs.registry.registry()
    cfg = cs.diagnostics.DiagnosticsConfig(run_probe=False, jobs=1)
    ops = []
    for case, path in inputs:
        p = cs.registry.problem_from_dict(case.doc, source=str(path))
        z = cs.problem.KKTPair(np.zeros(p.n), np.zeros(p.m))

        def call(p=p, z=z):
            return cs.diagnostics.classify_stationary_point(p, z, cfg)

        def check(rep, case=case):
            if rep.failures:
                return f"failures {rep.failures}"
            want = float(case.d.min())
            if not (rep.ssoc.conclusive and abs(rep.ssoc.min_value - want) <= 1e-6):
                return f"ssoc min {rep.ssoc.min_value} != min d_i = {want}"
            nc = rep.noncriticality
            if not nc.conclusive or nc.noncritical != case.noncritical:
                return f"noncritical={nc.noncritical} (conclusive={nc.conclusive}), expected {case.noncritical}"
            if not (rep.srcq.holds and rep.srcq.conclusive):
                return "strict Robinson qualification not certified"
            if rep.lambda_unique is not True:
                return f"multiplier unique = {rep.lambda_unique}"
            if nc.witness is not None and not problems.critical_witness_ok(case, *nc.witness):
                return "criticality witness fails the numpy check"
            return None

        ops.append(Op(case.doc["name"], call, check))
    return ops


# ---------------------------------------------------------------------------
# sqp_solve: run_basic_sqp from starts near a constructed KKT point

SQP_ROUNDS_POLYHEDRAL = 30  # enumeration problems: the median operation
SQP_ROUNDS_SOC = 22  # semismooth Newton problems: the slowest two fifths


def sqp_solve_generate(seed: int, out_dir: Path):
    rng = np.random.default_rng(seed)
    cases = []
    for kind, schedule, rounds in (("poly", problems.SQP_POLYHEDRAL, SQP_ROUNDS_POLYHEDRAL),
                                   ("soc", problems.SQP_SOC, SQP_ROUNDS_SOC)):
        for r in range(rounds):
            for j, (n, blocks, pattern) in enumerate(schedule):
                cases.append(problems.sqp_case(rng, f"sqp_{kind}{j}_{r}", n, blocks, pattern))
    return list(zip(cases, _write_docs(out_dir, [c.doc for c in cases])))


def _ex55_residual(x, lam) -> float:
    """KKT residual of min -x^2/2 + x^3/6 s.t. x >= 0."""
    blocks = (("orthant", 1),)
    return problems.kkt_residual(blocks, -x + 0.5 * x**2, x.copy(), np.ones((1, 1)), lam)


def sqp_solve_setup(cs, inputs) -> list[Op]:
    sqp = cs.sqp
    fast = (sqp.RATE_SUPERLINEAR, sqp.RATE_QUADRATIC)
    ex55 = cs.registry.registry()["ex55"].problem
    KKTPair = cs.problem.KKTPair

    def converged(rep, x_star, lam_star, residual):
        if rep.status != sqp.CONVERGED:
            return f"status {rep.status} at k={rep.failure_iter}"
        z = rep.final
        dist = float(np.linalg.norm(np.concatenate([z.x - x_star, z.lam - lam_star])))
        if dist > 1e-8:
            return f"final iterate {dist:.3e} from the KKT point"
        res = residual(z.x, z.lam)
        if res > 1e-8:
            return f"recomputed KKT residual {res:.3e}"
        if rep.rate.classification not in fast:
            return f"rate {rep.rate.classification}"
        return None

    def solvability_failure(rep):
        if rep.status != sqp.SOLVABILITY_FAILURE or rep.failure_iter != 0:
            return f"status {rep.status} at k={rep.failure_iter}, expected SolvabilityFailure at k=0"
        return None

    ops = [
        Op("ex55 from 1.9", lambda: sqp.run_basic_sqp(ex55, KKTPair([1.9], [0.0])),
           lambda rep: converged(rep, np.array([2.0]), np.array([0.0]), _ex55_residual)),
        Op("ex55 from 0.1", lambda: sqp.run_basic_sqp(ex55, KKTPair([0.1], [0.0])),
           solvability_failure),
    ]
    for case, path in inputs:
        p = cs.registry.problem_from_dict(case.doc, source=str(path))
        z0 = KKTPair(case.x0, case.lam0)
        ops.append(Op(
            case.doc["name"],
            lambda p=p, z0=z0: sqp.run_basic_sqp(p, z0),
            lambda rep, case=case: converged(rep, case.x_star, case.lam_star, case.residual),
        ))
    return ops


# ---------------------------------------------------------------------------
# engine_crossval: every applicable engine on strictly convex subproblems

CROSSVAL_ROUNDS = 40


def engine_crossval_generate(seed: int, out_dir: Path):
    rng = np.random.default_rng(seed)
    cases = [
        problems.crossval_case(rng, f"crossval_{kind}{j}_{r}", n, blocks, pattern)
        for r in range(CROSSVAL_ROUNDS)
        for kind, schedule in (("poly", problems.CROSSVAL_POLYHEDRAL), ("soc", problems.CROSSVAL_SOC))
        for j, (n, blocks, pattern) in enumerate(schedule)
    ]
    return list(zip(cases, _write_docs(out_dir, [c.doc for c in cases])))


def engine_crossval_setup(cs, inputs) -> list[Op]:
    sp = cs.subproblem
    cs.registry.registry()
    ops = []
    for case, path in inputs:
        p = cs.registry.problem_from_dict(case.doc, source=str(path))
        # the subproblem at the origin is the generated quadratic program itself
        data = cs.sqp.build_subproblem(p, cs.problem.KKTPair(np.zeros(p.n), np.zeros(p.m)))
        engines = ([sp.ENGINE_ENUMERATION] if case.polyhedral else []) + [
            sp.ENGINE_NEWTON, sp.ENGINE_SPLITTING]
        cfgs = [sp.SolverConfig(engine=e) for e in engines]

        def call(data=data, cfgs=cfgs):
            return [sp.solve_subproblem(data, cfg=cfg) for cfg in cfgs]

        def check(sols, case=case, engines=engines):
            # the solution is unique, so every engine must reach the constructed optimum
            best = case.objective(case.d_star)
            for engine, sol in zip(engines, sols):
                if sol.status != sp.KKT_POINT or sol.engine != engine:
                    return f"{engine}: status {sol.status} from engine {sol.engine!r}"
                res = case.residual(sol.d, sol.lam)
                if res > 1e-8 * case.scale:
                    return f"{engine}: KKT residual {res:.3e} above 1e-8 x scale {case.scale:.3g}"
                obj = case.objective(sol.d)
                if abs(obj - best) > 1e-6 * (1.0 + abs(best)):
                    return f"{engine}: objective {obj} != constructed optimum {best}"
            return None

        ops.append(Op(case.doc["name"], call, check))
    return ops


WORKLOADS = {
    "registry_probe": (registry_probe_generate, registry_probe_setup),
    "degenerate_faces": (degenerate_faces_generate, degenerate_faces_setup),
    "sqp_solve": (sqp_solve_generate, sqp_solve_setup),
    "engine_crossval": (engine_crossval_generate, engine_crossval_setup),
}
