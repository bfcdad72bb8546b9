"""Time the expression tape against the dense reference evaluator.

For each group of expressions, with its evaluation point, this prints the
number of expressions, tape instructions per expression (mean and largest;
gradient part + Hessian part), the tape's payload bytes per expression
(constants, operations, register numbers), and per expression the best of
``REPEATS`` mean times of

* ``build``: compiling a freshly parsed expression into its tape;
* ``eval2`` at one point, by the tape (built beforehand) and by the
  recursive dense evaluator in ``tests/expr_reference.py``;
* ``eval2`` at a stack of ``STACK`` points near it, tape and reference.

The groups are the registry's expressions (each also on its own line) and
the seed-1 expressions of the ``sqp_solve`` (one round of each schedule),
``engine_crossval`` (all of them) and ``degenerate_faces`` workloads, made
by the benchmark's generator ``perfbench/problems.py``, which is only
read.  A line then compares the tape build of all ``engine_crossval``
expressions with one dense evaluation of each, which is what that
workload's set-up does.  Last, per group of problems, one line gives the
per-problem means of the problem tape (objective and constraints on one
tape): its instructions against the sum over its per-expression tapes, its
build, and one run at a point and at a stack with Hessians, against the
m+1 per-expression ``eval2`` runs that replaced it::

    python scripts/expr_timings.py

The package is imported from the ``src/`` directory next to this script.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import expr_reference  # noqa: E402
from conesqp import cones, expr, problem, registry  # noqa: E402

SEED = 1
REPEATS = 5
STACK = 29  # the probe's halved Armijo steps of one row come as a stack of 29


def _load_problems():
    spec = importlib.util.spec_from_file_location("perfbench_problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _doc_texts(doc, x) -> list[tuple[str, int, np.ndarray]]:
    n = doc["n"]
    return [(t, n, x) for t in [doc["objective"]] + [c["expr"] for c in doc["constraints"]]]


def _problem_groups():
    """Per group, ``(problem document, evaluation point)`` pairs."""
    pb = _load_problems()
    reg = []
    for name, entry in registry.registry().items():
        p = entry.problem
        doc = {"name": name, "n": p.n, "objective": expr.to_string(p.objective),
               "constraints": [{"expr": expr.to_string(c)} for c in p.constraints]}
        reg.append((doc, p.reference.x if p.reference is not None else np.zeros(p.n)))
    rng = np.random.default_rng(SEED)
    sqp = []
    for schedule in (pb.SQP_POLYHEDRAL, pb.SQP_SOC):
        for j, (n, blocks, pattern) in enumerate(schedule):
            case = pb.sqp_case(rng, f"sqp{j}", n, blocks, pattern)
            sqp.append((case.doc, case.x0))
    rng = np.random.default_rng(SEED)
    crossval = []
    for r in range(40):  # the workload's CROSSVAL_ROUNDS
        for schedule in (pb.CROSSVAL_POLYHEDRAL, pb.CROSSVAL_SOC):
            for j, (n, blocks, pattern) in enumerate(schedule):
                case = pb.crossval_case(rng, f"crossval{j}_{r}", n, blocks, pattern)
                crossval.append((case.doc, np.zeros(n)))
    degenerate = [(case.doc, np.zeros(case.doc["n"]))
                  for case in pb.degenerate_cases(np.random.default_rng(SEED))]
    return {"registry": reg, "sqp_solve": sqp, "engine_crossval": crossval,
            "degenerate_faces": degenerate}


def _groups():
    return {name: [item for doc, x in docs for item in _doc_texts(doc, x)]
            for name, docs in _problem_groups().items()}


def _best_mean(fn, count: int) -> float:
    """Best of ``REPEATS`` runs of ``fn``, per expression, in microseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / count


def _instructions(tape) -> int:
    return len(tape.grad_code[0]) + len(tape.hess_code[0])


def _tape_bytes(tape) -> int:
    arrays = (tape.consts, *tape.grad_code[1:], *tape.hess_code[1:], tape.grad, tape.hess,
              tape.checks)
    return sum(len(a) * a.itemsize for a in arrays) + len(tape.grad_code[0]) + len(tape.hess_code[0])


def _measure(items):
    parsed = [(expr.parse(t, n), np.asarray(x, float)) for t, n, x in items]
    count = len(parsed)
    rng = np.random.default_rng(SEED)
    stacks = [x + 1e-3 * rng.normal(size=(STACK, len(x))) for _, x in parsed]

    best_build = float("inf")
    for _ in range(REPEATS):  # fresh trees each time, since the tape is kept on its tree
        fresh = [expr.parse(t, n) for t, n, _ in items]
        t0 = time.perf_counter()
        for ast in fresh:
            expr._compile([ast.root], ast.n, exact=False)
        best_build = min(best_build, time.perf_counter() - t0)
    tapes = [expr._tape(ast, (ast,), False) for ast, _ in parsed]
    sizes = [_instructions(t) for t in tapes]
    return {
        "count": count,
        "instr_mean": float(np.mean(sizes)),
        "instr_max": max(sizes),
        "grad_hess": (sum(len(t.grad_code[0]) for t in tapes), sum(len(t.hess_code[0]) for t in tapes)),
        "bytes": float(np.mean([_tape_bytes(t) for t in tapes])),
        "build_us": 1e6 * best_build / count,
        "build_s": best_build,
        "tape_us": _best_mean(lambda: [expr.eval2(a, x) for a, x in parsed], count),
        "ref_us": _best_mean(lambda: [expr_reference.eval2(a, x) for a, x in parsed], count),
        "tape_stack_us": _best_mean(
            lambda: [expr.eval2(a, X) for (a, _), X in zip(parsed, stacks)], count),
        "ref_stack_us": _best_mean(
            lambda: [expr_reference.eval2(a, X) for (a, _), X in zip(parsed, stacks)], count),
    }


def _parse_problem(doc) -> problem.ProblemSpec:
    n = doc["n"]
    return problem.ProblemSpec(doc.get("name", "p"), n, expr.parse(doc["objective"], n),
                               tuple(expr.parse(c["expr"], n) for c in doc["constraints"]),
                               cones.orthant(len(doc["constraints"])))


def _measure_problems(docs) -> str:
    """One line: per-problem means of the problem tape against the m+1
    per-expression tapes, both built beforehand for the runs."""
    count = len(docs)
    best_build = float("inf")
    for _ in range(REPEATS):  # fresh problems each time, since the tape is kept on the problem
        fresh = [_parse_problem(doc) for doc, _ in docs]
        t0 = time.perf_counter()
        for p in fresh:
            expr._compile([a.root for a in (p.objective, *p.constraints)], p.n, exact=False)
        best_build = min(best_build, time.perf_counter() - t0)
    rng = np.random.default_rng(SEED)
    items = [(_parse_problem(doc), np.asarray(x, float)) for doc, x in docs]
    items = [(p, x, x + 1e-3 * rng.normal(size=(STACK, p.n))) for p, x in items]
    for p, x, _ in items:
        problem._outputs(p, x, True)
        for a in (p.objective, *p.constraints):
            expr.eval2(a, x)
    shared = sum(_instructions(p.__dict__["_tape"]) for p, _, _ in items)
    alone = sum(_instructions(a.__dict__["_tape"]) for p, _, _ in items
                for a in (p.objective, *p.constraints))
    one = _best_mean(lambda: [problem._outputs(p, x, True) for p, x, _ in items], count)
    each = _best_mean(lambda: [[expr.eval2(a, x) for a in (p.objective, *p.constraints)]
                               for p, x, _ in items], count)
    one_stack = _best_mean(lambda: [problem._outputs(p, X, True) for p, _, X in items], count)
    each_stack = _best_mean(lambda: [[expr.eval2(a, X) for a in (p.objective, *p.constraints)]
                                     for p, _, X in items], count)
    exprs = sum(1 + p.m for p, _, _ in items) / count
    return (f"{count:5d} problems, {exprs:5.1f} exprs: instructions {shared / count:7.1f} "
            f"(alone {alone / count:7.1f}), build {1e6 * best_build / count:7.1f} us, "
            f"run {one:6.1f} us (m+1 eval2 {each:6.1f}), "
            f"stack{STACK} {one_stack:7.1f} us (m+1 eval2 {each_stack:7.1f})")


def _line(name: str, m) -> str:
    return (f"{name:<28} {m['count']:5d} {m['instr_mean']:7.1f} {m['instr_max']:5d} "
            f"{m['bytes']:7.0f} {m['build_us']:8.1f} {m['tape_us']:8.1f} {m['ref_us']:8.1f} "
            f"{m['tape_stack_us']:9.1f} {m['ref_stack_us']:9.1f}")


def main() -> int:
    groups = _groups()
    print(f"{'group / expression':<28} {'exprs':>5} {'instr':>7} {'max':>5} {'bytes':>7} "
          f"{'build':>8} {'tape':>8} {'dense':>8} {'tape' + str(STACK):>9} {'dense' + str(STACK):>9}")
    print(f"{'':<28} {'':>5} {'mean':>7} {'':>5} {'mean':>7} {'us':>8} {'us':>8} {'us':>8} "
          f"{'us':>9} {'us':>9}")
    for text, n, x in groups["registry"]:
        print(_line("  " + text[:26], _measure([(text, n, x)])))
    results = {}
    for name, items in groups.items():
        results[name] = m = _measure(items)
        print(_line(name, m) + f"   instructions {m['grad_hess'][0]} + {m['grad_hess'][1]}")
    m = results["engine_crossval"]
    print(f"engine_crossval, all {m['count']} expressions: tape build {m['build_s']:.3f} s, "
          f"one dense eval2 of each {1e-6 * m['ref_us'] * m['count']:.3f} s")
    print("problem tapes (per problem; run and eval2 with Hessians)")
    for name, docs in _problem_groups().items():
        print(f"{name:<18} " + _measure_problems(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
