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
read.  The last line compares the tape build of all ``engine_crossval``
expressions with one dense evaluation of each, which is what that
workload's set-up does::

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
from conesqp import expr, registry  # noqa: E402

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


def _groups():
    pb = _load_problems()
    reg = []
    for name, entry in registry.registry().items():
        p = entry.problem
        x = p.reference.x if p.reference is not None else np.zeros(p.n)
        reg += [(expr.to_string(a), p.n, x) for a in (p.objective, *p.constraints)]
    rng = np.random.default_rng(SEED)
    sqp = []
    for schedule in (pb.SQP_POLYHEDRAL, pb.SQP_SOC):
        for j, (n, blocks, pattern) in enumerate(schedule):
            case = pb.sqp_case(rng, f"sqp{j}", n, blocks, pattern)
            sqp += _doc_texts(case.doc, case.x0)
    rng = np.random.default_rng(SEED)
    crossval = []
    for r in range(40):  # the workload's CROSSVAL_ROUNDS
        for schedule in (pb.CROSSVAL_POLYHEDRAL, pb.CROSSVAL_SOC):
            for j, (n, blocks, pattern) in enumerate(schedule):
                case = pb.crossval_case(rng, f"crossval{j}_{r}", n, blocks, pattern)
                crossval += _doc_texts(case.doc, np.zeros(n))
    degenerate = []
    for case in pb.degenerate_cases(np.random.default_rng(SEED)):
        degenerate += _doc_texts(case.doc, np.zeros(case.doc["n"]))
    return {"registry": reg, "sqp_solve": sqp, "engine_crossval": crossval,
            "degenerate_faces": degenerate}


def _best_mean(fn, count: int) -> float:
    """Best of ``REPEATS`` runs of ``fn``, per expression, in microseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / count


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
            expr._compile(ast.root, ast.n, exact=False)
        best_build = min(best_build, time.perf_counter() - t0)
    tapes = [expr._tape(ast, False) for ast, _ in parsed]
    sizes = [len(t.grad_code[0]) + len(t.hess_code[0]) for t in tapes]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
