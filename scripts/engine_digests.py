"""Digests of the subproblem engines' outputs on two benchmark workloads.

Regenerates the inputs of the ``sqp_solve`` (210 operations) and
``engine_crossval`` (400 operations) workloads at each of ``SEEDS`` from
``perfbench/problems.py`` and ``perfbench/workloads.py``, which are only
read, runs every operation once in process and hashes what it returned:

* ``sqp_solve``: each run's status, failure step, subproblem status, rate,
  iterates, residuals and step norms, and the solution of every subproblem
  it solved;
* ``engine_crossval``: the solution of each engine on each subproblem.

A solution contributes its status and engine, and its ``d``, ``lam`` and
residual bytes.  Each workload and seed gets two SHA-256 digests: ``full`` over all
of that, ``verdicts`` over the statuses, engines and rates only.
``tests/test_engine_digests.py`` compares them with ``EXPECTED``: the full
digests when the build recorded there (Python, numpy, machine) is the one
running, the verdicts alone otherwise, since float bits may differ between
numpy builds.  A change that moves bits on purpose rewrites the file::

    python scripts/engine_digests.py

The package is imported from the ``src/`` directory next to this script.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import conesqp as cs  # noqa: E402

EXPECTED = ROOT / "tests" / "engine_digests.json"
SEEDS = (1, 2, 3)
WORKLOADS = ("sqp_solve", "engine_crossval")


def build() -> dict[str, str]:
    """What the full digests depend on besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _load(name: str):
    """``perfbench/<name>.py`` as the module ``name`` (``workloads`` imports
    ``problems`` by that name), without writing bytecode next to it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class _Digest:
    def __init__(self):
        self.full, self.verdicts = hashlib.sha256(), hashlib.sha256()

    def verdict(self, *values) -> None:
        text = repr(values).encode() + b"\n"
        self.full.update(text)
        self.verdicts.update(text)

    def bits(self, *arrays) -> None:
        for a in arrays:
            self.full.update(b"-" if a is None else np.asarray(a, float).tobytes())

    def solution(self, sol) -> None:
        self.verdict(sol.status, sol.engine)
        self.bits(sol.d, sol.lam, sol.residual)

    def report(self, rep) -> None:
        self.verdict(rep.status, rep.failure_iter, rep.subproblem_status, rep.rate.classification)
        self.bits(rep.rate.ratios, rep.step_norms, rep.errors_to_reference)
        for z, res in zip(rep.iterates, rep.residuals):
            self.bits(z.x, z.lam, (res.stationarity, res.complementarity, res.feasibility))


def run(workload: str, seed: int) -> dict:
    """One pass over the workload's operations at ``seed``: their count, the two
    digests, the ``np.linalg.lstsq`` calls the pass made, and the label of
    every operation that failed its benchmark check."""
    _load("problems")
    generate, setup = _load("workloads").WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        ops = setup(cs, generate(seed, Path(tmp)))
    digest = _Digest()
    solved: list = []  # the subproblem solutions of the running SQP operation
    solve_subproblem, lstsq = cs.sqp.solve_subproblem, np.linalg.lstsq
    lstsq_calls = [0]

    def recorded(*args, **kwargs):
        solved.append(solve_subproblem(*args, **kwargs))
        return solved[-1]

    def counted(*args, **kwargs):
        lstsq_calls[0] += 1
        return lstsq(*args, **kwargs)

    cs.sqp.solve_subproblem, np.linalg.lstsq = recorded, counted
    failed = []
    try:
        for op in ops:
            solved.clear()
            out = op.call()
            if op.check(out) is not None:
                failed.append(op.label)
            if workload == "sqp_solve":
                digest.report(out)
                out = solved
            for sol in out:
                digest.solution(sol)
    finally:
        cs.sqp.solve_subproblem, np.linalg.lstsq = solve_subproblem, lstsq
    return {"operations": len(ops), "full": digest.full.hexdigest(),
            "verdicts": digest.verdicts.hexdigest(), "lstsq_calls": lstsq_calls[0],
            "failed": failed}


def main() -> int:
    doc = {"build": build(), "seeds": {}}
    for seed in SEEDS:
        doc["seeds"][str(seed)] = digests = {}
        for workload in WORKLOADS:
            result = run(workload, seed)
            if result["failed"]:
                print(f"{workload} seed {seed}: operations failing their check: {result['failed']}",
                      file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {result['operations']} operations, "
                  f"{result['lstsq_calls']} lstsq calls")
            digests[workload] = {k: result[k] for k in ("operations", "full", "verdicts")}
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
