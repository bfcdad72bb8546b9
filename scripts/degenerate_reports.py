"""Write the no-probe classification of every degenerate_faces case, one file each.

The cases are the ones the benchmark's ``degenerate_faces`` workload builds
for seeds 1, 2 and 3, 100 per seed: ``0.5 x'R diag(d) R'x`` subject to
``R'x >= 0`` with m = 4..8, classified at the origin with ``lam = 0``.  Each
case leaves ``seed<S>_<name>.txt``, the ``repr`` of its ``DiagnosticsReport``
with every float printed in full, so ``diff -r`` of two output directories
shows each bit that a change moved::

    python scripts/degenerate_reports.py OUT_DIR

The package is imported from the ``src/`` directory next to this script, and
the case generator from ``perfbench/problems.py``, which is only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conesqp import diagnostics, registry  # noqa: E402
from conesqp.problem import KKTPair  # noqa: E402

SEEDS = (1, 2, 3)


def _load_problems():
    spec = importlib.util.spec_from_file_location("perfbench_problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python scripts/degenerate_reports.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    problems = _load_problems()
    cfg = diagnostics.DiagnosticsConfig(run_probe=False)
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        for seed in SEEDS:
            for case in problems.degenerate_cases(np.random.default_rng(seed)):
                p = registry.problem_from_dict(case.doc)
                rep = diagnostics.classify_stationary_point(p, KKTPair(np.zeros(p.n), np.zeros(p.m)), cfg)
                (out / f"seed{seed}_{p.name}.txt").write_text(repr(rep) + "\n")
            print(f"seed {seed}: done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
