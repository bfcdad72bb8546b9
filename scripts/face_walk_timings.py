"""Time the face walk of the stability checks on large degenerate origins.

The cases come from the generator of the benchmark's ``degenerate_faces``
workload (``perfbench/problems.py``, only read), run at sizes its schedule
leaves out: for each m, one noncritical and one critical case of
``0.5 x'R diag(d) R'x`` subject to ``R'x >= 0``, classified at the origin
with ``lam = 0``.  Each line gives the best of ``REPEATS`` wall times of
``classify_stationary_point`` without the probe and of ``check_ssoc`` alone,
run in alternation, and the verdicts::

    python scripts/face_walk_timings.py [M ...]      (default: 10 12 14)

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

from conesqp import diagnostics, registry  # noqa: E402
from conesqp.problem import KKTPair  # noqa: E402

SEED = 1
REPEATS = 3


def _load_problems():
    spec = importlib.util.spec_from_file_location("perfbench_problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _best_of_alternating(*fns) -> list[float]:
    """The best wall time of each function over ``REPEATS`` rounds, each
    round running every function once, so drift hits them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sizes = [int(a) for a in argv] or [10, 12, 14]
    problems = _load_problems()
    cfg = diagnostics.DiagnosticsConfig(run_probe=False)
    for m in sizes:
        problems.DEGENERATE_SCHEDULE = ((m, 1, 1),)  # this module's copy only
        for case in problems.degenerate_cases(np.random.default_rng(SEED)):
            p = registry.problem_from_dict(case.doc)
            z = KKTPair(np.zeros(p.n), np.zeros(p.m))
            rep = diagnostics.classify_stationary_point(p, z, cfg)
            t_classify, t_ssoc = _best_of_alternating(
                lambda: diagnostics.classify_stationary_point(p, z, cfg),
                lambda: diagnostics.check_ssoc(p, z, cfg))
            kind = "noncritical" if case.noncritical else "critical"
            print(f"m={m:2d} {kind:11s} classify {t_classify:7.3f} s  check_ssoc {t_ssoc:7.3f} s"
                  f"  ratio {t_classify / t_ssoc:5.2f}  noncritical={rep.noncriticality.noncritical}"
                  f" ssoc_min={rep.ssoc.min_value:.3g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
