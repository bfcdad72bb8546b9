"""Time the face walk of the stability checks on large degenerate origins.

The cases come from the generator of the benchmark's ``degenerate_faces``
workload (``perfbench/problems.py``, only read), run at sizes its schedule
leaves out: for each m, one noncritical and one critical case of
``0.5 x'R diag(d) R'x`` subject to ``R'x >= 0``, classified at the origin
with ``lam = 0``.  Each line gives the best of ``REPEATS`` wall times of
``classify_stationary_point`` without the probe and of ``check_ssoc`` alone,
run in alternation, the peak RSS of each call, how many of the walk's faces
the noncriticality screen leaves to Fourier-Motzkin (``fm_faces``, out of
2^q), and the verdicts::

    python scripts/face_walk_timings.py [M ...]      (default: 10 12 14)

A peak RSS is a high-water mark, so each comes from a fresh child process
that builds the case and makes the one call, and reads its own ``VmHWM``
from ``/proc/self/status`` (Linux).  The child's ``ru_maxrss`` would not do:
across ``exec`` Linux carries over the high-water mark of the process that
started it.  The package is imported from the ``src/`` directory next to
this script.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
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
CFG = diagnostics.DiagnosticsConfig(run_probe=False)


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


def _cases(m: int):
    """``(noncritical, p, z)`` of each case at size m, at its origin."""
    problems = _load_problems()
    problems.DEGENERATE_SCHEDULE = ((m, 1, 1),)  # this module's copy only
    out = []
    for case in problems.degenerate_cases(np.random.default_rng(SEED)):
        p = registry.problem_from_dict(case.doc)
        out.append((case.noncritical, p, KKTPair(np.zeros(p.n), np.zeros(p.m))))
    return out


def _child_peak_rss(m: int, index: int, check: str) -> float:
    """Peak RSS (MB) of this process after it runs ``check`` once on case
    ``index`` at size m."""
    _, p, z = _cases(m)[index]
    getattr(diagnostics, check)(p, z, CFG)
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


def _peak_rss(m: int, index: int, check: str) -> float:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_child_peak_rss, (m, index, check))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sizes = [int(a) for a in argv] or [10, 12, 14]
    for m in sizes:
        for index, (noncritical, p, z) in enumerate(_cases(m)):
            rep = diagnostics.classify_stationary_point(p, z, CFG)
            data, K = diagnostics._gate(p, z)
            fm_faces = len(diagnostics._curvature(p, data, K)[5][1])
            t_classify, t_ssoc = _best_of_alternating(
                lambda: diagnostics.classify_stationary_point(p, z, CFG),
                lambda: diagnostics.check_ssoc(p, z, CFG))
            rss_classify = _peak_rss(m, index, "classify_stationary_point")
            rss_ssoc = _peak_rss(m, index, "check_ssoc")
            kind = "noncritical" if noncritical else "critical"
            print(f"m={m:2d} {kind:11s} classify {t_classify:7.3f} s {rss_classify:6.1f} MB"
                  f"  check_ssoc {t_ssoc:7.3f} s {rss_ssoc:6.1f} MB"
                  f"  ratio {t_classify / t_ssoc:5.2f}  fm_faces {fm_faces}/{2 ** K.ineq.shape[0]}"
                  f"  noncritical={rep.noncriticality.noncritical}"
                  f" ssoc_min={rep.ssoc.min_value:.3g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
