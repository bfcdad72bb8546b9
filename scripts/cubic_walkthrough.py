"""Walk through the one-variable cubic program min -x^2/2 + x^3/6 s.t. x >= 0.

The origin is a KKT point with a unique multiplier whose perturbed KKT
system is isolated-calm, yet the quadratic subproblems built near it have
no KKT points at all, so the local iteration cannot even start there.
Near the strict minimizer x = 2 the same iteration converges at a
second-order rate.  This script reproduces both regimes and prints the
stability report of each stationary point.

    python scripts/cubic_walkthrough.py

The package is imported from the ``src/`` directory next to this script.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conesqp import diagnostics, registry, sqp  # noqa: E402
from conesqp.problem import KKTPair  # noqa: E402


def banner(text):
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def main():
    p = registry.load_problem("ex55")

    banner("iteration started next to the degenerate point (x0 = 0.1)")
    rep = sqp.run_basic_sqp(p, KKTPair([0.1], [0.0]))
    print(f"status: {rep.status} at iteration {rep.failure_iter} "
          f"(subproblem: {rep.subproblem_status})")

    banner("iteration started next to the strict minimizer (x0 = 1.9)")
    rep = sqp.run_basic_sqp(p, KKTPair([1.9], [0.0]))
    print(f"{'k':>2} {'x':>18} {'error':>12} {'ratio':>12}")
    errors = rep.errors_to_reference
    for k, it in enumerate(rep.iterates):
        ratio = errors[k] / errors[k - 1] if k and errors[k - 1] > 0 else float("nan")
        print(f"{k:>2} {it.x[0]:>18.12f} {errors[k]:>12.3e} {ratio:>12.3e}")
    print(f"status: {rep.status}, rate: {rep.rate.classification}")

    for x, lam in ((0.0, 0.0), (2.0, 0.0)):
        banner(f"stability report at (x, lam) = ({x}, {lam})")
        out = diagnostics.classify_stationary_point(
            p, KKTPair([x], [lam]), diagnostics.DiagnosticsConfig()
        )
        print(f"second-order sufficiency: min {out.ssoc.min_value:+.3f} "
              f"({'holds' if out.ssoc.holds else 'fails'})")
        print(f"strict Robinson qualification: {out.srcq.holds}")
        print(f"noncritical multiplier: {out.noncriticality.noncritical}")
        print(f"multiplier map: {out.multiplier_calm.verdict}")
        print(f"probe profile: {out.calmness_probe.profile} "
              f"(growth {out.calmness_probe.growth:.2f})")
        print(f"failure artifacts: {list(out.failures) or 'none'}")


if __name__ == "__main__":
    np.set_printoptions(precision=6)
    main()
