"""Contrast bounded and diverging perturbation profiles on the registry.

The perturbed-KKT probe records, per radius r, the worst ratio
distance(solution, reference)/r over tilt/shift perturbations of norm r.
An isolated-calm solution map keeps the profile flat; the critical
multiplier of the squared-equality toy problem produces the r^(-1/2)
blow-up predicted by its closed-form perturbed solutions.  Each line ends
with the wall time of that point's probe and its ``damped_newton`` calls:
their number, then ``calls x rows`` for each stack size in call order.  The
last line gives the wall time of all the probes together.

    python scripts/probe_profiles.py

The package is imported from the ``src/`` directory next to this script.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conesqp import diagnostics, registry  # noqa: E402
from conesqp.problem import KKTPair  # noqa: E402

CASES = [
    ("ex55", KKTPair([0.0], [0.0])),
    ("ex55", KKTPair([2.0], [0.0])),
    ("qp_orthant", None),
    ("soc_toy", None),
    ("soc_degenerate", None),
    ("critical_toy", KKTPair([0.0], [0.0])),
    ("critical_toy", KKTPair([0.0], [-1.0])),
]


def _count_newton_calls(stacks: list[int]) -> None:
    """Make every ``damped_newton`` call of the probe append its row count."""
    kernel = diagnostics.damped_newton

    def counted(cone, residual, linearize, x0, *args, **kwargs):
        stacks.append(len(x0))
        return kernel(cone, residual, linearize, x0, *args, **kwargs)

    diagnostics.damped_newton = counted


def main():
    stacks: list[int] = []
    _count_newton_calls(stacks)
    total = 0.0
    for name, z in CASES:
        p = registry.load_problem(name)
        z = z or p.reference
        stacks.clear()
        start = time.perf_counter()
        probe = diagnostics.probe_isolated_calmness(p, z)
        wall = time.perf_counter() - start
        total += wall
        radii = " ".join(f"{s.max_ratio:>9.3g}" for s in probe.samples)
        point = f"x={np.round(z.x, 3)!s} lam={np.round(z.lam, 3)!s}"
        calls = " ".join(f"{k}x{rows}" for rows, k in Counter(stacks).items())
        print(f"{name:<14} {point:<28} {radii}   -> {probe.profile:<13} {wall:6.3f} s"
              f"   newton {len(stacks):2d}: {calls}")
    print(f"\nall {len(CASES)} probes: {total:.3f} s")
    print("columns: max ratio at r = " +
          ", ".join(f"{r:.0e}" for r in diagnostics.PROBE_RADII))


if __name__ == "__main__":
    main()
