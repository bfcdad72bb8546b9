"""Sweep the closed-form second subderivative against the quotient oracle.

For each cone kind, draws random (point, normal, critical direction)
triples and compares the closed-form curvature value with the
difference-quotient estimate.  Polyhedral kinds must agree exactly; the
second-order cone's curvature term is the interesting case.

    python scripts/curvature_oracle_sweep.py

The package is imported from the ``src/`` directory next to this script.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conesqp import cones  # noqa: E402


def sweep(name, cone, n, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    values = []
    t0 = time.perf_counter()
    for _ in range(n):
        y, lam = cones.sample_boundary_pair(cone, rng)
        w = cones.sample_critical_direction(cone, y, lam, rng)
        closed = cones.second_subderivative(cone, y, lam, w)
        oracle = cones.dq_oracle_second_subderivative(cone, y, lam, w)
        worst = max(worst, abs(closed - oracle) / (1.0 + abs(closed)))
        values.append(closed)
    wall = time.perf_counter() - t0
    print(f"{name:<10} n={n:<4} curvature range [{min(values):.3f}, {max(values):.3f}] "
          f"max deviation {worst:.2e}  ({wall:.2f}s)")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    cones_by_name = {
        "zero2": cones.zero(2),
        "orthant3": cones.orthant(3),
        "soc3": cones.second_order(3),
        "soc4": cones.second_order(4),
        "mixed": cones.product(cones.orthant(2), cones.second_order(3)),
    }
    worst = 0.0
    for name, cone in cones_by_name.items():
        worst = max(worst, sweep(name, cone, args.n, args.seed))
    print(f"\noverall max relative deviation: {worst:.2e} "
          f"({'within' if worst <= 1e-3 else 'OUTSIDE'} the 1e-3 gate)")


if __name__ == "__main__":
    main()
