"""Write every registry JSON report, with its exit code, into one directory.

The runs go in process through ``conesqp.cli.main``:

* ``diagnose``, with and without the probe, at each known registry point;
* ``probe-calmness`` at the same points;
* ``solve`` from ``x0`` = 0.1, 0.5 and 1.9 in every coordinate, per problem;
* ``oracle-check`` for zero3, orthant4, soc3 and soc5 at seed 7.

Each run leaves ``<run>.json`` (the ``--json`` report) and ``<run>.exit``.
The reports are byte-identical for identical code, so ``diff -r`` of two
output directories shows exactly what a change did to them::

    python scripts/registry_reports.py OUT_DIR

The package is imported from the ``src/`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conesqp import cli, registry  # noqa: E402

SOLVE_STARTS = (0.1, 0.5, 1.9)
ORACLE_CONES = ("zero3", "orthant4", "soc3", "soc5")
ORACLE_SEED = 7


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def runs():
    """(run name, CLI arguments without --json), in a fixed order."""
    for name, entry in sorted(registry.registry().items()):
        for i, known in enumerate(entry.known_points):
            point = ["--x", _vec(known.point.x), "--lam", _vec(known.point.lam)]
            yield f"diagnose_{name}_{i}", ["diagnose", name, *point]
            yield f"diagnose-noprobe_{name}_{i}", ["diagnose", name, *point, "--no-probe"]
            yield f"probe-calmness_{name}_{i}", ["probe-calmness", name, *point]
        for start in SOLVE_STARTS:
            x0 = _vec([start] * entry.problem.n)
            yield f"solve_{name}_{start}", ["solve", name, "--x0", x0]
    for cone in ORACLE_CONES:
        yield f"oracle-check_{cone}", ["oracle-check", "--cone", cone, "--seed", str(ORACLE_SEED)]


def main(argv=None, selected=None) -> int:
    """Write the reports of the ``selected`` runs (all by default) into the
    directory ``argv[0]``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python scripts/registry_reports.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for run, args in runs() if selected is None else selected:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*args, "--json", str(out / f"{run}.json")])
        (out / f"{run}.exit").write_text(f"{code}\n")
        print(f"{run}: exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
