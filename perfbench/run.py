"""Benchmark of conesqp, end to end (timed) or per layer (traced).

Run from the repository root; the package is imported from ``src/``, so it
needs no installation, only the standard library and numpy::

    python3 perfbench/run.py --workload sqp_solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run generates the workload's inputs from ``--seed``, sets the program up
``SETUP_REPEATS`` times from a fresh import, then repeats whole passes over
the workload's fixed operation list until ``--seconds`` have passed (at
least ``MIN_PASSES``), checking every output.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end to end with ``--trace 0`` and per layer with ``--trace 1``.
The exit code is 0 only when every operation ran and passed its check.
``--workload all`` runs every workload in its own process, untraced and
traced, and prints a summary with the tracing overhead.

Generated problem files, traced JSON reports and span dumps go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_import():
    """Import conesqp from src/ as a cold start would (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "conesqp" or n.startswith("conesqp.")]:
        del sys.modules[name]
    cs = importlib.import_module("conesqp")
    importlib.import_module("conesqp.cli")
    if Path(cs.__file__).resolve().parent != SRC / "conesqp":
        raise ImportError(f"conesqp imported from {cs.__file__}, not from {SRC}")
    return cs


def run_passes(ops, seconds: float):
    """Whole passes until ``seconds`` have passed.

    Returns the time each pass spent in the program (the checks excluded),
    the latency of every operation that returned, the number that raised,
    and the first error.
    """
    walls, latencies, failed, error = [], [], 0, None
    t_run = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t_run < seconds:
        wall = 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # an operation that raises counts as failed
                wall += time.perf_counter() - t0
                failed += 1
                error = error or f"{op.label}: {traceback.format_exc(limit=3)}"
                continue
            latency = time.perf_counter() - t0
            wall += latency
            latencies.append(latency)
            msg = op.check(out)
            if msg is not None and error is None:
                error = f"{op.label}: {msg}"
        walls.append(wall)
    return walls, latencies, failed, error


def run_workload(name: str, generate, setup, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Tracer

    inputs = generate(seed, OUT / name)

    if trace:
        cs = fresh_import()
        tracer = Tracer()
        tracer.install()
        ops = setup(cs, inputs)
        setup_mark = tracer.mark()
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cs = fresh_import()
            ops = setup(cs, inputs)
            setup_times.append(time.perf_counter() - t0)

    walls, latencies, failed, error = run_passes(ops, seconds)
    attempted = len(walls) * len(ops)

    if trace:
        metrics = tracer.metrics(setup_mark, len(walls))
        tracer.save(OUT / f"{name}.spans.npz")
    else:
        ms = [1e3 * t for t in latencies]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    correct = error is None
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{name}: seed {seed}, trace {int(trace)}, {len(walls)} passes of {len(ops)} operations, "
          f"attempted {attempted}, failed {failed}, correct {correct}")
    print("detail " + json.dumps({"pass_wall_s": walls}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


def run_all(names, seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced."""
    status = 0
    for name in names:
        walls = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            status = status or proc.returncode
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            walls[trace] = statistics.median(json.loads(lines[-2][len("detail "):])["pass_wall_s"])
            print(lines[0])
            for key, m in result["metrics"].items():
                print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}")
        if len(walls) == 2:
            print(f"  tracing overhead (traced - untraced wall_s): {walls[1] - walls[0]:.3f} s "
                  f"({100.0 * (walls[1] / walls[0] - 1.0):.1f}%)")
    return status


def main(argv=None) -> int:
    for var in THREAD_VARS:  # one thread for numpy's BLAS, set before numpy loads
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conesqp" / "__init__.py").is_file():
        print(f"error: {SRC / 'conesqp'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    return run_workload(args.workload, *WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
