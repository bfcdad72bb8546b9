"""Spans around the public functions of each conesqp module, from outside.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper, in
every ``conesqp`` module that holds the function under any name (``sqp``
imports ``solve_subproblem`` by name, the package re-exports most of them).
The wrapper records one span (layer, start, end, parent span) in flat
arrays and, for a few layers, reads a work count from the returned value.
Spans stay in memory until the run ends.  The program is traced from a
single thread, so the parent of a span is simply the innermost open one.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "expr.eval2",
    "expr.parse",
    "cones.project",
    "cones.critical_cone",
    "polyhedra.functional_range",
    "polyhedra.feasible_point",
    "polyhedra.is_feasible",
    "problem.lagrangian_data",
    "problem.kkt_residual",
    "problem.multiplier_set_analysis",
    "subproblem.solve_subproblem",
    "subproblem.enumerate_kkt_points",
    "subproblem.semismooth_newton_solve",
    "subproblem.splitting_solve",
    "sqp.run_basic_sqp",
    "sqp.build_subproblem",
    "diagnostics.check_ssoc",
    "diagnostics.check_noncriticality",
    "diagnostics.check_srcq",
    "diagnostics.probe_isolated_calmness",
    "registry.problem_from_dict",
    "cli.main",
)

ENGINES = ("Enumeration", "SemismoothNewton", "Splitting")

# work counts read from returned values; ratios are formed in metrics()
COUNTS = (
    "sqp.iterations",
    *(f"subproblem.engine.{e}" for e in ENGINES),
    "diagnostics.probe.solutions",
    "diagnostics.probe.samples",
    "polyhedra.functional_range.empty",
    "polyhedra.feasible_point.found",
)


def _count_hooks(counts: Counter):
    def sqp_iterations(rep):
        counts["sqp.iterations"] += len(rep.iterates) - 1

    def engine(sol):
        if sol.status == "KKTPoint":
            counts[f"subproblem.engine.{sol.engine}"] += 1

    def probe(res):
        counts["diagnostics.probe.solutions"] += sum(s.n_solved for s in res.samples)
        counts["diagnostics.probe.samples"] += sum(s.n_samples for s in res.samples)

    def empty(rng):
        counts["polyhedra.functional_range.empty"] += rng is None

    def found(pt):
        counts["polyhedra.feasible_point.found"] += pt is not None

    return {
        "sqp.run_basic_sqp": sqp_iterations,
        "subproblem.solve_subproblem": engine,
        "diagnostics.probe_isolated_calmness": probe,
        "polyhedra.functional_range": empty,
        "polyhedra.feasible_point": found,
    }


class Tracer:
    def __init__(self):
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._open = [-1]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "conesqp" or name.startswith("conesqp."))]
        hooks = _count_hooks(self.counts)
        for i, qualname in enumerate(LAYERS):
            mod_name, fn_name = qualname.split(".")
            orig = getattr(sys.modules[f"conesqp.{mod_name}"], fn_name)
            wrapper = self._wrap(i, orig, hooks.get(qualname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, layer_id: int, fn, hook):
        layer, start, end, parent, open_ = self.layer, self.start, self.end, self.parent, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if hook is not None:
                hook(out)
            return out

        return traced

    def mark(self) -> tuple[int, Counter]:
        """Position to split the spans and counts into phases."""
        return len(self.start), Counter(self.counts)

    def metrics(self, setup_mark, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures for one set-up plus one pass.

        Spans and counts before ``setup_mark`` belong to the set-up, the rest
        to ``passes`` identical passes, which are averaged.
        """
        n_setup, setup_counts = setup_mark
        layer = np.array(self.layer, dtype=np.uint8)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        self_time = dur.copy()
        nested = parent >= 0
        np.subtract.at(self_time, parent[nested], dur[nested])
        weight = np.where(np.arange(layer.size) < n_setup, 1.0, 1.0 / passes)
        calls = np.bincount(layer, weights=weight, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=weight * self_time, minlength=len(LAYERS))
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (_whole(calls[i]), "count")
            out[f"{name}.self_s"] = (float(busy[i]), "s")
        c = {k: setup_counts[k] + (self.counts[k] - setup_counts[k]) / passes for k in COUNTS}
        out["sqp.iterations"] = (_whole(c["sqp.iterations"]), "count")
        for e in ENGINES:
            out[f"subproblem.engine.{e}"] = (_whole(c[f"subproblem.engine.{e}"]), "count")
        out["diagnostics.probe.solutions_per_sample"] = (
            _ratio(c["diagnostics.probe.solutions"], c["diagnostics.probe.samples"]), "ratio")
        out["polyhedra.functional_range.empty_ratio"] = (
            _ratio(c["polyhedra.functional_range.empty"], calls[LAYERS.index("polyhedra.functional_range")]),
            "ratio")
        out["polyhedra.feasible_point.found_ratio"] = (
            _ratio(c["polyhedra.feasible_point.found"], calls[LAYERS.index("polyhedra.feasible_point")]),
            "ratio")
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=np.array(self.layer, dtype=np.uint8),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int32),
        )


def _whole(v: float):
    """A count averaged over identical passes is whole; keep it exact."""
    return int(round(v)) if abs(v - round(v)) < 1e-9 else float(v)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
