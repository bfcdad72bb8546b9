"""Built-in test problems and the JSON problem-file loader.

Problem files are JSON documents::

    {
      "name": "...", "n": 2,
      "objective": "expression in x1..xn",
      "constraints": [{"expr": "..."}, ...],
      "cone": {"blocks": [{"kind": "zero"|"orthant"|"soc", "dim": d}, ...]},
      "reference": {"x": [...], "lam": [...]}        # optional
    }

Constraint i maps to coordinate i of the constraint mapping, in block order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cones, expr
from .cones import ConeBlock, ConeSpec
from .problem import KKTPair, ProblemSpec


class SchemaError(ValueError):
    """Problem file violates the schema; the message names the field."""


_KIND_ALIASES = {
    "zero": cones.ZERO,
    "orthant": cones.ORTHANT,
    "soc": cones.SOC,
    "secondorder": cones.SOC,
    "second_order": cones.SOC,
}


@dataclass(frozen=True)
class KnownPoint:
    point: KKTPair
    expect: dict


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    problem: ProblemSpec
    known_points: tuple[KnownPoint, ...]


def problem_from_dict(doc: dict, source: str = "<dict>") -> ProblemSpec:
    def need(key, where, obj):
        if not isinstance(obj, dict):
            raise SchemaError(f"{source}: {where[:-1] or 'the document'} must be a JSON object")
        if key not in obj:
            raise SchemaError(f"{source}: missing field {where}{key!r}")
        return obj[key]

    n = need("n", "", doc)
    name = str(doc.get("name", Path(source).stem))
    if not isinstance(n, int) or n < 1:
        raise SchemaError(f"{source}: field 'n' must be a positive integer")
    objective = expr.parse(str(need("objective", "", doc)), n)
    raw_constraints = need("constraints", "", doc)
    if not isinstance(raw_constraints, list) or not raw_constraints:
        raise SchemaError(f"{source}: field 'constraints' must be a nonempty list")
    constraints = tuple(
        expr.parse(str(need("expr", f"constraints[{i}].", c)), n)
        for i, c in enumerate(raw_constraints)
    )
    cone_doc = need("cone", "", doc)
    blocks_doc = need("blocks", "cone.", cone_doc)
    if not isinstance(blocks_doc, list) or not blocks_doc:
        raise SchemaError(f"{source}: field 'cone.blocks' must be a nonempty list")
    blocks = []
    for i, b in enumerate(blocks_doc):
        kind = str(need("kind", f"cone.blocks[{i}].", b)).lower()
        if kind not in _KIND_ALIASES:
            raise SchemaError(f"{source}: cone.blocks[{i}].kind {kind!r} not recognized")
        dim = need("dim", f"cone.blocks[{i}].", b)
        if not isinstance(dim, int) or dim < 1:
            raise SchemaError(f"{source}: cone.blocks[{i}].dim must be a positive integer")
        blocks.append(ConeBlock(_KIND_ALIASES[kind], dim))
    cone = ConeSpec(tuple(blocks))
    reference = None
    if doc.get("reference") is not None:
        ref = doc["reference"]
        reference = KKTPair(
            np.asarray(need("x", "reference.", ref), float),
            np.asarray(need("lam", "reference.", ref), float),
        )
    try:
        return ProblemSpec(name, n, objective, constraints, cone, reference)
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from exc


def load_problem(name_or_path: str) -> ProblemSpec:
    """Resolve a registry name or load a JSON problem file."""
    reg = registry()
    if name_or_path in reg:
        return reg[name_or_path].problem
    path = Path(name_or_path)
    if not path.exists():
        raise SchemaError(
            f"{name_or_path!r} is neither a registry problem ({', '.join(sorted(reg))}) "
            "nor an existing file"
        )
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not a readable JSON document ({exc})") from exc
    return problem_from_dict(doc, source=str(path))


def _entry(name, n, objective, constraint_exprs, cone, reference, known):
    p = ProblemSpec(
        name=name,
        n=n,
        objective=expr.parse(objective, n),
        constraints=tuple(expr.parse(c, n) for c in constraint_exprs),
        cone=cone,
        reference=KKTPair(np.array(reference[0], float), np.array(reference[1], float)),
    )
    pts = tuple(
        KnownPoint(KKTPair(np.array(x, float), np.array(lam, float)), expect)
        for x, lam, expect in known
    )
    return RegistryEntry(name, p, pts)


def registry() -> dict[str, RegistryEntry]:
    """The built-in problems, keyed by name."""
    entries = [
        _entry(
            "ex55",
            1,
            "-0.5*x1^2 + x1^3/6",
            ["x1"],
            cones.orthant(1),
            ([2.0], [0.0]),
            [
                (
                    [0.0],
                    [0.0],
                    dict(ssoc_holds=False, ssoc_min=-1.0, srcq=True, noncritical=True,
                         unique=True, calm="Calm", probe="bounded"),
                ),
                (
                    [2.0],
                    [0.0],
                    dict(ssoc_holds=True, ssoc_min=1.0, srcq=True, noncritical=True,
                         unique=True, calm="Calm", probe="bounded"),
                ),
            ],
        ),
        _entry(
            "critical_toy",
            1,
            "x1^2",
            ["x1^2"],
            cones.zero(1),
            ([0.0], [0.0]),
            [
                (
                    [0.0],
                    [0.0],
                    dict(ssoc_holds=True, ssoc_min=2.0, srcq=False, noncritical=True,
                         unique=False, calm="Calm"),
                ),
                (
                    [0.0],
                    [-1.0],
                    dict(ssoc_holds=False, ssoc_min=0.0, srcq=False, noncritical=False,
                         unique=False, calm="Calm", probe="diverging"),
                ),
            ],
        ),
        _entry(
            "qp_orthant",
            2,
            "0.5*(x1-1)^2 + 0.5*(x2+1)^2",
            ["x1", "x2"],
            cones.orthant(2),
            ([1.0, 0.0], [0.0, -1.0]),
            [
                (
                    [1.0, 0.0],
                    [0.0, -1.0],
                    dict(ssoc_holds=True, ssoc_min=1.0, srcq=True, noncritical=True,
                         unique=True, calm="Calm", probe="bounded"),
                ),
            ],
        ),
        _entry(
            "soc_toy",
            2,
            "-x1",
            ["x1", "x2", "1"],
            cones.second_order(3),
            ([1.0, 0.0], [1.0, 0.0, -1.0]),
            [
                (
                    [1.0, 0.0],
                    [1.0, 0.0, -1.0],
                    dict(ssoc_holds=True, ssoc_min=1.0, srcq=True, noncritical=True,
                         unique=True, calm="Calm", probe="bounded"),
                ),
            ],
        ),
        _entry(
            "soc_degenerate",
            2,
            "0.5*(x1-1)^2 + 0.5*x2^2",
            ["x1", "x2", "1"],
            cones.second_order(3),
            ([1.0, 0.0], [0.0, 0.0, 0.0]),
            [
                (
                    [1.0, 0.0],
                    [0.0, 0.0, 0.0],
                    dict(ssoc_holds=True, ssoc_min=1.0, srcq=True, noncritical=True,
                         unique=True, calm="Inconclusive"),
                ),
            ],
        ),
    ]
    return {e.name: e for e in entries}
