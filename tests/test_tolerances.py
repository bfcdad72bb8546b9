"""The tolerance ledger ``conesqp.tolerances`` is the one home of every
threshold: no other module of the package spells a float literal below
1e-2, every ledger entry is read by some module, and the ledger itself is a
leaf of plain float assignments that imports nothing."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conesqp"
LEDGER = PACKAGE / "tolerances.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != LEDGER)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _ledger_names():
    names = []
    for stmt in _tree(LEDGER).body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # the docstring
        assert isinstance(stmt, ast.Assign) and len(stmt.targets) == 1, ast.dump(stmt)
        value = ast.literal_eval(stmt.value)
        values = value if isinstance(value, tuple) else (value,)
        assert all(type(v) is float for v in values), stmt.targets[0].id
        names.append(stmt.targets[0].id)
    return names


def test_the_ledger_imports_nothing():
    imports = [node for node in ast.walk(_tree(LEDGER))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_the_ledger_names_each_entry_once():
    names = _ledger_names()
    assert len(names) == len(set(names))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_small_float_literal_outside_the_ledger(path):
    small = [(node.lineno, node.value) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0.0 < abs(node.value) < 1e-2]
    assert small == []


def test_every_ledger_entry_is_read():
    read = set()
    for path in MODULES:
        tree = _tree(path)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= imported & loaded
    assert sorted(set(_ledger_names()) - read) == []
