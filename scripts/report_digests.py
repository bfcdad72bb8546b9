"""Digests of the registry reports, without the slow ``oracle-check`` runs.

Runs every run of ``scripts/registry_reports.py`` except ``oracle-check``
(36 runs: ``diagnose`` with and without the probe and ``probe-calmness`` at
each known registry point, ``solve`` from three starts per problem) in
process, into a temporary directory, and hashes each of the 72 report files
(``<run>.json`` and ``<run>.exit``) with SHA-256.
``tests/test_report_digests.py`` compares them with ``EXPECTED``: every
digest when the build recorded there (Python, numpy, machine) is the one
running, the exit codes alone otherwise, since float bits may differ between
numpy builds.  A change that moves report bytes on purpose rewrites the
file::

    python scripts/report_digests.py

The package is imported from the ``src/`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "report_digests.json"


def _registry_reports():
    spec = importlib.util.spec_from_file_location(
        "registry_reports", ROOT / "scripts" / "registry_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts src/ on sys.path
    return module


def build() -> dict[str, str]:
    """What the digests depend on besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def run() -> dict[str, dict]:
    """``{run: {"exit": code, file name: SHA-256, ...}}`` over the runs."""
    reports = _registry_reports()
    runs = [(name, args) for name, args in reports.runs() if not name.startswith("oracle-check")]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            reports.main([tmp], runs)
        for name, _ in runs:
            files = {f"{name}{ext}": (Path(tmp) / f"{name}{ext}").read_bytes()
                     for ext in (".json", ".exit")}
            out[name] = {"exit": int(files[f"{name}.exit"]),
                         **{f: hashlib.sha256(b).hexdigest() for f, b in files.items()}}
    return out


def main() -> int:
    EXPECTED.write_text(json.dumps({"build": build(), "runs": run()}, indent=1) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
