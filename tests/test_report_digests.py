"""The registry reports (every ``scripts/registry_reports.py`` run except
``oracle-check``) and the degenerate reports of ``scripts/degenerate_reports.py``
against the digests in ``report_digests.json``.

``scripts/report_digests.py`` computes the digests and rewrites that file.
Every report byte is compared only under the build the file records; under
another numpy build or machine the exit codes and verdicts still are.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = _load_script()


def test_registry_reports_match_the_committed_digests():
    expected = json.loads(digests.EXPECTED.read_text())
    got = digests.run()
    assert len(got) == 36 and sorted(got) == sorted(expected["runs"])
    assert {run: d["exit"] for run, d in got.items()} == {
        run: d["exit"] for run, d in expected["runs"].items()}
    if expected["build"] == digests.build():
        mismatched = [run for run in got if got[run] != expected["runs"][run]]
        assert mismatched == []


def test_degenerate_reports_match_the_committed_digests():
    expected = json.loads(digests.EXPECTED.read_text())
    got = digests.degenerate()
    assert len(got) == 300 and list(got) == list(expected["degenerate"])
    assert {name: d["verdicts"] for name, d in got.items()} == {
        name: d["verdicts"] for name, d in expected["degenerate"].items()}
    if expected["build"] == digests.build():
        mismatched = [name for name in got if got[name] != expected["degenerate"][name]]
        assert mismatched == []
