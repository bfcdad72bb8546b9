"""The subproblem engines' outputs on the benchmark's seed-1 ``sqp_solve`` and
``engine_crossval`` inputs, against the digests in ``engine_digests.json``.

``scripts/engine_digests.py`` computes the digests and rewrites that file.
The full digests (every ``d``, ``lam``, residual and iterate byte) are
compared only under the build the file records; under another numpy build or
machine the statuses, engines and rates still are.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "engine_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("engine_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = _load_script()


@pytest.fixture(scope="module")
def results():
    return {workload: digests.run(workload) for workload in digests.WORKLOADS}


@pytest.mark.parametrize("workload", digests.WORKLOADS)
def test_engine_outputs_match_the_committed_digests(workload, results):
    expected = json.loads(digests.EXPECTED.read_text())
    want, got = expected["workloads"][workload], results[workload]
    assert got["failed"] == []
    assert got["operations"] == want["operations"]
    assert got["verdicts"] == want["verdicts"]
    if expected["build"] == digests.build():
        assert got["full"] == want["full"]


def test_sqp_pass_solves_few_patterns(results):
    # the step's own pattern first and the stop at the only KKT point; a full
    # enumeration of every subproblem makes 6,490 calls
    assert results["sqp_solve"]["lstsq_calls"] < 1000
