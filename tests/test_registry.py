import json

import numpy as np
import pytest

from conesqp import cli, diagnostics, problem, registry, sqp
from conesqp.problem import KKTPair
from conesqp.registry import SchemaError, problem_from_dict


def test_registry_names_unique_and_nonempty(reg):
    assert len(reg) == 5
    assert all(entry.name == name for name, entry in reg.items())


def test_known_points_pass_the_kkt_gate(reg):
    for entry in reg.values():
        for kp in entry.known_points:
            assert problem.kkt_residual(entry.problem, kp.point).total <= 1e-10


def test_report_lengths_match(reg):
    rep = sqp.run_basic_sqp(reg["ex55"].problem, KKTPair([1.9], [0.0]))
    assert len(rep.residuals) == len(rep.iterates)
    assert len(rep.step_norms) == len(rep.iterates) - 1


def test_schema_error_paths(tmp_path):
    base = {
        "name": "t", "n": 2, "objective": "x1",
        "constraints": [{"expr": "x1"}],
        "cone": {"blocks": [{"kind": "orthant", "dim": 1}]},
    }
    bad_cases = [
        ({**base, "n": 0}, "'n'"),
        ({**base, "constraints": []}, "constraints"),
        ({**base, "cone": {"blocks": [{"kind": "cube", "dim": 1}]}}, "kind"),
        ({**base, "cone": {"blocks": [{"kind": "orthant", "dim": 0}]}}, "dim"),
        ({**base, "cone": {"blocks": []}}, "'cone.blocks' must be a nonempty list"),
        ({**base, "constraints": [{"expr": "x1"}, {"expr": "x2"}]}, "cone dimension"),
        ({k: v for k, v in base.items() if k != "objective"}, "'objective'"),
    ]
    for doc, needle in bad_cases:
        with pytest.raises(SchemaError, match=needle):
            problem_from_dict(doc, source="case")


def test_soc_aliases_accepted():
    doc = {
        "name": "alias", "n": 2, "objective": "x1",
        "constraints": [{"expr": "x1"}, {"expr": "x2"}, {"expr": "1"}],
        "cone": {"blocks": [{"kind": "SecondOrder", "dim": 3}]},
    }
    p = problem_from_dict(doc)
    assert p.cone.blocks[0].kind == "soc"


def test_loaded_file_round_trips_through_solver(tmp_path):
    doc = {
        "name": "shifted_qp", "n": 2,
        "objective": "0.5*(x1-1)^2 + 0.5*(x2+1)^2",
        "constraints": [{"expr": "x1"}, {"expr": "x2"}],
        "cone": {"blocks": [{"kind": "orthant", "dim": 2}]},
        "reference": {"x": [1.0, 0.0], "lam": [0.0, -1.0]},
    }
    path = tmp_path / "qp.json"
    path.write_text(json.dumps(doc))
    rep = sqp.run_basic_sqp(registry.load_problem(str(path)), KKTPair([0.0, 0.0], [0.0, 0.0]))
    assert rep.status == sqp.CONVERGED
    assert np.allclose(rep.final.x, [1.0, 0.0], atol=1e-10)


def test_exit_code_one_iff_failure_artifacts(monkeypatch, capsys, tmp_path):
    # wiring check: a report carrying FAILURE artifacts must flip the exit code
    real = diagnostics.classify_stationary_point

    def with_artifact(p, z, cfg=None):
        rep = real(p, z, cfg)
        return diagnostics.DiagnosticsReport(
            **{**rep.__dict__, "failures": ("FAILURE: injected for wiring test",)}
        )

    monkeypatch.setattr(diagnostics, "classify_stationary_point", with_artifact)
    code = cli.main(["diagnose", "ex55", "--x", "2", "--lam", "0", "--no-probe",
                     "--json", str(tmp_path / "r.json")])
    assert code == 1
    assert "FAILURE: injected" in capsys.readouterr().out
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["failures"] == ["FAILURE: injected for wiring test"]
