import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conesqp import cli, registry
from conesqp.registry import SchemaError


def run(args):
    return cli.main(args)


class TestListAndLoad:
    def test_list_problems(self, capsys):
        assert run(["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ("ex55", "critical_toy", "qp_orthant", "soc_toy", "soc_degenerate"):
            assert name in out

    def test_load_registry_problem(self):
        p = registry.load_problem("ex55")
        assert p.n == 1 and p.m == 1
        assert p.cone.blocks[0].kind == "orthant"

    def test_load_problem_file(self, tmp_path):
        doc = {
            "name": "custom",
            "n": 2,
            "objective": "x1^2 + x2^2",
            "constraints": [{"expr": "x1 + x2 - 1"}],
            "cone": {"blocks": [{"kind": "orthant", "dim": 1}]},
            "reference": {"x": [0.5, 0.5], "lam": [-1.0]},
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        p = registry.load_problem(str(path))
        assert p.name == "custom" and p.m == 1
        assert np.allclose(p.reference.x, [0.5, 0.5])

    def test_missing_cone_field_names_it(self, tmp_path):
        doc = {"name": "broken", "n": 1, "objective": "x1", "constraints": [{"expr": "x1"}]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="'cone'"):
            registry.load_problem(str(path))

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "b", "n": 1, "objective": "x1",
                                    "constraints": [{"expr": "x1"}]}))
        assert run(["solve", str(path)]) == 2
        assert "cone" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"n": 1, "objective": "x1", "constraints": [5],
         "cone": {"blocks": [{"kind": "orthant", "dim": 1}]}},
        {"n": 1, "objective": "x1", "constraints": [{"expr": "x1"}], "cone": 7},
        {"n": 1, "objective": "x1", "constraints": [{"expr": "x1"}], "cone": {"blocks": [7]}},
        {"n": 1, "objective": "x1", "constraints": [{"expr": "x1"}],
         "cone": {"blocks": [{"kind": "orthant", "dim": 1}]}, "reference": 3},
    ], ids=["document", "constraint", "cone", "block", "reference"])
    def test_non_object_exits_2(self, doc, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("objective", ["-" * 3000 + "x1", "x1" + "+x1" * 3000],
                             ids=["parse", "evaluate"])
    def test_deeply_nested_expression_exits_2(self, objective, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"n": 1, "objective": objective,
                                    "constraints": [{"expr": "x1"}],
                                    "cone": {"blocks": [{"kind": "orthant", "dim": 1}]}}))
        code = run(["solve", str(path)])
        err = capsys.readouterr().err
        if objective.startswith("-"):  # the recursive-descent parser refuses the nesting
            assert code == 2
            assert "error: expression nested too deeply" in err
        else:  # a flat sum is a long chain, which the tape evaluates without recursion
            assert code in (0, 1)
            assert "Traceback" not in err and "nested too deeply" not in err

    def test_unknown_problem_exits_2(self, capsys):
        assert run(["solve", "no_such_problem"]) == 2

    def test_bad_vector_exits_2(self, capsys):
        assert run(["solve", "ex55", "--x0", "1,2,3"]) == 2


class TestSolveCommand:
    def test_converging_run(self, capsys):
        assert run(["solve", "ex55", "--x0", "1.9", "--lam0", "0"]) == 0
        out = capsys.readouterr().out
        assert "Converged" in out
        assert "rate:" in out and ("Superlinear" in out or "Quadratic" in out)

    def test_solvability_failure_banner(self, capsys):
        assert run(["solve", "ex55", "--x0", "0.1", "--lam0", "0"]) == 0
        out = capsys.readouterr().out
        assert "SolvabilityFailure at k=0" in out

    def test_defaults_solve_projection_qp(self, capsys):
        assert run(["solve", "qp_orthant"]) == 0
        out = capsys.readouterr().out
        assert "Converged" in out

    def test_budget_exceeded_exits_2_without_traceback(self, monkeypatch, capsys):
        from conesqp import subproblem
        from conesqp.polyhedra import BudgetExceeded

        def out_of_budget(*args, **kwargs):
            raise BudgetExceeded("fourier-motzkin would create 99999 rows")

        monkeypatch.setattr(subproblem, "enumerate_kkt_points", out_of_budget)
        assert run(["solve", "qp_orthant"]) == 2
        err = capsys.readouterr().err
        assert "error: fourier-motzkin would create 99999 rows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("problem,x0,field", [("ex55", "1e200", "H"),
                                                 ("soc_toy", "1e200,1e200", "c")])
    def test_non_finite_subproblem_exits_2(self, problem, x0, field, capsys):
        with np.errstate(all="ignore"):
            assert run(["solve", problem, "--x0", x0]) == 2
        err = capsys.readouterr().err
        assert f"error: subproblem {field} is not finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("problem,x0,message", [
        ("ex55", "1e200", "error: subproblem H is not finite: its norm is nan"),
        ("soc_toy", "1e200,1e200", "error: subproblem c is not finite: its norm is inf"),
    ])
    def test_overflowing_start_prints_only_the_error(self, problem, x0, message):
        # a fresh interpreter with default warning filters, as a user runs it
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "conesqp.cli", "solve", problem, "--x0", x0],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [message]

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert run(["solve", "ex55", "--x0", "1.9", "--lam0", "0", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "solve"
        assert doc["report"]["status"] == "Converged"
        assert doc["report"]["rate"]["classification"] in ("Quadratic", "Superlinear")
        assert "inputs_digest" in doc

    def test_json_byte_identical_across_runs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve", "soc_toy", "--x0", "0.95,0.05", "--lam0", "1,0,-1",
             "--seed", "3", "--json", str(p1)])
        run(["solve", "soc_toy", "--x0", "0.95,0.05", "--lam0", "1,0,-1",
             "--seed", "3", "--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestDiagnoseCommand:
    def test_minimizer_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run(["diagnose", "ex55", "--x", "2", "--lam", "0", "--no-probe",
                    "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "second-order sufficiency: holds" in out
        assert "strict Robinson qualification: holds" in out
        assert "noncritical" in out
        doc = json.loads(path.read_text())
        assert doc["report"]["ssoc"]["holds"] is True
        assert doc["report"]["lambda_unique"] is True

    def test_origin_report(self, capsys):
        assert run(["diagnose", "ex55", "--x", "0", "--lam", "0", "--no-probe"]) == 0
        out = capsys.readouterr().out
        assert "second-order sufficiency: FAILS (min -1)" in out
        assert "strict Robinson qualification: holds" in out

    def test_critical_point_report(self, capsys):
        assert run(["diagnose", "critical_toy", "--x", "0", "--lam", "-1", "--no-probe"]) == 0
        out = capsys.readouterr().out
        assert "CRITICAL" in out and "witness" in out

    def test_non_kkt_point_exits_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run(["diagnose", "ex55", "--x", "1", "--lam", "0", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.exists()

    def test_point_outside_cone_is_not_a_kkt_solution(self, tmp_path, capsys):
        # y = -1e-6 passes the residual gate (scaled by |lam| = 1000) but lies
        # outside the cone at the face tolerance; the gate turns it away
        doc = {"name": "lin", "n": 1, "objective": "-1000*x1", "constraints": [{"expr": "-x1"}],
               "cone": {"blocks": [{"kind": "orthant", "dim": 1}]}}
        path = tmp_path / "lin.json"
        path.write_text(json.dumps(doc))
        assert run(["diagnose", str(path), "--x", "1e-6", "--lam", "-1000", "--no-probe"]) == 2
        err = capsys.readouterr().err
        assert "not a KKT solution" in err and "Traceback" not in err

    def test_cone_without_blocks_exits_2_with_only_the_error(self, tmp_path, capsys):
        # the cone with no block exists for the probe's pattern solves only
        doc = {"name": "bare", "n": 1, "objective": "x1^2", "constraints": [{"expr": "x1"}],
               "cone": {"blocks": []}}
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        assert run(["diagnose", str(path), "--x", "0", "--lam", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {path}: field 'cone.blocks' must be a nonempty list"]

    def test_nan_residual_is_not_a_kkt_solution(self, capsys):
        # x^3/6 has a NaN gradient at 1e200, so the gate's residual is NaN
        with np.errstate(all="ignore"):
            assert run(["diagnose", "ex55", "--x", "1e200", "--lam", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point is not a KKT solution") and "Traceback" not in err

    def test_overflowing_point_prints_only_the_error(self):
        # a fresh interpreter with default warning filters, as a user runs it
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "conesqp.cli", "diagnose", "ex55", "--x", "1e200", "--lam", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: point is not a KKT solution: residual nan exceeds gate 1.000e-08"
        ]

    def test_point_needs_both_x_and_lam(self, capsys):
        # a lone --x or --lam must not fall back to the reference point
        assert run(["diagnose", "ex55", "--x", "0", "--no-probe"]) == 2
        assert run(["probe-calmness", "ex55", "--lam", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: --x and --lam go together") == 2

    def test_json_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["diagnose", "critical_toy", "--x", "0", "--lam", "-1",
             "--seed", "5", "--json", str(p1)])
        run(["diagnose", "critical_toy", "--x", "0", "--lam", "-1",
             "--seed", "5", "--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestProbeAndOracleCommands:
    def test_probe_calmness_output(self, capsys):
        assert run(["probe-calmness", "critical_toy", "--x", "0", "--lam", "-1"]) == 0
        out = capsys.readouterr().out
        assert "diverging" in out

    def test_oracle_check_soc(self, capsys):
        assert run(["oracle-check", "--cone", "soc3", "--n", "40", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max relative deviation" in out and "OK" in out

    def test_oracle_check_polyhedral_exact(self, capsys):
        assert run(["oracle-check", "--cone", "orthant4", "--n", "25"]) == 0
        assert run(["oracle-check", "--cone", "zero2", "--n", "10"]) == 0

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_oracle_check_needs_a_triple(self, n, capsys):
        assert run(["oracle-check", "--n", n]) == 2
        assert capsys.readouterr().err.startswith("error: --n must be at least 1")

    def test_probe_rejects_negative_samples(self, capsys):
        assert run(["probe-calmness", "ex55", "--samples", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: probe_samples must be >= 0")

    def test_oracle_check_bad_cone_name(self, capsys):
        assert run(["oracle-check", "--cone", "banana"]) == 2

    def test_jobs_only_where_the_probe_runs(self, capsys):
        assert run(["solve", "ex55", "--jobs", "2"]) == 2
        assert run(["oracle-check", "--n", "1", "--jobs", "2"]) == 2
        capsys.readouterr()
        for command in ("diagnose", "probe-calmness"):  # the probe runs serially
            assert run([command, "ex55", "--jobs", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: jobs must be 1") and "Traceback" not in err

    def test_oracle_check_refuses_blocks_past_mesh_limit(self, capsys):
        assert run(["oracle-check", "--cone", "orthant7", "--n", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: difference-quotient oracle")
