"""conesqp: basic SQP over cone constraints and KKT stability diagnostics."""

__version__ = "0.1.0"

from . import cones, diagnostics, expr, polyhedra, problem, registry, sqp, subproblem
from .cones import ConeBlock, ConeSpec
from .expr import ExprAST, SecondOrderValue, eval2, parse
from .problem import (
    KKTPair,
    KKTResidual,
    ProblemSpec,
    kkt_residual,
    lagrangian_data,
    multiplier_set_analysis,
)
from .sqp import ConvergenceReport, RateEstimate, SQPConfig, estimate_rate, run_basic_sqp
from .subproblem import (
    SolverConfig,
    SubproblemData,
    SubproblemSolution,
    enumerate_kkt_points,
    solve_subproblem,
)
from .diagnostics import (
    DiagnosticsConfig,
    DiagnosticsReport,
    check_multiplier_calmness,
    check_noncriticality,
    check_srcq,
    check_ssoc,
    classify_stationary_point,
    probe_isolated_calmness,
)
from .registry import RegistryEntry, load_problem
