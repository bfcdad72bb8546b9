"""The threshold of every numerical decision, each named once, by kind of
decision: what it decides, and its scale ("abs.": none).  "Item 8": one
decision made at two values or scales (ROADMAP.md item 8).
tests/test_tolerances.py keeps float literals below 1e-2 out of the rest."""

# Face activity and membership
CONE_TOL = 1e-8  # cones' default; faces of sampled directions; rel. 1 + ||y||
FACE_TOL = 1e-7  # the critical cone at a KKT point; rel. 1 + ||f||, 1 + ||lam||
GENERATOR_APEX = 1e-8  # a sampled direction's block is at its apex; abs.; item 8
CRITICAL_DIRECTION_TOL = 1e-9  # a unit w is critical: G J w <= it (abs.), J w in K (rel.)
SRCQ_SAMPLED_POLAR = 1e-9  # a sampled unit u is in the polar of K; abs.; item 8
RAY_CONE_TOL = 1e-12  # a sampled ray's A d is in the cone; rel. 1 + ||A d||
ORACLE_FEAS_EPS = 2e-15  # the quotient oracle; rel. each coordinate's terms

# Rank
ELIMINATION_TOL = 1e-9  # Polyhedron's pivots and signs; rel. row size; item 8
SVD_RANK_CUT = 1e-10  # null_basis; rel. max(1, largest singular value); item 8
SCREEN = 1e-6  # noncriticality screen: rank margin, |eig| rel. 1 + max|Q|

# Sign
SSOC_THRESHOLD = 1e-8  # SSOC holds above it; abs.
SIGN_SLACK = 1e-10  # enumeration's patterns; rel. SubproblemData.scale; item 8
PROBE_SIGN_SLACK = 1e-9  # the probe's patterns; rel. 1 + ||lam||; item 8
PSD_SLACK = 1e-9  # H is semidefinite for ADMM; rel. max(1, max|eig|)
SYMMETRY_TOL = 1e-12  # H is symmetric; rel. 1 + max|H|
DESCENT_SLACK = 1e-8  # a unit ray descends, g.d < -it; abs.
RAY_CURVATURE = 1e-10  # a ray has d'Hd <= it; rel. 1 + d.d; item 8
SAMPLED_RAY_CURVATURE = 1e-10  # the same for a sampled unit ray; abs.; item 8

# Residual acceptance
KKT_GATE = 1e-8  # a point to diagnose; rel. 1 + ||lam||
STATIONARITY_TOL = 1e-8  # multiplier sets, pivots too; rel. 1 + ||grad||
SUBPROBLEM_TOL = 1e-9  # KKT points, pattern systems; rel. SubproblemData.scale
NEWTON_STOP = 1e-13  # subproblem Newton; rel. 1 + ||g||; item 8
ARMIJO = 1e-4  # damped step t: norm < (1 - ARMIJO t) times the last
ADMM_LOOSE_TOL = 1e-6  # ADMM's first polish; rel. SubproblemData.scale
ADMM_TIGHT_TOL = 1e-11  # ADMM's last stop; rel. SubproblemData.scale
RAY_PULLBACK_TOL = 1e-10  # a sampled ray's A d = s; rel. 1 + ||s||
PROBE_NEWTON_TOL = 1e-13  # the probe's perturbed Newton solves; abs.; item 8
PROBE_PATTERN_TOL = 1e-12  # stop and acceptance of its pattern solves; abs.
PROBE_RESIDUAL = 1e-8  # a pattern solution, full perturbed system; abs.
PROBE_ACCEPT = 1e-9  # a Newton start's perturbed solution; abs.
SQP_STOP_TOL = 1e-12  # SQPConfig.stop_tol, the end of a run; abs.

# Witness acceptance
WITNESS_TOL = 1e-9  # criticality (w, u); rel. 1 + ||w|| + ||u||
SRCQ_WITNESS_TOL = 1e-8  # strict Robinson: unit u in polar K, ker J'; abs.
ORACLE_GATE = 1e-3  # oracle-check's deviation; rel. 1 + |closed form|

# Same point
UNIQUE_WIDTH = 1e-9  # a one-point multiplier set's ranges; rel. 1 + ||lam||
ENUM_DEDUPE = 1e-9  # enumerated KKT points; rel. SubproblemData.scale; item 8
NEWTON_DEDUPE = 1e-8  # Newton KKT points; rel. SubproblemData.scale; item 8
PROBE_DEDUPE = 1e-9  # probe solutions; abs.; item 8
RATE_ZERO_FLOOR = 1e-13  # a zero error in estimate_rate; rel. 1 + max error

# Norm floor: a norm below it is not divided by
NORM_FLOOR = 1e-12  # sampled directions, polar rays, normals; abs.
RAY_NORM_FLOOR = 1e-10  # sampled rays; abs.; item 8
WITNESS_FLOOR = 1e-7  # witnesses, both checks; abs.
LIPSCHITZ_FLOOR = 1e-9  # ||M||^2, sampled noncriticality search; abs.
GROWTH_FLOOR = 1e-300  # the ratio dividing the probe's growth; abs.
DIV_FLOOR = 1e-300  # an expression's denominator (EvalError); abs.
CHOLESKY_SHIFT = 1e-14  # ADMM's diagonal shift; rel. max(1, trace)

# Probe radius
PROBE_RADII = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # largest first; abs.
