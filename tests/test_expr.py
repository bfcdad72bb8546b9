import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import expr_reference
from conesqp import expr
from conesqp.expr import Add, Const, Div, Mul, Neg, Pow, Sub, Var


def central_diff_grad(ast, x, h=1e-5):
    n = x.size
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (expr.eval2(ast, x + e).value - expr.eval2(ast, x - e).value) / (2 * h)
    return g


def central_diff_hess(ast, x, h=1e-4):
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[i] = (central_diff_grad(ast, x + e, h) - central_diff_grad(ast, x - e, h)) / (2 * h)
    return 0.5 * (H + H.T)


def random_ast(rng, n, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(int(rng.integers(n)))
        return Const(float(np.round(rng.uniform(-3, 3), 3)))
    op = rng.integers(5)
    if op == 0:
        return Add(random_ast(rng, n, depth - 1), random_ast(rng, n, depth - 1))
    if op == 1:
        return Sub(random_ast(rng, n, depth - 1), random_ast(rng, n, depth - 1))
    if op == 2:
        return Mul(random_ast(rng, n, depth - 1), random_ast(rng, n, depth - 1))
    if op == 3:
        return Neg(random_ast(rng, n, depth - 1))
    return Pow(random_ast(rng, n, depth - 1), int(rng.integers(0, 4)))


class TestParse:
    def test_ex55_objective_root_is_add(self):
        ast = expr.parse("-0.5*x1^2 + x1^3/6", 1)
        assert isinstance(ast.root, Add)

    def test_unknown_variable(self):
        with pytest.raises(expr.ParseError, match="unknown variable 'x3'"):
            expr.parse("x1 + x3", 2)

    def test_parenthesized_exponent(self):
        ast = expr.parse("x1^(2)", 1)
        assert isinstance(ast.root, Pow) and ast.root.exponent == 2

    def test_precedence_power_binds_before_unary_minus(self):
        # -x1^2 at x1=3 must be -9, not 9
        assert expr.eval2(expr.parse("-x1^2", 1), np.array([3.0])).value == -9.0

    def test_left_associativity(self):
        assert expr.eval2(expr.parse("8 - 3 - 2", 1), np.array([0.0])).value == 3.0
        assert expr.eval2(expr.parse("8 / 2 / 2", 1), np.array([0.0])).value == 2.0

    def test_syntax_error_carries_position(self):
        with pytest.raises(expr.ParseError) as err:
            expr.parse("x1 + + x1", 1)
        assert err.value.position == 5

    def test_non_integer_exponent(self):
        with pytest.raises(expr.ParseError, match="exponent"):
            expr.parse("x1^2.5", 1)
        with pytest.raises(expr.ParseError, match="exponent"):
            expr.parse("x1^-2", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(expr.ParseError):
            expr.parse("(x1 + 1", 1)


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?P<expo>[eE][+-]?\d+)?"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()]))"
)


def reference_tokenize(text):
    """The tokenizer as one ``match`` per token, kept to pin the single-scan one."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise expr.ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if match.group("num") is not None:
            tokens.append(("num", match.group("num") + (match.group("expo") or ""), match.start("num")))
        elif match.group("var") is not None:
            tokens.append(("var", match.group("var"), match.start("var")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except expr.ParseError as exc:
        return str(exc), exc.position


class TestTokenize:
    def test_matches_reference_on_printed_random_trees(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 4))
            text = expr.to_string(expr.ExprAST(random_ast(rng, n, depth=4), n))
            for variant in (text, f"  {text}\t", text.replace(" ", "")):
                assert expr._tokenize(variant) == reference_tokenize(variant)

    @pytest.mark.parametrize("text", [
        "", "   ", "x1 + + x1", "(x1 + 1", "x1^2.5", "x1^-2", "1.5e-3*x2 + .5E+2 - 3.",
        "x1 $ 2", "x1   $", "2 + y1", "1e", "x", "x1e5", "1.2.3", " \t@", "x1 +\n#",
        "x1 * 2 &&", "x12x3", "3 ! ", "x1 + é",
    ])
    def test_matches_reference_on_edge_and_error_cases(self, text):
        assert _tokens_or_error(expr._tokenize, text) == _tokens_or_error(reference_tokenize, text)

    def test_error_position_is_the_end_of_the_previous_token(self):
        with pytest.raises(expr.ParseError, match="unexpected character '\\$'") as err:
            expr.parse("x1   $", 1)
        assert err.value.position == 2


class TestEval2:
    def test_ex55_objective_at_two(self):
        # hand differentiation: value -2/3, slope -2 + 2 = 0, curvature -1 + 2 = 1
        so = expr.eval2(expr.parse("-0.5*x1^2 + x1^3/6", 1), np.array([2.0]))
        assert so.value == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert so.gradient[0] == pytest.approx(0.0, abs=1e-12)
        assert so.hessian[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        so = expr.eval2(expr.parse("x1*x2", 2), np.array([3.0, 4.0]))
        assert so.value == 12.0
        assert np.allclose(so.gradient, [4.0, 3.0])
        assert np.allclose(so.hessian, [[0.0, 1.0], [1.0, 0.0]])

    def test_division_by_zero(self):
        with pytest.raises(expr.EvalError):
            expr.eval2(expr.parse("1/x1", 1), np.array([0.0]))

    def test_division_derivatives(self):
        so = expr.eval2(expr.parse("x1/x2", 2), np.array([1.0, 2.0]))
        assert so.value == 0.5
        assert np.allclose(so.gradient, [0.5, -0.25])
        assert np.allclose(so.hessian, [[0.0, -0.25], [-0.25, 0.25]])

    def test_matches_finite_differences_on_random_polynomials(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            ast = expr.ExprAST(random_ast(rng, n), n)
            x = rng.uniform(-2, 2, size=n)
            so = expr.eval2(ast, x)
            g_fd = central_diff_grad(ast, x)
            h_fd = central_diff_hess(ast, x)
            scale_g = 1.0 + np.linalg.norm(g_fd)
            scale_h = 1.0 + np.linalg.norm(h_fd)
            assert np.linalg.norm(so.gradient - g_fd) <= 1e-6 * scale_g
            assert np.linalg.norm(so.hessian - h_fd) <= 1e-6 * scale_h

    def test_hessian_symmetric(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            ast = expr.ExprAST(random_ast(rng, n), n)
            so = expr.eval2(ast, rng.uniform(-2, 2, size=n))
            assert np.allclose(so.hessian, so.hessian.T, atol=1e-12)

    def test_eval1_is_eval2_without_the_hessian_bit_for_bit(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            ast = expr.ExprAST(random_ast(rng, n), n)
            x = rng.uniform(-2, 2, size=n)
            so = expr.eval2(ast, x)
            value, gradient = expr.eval1(ast, x)
            assert value == so.value
            assert np.array_equal(gradient, so.gradient)
        with pytest.raises(expr.EvalError):
            expr.eval1(expr.parse("1/x1", 1), np.array([0.0]))
        with pytest.raises(ValueError):
            expr.eval1(expr.parse("x1", 1), np.zeros(2))


class TestStackedEval1:
    """A stack of points ``(B, n)`` gives, row by row, the single-point bits."""

    @staticmethod
    def assert_rows_match(ast, X):
        values, grads = expr.eval1(ast, X)
        assert values.shape == (len(X),) and grads.shape == X.shape
        for row, value, grad in zip(X, values, grads):
            v, g = expr.eval1(ast, row)
            assert np.array_equal(value, v) and np.array_equal(grad, g)

    def test_rows_match_single_points_bit_for_bit(self, rng):
        for i in range(600):
            n = int(rng.integers(1, 4))
            root = random_ast(rng, n, depth=4)
            if i % 3 == 0:  # a denominator that stays away from zero
                root = Div(root, Add(Const(1.5), Pow(random_ast(rng, n, 2), 2)))
            X = rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-3, 3, size=(7, 1))
            self.assert_rows_match(expr.ExprAST(root, n), X)

    def test_powers_follow_the_scalar_pow(self, rng):
        # x^3 takes pow(t, 2) of the base; numpy's array square, t * t, gives
        # other bits at about one in seven of these points
        X = (1.0 + rng.integers(0, 2**26, size=(2000, 1)) * 2.0**-26)
        for text in ("x1^2", "x1^3", "x1^3/6 - 0.5*x1^2", "(x1 - 1)^4"):
            self.assert_rows_match(expr.parse(text, 1), X)

    def test_constant_expression_fills_every_row(self):
        values, grads = expr.eval1(expr.parse("2^3 - 1", 2), np.ones((3, 2)))
        assert np.array_equal(values, [7.0, 7.0, 7.0]) and np.array_equal(grads, np.zeros((3, 2)))

    def test_zero_denominator_in_any_row_raises(self):
        X = np.array([[1.0], [0.0], [2.0]])
        with pytest.raises(expr.EvalError):
            expr.eval1(expr.parse("1/x1", 1), X)

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError):
            expr.eval1(expr.parse("x1", 1), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            expr.eval1(expr.parse("x1", 1), np.zeros((2, 3, 1)))


class TestStackedEval2:
    """A stack of points ``(B, n)`` gives, row by row, the single-point value,
    gradient and Hessian bits."""

    @staticmethod
    def assert_rows_match(ast, X):
        so = expr.eval2(ast, X)
        n = X.shape[1]
        assert so.value.shape == (len(X),) and so.gradient.shape == X.shape
        assert so.hessian.shape == (len(X), n, n)
        for b, row in enumerate(X):
            single = expr.eval2(ast, row)
            assert np.array_equal(so.value[b], single.value)
            assert np.array_equal(so.gradient[b], single.gradient)
            assert np.array_equal(so.hessian[b], single.hessian)

    def test_rows_match_single_points_bit_for_bit(self, rng):
        for i in range(600):
            n = int(rng.integers(1, 4))
            root = random_ast(rng, n, depth=4)
            if i % 3 == 0:  # a denominator that stays away from zero
                root = Div(root, Add(Const(1.5), Pow(random_ast(rng, n, 2), 2)))
            X = rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-3, 3, size=(7, 1))
            self.assert_rows_match(expr.ExprAST(root, n), X)

    def test_powers_follow_the_scalar_pow(self, rng):
        # the Hessian of x^4 takes pow(t, 2) of the base as well
        X = (1.0 + rng.integers(0, 2**26, size=(2000, 1)) * 2.0**-26)
        for text in ("x1^3", "x1^4", "(x1 - 1)^5/3"):
            self.assert_rows_match(expr.parse(text, 1), X)

    def test_constant_expression_fills_every_row(self):
        so = expr.eval2(expr.parse("2^3 - 1", 2), np.ones((3, 2)))
        assert np.array_equal(so.value, [7.0, 7.0, 7.0])
        assert np.array_equal(so.gradient, np.zeros((3, 2)))
        assert np.array_equal(so.hessian, np.zeros((3, 2, 2)))

    def test_zero_denominator_in_any_row_raises(self):
        with pytest.raises(expr.EvalError):
            expr.eval2(expr.parse("1/x1", 1), np.array([[1.0], [0.0], [2.0]]))

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError):
            expr.eval2(expr.parse("x1", 1), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            expr.eval2(expr.parse("x1", 1), np.zeros((2, 3, 1)))


def _quadratic_text(rng, n: int, cubic: bool) -> str:
    """A shifted quadratic (or cubic) in x1..xn, written as the benchmark's
    generated problems write theirs: ``c*(xi - s)*(xj - s')`` terms."""
    d = [f"(x{i + 1} - {s!r})" if s > 0 else f"(x{i + 1} + {-s!r})"
         for i, s in enumerate(rng.uniform(-1.0, 1.0, n).tolist())]
    terms = [repr(float(rng.normal()))]
    for i in range(n):
        terms += [f"{rng.normal()!r}*{d[i]}", f"{rng.normal()!r}*{d[i]}^2"]
        terms += [f"{rng.normal()!r}*{d[i]}*{d[j]}" for j in range(i + 1, n)]
        if cubic:
            terms.append(f"{rng.normal()!r}*{d[i]}^3")
    return " + ".join(terms)


def _reference_outputs(evaluate, ast, x):
    try:
        return evaluate(ast, x)
    except expr.EvalError:
        return None


def _bits(a, zero_signs=True):
    a = np.asarray(a, dtype=float)
    return (a if zero_signs else a + 0.0).tobytes()


def _assert_like_dense(got, ref):
    """Outside the sign of exact zeros, the dense bits; non-finite entries are
    compared by their NaN and infinity masks."""
    for a, b in ((got.value, ref.value), (got.gradient, ref.gradient), (got.hessian, ref.hessian)):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape
        assert np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(np.isinf(a), np.isinf(b))
        assert _bits(np.where(np.isfinite(a), a, 0.0), False) == _bits(
            np.where(np.isfinite(b), b, 0.0), False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at the 1e200 points
def test_tape_matches_the_dense_reference(reg):
    """The tape against the recursive dense evaluator of ``expr_reference``:
    the same bits up to zero signs, EvalError on the same points, NaN and
    infinity in the same entries at overflowing points, and stacked rows and
    ``eval1`` bit for bit those of single points and ``eval2``."""
    rng = np.random.default_rng(26)
    cases = [(e, e.n) for entry in reg.values()
             for e in (entry.problem.objective, *entry.problem.constraints)]
    for i in range(40):
        n = 1 + i % 5
        cases.append((expr.parse(_quadratic_text(rng, n, cubic=i % 2 == 1), n), n))
    for i in range(400):
        n = int(rng.integers(1, 4))
        root = random_ast(rng, n, depth=int(rng.integers(1, 5)))
        if i % 3 == 0:
            root = Pow(root, int(rng.integers(4, 13)))
        elif i % 3 == 1:  # zero denominators at some of the points below
            root = Div(root, random_ast(rng, n, depth=2))
        cases.append((expr.ExprAST(root, n), n))
    for ast, n in cases:
        X = rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-3, 3, size=(7, 1))
        X[0] = 0.0
        X[1, 0], X[2, -1] = -0.0, 0.0
        X[3] = 1e200
        X[4, 0] = -1e200
        X[5, -1] = 1e-310  # a denominator below the floor, yet not zero
        singles = []
        for x in X:
            ref = _reference_outputs(expr_reference.eval2, ast, x)
            got = _reference_outputs(expr.eval2, ast, x)
            assert (got is None) == (ref is None), (expr.to_string(ast), x)
            if got is not None:
                _assert_like_dense(got, ref)
                value, grad = expr.eval1(ast, x)
                assert _bits(value) == _bits(got.value) and _bits(grad) == _bits(got.gradient)
            singles.append(got)
        stacked = _reference_outputs(expr.eval2, ast, X)
        assert (stacked is None) == any(s is None for s in singles)
        if stacked is None:
            continue
        values, grads = expr.eval1(ast, X)
        assert _bits(values) == _bits(stacked.value) and _bits(grads) == _bits(stacked.gradient)
        for b, single in enumerate(singles):
            assert _bits(stacked.value[b]) == _bits(single.value)
            assert _bits(stacked.gradient[b]) == _bits(single.gradient)
            assert _bits(stacked.hessian[b]) == _bits(single.hessian)


# round-trips: parse(to_string(ast)) reproduces the tree exactly on the
# parser's image (the grammar has no negative literals: "-1" is unary minus,
# so parsed trees only ever hold nonnegative constants)

_nodes = st.deferred(
    lambda: st.one_of(
        st.builds(Const, st.floats(min_value=0, max_value=5, allow_nan=False).map(lambda v: round(v, 3))),
        st.builds(Var, st.integers(min_value=0, max_value=2)),
        st.builds(Add, _nodes, _nodes),
        st.builds(Sub, _nodes, _nodes),
        st.builds(Mul, _nodes, _nodes),
        st.builds(Div, _nodes, _nodes),
        st.builds(Neg, _nodes),
        st.builds(Pow, _nodes, st.integers(min_value=0, max_value=4)),
    )
)


@given(_nodes)
def test_parse_print_parse_identity(node):
    ast = expr.ExprAST(node, 3)
    text = expr.to_string(ast)
    assert expr.parse(text, 3).root == ast.root


def test_text_level_round_trip_is_stable():
    texts = [
        "-0.5*x1^2 + x1^3/6",
        "x1*x2 - (x1 - x2)^3",
        "-(x1 + 1)/(x2 + 2) + x3^2*x1",
        "2 - 3 - 4 + x1/2/2",
    ]
    for text in texts:
        once = expr.parse(text, 3)
        twice = expr.parse(expr.to_string(once), 3)
        assert once.root == twice.root


def test_negative_constants_round_trip_semantically(rng):
    for _ in range(50):
        n = 2
        ast = expr.ExprAST(random_ast(rng, n), n)
        reparsed = expr.parse(expr.to_string(ast), n)
        x = rng.uniform(0.5, 2.0, size=n)
        try:
            a = expr.eval2(ast, x)
        except expr.EvalError:
            continue
        b = expr.eval2(reparsed, x)
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
