"""Parser/evaluator golden table, error positions, derivatives, roundtrip."""
import math

import pytest
from hypothesis import given, strategies as st

from geoconnect import dsl
from geoconnect.dsl import Bin, Call, EvalError, Neg, Num, ParseError, Var


# 50 cases; expected values are computed by Python itself (independent
# operator semantics), not by the code under test.
GOLDEN = [
    # literals / constants
    ("0", (), 0.0),
    ("42", (), 42.0),
    ("3.5", (), 3.5),
    (".25", (), 0.25),
    ("2e3", (), 2000.0),
    ("1.5e-2", (), 0.015),
    ("pi", (), math.pi),
    ("e", (), math.e),
    # arithmetic and precedence
    ("2+3*4", (), 2 + 3 * 4),
    ("(2+3)*4", (), (2 + 3) * 4),
    ("2-3-4", (), 2 - 3 - 4),
    ("12/4/3", (), 12 / 4 / 3),
    ("2+3-1", (), 4.0),
    ("7/2", (), 3.5),
    ("2*3^2", (), 2 * 3 ** 2),
    ("2^3^2", (), 2 ** 3 ** 2),          # right-associative
    ("-2^2", (), -(2 ** 2)),             # unary binds looser than ^
    ("(-2)^2", (), 4.0),
    ("2^-3", (), 2.0 ** -3),
    ("-(-3)", (), 3.0),
    ("--4", (), 4.0),
    ("-2*-3", (), 6.0),
    ("4^0.5", (), 2.0),
    ("9^(1/2)", (), 3.0),
    ("10^-2", (), 0.01),
    # variables
    ("x1", (2.5,), 2.5),
    ("x1+x2", (1.0, 2.0), 3.0),
    ("x2^2 - x1", (3.0, 4.0), 13.0),
    ("x1*x2/x3", (6.0, 4.0, 8.0), 3.0),
    ("-x1", (1.5,), -1.5),
    # functions
    ("sin(0)", (), 0.0),
    ("cos(0)", (), 1.0),
    ("sin(pi/2)", (), 1.0),
    ("tan(pi/4)", (), math.tan(math.pi / 4)),
    ("sinh(1)", (), math.sinh(1.0)),
    ("cosh(0)", (), 1.0),
    ("tanh(0.5)", (), math.tanh(0.5)),
    ("exp(1)", (), math.e),
    ("exp(0)", (), 1.0),
    ("log(e)", (), 1.0),
    ("log(exp(2))", (), 2.0),
    ("sqrt(16)", (), 4.0),
    ("abs(-7)", (), 7.0),
    ("abs(3)", (), 3.0),
    # compositions
    ("sin(x1)^2 + cos(x1)^2", (0.7,), 1.0),
    ("sqrt(x1^2 + x2^2)", (3.0, 4.0), 5.0),
    ("exp(-x1^2)", (1.0,), math.exp(-1.0)),
    ("1/(1+exp(-x1))", (0.0,), 0.5),
    ("log(x1)/log(x2)", (8.0, 2.0), 3.0),
    ("cosh(x1)^2 - sinh(x1)^2", (0.9,), 1.0),
]

assert len(GOLDEN) == 50


@pytest.mark.parametrize("src,x,expected", GOLDEN)
def test_golden_table(src, x, expected):
    e = dsl.parse(src, max(len(x), 3))
    got = dsl.evaluate(e, x)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


PARSE_ERRORS = [
    ("2 + * 3", 4),       # operator where an atom is expected
    ("(1+2", 4),          # missing closing paren
    ("1 2", 2),           # trailing token
    ("sin 2", 4),         # function without parentheses
    ("sin(2", 5),         # unterminated call
    ("foo(1)", 0),        # unknown identifier
    ("x3", 0),            # variable beyond declared dimension (dim=2)
    ("1 + @", 4),         # illegal character
    ("", 0),              # empty input
    ("2 ** 3", 3),        # '*' then '*' with no atom between
    ("1+", 2),            # dangling operator
]


@pytest.mark.parametrize("src,pos", PARSE_ERRORS)
def test_parse_error_positions(src, pos):
    with pytest.raises(ParseError) as exc:
        dsl.parse(src, 2)
    assert exc.value.position == pos


DERIVATIVES = [
    # (expr, x, index, analytic derivative)
    ("x1^2", (1.3,), 1, 2 * 1.3),
    ("x1^3 - 2*x1", (0.7,), 1, 3 * 0.7 ** 2 - 2),
    ("sin(x1)", (0.4,), 1, math.cos(0.4)),
    ("cos(x1)", (1.1,), 1, -math.sin(1.1)),
    ("exp(x1)", (0.5,), 1, math.exp(0.5)),
    ("log(x1)", (2.0,), 1, 0.5),
    ("sqrt(x1)", (4.0,), 1, 0.25),
    ("tanh(x1)", (0.3,), 1, 1.0 / math.cosh(0.3) ** 2),
    ("x1*x2", (2.0, 3.0), 2, 2.0),
    ("x1/x2", (1.0, 2.0), 2, -0.25),
    ("sin(x1*x2)", (0.5, 0.8), 1, 0.8 * math.cos(0.4)),
    ("exp(-x1^2)", (0.6,), 1, -1.2 * math.exp(-0.36)),
    ("x2^2", (5.0, 1.5), 1, 0.0),
]


@pytest.mark.parametrize("src,x,i,expected", DERIVATIVES)
def test_partial_derivatives(src, x, i, expected):
    e = dsl.parse(src, len(x))
    got = dsl.partial(e, x, i)
    assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)


def test_eval_errors():
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("1/x1", 1), (0.0,))
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("log(x1)", 1), (-1.0,))
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("log(0)", 1), ())
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("sqrt(-1)", 1), ())
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("(-2)^0.5", 1), ())
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("0^-1", 1), ())
    with pytest.raises(EvalError):
        dsl.evaluate(dsl.parse("exp(10^6)", 1), ())


@pytest.mark.parametrize("src,x,i,expected", DERIVATIVES)
def test_derive_is_exact(src, x, i, expected):
    e = dsl.parse(src, len(x))
    got = dsl.evaluate(dsl.derive(e, i), x)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_derive_folds_symbolic_zero():
    e = dsl.parse("x2^2 + 3*sin(x2) - exp(x3)/x2", 3)
    assert dsl.derive(e, 1) == Num(0.0)
    assert dsl.derive(dsl.parse("x1 - x1", 1), 1) == Num(0.0)
    assert dsl.derive(dsl.parse("x1^2", 1), 1) == Bin("*", Num(2.0), Var(1))


@pytest.mark.parametrize("src,x", [
    ("tan(x1)^2", (0.3,)), ("sinh(x1)*cosh(x1)", (0.8,)), ("abs(x1)^3", (-1.2,)),
    ("x1^x2", (1.7, 0.6)), ("2^x1", (1.3,)), ("sqrt(1 + x1^2)/x1", (0.9,)),
    ("log(x1*x2)", (0.4, 2.5)), ("-(x1^-2)", (1.1,)),
])
def test_derive_matches_central_difference(src, x):
    e = dsl.parse(src, 2)
    for i in range(1, len(x) + 1):
        h = 1e-6
        xp = list(x); xp[i - 1] += h
        xm = list(x); xm[i - 1] -= h
        fd = (dsl.evaluate(e, xp) - dsl.evaluate(e, xm)) / (2 * h)
        assert dsl.partial(e, x, i) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_derive_of_abs_faults_at_zero():
    d = dsl.derive(dsl.parse("abs(x1)", 1), 1)
    assert dsl.evaluate(d, (-2.0,)) == -1.0
    with pytest.raises(EvalError) as exc:
        dsl.evaluate(d, (0.0,))
    assert exc.value.message == "division by zero"


@pytest.mark.parametrize("src,x,expected", GOLDEN)
def test_compile_expr_golden(src, x, expected):
    f = dsl.compile_expr(dsl.parse(src, max(len(x), 3)))
    assert f(x) == pytest.approx(expected, rel=1e-12, abs=1e-15)


# (source, x, message); each fault is raised by the root node
EVAL_ERRORS = [
    ("1/x1", (0.0,), "division by zero"),
    ("log(x1)", (-1.0,), "log of non-positive value"),
    ("log(0)", (), "log of non-positive value"),
    ("sqrt(-1)", (), "sqrt of negative value"),
    ("(-2)^0.5", (), "non-positive base with non-integer exponent"),
    ("0^-1", (), "zero base with negative exponent"),
    ("exp(10^6)", (), "domain fault in exp"),
    ("10^400", (), "overflow"),
]


@pytest.mark.parametrize("src,x,message", EVAL_ERRORS)
def test_compile_expr_errors(src, x, message):
    e = dsl.parse(src, 1)
    with pytest.raises(EvalError) as exc:
        dsl.compile_expr(e)(x)
    assert (exc.value.node, exc.value.x, exc.value.message) == (e, x, message)


def test_var_index_respects_dimension():
    assert dsl.parse("x4", 4) == Var(4)
    with pytest.raises(ParseError):
        dsl.parse("x4", 3)


def test_pretty_roundtrip_fixed():
    for src, x, _ in GOLDEN:
        e = dsl.parse(src, max(len(x), 3))
        again = dsl.parse(dsl.pretty(e), max(len(x), 3))
        assert again == e


# --- property: pretty() of a random AST reparses to the identical AST ------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.integers(min_value=1, max_value=4).map(Var),
)


def _tree(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Bin(*t)
        ),
        st.tuples(st.sampled_from(sorted(dsl.FUNCTIONS)), children).map(
            lambda t: Call(*t)
        ),
    )


_exprs = st.recursive(_leaf, _tree, max_leaves=20)


@given(_exprs)
def test_pretty_roundtrip_property(e):
    assert dsl.parse(dsl.pretty(e), 4) == e
