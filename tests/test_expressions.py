"""Expression language: grammar, round-trip serialization, evaluation faults."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hadafrac.errors import DomainError, ExprEvalError, ExprSyntaxError
from hadafrac.expressions import (
    MAX_SOURCE_BYTES,
    Binary,
    Const,
    Unary,
    Var,
    as_function,
    eval_expr,
    parse_expr,
    serialize,
)


def test_worked_grammar_examples():
    assert parse_expr("1") == Const(1.0)
    assert parse_expr("ln(x)^2 / 2") == Binary(
        "div", Binary("pow", Unary("ln", Var()), Const(2.0)), Const(2.0)
    )
    assert parse_expr("1 + 0.5*ln(x)") == Binary(
        "add", Const(1.0), Binary("mul", Const(0.5), Unary("ln", Var()))
    )


@pytest.mark.parametrize(
    "text,value",
    [
        ("2^3^2", 512.0),  # right-associative
        ("-2^2", -4.0),  # unary minus binds below the power
        ("(-2)^2", 4.0),
        ("2+3*4", 14.0),
        ("2*3+4", 10.0),
        ("2 / 2 / 2", 0.5),  # left-associative
        ("8 - 4 - 2", 2.0),
        ("2^-1", 0.5),
        ("pi", math.pi),
        ("e", math.e),
        ("abs(3 - 5)", 2.0),
        ("sin(0) + cos(0)", 1.0),
        ("1.5e2", 150.0),
        (".25 * 4", 1.0),
        ("sqrt(sqrt(16))", 2.0),
    ],
)
def test_precedence_and_values(text, value):
    assert eval_expr(parse_expr(text), 1.0) == pytest.approx(value, rel=1e-15)


def test_worked_eval_examples():
    assert eval_expr(parse_expr("ln(x)"), math.e) == pytest.approx(1.0, rel=1e-15)
    assert eval_expr(parse_expr("x^0.5"), 4.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("1/(x-1)"), 1.0)


def test_vectorized_evaluation_matches_scalar():
    ast = parse_expr("1 + 0.5*ln(x) - sin(ln(x))^2")
    taus = np.linspace(1.0, 9.0, 17)
    vec = eval_expr(ast, taus)
    assert vec.shape == taus.shape
    for tau, expect in zip(taus, vec):
        assert eval_expr(ast, float(tau)) == pytest.approx(expect, rel=1e-15)


ROUND_TRIP_CORPUS = [
    "1",
    "x",
    "pi",
    "e",
    "-x",
    "x + 1",
    "x - 1",
    "1 - x - 2",
    "x*x",
    "x/2",
    "2/x/3",
    "x^2",
    "x^0.5",
    "2^3^2",
    "-2^2",
    "(-2)^2",
    "2^-3",
    "-(x + 1)",
    "-(x*x)",
    "(x + 1)*(x - 1)",
    "(x + 1)/(x - 1)",
    "x - (1 - x)",
    "x/(2*x)",
    "ln(x)",
    "exp(x)",
    "sqrt(x)",
    "abs(x)",
    "sin(x)",
    "cos(x)",
    "ln(x)^2",
    "ln(x^2)",
    "ln(x)^2 / 2",
    "1 + 0.5*ln(x)",
    "exp(-ln(x))",
    "sqrt(1 + x^2)",
    "sin(ln(x))*cos(ln(x))",
    "2 - -x" if False else "2 - (-x)",
    "1.5e2 * x",
    "1e-3 + x",
    ".5*x",
    "x^(1/3)",
    "(x^2)^3",
    "x^2^3",
    "abs(sin(x) - cos(x))",
    "1/(1 + exp(-x))",
    "ln(ln(x + 2))",
    "x*pi + e",
    "sqrt(abs(1 - x))",
    "exp(x)/x^2",
    "-sqrt(x)",
    "x^-0.5",
    "((x))",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip(text):
    tree = parse_expr(text)
    rendered = serialize(tree)
    assert parse_expr(rendered) == tree


_leaf = st.one_of(
    st.builds(Const, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.just(Var()),
)


def _ast_strategy():
    unary_ops = st.sampled_from(["neg", "ln", "exp", "sqrt", "abs", "sin", "cos"])
    binary_ops = st.sampled_from(["add", "sub", "mul", "div", "pow"])
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.builds(Unary, unary_ops, children),
            st.builds(Binary, binary_ops, children, children),
        ),
        max_leaves=12,
    )


@given(_ast_strategy())
def test_round_trip_random_trees(tree):
    assert parse_expr(serialize(tree)) == tree


def test_negative_constant_reparses_to_its_negation():
    assert serialize(Const(-2.0)) == "-2"
    assert parse_expr("-2") == Unary("neg", Const(2.0))


def test_eval_domain_faults_carry_context():
    with pytest.raises(ExprEvalError) as info:
        eval_expr(parse_expr("ln(x - 2)"), 1.5)
    assert info.value.tau == pytest.approx(1.5)
    assert "ln" in info.value.subexpr

    with pytest.raises(ExprEvalError) as info:
        eval_expr(parse_expr("1/(x-1)"), 1.0)
    assert "/" in info.value.subexpr

    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("sqrt(1 - x)"), 4.0)
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("(x - 3)^0.5"), 2.0)
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("(x - 1)^-2"), 1.0)
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("exp(exp(x))"), 10.0)

    # Overflow is reported where it happens, not where it would reach the root.
    with pytest.raises(ExprEvalError) as info:
        eval_expr(parse_expr("exp(x)*0 + 1"), 1000.0)
    assert info.value.subexpr == "exp(x)"


def test_vector_fault_reports_an_offending_point():
    with pytest.raises(ExprEvalError) as info:
        eval_expr(parse_expr("ln(x - 2)"), np.array([3.0, 1.5, 4.0]))
    assert info.value.tau == pytest.approx(1.5)


def test_syntax_errors_carry_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1 +")
    assert info.value.offset == 3
    assert "NUMBER" in info.value.expected

    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("sin(x, 2)")
    assert info.value.offset == 5
    assert "argument" in str(info.value)

    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("foo(x)")
    assert info.value.offset == 0

    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1 @ 2")
    assert info.value.offset == 2

    with pytest.raises(ExprSyntaxError):
        parse_expr("--x")  # the grammar admits a single leading minus

    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1 2")
    assert info.value.offset == 2

    with pytest.raises(ExprSyntaxError):
        parse_expr("(1 + x")
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("ln(x")  # a call left open
    assert info.value.offset == 4
    assert info.value.expected == frozenset({")"})
    with pytest.raises(ExprSyntaxError):
        parse_expr("ln x")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("   ")
    with pytest.raises(ExprSyntaxError):
        parse_expr("π")  # non-ASCII
    with pytest.raises(ExprSyntaxError):
        parse_expr("x " + "+ x " * (MAX_SOURCE_BYTES // 4))

    # A literal that overflows a double is refused where it stands.
    for text, offset in [("1e999*0", 0), ("x + 1e400", 4), ("1e999", 0), ("2^1e309", 2)]:
        with pytest.raises(ExprSyntaxError, match="overflows a double") as info:
            parse_expr(text)
        assert info.value.offset == offset
        assert info.value.expected == frozenset()


@pytest.mark.parametrize("text", [
    "(" * 200 + "x" + ")" * 200,
    "abs(" * 250 + "x" + ")" * 250,
    "+".join(["x"] * 5000),  # 10 KB, flat text, a tree 5,000 levels deep
    "^".join(["x"] * 5000),
])
def test_over_deep_expressions_are_syntax_errors(text):
    with pytest.raises(ExprSyntaxError, match="deeper than 100 levels"):
        parse_expr(text)


@pytest.mark.parametrize("text", [
    "(" * 100 + "x" + ")" * 100,
    "abs(" * 99 + "x" + ")" * 99,
    "+".join(["x"] * 100),
    "^".join(["x"] * 100),
])
def test_expressions_at_the_depth_cap_evaluate_and_serialize(text):
    ast = parse_expr(text)
    assert math.isfinite(eval_expr(ast, 1.0))
    assert parse_expr(serialize(ast)) == ast


def test_hand_built_tree_too_deep_to_walk_is_a_domain_error():
    tree = Var()
    for _ in range(5000):
        tree = Unary("neg", tree)
    with pytest.raises(DomainError, match="deeper than 100 levels"):
        eval_expr(tree, 2.0)
    with pytest.raises(DomainError, match="deeper than 100 levels"):
        serialize(tree)


@pytest.mark.parametrize("text, offset", [("8\u0663", 1), ("x\u00e9", 1), ("1 + \u03c0", 4)])
def test_non_ascii_is_refused_inside_numbers_and_names(text, offset):
    with pytest.raises(ExprSyntaxError, match="non-ASCII") as info:
        parse_expr(text)
    assert info.value.offset == offset


def test_parsed_expression_integrates():
    from hadafrac.operators import hadamard_integral

    f = as_function(parse_expr("1"))
    got = hadamard_integral(f, 0.5, math.e, estimate_error=False).value
    assert got == pytest.approx(1.1283791670955126, rel=1e-12)
