"""Expression AST tests: the three evaluation modes must agree."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EvaluationError, QueryError
from repro.query.expressions import (
    Abs,
    Add,
    Aggregate,
    And,
    Column,
    Compare,
    Distance,
    Div,
    Literal,
    Mul,
    Neg,
    Not,
    Or,
    Sub,
)
from repro.query.intervals import Interval, TriBool

A_TEMP = Column("A", "temp")
B_TEMP = Column("B", "temp")


def scalar_env(**kwargs):
    return {("A", "temp"): kwargs.get("a", 0.0), ("B", "temp"): kwargs.get("b", 0.0)}


def test_column_evaluation_and_errors():
    assert A_TEMP.evaluate(scalar_env(a=3.5)) == 3.5
    with pytest.raises(EvaluationError):
        A_TEMP.evaluate({})
    assert A_TEMP.columns() == {("A", "temp")}
    assert A_TEMP.sql() == "A.temp"


def test_literal_modes():
    lit = Literal(2.5)
    assert lit.evaluate({}) == 2.5
    assert lit.bounds({}) == Interval.point(2.5)
    lo, hi = lit.bounds_arrays({})
    assert lo == hi == np.asarray(2.5)
    assert Literal(3).sql() == "3"


def test_arithmetic_sql_rendering():
    expr = Add(Mul(A_TEMP, Literal(2)), Neg(B_TEMP))
    assert expr.sql() == "((A.temp * 2) + -(B.temp))"


def test_abs_bounds_array_cases():
    env = {("A", "temp"): (np.array([1.0, -3.0, -2.0]), np.array([2.0, -1.0, 5.0]))}
    lo, hi = Abs(A_TEMP).bounds_arrays(env)
    assert lo.tolist() == [1.0, 1.0, 0.0]
    assert hi.tolist() == [2.0, 3.0, 5.0]


def test_div_by_zero_raises_exact():
    expr = Div(Literal(1), Sub(A_TEMP, A_TEMP))
    with pytest.raises(EvaluationError):
        expr.evaluate(scalar_env(a=5.0))


def test_div_bounds_across_zero_unbounded():
    env = {("A", "temp"): (np.array([-1.0]), np.array([1.0]))}
    lo, hi = Div(Literal(1), A_TEMP).bounds_arrays(env)
    assert lo[0] == -np.inf and hi[0] == np.inf


def test_distance_evaluates_hypot():
    expr = Distance(Column("A", "x"), Column("A", "y"), Column("B", "x"), Column("B", "y"))
    env = {("A", "x"): 0.0, ("A", "y"): 0.0, ("B", "x"): 3.0, ("B", "y"): 4.0}
    assert expr.evaluate(env) == pytest.approx(5.0)
    assert expr.sql() == "distance(A.x, A.y, B.x, B.y)"


def test_distance_point_bounds_equal_values_bit_for_bit():
    # sqrt(dx*dx + dy*dy) rounds one ulp above np.hypot on ~8% of inputs,
    # which would let a point interval exclude its own exact value.
    expr = Distance(Column("A", "x"), Column("A", "y"), Column("B", "x"), Column("B", "y"))
    rng = np.random.default_rng(0)
    a_x, a_y = rng.uniform(-100, 100, 2000), rng.uniform(-100, 100, 2000)
    zeros = np.zeros(2000)
    arrays = {("A", "x"): a_x, ("A", "y"): a_y, ("B", "x"): zeros, ("B", "y"): zeros}
    exact = expr.values(arrays)
    lo, hi = expr.bounds_arrays({ref: (column, column) for ref, column in arrays.items()})
    assert np.array_equal(lo, exact) and np.array_equal(hi, exact)


def test_div_point_bounds_equal_values_bit_for_bit():
    # l * (1/r) rounds differently from l / r (3 * (1/5) is one ulp above
    # 0.6), which would let a point interval exclude its own exact quotient.
    expr = Div(A_TEMP, B_TEMP)
    rng = np.random.default_rng(0)
    numerators = np.concatenate([rng.uniform(-100, 100, 2000), np.arange(-50, 50) / 4])
    denominators = np.concatenate([rng.uniform(0.5, 50, 2000), np.arange(1, 101) % 7 + 1.0])
    denominators *= np.where(np.arange(len(denominators)) % 2, 1.0, -1.0)
    arrays = {("A", "temp"): numerators, ("B", "temp"): denominators}
    exact = expr.values(arrays)
    lo, hi = expr.bounds_arrays({ref: (column, column) for ref, column in arrays.items()})
    assert np.array_equal(lo, exact) and np.array_equal(hi, exact)
    lo, hi = expr.bounds_arrays({("A", "temp"): (3.0, 3.0), ("B", "temp"): (5.0, 5.0)})
    assert lo == hi == 3.0 / 5.0


def test_compare_all_operators():
    env = scalar_env(a=1.0, b=2.0)
    assert Compare("<", A_TEMP, B_TEMP).evaluate(env)
    assert Compare("<=", A_TEMP, B_TEMP).evaluate(env)
    assert not Compare(">", A_TEMP, B_TEMP).evaluate(env)
    assert not Compare(">=", A_TEMP, B_TEMP).evaluate(env)
    assert not Compare("=", A_TEMP, B_TEMP).evaluate(env)
    assert Compare("!=", A_TEMP, B_TEMP).evaluate(env)
    with pytest.raises(QueryError):
        Compare("~", A_TEMP, B_TEMP)


def test_boolean_connectives():
    t = Compare("<", Literal(1), Literal(2))
    f = Compare(">", Literal(1), Literal(2))
    assert And(t, t).evaluate({})
    assert not And(t, f).evaluate({})
    assert Or(f, t).evaluate({})
    assert Not(f).evaluate({})
    with pytest.raises(QueryError):
        And(t)
    with pytest.raises(QueryError):
        Or(f)


def test_tribool_matches_masks():
    """Scalar interval evaluation and the vectorised masks must agree."""
    predicate = And(
        Compare("<", Sub(A_TEMP, B_TEMP), Literal(1.0)),
        Compare(">", Add(A_TEMP, B_TEMP), Literal(0.0)),
    )
    cases = [
        (Interval(0, 0.5), Interval(0, 0.5)),
        (Interval(5, 6), Interval(0, 1)),
        (Interval(-10, 10), Interval(-10, 10)),
        (Interval.point(1), Interval.point(1)),
    ]
    for A, B in cases:
        scalar = predicate.tribool({("A", "temp"): A, ("B", "temp"): B})
        env = {
            ("A", "temp"): (np.array([A.lo]), np.array([A.hi])),
            ("B", "temp"): (np.array([B.lo]), np.array([B.hi])),
        }
        possible, definite = predicate.masks(env)
        assert possible[0] == scalar.possible
        assert definite[0] == scalar.definite


def test_not_masks_swap_and_negate():
    predicate = Not(Compare("<", A_TEMP, Literal(0.0)))
    env = {("A", "temp"): (np.array([-1.0, 1.0, -1.0]), np.array([1.0, 2.0, -0.5]))}
    possible, definite = predicate.masks(env)
    # Interval [-1,1]: maybe; [1,2]: definitely not < 0 -> NOT is TRUE;
    # [-1,-0.5]: definitely < 0 -> NOT is FALSE.
    assert possible.tolist() == [True, True, False]
    assert definite.tolist() == [False, True, False]


# -- hypothesis: random expression trees, all modes agree -------------------


@st.composite
def numeric_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["A", "B", "lit"]))
        if leaf == "lit":
            return Literal(draw(st.floats(min_value=-100, max_value=100, allow_nan=False)))
        return Column(leaf, "temp")
    op = draw(st.sampled_from(["add", "sub", "mul", "neg", "abs"]))
    if op == "neg":
        return Neg(draw(numeric_expr(depth=depth + 1)))
    if op == "abs":
        return Abs(draw(numeric_expr(depth=depth + 1)))
    left = draw(numeric_expr(depth=depth + 1))
    right = draw(numeric_expr(depth=depth + 1))
    return {"add": Add, "sub": Sub, "mul": Mul}[op](left, right)


@given(
    numeric_expr(),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
)
def test_modes_agree_and_bounds_contain(expr, a, b, wa, wb):
    scalar = {("A", "temp"): a, ("B", "temp"): b}
    exact = expr.evaluate(scalar)

    # Vectorised exact evaluation agrees with scalar evaluation.
    arrays = {("A", "temp"): np.array([a]), ("B", "temp"): np.array([b])}
    vector = np.broadcast_to(expr.values(arrays), (1,))
    assert vector[0] == pytest.approx(exact, rel=1e-9, abs=1e-9)

    # Interval bounds (scalar and vectorised) contain the exact value.
    intervals = {
        ("A", "temp"): Interval(a - wa, a + wa),
        ("B", "temp"): Interval(b - wb, b + wb),
    }
    bounds = expr.bounds(intervals)
    slack = 1e-7 + 1e-9 * max(abs(bounds.lo), abs(bounds.hi))
    assert bounds.lo - slack <= exact <= bounds.hi + slack

    env = {
        ("A", "temp"): (np.array([a - wa]), np.array([a + wa])),
        ("B", "temp"): (np.array([b - wb]), np.array([b + wb])),
    }
    lo, hi = expr.bounds_arrays(env)
    lo = np.broadcast_to(lo, (1,))
    hi = np.broadcast_to(hi, (1,))
    assert lo[0] == pytest.approx(bounds.lo, rel=1e-9, abs=1e-9)
    assert hi[0] == pytest.approx(bounds.hi, rel=1e-9, abs=1e-9)


def test_aggregate_apply():
    agg = Aggregate("MIN", A_TEMP)
    assert agg.apply([3.0, 1.0, 2.0], 3) == 1.0
    assert Aggregate("MAX", A_TEMP).apply([3.0, 1.0], 2) == 3.0
    assert Aggregate("AVG", A_TEMP).apply([1.0, 3.0], 2) == 2.0
    assert Aggregate("SUM", A_TEMP).apply([1.0, 3.0], 2) == 4.0
    assert Aggregate("COUNT", None).apply([], 7) == 7.0


def test_aggregate_validation():
    with pytest.raises(QueryError):
        Aggregate("MEDIAN", A_TEMP)
    with pytest.raises(QueryError):
        Aggregate("MIN", None)
    with pytest.raises(EvaluationError):
        Aggregate("MIN", A_TEMP).apply([], 0)
    assert Aggregate("COUNT", None).sql() == "COUNT(*)"


def test_expression_equality_and_hash():
    assert Add(A_TEMP, Literal(1)) == Add(Column("A", "temp"), Literal(1))
    assert hash(Add(A_TEMP, Literal(1))) == hash(Add(Column("A", "temp"), Literal(1)))
    assert Add(A_TEMP, Literal(1)) != Add(A_TEMP, Literal(2))
