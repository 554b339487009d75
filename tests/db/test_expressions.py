"""Expression language: evaluation, null semantics, functions.

Every case evaluates twice, through production's ``compile()`` closures
and through the tree-walking reference in ``tests/oracle/relational.py``;
both must give the same value and raise the same ``QueryError`` text.
"""

import datetime

import pytest

from repro.db.expressions import (
    BinaryOp,
    FunctionCall,
    Literal,
    UnaryOp,
    col,
    func,
    lit,
)
from repro.errors import QueryError
from tests.oracle import relational as oracle

ROW = {"a": 5, "b": 2, "name": "Ada", "none_col": None,
       "d": datetime.date(2007, 3, 9)}


def run(expr, row=ROW):
    """Evaluate ``expr`` both ways; value and type must agree."""
    compiled = expr.compile()(row)
    walked = oracle.evaluate(expr, row)
    assert type(compiled) is type(walked) and compiled == walked, (
        expr, compiled, walked)
    return compiled


def _error(expr) -> str:
    """Both evaluators raise ``QueryError`` with the same text; return it."""
    with pytest.raises(QueryError) as compiled:
        expr.compile()(ROW)
    with pytest.raises(QueryError) as walked:
        oracle.evaluate(expr, ROW)
    assert str(compiled.value) == str(walked.value), expr
    return str(compiled.value)


class TestBasics:
    def test_column_lookup(self):
        assert run(col("a")) == 5

    def test_unknown_column_raises(self):
        message = _error(col("ghost"))
        assert message.startswith("unknown column 'ghost'; row has ['a', 'b'")

    def test_literal(self):
        assert run(lit(7)) == 7

    def test_comparison_operators(self):
        assert run(col("a") > lit(4)) is True
        assert run(col("a") <= col("b")) is False
        assert run(col("a") != col("b")) is True

    def test_arithmetic(self):
        assert run(col("a") + col("b")) == 7
        assert run(col("a") * lit(3)) == 15
        assert run(col("a") - lit(1)) == 4
        assert run(UnaryOp("-", col("a"))) == -5
        assert run(UnaryOp("-", col("none_col"))) is None

    def test_bare_values_become_literals(self):
        assert run(col("a") == 5) is True

    def test_referenced_columns(self):
        expr = (col("a") + col("b")) > lit(0)
        assert expr.referenced_columns() == {"a", "b"}


class TestNullSemantics:
    def test_comparison_with_null_is_null(self):
        assert run(col("none_col") == lit(1)) is None
        assert run(col("none_col") < lit(1)) is None

    def test_and_short_circuit_false(self):
        expr = (col("a") > lit(100)) & (col("none_col") == lit(1))
        assert run(expr) is False

    def test_and_short_circuits_before_an_unknown_column(self):
        assert run((col("a") > lit(100)) & (col("ghost") == lit(1))) is False
        assert run((col("a") > lit(0)) | (col("ghost") == lit(1))) is True

    def test_and_with_null_is_null(self):
        expr = (col("a") > lit(0)) & (col("none_col") == lit(1))
        assert run(expr) is None

    def test_or_with_true_wins_over_null(self):
        expr = (col("none_col") == lit(1)) | (col("a") > lit(0))
        assert run(expr) is True

    def test_or_with_null_is_null(self):
        expr = (col("none_col") == lit(1)) | (col("a") > lit(100))
        assert run(expr) is None

    def test_not_null_is_null(self):
        assert run(~(col("none_col") == lit(1))) is None

    def test_is_null(self):
        assert run(UnaryOp("IS NULL", col("none_col"))) is True
        assert run(UnaryOp("IS NOT NULL", col("a"))) is True

    @pytest.mark.parametrize("left", [True, False, None])
    @pytest.mark.parametrize("right", [True, False, None])
    def test_three_valued_truth_tables(self, left, right):
        and_table = {
            (True, True): True, (True, False): False, (True, None): None,
            (False, True): False, (False, False): False, (False, None): False,
            (None, True): None, (None, False): False, (None, None): None,
        }
        or_table = {
            (True, True): True, (True, False): True, (True, None): True,
            (False, True): True, (False, False): False, (False, None): None,
            (None, True): True, (None, False): None, (None, None): None,
        }
        assert run(lit(left) & lit(right)) is and_table[left, right]
        assert run(lit(left) | lit(right)) is or_table[left, right]
        assert run(~lit(left)) is (None if left is None else not left)


class TestFunctions:
    def test_string_functions(self):
        assert run(func("UPPER", col("name"))) == "ADA"
        assert run(func("LOWER", col("name"))) == "ada"
        assert run(func("LENGTH", col("name"))) == 3

    def test_substr(self):
        assert run(func("SUBSTR", col("name"), 2)) == "da"
        assert run(func("SUBSTR", col("name"), 1, 2)) == "Ad"

    def test_concat(self):
        assert run(func("CONCAT", col("name"), lit("!"))) == "Ada!"

    def test_concat_null_propagates(self):
        assert run(func("CONCAT", col("name"), col("none_col"))) is None

    def test_coalesce(self):
        assert run(func("COALESCE", col("none_col"), col("a"))) == 5

    def test_time_dimension_functions(self):
        """The DWH time dimension is built-in functions (Fig. 3)."""
        assert run(func("YEAR", col("d"))) == 2007
        assert run(func("MONTH", col("d"))) == 3
        assert run(func("DAY", col("d"))) == 9

    def test_null_date_functions(self):
        assert run(func("YEAR", col("none_col"))) is None

    def test_abs(self):
        assert run(func("ABS", lit(-4))) == 4

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError):
            FunctionCall("MYSTERY")

    def test_unknown_binary_op_rejected(self):
        with pytest.raises(QueryError):
            BinaryOp("<=>", Literal(1), Literal(2))

    def test_unknown_unary_op_rejected(self):
        with pytest.raises(QueryError):
            UnaryOp("SQRT", Literal(1))

    def test_type_error_becomes_query_error(self):
        message = _error(col("a") + col("name"))
        assert message.startswith("type error in 5 + 'Ada': ")

    def test_type_error_between_two_computed_operands(self):
        message = _error((col("a") + lit(1)) - col("name"))
        assert message.startswith("type error in 6 - 'Ada': ")

    def test_function_error_becomes_query_error(self):
        message = _error(func("UPPER", col("a")))
        assert message.startswith("error in UPPER([5]): ")


def test_both_evaluators_raise_the_same_text():
    """The oracle is a reference only if its errors read the same."""
    failing = [
        col("ghost"),
        col("a") + col("name"),
        (col("a") + lit(1)) - col("name"),
        func("SUBSTR", col("a"), 1),
        (col("a") > lit(0)) & (col("ghost") == lit(1)),
    ]
    for expr in failing:
        _error(expr)
