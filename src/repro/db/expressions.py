"""A small typed expression language for predicates and projections.

Integration processes express selections ("filter the right location",
P05/P06), switch conditions ("Custkey < 1 000 000", P02) and computed
projections as expression trees over row dictionaries.  Building the trees
with the :func:`col`, :func:`lit` and :func:`func` helpers gives natural
syntax::

    predicate = (col("location") == lit("Berlin")) & (col("qty") > lit(0))
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Any, Callable, Mapping

from repro.db import fastpath
from repro.errors import QueryError

#: A compiled expression: one closure evaluating against one row.
CompiledExpression = Callable[[Mapping[str, Any]], Any]


@lru_cache(maxsize=512)
def compile_expression(expr: "Expression") -> CompiledExpression:
    """Lower an expression tree to a closure, cached by tree identity.

    Expressions hash by ``id`` (see :meth:`Expression.__hash__`), so the
    cache key is object identity: the same tree object compiles once and
    every operator invocation after that reuses the closure.  The cache
    keeps strong references to its keys, so a cached id can never be
    recycled to a different live expression.

    The closures carry SQL three-valued logic, short-circuit AND/OR and
    the :class:`~repro.errors.QueryError` wrapping of type errors; the
    tree-walking reference that tests hold them to is
    ``tests/oracle/relational.py``'s ``evaluate``.
    """
    fastpath.STATS.expr_compiled += 1
    return expr._compile()


class Expression(ABC):
    """Base class: an expression compiles to one closure over a row."""

    @abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """All column names this expression reads (for pushdown analysis)."""

    @abstractmethod
    def _compile(self) -> CompiledExpression:
        """Build the closure behind :meth:`compile` (uncached)."""

    def compile(self) -> CompiledExpression:
        """This expression as a per-row closure (identity-cached)."""
        return compile_expression(self)

    def operands(self) -> "tuple[Expression, ...]":
        """The sub-expressions :meth:`_compile` compiles, in that order."""
        return ()

    # -- operator sugar ------------------------------------------------------

    def _binop(self, op_name: str, other: Any) -> "BinaryOp":
        if not isinstance(other, Expression):
            other = Literal(other)
        return BinaryOp(op_name, self, other)

    def __eq__(self, other: Any) -> "BinaryOp":  # type: ignore[override]
        return self._binop("=", other)

    def __ne__(self, other: Any) -> "BinaryOp":  # type: ignore[override]
        return self._binop("<>", other)

    def __lt__(self, other: Any) -> "BinaryOp":
        return self._binop("<", other)

    def __le__(self, other: Any) -> "BinaryOp":
        return self._binop("<=", other)

    def __gt__(self, other: Any) -> "BinaryOp":
        return self._binop(">", other)

    def __ge__(self, other: Any) -> "BinaryOp":
        return self._binop(">=", other)

    def __add__(self, other: Any) -> "BinaryOp":
        return self._binop("+", other)

    def __sub__(self, other: Any) -> "BinaryOp":
        return self._binop("-", other)

    def __mul__(self, other: Any) -> "BinaryOp":
        return self._binop("*", other)

    def __and__(self, other: Any) -> "BinaryOp":
        return self._binop("AND", other)

    def __or__(self, other: Any) -> "BinaryOp":
        return self._binop("OR", other)

    def __invert__(self) -> "UnaryOp":
        return UnaryOp("NOT", self)

    def __hash__(self) -> int:  # Expressions are identity-hashed.
        return id(self)


class ColumnRef(Expression):
    """Reference to a column of the current row."""

    def __init__(self, name: str):
        if not name:
            raise QueryError("empty column name")
        self.name = name

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def _compile(self) -> CompiledExpression:
        name = self.name

        def run(row: Mapping[str, Any]) -> Any:
            try:
                return row[name]
            except KeyError:
                raise QueryError(
                    f"unknown column {name!r}; row has {sorted(row)}"
                ) from None

        return run

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any):
        self.value = value

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def _compile(self) -> CompiledExpression:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


def _sql_eq(left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    return left == right


def _null_guard(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """SQL three-valued logic: any NULL operand yields NULL."""

    def guarded(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        return fn(left, right)

    return guarded


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _sql_eq,
    "<>": _null_guard(operator.ne),
    "<": _null_guard(operator.lt),
    "<=": _null_guard(operator.le),
    ">": _null_guard(operator.gt),
    ">=": _null_guard(operator.ge),
    "+": _null_guard(operator.add),
    "-": _null_guard(operator.sub),
    "*": _null_guard(operator.mul),
    "/": _null_guard(operator.truediv),
}


class BinaryOp(Expression):
    """A binary operation with SQL null semantics.

    AND/OR follow three-valued logic (``NULL AND FALSE`` is FALSE,
    ``NULL OR TRUE`` is TRUE); comparisons with NULL yield NULL, which
    selections treat as *not satisfied*.
    """

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _BINARY_OPS and op not in ("AND", "OR"):
            raise QueryError(f"unknown binary operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def operands(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _compile(self) -> CompiledExpression:
        lf = self.left.compile()
        rf = self.right.compile()
        if self.op == "AND":

            def run_and(row: Mapping[str, Any]) -> Any:
                left = lf(row)
                if left is False:
                    return False
                right = rf(row)
                if right is False:
                    return False
                if left is None or right is None:
                    return None
                return bool(left) and bool(right)

            return run_and
        if self.op == "OR":

            def run_or(row: Mapping[str, Any]) -> Any:
                left = lf(row)
                if left is True:
                    return True
                right = rf(row)
                if right is True:
                    return True
                if left is None or right is None:
                    return None
                return bool(left) or bool(right)

            return run_or
        op_name = self.op
        op_fn = _BINARY_OPS[op_name]
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            # The dominant predicate leaf (``col OP lit``): inline both
            # operand fetches into one closure instead of two calls.
            name = self.left.name
            const = self.right.value

            def run_col_lit(row: Mapping[str, Any]) -> Any:
                try:
                    left = row[name]
                except KeyError:
                    raise QueryError(
                        f"unknown column {name!r}; row has {sorted(row)}"
                    ) from None
                try:
                    return op_fn(left, const)
                except TypeError as exc:
                    raise QueryError(
                        f"type error in {left!r} {op_name} {const!r}: {exc}"
                    ) from exc

            return run_col_lit

        def run(row: Mapping[str, Any]) -> Any:
            left = lf(row)
            right = rf(row)
            try:
                return op_fn(left, right)
            except TypeError as exc:
                raise QueryError(
                    f"type error in {left!r} {op_name} {right!r}: {exc}"
                ) from exc

        return run

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expression):
    """NOT, IS NULL and IS NOT NULL."""

    _OPS = ("NOT", "IS NULL", "IS NOT NULL", "-")

    def __init__(self, op: str, operand: Expression):
        if op not in self._OPS:
            raise QueryError(f"unknown unary operator: {op!r}")
        self.op = op
        self.operand = operand

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def _compile(self) -> CompiledExpression:
        operand = self.operand.compile()
        if self.op == "NOT":
            return lambda row: (
                None if (v := operand(row)) is None else not bool(v)
            )
        if self.op == "IS NULL":
            return lambda row: operand(row) is None
        if self.op == "IS NOT NULL":
            return lambda row: operand(row) is not None
        return lambda row: None if (v := operand(row)) is None else -v

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "UPPER": lambda s: None if s is None else s.upper(),
    "LOWER": lambda s: None if s is None else s.lower(),
    "LENGTH": lambda s: None if s is None else len(s),
    "SUBSTR": lambda s, start, n=None: (
        None if s is None else (s[start - 1 :] if n is None else s[start - 1 : start - 1 + n])
    ),
    "CONCAT": lambda *parts: (
        None if any(p is None for p in parts) else "".join(str(p) for p in parts)
    ),
    "ABS": lambda x: None if x is None else abs(x),
    "COALESCE": lambda *xs: next((x for x in xs if x is not None), None),
    # Built-in time dimension functions of the DWH schema (Fig. 3).
    "DAY": lambda d: None if d is None else d.day,
    "MONTH": lambda d: None if d is None else d.month,
    "YEAR": lambda d: None if d is None else d.year,
}


class FunctionCall(Expression):
    """Call of a built-in scalar function, e.g. YEAR(orderdate)."""

    def __init__(self, name: str, *args: Expression):
        canonical = name.upper()
        if canonical not in _FUNCTIONS:
            raise QueryError(f"unknown function: {name!r}")
        self.name = canonical
        self.args = tuple(args)

    def referenced_columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.referenced_columns()
        return out

    def operands(self) -> tuple[Expression, ...]:
        return self.args

    def _compile(self) -> CompiledExpression:
        name = self.name
        fn = _FUNCTIONS[name]
        arg_fns = tuple(arg.compile() for arg in self.args)

        def run(row: Mapping[str, Any]) -> Any:
            values = [arg_fn(row) for arg_fn in arg_fns]
            try:
                return fn(*values)
            except (TypeError, AttributeError, IndexError) as exc:
                raise QueryError(f"error in {name}({values!r}): {exc}") from exc

        return run

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({args})"


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def func(name: str, *args: Expression | Any) -> FunctionCall:
    """Shorthand for :class:`FunctionCall`; bare values become literals."""
    wrapped = tuple(a if isinstance(a, Expression) else Literal(a) for a in args)
    return FunctionCall(name, *wrapped)
