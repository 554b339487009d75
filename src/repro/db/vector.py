"""Columnar batch execution for the relational kernel (ROADMAP item 1).

Sharing row dicts between operators (PR 5) removed per-operator row
copies; this module removes the per-row *interpreter* overhead on top:
when a batch is large enough, selections run as fused bitmask kernels
over per-column value lists and joins build and probe their hash index
over column arrays — all behind the existing
:class:`~repro.db.relation.Relation` / :class:`~repro.db.table.Table`
API.

Three layers:

* **Columnar images** — ``Table.column_data()`` lazily transposes the
  row store into per-column lists, cached per table generation (any
  mutation invalidates).  Relations not backed by a table gather the
  referenced columns ad hoc.
* **Mask kernels** — :func:`compile_mask` lowers a predicate tree to a
  single generated list comprehension over zipped columns.  SQL
  three-valued logic collapses safely under *strict* masks: the kernel
  computes ``value is True`` per row (and a dual ``value is False``
  form to support NOT), so NULLs drop out exactly as the scalar
  ``select`` does.  Predicates outside the supported grammar
  (function calls, arithmetic, bare column truthiness) return None and
  the caller keeps the compiled scalar closure.
* **Batch gating** — kernels engage only when the input has at least
  :data:`BATCH_THRESHOLD` rows; tiny inputs stay on the scalar loop
  where closure dispatch is already cheaper than building column
  views.  The gate is a constant, not a setting: input size is the only
  thing that selects between the two rungs.

Correctness contract: every vector kernel either produces exactly the
rows (same dict objects, same order) and the same ``STATS`` charges
(``rows_copied``/``rows_shared``) as the scalar loop, or it declines
(returns None) and the scalar loop runs.  A kernel that trips a
``TypeError`` mid-batch declines the same way, so type errors surface
through the scalar loop with the usual
:class:`~repro.errors.QueryError`.  (One deliberate relaxation: a
predicate that would raise only on rows the mask short-circuits away
may succeed where the reference oracle raises; schema-coerced data
never hits this.)  The differential suite in
``tests/db/test_vector_equivalence.py`` pins the equivalence; the
``vector_*`` counters in :data:`repro.db.fastpath.STATS` feed the
deterministic op-count gates in ``benchmarks/test_bench_relops.py``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.db import fastpath, partition
from repro.db.expressions import (
    _BINARY_OPS,
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    UnaryOp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.relation import Relation, Row
    from repro.db.table import Table

#: Minimum batch size before columnar kernels engage.
BATCH_THRESHOLD = 64


def should_batch(n: int) -> bool:
    """Whether a batch of ``n`` rows takes the columnar kernels."""
    return n >= BATCH_THRESHOLD


# -- columnar images -------------------------------------------------------------


def columns_of(rows: list["Row"], names: Sequence[str]) -> list[list] | None:
    """Gather ``names`` out of row dicts as per-column lists (ad hoc)."""
    fastpath.STATS.column_builds += 1
    try:
        return [[row[name] for row in rows] for name in names]
    except KeyError:
        return None


def _column_views(
    rows: Sequence["Row"], table: "Table | None", names: Sequence[str]
) -> list[Sequence[Any]] | None:
    """Column views for ``names``: the cached image of the ``table``
    the rows are a current snapshot of, else an ad-hoc gather."""
    if table is not None:
        data = table.column_data()
        return [data[name] for name in names]
    return columns_of(rows, names)


def _resolve_columns(
    relation: "Relation", names: Sequence[str]
) -> list[Sequence[Any]] | None:
    """Column views for ``names``, preferring the source table's image.

    Returns None when a name is not declared on the relation — the
    scalar path then reproduces the exact error (or, for width-shared
    rows, the guard already raised).
    """
    declared = relation.columns
    if any(name not in declared for name in names):
        return None
    return _column_views(relation.rows, relation._live_table(), names)


# -- mask kernels ---------------------------------------------------------------


class _Unsupported(Exception):
    """Predicate node outside the vectorizable grammar."""


_CMP_SOURCE = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_INLINE_TYPES = (int, float, str, bool)


class MaskKernel:
    """A compiled strict-boolean mask over named columns.

    ``fn`` takes one positional sequence per name in ``columns`` and
    returns a list of per-row truth values equivalent to
    ``predicate.evaluate(row) is True``.  ``constant`` replaces ``fn``
    for column-free predicates.
    """

    __slots__ = ("columns", "fn", "constant")

    def __init__(self, columns: tuple[str, ...], fn: Any, constant: bool | None):
        self.columns = columns
        self.fn = fn
        self.constant = constant


class _MaskBuilder:
    """Collects column/constant bindings while sources are generated."""

    def __init__(self) -> None:
        self.columns: dict[str, str] = {}
        self.consts: dict[str, Any] = {}

    def var(self, name: str) -> str:
        existing = self.columns.get(name)
        if existing is None:
            existing = f"v{len(self.columns)}"
            self.columns[name] = existing
        return existing

    def const(self, value: Any) -> str:
        # repr round-trips exactly for the inline scalar types, turning
        # the constant into a code literal instead of a global lookup.
        if value is None or type(value) in _INLINE_TYPES:
            return f"({value!r})"
        key = f"k{len(self.consts)}"
        self.consts[key] = value
        return key


def _fold_constant(value: Any) -> tuple[str, str]:
    if value is True:
        return "True", "False"
    if value is False:
        return "False", "True"
    if value is None:
        return "False", "False"
    raise _Unsupported


def _comparison_sources(expr: BinaryOp, builder: _MaskBuilder) -> tuple[str, str]:
    op = _CMP_SOURCE.get(expr.op)
    if op is None:
        raise _Unsupported
    left, right = expr.left, expr.right
    if isinstance(left, Literal) and isinstance(right, Literal):
        try:
            return _fold_constant(_BINARY_OPS[expr.op](left.value, right.value))
        except TypeError:
            raise _Unsupported from None
    guards: list[str] = []
    operands: list[str] = []
    for side in (left, right):
        if isinstance(side, ColumnRef):
            var = builder.var(side.name)
            guards.append(f"{var} is not None")
            operands.append(var)
        elif isinstance(side, Literal):
            if side.value is None:
                return "False", "False"  # NULL comparison is never True/False
            operands.append(builder.const(side.value))
        else:
            raise _Unsupported
    core = f"{operands[0]} {op} {operands[1]}"
    prefix = " and ".join(guards)
    return (
        f"({prefix} and {core})",
        f"({prefix} and not ({core}))",
    )


def _mask_sources(expr: Expression, builder: _MaskBuilder) -> tuple[str, str]:
    """``(is-True source, is-False source)`` for one predicate node.

    Strict masks make three-valued logic compositional without
    evaluating NULLs: for values restricted to {True, False, None} —
    which every supported node produces —

    * ``T(a AND b) = T(a) and T(b)``, ``F(a AND b) = F(a) or F(b)``
    * ``T(a OR b) = T(a) or T(b)``,  ``F(a OR b) = F(a) and F(b)``
    * ``T(NOT a) = F(a)``,           ``F(NOT a) = T(a)``

    exactly mirroring :meth:`BinaryOp.evaluate`'s short-circuit rules
    (``NULL AND FALSE`` is FALSE, ``NULL OR TRUE`` is TRUE).
    """
    if isinstance(expr, Literal):
        return _fold_constant(expr.value)
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            lt, lf = _mask_sources(expr.left, builder)
            rt, rf = _mask_sources(expr.right, builder)
            return f"({lt} and {rt})", f"({lf} or {rf})"
        if expr.op == "OR":
            lt, lf = _mask_sources(expr.left, builder)
            rt, rf = _mask_sources(expr.right, builder)
            return f"({lt} or {rt})", f"({lf} and {rf})"
        return _comparison_sources(expr, builder)
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            ot, of = _mask_sources(expr.operand, builder)
            return of, ot
        if expr.op in ("IS NULL", "IS NOT NULL"):
            operand = expr.operand
            if isinstance(operand, Literal):
                null = operand.value is None
            elif isinstance(operand, ColumnRef):
                var = builder.var(operand.name)
                if expr.op == "IS NULL":
                    return f"({var} is None)", f"({var} is not None)"
                return f"({var} is not None)", f"({var} is None)"
            else:
                raise _Unsupported
            if expr.op == "IS NOT NULL":
                null = not null
            return ("True", "False") if null else ("False", "True")
    raise _Unsupported


@lru_cache(maxsize=512)
def _mask_code(source: str, mode: str) -> Any:
    """Bytecode of one kernel source: predicates of one shape generate
    the same text (bindings are named by position), and every deploy of
    a plan generates the texts of the deploy before."""
    return compile(source, "<repro.db.vector mask>", mode)


@lru_cache(maxsize=512)
def compile_mask(expr: Expression) -> MaskKernel | None:
    """Lower a predicate to a fused mask kernel (identity-cached).

    Like :func:`repro.db.expressions.compile_expression`, the cache key
    is expression object identity.  Returns None (also cached) for
    predicates outside the supported grammar: comparisons between
    columns and literals, AND/OR/NOT, IS [NOT] NULL, and boolean/NULL
    literals.
    """
    builder = _MaskBuilder()
    try:
        true_source, _ = _mask_sources(expr, builder)
    except _Unsupported:
        return None
    names = tuple(builder.columns)
    fastpath.STATS.masks_compiled += 1
    if not names:
        code = _mask_code(true_source, "eval")
        value = bool(eval(code, dict(builder.consts)))  # noqa: S307
        return MaskKernel((), None, value)
    variables = ", ".join(builder.columns[name] for name in names)
    params = ", ".join(f"c{i}" for i in range(len(names)))
    if len(names) == 1:
        body = f"[{true_source} for {variables} in {params}]"
    else:
        body = f"[{true_source} for ({variables},) in zip({params})]"
    source = f"def __mask({params}):\n    return {body}\n"
    namespace = dict(builder.consts)
    exec(_mask_code(source, "exec"), namespace)  # noqa: S102
    return MaskKernel(names, namespace["__mask"], None)


# -- batch operators -------------------------------------------------------------


def filter_rows(
    rows: Sequence["Row"],
    declared: Sequence[str],
    predicate: Expression,
    table: "Table | None" = None,
) -> list["Row"] | None:
    """Mask-kernel selection over ``rows``; None defers to the scalar loop.

    The one filter ladder behind ``Relation.select`` and ``Table.scan``:
    ``rows`` is a relation's row list (or still-streaming partition
    view) or a table's row store, ``declared`` the columns a predicate
    may reference, ``table`` the table whose current contents ``rows``
    are (its cached columnar image then replaces the ad-hoc gather).
    """
    if not should_batch(len(rows)):
        return None
    kernel = compile_mask(predicate)
    if kernel is None:
        return None
    if not kernel.columns:
        fastpath.STATS.vector_filters += 1
        return list(rows) if kernel.constant else []
    if any(name not in declared for name in kernel.columns):
        return None  # scalar loop raises the exact unknown-column error
    if isinstance(rows, partition.PartitionStore):
        # Budget-governed table: filter partition-by-partition over the
        # per-partition column slices (cached on the partitions), never
        # materializing a whole-table columnar image.
        return partition.partitioned_filter(rows, kernel)
    view = partition.spilled_view(rows)
    if view is not None:
        return partition.partitioned_filter(view.store, kernel, limit=len(view))
    columns = _column_views(rows, table, kernel.columns)
    if columns is None:
        return None
    try:
        mask = kernel.fn(*columns)
    except TypeError:
        fastpath.STATS.vector_fallbacks += 1
        return None
    fastpath.STATS.vector_filters += 1
    return list(compress(rows, mask))


def join_rows(
    left: "Relation",
    right: "Relation",
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    rename: Mapping[str, str],
    how: str,
) -> list["Row"] | None:
    """Vectorized hash join: column-array index build + probe.

    Produces exactly the scalar hash join's output — same combined-dict
    construction, left order preserved, right matches in storage order,
    NULL keys never joining — but builds and probes the key index over
    column views instead of per-row tuple materialization.
    """
    right_key_columns = _resolve_columns(right, tuple(right_keys))
    left_key_columns = _resolve_columns(left, tuple(left_keys))
    if right_key_columns is None or left_key_columns is None:
        return None

    index: dict[Any, list[int]] = {}
    if len(right_keys) == 1:
        for position, key in enumerate(right_key_columns[0]):
            if key is None:
                continue
            bucket = index.get(key)
            if bucket is None:
                index[key] = [position]
            else:
                bucket.append(position)
        left_probe: Sequence[Any] = left_key_columns[0]
    else:
        for position, key in enumerate(zip(*right_key_columns)):
            if any(part is None for part in key):
                continue
            bucket = index.get(key)
            if bucket is None:
                index[key] = [position]
            else:
                bucket.append(position)
        left_probe = list(zip(*left_key_columns))

    fastpath.STATS.vector_joins += 1
    left_rows = left.rows
    right_rows = right.rows
    rename_items = list(rename.items())
    null_right = {out: None for out in rename.values()}
    multi = len(left_keys) > 1
    lookup = index.get
    out_rows: list[Row] = []
    append = out_rows.append
    is_left_join = how == "left"
    for position, key in enumerate(left_probe):
        if multi:
            bucket = None if any(part is None for part in key) else lookup(key)
        else:
            bucket = None if key is None else lookup(key)
        if bucket:
            row = left_rows[position]
            for right_position in bucket:
                combined = dict(row)
                match = right_rows[right_position]
                for in_name, out_name in rename_items:
                    combined[out_name] = match[in_name]
                append(combined)
        elif is_left_join:
            combined = dict(left_rows[position])
            combined.update(null_right)
            append(combined)
    return out_rows
