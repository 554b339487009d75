"""Columnar hash join for the relational kernel.

Sharing row dicts between operators removed per-operator row copies;
this module removes per-row key-tuple materialization from the one
operator where it pays: a large enough inner join builds and probes its
hash index over column arrays instead of row dicts, behind the existing
:meth:`~repro.db.relation.Relation.join` API.  (Selections have no
columnar rung: the predicate's compiled closure measured as fast end to
end on every workload.)

Two layers:

* **Columnar images** — ``Table.column_data()`` lazily transposes the
  row store into per-column lists, cached per table generation (any
  mutation invalidates).  Relations not backed by a table gather the
  key columns ad hoc.
* **Batch gating** — the join kernel engages only when its two inputs
  hold at least :data:`BATCH_THRESHOLD` rows together; tiny inputs stay
  on the scalar hash join, where building column views costs more than
  it saves.  The gate is a constant, not a setting: input size is the
  only thing that selects between the two rungs.

Correctness contract: :func:`join_rows` either produces exactly the
scalar hash join's rows (same order, same combined dicts) and the same
``STATS`` charges (``rows_copied``/``rows_shared``), or it declines
(returns None) and the scalar join runs.  The differential suite in
``tests/db/test_vector_equivalence.py`` pins the equivalence; the
``vector_joins``/``column_builds`` counters in
:data:`repro.db.fastpath.STATS` feed the deterministic op-count gate in
``benchmarks/test_bench_relops.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.db import fastpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.relation import Relation, Row

#: Minimum batch size before the columnar join engages.
BATCH_THRESHOLD = 64


def should_batch(n: int) -> bool:
    """Whether a batch of ``n`` rows takes the columnar join."""
    return n >= BATCH_THRESHOLD


# -- columnar images -------------------------------------------------------------


def columns_of(rows: list["Row"], names: Sequence[str]) -> list[list] | None:
    """Gather ``names`` out of row dicts as per-column lists (ad hoc)."""
    fastpath.STATS.column_builds += 1
    try:
        return [[row[name] for row in rows] for name in names]
    except KeyError:
        return None


def _resolve_columns(
    relation: "Relation", names: Sequence[str]
) -> list[Sequence[Any]] | None:
    """Column views for ``names``: the cached image of the table the
    relation is a current snapshot of, else an ad-hoc gather.

    Returns None when a name is not declared on the relation — the
    scalar path then reproduces the exact error (or, for width-shared
    rows, the guard already raised).
    """
    declared = relation.columns
    if any(name not in declared for name in names):
        return None
    table = relation._live_table()
    if table is not None:
        data = table.column_data()
        return [data[name] for name in names]
    return columns_of(relation.rows, names)


# -- the join ------------------------------------------------------------------


def join_rows(
    left: "Relation",
    right: "Relation",
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    rename: Mapping[str, str],
) -> list["Row"] | None:
    """Vectorized inner hash join: column-array index build + probe.

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
    multi = len(left_keys) > 1
    lookup = index.get
    out_rows: list[Row] = []
    append = out_rows.append
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
    return out_rows
