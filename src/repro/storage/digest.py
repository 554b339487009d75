"""Stable content digests of the landscape state.

Used by the ``repro recover`` CLI, CI smoke jobs and the byte-identity
tests: two runs converged iff their landscape digests match.  The digest
walks databases in name order, tables in name order and rows in stored
order (row order is part of the determinism contract), plus each
materialized view's population state and snapshot rows.  It reads
through :meth:`Table.dump_rows`, so digesting never perturbs the
``rows_read`` counters it is meant to certify.

A row is hashed as ``repr(sorted(row.items()))`` followed by ``\x01``;
those bytes are the digest's definition (``tests/oracle/storage.py``
spells them that way).  What is fixed per table — which keys, in which
sorted order, with which ``repr`` — is bound once per column tuple in
:func:`_row_format`, and rows reach the hasher joined, at most
:data:`CHUNK_ROWS` of them per ``update``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database


#: Rows joined into one ``update``: bounds the transient string by the
#: chunk, not by the largest table.
CHUNK_ROWS = 512


@lru_cache(maxsize=256)
def _row_format(
    columns: tuple[str, ...],
) -> tuple[Callable[[tuple], str], Callable[[dict], tuple]]:
    """``(render, cells)`` with ``render(cells(row)) ==
    repr(sorted(row.items()))`` for every row holding exactly ``columns``."""
    names = sorted(columns)
    template = ", ".join(
        "(" + repr(name).replace("%", "%%") + ", %r)" for name in names
    )
    render = f"[{template}]".__mod__
    if len(names) > 1:
        return render, itemgetter(*names)
    return render, lambda row: tuple(row[name] for name in names)


def _hash_rows(hasher: Any, columns: Sequence[str], rows: Sequence[dict]) -> None:
    render, cells = _row_format(tuple(columns))
    widths = {len(columns)}
    for start in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[start:start + CHUNK_ROWS]
        if set(map(len, chunk)) == widths:
            texts = map(render, map(cells, chunk))
        else:
            # Width-shared view snapshots hold more keys than declared:
            # such a row is rendered from the keys it holds.
            texts = []
            for row in chunk:
                render_own, cells_own = _row_format(tuple(sorted(row)))
                texts.append(render_own(cells_own(row)))
        hasher.update(("\x01".join(texts) + "\x01").encode())


def database_digest(db: "Database", include_views: bool = True) -> str:
    """Hex digest of one database's full logical content.

    ``include_views=False`` digests table content only — the comparison
    basis between a primary and its cluster replicas (a replica seeded
    from a checkpoint recomputes its views, which may make them fresher
    than the primary's).
    """
    hasher = hashlib.sha256()
    hasher.update(db.name.encode())
    for table_name in db.table_names:
        table = db.table(table_name)
        hasher.update(f"\x00t:{table_name}\x00".encode())
        _hash_rows(hasher, table.schema.column_names, table.dump_rows())
    if not include_views:
        return hasher.hexdigest()
    for view_name in db.view_names:
        view = db.materialized_view(view_name)
        hasher.update(f"\x00v:{view_name}:{int(view.is_populated)}\x00".encode())
        if view.is_populated:
            snapshot = view.snapshot
            _hash_rows(hasher, snapshot.columns, snapshot.rows)
    return hasher.hexdigest()


def landscape_digest(databases: Iterable["Database"]) -> str:
    """Hex digest over many databases, order-independent (by name)."""
    hasher = hashlib.sha256()
    for db in sorted(databases, key=lambda d: d.name):
        hasher.update(db.name.encode())
        hasher.update(database_digest(db).encode())
        hasher.update(b"\x02")
    return hasher.hexdigest()
