"""Disk-backed table partitions under a per-database memory budget.

DIPBench's core knob is the scale factor ``d``, but a fully-resident
row list hits the memory wall long before the "hundreds of sources"
regime the roadmap targets.  This module gives :class:`~repro.db.table.Table`
a real storage hierarchy:

* a :class:`PartitionStore` replaces the plain row list when a
  :class:`MemoryBudget` is attached — rows live in fixed-size *range
  partitions* (partition ``i`` holds insertion positions
  ``[i*cap, (i+1)*cap)``), each independently resident or spilled to a
  disk segment;
* the budget counts **table-resident rows** across all stores of one
  database and, once the limit is exceeded, evicts *full* partitions
  first, least recently point-accessed first, and partial ones (a write
  tail, a table smaller than one partition) only when no full one is
  left; streaming scans do not count as accesses, so a scan larger than
  the budget recycles one cold slot instead of flushing the rest
  (pinned partitions — currently being iterated — are skipped);
* spill segments are columnar: one value list per schema column,
  pickled together with the partition's **generation tag**.  A partition mutated after its last
  spill is *dirty* and rewrites its segment on the next eviction;
  reload verifies the tag so a stale segment can never silently serve
  old rows;
* partition-wise operators keep the working set bounded: selections
  run their compiled predicate partition-by-partition, group-by streams
  partitions into running accumulators, a spilled *probe* side streams
  partition-at-a-time through the ordinary hash join, and a spilled
  *build* side runs as a grace hash join — both sides bucketed to disk
  by a deterministic key hash, joined bucket-at-a-time, with the output
  re-sorted into exactly the row order the monolithic join produces.

**Byte-identity contract.**  Everything observable — relation contents
and row order, ``rows_read``/``rows_written`` charging, landscape
digests, run fingerprints — is identical to the fully-resident
baseline; only the :data:`STATS` spill counters (and wall clock) tell
the difference.  Unbudgeted tables keep using a plain ``list``; no
per-row overhead is added to resident storage.

A run's budget has one source, ``RunSpec.mem_budget`` (``--mem-budget``),
which the ``BenchmarkClient`` constructor applies to every landscape
database and to the engine's own catalog; any other database stays
unbudgeted until :meth:`~repro.db.database.Database.set_memory_budget`
is called.  Spill segments go under ``REPRO_SPILL_DIR`` (default: the
system temp directory).

Why *range* partitioning by insertion position rather than hashing row
keys: stored row order is part of the determinism contract (digests and
scans walk it), and position ranges preserve it for free.  Hash
distribution still happens where it matters — in the grace join's
bucket fan-out.

Float caveat folded into the design: per-partition *partial* SUM/AVG
merged tree-wise would change IEEE addition order.  The streaming
group-by therefore keeps no partials: it feeds rows strictly in position
order across partitions into the one accumulator every group-by uses,
so aggregates are bit-identical to the whole-table fold.
"""

from __future__ import annotations

import atexit
import numbers
import os
import pickle
import shutil
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence
from zlib import crc32

from repro.errors import StorageError

from repro.db import fastpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.relation import Relation
    from repro.db.schema import TableSchema

Row = dict[str, Any]

#: Hard bounds on the derived partition capacity (rows per partition).
MIN_PARTITION_ROWS = 16
MAX_PARTITION_ROWS = 4096
#: Grace-join bucket fan-out ceiling.
MAX_GRACE_BUCKETS = 64


# -- counters -------------------------------------------------------------------


@dataclass
class PartitionStats:
    """Deterministic spill/reload counters (wall-clock-free, like
    :class:`~repro.db.fastpath.FastpathStats` — kept separate so the
    committed vector op-count goldens never move)."""

    #: Partitions made non-resident by the eviction loop.
    evictions: int = 0
    #: Segment files written (dirty partitions re-write; clean ones reuse).
    spills: int = 0
    #: Evictions that reused an up-to-date segment without rewriting.
    segment_reuses: int = 0
    #: Spilled partitions faulted back into memory.
    reloads: int = 0
    #: Rows written to spill segments.
    rows_spilled: int = 0
    #: Rows faulted back from spill segments.
    rows_reloaded: int = 0
    #: Selections answered partition-by-partition.
    partitioned_filters: int = 0
    #: Group-bys streamed over partitions into running accumulators.
    partitioned_group_bys: int = 0
    #: Joins executed as bucketed grace hash joins.
    grace_joins: int = 0
    #: Rows spooled to disk by grace-join bucket partitioning.
    grace_rows_spilled: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __sub__(self, other: "PartitionStats") -> "PartitionStats":
        return PartitionStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def copy(self) -> "PartitionStats":
        return PartitionStats(**self.snapshot())


#: Process-global spill counters (read via ``STATS.snapshot()``).
STATS = PartitionStats()


# -- partition size ------------------------------------------------------------


def default_capacity(limit_rows: int) -> int:
    """Rows per partition for a given budget.  An eighth of the budget
    keeps several partitions co-resident so iteration doesn't thrash,
    clamped to sane bounds."""
    return max(MIN_PARTITION_ROWS, min(MAX_PARTITION_ROWS, limit_rows // 8))


# -- spill directory -----------------------------------------------------------

#: (owning pid, directory) — recreated after fork so sweep workers never
#: share (or double-delete) a spill directory.
_spill_dir: tuple[int, Path] | None = None
_store_ids = count(1)


def _spill_root() -> Path:
    global _spill_dir
    pid = os.getpid()
    if _spill_dir is None or _spill_dir[0] != pid:
        base = os.environ.get("REPRO_SPILL_DIR") or None
        if base:
            Path(base).mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="repro-spill-", dir=base))
        atexit.register(shutil.rmtree, str(root), ignore_errors=True)
        _spill_dir = (pid, root)
    return _spill_dir[1]


# -- memory budget -------------------------------------------------------------


class MemoryBudget:
    """A row-count budget shared by every partition store of one database.

    Counts *store-resident* rows (rows whose partition currently holds
    them in memory; rows additionally referenced by live relations are
    the caller's snapshots, exactly as in the unbudgeted kernel).  The
    eviction loop spills partitions until the total fits, skipping
    pinned ones; a single partition larger than the budget is allowed
    to stay resident (the floor of one working partition), which bounds
    peak residency by ``limit_rows + partition_rows``.

    The order is recency of *point* access (``store[i]``, ``store[i] =``,
    ``append``), with two corrections the row counts and access kinds
    already show.  A streaming scan touches every partition exactly
    once, so it says nothing about reuse: it leaves resident partitions
    where they are and hands a partition it had to fault in back at the
    cold end, which makes a scan larger than the budget recycle one slot
    (evicting the clean partition it just finished) instead of flushing
    every partition it is about to need.  And a partial partition — a
    write tail, or a table smaller than one partition — frees few rows
    for a whole segment write and is usually the next thing written or
    joined against, so full partitions go first and partial ones only
    when no unpinned full partition is left.
    """

    def __init__(self, limit_rows: int, partition_rows: int | None = None):
        if limit_rows < 1:
            raise StorageError(
                f"memory budget must be >= 1 row, got {limit_rows}"
            )
        if partition_rows is not None and partition_rows < 1:
            raise StorageError(
                f"partition size must be >= 1 row, got {partition_rows}"
            )
        self.limit_rows = limit_rows
        self.partition_rows = partition_rows or default_capacity(limit_rows)
        self.resident_rows = 0
        #: High-water mark of resident rows (the bench's bound check).
        self.peak_resident_rows = 0
        # Resident partitions, coldest first: (store id, partition
        # index) -> (store, index).
        self._lru: "OrderedDict[tuple[int, int], tuple[PartitionStore, int]]" = (
            OrderedDict()
        )

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(limit={self.limit_rows}, "
            f"resident={self.resident_rows}, peak={self.peak_resident_rows})"
        )

    def _touched(self, store: "PartitionStore", index: int) -> None:
        key = (store.store_id, index)
        lru = self._lru
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = (store, index)

    def _cooled(self, store: "PartitionStore", index: int) -> None:
        """A scan is done with a partition it faulted in: next out."""
        key = (store.store_id, index)
        if key in self._lru:
            self._lru.move_to_end(key, last=False)

    def _forgotten(self, store: "PartitionStore", index: int) -> None:
        self._lru.pop((store.store_id, index), None)

    def _charged(self, rows: int) -> None:
        self.resident_rows += rows
        if self.resident_rows > self.peak_resident_rows:
            self.peak_resident_rows = self.resident_rows

    def _released(self, rows: int) -> None:
        self.resident_rows -= rows

    def rebalance(self) -> None:
        """Evict until the resident total fits the limit: full
        partitions coldest first, then partial ones coldest first."""
        if self.resident_rows <= self.limit_rows:
            return
        for full in (True, False):
            for key in list(self._lru):
                entry = self._lru.get(key)
                if entry is None:
                    continue
                store, index = entry
                part = (
                    store._partitions[index]
                    if index < len(store._partitions)
                    else None
                )
                if part is None or part.rows is None:
                    self._lru.pop(key, None)
                    continue
                if part.pins or (len(part.rows) >= store.capacity) is not full:
                    continue
                store.spill_partition(index)
                if self.resident_rows <= self.limit_rows:
                    return


# -- partitions ----------------------------------------------------------------


class Partition:
    """One fixed-range slice of a store: resident rows or a disk segment."""

    __slots__ = (
        "index",
        "rows",
        "count",
        "generation",
        "spilled_generation",
        "path",
        "pins",
    )

    def __init__(self, index: int, rows: list[Row]):
        self.index = index
        #: Resident rows, or None while spilled.
        self.rows: list[Row] | None = rows
        #: Row count while spilled (``len(rows)`` while resident).
        self.count = len(rows)
        #: Bumped on every content change; the spill segment records the
        #: generation it captured, so a dirty partition rewrites its
        #: segment and a stale segment is detected at reload.
        self.generation = 0
        self.spilled_generation: int | None = None
        self.path: Path | None = None
        #: Non-zero while an iterator or kernel walks this partition —
        #: the eviction loop skips pinned partitions.
        self.pins = 0

    def n_rows(self) -> int:
        return len(self.rows) if self.rows is not None else self.count

    def mutated(self) -> None:
        self.generation += 1


class PartitionStore:
    """Positional row storage over spillable partitions.

    Implements exactly the slice of the ``list`` protocol
    :class:`~repro.db.table.Table` uses (``len``/``iter``/int indexing/
    ``append``/``__setitem__``/``clear``) plus bulk ``replace_all`` and
    snapshot :meth:`view`, so it drops in behind ``Table._rows`` without
    touching the DML/read methods' logic.
    """

    __slots__ = (
        "schema",
        "budget",
        "capacity",
        "store_id",
        "_partitions",
        "_length",
        "_spilled",
        "_spilled_rows",
        "_views",
        "reloads",
        "spills",
        "segment_reuses",
    )

    def __init__(
        self,
        schema: "TableSchema",
        budget: MemoryBudget,
        rows: list[Row] | None = None,
    ):
        self.schema = schema
        self.budget = budget
        self.capacity = budget.partition_rows
        self.store_id = next(_store_ids)
        self._partitions: list[Partition] = []
        self._length = 0
        #: Partitions (and the rows in them) currently on disk only.
        self._spilled = 0
        self._spilled_rows = 0
        #: This store's share of ``STATS.reloads`` / ``spills`` /
        #: ``segment_reuses`` — which table thrashes (``repro profile``).
        self.reloads = 0
        self.spills = 0
        self.segment_reuses = 0
        #: Live snapshots that must be materialized before any
        #: destructive mutation (copy-on-write; see :class:`PartitionView`).
        self._views: "weakref.WeakSet[PartitionView]" = weakref.WeakSet()
        if rows:
            self._bulk_load(rows)

    def __repr__(self) -> str:
        return (
            f"PartitionStore({self.schema.name}, rows={self._length}, "
            f"partitions={len(self._partitions)}, "
            f"resident={self.resident_rows})"
        )

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    @property
    def resident_rows(self) -> int:
        return self._length - self._spilled_rows

    @property
    def spilled_partitions(self) -> int:
        return self._spilled

    def has_spilled(self) -> bool:
        return self._spilled > 0

    # -- list protocol ---------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        # Positional iteration with list-iterator semantics: rows
        # appended mid-iteration are seen, exactly like ``iter(list)``.
        # The current partition is pinned so eviction pressure from
        # other tables can't pull it out from under the loop.
        position = 0
        capacity = self.capacity
        while position < self._length:
            index = position // capacity
            part, faulted = self._scan_pin(index)
            try:
                rows = part.rows
                offset = position - index * capacity
                while offset < len(rows):
                    yield rows[offset]
                    offset += 1
                    position += 1
            finally:
                self._scan_unpin(part, faulted)

    def __getitem__(self, position: int) -> Row:
        if not isinstance(position, int):
            raise TypeError(
                f"partition store indices must be int, not {type(position).__name__}"
            )
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError("partition store index out of range")
        part = self._ensure_resident(position // self.capacity)
        return part.rows[position - part.index * self.capacity]

    def __setitem__(self, position: int, row: Row) -> None:
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError("partition store assignment index out of range")
        # Snapshots took the pre-mutation image: freeze them first.
        self._preserve_views()
        part = self._ensure_resident(position // self.capacity)
        part.rows[position - part.index * self.capacity] = row
        part.mutated()

    def append(self, row: Row) -> None:
        # The write path's per-row call: everything a resident tail
        # with room needs is inline (touch, mutate, charge), and the
        # eviction loop is entered only once the limit is exceeded.
        parts = self._partitions
        budget = self.budget
        part = parts[-1] if parts else None
        rows = part.rows if part is not None else None
        if rows is not None and len(rows) < self.capacity:
            budget._lru.move_to_end((self.store_id, part.index))
        elif part is None or part.n_rows() >= self.capacity:
            part = Partition(len(parts), [])
            parts.append(part)
            budget._touched(self, part.index)
        else:
            self._reload(part)
        part.rows.append(row)
        part.generation += 1
        self._length += 1
        budget.resident_rows = resident = budget.resident_rows + 1
        if resident > budget.peak_resident_rows:
            budget.peak_resident_rows = resident
        if resident > budget.limit_rows:
            budget.rebalance()

    def clear(self) -> None:
        self.replace_all([])

    def replace_all(self, rows: list[Row]) -> None:
        """Wholesale rebuild (bulk delete / truncate / snapshot restore)."""
        self._preserve_views()
        self._drop_partitions()
        self._bulk_load(rows)

    # -- residency machinery ---------------------------------------------------

    def _bulk_load(self, rows: list[Row]) -> None:
        capacity = self.capacity
        for start in range(0, len(rows), capacity):
            chunk = list(rows[start : start + capacity])
            part = Partition(len(self._partitions), chunk)
            self._partitions.append(part)
            self._length += len(chunk)
            self.budget._charged(len(chunk))
            self.budget._touched(self, part.index)
            # Rebalancing per chunk keeps bulk loads out-of-core too:
            # loading a 10x-budget snapshot spills as it streams in.
            self.budget.rebalance()

    def _drop_partitions(self) -> None:
        for part in self._partitions:
            if part.rows is not None:
                self.budget._released(len(part.rows))
            self.budget._forgotten(self, part.index)
            if part.path is not None:
                part.path.unlink(missing_ok=True)
        self._partitions = []
        self._length = 0
        self._spilled = 0
        self._spilled_rows = 0

    def _ensure_resident(self, index: int) -> Partition:
        part = self._partitions[index]
        if part.rows is None:
            self._reload(part)
        else:
            self.budget._touched(self, index)
        return part

    def _scan_pin(self, index: int) -> tuple[Partition, bool]:
        """Pin partition ``index`` for a streaming scan.

        Unlike :meth:`_ensure_resident` this is not an access the
        eviction order learns from: a resident partition keeps its
        place, and the flag says the scan had to fault this one in, so
        :meth:`_scan_unpin` hands it back as the next to go.
        """
        part = self._partitions[index]
        faulted = part.rows is None
        if faulted:
            self._reload(part)
        part.pins += 1
        return part, faulted

    def _scan_unpin(self, part: Partition, faulted: bool) -> None:
        part.pins -= 1
        if faulted:
            self.budget._cooled(self, part.index)

    def _reload(self, part: Partition) -> None:
        with open(part.path, "rb") as fh:
            generation, row_count, columns = pickle.load(fh)
        if generation != part.spilled_generation:
            raise StorageError(
                f"stale spill segment for {self.schema.name} partition "
                f"{part.index}: segment generation {generation}, "
                f"expected {part.spilled_generation}"
            )
        if row_count:
            names = self.schema.column_names
            part.rows = [dict(zip(names, values)) for values in zip(*columns)]
        else:
            part.rows = []
        STATS.reloads += 1
        STATS.rows_reloaded += row_count
        self.reloads += 1
        self._spilled -= 1
        self._spilled_rows -= row_count
        self.budget._charged(row_count)
        self.budget._touched(self, part.index)
        # Pin while rebalancing: with a partition bigger than the whole
        # budget, the loop must evict *others*, never the one just
        # faulted in for the caller.
        part.pins += 1
        try:
            self.budget.rebalance()
        finally:
            part.pins -= 1

    def spill_partition(self, index: int) -> None:
        """Evict one resident partition (writes the segment if dirty)."""
        part = self._partitions[index]
        if part.rows is None or part.pins:
            raise StorageError(
                f"cannot spill {self.schema.name} partition {index}: "
                + ("not resident" if part.rows is None else "pinned")
            )
        row_count = len(part.rows)
        if part.path is None or part.spilled_generation != part.generation:
            self._write_segment(part)
            STATS.spills += 1
            STATS.rows_spilled += row_count
            self.spills += 1
        else:
            STATS.segment_reuses += 1
            self.segment_reuses += 1
        part.count = row_count
        part.rows = None
        self._spilled += 1
        self._spilled_rows += row_count
        STATS.evictions += 1
        self.budget._released(row_count)
        self.budget._forgotten(self, index)

    def _write_segment(self, part: Partition) -> None:
        if part.path is None:
            part.path = _spill_root() / f"s{self.store_id}p{part.index}.seg"
        names = self.schema.column_names
        rows = part.rows
        gathered: dict[str, list] = {name: [] for name in names}
        for row in rows:
            for name in names:
                gathered[name].append(row[name])
        columns = [gathered[name] for name in names]
        payload = (part.generation, len(rows), columns)
        with open(part.path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        part.spilled_generation = part.generation

    # -- snapshots -------------------------------------------------------------

    def view(self) -> "PartitionView":
        snapshot = PartitionView(self)
        self._views.add(snapshot)
        return snapshot

    def _preserve_views(self) -> None:
        """Copy-on-write: freeze live snapshots before destructive ops.

        Appends never call this — a view's captured length already
        bounds it — so the common insert path stays preservation-free.
        """
        for snapshot in list(self._views):
            snapshot._materialize()
        # Materialized views no longer read through the store.
        self._views = weakref.WeakSet()

    def iter_partition_rows(
        self, limit: int | None = None
    ) -> Iterator[tuple[Partition, list[Row]]]:
        """Stream ``(partition, rows)`` pairs, pinned while yielded.

        ``limit`` clips the stream to the first ``limit`` rows (snapshot
        bounds); a clipped tail partition yields a fresh sublist, which
        callers can distinguish by ``rows is not partition.rows``.
        """
        yielded = 0
        index = 0
        while index < len(self._partitions):
            if limit is not None and yielded >= limit:
                return
            part, faulted = self._scan_pin(index)
            try:
                rows = part.rows
                if limit is not None and yielded + len(rows) > limit:
                    yield part, rows[: limit - yielded]
                    return
                yield part, rows
                yielded += len(rows)
            finally:
                self._scan_unpin(part, faulted)
            index += 1

    def detach(self) -> list[Row]:
        """Materialize everything and dismantle the store (budget off)."""
        self._preserve_views()
        rows = list(self)
        self._drop_partitions()
        return rows


class PartitionView:
    """A lazy, immutable snapshot of a store at a point in time.

    Stands in for the ``list(self._rows)`` snapshot ``Table.to_relation``
    takes of a plain list: same contents, same ``Sequence`` surface,
    but partitions stay spillable until (a) an operator materializes the
    view by iterating it, or (b) the store is about to mutate
    destructively and freezes the snapshot first (copy-on-write via
    ``PartitionStore._preserve_views``).
    """

    __slots__ = ("_store", "_length", "_rows", "__weakref__")

    def __init__(self, store: PartitionStore):
        self._store = store
        self._length = len(store)
        #: Materialized row list once frozen; None while reading through.
        self._rows: list[Row] | None = None

    def _materialize(self) -> list[Row]:
        if self._rows is None:
            rows: list[Row] = []
            for _, chunk in self._store.iter_partition_rows(self._length):
                rows.extend(chunk)
            self._rows = rows
        return self._rows

    @property
    def store(self) -> PartitionStore:
        return self._store

    @property
    def materialized(self) -> bool:
        return self._rows is not None

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        if self._rows is not None:
            return iter(self._rows)
        return self._iter_streaming()

    def _iter_streaming(self) -> Iterator[Row]:
        for _, chunk in self._store.iter_partition_rows(self._length):
            yield from chunk

    def __getitem__(self, item: int | slice) -> Row | list[Row]:
        if isinstance(item, slice):
            return self._materialize()[item]
        if self._rows is not None:
            return self._rows[item]
        if item < 0:
            item += self._length
        if not 0 <= item < self._length:
            raise IndexError("snapshot index out of range")
        return self._store[item]

    def __add__(self, other: Any) -> list[Row]:
        if isinstance(other, (list, PartitionView)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other: Any) -> list[Row]:
        if isinstance(other, (list, PartitionView)):
            return list(other) + list(self)
        return NotImplemented

    def __repr__(self) -> str:
        state = "materialized" if self._rows is not None else "streaming"
        return f"PartitionView({self._store.schema.name}, {self._length} rows, {state})"


# -- kernel hooks --------------------------------------------------------------


def spilled_view(rows: Any) -> PartitionView | None:
    """``rows`` as a still-streaming view over a store with spilled
    partitions — the signal for a partition-wise operator to engage."""
    if (
        isinstance(rows, PartitionView)
        and not rows.materialized
        and rows.store.has_spilled()
    ):
        return rows
    return None


def partitioned_filter(
    store: PartitionStore, fn: Callable[[Row], Any], limit: int | None = None
) -> list[Row]:
    """Partition-wise selection (the spilled ``Relation.select`` and a
    budgeted ``Table.scan``): the compiled predicate ``fn`` runs over
    one pinned partition at a time, so only that partition need be
    resident; the survivors keep position order, ``limit`` clips the
    store to a snapshot's first rows.
    """
    out: list[Row] = []
    for _, rows in store.iter_partition_rows(limit):
        out += [row for row in rows if fn(row) is True]
    STATS.partitioned_filters += 1
    return out


def partitioned_group(view: PartitionView, accumulator: Any) -> None:
    """Stream a spilled snapshot into a group-by accumulator (the
    spilled ``Relation.group_by``).

    Iterating a streaming view pins one partition at a time, so only
    that partition need be resident; rows reach ``accumulator.add`` in
    position order, which keeps every fold — float sums included —
    bit-identical to the pass over a resident list.
    """
    for row in view:
        accumulator.add(row)
    STATS.partitioned_group_bys += 1


def maybe_grace_join(
    left: "Relation",
    right: "Relation",
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    rename: Mapping[str, str],
) -> list[Row] | None:
    """Grace inner hash join when the build (right) side is a spilled table
    snapshot — the one input a hash join must hold whole.

    Returns the joined rows (exactly the monolithic hash join's output
    order) or None when the right rows are already in memory — the
    caller then builds its ordinary index over them and streams the
    left side through the probe loop, spilled or not.
    """
    right_view = spilled_view(right.rows)
    if right_view is None:
        return None
    capacity = right_view.store.capacity
    largest = max(len(left.rows), len(right.rows))
    buckets = max(1, min(MAX_GRACE_BUCKETS, -(-largest // max(1, capacity))))

    fastpath.STATS.hash_joins += 1
    STATS.grace_joins += 1

    rename_items = list(rename.items())
    narrow = left._wide
    left_columns = left.columns

    # (left position, right position, combined row): the final position
    # sort reproduces the monolithic join's emission order exactly.
    out: list[tuple[int, int, Row]] = []

    left_spool = _BucketSpool(buckets, capacity)
    right_spool = _BucketSpool(buckets, capacity)
    try:
        for position, row in enumerate(right.rows):
            key = tuple(row[k] for k in right_keys)
            if any(part is None for part in key):
                continue  # NULL never joins
            right_spool.add(_bucket_of(key, buckets), (position, key, row))
        for position, row in enumerate(left.rows):
            key = tuple(row[k] for k in left_keys)
            if any(part is None for part in key):
                continue
            left_spool.add(_bucket_of(key, buckets), (position, key, row))

        for bucket in range(buckets):
            index: dict[tuple, list[tuple[int, Row]]] = {}
            for position, key, row in right_spool.read(bucket):
                index.setdefault(key, []).append((position, row))
            for position, key, row in left_spool.read(bucket):
                matches = index.get(key)
                if matches:
                    base = (
                        {name: row[name] for name in left_columns}
                        if narrow
                        else row
                    )
                    for right_position, match in matches:
                        combined = dict(base)
                        for in_name, out_name in rename_items:
                            combined[out_name] = match[in_name]
                        out.append((position, right_position, combined))
    finally:
        left_spool.close()
        right_spool.close()

    out.sort(key=_join_order)
    return [combined for _, _, combined in out]


def _join_order(entry: tuple[int, int, Row]) -> tuple[int, int]:
    return entry[0], entry[1]


def _bucket_part(part: Any) -> bytes:
    """A deterministic, equality-respecting byte key for one key part.

    Python's ``hash`` is salted for str/bytes (PYTHONHASHSEED) but
    stable for numbers — and equal numerics of different types
    (``1 == 1.0 == Decimal(1)``) share a hash, which is exactly the
    equality the join's dict probe uses.  Strings hash by content via
    crc32; everything else falls back to ``repr`` (dates, tuples),
    which is deterministic for the value types the kernel stores.
    """
    if part is None:
        return b"\x00"
    if isinstance(part, str):
        return b"s" + part.encode("utf-8", "surrogatepass")
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, numbers.Number):  # int/float/bool/Decimal share
        return b"n%d" % hash(part)  # a hash when equal, and it's unsalted
    return b"o" + repr(part).encode()  # dates etc.: deterministic repr


def _bucket_of(key: tuple, buckets: int) -> int:
    if buckets == 1:
        return 0
    return crc32(b"\x1f".join(_bucket_part(part) for part in key)) % buckets


class _BucketSpool:
    """Disk-backed bucket partitioning for the grace join.

    Entries buffer in memory up to one partition's worth per bucket,
    then spill as pickled chunks to a temp file; :meth:`read` replays
    file chunks then the in-memory tail, preserving insertion order (and
    therefore row-position order within each bucket).
    """

    def __init__(self, buckets: int, chunk_rows: int):
        self.chunk_rows = max(1, chunk_rows)
        self._buffers: list[list] = [[] for _ in range(buckets)]
        self._files: list[Any] = [None] * buckets

    def add(self, bucket: int, entry: tuple) -> None:
        buffer = self._buffers[bucket]
        buffer.append(entry)
        if len(buffer) >= self.chunk_rows:
            self._flush(bucket)

    def _flush(self, bucket: int) -> None:
        buffer = self._buffers[bucket]
        if not buffer:
            return
        fh = self._files[bucket]
        if fh is None:
            fh = tempfile.TemporaryFile(dir=_spill_root(), prefix="grace-")
            self._files[bucket] = fh
        pickle.dump(buffer, fh, protocol=pickle.HIGHEST_PROTOCOL)
        STATS.grace_rows_spilled += len(buffer)
        self._buffers[bucket] = []

    def read(self, bucket: int) -> Iterator[tuple]:
        fh = self._files[bucket]
        if fh is not None:
            fh.seek(0)
            while True:
                try:
                    chunk = pickle.load(fh)
                except EOFError:
                    break
                yield from chunk
        yield from self._buffers[bucket]

    def close(self) -> None:
        for fh in self._files:
            if fh is not None:
                fh.close()
        self._files = [None] * len(self._files)
        self._buffers = [[] for _ in self._buffers]
