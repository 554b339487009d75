"""Unit tests for :mod:`repro.db.partition` storage primitives.

Covers the list-protocol drop-in contract of :class:`PartitionStore`,
residency bounds and the eviction order of a :class:`MemoryBudget`
(scan-resistant, full partitions first), dirty-vs-clean re-spill
behaviour (segment reuse), generation-stale segment detection,
copy-on-write snapshot semantics of :class:`PartitionView`, the
column-cache coherence regression (a spill/reload cycle must never
serve a stale columnar image), and a Hypothesis model test of the whole
store against the pre-inlining ``append`` body.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema, partition
from repro.db.partition import (
    MemoryBudget,
    Partition,
    PartitionStore,
    budget_rows_from_env,
    default_capacity,
)
from repro.errors import StorageError


def schema():
    return TableSchema(
        "t",
        [
            Column("id", "BIGINT", nullable=False),
            Column("v", "VARCHAR"),
            Column("w", "DOUBLE"),
        ],
        primary_key=("id",),
    )


def rows(n, start=0):
    return [
        {"id": i, "v": f"v{i % 7}", "w": float(i) / 2} for i in range(start, start + n)
    ]


def make_store(n=100, limit=40, capacity=10):
    budget = MemoryBudget(limit, partition_rows=capacity)
    return PartitionStore(schema(), budget, rows(n)), budget


class TestBudgetKnobs:
    def test_env_budget_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEM_BUDGET", raising=False)
        assert budget_rows_from_env() is None
        monkeypatch.setenv("REPRO_MEM_BUDGET", "5000")
        assert budget_rows_from_env() == 5000
        monkeypatch.setenv("REPRO_MEM_BUDGET", "0")
        assert budget_rows_from_env() is None
        monkeypatch.setenv("REPRO_MEM_BUDGET", "lots")
        with pytest.raises(StorageError):
            budget_rows_from_env()

    def test_default_capacity_clamps(self):
        assert default_capacity(10) == partition.MIN_PARTITION_ROWS
        assert default_capacity(800) == 100
        assert default_capacity(10**9) == partition.MAX_PARTITION_ROWS

    def test_budget_validation(self):
        with pytest.raises(StorageError):
            MemoryBudget(0)
        with pytest.raises(StorageError):
            MemoryBudget(100, partition_rows=0)


class TestListProtocol:
    def test_equivalence_with_plain_list(self):
        store, _ = make_store()
        reference = rows(100)
        assert len(store) == 100
        assert list(store) == reference
        assert store[0] == reference[0]
        assert store[57] == reference[57]
        assert store[-1] == reference[-1]
        with pytest.raises(IndexError):
            store[100]

    def test_setitem_and_append(self):
        store, _ = make_store(n=25, limit=10, capacity=5)
        store[3] = {"id": 999, "v": "patched", "w": 0.0}
        assert store[3]["id"] == 999
        store.append({"id": 25, "v": "new", "w": 1.0})
        assert len(store) == 26
        assert store[25]["v"] == "new"
        # The tail partition keeps filling before a new one is opened.
        assert store.partition_count == 6

    def test_clear_and_replace_all(self):
        store, budget = make_store(n=30, limit=10, capacity=5)
        store.replace_all(rows(8, start=100))
        assert list(store) == rows(8, start=100)
        store.clear()
        assert len(store) == 0
        assert store.partition_count == 0
        assert budget.resident_rows == 0

    def test_uniform_capacity_invariant(self):
        store, _ = make_store(n=47, limit=1000, capacity=10)
        counts = [p.n_rows() for p in store._partitions]
        assert counts == [10, 10, 10, 10, 7]


class TestResidency:
    def test_lru_bounds_resident_rows(self):
        store, budget = make_store(n=100, limit=40, capacity=10)
        assert budget.resident_rows <= 40
        assert store.spilled_partitions >= 6
        # Full scans stream partition-at-a-time; the bound holds with
        # one partition of slack for the pinned working partition.
        list(store)
        assert budget.peak_resident_rows <= 40 + 10

    def test_reload_round_trips_rows(self):
        store, _ = make_store(n=60, limit=20, capacity=10)
        assert store.has_spilled()
        assert list(store) == rows(60)

    def test_oversized_partition_stays_resident(self):
        # A single partition larger than the whole budget must load
        # anyway (evicting everything else), never evict itself.
        budget = MemoryBudget(8, partition_rows=16)
        store = PartitionStore(schema(), budget, rows(48))
        assert store[40] == rows(48)[40]
        assert budget.resident_rows == 16

    def test_clean_respill_reuses_segment(self):
        store, _ = make_store(n=40, limit=20, capacity=10)
        base = partition.STATS.copy()
        # Touch an evicted partition (reload), then force it back out
        # untouched: the segment is clean and must not be rewritten.
        store[0]
        resident = next(
            p.index for p in store._partitions if p.rows is not None
        )
        store.spill_partition(resident)
        delta = partition.STATS - base
        assert delta.segment_reuses >= 1

    def test_dirty_respill_rewrites_segment(self):
        store, _ = make_store(n=40, limit=20, capacity=10)
        store[0] = {"id": -1, "v": "dirty", "w": 0.0}
        base = partition.STATS.copy()
        store.spill_partition(0)
        delta = partition.STATS - base
        assert delta.spills == 1 and delta.segment_reuses == 0
        assert store[0]["v"] == "dirty"

    def test_spill_errors(self):
        store, _ = make_store(n=40, limit=20, capacity=10)
        spilled = next(
            p.index for p in store._partitions if p.rows is None
        )
        with pytest.raises(StorageError):
            store.spill_partition(spilled)

    def test_stale_segment_detected_at_reload(self):
        store, _ = make_store(n=40, limit=20, capacity=10)
        part = next(p for p in store._partitions if p.rows is None)
        # Tamper: rewrite the segment claiming a different generation,
        # as if a stale image survived a missed rewrite.
        payload = pickle.loads(part.path.read_bytes())
        part.path.write_bytes(
            pickle.dumps((payload[0] + 1, payload[1], payload[2]))
        )
        with pytest.raises(StorageError, match="stale"):
            store[part.index * store.capacity]

    def test_detach_returns_plain_rows(self):
        store, budget = make_store(n=50, limit=20, capacity=10)
        plain = store.detach()
        assert plain == rows(50)
        assert isinstance(plain, list)
        assert budget.resident_rows == 0


def resident(store):
    return [p.index for p in store._partitions if p.rows is not None]


class TestEvictionOrder:
    @pytest.mark.parametrize(
        "scan",
        [list, lambda store: list(store.view())],
        ids=["iter", "view"],
    )
    def test_cyclic_scan_recycles_one_slot(self, scan):
        """Seven full partitions under a budget of five: once warm, a
        full scan faults at most three partitions and writes nothing.

        A scan does not promote what it finds resident and hands what it
        faulted in back at the cold end, so the next fault evicts the
        clean partition just read — a segment reuse — instead of one the
        scan is about to need.  (Under plain LRU, as at the parent
        commit, the same loop is sequential flooding: all 7 partitions
        reload on every scan.)
        """
        store, budget = make_store(n=70, limit=50, capacity=10)
        assert scan(store) == rows(70)  # warm-up
        for _ in range(3):
            base = partition.STATS.copy()
            assert scan(store) == rows(70)
            delta = partition.STATS - base
            assert delta.reloads <= 3
            assert delta.spills == 0
            assert delta.segment_reuses == delta.evictions == delta.reloads
        assert budget.peak_resident_rows <= 50 + 10

    def test_point_access_still_promotes(self):
        store, _ = make_store(n=50, limit=50, capacity=10)
        store[0]  # partition 0 is now the most recently used
        store.budget.limit_rows = 40
        store.budget.rebalance()
        assert resident(store) == [0, 2, 3, 4]

    def test_partials_outlive_full_partitions(self):
        budget = MemoryBudget(40, partition_rows=10)
        small = PartitionStore(schema(), budget, rows(3))
        big = PartitionStore(schema(), budget, rows(35, start=100))
        assert budget.resident_rows == 38
        # Fill the write tail past the limit: the coldest entries are
        # the 3-row table and (older than the tail's appends) the full
        # partitions — the full ones go, both partials stay.
        for row in rows(5, start=135):
            big.append(row)
        assert resident(small) == [0]
        assert resident(big) == [1, 2, 3]
        big.append(rows(1, start=140)[0])  # opens a new, partial tail
        for index in (0, 1, 2):  # keep faulting full partitions in
            assert big[index * 10]["id"] == 100 + index * 10
            assert resident(small) == [0]
            assert 4 in resident(big)
        assert budget.peak_resident_rows <= 40 + 10

    def test_partials_go_once_only_partials_remain(self):
        budget = MemoryBudget(10, partition_rows=10)
        stores = [
            PartitionStore(schema(), budget, rows(3, start=10 * i))
            for i in range(5)
        ]
        # 15 rows of partial partitions under a limit of 10: coldest first.
        assert [s.has_spilled() for s in stores] == [
            True, True, False, False, False,
        ]
        assert budget.resident_rows == 9
        assert budget.peak_resident_rows <= 10 + 10

    def test_pinned_partition_is_never_evicted(self):
        store, budget = make_store(n=60, limit=20, capacity=10)
        scan = iter(store)
        assert next(scan) == rows(60)[0]  # partition 0 pinned mid-scan
        for position in (15, 25, 35, 45, 55, 15, 25):
            store[position]
            assert 0 in resident(store)
            assert budget.resident_rows <= 20 + 10
        scan.close()
        store[35], store[45]
        assert 0 not in resident(store)
        assert budget.peak_resident_rows <= 20 + 10

    def test_per_store_fault_counters_sum_to_stats(self):
        base = partition.STATS.copy()
        budget = MemoryBudget(20, partition_rows=10)
        a = PartitionStore(schema(), budget, rows(30))
        b = PartitionStore(schema(), budget, rows(30, start=30))
        list(a), list(b), a[0], b[0]
        delta = partition.STATS - base
        assert a.reloads + b.reloads == delta.reloads > 0
        assert a.spills + b.spills == delta.spills > 0
        assert a.segment_reuses + b.segment_reuses == delta.segment_reuses > 0


class SeedAppendStore(PartitionStore):
    """The model's store: ``append`` as it stood before it was inlined
    into one body (six calls a row), everything else inherited."""

    __slots__ = ()

    def append(self, row):
        parts = self._partitions
        if parts and parts[-1].n_rows() < self.capacity:
            part = self._ensure_resident(len(parts) - 1)
        else:
            part = Partition(len(parts), [])
            parts.append(part)
            self.budget._touched(self, part.index)
        part.rows.append(row)
        part.mutated()
        self._length += 1
        self.budget._charged(1)
        self.budget.rebalance()


#: One step of the model test: (operation, position as a fraction of the
#: current length, row id / row count).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["append", "append", "append", "set", "get", "scan", "clipped",
             "replace_all", "view"]
        ),
        st.floats(min_value=0, max_value=1, exclude_max=True),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=40,
)


class TestStoreAgainstModel:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 30), st.integers(4, 16), STEPS)
    def test_random_sequences_match_the_model(self, initial, limit, steps):
        """Any interleaving of appends, point reads and writes, full and
        clipped scans, rebuilds and snapshots leaves the store exactly
        where the model is, and both where a plain list would be."""
        stores = [
            cls(schema(), MemoryBudget(limit, partition_rows=4), rows(initial))
            for cls in (PartitionStore, SeedAppendStore)
        ]
        plain = rows(initial)
        snapshots = []  # (views of both stores, the list they froze)
        for op, fraction, n in steps:
            position = int(fraction * len(plain))
            row = {"id": 1000 + n, "v": f"n{n}", "w": None}
            if op == "append":
                plain.append(row)
                for store in stores:
                    store.append(row)
            elif op == "set" and plain:
                plain[position] = row
                for store in stores:
                    store[position] = row
            elif op == "get" and plain:
                for store in stores:
                    assert store[position] == plain[position]
            elif op == "scan":
                for store in stores:
                    assert list(store) == plain
            elif op == "clipped":
                for store in stores:
                    chunks = store.iter_partition_rows(position)
                    got = [row for _, chunk in chunks for row in chunk]
                    assert got == plain[:position]
            elif op == "replace_all":
                plain = rows(n, start=2000)
                for store in stores:
                    store.replace_all(list(plain))
            elif op == "view":
                snapshots.append(([s.view() for s in stores], list(plain)))

            real, model = stores
            assert len(real) == len(model) == len(plain)
            for store in stores:
                parts = store._partitions
                assert store.spilled_partitions == sum(
                    p.rows is None for p in parts
                )
                assert store.has_spilled() == any(p.rows is None for p in parts)
                assert store.resident_rows == store.budget.resident_rows == sum(
                    len(p.rows) for p in parts if p.rows is not None
                )
                budget = store.budget
                assert budget.peak_resident_rows <= limit + 4
                # A spilled partition's segment is the generation it
                # holds, so the reload below can only serve current rows.
                assert all(
                    p.spilled_generation == p.generation
                    for p in parts
                    if p.rows is None
                )
            assert [p.generation for p in real._partitions] == [
                p.generation for p in model._partitions
            ]
            assert resident(real) == resident(model)
            assert real.budget.resident_rows == model.budget.resident_rows
            assert (
                real.budget.peak_resident_rows
                == model.budget.peak_resident_rows
            )
        for views, frozen in snapshots:
            for view in views:
                assert list(view) == frozen
        for store in stores:
            assert list(store) == plain


class TestViews:
    def test_view_is_lazy_then_consistent(self):
        store, _ = make_store(n=60, limit=20, capacity=10)
        view = store.view()
        assert not view.materialized
        assert len(view) == 60
        assert view[5] == rows(60)[5]
        assert view[10:13] == rows(60)[10:13]
        assert list(view) == rows(60)

    def test_view_survives_destructive_mutation(self):
        store, _ = make_store(n=30, limit=100, capacity=10)
        view = store.view()
        store.replace_all(rows(5, start=500))
        # Copy-on-write froze the snapshot at mutation time.
        assert list(view) == rows(30)
        assert view.materialized

    def test_view_excludes_later_appends(self):
        store, _ = make_store(n=30, limit=100, capacity=10)
        view = store.view()
        store.append({"id": 30, "v": "late", "w": 0.0})
        assert len(view) == 30
        assert list(view) == rows(30)

    def test_view_concatenation(self):
        store, _ = make_store(n=10, limit=100, capacity=5)
        view = store.view()
        extra = [{"id": 99, "v": "x", "w": 0.0}]
        assert view + extra == rows(10) + extra
        assert extra + view == extra + rows(10)


class TestColumnCacheCoherence:
    """Satellite regression: spilled storage never serves stale columns."""

    def _db(self, budget=24):
        db = Database("cachetest")
        db.set_memory_budget(budget, partition_rows=8)
        table = db.create_table(schema())
        table.insert_many(rows(64))
        return db, table

    def test_column_data_tracks_updates_across_spill(self):
        _, table = self._db()
        before = list(table.column_data()["v"])
        table.update({"v": "mutant"}, lambda r: r["id"] == 3)
        after = table.column_data()["v"]
        assert before[3] != "mutant"
        assert after[3] == "mutant"
        # Force residency churn, then re-read: still the fresh image.
        _ = table.get((63,))
        assert table.column_data()["v"][3] == "mutant"

    def test_partition_slices_keyed_by_generation(self):
        store, _ = make_store(n=20, limit=100, capacity=10)
        part = store._partitions[0]
        first = part.column_slices(("v",))
        assert part.column_slices(("v",)) is not None
        part.rows[0]["v"] = "changed"
        part.mutated()
        second = part.column_slices(("v",))
        assert list(second[0])[0] == "changed"
        assert first is not second

    def test_budget_attach_detach_round_trip(self):
        db, table = self._db()
        assert table.partition_store is not None
        db.set_memory_budget(None)
        assert table.partition_store is None
        assert [r["id"] for r in table.scan()] == list(range(64))
        db.set_memory_budget(16, partition_rows=8)
        assert table.partition_store is not None
        assert [r["id"] for r in table.scan()] == list(range(64))
