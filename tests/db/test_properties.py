"""Property-based tests on the relational algebra (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expressions import col, lit
from repro.db.relation import Relation

#: Small row strategy over a fixed two-column schema.
rows_strategy = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(min_value=0, max_value=20),
         "v": st.sampled_from(["a", "b", "c"])}
    ),
    max_size=30,
)


def make(rows):
    return Relation(("k", "v"), rows)


class TestSelectionProperties:
    @given(rows_strategy, st.integers(min_value=0, max_value=20))
    def test_selection_never_grows(self, rows, threshold):
        r = make(rows)
        assert len(r.select(col("k") > lit(threshold))) <= len(r)

    @given(rows_strategy, st.integers(min_value=0, max_value=20))
    def test_selection_partition(self, rows, threshold):
        """select(p) + select(not p) partitions the bag (no NULLs here)."""
        r = make(rows)
        hits = r.select(col("k") > lit(threshold))
        misses = r.select(~(col("k") > lit(threshold)))
        assert len(hits) + len(misses) == len(r)

    @given(rows_strategy, st.integers(min_value=0, max_value=20))
    def test_selection_idempotent(self, rows, threshold):
        r = make(rows)
        once = r.select(col("k") > lit(threshold))
        twice = once.select(col("k") > lit(threshold))
        assert once.rows == twice.rows


class TestDistinctProperties:
    @given(rows_strategy)
    def test_distinct_idempotent(self, rows):
        r = make(rows).distinct()
        assert r.rows == r.distinct().rows

    @given(rows_strategy)
    def test_keyed_distinct_has_unique_keys(self, rows):
        r = make(rows).distinct(("k",))
        keys = [row["k"] for row in r]
        assert len(keys) == len(set(keys))

    @given(rows_strategy)
    def test_keyed_distinct_keeps_first_occurrence(self, rows):
        r = make(rows)
        deduped = r.distinct(("k",))
        first_by_key = {}
        for row in rows:
            first_by_key.setdefault(row["k"], row["v"])
        for row in deduped:
            assert row["v"] == first_by_key[row["k"]]


class TestUnionProperties:
    @given(rows_strategy, rows_strategy)
    def test_union_all_length(self, a, b):
        assert len(make(a).union_all(make(b))) == len(a) + len(b)

    @given(rows_strategy, rows_strategy)
    def test_union_distinct_bounded(self, a, b):
        merged = make(a).union_distinct(make(b), ("k",))
        distinct_keys = {row["k"] for row in a} | {row["k"] for row in b}
        assert len(merged) == len(distinct_keys)

    @given(rows_strategy, rows_strategy)
    def test_union_distinct_key_set_is_commutative(self, a, b):
        ab = make(a).union_distinct(make(b), ("k",))
        ba = make(b).union_distinct(make(a), ("k",))
        assert {r["k"] for r in ab} == {r["k"] for r in ba}


class TestJoinProperties:
    @given(rows_strategy, rows_strategy)
    @settings(max_examples=50)
    def test_inner_join_size_matches_key_products(self, a, b):
        left = make(a)
        right = Relation(
            ("k", "w"), [{"k": row["k"], "w": row["v"]} for row in b]
        )
        joined = left.join(right, on=[("k", "k")])
        from collections import Counter

        left_counts = Counter(row["k"] for row in a)
        right_counts = Counter(row["k"] for row in b)
        expected = sum(left_counts[k] * right_counts[k] for k in left_counts)
        assert len(joined) == expected


class TestGroupByProperties:
    @given(rows_strategy)
    def test_counts_sum_to_total(self, rows):
        r = make(rows)
        grouped = r.group_by(("k",), {"n": ("COUNT", None)})
        assert sum(row["n"] for row in grouped) == len(r)

    @given(rows_strategy)
    def test_group_count_equals_distinct_keys(self, rows):
        r = make(rows)
        grouped = r.group_by(("k",), {"n": ("COUNT", None)})
        assert len(grouped) == len({row["k"] for row in rows})


class TestOrderProperties:
    @given(rows_strategy)
    def test_order_by_is_sorted_and_stable_permutation(self, rows):
        r = make(rows).order_by(("k",))
        keys = [row["k"] for row in r]
        assert keys == sorted(keys)
        normalize = lambda rs: sorted(tuple(sorted(row.items())) for row in rs)
        assert normalize(r) == normalize(rows)
