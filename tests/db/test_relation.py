"""The relational operator algebra."""

import pytest

from repro.db.expressions import col, func, lit
from repro.db.relation import Relation
from repro.errors import QueryError
from tests.oracle import relational as oracle


def rel(*rows, columns=("k", "v")):
    return Relation(columns, [dict(zip(columns, row)) for row in rows])


class TestConstruction:
    def test_rows_are_normalized_to_column_order(self):
        r = Relation(("a", "b"), [{"b": 2, "a": 1, "extra": 9}])
        assert list(r.rows[0].keys()) == ["a", "b"]

    def test_missing_column_raises(self):
        with pytest.raises(QueryError):
            Relation(("a", "b"), [{"a": 1}])

    def test_duplicate_columns_raise(self):
        with pytest.raises(QueryError):
            Relation(("a", "a"), [])

    def test_empty(self):
        assert len(Relation.empty(("x",))) == 0


class TestSelect:
    def test_expression_predicate(self):
        r = rel((1, "x"), (2, "y"), (3, "x"))
        assert len(r.select(col("v") == lit("x"))) == 2

    def test_null_predicate_result_drops_row(self):
        r = Relation(("k",), [{"k": None}, {"k": 1}])
        assert len(r.select(col("k") > lit(0))) == 1

    def test_callable_predicate(self):
        r = rel((1, "x"), (2, "y"))
        assert len(r.select(lambda row: row["k"] > 1)) == 1

    def test_select_preserves_input(self):
        r = rel((1, "x"))
        r.select(col("k") == lit(99))
        assert len(r) == 1


class TestProject:
    def test_rename(self):
        r = rel((1, "x")).project({"key": "k"})
        assert r.columns == ("key",)
        assert r.rows[0] == {"key": 1}

    def test_computed_column(self):
        r = rel((1, "x")).project({"up": func("UPPER", col("v"))})
        assert r.rows[0] == {"up": "X"}

    def test_mixed_rename_and_computed(self):
        r = rel((2, "y")).project({"k": "k", "double": col("k") * lit(2)})
        assert r.rows[0] == {"k": 2, "double": 4}

    def test_unknown_source_raises(self):
        with pytest.raises(QueryError):
            rel((1, "x")).project({"a": "ghost"})

    def test_keep(self):
        r = rel((1, "x")).keep("v")
        assert r.columns == ("v",)

    def test_extend(self):
        r = rel((1, "x")).extend("twice", col("k") * lit(2))
        assert r.rows[0]["twice"] == 2

    def test_extend_existing_column_raises(self):
        with pytest.raises(QueryError):
            rel((1, "x")).extend("k", lit(0))


class TestDistinctAndUnion:
    def test_distinct_full_row(self):
        r = rel((1, "x"), (1, "x"), (2, "y")).distinct()
        assert len(r) == 2

    def test_keyed_distinct_first_wins(self):
        r = rel((1, "first"), (1, "second")).distinct(("k",))
        assert r.rows == [{"k": 1, "v": "first"}]

    def test_union_all_keeps_duplicates(self):
        r = rel((1, "x")).union_all(rel((1, "x")))
        assert len(r) == 2

    def test_union_distinct_keyed(self):
        """The P03/P09 merge: same key from two sources appears once."""
        chicago = rel((1, "c"), (2, "c"))
        baltimore = rel((2, "b"), (3, "b"))
        merged = chicago.union_distinct(baltimore, ("k",))
        assert sorted(row["k"] for row in merged) == [1, 2, 3]
        assert merged.select(col("k") == lit(2)).rows[0]["v"] == "c"

    def test_union_schema_mismatch_raises(self):
        with pytest.raises(QueryError):
            rel((1, "x")).union_all(Relation(("other",), []))


class TestJoin:
    def test_inner_join(self):
        orders = Relation(("orderkey", "custkey"), [
            {"orderkey": 1, "custkey": 10},
            {"orderkey": 2, "custkey": 99},
        ])
        customers = Relation(("custkey", "name"), [{"custkey": 10, "name": "A"}])
        joined = orders.join(customers, on=[("custkey", "custkey")])
        assert len(joined) == 1
        assert joined.rows[0]["name"] == "A"

    def test_left_join_pads_with_null(self):
        left = Relation(("k",), [{"k": 1}, {"k": 2}])
        right = Relation(("k", "v"), [{"k": 1, "v": "x"}])
        joined = left.join(right, on=[("k", "k")], how="left")
        assert len(joined) == 2
        assert joined.select(col("k") == lit(2)).rows[0]["v"] is None

    def test_null_keys_never_join(self):
        left = Relation(("k",), [{"k": None}])
        right = Relation(("k", "v"), [{"k": None, "v": "x"}])
        assert len(left.join(right, on=[("k", "k")])) == 0

    def test_name_collision_gets_suffix(self):
        left = Relation(("k", "name"), [{"k": 1, "name": "L"}])
        right = Relation(("k", "name"), [{"k": 1, "name": "R"}])
        joined = left.join(right, on=[("k", "k")])
        assert joined.rows[0]["name"] == "L"
        assert joined.rows[0]["name_r"] == "R"

    def test_one_to_many(self):
        left = Relation(("k",), [{"k": 1}])
        right = Relation(("k", "v"), [{"k": 1, "v": "a"}, {"k": 1, "v": "b"}])
        assert len(left.join(right, on=[("k", "k")])) == 2

    def test_multi_key_join(self):
        left = Relation(("a", "b"), [{"a": 1, "b": 2}])
        right = Relation(("a", "b", "v"), [{"a": 1, "b": 2, "v": "x"},
                                           {"a": 1, "b": 3, "v": "y"}])
        joined = left.join(right, on=[("a", "a"), ("b", "b")])
        assert len(joined) == 1

    def test_bad_join_type(self):
        with pytest.raises(QueryError):
            rel((1, "x")).join(rel((1, "x")), on=[("k", "k")], how="outer")

    def test_empty_on_rejected(self):
        with pytest.raises(QueryError):
            rel((1, "x")).join(rel((1, "x")), on=[])


class TestGroupBy:
    def _orders(self):
        return Relation(
            ("nation", "total"),
            [
                {"nation": "DE", "total": 10},
                {"nation": "DE", "total": 30},
                {"nation": "FR", "total": 5},
                {"nation": "FR", "total": None},
            ],
        )

    def test_count_star_counts_nulls(self):
        g = self._orders().group_by(("nation",), {"n": ("COUNT", None)})
        assert {r["nation"]: r["n"] for r in g} == {"DE": 2, "FR": 2}

    def test_count_column_skips_nulls(self):
        g = self._orders().group_by(("nation",), {"n": ("COUNT", "total")})
        assert {r["nation"]: r["n"] for r in g} == {"DE": 2, "FR": 1}

    def test_sum_min_max_avg(self):
        g = self._orders().group_by(
            ("nation",),
            {"s": ("SUM", "total"), "lo": ("MIN", "total"),
             "hi": ("MAX", "total"), "mu": ("AVG", "total")},
        )
        de = next(r for r in g if r["nation"] == "DE")
        assert (de["s"], de["lo"], de["hi"], de["mu"]) == (40, 10, 30, 20)

    def test_all_null_aggregate_is_null(self):
        r = Relation(("g", "x"), [{"g": 1, "x": None}])
        g = r.group_by(("g",), {"s": ("SUM", "x")})
        assert g.rows[0]["s"] is None

    def test_unknown_aggregate(self):
        with pytest.raises(QueryError):
            self._orders().group_by(("nation",), {"m": ("MEDIAN", "total")})

    def test_group_order_is_first_appearance(self):
        g = self._orders().group_by(("nation",), {"n": ("COUNT", None)})
        assert [r["nation"] for r in g] == ["DE", "FR"]


class TestOrderAndLimit:
    def test_order_by(self):
        r = rel((3, "c"), (1, "a"), (2, "b")).order_by(("k",))
        assert [row["k"] for row in r] == [1, 2, 3]

    def test_order_by_descending(self):
        r = rel((3, "c"), (1, "a")).order_by(("k",), descending=True)
        assert [row["k"] for row in r] == [3, 1]

    def test_nulls_sort_first(self):
        r = Relation(("k",), [{"k": 2}, {"k": None}]).order_by(("k",))
        assert [row["k"] for row in r] == [None, 2]

    def test_descending_keeps_nulls_first(self):
        # Regression: sorted(reverse=True) used to push NULLs last.
        r = Relation(
            ("k",), [{"k": 2}, {"k": None}, {"k": 5}]
        ).order_by(("k",), descending=True)
        assert [row["k"] for row in r] == [None, 5, 2]

    def test_descending_ties_stay_stable(self):
        # Regression: sorted(reverse=True) used to reverse tie order.
        r = rel((1, "first"), (2, "x"), (1, "second")).order_by(
            ("k",), descending=True
        )
        assert [(row["k"], row["v"]) for row in r] == [
            (2, "x"),
            (1, "first"),
            (1, "second"),
        ]

    def test_descending_multi_column_with_nulls(self):
        r = rel((1, None), (1, "b"), (2, "a")).order_by(
            ("k", "v"), descending=True
        )
        assert [(row["k"], row["v"]) for row in r] == [
            (2, "a"),
            (1, None),
            (1, "b"),
        ]

    def test_descending_matches_oracle(self):
        rows = [(3, "a"), (1, "x"), (None, "y"), (3, "b"), (2, None)]
        got = rel(*rows).order_by(("k", "v"), descending=True)
        expected = oracle.order_by(
            oracle.relation(got.columns, rel(*rows).rows),
            ("k", "v"),
            descending=True,
        )
        assert got.to_dicts() == expected.rows

    def test_limit(self):
        assert len(rel((1, "a"), (2, "b")).limit(1)) == 1

    def test_negative_limit_raises(self):
        with pytest.raises(QueryError):
            rel((1, "a")).limit(-1)

    def test_column_values(self):
        assert rel((1, "a"), (2, "b")).column_values("k") == [1, 2]

    def test_to_dicts_copies(self):
        r = rel((1, "a"))
        dicts = r.to_dicts()
        dicts[0]["k"] = 999
        assert r.rows[0]["k"] == 1
