"""TopN operator + planner fusion, and table statistics."""
from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import Limit, SeqScan, Sort, TopN
from repro.engine.schema import Schema
from repro.engine.stats import ColumnStats, collect_stats
from repro.engine.table import Table
from repro.engine.types import DataType


def make_table(rows):
    table = Table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    table.load(rows, check=False)
    return table


class TestTopNOperator:
    def test_matches_sort_limit(self):
        table = make_table([(5, 0), (3, 1), (9, 2), (1, 3), (3, 4)])
        fused, _ = TopN(SeqScan(table), ["a"], 3).run()
        reference, _ = Limit(Sort(SeqScan(table), ["a"]), 3).run()
        assert fused == reference

    def test_stable_on_ties(self):
        table = make_table([(1, 9), (1, 2), (1, 5)])
        rows, _ = TopN(SeqScan(table), ["a"], 2).run()
        assert rows == [(1, 9), (1, 2)]  # arrival order preserved

    def test_count_larger_than_input(self):
        table = make_table([(2, 0), (1, 0)])
        rows, _ = TopN(SeqScan(table), ["a"], 10).run()
        assert rows == [(1, 0), (2, 0)]

    def test_zero_count(self):
        table = make_table([(1, 0)])
        rows, metrics = TopN(SeqScan(table), ["a"], 0).run()
        assert rows == []

    def test_negative_count_rejected(self):
        table = make_table([])
        with pytest.raises(ValueError):
            TopN(SeqScan(table), ["a"], -1)

    def test_sort_rows_bounded_by_n(self):
        table = make_table([(i, 0) for i in range(1000)])
        _, metrics = TopN(SeqScan(table), ["a"], 10).run()
        assert metrics.get("sort_rows") <= 10

    def test_ordering_property(self):
        table = make_table([(1, 0)])
        op = TopN(SeqScan(table), ["a", "b"], 5)
        assert op.ordering == ("t.a", "t.b")

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
           st.integers(0, 10))
    def test_property_matches_reference(self, rows, n):
        table = make_table(rows)
        fused, _ = TopN(SeqScan(table), ["a", "b"], n).run()
        reference, _ = Limit(Sort(SeqScan(table), ["a", "b"]), n).run()
        # Sort is stable; TopN breaks key-ties by arrival too — but rows
        # with fully equal sort keys may still differ in non-key columns;
        # here the key is the whole row, so outputs must match exactly.
        assert fused == reference


class TestPlannerFusion:
    @pytest.fixture(scope="class")
    def db(self):
        from repro.engine.database import Database

        database = Database()
        table = database.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(i * 7 % 100, i) for i in range(200)])
        database.create_index("t_a", "t", ["a"])
        return database

    def test_fuses_when_order_not_satisfied(self, db):
        result = db.execute("SELECT b FROM t ORDER BY b LIMIT 5")
        assert "TopN" in result.plan.explain()
        assert [r[0] for r in result.rows] == [0, 1, 2, 3, 4]

    def test_no_heap_when_index_satisfies(self, db):
        result = db.execute("SELECT a FROM t ORDER BY a LIMIT 5")
        text = result.plan.explain()
        assert "TopN" not in text and "Sort" not in text
        values = sorted(db.table("t").column_values("a"))[:5]
        assert [r[0] for r in result.rows] == values

    def test_naive_mode_keeps_sort(self, db):
        from repro.engine.logical import bind
        from repro.engine.sql.parser import parse
        from repro.optimizer.planner import Planner

        plan = Planner(db, mode="naive").plan(
            bind(parse("SELECT b FROM t ORDER BY b LIMIT 5"))
        )
        assert "Sort" in plan.explain()


class TestStats:
    def test_collect(self):
        table = make_table([(1, 5), (2, 5), (2, 7)])
        stats = collect_stats(table)
        assert stats.row_count == 3
        a = stats.column("a")
        assert (a.distinct, a.minimum, a.maximum) == (2, 1, 2)
        assert a.histogram is not None and a.histogram.total == 3
        assert stats.column("b").distinct == 2

    def test_empty_table(self):
        stats = collect_stats(make_table([]))
        assert stats.row_count == 0
        assert stats.column("a").minimum is None

    def test_range_selectivity_numeric(self):
        stats = ColumnStats(distinct=10, minimum=0, maximum=100)
        assert stats.range_selectivity(0, 100) == 1.0
        assert stats.range_selectivity(0, 50) == pytest.approx(0.5)
        assert stats.range_selectivity(200, 300) == 0.0

    def test_range_selectivity_dates(self):
        stats = ColumnStats(
            distinct=365,
            minimum=datetime.date(2000, 1, 1),
            maximum=datetime.date(2000, 12, 31),
        )
        half = stats.range_selectivity(
            datetime.date(2000, 1, 1), datetime.date(2000, 7, 1)
        )
        assert 0.4 < half < 0.6

    def test_range_selectivity_non_numeric(self):
        stats = ColumnStats(distinct=3, minimum="a", maximum="z")
        assert 0.0 < stats.range_selectivity("a", "m") <= 1.0

    def test_equality_selectivity(self):
        assert ColumnStats(4, 0, 10).equality_selectivity() == 0.25
        assert ColumnStats(0, None, None).equality_selectivity() == 1.0

    def test_database_stats_cached_within_epoch(self):
        from repro.engine.database import Database

        db = Database()
        table = db.create_table("t", Schema.of(("a", DataType.INT)))
        table.load([(1,)])
        first = db.stats("t")
        assert db.stats("t") is first            # cached: no mutation between

    def test_database_stats_invalidated_by_insert(self):
        """Regression: stats used to be cached per table name forever, so
        an insert left row counts stale until a manual refresh.  They
        record the row count they cover now — the next request after an
        append brings them up to date."""
        from repro.engine.database import Database

        db = Database()
        table = db.create_table("t", Schema.of(("a", DataType.INT)))
        table.load([(1,)])
        first = db.stats("t")
        assert first.row_count == 1
        table.load([(2,)])
        assert db.stats("t").row_count == 2      # fresh, no refresh needed
        assert db.stats("t").column("a").maximum == 2

    def test_database_stats_follow_their_own_table_only(self):
        """Unrelated DDL and writes to another table leave a table's
        statistics alone; an append, a ``declare`` or a ``create_index``
        on the table itself each show up in the next reading."""
        from repro.core.dependency import fd
        from repro.engine.database import Database

        db = Database()
        table = db.create_table("t", Schema.of(("a", DataType.INT)))
        table.load([(1,), (3,)])
        first = db.stats("t")
        other = db.create_table("u", Schema.of(("b", DataType.INT)))
        other.load([(7,)])
        db.create_index("u_b", "u", ["b"])
        db.declare("u", fd("b", "b"))
        assert db.stats("t") is first
        assert (first.row_count, first.column("a").is_key) == (2, False)
        assert not first.column("a").od_ordered

        table.insert((5,))
        assert db.stats("t").row_count == 3
        assert db.stats("t").column("a").maximum == 5
        db.declare("t", fd("a", "a"))
        assert db.stats("t").column("a").is_key
        db.create_index("t_a", "t", ["a"])
        assert db.stats("t").column("a").od_ordered
        assert db.stats("t") == collect_stats(table, db.indexes_on("t"))
