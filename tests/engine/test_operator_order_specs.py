"""Every operator's *declared* OrderSpec must match its *observed* output
order on random instances — the conformance contract the planner's
property framework rests on."""
from __future__ import annotations

import random

import pytest

from repro.engine.expr import Cmp, Col, Lit
from repro.engine.index import SortedIndex
from repro.engine.operators import (
    AggSpec,
    Filter,
    HashAggregate,
    HashDistinct,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    SortedDistinct,
    StreamAggregate,
    TopN,
)
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.optimizer.properties import OrderSpec

ROWS = 150


@pytest.fixture(params=[3, 17, 2024])
def table(request):
    rng = random.Random(request.param)
    t = Table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.FLOAT)))
    t.load(
        [
            (rng.randint(0, 7), rng.randint(0, 7), round(rng.random() * 10, 2))
            for _ in range(ROWS)
        ],
        check=False,
    )
    return t


@pytest.fixture
def dim():
    t = Table("dim", Schema.of(("k", DataType.INT), ("label", DataType.STR)))
    t.load([(i, f"k{i}") for i in range(8)], check=False)
    return t


def assert_declared_order_observed(op):
    """The output stream must actually be sorted by the declared spec at
    boundary batch sizes, with the same rows at each — and provides()
    must agree with the legacy ``ordering`` attribute."""
    spec = op.provides()
    assert isinstance(spec, OrderSpec)
    assert tuple(spec) == tuple(op.ordering)
    rows, _ = op.run()
    positions = [op.schema.position(column) for column in spec]
    keys = [tuple(row[p] for p in positions) for row in rows]
    assert keys == sorted(keys), f"{op.label()} violates its declared order {spec!r}"
    for batch_size in (1, 7, 1024):
        batch_rows, _ = op.run(batch_size)
        batch_keys = [tuple(row[p] for p in positions) for row in batch_rows]
        assert batch_keys == sorted(batch_keys), (
            f"{op.label()} violates its declared order {spec!r} "
            f"(batch_size={batch_size})"
        )
        assert batch_rows == rows, (
            f"{op.label()} output depends on the batch size "
            f"(batch_size={batch_size})"
        )
    return rows


class TestLeafAndUnaryOperators:
    def test_seq_scan_declares_nothing(self, table):
        op = SeqScan(table)
        assert op.provides().empty
        assert_declared_order_observed(op)

    def test_index_scan_declares_key_order(self, table):
        index = SortedIndex("t_ab", table, ["a", "b"]).build()
        op = IndexScan(index)
        assert op.provides() == OrderSpec(["t.a", "t.b"])
        assert_declared_order_observed(op)

    def test_filter_preserves(self, table):
        index = SortedIndex("t_a", table, ["a"]).build()
        op = Filter(IndexScan(index), Cmp("<=", Col("t.a"), Lit(4)))
        assert op.provides() == OrderSpec(["t.a"])
        assert_declared_order_observed(op)

    def test_limit_preserves(self, table):
        index = SortedIndex("t_a2", table, ["a"]).build()
        op = Limit(IndexScan(index), 20)
        assert op.provides() == OrderSpec(["t.a"])
        assert_declared_order_observed(op)

    def test_sort_enforces_its_keys(self, table):
        op = Sort(SeqScan(table), ["t.b", "t.a"])
        assert op.provides() == OrderSpec(["t.b", "t.a"])
        assert_declared_order_observed(op)

    def test_topn_enforces_its_keys(self, table):
        op = TopN(SeqScan(table), ["t.c"], 17)
        assert op.provides() == OrderSpec(["t.c"])
        rows = assert_declared_order_observed(op)
        assert len(rows) == 17


class TestProjectPropagation:
    def test_pass_through_rename(self, table):
        index = SortedIndex("t_ab2", table, ["a", "b"]).build()
        op = Project(IndexScan(index), [Col("t.a"), Col("t.b")], ["x", "y"])
        assert op.provides() == OrderSpec(["x", "y"])
        assert_declared_order_observed(op)

    def test_dropped_column_truncates(self, table):
        index = SortedIndex("t_ab3", table, ["a", "b"]).build()
        # t.b is projected away: the declared order stops at the rename of t.a
        op = Project(IndexScan(index), [Col("t.a"), Col("t.c")], ["a", "c"])
        assert op.provides() == OrderSpec(["a"])
        assert_declared_order_observed(op)


class TestJoinsPreserveProbeOrder:
    def test_hash_join(self, table, dim):
        index = SortedIndex("t_a3", table, ["a"]).build()
        op = HashJoin(IndexScan(index), SeqScan(dim), ["t.a"], ["dim.k"])
        assert op.provides() == OrderSpec(["t.a"])
        assert_declared_order_observed(op)

    def test_merge_join(self, table, dim):
        left = Sort(SeqScan(table), ["t.a"])
        right = Sort(SeqScan(dim), ["dim.k"])
        op = MergeJoin(left, right, ["t.a"], ["dim.k"])
        assert op.provides() == OrderSpec(["t.a"])
        assert_declared_order_observed(op)

    def test_nested_loop_join(self, table, dim):
        left = Sort(SeqScan(table), ["t.b"])
        op = NestedLoopJoin(left, SeqScan(dim), ["t.a"], ["dim.k"])
        assert op.provides() == OrderSpec(["t.b"])
        assert_declared_order_observed(op)


class TestAggregatesAndDistinct:
    SPECS = staticmethod(lambda: [AggSpec("COUNT", None, "n")])

    def test_stream_aggregate_restricts_to_group_prefix(self, table):
        child = Sort(SeqScan(table), ["t.a", "t.b"])
        op = StreamAggregate(child, ["t.a"], self.SPECS())
        # the input order survives only up to the grouping-column prefix
        assert op.provides() == OrderSpec(["t.a"])
        assert_declared_order_observed(op)

    def test_stream_aggregate_full_group_order(self, table):
        child = Sort(SeqScan(table), ["t.a", "t.b"])
        op = StreamAggregate(child, ["t.a", "t.b"], self.SPECS())
        assert op.provides() == OrderSpec(["t.a", "t.b"])
        assert_declared_order_observed(op)

    def test_hash_aggregate_declares_nothing(self, table):
        op = HashAggregate(SeqScan(table), ["t.a"], self.SPECS())
        assert op.provides().empty
        assert_declared_order_observed(op)

    def test_sorted_distinct_preserves(self, table):
        child = Sort(SeqScan(table), ["t.a", "t.b", "t.c"])
        op = SortedDistinct(child)
        assert op.provides() == OrderSpec(["t.a", "t.b", "t.c"])
        assert_declared_order_observed(op)

    def test_hash_distinct_declares_nothing(self, table):
        op = HashDistinct(SeqScan(table))
        assert op.provides().empty
        assert_declared_order_observed(op)
