"""Picklability of what the process backend ships.

The process exchange backend pickles partitioned operator chains out to
workers and ``ColumnBatch`` columns back.  These tests pin the wire
contract down in isolation — no pools involved:

* a :class:`ColumnBatch` round-trips through ``pickle`` with equal rows,
  schema, and length, shipping plain column lists (no ``Table``
  back-pointers, even when its columns are lazy views into one);
* partitioned scan clones round-trip into :class:`ShippedScan` with
  equal rows, equal ``Metrics`` counters (``index_probes`` stays with
  partition 0), and the same declared ``OrderSpec``;
* whole partitionable chains (Filter/Project over a scan) round-trip
  with their compiled kernels rebuilt on the worker side;
* a scan that reads only some columns ships only those, in either
  shipping mode, and sends fewer result bytes back.
"""
from __future__ import annotations

import pickle

import pytest

from repro.engine.batch import ColumnBatch
from repro.engine.expr import Cmp, Col, Lit
from repro.engine.index import SortedIndex
from repro.engine.operators import Filter, IndexScan, Project, SeqScan
from repro.engine.operators.scans import ShippedScan
from repro.engine.parallel import partition_pipeline
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType

SCHEMA = Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.FLOAT))


@pytest.fixture
def table():
    t = Table("t", SCHEMA)
    t.load([(i % 7, (i * 3) % 5, i * 0.25) for i in range(103)], check=False)
    return t


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# ColumnBatch
# ----------------------------------------------------------------------
def test_column_batch_roundtrips():
    batch = ColumnBatch.from_rows(SCHEMA, [(1, 2, 0.5), (3, 4, 1.5)])
    out = roundtrip(batch)
    assert out.to_rows() == batch.to_rows()
    assert len(out) == len(batch)
    assert out.schema.names == batch.schema.names


def test_column_batch_roundtrip_normalizes_lazy_views(table):
    """A batch sliced out of a table's columnar cache must ship plain
    lists — never a reference back into the table's storage."""
    columns = table.columnar()
    batch = ColumnBatch(SCHEMA, [column[10:20] for column in columns], 10)
    out = roundtrip(batch)
    assert out.to_rows() == batch.to_rows()
    assert all(isinstance(column, list) for column in out.columns)


def test_empty_column_batch_roundtrips():
    out = roundtrip(ColumnBatch.empty(SCHEMA))
    assert len(out) == 0
    assert out.to_rows() == []


# ----------------------------------------------------------------------
# Scan clones → ShippedScan
# ----------------------------------------------------------------------
def _parity(original, shipped, batch_size=16):
    rows, metrics = original.run(batch_size)
    shipped_rows, shipped_metrics = shipped.run(batch_size)
    assert shipped_rows == rows
    assert shipped_metrics.counters == metrics.counters
    # And at the default batch size too.
    default_rows, default_metrics = shipped.run()
    assert default_rows == rows
    assert default_metrics.counters == metrics.counters


@pytest.mark.parametrize("part", [None, (0, 3), (2, 3)])
def test_seq_scan_partition_clone_roundtrips(table, part):
    scan = SeqScan(table) if part is None else SeqScan(table).partition_clone(*part)
    shipped = roundtrip(scan)
    assert isinstance(shipped, ShippedScan)
    assert not hasattr(shipped, "table"), "no Table back-pointer may ship"
    assert shipped.provides() == scan.provides()
    _parity(scan, shipped)


@pytest.mark.parametrize("part", [None, (0, 3), (1, 3), (2, 3)])
def test_index_scan_partition_clone_roundtrips(table, part):
    index = SortedIndex("t_ab", table, ["a", "b"]).build()
    scan = IndexScan(index, low=(1,), high=(5,))
    if part is not None:
        scan = scan.partition_clone(*part)
    shipped = roundtrip(scan)
    assert isinstance(shipped, ShippedScan)
    assert shipped.provides() == scan.provides(), (
        "the declared OrderSpec must survive the wire"
    )
    assert tuple(shipped.ordering) == ("t.a", "t.b")
    _parity(scan, shipped)


def test_only_partition_zero_ships_the_probe_charge(table):
    index = SortedIndex("t_a", table, ["a"]).build()
    scan = IndexScan(index)
    zero = roundtrip(scan.partition_clone(0, 2))
    one = roundtrip(scan.partition_clone(1, 2))
    assert zero.charge_probe and not one.charge_probe
    _, zero_metrics = zero.run(16)
    _, one_metrics = one.run(16)
    assert zero_metrics.get("index_probes") == 1
    assert one_metrics.get("index_probes") == 0


# ----------------------------------------------------------------------
# Whole partitioned chains (kernels recompile on arrival)
# ----------------------------------------------------------------------
def test_filter_project_chain_roundtrips(table):
    chain = Project(
        Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))),
        [Col("t.a"), Col("t.c")],
        ["a", "c"],
    )
    for index in range(3):
        clone = partition_pipeline(chain, index, 3)
        shipped = roundtrip(clone)
        assert shipped.schema.names == clone.schema.names
        assert shipped.provides() == clone.provides()
        _parity(clone, shipped)


def test_partition_bounds_resolve_at_pickle_time(table):
    """The materialized form freezes the bounds current when pickling
    happens — which is execution start, since the backend pickles chains
    as it launches the run.  Rows appended afterwards are invisible to
    the shipped clone, exactly like a snapshot taken at execution time."""
    clone = SeqScan(table).partition_clone(1, 2)
    blob = pickle.dumps(clone, pickle.HIGHEST_PROTOCOL)
    before = pickle.loads(blob)
    table.insert((6, 1, 99.0))
    after = pickle.loads(blob)
    assert before.run()[0] == after.run()[0], (
        "a pickled clone is a snapshot: later inserts must not leak in"
    )
    fresh = pickle.loads(
        pickle.dumps(SeqScan(table).partition_clone(1, 2), pickle.HIGHEST_PROTOCOL)
    )
    assert (6, 1, 99.0) in fresh.run()[0], (
        "re-pickling after the insert must see the new row"
    )
    assert (6, 1, 99.0) not in before.run()[0]


# ----------------------------------------------------------------------
# Pruned scans ship only the columns they read
# ----------------------------------------------------------------------
@pytest.mark.parametrize("part", [None, (1, 3)])
def test_pruned_scans_materialize_only_their_columns(table, part):
    index = SortedIndex("t_a", table, ["a"]).build()
    for scan in (SeqScan(table, columns=["c"]), IndexScan(index, columns=["c"])):
        if part is not None:
            scan = scan.partition_clone(*part)
        shipped = roundtrip(scan)
        assert isinstance(shipped, ShippedScan)
        assert len(shipped.columns) == len(scan.schema) == len(scan.columns)
        assert shipped.schema.names == scan.schema.names
        assert shipped.provides() == scan.provides()
        _parity(scan, shipped)
    assert IndexScan(index, columns=["c"]).columns == ("a", "c"), (
        "an index scan keeps its key columns"
    )


def test_fork_token_rebuild_keeps_the_column_list(table):
    """Shipped by registry token (a fork pool inherited the table), the
    worker rebuilds the scan with the same column list and bounds."""
    from repro.engine.parallel import _register_shippable, _ShipContext

    index = SortedIndex("t_a", table, ["a"]).build()
    cases = (
        (SeqScan(table, columns=["b"]).partition_clone(1, 2), ("table", id(table)), table),
        (IndexScan(index, low=(2,), columns=["c"]).partition_clone(0, 2),
         ("index", id(index)), index),
    )
    for scan, token, shared in cases:
        _register_shippable(token, shared)
        with _ShipContext(frozenset({token})):
            blob = pickle.dumps(scan, pickle.HIGHEST_PROTOCOL)
        rebuilt = pickle.loads(blob)
        assert type(rebuilt) is type(scan)
        assert rebuilt.columns == scan.columns
        assert rebuilt.schema == scan.schema
        assert rebuilt.partition == scan.partition
        _parity(scan, rebuilt)


def test_pruned_sn1_ships_fewer_morsel_bytes(monkeypatch):
    """SN1 reads two of the fact table's columns: its partitioned fact
    chain sends back fewer bytes than the same plan reading every
    column, with the same rows and counters."""
    from repro.engine.parallel import shutdown_process_pool
    from repro.optimizer.planner import Planner
    from repro.workloads.snowflake import SNOWFLAKE_QUERIES, build_snowflake

    database = build_snowflake(
        days=150, sales_rows=4_000, items=60, brands=12, stores=8
    ).database
    sql = dict((qid, text) for qid, text, _ in SNOWFLAKE_QUERIES)["SN1"]
    run = dict(workers=2, backend="process", use_cache=False)
    try:
        pruned = database.execute(sql, **run)
        monkeypatch.setattr(Planner, "scan_columns", lambda self, alias: None)
        unpruned = database.execute(sql, **run)
    finally:
        shutdown_process_pool()
    assert pruned.backend == unpruned.backend == "process"
    assert pruned.rows == unpruned.rows
    assert pruned.metrics.counters == unpruned.metrics.counters
    shipped = pruned.exchange_stats["morsel_bytes"]
    assert 0 < shipped < unpruned.exchange_stats["morsel_bytes"]
