"""Parallel batch execution: exchange operators, partition hooks,
placement, and determinism.

Four layers of guarantees:

* **property** (hypothesis): a :class:`MergeExchange` over *randomly*
  partitioned, randomly ordered instances — partitions that genuinely
  interleave, unlike the contiguous ones the planner builds — always
  yields a stream conforming to the declared ``OrderSpec`` (checked with
  the same conformance checker every operator answers to) while
  preserving the row multiset;
* **partition hooks**: source partitions are contiguous, cover the input
  exactly, and charge metrics that *sum* to the serial scan's
  (``index_probes`` from partition 0 alone);
* **placement**: exchanges land above maximal partitionable chains, with
  the kind the declared order property dictates; ``LIMIT`` subtrees stay
  serial;
* **determinism** (the regression the issue names): repeated parallel
  executions of one query produce identical row order and identical
  ``Metrics`` counters — no scheduling-dependent output, ever.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.operators import (
    AggSpec,
    Filter,
    HashAggregate,
    HashJoin,
    IndexScan,
    Limit,
    Project,
    SeqScan,
    TopN,
)
from repro.engine.operators.base import Metrics, Operator
from repro.engine.expr import Cmp, Col, Lit
from repro.engine.index import SortedIndex
from repro.engine import parallel as parallel_mod
from repro.engine.parallel import (
    BACKENDS,
    MergeExchange,
    UnionExchange,
    insert_exchanges,
    partition_pipeline,
    partitionable,
)
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.optimizer.properties import OrderSpec, exchange_kind
from repro.workloads.taxes import build_taxes

from test_operator_order_specs import assert_declared_order_observed


# ----------------------------------------------------------------------
# Test seam: a fixed row list with a declared (and honored) ordering
# ----------------------------------------------------------------------
class StaticSource(Operator):
    def __init__(self, schema: Schema, rows, ordering=()):
        self.schema = schema
        self.static_rows = list(rows)
        self.ordering = tuple(ordering)

    def execute(self, metrics: Metrics):
        for row in self.static_rows:
            metrics.add("rows_scanned")
            yield row


SCHEMA = Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT))


# ----------------------------------------------------------------------
# Satellite: the merge-exchange conformance property
# ----------------------------------------------------------------------
@st.composite
def merge_instances(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5), st.integers(0, 100)
            ),
            max_size=60,
        )
    )
    partition_count = draw(st.integers(1, 5))
    assignment = draw(
        st.lists(
            st.integers(0, partition_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    key_width = draw(st.integers(1, 3))
    workers = draw(st.integers(1, 4))
    return rows, assignment, partition_count, key_width, workers


@settings(max_examples=80, deadline=None)
@given(merge_instances())
def test_merge_exchange_conforms_to_declared_order(instance):
    """Randomly partitioned, randomly ordered input: the merged stream
    must conform to the declared OrderSpec (the operator conformance
    contract) and preserve the row multiset — in both execution modes,
    at boundary batch sizes."""
    rows, assignment, partition_count, key_width, workers = instance
    keys = ("a", "b", "c")[:key_width]
    positions = [SCHEMA.position(key) for key in keys]

    def keyfn(row):
        return tuple(row[p] for p in positions)

    partitions = [
        StaticSource(
            SCHEMA,
            sorted(
                (row for row, where in zip(rows, assignment) if where == p),
                key=keyfn,
            ),
            ordering=keys,
        )
        for p in range(partition_count)
    ]
    exchange = MergeExchange(partitions, workers=workers, keys=keys)
    assert exchange.provides() == OrderSpec(keys)
    out = assert_declared_order_observed(exchange)
    assert sorted(out) == sorted(rows), "merge-exchange lost or invented rows"


@st.composite
def backend_instances(draw):
    """Smaller instances than merge_instances: each example runs every
    backend twice, and the process backend pays real IPC per run."""
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 50)),
            max_size=40,
        )
    )
    partition_count = draw(st.integers(1, 4))
    assignment = draw(
        st.lists(
            st.integers(0, partition_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    key_width = draw(st.integers(1, 3))
    return rows, assignment, partition_count, key_width


@settings(max_examples=12, deadline=None)
@given(backend_instances())
def test_merge_exchange_identical_across_backends(instance):
    """The backend is an execution detail, never a semantic one: over
    randomly partitioned morsel streams (empty partitions and
    single-morsel partitions included), both backends — inline and
    process — produce bit-identical rows and identical Metrics counters,
    across repeated runs, and the merged stream conforms to the declared
    OrderSpec."""
    rows, assignment, partition_count, key_width = instance
    keys = ("a", "b", "c")[:key_width]
    positions = [SCHEMA.position(key) for key in keys]

    def keyfn(row):
        return tuple(row[p] for p in positions)

    def build(backend):
        return MergeExchange(
            [
                StaticSource(
                    SCHEMA,
                    sorted(
                        (r for r, where in zip(rows, assignment) if where == p),
                        key=keyfn,
                    ),
                    ordering=keys,
                )
                for p in range(partition_count)
            ],
            workers=3,
            keys=keys,
            backend=backend,
        )

    reference_rows = None
    reference_counters = None
    for backend in BACKENDS:
        exchange = build(backend)
        for _ in range(2):  # repeated runs: no scheduling leakage
            out, metrics = exchange.run_batches(7)
            if reference_rows is None:
                reference_rows = out
                reference_counters = metrics.counters
                assert sorted(out) == sorted(rows)
                observed = [keyfn(row) for row in out]
                assert observed == sorted(observed), (
                    "merged stream violates the declared OrderSpec"
                )
            assert out == reference_rows, f"{backend} backend drifted in rows"
            assert metrics.counters == reference_counters, (
                f"{backend} backend drifted in counters"
            )


def test_merge_exchange_requires_ordering():
    with pytest.raises(ValueError):
        MergeExchange([StaticSource(SCHEMA, [], ordering=())], keys=())


def test_union_exchange_concatenates_in_partition_order():
    parts = [
        StaticSource(SCHEMA, [(3, 0, 0), (1, 0, 0)]),
        StaticSource(SCHEMA, []),
        StaticSource(SCHEMA, [(2, 0, 0)]),
    ]
    exchange = UnionExchange(parts, workers=2)
    assert exchange.provides().empty
    rows = assert_declared_order_observed(exchange)
    assert rows == [(3, 0, 0), (1, 0, 0), (2, 0, 0)]


def test_union_exchange_never_advertises_an_order():
    """Even over individually sorted partitions (whose ranges may
    interleave), concatenation makes no ordering promise — provides()
    must stay empty."""
    parts = [
        StaticSource(SCHEMA, [(1, 0, 0), (3, 0, 0)], ordering=("a",)),
        StaticSource(SCHEMA, [(2, 0, 0), (4, 0, 0)], ordering=("a",)),
    ]
    exchange = UnionExchange(parts)
    assert exchange.provides().empty
    assert_declared_order_observed(exchange)


# ----------------------------------------------------------------------
# Partition hooks: contiguity, coverage, counter totals
# ----------------------------------------------------------------------
@pytest.fixture
def table():
    t = Table("t", SCHEMA)
    t.load(
        [(i % 7, (i * 3) % 5, i) for i in range(103)], check=False
    )
    return t


@pytest.mark.parametrize("count", [1, 2, 4, 5, 200])
def test_seq_scan_partitions_cover_exactly(table, count):
    serial = SeqScan(table)
    serial_rows, serial_metrics = serial.run()
    merged = Metrics()
    gathered = []
    for index in range(count):
        clone = serial.partition_clone(index, count)
        rows, metrics = clone.run()
        batch_rows, batch_metrics = clone.run_batches(8)
        assert batch_rows == rows and batch_metrics.counters == metrics.counters
        gathered.extend(rows)
        for key, value in metrics.counters.items():
            merged.add(key, value)
    assert gathered == serial_rows, "partitions must concatenate to the scan"
    assert merged.counters == serial_metrics.counters


@pytest.mark.parametrize("count", [1, 3, 4])
def test_index_scan_partitions_cover_exactly_and_probe_once(table, count):
    index = SortedIndex("t_ab", table, ["a", "b"]).build()
    serial = IndexScan(index, low=(1,), high=(5,))
    serial_rows, serial_metrics = serial.run()
    merged = Metrics()
    gathered = []
    for part in range(count):
        clone = serial.partition_clone(part, count)
        assert clone.provides() == serial.provides()
        rows, metrics = clone.run()
        gathered.extend(rows)
        if part > 0:
            assert metrics.get("index_probes") == 0, (
                "only partition 0 may charge the probe"
            )
        for key, value in metrics.counters.items():
            merged.add(key, value)
    assert gathered == serial_rows
    assert merged.counters == serial_metrics.counters


def test_partition_pipeline_clones_filters_and_projections(table):
    chain = Project(
        Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))),
        [Col("t.a"), Col("t.c")],
        ["a", "c"],
    )
    assert partitionable(chain)
    serial_rows, serial_metrics = chain.run()
    merged = Metrics()
    gathered = []
    for index in range(3):
        clone = partition_pipeline(chain, index, 3)
        assert clone.schema.names == chain.schema.names
        assert tuple(clone.ordering) == tuple(chain.ordering)
        rows, metrics = clone.run_batches(16)
        gathered.extend(rows)
        for key, value in metrics.counters.items():
            merged.add(key, value)
    assert gathered == serial_rows
    assert merged.counters == serial_metrics.counters


# ----------------------------------------------------------------------
# Exchange placement
# ----------------------------------------------------------------------
def test_placement_union_over_unordered_chain(table):
    plan = HashAggregate(
        Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))),
        ["t.a"],
        [AggSpec("COUNT", None, "n")],
    )
    serial_rows, serial_metrics = plan.run()
    parallel = insert_exchanges(plan, 4)
    assert parallel is plan  # aggregate stays the root
    exchange = plan.child
    assert isinstance(exchange, UnionExchange)
    assert len(exchange.partitions) == 4
    assert exchange_kind(exchange.subtree.provides()) == "union"
    rows, metrics = parallel.run_batches(16)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


def test_placement_merge_over_ordered_chain(table):
    index = SortedIndex("t_a", table, ["a"]).build()
    chain = Filter(IndexScan(index), Cmp("<=", Col("t.a"), Lit(5)))
    serial_rows, serial_metrics = chain.run()
    parallel = insert_exchanges(chain, 3)
    assert isinstance(parallel, MergeExchange)
    assert parallel.keys == ("t.a",)
    assert parallel.provides() == OrderSpec(["t.a"])
    rows, metrics = parallel.run_batches(16)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


def test_placement_skips_limit_subtrees(table):
    plan = Limit(Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))), 5)
    parallel = insert_exchanges(plan, 4)
    assert parallel is plan
    assert isinstance(plan.child, Filter), "LIMIT subtree must stay serial"
    assert isinstance(plan.child.child, SeqScan)


def test_placement_parallelizes_under_topn(table):
    plan = TopN(SeqScan(table), ["t.c"], 7)
    serial_rows, serial_metrics = plan.run()
    parallel = insert_exchanges(plan, 4)
    assert isinstance(plan.child, UnionExchange), "TopN drains fully: safe"
    rows, metrics = parallel.run_batches(16)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


def test_placement_reaches_both_join_sides(table):
    dim = Table("dim", Schema.of(("k", DataType.INT), ("label", DataType.STR)))
    dim.load([(i, f"k{i}") for i in range(7)], check=False)
    plan = HashJoin(SeqScan(table), SeqScan(dim), ["t.a"], ["dim.k"])
    serial_rows, serial_metrics = plan.run()
    parallel = insert_exchanges(plan, 2)
    assert isinstance(plan.left, UnionExchange)
    assert isinstance(plan.right, UnionExchange)
    rows, metrics = parallel.run_batches(32)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


def test_single_worker_is_the_inline_fallback(table):
    chain = Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4)))
    serial_rows, serial_metrics = chain.run()
    parallel = insert_exchanges(chain, 1)
    assert isinstance(parallel, UnionExchange)
    assert len(parallel.partitions) == 1
    rows, metrics = parallel.run_batches(16)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


def test_row_mode_execute_falls_back_to_the_serial_subtree(table):
    chain = Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4)))
    serial_rows, serial_metrics = chain.run()
    parallel = insert_exchanges(
        Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))), 4
    )
    rows, metrics = parallel.run()
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


# ----------------------------------------------------------------------
# Process backend mechanics: morsel streaming, shipping accounting
# ----------------------------------------------------------------------
def test_process_backend_streams_multiple_morsels(table, monkeypatch):
    """With the morsel size forced tiny, a partition's results cross the
    result queue in several morsels — and the reassembled stream is still
    bit- and counter-identical to serial, with the serialization cost
    accounted in exchange_stats (never in query Metrics)."""
    monkeypatch.setattr(parallel_mod, "MORSEL_ROWS", 8)
    serial_rows, serial_metrics = Filter(
        SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))
    ).run_batches(16)
    exchange = insert_exchanges(
        Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4))),
        2,
        backend="process",
    )
    rows, metrics = exchange.run_batches(16)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters
    stats = exchange.exchange_stats
    assert stats["backend"] == "process"
    assert stats["morsels"] >= 2, "tiny morsel size must split the stream"
    assert stats["rows_shipped"] == len(serial_rows)
    assert stats["chain_bytes"] > 0


def test_backend_is_rejected_when_unknown(table):
    chain = Filter(SeqScan(table), Cmp("<=", Col("t.a"), Lit(4)))
    with pytest.raises(ValueError):
        insert_exchanges(chain, 2, backend="greenlet")
    with pytest.raises(ValueError):
        UnionExchange([SeqScan(table)], backend="greenlet")


# ----------------------------------------------------------------------
# Satellite: the min-rows placement gate
# ----------------------------------------------------------------------
def test_min_rows_gate_keeps_snowflake_dimensions_serial():
    """The placement bugfix: exchanges used to land on every partitionable
    chain regardless of size.  In the snowflake workload the fact scan
    (thousands of rows) must parallelize while every dimension chain
    (≤ a few hundred rows) plans serial — with the skip visible in the
    planner notes — and overriding the gate to 0 parallelizes the
    dimensions too."""
    from repro.workloads.snowflake import build_snowflake

    flake = build_snowflake(
        days=150, sales_rows=4_000, items=60, brands=12, stores=8
    )
    database = flake.database
    sql = (
        "SELECT r.r_name, SUM(f.f_qty) AS qty, COUNT(*) AS n "
        "FROM region r "
        "JOIN store st ON r.r_region_sk = st.st_region_sk "
        "JOIN sales f ON st.st_store_sk = f.f_store_sk "
        "GROUP BY r_name ORDER BY r_name"
    )
    plan = database.plan(sql, workers=4, use_cache=False)
    info = plan.plan_info
    labels = [label for (_, _, _, label) in info.exchanges]
    assert labels, "the fact chain must still parallelize"
    assert all("sales" in label for label in labels), (
        f"only fact chains may carry exchanges, got {labels}"
    )
    assert any("min-rows gate" in note for note in info.notes), (
        "gated dimension chains must leave a visible planner note"
    )

    import unittest.mock as mock

    with mock.patch.object(parallel_mod, "PARALLEL_MIN_ROWS", 0):
        ungated = database.plan(sql, workers=4, use_cache=False)
    ungated_labels = [label for (_, _, _, label) in ungated.plan_info.exchanges]
    assert len(ungated_labels) > len(labels), (
        "gate override must parallelize the dimension chains as well"
    )

    # The gate is a pure cost call: gated and ungated plans agree with
    # serial on rows and counters.
    serial = database.execute(sql)
    gated = database.execute(sql, workers=4)
    assert gated.rows == serial.rows
    assert gated.metrics.counters == serial.metrics.counters


# ----------------------------------------------------------------------
# Database-level wiring
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tax_db():
    database = Database("parallel-tax")
    build_taxes(database, rows=1_500)
    return database


ORDERED_SQL = (
    "SELECT income, bracket, payable FROM taxes ORDER BY bracket, payable"
)
GROUPED_SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total FROM taxes "
    "GROUP BY bracket ORDER BY bracket"
)


def test_database_parallel_matches_serial(tax_db):
    serial = tax_db.execute(ORDERED_SQL)
    for workers in (1, 2, 4):
        result = tax_db.execute(ORDERED_SQL, batch_size=13, workers=workers)
        assert result.workers == workers
        assert result.rows == serial.rows
        assert result.metrics.counters == serial.metrics.counters


def test_database_workers_defaults_to_batch_mode(tax_db):
    result = tax_db.execute(GROUPED_SQL, workers=2)
    serial = tax_db.execute(GROUPED_SQL)
    assert result.batch_size is not None  # parallel implies batch execution
    assert result.rows == serial.rows
    assert result.metrics.counters == serial.metrics.counters


def test_database_rejects_bad_worker_counts(tax_db):
    with pytest.raises(ValueError):
        tax_db.execute(GROUPED_SQL, workers=0)
    with pytest.raises(ValueError):
        tax_db.plan(GROUPED_SQL, workers=-1)
    with pytest.raises(ValueError):  # explain agrees with execute
        tax_db.explain(GROUPED_SQL, batch_size=-5, workers=2)


def test_database_backends_match_serial(tax_db):
    serial = tax_db.execute(ORDERED_SQL)
    for backend in BACKENDS:
        result = tax_db.execute(
            ORDERED_SQL, batch_size=13, workers=4, backend=backend
        )
        assert result.backend == backend
        assert result.rows == serial.rows
        assert result.metrics.counters == serial.metrics.counters


def test_database_rejects_bad_backends(tax_db):
    with pytest.raises(ValueError):
        tax_db.execute(GROUPED_SQL, workers=2, backend="greenlet")
    with pytest.raises(ValueError):  # backend= requires workers=
        tax_db.plan(GROUPED_SQL, backend="process")


def test_backends_cache_under_their_own_plan_key(tax_db):
    """The backend is part of the options' plan_key: backends never
    serve each other's plans — the exchange operators carry their
    backend — and the unspecified backend *is* the default one."""
    tax_db.plan_cache.clear()
    default_plan = tax_db.plan(ORDERED_SQL, workers=2)
    process_plan = tax_db.plan(ORDERED_SQL, workers=2, backend="process")
    assert default_plan is not process_plan
    assert tax_db.plan(ORDERED_SQL, workers=2, backend="process") is process_plan
    assert (
        tax_db.plan(ORDERED_SQL, workers=2, backend=parallel_mod.DEFAULT_BACKEND)
        is default_plan
    )
    assert tax_db.plan(ORDERED_SQL, workers=2) is default_plan


def test_backends_are_inline_and_process():
    assert BACKENDS == ("inline", "process")
    assert parallel_mod.DEFAULT_BACKEND == "inline"


def test_parallel_plans_cache_under_their_own_plan_key(tax_db):
    tax_db.plan_cache.clear()
    serial = tax_db.plan(ORDERED_SQL)
    parallel = tax_db.plan(ORDERED_SQL, workers=2)
    assert parallel is not serial, "parallel and serial plans must not mix"
    assert parallel.plan_info.cache_state == "miss"
    again = tax_db.plan(ORDERED_SQL, workers=2)
    assert again is parallel and again.plan_info.cache_state == "hit"
    other = tax_db.plan(ORDERED_SQL, workers=4)
    assert other is not parallel, "each worker count is its own plan"


def test_explain_reports_partitions_and_exchange_kind(tax_db):
    text = tax_db.explain(ORDERED_SQL, workers=4, verbose=True)
    assert "MergeExchange(4 partitions" in text
    assert "exchange: merge-exchange, 4 partitions" in text
    assert "parallel (4 workers" in text
    grouped = tax_db.explain(
        "SELECT SUM(payable) AS total FROM taxes", workers=3, verbose=True
    )
    assert "UnionExchange(3 partitions)" in grouped
    assert "exchange: union-exchange, 3 partitions" in grouped


def test_explain_reports_the_backend(tax_db):
    text = tax_db.explain(ORDERED_SQL, workers=4, backend="process", verbose=True)
    assert "parallel: 4 workers, process backend" in text
    assert "parallel (4 workers, batch size 1024, process backend)" in text
    default = tax_db.explain(ORDERED_SQL, workers=4, verbose=True)
    assert "parallel: 4 workers, inline backend" in default


# ----------------------------------------------------------------------
# Satellite: the determinism regression
# ----------------------------------------------------------------------
def test_parallel_determinism_regression(tax_db):
    """Two (and more) runs of the same parallel query must produce
    identical row order and identical Metrics counters — scheduling must
    never leak into results.  Exercised both through the plan cache (the
    same operator tree re-executed) and with fresh plans each time."""
    for sql in (ORDERED_SQL, GROUPED_SQL):
        cached = [
            tax_db.execute(sql, batch_size=13, workers=4) for _ in range(3)
        ]
        fresh = [
            tax_db.execute(sql, batch_size=13, workers=4, use_cache=False)
            for _ in range(3)
        ]
        reference = cached[0]
        for other in cached[1:] + fresh:
            assert other.rows == reference.rows, "row order drifted across runs"
            assert other.metrics.counters == reference.metrics.counters, (
                "counters drifted across runs"
            )
