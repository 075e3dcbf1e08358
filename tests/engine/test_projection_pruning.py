"""Scans carry only the columns their query reads.

The planner walks the rewritten logical tree once and hands every scan
the bare columns referenced through its alias; an index scan adds its
key columns, and no scan keeps fewer than one column.  These tests pin:

* every scan of the snowflake, tpcds-lite and rewrite-pack statements
  reads exactly its alias's referenced columns plus its index keys, and
  nothing the SQL text does not name;
* ``SELECT *`` turns pruning off;
* shapes that read a column in only one place (ORDER BY, WHERE, ON), no
  column at all, or through two aliases of one table, and the rewrites
  that move references (FD join elimination, eager aggregation), still
  agree with sqlite at batch sizes 1, 3 and 1024;
* a batch an all-true ``Filter`` passed through is never aliased to the
  table's live column lists.
"""
from __future__ import annotations

import re
import sqlite3

import pytest

from repro.engine.batch import ColumnBatch
from repro.engine.database import Database
from repro.engine.expr import Cmp, Col, Lit
from repro.engine.logical import bind
from repro.engine.operators import Filter, IndexScan, SeqScan
from repro.engine.operators.base import Metrics
from repro.engine.schema import Schema
from repro.engine.sql.parser import parse
from repro.engine.types import DataType
from repro.optimizer.planner import Planner
from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES, build_rewrite_pack
from repro.workloads.snowflake import (
    SNOWFLAKE_QUERIES,
    build_snowflake,
    skewed_query_sql,
)
from repro.workloads.tpcds_lite import DATE_QUERIES, build_tpcds_lite


def _scans(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (SeqScan, IndexScan)):
            yield node
        stack.extend(node.children())


def _plan(database, sql):
    planner = Planner(database)
    return planner, planner.plan(bind(parse(sql)))


class _Unpruned(Planner):
    """The same planner with every scan reading every column."""

    def scan_columns(self, alias):
        return None


def _bits(run):
    rows, metrics = run
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows
    ], metrics.counters


def _expected_columns(scan, read):
    """Table order over the read columns plus the index keys; the first
    column when that is empty."""
    keys = scan.index.key_columns if isinstance(scan, IndexScan) else ()
    wanted = set(read) | set(keys)
    names = scan.table.schema.names
    return tuple(n for n in names if n in wanted) or names[:1]


# ----------------------------------------------------------------------
# The workload statements
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def snowflake():
    return build_snowflake(days=150, sales_rows=4_000, items=60, brands=12, stores=8)


@pytest.fixture(scope="module")
def tpcds():
    return build_tpcds_lite(days=180, sales_rows=5_000, items=40, stores=6)


@pytest.fixture(scope="module")
def rewrite_db():
    return build_rewrite_pack(
        fact_rows=3_000, wide_rows=2_000, order_rows=3_000, customers=1_500
    )


def _workload_statements(snowflake, tpcds, rewrite_db):
    lo, hi = snowflake.date_range(30, 40)
    for qid, template, _ in SNOWFLAKE_QUERIES:
        yield qid, snowflake.database, template.format(lo=lo, hi=hi)
    for qid, sql in skewed_query_sql(snowflake).items():
        yield qid, snowflake.database, sql
    lo, hi = tpcds.date_range(30, 45)
    for qid, template in DATE_QUERIES:
        yield qid, tpcds.database, template.format(lo=lo, hi=hi)
    for qid, sql, _ in REWRITE_PACK_QUERIES:
        yield qid, rewrite_db, sql


def test_workload_scans_read_exactly_their_columns(snowflake, tpcds, rewrite_db):
    pruned = 0
    for qid, database, sql in _workload_statements(snowflake, tpcds, rewrite_db):
        planner, plan = _plan(database, sql)
        named = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sql))
        for scan in _scans(plan):
            read = planner.read_columns[scan.alias]
            assert scan.columns == _expected_columns(scan, read), qid
            assert scan.schema.names == tuple(
                f"{scan.alias}.{name}" for name in scan.columns
            ), qid
            keys = scan.index.key_columns if isinstance(scan, IndexScan) else ()
            # Nothing beyond what the statement names (or the index keys).
            assert set(scan.columns) <= named | set(keys) | {
                scan.table.schema.names[0]
            }, qid
            pruned += len(scan.columns) < len(scan.table.schema)
        # Pruning changes no row, float bit or counter.
        unpruned = _Unpruned(database).plan(bind(parse(sql)))
        assert unpruned.explain() == plan.explain(), qid
        assert _bits(plan.run(3)) == _bits(unpruned.run(3)), qid
    assert pruned >= 20


def test_date_rewrite_statements_read_only_their_fact_columns(tpcds):
    lo, hi = tpcds.date_range(30, 45)
    templates = dict(DATE_QUERIES)
    expected = {
        "Q5": ("ss_sold_date_sk", "ss_item_sk", "ss_sales_price"),
        "Q8": ("ss_sold_date_sk", "ss_customer_sk"),
        "Q9": ("ss_sold_date_sk", "ss_item_sk", "ss_store_sk", "ss_quantity"),
    }
    for qid, columns in expected.items():
        _, plan = _plan(tpcds.database, templates[qid].format(lo=lo, hi=hi))
        (fact,) = [scan for scan in _scans(plan) if scan.alias == "ss"]
        assert isinstance(fact, IndexScan), qid
        assert fact.columns == columns, qid
        sql = templates[qid].format(lo=lo, hi=hi)
        text = tpcds.database.explain(sql, verbose=True)
        assert f"scan columns: ss reads {', '.join(columns)} ({len(columns)} of 7)" in text
        assert "AS ss [" in fact.label() and "reads" not in fact.label()
        events = tpcds.database.execute(sql, trace=True).trace["traceEvents"]
        (span,) = [e for e in events if e["name"] == "IndexScan"]
        assert span["args"]["columns"] == ", ".join(columns)


def test_select_star_scans_are_unpruned(snowflake):
    sql = (
        "SELECT * FROM sales f JOIN store st ON f.f_store_sk = st.st_store_sk "
        "WHERE st.st_region_sk = 1"
    )
    planner, plan = _plan(snowflake.database, sql)
    assert planner.read_columns is None
    for scan in _scans(plan):
        assert scan.columns == scan.table.schema.names
    assert "scan columns:" not in snowflake.database.explain(sql, verbose=True)


# ----------------------------------------------------------------------
# Hostile shapes, checked against sqlite
# ----------------------------------------------------------------------
TABLES = {
    "t": (("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT),
          ("d", DataType.FLOAT)),
    "u": (("k", DataType.INT), ("v", DataType.INT), ("w", DataType.FLOAT)),
}


@pytest.fixture(scope="module")
def hostile():
    database = Database("pruning")
    rows = {
        "t": [(i % 11, (i * 7) % 5, (i * 3) % 13, i * 0.25) for i in range(300)],
        "u": [(k, (k * 5) % 7, k * 1.5) for k in range(5)],
    }
    mirror = sqlite3.connect(":memory:")
    for name, columns in TABLES.items():
        database.create_table(name, Schema.of(*columns)).load(rows[name])
        mirror.execute(f"CREATE TABLE {name} ({', '.join(c for c, _ in columns)})")
        marks = ", ".join("?" for _ in columns)
        mirror.executemany(f"INSERT INTO {name} VALUES ({marks})", rows[name])
    database.create_index("t_a", "t", ["a"], clustered=True)
    database.create_index("u_k", "u", ["k"], clustered=True)
    yield database, mirror
    mirror.close()


#: (sql, alias -> expected scan columns).  Every ORDER BY here leaves no
#: ties among distinct output rows, so sqlite's sequence is the answer.
HOSTILE = (
    ("SELECT c FROM t ORDER BY b, c", {"t": {"b", "c"}}),
    ("SELECT a FROM t WHERE c > 6", {"t": {"a", "c"}}),
    (
        "SELECT t.a, u.v FROM t JOIN u ON t.b = u.k",
        {"t": {"a", "b"}, "u": {"k", "v"}},
    ),
    ("SELECT COUNT(*) AS n FROM t", {"t": {"a"}}),
    ("SELECT COUNT(*) AS n FROM t WHERE d > 10.0", {"t": {"d"}}),
    (
        "SELECT x.a, y.d FROM t x JOIN t y ON x.c = y.c WHERE x.b = 1",
        {"x": {"a", "b", "c"}, "y": {"c", "d"}},
    ),
    ("SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY b", {"t": {"b", "c"}}),
    (
        "SELECT a, COUNT(*) AS n FROM t WHERE a BETWEEN 2 AND 5 GROUP BY a "
        "HAVING SUM(c) > 10 ORDER BY a",
        {"t": {"a", "c"}},
    ),
)


def _assert_agrees(database, mirror, sql, order=()):
    """Every mode at batch sizes 1, 3 and 1024 returns sqlite's multiset
    (its sequence, for an ORDER BY without ties), honours ``order`` and
    gives one plan's rows and counters at every batch size."""
    reference = mirror.execute(sql).fetchall()
    expected = sorted(reference)
    for mode in ("naive", "fd", "od"):
        plan = Planner(database, mode=mode).plan(bind(parse(sql)))
        first = None
        for batch_size in (1, 3, 1024):
            rows, metrics = plan.run(batch_size)
            assert sorted(rows) == expected, (mode, batch_size, sql)
            if "ORDER BY" in sql and not order:
                assert rows == reference, (mode, batch_size, sql)
            if order:
                positions = [plan.schema.position(plan.schema.resolve(c)) for c in order]
                keys = [tuple(row[p] for p in positions) for row in rows]
                assert keys == sorted(keys), (mode, batch_size, sql)
            if first is None:
                first = (rows, metrics.counters)
            else:
                assert (rows, metrics.counters) == first, (mode, batch_size, sql)


@pytest.mark.parametrize("sql,expected", HOSTILE, ids=[h[0] for h in HOSTILE])
def test_hostile_shapes_agree_with_sqlite(hostile, sql, expected):
    database, mirror = hostile
    _assert_agrees(database, mirror, sql)
    _, plan = _plan(database, sql)
    by_alias = {scan.alias: set(scan.columns) for scan in _scans(plan)}
    assert by_alias == expected


def _mirror_of(database):
    mirror = sqlite3.connect(":memory:")
    for name, table in database.tables.items():
        mirror.execute(f"CREATE TABLE {name} ({', '.join(table.schema.names)})")
        marks = ", ".join("?" for _ in table.schema)
        mirror.executemany(f"INSERT INTO {name} VALUES ({marks})", table.rows)
    return mirror


@pytest.mark.parametrize(
    "qid,rule,expected",
    [
        ("RW1", "eager-agg", {"f": {"f_key", "f_grp", "f_val"}, "x": {"x_key"}}),
        ("RW2", "scan-consolidation", {"a": {"w_id", "w_a", "w_b"}}),
        ("RW3", "join-elimination", {"o": {"o_cust", "o_amount"}}),
    ],
)
def test_rewrites_that_move_references(rewrite_db, qid, rule, expected):
    """Eager aggregation renames what its final stage reads
    (``__partial_n``), consolidation renames one alias to the other, and
    FD join elimination drops a join key: the scans read what remains."""
    _, sql, order = {q[0]: q for q in REWRITE_PACK_QUERIES}[qid]
    _, plan = _plan(rewrite_db, sql)
    assert any(r.rule == rule for r in plan.plan_info.rewrites), plan.plan_info.rewrites
    assert {scan.alias: set(scan.columns) for scan in _scans(plan)} == expected
    mirror = _mirror_of(rewrite_db)
    try:
        _assert_agrees(rewrite_db, mirror, sql, order)
    finally:
        mirror.close()


# ----------------------------------------------------------------------
# The all-true Filter pass-through and the aliasing rule
# ----------------------------------------------------------------------
def test_all_true_filter_returns_its_input_batch():
    schema = Schema.of(("a", DataType.INT), ("b", DataType.INT))
    batch = ColumnBatch(schema, [[1, 2, 3], [4, 5, 6]], 3)
    assert batch.filter([True, True, True]) is batch
    kept = batch.filter([True, False, True])
    assert kept is not batch and kept.to_rows() == [(1, 4), (3, 6)]


@pytest.mark.parametrize("batch_size", [4, 1024])
def test_passed_through_batch_survives_a_later_load(batch_size):
    """The rule that makes the pass-through safe: a scan never hands out
    the table's live column lists, not even when one batch covers the
    whole table, so a later append cannot grow a batch already emitted."""
    database = Database("alias")
    table = database.create_table(
        "s", Schema.of(("a", DataType.INT), ("b", DataType.INT))
    )
    table.load([(i, i * 2) for i in range(10)])
    plan = Filter(SeqScan(table, columns=["a"]), Cmp(">=", Col("s.a"), Lit(0)))
    batches = list(plan.execute_batches(Metrics(), batch_size))
    before = [batch.to_rows() for batch in batches]
    assert all(len(batch.columns) == 1 for batch in batches)
    table.load([(i, 0) for i in range(10, 20)])
    table.columnar()  # the next reader extends the live lists in place
    assert [batch.to_rows() for batch in batches] == before
    assert sum(len(batch) for batch in batches) == 10
