"""Every logical rewrite fires, and plans, exactly as it did.

A SHA-256 digest over the statements that reach the rewrites — the
tpcds_lite date templates at fixed windows, the snowflake and skewed
snowflake sets, the rewrite-pack templates, a few edge shapes (an
empty date window, a dimension that is read, a gapped calendar behind a
foreign key, a dimension on the left, a self-join chain, ``SELECT *``)
and single-table access-path choices (competing indexes, an ORDER BY or
GROUP BY an index serves, an equality prefix of a composite key) — each
planned in ``od`` mode with the rewrites on and off, in ``fd`` and
``naive`` modes, and with the parse join order in ``od`` and ``fd``.  Per plan it hashes the physical ``explain()``, the
estimate's bits, each rewrite record's rule and ``describe()``,
``PlanInfo.facts`` and the rows.  A change to how the rewrites walk the
tree, match or record shows here first; recompute the digest on a copy of
the parent commit, never by editing the constant to match.
"""
from __future__ import annotations

import datetime
import hashlib

import pytest

from repro.core.dependency import equiv
from repro.engine.database import Database
from repro.engine.logical import bind
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

#: SHA-256 of ``_records()``.
DIGEST = "3b03241d7a25c238ebeb1189c6991e43be86683628b055daadeea1d8c887e689"

#: (mode, rewrites, join_order) — the planning regimes.
REGIMES = (
    ("od", "on", "cost"),
    ("od", "off", "cost"),
    ("fd", "on", "cost"),
    ("naive", "on", "cost"),
    ("od", "on", "syntactic"),
    ("fd", "on", "syntactic"),
)


def _gapped_calendar() -> Database:
    """A date dimension missing one day, behind a verified foreign key:
    the date rewrite's exact-range fallback."""
    base = datetime.date(2020, 1, 1)
    sks = [sk for sk in range(1, 31) if sk != 12]
    db = Database("gapped")
    dim = db.create_table(
        "date_dim", Schema.of(("d_date_sk", DataType.INT), ("d_date", DataType.DATE))
    )
    dim.load([(sk, base + datetime.timedelta(days=sk)) for sk in sks])
    db.declare("date_dim", equiv("d_date_sk", "d_date"))
    sales = db.create_table(
        "sales", Schema.of(("f_date_sk", DataType.INT), ("qty", DataType.INT))
    )
    sales.load([(sk, sk % 7) for sk in sks for _ in range(3)])
    db.declare_foreign_key("sales", ["f_date_sk"], "date_dim", ["d_date_sk"])
    return db


def _index_choice() -> Database:
    """One table with three indexes that compete for its access path:
    ``a``, ``b`` and the composite ``(c, d)``; ``e`` is declared
    order-equivalent to ``a``."""
    db = Database("index_choice")
    table = db.create_table(
        "t", Schema.of(*((name, DataType.INT) for name in "abcde"))
    )
    table.load([(i, (i * 37) % 1000, i % 10, (i * 7) % 100, 2 * i) for i in range(1_000)])
    db.declare("t", equiv("a", "e"))
    db.create_index("t_a", "t", ["a"])
    db.create_index("t_b", "t", ["b"])
    db.create_index("t_cd", "t", ["c", "d"])
    return db


#: (label, sql) over :func:`_index_choice`.
INDEX_CHOICE = (
    ("two-ranges", "SELECT a, b FROM t WHERE a BETWEEN 100 AND 400 AND b <= 300"),
    ("equality-and-range", "SELECT a, b FROM t WHERE b = 37 AND a >= 500"),
    ("order-by-index", "SELECT a, b FROM t WHERE b BETWEEN 10 AND 60 ORDER BY a"),
    ("order-by-equivalent", "SELECT e, b FROM t WHERE b >= 900 ORDER BY e"),
    (
        "group-by-partition",
        "SELECT c, COUNT(*) AS n, SUM(d) AS s FROM t WHERE a <= 600 GROUP BY c",
    ),
    (
        "composite-prefix",
        "SELECT c, d, a FROM t WHERE c = 3 AND d BETWEEN 20 AND 60 AND a >= 100",
    ),
    ("composite-prefix-order", "SELECT d FROM t WHERE c = 4 AND d >= 50 ORDER BY d"),
    (
        "indexed-join-leaves",
        "SELECT x.a, y.b FROM t x JOIN t y ON x.a = y.b "
        "WHERE x.c = 2 AND y.b BETWEEN 0 AND 500 ORDER BY x.a",
    ),
)


def _statements():
    """(label, database, sql) for every statement the digest covers."""
    tpcds = build_tpcds_lite(days=120, sales_rows=3_000)
    for first, length in ((5, 30), (40, 1), (0, 120)):
        lo, hi = tpcds.date_range(first, length)
        for qid, template in DATE_QUERIES:
            yield f"{qid}@{first}+{length}", tpcds.database, template.format(lo=lo, hi=hi)
    beyond = (tpcds.start + datetime.timedelta(days=1_000)).isoformat()
    yield "empty-window", tpcds.database, (
        "SELECT COUNT(*) AS n FROM store_sales ss "
        "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
        f"WHERE d.d_date BETWEEN DATE '{beyond}' AND DATE '{beyond}'"
    )
    lo, hi = tpcds.date_range(5, 30)
    yield "dimension-read", tpcds.database, (
        "SELECT d.d_year, COUNT(*) AS n FROM store_sales ss "
        "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
        f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}' GROUP BY d.d_year"
    )
    yield "dimension-left", tpcds.database, (
        "SELECT SUM(ss_quantity) AS q FROM date_dim d "
        "JOIN store_sales ss ON d.d_date_sk = ss.ss_sold_date_sk "
        f"WHERE d.d_date >= DATE '{lo}' AND d.d_date <= DATE '{hi}'"
    )

    gapped = _gapped_calendar()
    yield "gapped-fk", gapped, (
        "SELECT f.qty, COUNT(*) AS n FROM sales f "
        "JOIN date_dim d ON f.f_date_sk = d.d_date_sk "
        "WHERE d.d_date BETWEEN DATE '2020-01-05' AND DATE '2020-01-20' "
        "GROUP BY f.qty ORDER BY f.qty"
    )

    snowflake = build_snowflake(days=150, sales_rows=4_000, items=60, brands=12, stores=8)
    lo, hi = snowflake.date_range(20, 40)
    for qid, template, _ in SNOWFLAKE_QUERIES:
        yield qid, snowflake.database, template.format(lo=lo, hi=hi)
    for qid, sql in sorted(skewed_query_sql(snowflake).items()):
        yield qid, snowflake.database, sql

    pack = build_rewrite_pack(
        fact_rows=3_000, wide_rows=2_000, order_rows=3_000, customers=1_500
    )
    for qid, sql, _ in REWRITE_PACK_QUERIES:
        yield qid, pack, sql
    yield "self-join-chain", pack, (
        "SELECT a.w_id, b.w_a, c.w_b FROM wide a "
        "JOIN wide b ON a.w_id = b.w_id JOIN wide c ON b.w_id = c.w_id "
        "WHERE a.w_a >= 200 AND c.w_b < 800 ORDER BY a.w_id"
    )
    yield "self-join-star", pack, (
        "SELECT * FROM wide a JOIN wide b ON a.w_id = b.w_id WHERE a.w_a >= 990"
    )
    yield "fk-dimension-left", pack, (
        "SELECT o.o_cust, COUNT(*) AS n FROM cust c "
        "JOIN orders o ON c.c_id = o.o_cust GROUP BY o_cust"
    )
    yield "eager-and-elimination", pack, (
        "SELECT o.o_amount, COUNT(*) AS n, SUM(o.o_cust) AS s FROM orders o "
        "JOIN cust c ON o.o_cust = c.c_id JOIN expand x ON o.o_amount = x.x_key "
        "GROUP BY o_amount ORDER BY o_amount"
    )

    indexed = _index_choice()
    for label, sql in INDEX_CHOICE:
        yield label, indexed, sql


def _estimate(info):
    if info.estimate is None:
        return None
    estimate = info.estimate
    return (estimate.rows.hex(), estimate.cost.io.hex(), estimate.cost.cpu.hex())


def _records():
    records = []
    for label, database, sql in _statements():
        for mode, rewrites, join_order in REGIMES:
            plan = Planner(
                database, mode=mode, rewrites=rewrites, join_order=join_order
            ).plan(bind(parse(sql)))
            info = plan.plan_info
            rows, _ = plan.run()
            records.append((
                label, mode, rewrites, join_order,
                plan.explain(),
                _estimate(info),
                [("date", record.describe()) for record in info.date_rewrites],
                [(record.rule, record.describe()) for record in info.rewrites],
                [(fact.kind, fact.tables, fact.key, fact.describe()) for fact in info.facts],
                rows,
            ))
    return records


@pytest.fixture(scope="module")
def records():
    return _records()


def test_digest_unchanged(records):
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == DIGEST, digest


def test_every_rule_fires(records):
    """The digest only guards the rewrites it sees fire."""
    fired = {"date": 0}
    for record in records:
        fired["date"] += len(record[6])
        for rule, _ in record[7]:
            fired[rule] = fired.get(rule, 0) + 1
    for rule in ("date", "eager-agg", "scan-consolidation", "join-elimination"):
        assert fired.get(rule, 0) > 0, fired
