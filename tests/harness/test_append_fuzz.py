"""Append fuzz with the plan cache on, checked against sqlite.

A cached plan now survives appends: it is dropped only when a catalog
change, a read table's shrink or growth past ``REPLAN_GROWTH``, or a
broken fact says so (``repro.optimizer.plan_cache``).  This harness is
the gate on that contract.  Each seeded run plants the dependencies the
paper's rewrites need — a contiguous date dimension with ``[sk] ↔ [d]``
declared, a fact with declared FKs, a unique-key dimension and an
OD-constrained table — then draws appends at random, some of which break
a planted fact, and after every step runs statements shaped like the
workloads' (a date-range join with a grouped dimension, an eliminable
dimension join, a self-join on the unique key, ORDER BY over the OD
column).  The checks, after every step:

* every cached answer equals sqlite's as a multiset (sqlite shares no
  code with the engine — the black-box method of "Efficient Black-box
  Checking of Snapshot Isolation");
* an ORDER BY holds as a sequence;
* the cached answer equals a ``use_cache=False`` plan's.

An append that must fail — an OD-violating row, a mistyped row — must
raise and leave the table exactly as it was.  Each run asserts that it
reached what it tests: hits served after an append, ``fact_invalidations``,
``growth_replans``, and every rewrite the statements are built for.
``REPRO_DIFF_BATCH_SIZES`` widens the batch sizes the cached plans run at.
"""
from __future__ import annotations

import datetime
import os
import random
from collections import Counter

import pytest

from repro.core.dependency import equiv, fd, od
from repro.engine.database import Database
from repro.engine.schema import Schema
from repro.engine.table import ConstraintViolation
from repro.engine.types import DataType, TypeError_
from repro.optimizer.plan_cache import REPLAN_GROWTH

from test_oracle import _canon, _to_sqlite, _translate, sqlite_mirror

BATCH_SIZES = tuple(
    int(size)
    for size in os.environ.get("REPRO_DIFF_BATCH_SIZES", "7,256").split(",")
    if size.strip()
)

START = datetime.date(2024, 1, 1)
SK_BASE = 1000
DAYS = 60
ITEMS = 12
STEPS = 36


def _day(i: int) -> datetime.date:
    return START + datetime.timedelta(days=i)


def _statements():
    """(name, sql, ORDER BY column or None).  The date ranges sit in the
    middle and at the end of the calendar, so appended dimension rows move
    the second one's bounds."""
    mid_lo, mid_hi = _day(10), _day(29)
    end_lo, end_hi = _day(DAYS - 12), _day(DAYS + 40)
    return [
        ("date-grouped", f"""
            SELECT i.i_cat, SUM(s.s_qty) AS q, COUNT(*) AS n
            FROM sales s
            JOIN date_dim d ON s.s_date_sk = d.d_date_sk
            JOIN item i ON s.s_item_sk = i.i_item_sk
            WHERE d.d_date BETWEEN DATE '{mid_lo}' AND DATE '{mid_hi}'
            GROUP BY i.i_cat
        """, None),
        ("date-tail", f"""
            SELECT s.s_id, s.s_qty
            FROM sales s JOIN date_dim d ON s.s_date_sk = d.d_date_sk
            WHERE d.d_date BETWEEN DATE '{end_lo}' AND DATE '{end_hi}'
        """, None),
        ("eliminable", """
            SELECT s.s_item_sk, COUNT(*) AS n, SUM(s.s_qty) AS q
            FROM sales s JOIN item i ON s.s_item_sk = i.i_item_sk
            GROUP BY s_item_sk
        """, None),
        ("self-join", """
            SELECT a.i_item_sk, b.i_cat
            FROM item a JOIN item b ON a.i_item_sk = b.i_item_sk
            WHERE a.i_cat <= 2
        """, None),
        ("od-order", "SELECT l_a, l_b FROM ledger ORDER BY l_b", "l_b"),
    ]


def _build(rng: random.Random) -> Database:
    database = Database("appendfuzz")
    date_dim = database.create_table(
        "date_dim", Schema.of(("d_date_sk", DataType.INT), ("d_date", DataType.DATE))
    )
    date_dim.load([(SK_BASE + i, _day(i)) for i in range(DAYS)])
    database.declare("date_dim", equiv("d_date_sk", "d_date"))
    database.create_index("date_dim_sk", "date_dim", ["d_date_sk"], clustered=True)

    item = database.create_table(
        "item", Schema.of(("i_item_sk", DataType.INT), ("i_cat", DataType.INT))
    )
    item.load([(i, i % 4) for i in range(ITEMS)])
    database.declare("item", fd("i_item_sk", "i_cat"))

    sales = database.create_table(
        "sales",
        Schema.of(
            ("s_id", DataType.INT),
            ("s_date_sk", DataType.INT),
            ("s_item_sk", DataType.INT),
            ("s_qty", DataType.INT),
        ),
    )
    sales.load([_sale(rng, i) for i in range(150)])
    database.declare_foreign_key("sales", ["s_date_sk"], "date_dim", ["d_date_sk"])
    database.declare_foreign_key("sales", ["s_item_sk"], "item", ["i_item_sk"])

    ledger = database.create_table(
        "ledger", Schema.of(("l_a", DataType.INT), ("l_b", DataType.INT))
    )
    ledger.load([(i, 10 * i + rng.randrange(10)) for i in range(0, 80, 2)])
    database.declare("ledger", od("l_a", "l_b"))
    database.create_index("ledger_a", "ledger", ["l_a"], clustered=True)
    return database


def _sale(rng: random.Random, sale_id: int, date_sk=None, item_sk=None) -> tuple:
    return (
        sale_id,
        SK_BASE + rng.randrange(DAYS) if date_sk is None else date_sk,
        rng.randrange(ITEMS) if item_sk is None else item_sk,
        rng.randint(1, 9),
    )


class _Run:
    """One seeded history: the database, its sqlite mirror, and what the
    history reached."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.database = _build(self.rng)
        self.mirror = sqlite_mirror(self.database)
        self.statements = _statements()
        self.reached = Counter()

    # -- appends ---------------------------------------------------------
    def load(self, table_name: str, rows) -> None:
        self.database.table(table_name).load(rows)
        placeholders = ", ".join("?" for _ in rows[0])
        self.mirror.executemany(
            f'INSERT INTO "{table_name}" VALUES ({placeholders})',
            ([_to_sqlite(v) for v in row] for row in rows),
        )

    def next_sale_id(self) -> int:
        return len(self.database.table("sales").rows) + 10_000

    def dim_tail(self):
        return max(self.database.table("date_dim").rows)

    def append_valid_sales(self) -> None:
        self.load("sales", [_sale(self.rng, self.next_sale_id() + i) for i in range(3)])

    def append_orphan_sale(self) -> None:
        orphan = {"s_item_sk": ITEMS + 100 + self.rng.randrange(5)}
        if self.rng.random() < 0.3:
            orphan = {"s_date_sk": SK_BASE - 5 - self.rng.randrange(5)}
        sale = _sale(
            self.rng, self.next_sale_id(),
            date_sk=orphan.get("s_date_sk"), item_sk=orphan.get("s_item_sk"),
        )
        self.load("sales", [sale])

    def append_gap(self) -> None:
        """A dimension row two days past the tail opens a surrogate gap;
        a fact row lands in the gap, an orphan."""
        sk, day = self.dim_tail()
        self.load("date_dim", [(sk + 2, day + datetime.timedelta(days=2))])
        self.load("sales", [_sale(self.rng, self.next_sale_id(), date_sk=sk + 1)])

    def append_duplicate_key(self) -> None:
        if self.rng.random() < 0.7:
            self.load("date_dim", [self.rng.choice(self.database.table("date_dim").rows)])
        else:
            self.load("item", [self.rng.choice(self.database.table("item").rows)])

    def append_dimension_tail(self) -> None:
        """Next days at the tail: the tail range's bounds move."""
        sk, day = self.dim_tail()
        self.load("date_dim", [
            (sk + i, day + datetime.timedelta(days=i)) for i in (1, 2)
        ])
        self.load("sales", [
            _sale(self.rng, self.next_sale_id(), date_sk=sk + 1),
            _sale(self.rng, self.next_sale_id() + 1, date_sk=sk + 2),
        ])

    def append_rejected(self) -> None:
        """An OD-violating row, or a mistyped one behind a valid row: each
        raises and leaves the table exactly as it was."""
        ledger = self.database.table("ledger")
        before = list(ledger.rows)
        top_a, top_b = max(ledger.rows)
        if self.rng.random() < 0.5:
            rows, error = [(top_a + 1, top_b - 1)], ConstraintViolation
        else:
            rows, error = [(top_a + 1, top_b + 1), (top_a + 2, "x")], TypeError_
        with pytest.raises(error):
            ledger.load(rows)
        assert ledger.rows == before
        self.reached["rejected"] += 1

    def append_bulk(self) -> None:
        """More valid fact rows than ``REPLAN_GROWTH`` allows."""
        count = int(len(self.database.table("sales").rows) * REPLAN_GROWTH) + 5
        self.load("sales", [
            _sale(self.rng, self.next_sale_id() + i) for i in range(count)
        ])
        ledger = self.database.table("ledger")
        top_a, top_b = max(ledger.rows)
        count = int(len(ledger.rows) * REPLAN_GROWTH) + 2
        self.load("ledger", [(top_a + 1 + i, top_b + 5 * (i + 1)) for i in range(count)])

    APPENDS = (
        (append_valid_sales, 5),
        (append_orphan_sale, 2),
        (append_gap, 1),
        (append_duplicate_key, 1),
        (append_dimension_tail, 2),
        (append_rejected, 2),
        (append_bulk, 1),
    )

    def step(self) -> None:
        appends, weights = zip(*self.APPENDS)
        self.rng.choices(appends, weights)[0](self)

    # -- checks ----------------------------------------------------------
    def check(self, label: str) -> None:
        database = self.database
        for name, sql, order in self.statements:
            before = database.plan_cache_stats()["hits"]
            cached = database.execute(sql)
            info = cached.plan.plan_info
            if database.plan_cache_stats()["hits"] > before:
                if any(
                    len(database.table(table).rows) != rows
                    for table, rows in info.planned_rows.items()
                ):
                    self.reached["served-after-append"] += 1
            for record in info.date_rewrites:
                self.reached["date-rewrite"] += 1
            for record in info.rewrites:
                self.reached[record.rule] += 1
            self.reached["sorts-avoided"] += info.avoided_sorts
            where = f"{label} {name}"
            theirs = self.mirror.execute(_translate(sql)).fetchall()
            assert _canon(cached.rows) == _canon(theirs), f"{where}: differs from sqlite"
            fresh = database.execute(sql, use_cache=False)
            assert _canon(cached.rows) == _canon(fresh.rows), (
                f"{where}: cached plan differs from a fresh plan"
            )
            for batch_size in BATCH_SIZES:
                batched = database.execute(sql, batch_size=batch_size)
                assert batched.rows == cached.rows, f"{where}: batch {batch_size}"
            if order is not None:
                position = list(cached.columns).index(order)
                keys = [row[position] for row in cached.rows]
                assert keys == sorted(keys), f"{where}: ORDER BY {order} broken"


@pytest.mark.parametrize("seed", range(4))
def test_appends_with_the_plan_cache_on_agree_with_sqlite(seed):
    run = _Run(seed)
    run.check("initial")
    for step in range(STEPS):
        run.step()
        run.check(f"seed {seed} step {step}")
    counters = run.database.plan_cache_stats()
    reached = dict(run.reached)
    assert reached.get("served-after-append", 0) > 0, reached
    assert counters["fact_invalidations"] > 0, counters
    assert counters["growth_replans"] > 0, counters
    for rule in ("date-rewrite", "join-elimination", "scan-consolidation",
                 "sorts-avoided", "rejected"):
        assert reached.get(rule, 0) > 0, (rule, reached)
