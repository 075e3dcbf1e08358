"""Differential fuzzing: random SQL must agree across all planner modes.

Generates random (but valid) queries over a fixed schema with declared
ODs, runs each through the naive / fd / od planners, and checks:

* identical result multisets, equal to sqlite's on a mirror of the
  table (an independent SQL implementation);
* any ORDER BY is actually honored by every mode's output;
* the od plan never does more work than the naive plan.

On top of the planner-mode matrix, the *execution* matrix: every
generated query must be **bit- and counter-identical** across batch
sizes (1, 3, 1024 and a drawn one) and parallel execution (drawn
``workers``) — including the degenerate databases (empty tables, tables
smaller than the partition count) where partition slices go empty.

This is the broadest correctness net over the whole engine + optimizer
stack: any unsound rewrite shows up as a row mismatch.
"""
from __future__ import annotations

import random
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dependency import fd, od
from repro.engine.database import Database
from repro.engine.logical import bind
from repro.engine.schema import Schema
from repro.engine.sql.parser import parse
from repro.engine.types import DataType
from repro.optimizer.planner import Planner

COLUMNS = ("a", "b", "c", "mono", "grp")


def build_db() -> Database:
    rng = random.Random(99)
    database = Database()
    table = database.create_table(
        "t",
        Schema.of(
            ("a", DataType.INT),
            ("b", DataType.INT),
            ("c", DataType.INT),
            ("mono", DataType.INT),   # mono = 3*a + 1 (ordered by a)
            ("grp", DataType.INT),    # grp = a % 4 (determined by a)
        ),
    )
    rows = []
    for _ in range(400):
        a = rng.randint(0, 50)
        rows.append((a, rng.randint(0, 20), rng.randint(0, 20), 3 * a + 1, a % 4))
    table.load(rows)
    table.declare(od("a", "mono"))
    table.declare(od("mono", "a"))
    table.declare(fd("a", "mono,grp"))
    database.create_index("t_a", "t", ["a", "b"], clustered=True)
    database.create_index("t_mono", "t", ["mono"])
    return database


DB = build_db()

SQLITE = sqlite3.connect(":memory:")
SQLITE.execute(f"CREATE TABLE t ({', '.join(COLUMNS)})")
SQLITE.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", DB.tables["t"].rows)


def sqlite_rows(sql):
    return sorted(SQLITE.execute(sql).fetchall())

comparisons = st.sampled_from(["=", "<", "<=", ">", ">=", "<>"])
columns = st.sampled_from(COLUMNS)
values = st.integers(0, 55)


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["cmp", "between", "in"]))
    column = draw(columns)
    if kind == "cmp":
        return f"{column} {draw(comparisons)} {draw(values)}"
    if kind == "between":
        low, high = sorted((draw(values), draw(values)))
        return f"{column} BETWEEN {low} AND {high}"
    chosen = draw(st.lists(values, min_size=1, max_size=3))
    return f"{column} IN ({', '.join(map(str, chosen))})"


@st.composite
def queries(draw):
    where = ""
    conjuncts = draw(st.lists(predicates(), max_size=2))
    if conjuncts:
        where = " WHERE " + " AND ".join(conjuncts)
    grouped = draw(st.booleans())
    if grouped:
        group_columns = draw(
            st.lists(columns, min_size=1, max_size=2, unique=True)
        )
        select = ", ".join(group_columns) + ", COUNT(*) AS n, SUM(b) AS s"
        tail = f" GROUP BY {', '.join(group_columns)}"
        orderable = list(group_columns)
    else:
        select = "a, b, c, mono, grp"
        tail = ""
        orderable = list(COLUMNS)
    order_columns = draw(st.lists(st.sampled_from(orderable), max_size=2, unique=True))
    if order_columns:
        tail += f" ORDER BY {', '.join(order_columns)}"
    return f"SELECT {select} FROM t{where}{tail}", order_columns


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(queries())
def test_modes_agree(query):
    sql, order_columns = query
    outputs = {}
    for mode in ("naive", "fd", "od"):
        plan = Planner(DB, mode=mode).plan(bind(parse(sql)))
        rows, metrics = plan.run()
        outputs[mode] = (rows, metrics)
        # any ORDER BY must actually hold in the emitted order
        if order_columns:
            positions = [plan.schema.position(plan.schema.resolve(c)) for c in order_columns]
            keys = [tuple(row[i] for i in positions) for row in rows]
            assert keys == sorted(keys), f"{mode} violated ORDER BY for {sql}"
    naive_rows = sorted(outputs["naive"][0])
    assert naive_rows == sqlite_rows(sql), sql
    assert sorted(outputs["fd"][0]) == naive_rows, sql
    assert sorted(outputs["od"][0]) == naive_rows, sql


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    queries(),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 7, 64]),
)
def test_parallel_mode_agrees(query, workers, batch_size):
    """Serial runs of one od plan at batch sizes 1, 3, 1024 and the drawn
    one, and a parallel run at the drawn (workers, batch_size), must be
    bit-identical (same rows, same order) and counter-identical — and
    hold sqlite's row multiset."""
    sql, _ = query
    serial_plan = Planner(DB, mode="od").plan(bind(parse(sql)))
    rows, metrics = serial_plan.run(1024)
    assert sorted(rows) == sqlite_rows(sql), sql
    for size in (1, 3, batch_size):
        rows_at, metrics_at = serial_plan.run(size)
        assert rows_at == rows, f"batch_size={size}: {sql}"
        assert metrics_at.counters == metrics.counters, f"batch_size={size}: {sql}"

    parallel_plan = Planner(DB, mode="od", workers=workers).plan(bind(parse(sql)))
    rows_parallel, metrics_parallel = parallel_plan.run(batch_size)
    assert rows_parallel == rows, f"workers={workers}: {sql}"
    assert metrics_parallel.counters == metrics.counters, (
        f"workers={workers}: {sql}"
    )


def _edge_db(rows) -> Database:
    database = Database()
    table = database.create_table(
        "e", Schema.of(("a", DataType.INT), ("b", DataType.INT))
    )
    table.load(rows)
    database.create_index("e_a", "e", ["a"], clustered=True)
    return database


EDGE_SQL = (
    "SELECT a, b FROM e ORDER BY a",
    "SELECT a, COUNT(*) AS n FROM e GROUP BY a ORDER BY a",
    "SELECT COUNT(*) AS n, SUM(b) AS s FROM e",
    "SELECT DISTINCT b FROM e",
    "SELECT a, b FROM e WHERE a >= 1 ORDER BY a",
)


@pytest.mark.parametrize(
    "rows",
    [[], [(1, 2)], [(2, 1), (1, 2), (1, 0)]],
    ids=["empty", "single-row", "fewer-rows-than-partitions"],
)
def test_parallel_edge_tables(rows):
    """Empty tables and single-row partitions: every partition slice may
    be empty, and the matrix must still agree exactly."""
    database = _edge_db(rows)
    for sql in EDGE_SQL:
        serial = database.execute(sql)
        for workers in (1, 2, 4, 5):
            for batch_size in (1, 7):
                result = database.execute(
                    sql, batch_size=batch_size, workers=workers
                )
                label = f"{sql} workers={workers} batch={batch_size}"
                assert result.rows == serial.rows, label
                assert result.metrics.counters == serial.metrics.counters, label


@settings(max_examples=40, deadline=None)
@given(queries())
def test_od_mode_never_worse_than_naive(query):
    sql, _ = query
    work = {}
    for mode in ("naive", "od"):
        plan = Planner(DB, mode=mode).plan(bind(parse(sql)))
        _, metrics = plan.run()
        work[mode] = metrics.work
    # allow a tiny tolerance: an index probe charge on an empty range
    assert work["od"] <= work["naive"] * 1.05 + 10, sql
