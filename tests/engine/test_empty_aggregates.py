"""Zero-row and empty-group aggregate semantics, across every mode.

The SQL contract pinned here (the headline fix of the empty-input SUM
bug, generalized to the whole aggregate matrix):

* an **ungrouped** aggregate over zero rows emits exactly one row:
  COUNT is 0, SUM / MIN / MAX / AVG are NULL;
* a **grouped** aggregate over zero rows emits zero rows (no groups —
  never a fabricated NULL group);

and both must hold identically at every batch size and under parallel
execution, through Hash and Stream aggregate operators, with the plan
cache hot or bypassed, and with the rewrite pack on or off.
"""
from __future__ import annotations

import pytest
from unittest import mock

from repro.core.dependency import fd
from repro.engine import parallel as parallel_mod
from repro.engine.database import Database
from repro.engine.expr import Col
from repro.engine.operators import (
    AggSpec,
    HashAggregate,
    SeqScan,
    StreamAggregate,
)
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType

ALL_FUNCS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

AGG_SELECT = (
    "COUNT(*) AS n, SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx, AVG(v) AS av"
)

#: One row out, COUNT 0, everything else NULL.
EMPTY_GLOBAL = (0, None, None, None, None)


@pytest.fixture(scope="module")
def db():
    database = Database("emptyagg")
    table = database.create_table(
        "t",
        Schema.of(("k", DataType.INT), ("g", DataType.INT), ("v", DataType.INT)),
    )
    table.load((i, i % 3, i * 10) for i in range(50))
    table.declare(fd("k", "g,v"))
    database.create_index("t_k", "t", ["k"], clustered=True)
    return database


def _all_modes(database, sql):
    """Execute ``sql`` every way the engine can and yield (label, rows)."""
    yield "default", database.execute(sql).rows
    yield "nocache", database.execute(sql, use_cache=False).rows
    yield "fd", database.execute(sql, optimize=False).rows
    yield "norw", database.execute(sql, rewrites="off").rows
    for batch_size in (1, 3, 1024):
        yield (
            f"batch[{batch_size}]",
            database.execute(sql, batch_size=batch_size).rows,
        )
    with mock.patch.object(parallel_mod, "PARALLEL_MIN_ROWS", 0):
        yield (
            "parallel[w2]",
            database.execute(sql, batch_size=7, workers=2).rows,
        )


def test_global_aggregates_over_zero_rows(db):
    sql = f"SELECT {AGG_SELECT} FROM t WHERE v < 0"
    for label, rows in _all_modes(db, sql):
        assert rows == [EMPTY_GLOBAL], (
            f"{label}: global aggregate over zero rows must be "
            f"{EMPTY_GLOBAL}, got {rows}"
        )


def test_grouped_aggregates_over_zero_rows(db):
    sql = f"SELECT g, {AGG_SELECT} FROM t WHERE v < 0 GROUP BY g"
    for label, rows in _all_modes(db, sql):
        assert rows == [], (
            f"{label}: grouped aggregate over zero rows must emit no "
            f"groups, got {rows}"
        )


def test_grouped_aggregates_by_clustered_key_over_zero_rows(db):
    """Grouping by the clustered key steers the planner to a
    StreamAggregate — the empty contract must hold there too."""
    sql = f"SELECT k, {AGG_SELECT} FROM t WHERE v < 0 GROUP BY k"
    for label, rows in _all_modes(db, sql):
        assert rows == [], f"{label}: expected no groups, got {rows}"


def test_nonempty_groups_never_fabricate_nulls(db):
    """The empty-SUM guard must not leak NULLs into real groups."""
    sql = f"SELECT g, {AGG_SELECT} FROM t GROUP BY g ORDER BY g"
    expected = None
    for label, rows in _all_modes(db, sql):
        assert all(None not in row for row in rows), label
        if expected is None:
            expected = rows
        else:
            assert sorted(rows, key=repr) == sorted(expected, key=repr), label


@pytest.mark.parametrize("operator", [HashAggregate, StreamAggregate])
@pytest.mark.parametrize("func", ALL_FUNCS)
def test_operator_level_empty_input(operator, func):
    """Each function × each aggregate operator, straight at the operator
    layer (no planner in the way)."""
    table = Table("e", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    table.load((), check=False)
    expr = None if func == "COUNT" else Col("b")
    spec = AggSpec(func, expr, "x")

    rows, _ = operator(SeqScan(table), [], [spec]).run()
    assert rows == ([(0,)] if func == "COUNT" else [(None,)])

    grouped_rows, _ = operator(SeqScan(table), ["a"], [spec]).run()
    assert grouped_rows == []


@pytest.mark.parametrize("operator", [HashAggregate, StreamAggregate])
def test_operator_level_empty_input_batched(operator):
    table = Table("e", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    table.load((), check=False)
    specs = [AggSpec("COUNT", None, "n"), AggSpec("SUM", Col("b"), "s")]
    rows, _ = operator(SeqScan(table), [], specs).run(8)
    assert rows == [(0, None)]
    grouped, _ = operator(SeqScan(table), ["a"], specs).run(8)
    assert grouped == []
