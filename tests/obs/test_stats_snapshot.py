"""The unified metrics registry: ``Database.stats_snapshot()``, the
monotonic-counter contract, the slow-query ring, the lifetime exchange
totals, and the ``Metrics.work`` recomputation cache."""
from __future__ import annotations

import re

import pytest

from repro.engine.errors import QueryTimeout
from repro.engine.operators.base import Metrics
from repro.obs.registry import RING_SIZE, EngineMetrics

SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total "
    "FROM fact WHERE income > 1000 GROUP BY bracket ORDER BY bracket"
)

SECTIONS = ("epoch", "engine", "plan_cache", "theory_cache", "exchange",
            "maintenance", "pair_selectivity", "logical_memo_size")


def test_snapshot_has_every_section(db):
    snap = db.stats_snapshot()
    assert set(SECTIONS) <= set(snap)
    assert set(snap["engine"]["counters"]) == {
        "queries", "failures", "timeouts", "rows_returned",
        "slow_queries", "wall_ns",
    }
    assert snap["theory_cache"]["capacity"] == 256
    assert snap["plan_cache"]["capacity"] == 128


def test_maintenance_counts_every_kind_both_ways():
    """No quiet fallback: each kind of derived state says how often a read
    after a write extended it and how often it took the full pass."""
    from repro.core.dependency import od
    from repro.engine.database import Database
    from repro.engine.schema import Schema
    from repro.engine.types import DataType

    db = Database()
    parent = db.create_table("p", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
    child = db.create_table("c", Schema.of(("k", DataType.INT)))
    parent.load([(1, 10), (2, 20)])
    child.load([(1,)])
    db.declare("p", od("k", "v"))
    db.create_index("p_k", "p", ["k"], clustered=True)
    db.declare_foreign_key("c", ["k"], "p", ["k"])

    def reading():
        db.stats("p")
        len(db.indexes["p_k"])
        db.verified_foreign_key("c", ["k"], "p", ["k"])
        parent.check_constraints()
        parent.columnar()
        return db.stats_snapshot()["maintenance"]

    def moved(before, after):
        return {
            (kind, outcome)
            for kind in after
            for outcome in after[kind]
            if after[kind][outcome] > before[kind][outcome]
        }

    kinds = ("stats", "index", "fk", "constraints", "columnar")
    first = reading()
    assert set(first) == set(kinds)
    assert all(set(first[kind]) == {"extended", "rebuilt"} for kind in kinds)
    assert first == {kind: {"extended": 0, "rebuilt": 1} for kind in kinds}

    parent.load([(3, 30)], check=False)
    second = reading()  # statistics keep nothing until they are collected twice
    assert moved(first, second) == {
        ("stats", "rebuilt"), ("index", "extended"), ("fk", "extended"),
        ("constraints", "extended"), ("columnar", "extended"),
    }
    parent.load([(4, 40)], check=False)
    third = reading()
    assert moved(second, third) == {(kind, "extended") for kind in kinds}

    parent.rows.pop()  # a shrunken table: nothing can be extended
    fourth = reading()
    assert moved(third, fourth) == {(kind, "rebuilt") for kind in kinds}
    assert reading() == fourth  # nothing written, nothing maintained


def test_pair_selectivity_reuse_and_thrash_are_visible(monkeypatch):
    """Join estimates over unchanged statistics only reuse their merge
    walks; an append prices the new histogram once; a map too small for
    the working set shows up as ``computed`` keeping pace with plannings.
    The search's own reuse is on the join-order line of EXPLAIN."""
    from repro.engine import histogram
    from repro.engine.database import Database
    from repro.engine.schema import Schema
    from repro.engine.types import DataType

    db = Database()
    for name, rows in (("a", 300), ("b", 200), ("c", 100)):
        table = db.create_table(
            name, Schema.of((f"{name}_k", DataType.INT), (f"{name}_v", DataType.INT))
        )
        table.load((i, i % 9) for i in range(rows))
        db.create_index(f"{name}_pk", name, [f"{name}_k"], clustered=True)
    sql = (
        "SELECT a_k, b_v, c_v FROM a JOIN b ON a_k = b_k JOIN c ON b_k = c_k "
        "ORDER BY a_k"
    )

    def planned():
        before = db.stats_snapshot()["pair_selectivity"]
        db.plan(sql, use_cache=False)
        after = db.stats_snapshot()["pair_selectivity"]
        assert set(after) == {"computed", "reused", "size"}
        return {key: after[key] - before[key] for key in ("computed", "reused")}

    first = planned()
    assert first["computed"] == 4  # (a,b) and (b,c), each direction
    assert first["reused"] > first["computed"]
    second = planned()
    assert second == {"computed": 0, "reused": sum(first.values())}

    db.table("c").load([(100, 1)])
    third = planned()  # c's histogram was replaced: its two pairs again
    assert third == {"computed": 2, "reused": second["reused"] - 2}

    monkeypatch.setattr(histogram, "PAIR_LIMIT", 1)  # four pairs, room for one
    db.table("c").load([(101, 2)])
    thrashing = planned()
    assert thrashing["computed"] > 4 and thrashing["computed"] > thrashing["reused"]
    assert db.stats_snapshot()["pair_selectivity"]["size"] == 1

    line = next(
        line for line in db.explain(sql, verbose=True).splitlines()
        if line.startswith("join order:")
    )
    evaluated, reused = re.search(
        r"satisfied orders: (\d+) evaluated, (\d+) reused$", line
    ).groups()
    assert int(evaluated) > 0 and int(reused) > 0


def test_engine_counters_are_monotonic_across_queries(db):
    readings = []
    for _ in range(3):
        db.execute(SQL)
        readings.append(db.stats_snapshot()["engine"]["counters"])
    for before, after in zip(readings, readings[1:]):
        for key, value in before.items():
            assert after[key] >= value, key
        assert after["queries"] == before["queries"] + 1
    assert readings[-1]["rows_returned"] >= 3  # brackets per run


def test_failures_and_timeouts_are_counted(db):
    with pytest.raises(QueryTimeout):
        db.execute(SQL, timeout_s=1e-9)
    counters = db.stats_snapshot()["engine"]["counters"]
    assert counters["queries"] == 1
    assert counters["failures"] == 1
    assert counters["timeouts"] == 1


def test_every_failed_statement_is_counted_and_reraised(db):
    """A failure before execution, or one no typed query error wraps, is
    counted like a timeout and reaches the caller as itself."""
    from repro.engine.sql.lexer import SqlSyntaxError
    from repro.engine.types import TypeError_

    failing = (
        ("SELECT nope FROM fact", KeyError),
        ("SELECT bracket FROM fact WHERE income < 'a'", TypeError_),
        ("SELECT income < 'a' AS x FROM fact", TypeError_),
        ("SELEC bracket FROM fact", SqlSyntaxError),
    )
    for sql, raised in failing:
        with pytest.raises(raised) as excinfo:
            db.execute(sql)
        assert type(excinfo.value) is raised, sql
    counters = db.stats_snapshot()["engine"]["counters"]
    assert counters["queries"] == len(failing)
    assert counters["failures"] == len(failing)
    assert counters["timeouts"] == 0


def test_failed_traced_query_keeps_its_flight_recorder(db):
    with pytest.raises(QueryTimeout) as excinfo:
        db.execute(SQL, timeout_s=1e-9, trace=True)
    trace = excinfo.value.trace
    assert trace is not None
    names = {e["name"] for e in trace["traceEvents"]}
    assert "query" in names


def test_slow_query_ring_records_and_bounds(db):
    db._registry.slow_ms = 0.0  # every query is "slow"
    result = None
    for _ in range(3):
        result = db.execute(SQL)
    snap = db.stats_snapshot()["engine"]
    assert snap["counters"]["slow_queries"] == 3
    entry = snap["slow_queries"][-1]
    assert entry["sql"] == SQL
    assert entry["wall_ms"] > 0
    assert entry["rows"] == len(result.rows)
    assert entry["error"] is None


def test_slow_query_ring_is_bounded():
    registry = EngineMetrics(slow_ms=0.0)
    for index in range(RING_SIZE + 10):
        registry.record(f"q{index}", wall_ns=1_000_000, rows=1)
    assert len(registry.slow_queries()) == RING_SIZE
    # Oldest evicted first: the ring keeps the most recent entries.
    assert registry.slow_queries()[0].sql == "q10"
    assert registry.counters()["slow_queries"] == RING_SIZE + 10


def test_exchange_totals_accumulate_across_parallel_runs(db):
    assert db.stats_snapshot()["exchange"] == {"parallel_runs": 0}
    first = db.execute(SQL, workers=2, backend="process")
    db.execute(SQL, workers=2, backend="process")
    db.execute(SQL)  # serial: not a parallel run
    totals = db.stats_snapshot()["exchange"]
    assert totals["parallel_runs"] == 2
    assert totals["retries"] == 0
    assert totals["rows_shipped"] == 2 * first.exchange_stats["rows_shipped"] > 0


def test_result_exchange_stats_is_read_only_and_merged(db):
    result = db.execute(SQL, workers=2, backend="process")
    stats = result.exchange_stats
    assert stats["exchanges"] == 1
    assert stats["retries"] == 0 and stats["degraded_to"] is None
    with pytest.raises(TypeError):
        stats["retries"] = 7  # type: ignore[index]
    serial = db.execute(SQL)
    assert dict(serial.exchange_stats) == {}


def test_theory_cache_stats_are_gauges_over_live_entries(db):
    from repro.optimizer.context import clear_theory_cache, theory_cache_stats

    clear_theory_cache()
    assert theory_cache_stats()["size"] == 0
    db.execute(SQL)
    stats = theory_cache_stats()
    assert stats["size"] >= 1
    assert stats["implies_calls"] >= 0
    clear_theory_cache()
    assert theory_cache_stats()["size"] == 0  # gauge: it went down


# ----------------------------------------------------------------------
# Metrics.work: cached until the counters actually change
# ----------------------------------------------------------------------
def test_work_reflects_counter_updates():
    metrics = Metrics()
    assert metrics.work == 0.0
    metrics.add("rows_scanned", 100)
    first = metrics.work
    assert first > 0.0
    metrics.add("rows_scanned", 100)
    assert metrics.work == 2 * first


def test_work_is_cached_between_updates():
    metrics = Metrics()
    metrics.add("sort_rows", 1024)
    value = metrics.work
    rev = metrics._work_rev
    assert metrics.work == value
    assert metrics._work_rev == rev  # served from cache, not recomputed
    metrics.add("sort_rows", 1024)
    assert metrics.work > value
    assert metrics._work_rev != rev
