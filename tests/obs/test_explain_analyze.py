"""EXPLAIN ANALYZE: measured actuals folded onto the plan tree, plus the
per-node Q-error against the planner's own cardinality estimates — the
engine auditing the statistics subsystem it plans with."""
from __future__ import annotations

import pytest

from repro.obs.analyze import q_error
from repro.workloads.snowflake import (
    build_snowflake,
    skewed_query_sql,
)

SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total "
    "FROM fact WHERE income > 1000 GROUP BY bracket ORDER BY bracket"
)


# ----------------------------------------------------------------------
# The Q-error metric itself
# ----------------------------------------------------------------------
def test_q_error_is_symmetric_and_floored():
    assert q_error(100, 100) == 1.0
    assert q_error(200, 100) == 2.0
    assert q_error(100, 200) == 2.0
    # Both sides floor at one row: an empty actual vs a tiny estimate
    # cannot explode to infinity.
    assert q_error(0, 0) == 1.0
    assert q_error(5, 0) == 5.0


# ----------------------------------------------------------------------
# Annotated output on the small fact workload
# ----------------------------------------------------------------------
def test_analyze_annotates_every_node_with_actuals(db):
    text = db.explain(SQL, analyze=True)
    for line in text.splitlines():
        assert "actual rows=" in line
        assert "batches=" in line  # the default batch_size streams batches
        assert "time=" in line
    # Scans see every fact row; the root emits the group count.
    assert "SeqScan(fact AS fact)  [actual rows=4000" in text


def test_analyze_reports_q_error_per_node(db):
    text = db.explain(SQL, analyze=True)
    assert "q-err=" in text
    info = db.plan(SQL).plan_info
    assert info.analyze is not None
    assert info.analyze["nodes"] == len(info.analyze["summary"])
    assert info.analyze["wall_ms"] > 0
    assert info.analyze["max_q_error"] >= 1.0
    for entry in info.analyze["summary"]:
        assert entry["rows"] >= 0
        if "q_error" in entry:
            assert entry["q_error"] >= 1.0


@pytest.mark.parametrize("mode", ["row", "batch"], ids=str)
def test_analyze_actuals_match_executed_rows(db, mode):
    kwargs = {"batch_size": 256} if mode == "batch" else {}
    result = db.execute(SQL, **kwargs)
    db.explain(SQL, analyze=True, **kwargs)
    info = db.plan(SQL).plan_info
    root = info.analyze["summary"][0]
    assert root["rows"] == len(result.rows)
    assert all(entry["batches"] >= 1 for entry in info.analyze["summary"])


def test_analyze_verbose_appends_summary_line(db):
    text = db.explain(SQL, analyze=True, verbose=True)
    assert "analyze:" in text
    assert "node(s), wall" in text


# ----------------------------------------------------------------------
# The acceptance query: SK1 on the skewed snowflake
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def snowflake():
    return build_snowflake(days=120, sales_rows=4_000)


def test_sk1_analyze_shows_rows_and_q_error_per_node(snowflake):
    db = snowflake.database
    sql = skewed_query_sql(snowflake)["SK1"]
    text = db.explain(sql, analyze=True)
    lines = text.splitlines()
    assert len(lines) >= 5  # agg over a 3-way join
    for line in lines:
        assert "actual rows=" in line
    # Every costed node carries its estimate audit.
    assert sum("q-err=" in line for line in lines) == len(lines)
    info = db.plan(sql).plan_info
    assert info.analyze["max_q_error"] >= 1.0


def test_parallel_analyze_sums_partitions_and_skips_exchange_estimate(db):
    """Exchange nodes are un-costed (estimate_plan rejects them): they
    report actuals only, while the nodes below still Q-error audit —
    and partition actuals sum to the serial row counts."""
    text = db.explain(SQL, workers=2, backend="process", analyze=True)
    exchange_lines = [l for l in text.splitlines() if "Exchange" in l]
    assert exchange_lines
    for line in exchange_lines:
        assert "actual rows=" in line and "est=" not in line
    assert "SeqScan(fact AS fact)  [actual rows=4000" in text
