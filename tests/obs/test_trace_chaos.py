"""Tracing under injected faults: after retries and backend degradation
the trace must still be ONE well-nested span tree — failed attempts'
worker spans ride only terminal messages, so they simply never arrive,
and the surviving attempt's spans graft cleanly under the exchange."""
from __future__ import annotations

import json

import pytest

from repro.engine import faults
from repro.engine.database import Database
from repro.workloads.microbench import build_fact

ROWS = 6_000
SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total "
    "FROM fact WHERE income > 1000 GROUP BY bracket ORDER BY bracket"
)


@pytest.fixture
def db():
    database = Database()
    fact = build_fact(ROWS, seed=7)
    table = database.create_table("fact", fact.schema)
    for row in fact.rows:
        table.insert(row)
    return database


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    faults.clear()
    yield
    faults.clear()


def _assert_single_well_nested_tree(trace: dict) -> None:
    events = trace["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    roots = [e for e in events if e["args"].get("parent") is None]
    assert len(roots) == 1 and roots[0]["name"] == "query"
    for event in events:
        parent_id = event["args"].get("parent")
        if parent_id is None:
            continue
        assert parent_id in by_id, f"orphan span {event['name']}"
        parent = by_id[parent_id]
        # Well-nesting on each lane: a child's interval sits inside its
        # parent's (cross-lane grafts only guarantee containment of the
        # start, as worker clocks are rebased independently).
        if event["tid"] == parent["tid"]:
            assert event["ts"] >= parent["ts"]
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]


def test_retried_partition_yields_single_span_tree(db):
    """Seeded kill_worker: the killed attempt's spans vanish with its
    buffered morsels; only the retry's spans are adopted."""
    faults.install(faults.parse_plans("kill_worker:partition=0,attempts=1"))
    serial = db.execute(SQL, batch_size=256)
    result = db.execute(
        SQL, workers=2, backend="process", batch_size=256, trace=True
    )
    assert result.rows == serial.rows
    assert result.metrics.counters == serial.metrics.counters
    assert result.retries >= 1
    _assert_single_well_nested_tree(result.trace)
    # Exactly one adopted span set per partition — no duplicate spans
    # from the killed attempt.
    partitions = [
        e["args"]["partition"]
        for e in result.trace["traceEvents"]
        if "partition" in e["args"] and e["cat"] == "operator"
        and e["args"]["node"].count(".") == 5  # partition-root depth
    ]
    assert sorted(set(partitions)) == [0, 1]


def test_degraded_run_keeps_trace_and_parity(db):
    """Persistent kill: the partition degrades to inline; the trace stays
    one tree and the adopted spans come from the surviving attempt."""
    faults.install(faults.parse_plans("kill_worker:partition=0,attempts=99"))
    serial = db.execute(SQL, batch_size=256)
    result = db.execute(
        SQL, workers=2, backend="process", batch_size=256, trace=True
    )
    assert result.rows == serial.rows
    assert result.metrics.counters == serial.metrics.counters
    assert result.degraded_to == "inline"
    _assert_single_well_nested_tree(result.trace)
    json.dumps(result.trace)  # still a valid Chrome export


def test_process_backend_trace_is_valid_chrome_json(db):
    """Fault-free process run: worker spans ship over the queue, rebase
    onto consumer node paths, and the whole export serializes."""
    serial = db.execute(SQL, batch_size=256)
    result = db.execute(
        SQL, workers=2, backend="process", batch_size=256, trace=True
    )
    assert result.rows == serial.rows
    assert result.metrics.counters == serial.metrics.counters
    _assert_single_well_nested_tree(result.trace)
    parsed = json.loads(json.dumps(result.trace))
    worker_spans = [
        e for e in parsed["traceEvents"] if "partition" in e["args"]
    ]
    assert worker_spans, "worker spans must ship back from the pool"
    assert {e["args"]["attempt"] for e in worker_spans} == {0}
