"""The span tracer: hierarchical spans, pay-as-you-go disablement, the
observational-parity invariant, and the Chrome ``trace_event`` export.

The load-bearing contract is **parity**: a traced execution returns rows
and ``Metrics`` counters bit-identical to the untraced run, at every
batch size and on every backend — tracing observes, it never perturbs.
"""
from __future__ import annotations

import json

import pytest

from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.obs.tracer import Tracer

SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total "
    "FROM fact WHERE income > 1000 GROUP BY bracket ORDER BY bracket"
)


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------
def test_spans_nest_and_close_in_order():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert outer.name == "outer" and inner.name == "inner"
    assert inner.parent == outer.id
    assert outer.dur_ns is not None and inner.dur_ns is not None
    # The child closed first: its interval sits inside the parent's.
    assert inner.start_ns >= outer.start_ns
    assert inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns


def test_span_args_and_categories_are_recorded():
    tracer = Tracer()
    with tracer.span("phase", "optimizer", detail="x"):
        pass
    span = tracer.spans[0]
    assert span.cat == "optimizer"
    assert span.args["detail"] == "x"


def test_finish_closes_abandoned_spans():
    tracer = Tracer()
    span_id = tracer.begin("dangling")
    tracer.finish()
    assert all(s.dur_ns is not None for s in tracer.spans)
    assert tracer.spans[0].id == span_id


# ----------------------------------------------------------------------
# Disabled path: no tracer, no spans, no behavioral difference
# ----------------------------------------------------------------------
def test_untraced_result_has_no_trace(db):
    # trace=False pins the claim even when REPRO_TRACE=1 defaults it on
    # (the obs-correctness CI job runs this suite with tracing forced).
    result = db.execute(SQL, trace=False)
    assert result.trace is None
    assert result.metrics.tracer is None


def test_trace_flag_overrides_default(db):
    assert db.execute(SQL, trace=False).trace is None
    assert db.execute(SQL, trace=True).trace is not None


# ----------------------------------------------------------------------
# Parity: traced == untraced, bit for bit, in every configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # batch_size=None: rows at the surface, default batches below
        {"batch_size": 256},
        {"workers": 2, "backend": "inline"},
        {"workers": 2, "backend": "process"},
    ],
    ids=["row", "batch", "inline", "process"],
)
def test_tracing_never_perturbs_results_or_counters(db, serial, kwargs):
    plain = db.execute(SQL, **kwargs)
    traced = db.execute(SQL, trace=True, **kwargs)
    assert traced.rows == plain.rows == serial.rows
    assert traced.metrics.counters == plain.metrics.counters
    assert traced.trace is not None


def test_operator_spans_cover_every_plan_node(db):
    result = db.execute(SQL, trace=True)
    events = result.trace["traceEvents"]
    operator_nodes = {
        e["args"]["node"] for e in events if e["cat"] == "operator"
    }
    # Walk the plan: every node path must have been measured.
    expected = set()
    stack = [(result.plan, "0")]
    while stack:
        op, path = stack.pop()
        expected.add(path)
        for index, child in enumerate(op.children()):
            stack.append((child, f"{path}.{index}"))
    assert operator_nodes == expected


def test_default_batch_size_trace_is_one_nested_tree_with_exact_rows(db):
    """A traced default-``batch_size`` execute: one operator span per plan
    node, each nested under its plan parent's span in both the parent
    link and the time interval, each counting exactly the rows that node
    yields when run untraced."""
    result = db.execute(SQL, trace=True)
    assert result.batch_size == DEFAULT_BATCH_SIZE
    events = [e for e in result.trace["traceEvents"] if e["cat"] == "operator"]
    by_node = {e["args"]["node"]: e for e in events}
    assert len(by_node) == len(events), "one span per plan node"
    stack = [(result.plan, "0")]
    while stack:
        op, path = stack.pop()
        span = by_node[path]
        assert "mode" not in span["args"]
        untraced_rows, _ = op.run()
        assert span["args"]["rows"] == len(untraced_rows), path
        assert span["args"]["batches"] >= 1, path
        if path != "0":
            parent = by_node[path.rsplit(".", 1)[0]]
            assert span["args"]["parent"] == parent["args"]["id"], path
            # ts/dur are float microseconds: allow their rounding.
            assert span["ts"] >= parent["ts"] - 1e-3
            assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        for index, child in enumerate(op.children()):
            stack.append((child, f"{path}.{index}"))
    assert by_node["0"]["args"]["rows"] == len(result.rows)


def test_operator_spans_carry_rows_and_trace_args(db):
    result = db.execute(SQL, trace=True)
    events = result.trace["traceEvents"]
    scans = [e for e in events if e["name"] == "SeqScan"]
    assert scans and scans[0]["args"]["table"] == "fact"
    assert scans[0]["args"]["rows"] == 4_000
    filters = [e for e in events if e["name"] == "Filter"]
    assert filters and "predicate" in filters[0]["args"]


def test_optimizer_phases_are_traced_on_cache_miss(db):
    db.plan_cache.clear()
    names = {
        e["name"]
        for e in db.execute(SQL, trace=True).trace["traceEvents"]
    }
    assert {"query", "execute", "parse-bind", "cache-lookup"} <= names
    assert "physical-plan" in names  # a planner phase ran on the miss


# ----------------------------------------------------------------------
# Worker spans: shipped back and re-parented under the exchange
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["inline", "process"])
def test_worker_spans_graft_under_the_exchange(db, backend):
    result = db.execute(SQL, workers=3, backend=backend, trace=True)
    events = result.trace["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    # One well-formed forest: every parent reference resolves.
    assert all(
        e["args"].get("parent") in ids
        for e in events
        if e["args"].get("parent") is not None
    )
    roots = [e for e in events if e["args"].get("parent") is None]
    assert len(roots) == 1 and roots[0]["name"] == "query"
    partition_spans = [e for e in events if "partition" in e["args"]]
    assert {e["args"]["partition"] for e in partition_spans} == {0, 1, 2}
    # Partition lanes render on distinct tids; the consumer stays on 0.
    assert len({e["tid"] for e in partition_spans}) == 3
    assert 0 not in {e["tid"] for e in partition_spans}


# ----------------------------------------------------------------------
# Chrome export
# ----------------------------------------------------------------------
def test_chrome_export_is_valid_trace_event_json(db):
    result = db.execute(SQL, workers=2, backend="process", trace=True)
    blob = json.dumps(result.trace)  # must serialize
    parsed = json.loads(blob)
    assert parsed["displayTimeUnit"] == "ms"
    for event in parsed["traceEvents"]:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["name"], str) and isinstance(event["cat"], str)


def test_repro_trace_env_knob(db, monkeypatch):
    import repro.engine.database as database_mod

    monkeypatch.setattr(database_mod, "TRACE_DEFAULT", True)
    assert db.execute(SQL).trace is not None
    monkeypatch.setattr(database_mod, "TRACE_DEFAULT", False)
    assert db.execute(SQL).trace is None
