"""EXPLAIN ANALYZE: annotate a plan tree with measured actuals.

Given a plan that just ran under a :class:`~repro.obs.tracer.Tracer`,
fold the operator spans back onto the plan nodes (matched by the
structural ``node`` path stamped into every span — stable across
pickling, so process-backend worker spans land on the right consumer
nodes) and render the tree with, per node:

* ``actual rows`` — rows the node's stream(s) yielded, summed across
  loops and partitions;
* ``batches`` — batch count;
* ``time`` — milliseconds spent producing the node's output: the
  span's ``busy_us``, the time inside the node's own ``next()`` calls,
  which includes its children and excludes its consumers (a leaf's
  span *interval* also holds every ancestor's per-batch work, because
  the pipeline pulls).  Summed across partitions, so parallel nodes
  report aggregate lane time, not wall clock;
* ``loops`` — stream count when a node was executed more than once
  (nested-loop rescans, partition fan-out);
* ``est``/``q-err`` — the planner's cardinality estimate and the
  Q-error ``max(est/actual, actual/est)`` against it, the feedback loop
  the statistics subsystem was built for.  Nodes the cost model can't
  estimate (exchanges) show actuals only.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["annotate_plan", "q_error"]


def q_error(estimate: float, actual: float) -> float:
    """The symmetric ratio error, both sides floored at one row."""
    est = max(float(estimate), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def _collect_actuals(spans: Any) -> Dict[str, Dict[str, Any]]:
    """Aggregate operator spans by node path."""
    out: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        args = span.args or {}
        node = args.get("node")
        if span.cat != "operator" or not isinstance(node, str):
            continue
        bucket = out.setdefault(
            node, {"rows": 0, "batches": 0, "dur_ns": 0, "busy_us": 0.0, "loops": 0}
        )
        bucket["rows"] += int(args.get("rows", 0))
        bucket["batches"] += int(args.get("batches", 0))
        bucket["dur_ns"] += int(span.dur_ns or 0)
        bucket["busy_us"] += args.get("busy_us", 0.0)
        bucket["loops"] += 1
    return out


def _estimate_rows(database: Any, op: Any) -> Optional[float]:
    from ..optimizer.costing import estimate_plan

    try:
        return estimate_plan(database, op).rows
    except TypeError:
        # Exchanges (and any future un-costed physical node): actuals only.
        return None


def annotate_plan(
    database: Any, root: Any, spans: Any
) -> Tuple[str, List[Dict[str, Any]]]:
    """The annotated plan text plus a per-node summary list.

    The summary (one dict per node, pre-order) is what lands on
    ``PlanInfo.analyze`` and ``explain(analyze=True)`` callers can
    consume programmatically.
    """
    actuals = _collect_actuals(spans)
    summary: List[Dict[str, Any]] = []
    lines: List[str] = []

    def visit(op: Any, path: str, indent: int) -> None:
        entry: Dict[str, Any] = {"node": path, "label": op.label()}
        notes: List[str] = []
        measured = actuals.get(path)
        if measured is not None:
            rows = measured["rows"]
            entry["rows"] = rows
            entry["wall_ms"] = measured["dur_ns"] / 1e6
            entry["busy_ms"] = measured["busy_us"] / 1e3
            notes.append(f"actual rows={rows}")
            if measured["batches"]:
                entry["batches"] = measured["batches"]
                notes.append(f"batches={measured['batches']}")
            if measured["loops"] > 1:
                entry["loops"] = measured["loops"]
                notes.append(f"loops={measured['loops']}")
            notes.append(f"time={entry['busy_ms']:.3f}ms")
        estimate = _estimate_rows(database, op)
        if estimate is not None:
            entry["est_rows"] = estimate
            notes.append(f"est={estimate:.0f}")
            if measured is not None:
                entry["q_error"] = q_error(estimate, measured["rows"])
                notes.append(f"q-err={entry['q_error']:.2f}")
        summary.append(entry)
        suffix = f"  [{' '.join(notes)}]" if notes else ""
        lines.append("  " * indent + "-> " + op.label() + suffix)
        for index, child in enumerate(op.children()):
            visit(child, f"{path}.{index}", indent + 1)

    visit(root, "0", 0)
    return "\n".join(lines), summary
