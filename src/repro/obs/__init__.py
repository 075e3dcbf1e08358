"""Engine observability: tracing, EXPLAIN ANALYZE, metrics registry.

Three layers, all pay-as-you-go:

* :mod:`repro.obs.tracer` — hierarchical wall-clock spans around every
  optimizer phase and every operator's execution, exportable as Chrome
  ``trace_event`` JSON (load the export in ``chrome://tracing`` or
  Perfetto).  Worker-side spans from parallel backends are shipped back
  and re-parented under the consumer's exchange span.
* :mod:`repro.obs.analyze` — ``EXPLAIN ANALYZE``: per-plan-node actual
  rows/batches/time plus Q-error against the planner's cardinality
  estimates.
* :mod:`repro.obs.registry` — cumulative engine counters (queries,
  failures, timings) and the slow-query ring buffer behind
  ``Database.stats_snapshot()``.

Its two environment variables (``REPRO_TRACE``, ``REPRO_SLOW_QUERY_MS``)
are read in :mod:`repro.config`.
"""
from __future__ import annotations

from .registry import EngineMetrics, SlowQuery
from .tracer import Span, Tracer

__all__ = [
    "EngineMetrics",
    "SlowQuery",
    "Span",
    "Tracer",
]
