"""Observability overhead, measured against the untraced truth.

Two acceptance claims on the **scan → filter → aggregate** microbench:

1. **Disabled** tracing (the default) must cost **<2%**.  The traced
   wrappers :func:`~repro.engine.operators.base._traced` install on
   every operator add one attribute read and an ``is None`` test per
   stream creation; this benchmark compares the wrapped classes against
   their raw ``__wrapped__`` originals — the exact code that would run
   if this subsystem did not exist — best-of interleaved rounds so both
   sides see the same cache/noise regime.

2. **Enabled** tracing must cost **<10%** on the same pipeline: span
   begin/end is two ``perf_counter_ns`` calls and a dict append per
   operator *stream*, not per row.

Both ratios are recorded in the committed ``BENCH_bench_observe.json``
(re-checked by ``tests/harness/test_bench_regression.py``), and both
runs assert bit-identical rows first — the parity invariant is gated
before anything is timed.
"""
from __future__ import annotations

import time

from repro.engine.parallel import host_capability, insert_exchanges
from repro.obs.tracer import Tracer
from repro.workloads.microbench import scan_filter_aggregate

BATCH_SIZE = 1024


def _record(benchmark, rows: int, **extra) -> None:
    mean = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean_s = getattr(mean, "mean", None)
    if mean_s:
        benchmark.extra_info["rows_per_sec"] = round(rows / mean_s)
    benchmark.extra_info.update(extra)
    benchmark.extra_info.update(host_capability())


def _bind_raw(root) -> None:
    """Shadow every traced wrapper with its raw original, per instance.

    Binding ``__wrapped__`` as an instance attribute makes this tree the
    "subsystem never existed" baseline — the exact pre-wrapper code runs
    on every ``execute``/``execute_batches`` call — without touching the
    classes, so no CPython type-cache invalidation perturbs the paired
    timing runs.
    """
    stack = [root]
    while stack:
        op = stack.pop()
        for name in ("execute", "execute_batches"):
            fn = getattr(type(op), name, None)
            if fn is not None and getattr(fn, "_obs_traced", False):
                setattr(op, name, fn.__wrapped__.__get__(op))
        stack.extend(op.children())


# ----------------------------------------------------------------------
# Claim 1: disabled tracing <2%
# ----------------------------------------------------------------------
def test_tracing_disabled_overhead_claim(benchmark, fact):
    wrapped_pipeline = scan_filter_aggregate(fact)
    raw_pipeline = scan_filter_aggregate(fact)
    _bind_raw(raw_pipeline)
    serial_rows, _ = wrapped_pipeline.run(BATCH_SIZE)  # warm
    raw_rows, _ = raw_pipeline.run(BATCH_SIZE)  # warm
    assert raw_rows == serial_rows

    def _timed(pipeline):
        start = time.perf_counter()
        rows, _ = pipeline.run(BATCH_SIZE)
        elapsed = time.perf_counter() - start
        assert rows == serial_rows
        return elapsed

    def ratio_of_medians(rounds: int = 20):
        import gc
        import statistics

        raw_samples, wrapped_samples = [], []
        gc.collect()
        gc.disable()  # allocator noise swamps a sub-1% signal otherwise
        try:
            for index in range(rounds):
                # Interleaved with alternating order, then one median per
                # side: both sides sample the same noise regime, and a
                # scheduler stall lands in one sample — never in a
                # median, as long as most samples are clean.
                if index % 2:
                    wrapped_samples.append(_timed(wrapped_pipeline))
                    raw_samples.append(_timed(raw_pipeline))
                else:
                    raw_samples.append(_timed(raw_pipeline))
                    wrapped_samples.append(_timed(wrapped_pipeline))
        finally:
            gc.enable()
        return statistics.median(wrapped_samples) / statistics.median(raw_samples)

    overhead = benchmark.pedantic(ratio_of_medians, rounds=1, iterations=1)
    benchmark.extra_info["tracing_disabled_overhead"] = round(overhead, 4)
    _record(benchmark, len(fact.rows), scenario="tracing_disabled")
    assert overhead < 1.02, (
        f"disabled tracing costs {overhead:.4f}x on scan→filter→aggregate "
        "(acceptance bar: <2%)"
    )


# ----------------------------------------------------------------------
# Claim 2: enabled tracing <10%
# ----------------------------------------------------------------------
def test_tracing_enabled_overhead_claim(benchmark, fact):
    pipeline = scan_filter_aggregate(fact)
    serial = pipeline.run(BATCH_SIZE)  # warm

    def _timed_bare():
        start = time.perf_counter()
        run = pipeline.run(BATCH_SIZE)
        elapsed = time.perf_counter() - start
        assert run[0] == serial[0]
        return elapsed

    def _timed_traced():
        tracer = Tracer()
        start = time.perf_counter()
        run = pipeline.run(BATCH_SIZE, tracer=tracer)
        elapsed = time.perf_counter() - start
        assert run[0] == serial[0]
        assert run[1].counters == serial[1].counters
        assert tracer.spans  # it really traced
        return elapsed

    def median_ratio(rounds: int = 12):
        import statistics

        ratios = []
        for index in range(rounds):
            # Alternating pair order, median of per-round ratios — same
            # drift/order-bias cancellation as the disabled claim above.
            if index % 2:
                traced = _timed_traced()
                bare = _timed_bare()
            else:
                bare = _timed_bare()
                traced = _timed_traced()
            ratios.append(traced / bare)
        return statistics.median(ratios)

    overhead = benchmark.pedantic(median_ratio, rounds=1, iterations=1)
    benchmark.extra_info["tracing_enabled_overhead"] = round(overhead, 4)
    _record(benchmark, len(fact.rows), scenario="tracing_enabled")
    assert overhead < 1.10, (
        f"enabled tracing costs {overhead:.4f}x on scan→filter→aggregate "
        "(acceptance bar: <10%)"
    )


# ----------------------------------------------------------------------
# Context: the cost of a traced parallel run and of a stats snapshot
# ----------------------------------------------------------------------
def test_traced_process_exchange(benchmark, fact):
    """Document the absolute cost of tracing across the process exchange
    (worker span shipping + adoption included)."""
    serial_rows, _ = scan_filter_aggregate(fact).run(BATCH_SIZE)

    def run():
        plan = insert_exchanges(scan_filter_aggregate(fact), 2, backend="process")
        tracer = Tracer()
        rows, _ = plan.run(BATCH_SIZE, tracer=tracer)
        assert rows == serial_rows
        return len(tracer.spans)

    spans = benchmark.pedantic(run, rounds=3, iterations=1)
    _record(
        benchmark, len(fact.rows), scenario="traced_process_exchange", spans=spans
    )


def test_stats_snapshot_cost(benchmark):
    """``stats_snapshot()`` is a read path — it must stay microseconds,
    cheap enough to poll from a monitoring loop."""
    from repro.engine.database import Database
    from repro.workloads.microbench import build_fact

    db = Database()
    fact = build_fact(2_000, seed=3)
    table = db.create_table("fact", fact.schema)
    for row in fact.rows:
        table.insert(row)
    db.execute("SELECT COUNT(*) AS n FROM fact")

    snapshot = benchmark(db.stats_snapshot)
    assert snapshot["engine"]["counters"]["queries"] >= 1
    _record(benchmark, len(fact.rows), scenario="stats_snapshot")
