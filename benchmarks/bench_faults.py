"""Recovery and cancellation overhead, measured against fault-free truth.

Three recovery cases on the **scan → filter → aggregate** microbench
(process backend, workers=2): fault-free, kill-one-worker-and-retry
(``kill_worker`` attempts=1 — the worker dies, the partition re-enqueues,
the respawned worker re-runs it), and degrade-to-inline (``kill_worker``
attempts=99 — retries exhaust and the failed partition re-runs inline on
the caller).  Each asserts the recovered rows and counters are
bit-identical to serial before timing anything, so the committed
``BENCH_bench_faults.json`` documents the *cost* of recovery whose
*correctness* is already gated (chaos leg of the differential harness).

The fourth case is the acceptance claim: the per-batch cooperative
cancellation check (``metrics.check_cancel()`` with a live deadline
token) must cost **<2%** on the same pipeline.  The committed baseline
records the measured ratio; ``tests/harness/test_bench_regression.py``
re-checks it (committed <1.02, live with CI-noise slack).
"""
from __future__ import annotations

import time

from repro.engine import faults
from repro.engine.errors import CancelToken
from repro.engine.parallel import host_capability, insert_exchanges
from repro.workloads.microbench import scan_filter_aggregate

BATCH_SIZE = 1024
WORKERS = 2


def _record(benchmark, rows: int, backend: str | None = None, **extra) -> None:
    mean = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean_s = getattr(mean, "mean", None)
    if mean_s:
        benchmark.extra_info["rows_per_sec"] = round(rows / mean_s)
    if backend is not None:
        benchmark.extra_info["backend"] = backend
    benchmark.extra_info.update(extra)
    benchmark.extra_info.update(host_capability())


def _process_run(fact):
    return insert_exchanges(
        scan_filter_aggregate(fact), WORKERS, backend="process"
    ).run(BATCH_SIZE)


def _faulted(fact, spec: str):
    faults.install(faults.parse_plans(spec))
    try:
        return _process_run(fact)
    finally:
        faults.clear()


# ----------------------------------------------------------------------
# Recovery overhead: fault-free vs kill-and-retry vs degrade-to-inline
# ----------------------------------------------------------------------
def test_fault_free_process(benchmark, fact):
    serial_rows, _ = scan_filter_aggregate(fact).run(BATCH_SIZE)
    rows, _ = benchmark(lambda: _process_run(fact))
    assert rows == serial_rows
    _record(benchmark, len(fact.rows), "process", scenario="fault_free")


def test_kill_one_worker_and_retry(benchmark, fact):
    serial_rows, serial_metrics = scan_filter_aggregate(fact).run(
        BATCH_SIZE
    )

    def run():
        rows, metrics = _faulted(fact, "kill_worker:partition=0,attempts=1")
        assert rows == serial_rows
        assert metrics.counters == serial_metrics.counters
        return rows

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record(benchmark, len(fact.rows), "process", scenario="kill_retry")


def test_degrade_to_inline(benchmark, fact):
    serial_rows, serial_metrics = scan_filter_aggregate(fact).run(
        BATCH_SIZE
    )

    def run():
        rows, metrics = _faulted(fact, "kill_worker:partition=0,attempts=99")
        assert rows == serial_rows
        assert metrics.counters == serial_metrics.counters
        return rows

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record(benchmark, len(fact.rows), "process", scenario="degrade_to_inline")


# ----------------------------------------------------------------------
# The cancellation-overhead acceptance claim
# ----------------------------------------------------------------------
def test_cancellation_check_overhead_claim(benchmark, fact):
    """Per-batch ``check_cancel`` with a live deadline vs no token at all,
    on serial scan→filter→aggregate — best-of interleaved rounds so both
    sides see the same cache/noise regime.  Acceptance bar: <2%."""
    pipeline = scan_filter_aggregate(fact)
    pipeline.run(BATCH_SIZE)  # warm caches off the clock

    def best_pair(rounds: int = 9):
        bare = timed = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            pipeline.run(BATCH_SIZE)
            bare = min(bare, time.perf_counter() - start)
            token = CancelToken(3600.0)  # live deadline: the real hot path
            start = time.perf_counter()
            pipeline.run(BATCH_SIZE, token=token)
            timed = min(timed, time.perf_counter() - start)
        return bare, timed

    bare_s, timed_s = benchmark.pedantic(best_pair, rounds=1, iterations=1)
    overhead = timed_s / bare_s
    benchmark.extra_info["cancel_check_overhead"] = round(overhead, 4)
    _record(benchmark, len(fact.rows), None, scenario="cancel_overhead")
    assert overhead < 1.02, (
        f"cancellation checks cost {overhead:.4f}x on scan→filter→aggregate "
        "(acceptance bar: <2%)"
    )
