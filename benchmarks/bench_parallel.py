"""Parallel vs serial batch throughput on the process backend.

The same two pipeline shapes as :mod:`bench_vectorized` — **scan → filter
→ aggregate** and **join → aggregate** — executed at batch_size=1024
serially and behind ``process``-backend exchanges at 1/2/4 workers.
Each case records ``rows_per_sec``, its ``backend``, and the host's
capability record in ``extra_info`` (dumped to
``BENCH_bench_parallel.json``), so the committed baseline documents what
the recording host could *honestly* deliver.

Honesty note, load-bearing: the **process** backend escapes the GIL (one
interpreter per worker), so it needs only multiple cores —
``process_capable`` records that — but pays serialization: chains ship
out pickled (token-shipped under fork) and morsels ship back.  On a host
with no spare core — including the single-core container this baseline
was recorded on — the pool adds bounded overhead instead of speedup, and
the only defensible claims are (a) bit-identical results, (b)
counter-identical metrics, and (c) that overhead stays small.
``test_parallel_scaling_claim[process]`` asserts the ≥1.5× workers=4 bar
only where ``process_capable`` holds and :data:`OVERHEAD_FLOOR`
otherwise, and ``tests/harness/test_bench_regression.py`` re-checks the
same gates as a cheap proxy on every CI run.  (The ``inline`` backend
has no pool to measure; the end-to-end ``report_*`` workloads of
``BENCHMARK.json`` cover it.)
"""
from __future__ import annotations

import time

import pytest

# Shared fixtures (fact/dim, scaled) come from conftest.py; the pipeline
# shapes from repro.workloads.microbench — one workload definition for
# this module, bench_vectorized, and the regression proxies.
from repro.engine.parallel import host_capability, insert_exchanges
from repro.workloads.microbench import join_aggregate, scan_filter_aggregate

BATCH_SIZE = 1024
BACKENDS = ("process",)
WORKER_COUNTS = (1, 2, 4)
PARALLEL_CASES = [
    (backend, workers) for backend in BACKENDS for workers in WORKER_COUNTS
]
PARALLEL_IDS = [f"{backend}-{workers}" for backend, workers in PARALLEL_CASES]

#: Overhead floor asserted even without a spare core.  The process
#: backend there still pays its full serialization bill (chains shipped
#: out, morsels shipped back) with zero offsetting parallelism, so its
#: honest bound is wide — within 4× of workers=1 — which still trips on
#: accidental whole-stream re-sorts or quadratic shipping.
OVERHEAD_FLOOR = 0.25


def _record(benchmark, rows: int, backend: str | None = None) -> None:
    mean = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean_s = getattr(mean, "mean", None)
    if mean_s:
        benchmark.extra_info["rows_per_sec"] = round(rows / mean_s)
    if backend is not None:
        benchmark.extra_info["backend"] = backend
    benchmark.extra_info.update(host_capability())


# ----------------------------------------------------------------------
# scan → filter → aggregate
# ----------------------------------------------------------------------
def test_scan_filter_aggregate_serial(benchmark, fact):
    result = benchmark(
        lambda: scan_filter_aggregate(fact).run(BATCH_SIZE)
    )
    assert len(result[0]) > 0
    _record(benchmark, len(fact.rows))


@pytest.mark.parametrize(("backend", "workers"), PARALLEL_CASES, ids=PARALLEL_IDS)
def test_scan_filter_aggregate_parallel(benchmark, fact, backend, workers):
    result = benchmark(
        lambda: insert_exchanges(
            scan_filter_aggregate(fact), workers, backend=backend
        ).run(BATCH_SIZE)
    )
    assert len(result[0]) > 0
    _record(benchmark, len(fact.rows), backend)


# ----------------------------------------------------------------------
# join → aggregate
# ----------------------------------------------------------------------
def test_join_aggregate_serial(benchmark, fact, dim):
    result = benchmark(lambda: join_aggregate(fact, dim).run(BATCH_SIZE))
    assert len(result[0]) > 0
    _record(benchmark, len(fact.rows))


@pytest.mark.parametrize(("backend", "workers"), PARALLEL_CASES, ids=PARALLEL_IDS)
def test_join_aggregate_parallel(benchmark, fact, dim, backend, workers):
    result = benchmark(
        lambda: insert_exchanges(
            join_aggregate(fact, dim), workers, backend=backend
        ).run(BATCH_SIZE)
    )
    assert len(result[0]) > 0
    _record(benchmark, len(fact.rows), backend)


# ----------------------------------------------------------------------
# The acceptance claim, asserted where the baseline is recorded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_scaling_claim(benchmark, fact, backend):
    """workers=4 vs workers=1 on scan→filter→aggregate.

    Always asserted: bit-identical rows, counter-identical metrics, and
    the overhead floor (see :data:`OVERHEAD_FLOOR` — the pool must never
    cost more than bounded overhead).  On a multi-core host
    (``process_capable``) the acceptance bar is ≥1.5×; otherwise that
    speedup is a physical impossibility, so the bar is recorded as not
    applicable rather than faked.
    """
    capability = host_capability()
    capable = bool(capability["process_capable"])
    floor = OVERHEAD_FLOOR

    def best_of(fn, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def run(workers):
        return insert_exchanges(
            scan_filter_aggregate(fact), workers, backend=backend
        ).run(BATCH_SIZE)

    def measure():
        serial_rows, serial_metrics = scan_filter_aggregate(fact).run(
            BATCH_SIZE
        )
        for workers in (1, 4):
            rows, metrics = run(workers)
            assert rows == serial_rows
            assert metrics.counters == serial_metrics.counters
        one = best_of(lambda: run(1))
        four = best_of(lambda: run(4))
        return one / four

    speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["speedup_workers4_vs_1"] = round(speedup, 3)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info.update(capability)
    assert speedup >= floor, (
        f"{backend} parallel overhead out of bounds: workers=4 is "
        f"{speedup:.2f}x of workers=1 (floor {floor}x)"
    )
    if capable:
        assert speedup >= 1.5, (
            f"{backend} scan→filter→aggregate only {speedup:.2f}x at "
            "workers=4 on a capable host (acceptance bar: 1.5x)"
        )
