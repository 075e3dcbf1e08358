"""Batch-engine throughput across batch sizes.

Two pipeline shapes, each executed at batch sizes 1/64/1024:

* **scan → filter → aggregate** — a full scan, a range predicate, and a
  grouped COUNT+SUM;
* **join → aggregate** — the TPC-DS-lite shape (fact ⋈ dim, grouped sum),
  where the probe loop keeps more per-row work in Python.

Each case records ``rows_per_sec`` in ``extra_info`` (dumped to
``BENCH_bench_vectorized.json`` alongside the timings).

batch_size=1 is included deliberately: it prices the batch machinery's
fixed overhead (one kernel call + one metrics charge per single-row
batch) — the reason ``DEFAULT_BATCH_SIZE`` is 1024, not 1.
"""
from __future__ import annotations

import pytest

# Shared fixtures (fact/dim, scaled) come from conftest.py; the pipeline
# shapes from repro.workloads.microbench — one workload definition for
# this module, bench_parallel, and the regression proxies.
from repro.workloads.microbench import join_aggregate, scan_filter_aggregate

BATCH_SIZES = (1, 64, 1024)


def _record_rate(benchmark, rows):
    mean = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean_s = getattr(mean, "mean", None)
    if mean_s:
        benchmark.extra_info["rows_per_sec"] = round(rows / mean_s)


# ----------------------------------------------------------------------
# scan → filter → aggregate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_scan_filter_aggregate_batch(benchmark, fact, batch_size):
    result = benchmark(
        lambda: scan_filter_aggregate(fact).run(batch_size)
    )
    assert len(result[0]) > 0
    _record_rate(benchmark, len(fact.rows))


# ----------------------------------------------------------------------
# join → aggregate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_join_aggregate_batch(benchmark, fact, dim, batch_size):
    result = benchmark(lambda: join_aggregate(fact, dim).run(batch_size))
    assert len(result[0]) > 0
    _record_rate(benchmark, len(fact.rows))

