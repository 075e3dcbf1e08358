"""Shared fixtures for the benchmark harness.

Workloads are built once per session at laptop scale.  Set
``REPRO_BENCH_SCALE`` (default 1.0) to shrink/grow all datasets together.

Each run also dumps per-benchmark timings to ``BENCH_<module>.json`` in the
repo root (see :func:`pytest_sessionfinish`), so successive PRs leave a
comparable perf trajectory behind.
"""
from __future__ import annotations

import collections
import json
import os
import pathlib

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(1, int(n * SCALE))


# ----------------------------------------------------------------------
# Shared execution-mode fixtures: one fact/dim pair, used by
# bench_vectorized (row vs batch) and bench_parallel (serial vs workers)
# so the baselines test_bench_regression.py compares can never
# desynchronize.  The builders and pipeline shapes live in
# repro.workloads.microbench — the regression proxies import the same
# ones.  Bench modules report rows/s from ``len(fact.rows)``.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def fact():
    from repro.workloads.microbench import build_fact

    return build_fact(scaled(120_000))


@pytest.fixture(scope="session")
def dim():
    from repro.workloads.microbench import build_dim

    return build_dim()


def pytest_sessionfinish(session, exitstatus):
    """Dump per-benchmark timings to ``BENCH_<module>.json``.

    Best-effort: any pytest-benchmark API drift must never fail the run.
    """
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is None or not getattr(benchsession, "benchmarks", None):
        return
    try:
        per_module = collections.defaultdict(dict)
        for bench in benchsession.benchmarks:
            fullname = getattr(bench, "fullname", "") or ""
            module = pathlib.Path(fullname.split("::")[0]).stem or "unknown"
            stats = getattr(bench, "stats", None)
            inner = getattr(stats, "stats", stats)
            entry = {
                "mean_s": getattr(inner, "mean", None),
                "stddev_s": getattr(inner, "stddev", None),
                "min_s": getattr(inner, "min", None),
                "rounds": getattr(inner, "rounds", None),
                "scale": SCALE,
            }
            # e.g. rows_per_sec from bench_vectorized: throughput claims
            # travel with the timing they were derived from.
            extra = getattr(bench, "extra_info", None)
            if extra:
                entry["extra_info"] = dict(extra)
            per_module[module][getattr(bench, "name", fullname)] = entry
        root = pathlib.Path(str(session.config.rootdir))
        for module, entries in sorted(per_module.items()):
            path = root / f"BENCH_{module}.json"
            path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    except Exception:  # pragma: no cover - diagnostics must not break runs
        pass


@pytest.fixture(scope="session")
def template_sql():
    """One of the thirteen TPC-DS-lite templates, instantiated with a
    natural-date range — shared by every planning benchmark so they all
    measure the same queries."""

    def make(workload, qid: str, first_day: int = 100, length: int = 60) -> str:
        from repro.workloads.tpcds_lite import DATE_QUERIES

        lo, hi = workload.date_range(first_day, length)
        return dict(DATE_QUERIES)[qid].format(lo=lo, hi=hi)

    return make


def _warm(database):
    """Build every index up front so benchmarks measure query work, not the
    one-time lazy index construction."""
    for index in database.indexes.values():
        index.build()


@pytest.fixture(scope="session")
def tpcds():
    from repro.workloads.tpcds_lite import build_tpcds_lite

    workload = build_tpcds_lite(days=scaled(365 * 3), sales_rows=scaled(120_000))
    _warm(workload.database)
    return workload


@pytest.fixture(scope="session")
def snowflake():
    from repro.workloads.snowflake import build_snowflake

    workload = build_snowflake(days=scaled(365 * 2), sales_rows=scaled(60_000))
    _warm(workload.database)
    return workload


@pytest.fixture(scope="session")
def rewrite_pack_db():
    from repro.workloads.rewrite_pack import build_rewrite_pack

    database = build_rewrite_pack(
        fact_rows=scaled(30_000),
        wide_rows=scaled(20_000),
        order_rows=scaled(40_000),
        customers=scaled(20_000),
    )
    _warm(database)
    return database


@pytest.fixture(scope="session")
def date_db():
    from repro.engine.database import Database
    from repro.workloads.datedim import build_date_dim

    database = Database()
    build_date_dim(database, days=scaled(365 * 6))
    _warm(database)
    return database


@pytest.fixture(scope="session")
def tax_db():
    from repro.engine.database import Database
    from repro.workloads.taxes import build_taxes

    database = Database()
    build_taxes(database, rows=scaled(50_000))
    _warm(database)
    return database
