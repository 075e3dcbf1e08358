"""Output-stability tests for ``explain(verbose=True)``: the line
vocabulary downstream tooling greps for — "plan cache:", "rewrites:",
"parallel:", "fault tolerance:", and the new "analyze:" — across cache
hit/miss/bypass and every backend."""
from __future__ import annotations

import pytest

from repro.engine import faults
from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES, build_rewrite_pack

SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total "
    "FROM fact WHERE income > 1000 GROUP BY bracket ORDER BY bracket"
)


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    faults.clear()
    yield
    faults.clear()


def test_verbose_baseline_vocabulary(db):
    text = db.explain(SQL, verbose=True)
    assert "plan mode: od" in text
    assert "execution: vectorized (batch size 1024)" in text
    assert "estimate: " in text
    assert "oracle: " in text


def test_plan_cache_line_across_hit_miss_bypass(db):
    db.plan_cache.clear()
    miss = db.explain(SQL, verbose=True)
    assert "plan cache: entry " in miss
    assert "planned once" in miss
    hit = db.explain(SQL, verbose=True)
    assert "served" in hit and "from cache" in hit
    # Bypass plans are never fingerprinted/stored: no cache line at all.
    bypass = db.explain(SQL, verbose=True, use_cache=False)
    assert "plan cache:" not in bypass


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_parallel_line_names_workers_and_backend(db, backend):
    text = db.explain(SQL, verbose=True, workers=2, backend=backend)
    assert f"parallel: 2 workers, {backend} backend" in text
    assert "exchange: " in text
    assert f"{backend} backend)" in text  # the execution: line agrees


def test_rewrites_line_is_stable():
    db = build_rewrite_pack(fact_rows=3_000, wide_rows=2_000,
                            order_rows=4_000, customers=2_000)
    rw1 = dict((qid, sql) for qid, sql, _ in REWRITE_PACK_QUERIES)["RW1"]
    text = db.explain(rw1, verbose=True)
    assert "rewrites: eager-agg(f.f_val below join)" in text


def test_fault_tolerance_line_after_recovery(db):
    faults.install(faults.parse_plans("raise:partition=1,attempts=1"))
    db.execute(SQL, workers=2, backend="process")
    text = db.explain(SQL, verbose=True, workers=2, backend="process")
    assert "fault tolerance: 1 retried attempt(s)" in text


def test_analyze_line_appears_only_after_analyze(db):
    plain = db.explain(SQL, verbose=True)
    assert "analyze:" not in plain
    analyzed = db.explain(SQL, verbose=True, analyze=True)
    assert "analyze: " in analyzed
    assert "node(s), wall " in analyzed
    assert "max q-err " in analyzed


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_analyze_composes_with_backends(db, backend):
    text = db.explain(SQL, verbose=True, analyze=True,
                      workers=2, backend=backend)
    assert "analyze: " in text
    assert f"parallel: 2 workers, {backend} backend" in text
    assert "actual rows=" in text
