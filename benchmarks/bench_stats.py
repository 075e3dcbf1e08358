"""Estimate-vs-actual Q-error of the cardinality model.

Every skewed snowflake template (``SNOWFLAKE_SKEWED_QUERIES`` — fact
dates beta(2,2)-distributed, promo calendar overlapping only the thin
tail) is planned and executed once; per template the Q-error
``max(est/actual, actual/est)`` of the root cardinality estimate is
recorded, with the join order SK1 chose and its deterministic
``Metrics.work``.  Results must equal the ``join_order="syntactic"`` run:
estimates pick among plans, never answers.

The committed ``BENCH_bench_stats.json`` is the record of the ablation
run made while a second, uniform model still existed (median Q-error
3.696 uniform → 1.318 histogram; SK1 probes the promo join first,
1.264× less work); ``tests/harness/test_bench_regression.py`` re-checks
that record plus a live proxy of the one model on every CI run.
"""
from __future__ import annotations

import statistics

from repro.optimizer.costing import estimate_plan
from repro.workloads.snowflake import skewed_query_sql
from repro.workloads.tpcds_lite import DATE_QUERIES

#: The planted template: containment would join the item filter first;
#: the histogram merge bound probes the promo join first.
FLIP_QUERY = "SK1"
FLIP_ORDER = ("((f ⋈ p) ⋈ i)",)


def _canon_rows(rows):
    """Different join orders accumulate float SUMs in different orders;
    compare result multisets up to last-ulp noise."""
    return sorted(
        (
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
            for row in rows
        ),
        key=repr,
    )


def _measure(db, sqls: dict) -> dict:
    """Per-template (estimate, actual, work, join orders, rows)."""
    out = {}
    for qid, sql in sqls.items():
        plan = db.plan(sql, use_cache=False)
        estimate = max(1.0, estimate_plan(db, plan).rows)
        orders = tuple(d.chosen for d in plan.plan_info.join_orders)
        result = db.execute(sql, use_cache=False)
        actual = max(1, len(result.rows))
        out[qid] = {
            "estimate": estimate,
            "actual": actual,
            "qerror": max(estimate / actual, actual / estimate),
            "work": result.metrics.work,
            "orders": orders,
            "rows": _canon_rows(result.rows),
        }
    return out


# ----------------------------------------------------------------------
# The skewed snowflake suite
# ----------------------------------------------------------------------
def test_stats_qerror_claim(benchmark, snowflake):
    """Per-template Q-errors, SK1's join order, and answers equal to the
    syntactic join order's."""
    db = snowflake.database
    sqls = skewed_query_sql(snowflake)
    measured = benchmark.pedantic(
        lambda: _measure(db, sqls), rounds=1, iterations=1
    )

    for qid, sql in sqls.items():
        syntactic = db.execute(sql, use_cache=False, join_order="syntactic")
        assert measured[qid]["rows"] == _canon_rows(syntactic.rows), (
            f"{qid}: result rows differ from the syntactic join order — "
            "estimates must never change answers"
        )

    median = statistics.median(e["qerror"] for e in measured.values())
    benchmark.extra_info["median_q_histogram"] = round(median, 3)
    benchmark.extra_info["qerror_histogram"] = {
        qid: round(e["qerror"], 2) for qid, e in measured.items()
    }
    flip = measured[FLIP_QUERY]
    benchmark.extra_info["flip_query"] = FLIP_QUERY
    benchmark.extra_info["flip_histogram_order"] = " ".join(flip["orders"])
    benchmark.extra_info["flip_work_histogram"] = round(flip["work"])
    assert flip["orders"] == FLIP_ORDER, (
        f"{FLIP_QUERY} no longer probes the promo join first: {flip['orders']}"
    )


def test_stats_qerror_tpcds(benchmark, tpcds):
    """Q-error over TPC-DS-lite date windows (fact dates equally skewed):
    tail and peak windows on the three biggest date-range templates."""
    db = tpcds.database
    days = tpcds.days
    sqls = {}
    for qid in ("Q1", "Q2", "Q3"):
        template = dict(DATE_QUERIES)[qid]
        for label, (first, length) in {
            "tail": (0, max(7, int(days * 0.05))),
            "peak": (int(days * 0.47), max(7, int(days * 0.06))),
        }.items():
            lo, hi = tpcds.date_range(first, length)
            sqls[f"{qid}-{label}"] = template.format(lo=lo, hi=hi)

    measured = benchmark.pedantic(
        lambda: _measure(db, sqls), rounds=1, iterations=1
    )
    median = statistics.median(e["qerror"] for e in measured.values())
    benchmark.extra_info["median_q_histogram"] = round(median, 3)


# ----------------------------------------------------------------------
# What the subsystem costs: the single collection pass
# ----------------------------------------------------------------------
def test_stats_collection_pass(benchmark, snowflake):
    """One full ``collect_stats`` pass over the fact table — histograms,
    sketches, and dependency facts included.  Not gated; documents the
    price of the per-epoch recollection."""
    from repro.engine.stats import collect_stats

    db = snowflake.database
    table = db.table("sales")
    indexes = db.indexes_on("sales")
    stats = benchmark(lambda: collect_stats(table, indexes=indexes))
    column = stats.column("f_date_sk")
    benchmark.extra_info["histogram_buckets"] = len(column.histogram.counts)
    benchmark.extra_info["rows"] = stats.row_count
