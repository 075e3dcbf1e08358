"""The data-warehouse scenario: Example 1 and the Section 2.3 date rewrite.

Builds the TPC-DS-lite star schema (fact table keyed by date *surrogate*
keys, a date dimension carrying the natural calendar), declares the OD
check constraints, and shows both headline optimizations:

1. Example 1 — the ``GROUP BY / ORDER BY year, quarter, month`` query whose
   sort disappears once the optimizer may use ``month ↦ quarter``;
2. the date-dimension join elimination — a natural-date range predicate
   translated into a surrogate-key range by one scan of the date
   dimension, removing the join entirely.

Run:  python examples/warehouse_dates.py
"""
import time

from repro.engine.logical import bind
from repro.engine.sql.parser import parse
from repro.optimizer.planner import Planner
from repro.workloads.tpcds_lite import build_tpcds_lite

EXAMPLE1 = """
SELECT d_year, d_qoy, d_moy, SUM(ss_sales_price) AS revenue
FROM store_sales ss JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk
GROUP BY d_year, d_qoy, d_moy
ORDER BY d_year, d_qoy, d_moy
"""


def show(title, plan, rows, metrics):
    print(f"--- {title}")
    print(plan.explain())
    print(f"rows={len(rows)}  sorts={metrics.get('sorts')}  work={metrics.work:,.0f}\n")


def main() -> None:
    print("building TPC-DS-lite (this takes a few seconds)...")
    workload = build_tpcds_lite(days=365 * 2, sales_rows=60_000)
    db = workload.database

    # ------------------------------------------------------------------
    # Example 1: the introduction's query.
    # ------------------------------------------------------------------
    print("\n================ Example 1 ================")
    for mode in ("fd", "od"):
        plan = Planner(db, mode=mode).plan(bind(parse(EXAMPLE1)))
        rows, metrics = plan.run()
        label = "[17] FD-only optimizer" if mode == "fd" else "OD-aware optimizer"
        show(label, plan, rows, metrics)

    # ------------------------------------------------------------------
    # The Section 2.3 rewrite: dates arrive as natural values, the fact
    # table only knows surrogate keys.
    # ------------------------------------------------------------------
    print("================ date-range query ================")
    lo, hi = workload.date_range(200, 31)
    sql = f"""
    SELECT ss_store_sk, SUM(ss_quantity) AS qty
    FROM store_sales ss JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk
    WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}'
    GROUP BY ss_store_sk ORDER BY ss_store_sk
    """
    print(f"predicate: d_date BETWEEN {lo} AND {hi}\n")

    t0 = time.perf_counter()
    baseline = db.execute(sql, optimize=False)
    t1 = time.perf_counter()
    optimized = db.execute(sql, optimize=True)
    t2 = time.perf_counter()

    show("baseline (join evaluated)", baseline.plan, baseline.rows, baseline.metrics)
    show("OD rewrite (join eliminated)", optimized.plan, optimized.rows, optimized.metrics)
    for record in optimized.plan.plan_info.date_rewrites:
        print("rewrite:", record.describe())
    assert baseline.rows == optimized.rows
    print(
        f"\nanswers identical; wall {t1 - t0:.3f}s -> {t2 - t1:.3f}s "
        f"({1 - (t2 - t1) / (t1 - t0):.0%} faster), "
        f"work {baseline.metrics.work:,.0f} -> {optimized.metrics.work:,.0f}"
    )

    # ------------------------------------------------------------------
    # Why it is safe: the constraint the dimension declares.
    # ------------------------------------------------------------------
    print("\ndeclared on date_dim (checked against the data on load):")
    for statement in db.constraints_on("date_dim")[:4]:
        print("  ", statement)


if __name__ == "__main__":
    main()
