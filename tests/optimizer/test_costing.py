"""Plan cost estimation: sanity, monotonicity, and agreement with measured
work ordering on the paper's plans."""
from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.logical import bind
from repro.engine.sql.parser import parse
from repro.optimizer.costing import estimate_plan
from repro.optimizer.planner import Planner
from repro.workloads.datedim import build_date_dim
from repro.workloads.tpcds_lite import build_tpcds_lite


@pytest.fixture(scope="module")
def date_db():
    db = Database()
    build_date_dim(db, days=365 * 3)
    return db


@pytest.fixture(scope="module")
def tpcds():
    return build_tpcds_lite(days=200, sales_rows=20_000)


def plan_for(db, sql, mode):
    return Planner(db, mode=mode).plan(bind(parse(sql)))


class TestBasics:
    def test_seq_scan_rows(self, date_db):
        plan = plan_for(date_db, "SELECT d_year FROM date_dim", "naive")
        estimate = estimate_plan(date_db, plan)
        assert estimate.rows == len(date_db.table("date_dim"))

    def test_filter_reduces_rows(self, date_db):
        base = estimate_plan(
            date_db, plan_for(date_db, "SELECT d_year FROM date_dim", "naive")
        )
        filtered = estimate_plan(
            date_db,
            plan_for(date_db, "SELECT d_year FROM date_dim WHERE d_year = 1998", "naive"),
        )
        assert filtered.rows < base.rows

    def test_range_selectivity_scales(self, tpcds):
        db = tpcds.database
        lo1, hi1 = tpcds.date_range(50, 10)
        lo2, hi2 = tpcds.date_range(50, 100)
        narrow = estimate_plan(db, plan_for(
            db,
            f"SELECT ss_quantity FROM store_sales WHERE ss_sold_date_sk BETWEEN "
            f"{tpcds.sk_base + 50} AND {tpcds.sk_base + 59}",
            "od",
        ))
        wide = estimate_plan(db, plan_for(
            db,
            f"SELECT ss_quantity FROM store_sales WHERE ss_sold_date_sk BETWEEN "
            f"{tpcds.sk_base + 50} AND {tpcds.sk_base + 149}",
            "od",
        ))
        assert narrow.rows < wide.rows

    def test_limit_caps_rows(self, date_db):
        plan = plan_for(date_db, "SELECT d_year FROM date_dim LIMIT 5", "naive")
        assert estimate_plan(date_db, plan).rows == 5

    def test_aggregate_group_estimate(self, date_db):
        plan = plan_for(
            date_db, "SELECT d_year, COUNT(*) AS n FROM date_dim GROUP BY d_year", "naive"
        )
        estimate = estimate_plan(date_db, plan)
        years = date_db.stats("date_dim").column("d_year").distinct
        assert estimate.rows == years

    def test_costs_positive(self, date_db):
        plan = plan_for(
            date_db,
            "SELECT d_year, COUNT(*) AS n FROM date_dim GROUP BY d_year ORDER BY d_year",
            "naive",
        )
        estimate = estimate_plan(date_db, plan)
        assert estimate.cost.total > 0


class TestAgreementWithMeasurement:
    EXAMPLE1 = (
        "SELECT d_year, d_qoy, d_moy, COUNT(*) AS days FROM date_dim d "
        "GROUP BY d_year, d_qoy, d_moy ORDER BY d_year, d_qoy, d_moy"
    )

    def test_example1_cost_ranking_matches_work(self, date_db):
        """Estimated costs must rank the three modes the same way the
        measured work does (od < fd < naive)."""
        estimates = {}
        measured = {}
        for mode in ("naive", "fd", "od"):
            plan = plan_for(date_db, self.EXAMPLE1, mode)
            estimates[mode] = estimate_plan(date_db, plan).cost.total
            _, metrics = plan.run()
            measured[mode] = metrics.work
        assert estimates["od"] < estimates["naive"]
        assert measured["od"] < measured["naive"]
        assert (estimates["od"] < estimates["fd"]) == (
            measured["od"] < measured["fd"]
        )

    def test_date_rewrite_cost_drop(self, tpcds):
        db = tpcds.database
        lo, hi = tpcds.date_range(60, 20)
        sql = (
            "SELECT SUM(ss_sales_price) AS r FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}'"
        )
        base = estimate_plan(db, plan_for(db, sql, "fd"))
        rewritten = estimate_plan(db, plan_for(db, sql, "od"))
        assert rewritten.cost.total < base.cost.total


class TestIndexCoveredConjuncts:
    """A residual conjunct is estimated once, not again above the index
    range that enforces it: covered means its inclusive bound is on the
    leading key and equals the scan's single-column range."""

    @pytest.fixture(scope="class")
    def keyed(self):
        from repro.engine.schema import Schema
        from repro.engine.types import DataType

        db = Database()
        table = db.create_table("t", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
        table.load([(i, i % 7) for i in range(10_000)])
        db.create_index("t_k", "t", ["k"])
        return db

    @staticmethod
    def planned(db, where):
        plan = plan_for(db, f"SELECT v FROM t WHERE {where}", "od")
        rows, _ = plan.run()
        return plan, plan.plan_info.estimate.rows, len(rows)

    def test_literal_on_the_left_is_covered_like_its_mirror(self, keyed):
        for flipped, mirror in (("1000 <= k", "k >= 1000"), ("1999 >= k", "k <= 1999")):
            _, flipped_rows, actual = self.planned(keyed, flipped)
            _, mirror_rows, _ = self.planned(keyed, mirror)
            assert flipped_rows == mirror_rows, flipped
            assert flipped_rows == pytest.approx(actual, rel=1e-3), flipped

    def test_strict_bound_is_not_enforced_by_an_inclusive_range(self, keyed):
        plan, strict_rows, actual = self.planned(keyed, "k > 1000 AND k >= 1000")
        assert "[(1000,) .. None]" in plan.explain()
        _, inclusive_rows, _ = self.planned(keyed, "k >= 1000")
        # k > 1000 is estimated again above the range it starts.
        assert strict_rows < 0.95 * inclusive_rows
        assert actual == 8_999
