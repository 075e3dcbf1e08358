"""Physical planning: plan shapes per mode and cross-mode equivalence."""
from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.logical import bind
from repro.engine.sql.parser import parse
from repro.optimizer.planner import Planner
from repro.workloads.datedim import build_date_dim
from repro.workloads.taxes import build_taxes
from repro.workloads.tpcds_lite import DATE_QUERIES, build_tpcds_lite


@pytest.fixture(scope="module")
def date_db():
    db = Database()
    build_date_dim(db, days=365 * 2)
    return db


@pytest.fixture(scope="module")
def tax_db():
    db = Database()
    build_taxes(db, rows=2000)
    return db


@pytest.fixture(scope="module")
def tpcds():
    return build_tpcds_lite(days=150, sales_rows=4000)


def plan_for(db, sql, mode):
    return Planner(db, mode=mode).plan(bind(parse(sql)))


EXAMPLE1 = """
SELECT d_year, d_qoy, d_moy, COUNT(*) AS days
FROM date_dim d
GROUP BY d_year, d_qoy, d_moy
ORDER BY d_year, d_qoy, d_moy
"""


class TestExample1Plans:
    """The paper's introductory query across the three reasoning levels."""

    def test_naive_sorts_and_hashes(self, date_db):
        plan = plan_for(date_db, EXAMPLE1, "naive")
        text = plan.explain()
        assert "Sort" in text and "HashAggregate" in text and "SeqScan" in text

    def test_fd_streams_but_still_sorts(self, date_db):
        plan = plan_for(date_db, EXAMPLE1, "fd")
        text = plan.explain()
        assert "StreamAggregate" in text
        assert "Sort" in text  # FDs cannot remove DEQUARTER from the order-by

    def test_od_eliminates_the_sort(self, date_db):
        plan = plan_for(date_db, EXAMPLE1, "od")
        text = plan.explain()
        assert "StreamAggregate" in text
        assert "Sort" not in text
        assert plan.plan_info.avoided_sorts >= 1

    def test_all_modes_agree_on_rows(self, date_db):
        rows = {
            mode: plan_for(date_db, EXAMPLE1, mode).run()[0]
            for mode in ("naive", "fd", "od")
        }
        assert rows["naive"] == rows["fd"] == rows["od"]

    def test_od_work_strictly_less(self, date_db):
        work = {}
        for mode in ("naive", "fd", "od"):
            _, metrics = plan_for(date_db, EXAMPLE1, mode).run()
            work[mode] = metrics.work
        assert work["od"] < work["fd"] < work["naive"]


class TestExample5Plans:
    """Taxes: ORDER BY bracket, payable answered by the income index."""

    SQL = "SELECT income, bracket, payable FROM taxes ORDER BY bracket, payable"

    def test_od_avoids_sort(self, tax_db):
        plan = plan_for(tax_db, self.SQL, "od")
        assert "Sort" not in plan.explain()
        assert "IndexScan" in plan.explain()

    def test_fd_needs_sort(self, tax_db):
        plan = plan_for(tax_db, self.SQL, "fd")
        assert "Sort" in plan.explain()

    def test_rows_equal(self, tax_db):
        od_rows = plan_for(tax_db, self.SQL, "od").run()[0]
        fd_rows = plan_for(tax_db, self.SQL, "fd").run()[0]
        # orders may differ on ties; compare the sort keys and multisets
        assert [(r[1], r[2]) for r in od_rows] == [(r[1], r[2]) for r in fd_rows]
        assert sorted(od_rows) == sorted(fd_rows)


class TestSortReduction:
    def test_reduced_sort_keys(self, date_db):
        sql = "SELECT d_date_sk, d_year, d_qoy, d_moy FROM date_dim ORDER BY d_year, d_qoy, d_moy"
        plan = plan_for(date_db, sql, "od")
        # either the sort vanished (an index provides the order) or it runs
        # on the reduced keys [d_year, d_moy]
        text = plan.explain()
        assert "d_qoy" not in text.split("Sort")[-1] or "Sort" not in text

    def test_constant_orderby_dropped(self, tax_db):
        sql = "SELECT income FROM taxes WHERE bracket = 3 ORDER BY bracket"
        plan = plan_for(tax_db, sql, "od")
        assert "Sort" not in plan.explain()


class TestMergeJoinSelection:
    def test_merge_join_when_both_sides_sorted(self, tpcds):
        db = tpcds.database
        sql = (
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk"
        )
        plan = plan_for(db, sql, "od")
        # both clustered indexes provide sk order: MergeJoin without sorts
        text = plan.explain()
        if "MergeJoin" in text:
            assert "Sort" not in text

    def test_join_results_stable_across_modes(self, tpcds):
        db = tpcds.database
        sql = (
            "SELECT s_state, COUNT(*) AS n FROM store_sales ss "
            "JOIN store s ON ss.ss_store_sk = s.s_store_sk "
            "GROUP BY s_state ORDER BY s_state"
        )
        rows = {m: plan_for(db, sql, m).run()[0] for m in ("naive", "fd", "od")}
        assert rows["naive"] == rows["fd"] == rows["od"]


class TestTpcdsSweep:
    """Every rewrite-eligible query: identical answers, od never slower."""

    @pytest.mark.parametrize("qid,template", DATE_QUERIES)
    def test_query(self, tpcds, qid, template):
        db = tpcds.database
        lo, hi = tpcds.date_range(20, 25)
        sql = template.format(lo=lo, hi=hi)
        base = db.execute(sql, optimize=False)
        opt = db.execute(sql, optimize=True)
        assert sorted(base.rows) == sorted(opt.rows), qid
        assert opt.plan.plan_info.date_rewrites, f"{qid}: rewrite did not fire"
        assert opt.metrics.work < base.metrics.work, f"{qid}: no benefit"


class TestPlanInfo:
    def test_notes_record_reductions(self, date_db):
        plan = plan_for(date_db, EXAMPLE1, "od")
        info = plan.plan_info
        assert info.mode == "od"
        assert info.stream_aggregates >= 1

    def test_invalid_mode_rejected(self, date_db):
        with pytest.raises(ValueError):
            Planner(date_db, mode="quantum")


class TestMixedTypeComparisons:
    """An ordered comparison of a column with a literal it cannot be
    ordered against is a typed planning error, in every mode."""

    MODES = ("naive", "fd", "od")

    @pytest.fixture(scope="class")
    def dd(self):
        from repro.engine.schema import Schema
        from repro.engine.types import DataType

        db = Database("mixed")
        table = db.create_table(
            "dd", Schema.of(("sk", DataType.INT), ("dt", DataType.INT), ("f", DataType.FLOAT))
        )
        table.load([(i, 10 * i, i / 2) for i in range(1, 9)])
        return db

    @pytest.mark.parametrize("sql, message", [
        (f"SELECT sk FROM dd WHERE {predicate}", r"column '(dt|f)' .* literal '(a|z|x)'")
        for predicate in (
            "dt < 'a'", "'a' >= dt", "dt BETWEEN 1 AND 'z'", "sk > 0 AND NOT (f <= 'x')",
        )
    ] + [
        # Shapes the planner does not type: the kernel names the
        # expression and both operand types when it runs.
        (
            "SELECT sk, COUNT(*) AS n FROM dd GROUP BY sk HAVING n > 'a'",
            r"n > 'a': .*'int' and 'str'",
        ),
        ("SELECT dt < 'a' AS x FROM dd", r"dt < 'a': .*'int' and 'str'"),
        ("SELECT sk FROM dd WHERE dt + 1 < 'a'", r"\(dt \+ 1\) < 'a': .*'int' and 'str'"),
    ])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_raises_typed_error_naming_column_and_literal(
        self, dd, mode, batch_size, sql, message
    ):
        from repro.engine.types import TypeError_

        with pytest.raises(TypeError_, match=message):
            plan_for(dd, sql, mode).run(batch_size)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_numbers_and_equality_stay_legal(self, dd, mode, batch_size):
        cases = {
            "dt < 35.5": [(1,), (2,), (3,)],
            "f >= 3": [(6,), (7,), (8,)],
            "dt BETWEEN 20 AND 30.0": [(2,), (3,)],
            "dt = 'a'": [],
        }
        for predicate, expected in cases.items():
            plan = plan_for(dd, f"SELECT sk FROM dd WHERE {predicate} ORDER BY sk", mode)
            rows, _ = plan.run(batch_size)
            assert rows == expected, (predicate, mode)

    def test_date_rewrite_raises_before_reading_the_dimension(self, tpcds):
        from repro.engine.types import TypeError_

        sql = (
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            "WHERE d.d_date BETWEEN 'a' AND 'b'"
        )
        with pytest.raises(TypeError_, match="d.d_date"):
            tpcds.database.plan(sql, use_cache=False)
