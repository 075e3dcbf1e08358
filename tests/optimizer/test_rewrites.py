"""Logical rewrites: pushdown correctness and the date join elimination."""
from __future__ import annotations

import datetime

import pytest

from repro.engine.logical import (
    LogicalFilter,
    LogicalJoin,
    LogicalScan,
    bind,
    explain_logical,
)
from repro.engine.sql.parser import parse
from repro.optimizer.rewrites import (
    NameResolver,
    apply_date_rewrite,
    collect_aliases,
    conjoin,
    push_filters,
    split_conjuncts,
)
from repro.workloads.tpcds_lite import build_tpcds_lite


@pytest.fixture(scope="module")
def workload():
    return build_tpcds_lite(days=120, sales_rows=3000)


def logical_for(db, sql):
    node = bind(parse(sql))
    resolver = NameResolver(db, collect_aliases(node))
    return node, resolver


def surrogate_range(node):
    """(low, high) of the fact-side BETWEEN a date rewrite put in place."""
    from repro.engine.expr import Between

    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalFilter):
            for conjunct in split_conjuncts(node.predicate):
                if isinstance(conjunct, Between):
                    return conjunct.low.value, conjunct.high.value
        stack.extend(node.children())
    return None


class TestConjuncts:
    def test_split_nested_ands(self):
        from repro.engine.expr import BoolOp, Cmp, Col, Lit

        pred = BoolOp(
            "AND",
            [
                Cmp("=", Col("a"), Lit(1)),
                BoolOp("AND", [Cmp("=", Col("b"), Lit(2)), Cmp("=", Col("c"), Lit(3))]),
            ],
        )
        assert len(split_conjuncts(pred)) == 3

    def test_or_not_split(self):
        from repro.engine.expr import BoolOp, Cmp, Col, Lit

        pred = BoolOp("OR", [Cmp("=", Col("a"), Lit(1)), Cmp("=", Col("b"), Lit(2))])
        assert split_conjuncts(pred) == [pred]

    def test_conjoin_roundtrip(self):
        from repro.engine.expr import Cmp, Col, Lit

        a = Cmp("=", Col("a"), Lit(1))
        b = Cmp("=", Col("b"), Lit(2))
        assert conjoin([]) is None
        assert conjoin([a]) is a
        assert split_conjuncts(conjoin([a, b])) == [a, b]


class TestPushFilters:
    def test_single_alias_conjunct_reaches_scan(self, workload):
        db = workload.database
        node, resolver = logical_for(
            db,
            "SELECT ss_quantity FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            "WHERE d_year = 1999 AND ss_quantity > 5",
        )
        pushed = push_filters(node, resolver)
        text = explain_logical(pushed)
        # each conjunct sits directly over its own scan
        assert "Filter d_year = 1999" in text
        assert "Filter ss_quantity > 5" in text
        # and below the join
        join_pos = text.index("Join")
        assert text.index("d_year") > join_pos

    def test_multi_alias_residue_stays(self, workload):
        db = workload.database
        node, resolver = logical_for(
            db,
            "SELECT ss_quantity FROM store_sales ss "
            "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
            "WHERE ss_quantity > i_current_price",
        )
        pushed = push_filters(node, resolver)
        text = explain_logical(pushed)
        assert text.index("Filter ss_quantity > i_current_price") < text.index("Join")

    def test_results_unchanged(self, workload):
        db = workload.database
        lo, hi = workload.date_range(10, 20)
        sql = (
            "SELECT SUM(ss_quantity) AS q FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}' AND ss_store_sk = 2"
        )
        naive = db.execute(sql, optimize=False)
        optimized = db.execute(sql, optimize=True)
        assert naive.rows == optimized.rows


class TestDateRewrite:
    def rewrite(self, workload, sql):
        db = workload.database
        node, resolver = logical_for(db, sql)
        pushed = push_filters(node, resolver)
        return apply_date_rewrite(db, pushed, resolver)

    def test_applies_on_eligible_query(self, workload):
        lo, hi = workload.date_range(5, 30)
        rewritten, applied = self.rewrite(
            workload,
            "SELECT SUM(ss_sales_price) AS r FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}'",
        )
        assert len(applied) == 1
        record = applied[0]
        assert record.rule == "date-rewrite"
        assert record.detail.startswith("date_dim AS d: d_date in ")
        assert surrogate_range(rewritten) is not None
        assert "Join" not in explain_logical(rewritten)
        assert "(one full scan of the dimension; " in record.describe()

    def test_probe_values_correct(self, workload):
        lo, hi = workload.date_range(5, 30)
        rewritten, applied = self.rewrite(
            workload,
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}'",
        )
        (record,) = applied
        table = workload.database.table("date_dim")
        lo_d = datetime.date.fromisoformat(lo)
        hi_d = datetime.date.fromisoformat(hi)
        qualifying = [
            row[0] for row in table.rows if lo_d <= row[1] <= hi_d
        ]
        assert surrogate_range(rewritten) == (min(qualifying), max(qualifying))
        assert f"BETWEEN {min(qualifying)} AND {max(qualifying)}" in record.detail

    def test_skipped_when_dim_columns_used(self, workload):
        lo, hi = workload.date_range(5, 30)
        _, applied = self.rewrite(
            workload,
            "SELECT d.d_year, COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}' "
            "GROUP BY d.d_year",
        )
        assert applied == []

    def test_skipped_without_od_guarantee(self, workload):
        """Joining through the item dimension (no [pk] <-> [price] OD) must
        not trigger the rewrite."""
        _, applied = self.rewrite(
            workload,
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
            "WHERE i_current_price BETWEEN 10 AND 20",
        )
        assert applied == []

    def test_skipped_without_closed_range(self, workload):
        _, applied = self.rewrite(
            workload,
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            "WHERE d_year = 1999 AND d_moy = 2",
        )
        # d_year/d_moy are not range-closed on a column with the OD guarantee
        assert applied == []

    def test_empty_range_yields_false_filter(self, workload):
        beyond = (workload.start + datetime.timedelta(days=10_000)).isoformat()
        later = (workload.start + datetime.timedelta(days=10_030)).isoformat()
        rewritten, applied = self.rewrite(
            workload,
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{beyond}' AND DATE '{later}'",
        )
        (record,) = applied
        assert [fact.key for fact in record.facts] == [("date_dim", None, None)]
        assert "False" in explain_logical(rewritten)

    def test_ge_le_pair_accepted(self, workload):
        lo, hi = workload.date_range(5, 30)
        _, applied = self.rewrite(
            workload,
            "SELECT COUNT(*) AS n FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date >= DATE '{lo}' AND d.d_date <= DATE '{hi}'",
        )
        assert len(applied) == 1

    def test_rewritten_results_match(self, workload):
        db = workload.database
        lo, hi = workload.date_range(5, 30)
        sql = (
            "SELECT ss_store_sk, SUM(ss_quantity) AS q FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}' "
            "GROUP BY ss_store_sk ORDER BY ss_store_sk"
        )
        assert db.execute(sql, optimize=False).rows == db.execute(sql, optimize=True).rows


class TestDateRewriteExactness:
    """The surrogate range replaces the join only when each fact key in it
    matches exactly one qualifying dimension row."""

    BASE = datetime.date(2020, 1, 1)

    def build(self, sks, fact_sks=range(1, 11), foreign_key=False):
        from repro.core.dependency import equiv
        from repro.engine.database import Database
        from repro.engine.schema import Schema
        from repro.engine.types import DataType

        db = Database("exact")
        dim = db.create_table(
            "date_dim", Schema.of(("d_date_sk", DataType.INT), ("d_date", DataType.DATE))
        )
        dim.load([(sk, self.BASE + datetime.timedelta(days=sk)) for sk in sks])
        db.declare("date_dim", equiv("d_date_sk", "d_date"))
        sales = db.create_table(
            "sales", Schema.of(("f_date_sk", DataType.INT), ("qty", DataType.INT))
        )
        sales.load([(sk, 1) for sk in fact_sks])
        if foreign_key:
            db.declare_foreign_key("sales", ["f_date_sk"], "date_dim", ["d_date_sk"])
        return db

    def sql(self):
        lo = self.BASE + datetime.timedelta(days=3)
        hi = self.BASE + datetime.timedelta(days=7)
        return (
            "SELECT SUM(f.qty) AS q FROM sales f "
            "JOIN date_dim d ON f.f_date_sk = d.d_date_sk "
            f"WHERE d.d_date BETWEEN DATE '{lo}' AND DATE '{hi}'"
        )

    def sqlite_answer(self, db):
        import sqlite3

        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE date_dim (d_date_sk INTEGER, d_date TEXT)")
        conn.execute("CREATE TABLE sales (f_date_sk INTEGER, qty INTEGER)")
        conn.executemany(
            "INSERT INTO date_dim VALUES (?, ?)",
            [(sk, d.isoformat()) for sk, d in db.table("date_dim").rows],
        )
        conn.executemany("INSERT INTO sales VALUES (?, ?)", db.table("sales").rows)
        return conn.execute(self.sql().replace("DATE '", "'")).fetchall()

    def test_fact_orphan_in_a_gap_keeps_the_join(self):
        db = self.build([sk for sk in range(1, 11) if sk != 5])
        sql = self.sql()
        assert db.execute(sql).rows == [(4,)] == self.sqlite_answer(db)
        assert db.execute(sql, optimize=False).rows == [(4,)]
        assert db.plan(sql).plan_info.date_rewrites == []
        assert "Join" in db.explain(sql)

    def test_duplicate_dimension_key_keeps_the_join(self):
        db = self.build(sorted(list(range(1, 11)) + [4]))
        sql = self.sql()
        assert db.execute(sql).rows == [(6,)] == self.sqlite_answer(db)
        assert db.execute(sql, optimize=False).rows == [(6,)]
        assert db.plan(sql).plan_info.date_rewrites == []
        assert "Join" in db.explain(sql)

    def test_contiguous_range_records_its_fact(self):
        db = self.build(range(1, 11))
        sql = self.sql()
        (record,) = db.plan(sql).plan_info.date_rewrites
        (fact,) = record.facts
        assert (fact.kind, fact.tables, fact.key) == (
            "date-range", ("date_dim",), ("date_dim", 3, 7)
        )
        assert db.execute(sql).rows == [(5,)] == self.sqlite_answer(db)

    def test_gap_behind_a_verified_foreign_key_rewrites(self):
        """No fact row can sit in the gap, so the range is exact."""
        sks = [sk for sk in range(1, 11) if sk != 5]
        db = self.build(sks, fact_sks=sks, foreign_key=True)
        sql = self.sql()
        (record,) = db.plan(sql).plan_info.date_rewrites
        assert [fact.kind for fact in record.facts] == ["fk", "unique"]
        assert "foreign key sales(f_date_sk) -> date_dim(d_date_sk)" in record.describe()
        assert db.execute(sql).rows == [(4,)] == self.sqlite_answer(db)
