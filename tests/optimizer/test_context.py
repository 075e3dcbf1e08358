"""Query-scoped theory assembly: qualification, join equivalences,
constants."""
from __future__ import annotations

import pytest

from repro.core.attrs import attrlist
from repro.core.dependency import compat, equiv, fd, od
from repro.optimizer.context import (
    alias_constraints,
    build_theory,
    constant_statement,
    join_equivalence,
    qualify_statement,
)


class TestQualify:
    def test_od(self):
        assert qualify_statement(od("a", "b"), "t") == od("t.a", "t.b")

    def test_equiv(self):
        assert qualify_statement(equiv("a", "b"), "t") == equiv("t.a", "t.b")

    def test_compat(self):
        assert qualify_statement(compat("a", "b"), "t") == compat("t.a", "t.b")

    def test_fd(self):
        qualified = qualify_statement(fd("a,b", "c"), "t")
        assert qualified == fd("t.a,t.b", "t.c")

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            qualify_statement("nonsense", "t")

    def test_lists_keep_order(self):
        qualified = qualify_statement(od("b,a", "c"), "t")
        assert tuple(qualified.lhs) == ("t.b", "t.a")


class TestBuildingBlocks:
    def test_join_equivalence(self):
        """One orientation whichever side probes, so a join tree's
        statement set does not depend on the join direction."""
        statement = join_equivalence("f.sk", "d.sk")
        assert statement == join_equivalence("d.sk", "f.sk")
        assert statement == equiv("d.sk", "f.sk")

    def test_constant(self):
        statement = constant_statement("t.year")
        assert tuple(statement.lhs) == ()
        assert tuple(statement.rhs) == ("t.year",)

    def test_alias_constraints_pull_from_catalog(self):
        from repro.engine.database import Database
        from repro.engine.schema import Schema
        from repro.engine.types import DataType

        db = Database()
        table = db.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(1, 1), (2, 2)])
        db.declare("t", od("a", "b"))
        statements = alias_constraints(db, "x", "t")
        assert statements == [od("x.a", "x.b")]

    def test_alias_constraints_qualify_once_until_a_declare(self):
        """Qualified once per (table, alias); each caller gets its own list
        to extend, and a ``declare`` between two plans is seen by the
        second."""
        from repro.engine.database import Database
        from repro.engine.schema import Schema
        from repro.engine.types import DataType

        db = Database()
        table = db.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(1, 1), (2, 2)])
        db.declare("t", od("a", "b"))
        sql = "SELECT a, b FROM t ORDER BY b"
        db.plan(sql)
        first = alias_constraints(db, "t", "t")
        first.append(od("t.b", "t.a"))  # the caller's copy only
        second = alias_constraints(db, "t", "t")
        assert second == [od("t.a", "t.b")] and second[0] is first[0]
        db.declare("t", od("b", "a"))
        db.plan(sql)
        assert alias_constraints(db, "t", "t") == [od("t.a", "t.b"), od("t.b", "t.a")]
        assert alias_constraints(db, "x", "t") == [od("x.a", "x.b"), od("x.b", "x.a")]


class TestInterning:
    """``build_theory(reuse=True)`` interns on the statements alone:
    implication quantifies over all instances, so data changes leave every
    verdict standing, and a new constraint is a different statement list."""

    @staticmethod
    def _db():
        from repro.engine.database import Database
        from repro.engine.schema import Schema
        from repro.engine.types import DataType

        db = Database()
        table = db.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(i, i // 2) for i in range(20)])
        return db

    def test_same_statements_intern_same_instance(self):
        from repro.optimizer.context import clear_theory_cache

        clear_theory_cache()
        statements = (od("ctx_a", "ctx_b"),)
        assert build_theory(statements) is build_theory(statements)

    def test_insert_keeps_theory_and_its_verdicts(self):
        """After an insert the same statements give the same theory: the
        cached plan is served with no oracle work at all, and planning the
        same query afresh asks the oracle nothing new — both answering
        with the inserted row."""
        from repro.optimizer.context import clear_theory_cache

        clear_theory_cache()
        db = self._db()
        db.declare("t", od("a", "b"))
        sql = "SELECT a, b FROM t ORDER BY a, b"
        theory = build_theory(alias_constraints(db, "t", "t"))
        first = db.plan(sql).plan_info
        assert first.oracle["enumerations"] > 0
        db.table("t").insert((20, 10))
        assert build_theory(alias_constraints(db, "t", "t")) is theory
        served = db.execute(sql)
        assert served.plan.plan_info is first and first.cache_state == "hit"
        fresh = db.execute(sql, use_cache=False)
        second = fresh.plan.plan_info
        assert second is not first and second.cache_state == "bypass"
        assert second.oracle["cache_misses"] == 0
        assert second.oracle["enumerations"] == 0
        assert second.oracle_hit_rate == 1.0
        assert served.rows == fresh.rows and served.rows[-1] == (20, 10)

    def test_declare_changes_the_next_plans_verdict(self):
        """A goal the new constraint implies flips from refuted to implied
        in the next plan: the sort it needed is discharged."""
        db = self._db()
        db.create_index("t_a", "t", ["a"], clustered=True)
        sql = "SELECT a, b FROM t ORDER BY b"
        goal = od("t.a", "t.b")
        assert not build_theory(alias_constraints(db, "t", "t")).implies(goal)
        assert db.plan(sql).plan_info.avoided_sorts == 0
        db.declare("t", od("a", "b"))
        assert build_theory(alias_constraints(db, "t", "t")).implies(goal)
        assert db.plan(sql).plan_info.avoided_sorts == 1


class TestComposedTheory:
    def test_join_equivalence_transfers_constraints(self):
        """The scenario behind the date rewrite: a constraint on the
        dimension's key transfers across the join equality."""
        theory = build_theory(
            [
                qualify_statement(equiv("sk", "dt"), "d"),
                join_equivalence("f.sk", "d.sk"),
            ]
        )
        assert theory.implies(od("f.sk", "d.dt"))
        assert theory.implies(equiv("f.sk", "d.dt"))

    def test_filter_constant_enables_reduction(self):
        theory = build_theory(
            [constant_statement("t.year"), qualify_statement(od("a", "b"), "t")]
        )
        from repro.optimizer.reduce_order import reduce_order_od

        assert reduce_order_od(theory, ["t.year", "t.a", "t.b"]) == ("t.a",)
