"""Property tests (seeded) for the epoch invalidation contract.

Random sequences of catalog/constraint/data mutations are applied to a
live database while a query template is planned between every step.  The
invariants, for every seed and every mutation order:

* **every** mutation strictly bumps the global epoch, and every catalog
  mutation the catalog epoch; an insert leaves the catalog epoch alone;
* a query planned after a catalog mutation is never answered with a plan
  object built before it;
* after an insert the cached plan is served until its table has grown by
  more than ``REPLAN_GROWTH``, then re-planned — and either way its
  answer equals a fresh ``use_cache=False`` plan's, in order;
* re-planning with no intervening mutation *is* answered from cache;
* `build_theory` interning does *not* follow the epochs: a mutation that
  leaves the constraints alone plans afresh without deciding any goal
  twice, and one that adds a constraint plans against the new statements.
"""
from __future__ import annotations

import random

import pytest

from repro.core.dependency import fd, od
from repro.engine.database import Database
from repro.engine.epoch import catalog_epoch, current_epoch, epoch_log
from repro.engine.schema import Schema
from repro.engine.types import DataType
from repro.optimizer.context import (
    alias_constraints,
    build_theory,
    clear_theory_cache,
)
from repro.optimizer.plan_cache import REPLAN_GROWTH

SQL = "SELECT a, b FROM t ORDER BY a, b"


def _fresh_db(tag: str) -> Database:
    database = Database(f"prop_{tag}")
    table = database.create_table(
        "t", Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT))
    )
    table.load([(i, i * 2, i % 3) for i in range(30)])
    database.declare("t", od("a", "b"))
    database.create_index("t_a", "t", ["a"], clustered=True)
    return database


def _mutations(database: Database, rng: random.Random, counter: list):
    """The pool of randomly applicable catalog/constraint/data mutations."""

    def create_table():
        counter[0] += 1
        database.create_table(
            f"side{counter[0]}", Schema.of(("x", DataType.INT))
        )

    def create_index():
        counter[0] += 1
        database.create_index(f"ix{counter[0]}", "t", ["b"])

    def declare_constraint():
        # re-declarable: holds in the generated data by construction
        database.declare("t", fd("a", "b,c"))

    def insert_row():
        counter[0] += 1
        database.table("t").insert((1000 + counter[0], 2000 + counter[0], 0))

    return [create_table, create_index, declare_constraint, insert_row]


def _assert_answers_fresh(database: Database) -> None:
    served = database.execute(SQL)
    assert served.rows == database.execute(SQL, use_cache=False).rows
    assert served.rows == sorted(served.rows)


def _replan_due(plan, database: Database) -> bool:
    planned = plan.plan_info.planned_rows["t"]
    return len(database.table("t").rows) > planned * (1 + REPLAN_GROWTH)


@pytest.mark.parametrize("seed", range(8))
def test_random_mutations_always_bump_epoch_and_invalidate(seed):
    rng = random.Random(seed)
    database = _fresh_db(f"m{seed}")
    counter = [0]
    pool = _mutations(database, rng, counter)

    previous_plan = database.plan(SQL)
    assert database.plan(SQL) is previous_plan  # no mutation → cache hit

    for step in range(12):
        mutation = rng.choice(pool)
        epoch_before, catalog_before = current_epoch(), catalog_epoch()
        counters = database.plan_cache_stats()
        mutation()
        assert current_epoch() > epoch_before, (
            f"seed {seed} step {step}: {mutation.__name__} did not bump"
        )
        fresh = database.plan(SQL)
        after = database.plan_cache_stats()
        if mutation.__name__ == "insert_row":
            assert catalog_epoch() == catalog_before
            assert after["stale_invalidations"] == counters["stale_invalidations"]
            if _replan_due(previous_plan, database):
                assert fresh is not previous_plan
                assert fresh.plan_info.cache_state == "miss"
                assert after["growth_replans"] == counters["growth_replans"] + 1
            else:
                assert fresh is previous_plan, (
                    f"seed {seed} step {step}: insert re-planned"
                )
                assert fresh.plan_info.cache_state == "hit"
        else:
            assert catalog_epoch() > catalog_before
            assert fresh is not previous_plan, (
                f"seed {seed} step {step}: pre-mutation plan served after "
                f"{mutation.__name__}"
            )
            assert fresh.plan_info.cache_state == "miss"
            assert after["stale_invalidations"] == counters["stale_invalidations"] + 1
        assert fresh.plan_info.epoch == catalog_epoch()
        _assert_answers_fresh(database)
        # and the re-plan with no further mutation hits the entry
        assert database.plan(SQL) is fresh
        previous_plan = fresh


@pytest.mark.parametrize("seed", range(4))
def test_mutation_reasons_are_logged(seed):
    rng = random.Random(100 + seed)
    database = _fresh_db(f"log{seed}")
    counter = [0]
    pool = _mutations(database, rng, counter)
    expected = {
        "create_table": "create-table",
        "create_index": "create-index",
        "declare_constraint": "declare",
        "insert_row": "insert",
    }
    for _ in range(6):
        mutation = rng.choice(pool)
        reason = expected[mutation.__name__]
        before = epoch_log().get(reason, 0)
        mutation()
        assert epoch_log()[reason] > before


# ----------------------------------------------------------------------
# The build_theory half of the contract: plans go stale with every
# mutation, verdicts only with the statements they were derived from.
# ----------------------------------------------------------------------
class TestTheoryInterningAcrossMutations:
    @pytest.mark.parametrize("seed", range(4))
    def test_replanning_decides_nothing_twice_unless_statements_changed(self, seed):
        rng = random.Random(200 + seed)
        database = _fresh_db(f"clock{seed}")
        counter = [0]
        pool = _mutations(database, rng, counter)
        clear_theory_cache()

        previous_plan = database.plan(SQL)
        for step in range(6):
            mutation = rng.choice(pool)
            mutation()
            plan = database.plan(SQL)
            if mutation.__name__ == "insert_row" and not _replan_due(
                previous_plan, database
            ):
                assert plan is previous_plan, (
                    f"seed {seed} step {step}: insert re-planned"
                )
            else:
                assert plan is not previous_plan, (
                    f"seed {seed} step {step}: stale plan after {mutation.__name__}"
                )
            _assert_answers_fresh(database)
            if mutation.__name__ in ("create_table", "insert_row"):
                # Same statements, same goals: planning afresh finds every
                # answer memoised.
                oracle = database.plan(SQL, use_cache=False).plan_info.oracle
                assert oracle["implies_calls"] > 0
                assert oracle["cache_misses"] == 0, mutation.__name__
                assert oracle["enumerations"] == 0, mutation.__name__
            elif mutation.__name__ == "declare_constraint":
                theory = build_theory(alias_constraints(database, "t", "t"))
                assert theory.implies(fd("t.a", "t.b,t.c"))
            previous_plan = plan
