"""Unit tests for whole-plan memoization: fingerprints, LRU, stats,
epoch invalidation, and the Database threading."""
from __future__ import annotations

import pytest

from repro.core.dependency import fd, od
from repro.engine.database import Database
from repro.engine.epoch import bump_epoch, catalog_epoch, current_epoch
from repro.engine.options import ExecOptions
from repro.engine.schema import Schema
from repro.engine.types import DataType
from repro.optimizer.plan_cache import PlanCache, canonical_tuple, fingerprint


def _db() -> Database:
    database = Database("pc")
    table = database.create_table(
        "t",
        Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT)),
    )
    table.load([(i, i * 3, (i * 7) % 13) for i in range(20)])
    database.declare("t", od("a", "b"))
    database.create_index("t_a", "t", ["a"], clustered=True)
    return database


def _logical(sql: str):
    from repro.engine.logical import bind
    from repro.engine.sql.parser import parse

    return bind(parse(sql))


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic(self):
        sql = "SELECT a, b FROM t ORDER BY a"
        assert fingerprint(_logical(sql)) == fingerprint(_logical(sql))

    def test_whitespace_and_case_insensitive(self):
        """Different SQL text, same logical tree, same fingerprint."""
        a = _logical("SELECT a, b FROM t ORDER BY a")
        b = _logical("select  a,\n b  from t order by a")
        assert fingerprint(a) == fingerprint(b)

    def test_literal_sensitive(self):
        a = _logical("SELECT a FROM t WHERE b = 1")
        b = _logical("SELECT a FROM t WHERE b = 2")
        assert fingerprint(a) != fingerprint(b)

    def test_alias_sensitive(self):
        a = _logical("SELECT x.a FROM t x ORDER BY x.a")
        b = _logical("SELECT y.a FROM t y ORDER BY y.a")
        assert fingerprint(a) != fingerprint(b)

    def test_structure_sensitive(self):
        plain = _logical("SELECT a FROM t")
        distinct = _logical("SELECT DISTINCT a FROM t")
        limited = _logical("SELECT a FROM t LIMIT 5")
        sorted_ = _logical("SELECT a FROM t ORDER BY a")
        prints = {fingerprint(n) for n in (plain, distinct, limited, sorted_)}
        assert len(prints) == 4

    def test_canonical_tuple_round_trips_all_nodes(self):
        sql = (
            "SELECT DISTINCT x.a AS g, COUNT(*) AS n FROM t x "
            "JOIN t y ON x.a = y.a WHERE x.b >= 3 "
            "GROUP BY g ORDER BY g LIMIT 7"
        )
        shape = canonical_tuple(_logical(sql))
        assert isinstance(shape, tuple) and shape[0] in ("limit",)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            canonical_tuple("not a logical node")


# ----------------------------------------------------------------------
# The cache data structure
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        assert cache.lookup("f1", "od", 0) is None
        cache.store("f1", "od", 0, plan="P")
        entry = cache.lookup("f1", "od", 0)
        assert entry is not None and entry.plan == "P" and entry.serves == 1

    def test_plan_keys_do_not_share_entries(self):
        cache = PlanCache(capacity=4)
        od, fd = ExecOptions().plan_key, ExecOptions(optimize=False).plan_key
        cache.store("f1", od, 0, plan="od-plan")
        assert cache.lookup("f1", fd, 0) is None
        entry = cache.lookup("f1", ExecOptions().plan_key, 0)
        assert entry.plan == "od-plan" and entry.plan_key == od

    def test_epoch_mismatch_invalidates(self):
        cache = PlanCache(capacity=4)
        cache.store("f1", "od", 0, plan="P")
        assert cache.lookup("f1", "od", 1) is None
        assert cache.stats()["stale_invalidations"] == 1
        assert len(cache) == 0  # dropped, not shadowed

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.store("f1", "od", 0, plan="a")
        cache.store("f2", "od", 0, plan="b")
        cache.lookup("f1", "od", 0)  # f1 most recent
        cache.store("f3", "od", 0, plan="c")
        assert cache.lookup("f2", "od", 0) is None  # evicted
        assert cache.lookup("f1", "od", 0) is not None
        assert cache.stats()["evictions"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_stats_shape(self):
        cache = PlanCache(capacity=3)
        cache.store("f1", "od", 0, plan="a")
        cache.lookup("f1", "od", 0)
        cache.lookup("f2", "od", 0)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["size"] == 1
        assert stats["capacity"] == 3 and stats["hit_rate"] == 0.5

    def test_clear_keeps_counters(self):
        cache = PlanCache(capacity=3)
        cache.store("f1", "od", 0, plan="a")
        cache.clear()
        assert len(cache) == 0 and cache.stats()["stores"] == 1


# ----------------------------------------------------------------------
# Database threading
# ----------------------------------------------------------------------
class TestDatabaseIntegration:
    def test_repeat_plan_is_identical_object(self):
        database = _db()
        sql = "SELECT a, b FROM t ORDER BY a"
        assert database.plan(sql) is database.plan(sql)

    def test_different_sql_same_tree_shares_plan(self):
        database = _db()
        first = database.plan("SELECT a, b FROM t ORDER BY a")
        second = database.plan("select a,  b from t order by a")
        assert second is first

    def test_modes_cached_separately(self):
        database = _db()
        sql = "SELECT a, b FROM t ORDER BY a, b"
        od_plan = database.plan(sql, optimize=True)
        fd_plan = database.plan(sql, optimize=False)
        assert od_plan is not fd_plan
        assert database.plan(sql, optimize=True) is od_plan
        assert database.plan(sql, optimize=False) is fd_plan

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"optimize": False},
            {"join_order": "syntactic"},
            {"rewrites": "off"},
            {"workers": 2},
            {"workers": 4},
            {"workers": 2, "backend": "process"},
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_entries_are_keyed_by_the_options_plan_key(self, kwargs):
        """Options with different plan_keys never share a cached plan;
        equal keys (however the kwargs spell them) do."""
        database = _db()
        sql = "SELECT a, b FROM t ORDER BY a, b"
        base = database.plan(sql)
        assert ExecOptions(**kwargs).plan_key != ExecOptions().plan_key
        other = database.plan(sql, **kwargs)
        assert other is not base
        assert database.plan(sql, **kwargs) is other
        assert database.plan(sql) is base
        keys = {entry.plan_key for entry in database.plan_cache._entries.values()}
        assert keys == {ExecOptions().plan_key, ExecOptions(**kwargs).plan_key}

    def test_batch_size_is_not_part_of_the_plan_key(self):
        database = _db()
        sql = "SELECT a, b FROM t ORDER BY a, b"
        assert ExecOptions(batch_size=7).plan_key == ExecOptions().plan_key
        assert database.execute(sql, batch_size=7).plan is database.plan(sql)
        # ...and the spelled-out default backend is the unspecified one.
        assert (
            ExecOptions(workers=2, backend="inline").plan_key
            == ExecOptions(workers=2).plan_key
        )

    def test_bypass_neither_reads_nor_fills(self):
        database = _db()
        sql = "SELECT a FROM t"
        plan = database.plan(sql, use_cache=False)
        assert plan.plan_info.cache_state == "bypass"
        assert database.plan_cache_stats()["stores"] == 0
        cached = database.plan(sql)
        assert cached is not plan

    def test_ddl_invalidates(self):
        # c is covered by no OD, so before the index the plan must sort
        database = _db()
        sql = "SELECT a, c FROM t ORDER BY c"
        before = database.plan(sql)
        assert "Sort" in before.explain()
        database.create_index("t_c", "t", ["c"])
        after = database.plan(sql)
        assert after is not before
        # the new catalog is actually used: index on c replaces the sort
        assert "IndexScan(t_c" in after.explain()
        assert "Sort" not in after.explain()

    def test_plan_cache_stats_exposed(self):
        database = _db()
        sql = "SELECT a FROM t"
        database.plan(sql)
        database.plan(sql)
        stats = database.plan_cache_stats()
        assert stats["hits"] == 1 and stats["stores"] == 1

    def test_describe_reports_cache_lines(self):
        database = _db()
        sql = "SELECT a, b FROM t ORDER BY a"
        stored = database.explain(sql, verbose=True)
        assert "plan cache: entry " in stored
        assert "served 0x from cache" in stored
        served = database.explain(sql, verbose=True)
        assert "served 1x from cache" in served
        assert "from the initial planning" in served
        bypass = database.explain(sql, verbose=True, use_cache=False)
        assert "plan cache" not in bypass  # no fingerprint → no cache line

    def test_cached_oracle_stats_preserved(self):
        """Per-entry attribution: a hit reports the oracle work that built
        the entry, not zeros."""
        database = _db()
        sql = "SELECT a, b FROM t ORDER BY a, b"
        built = database.plan(sql).plan_info.oracle.copy()
        assert built["implies_calls"] > 0
        served = database.plan(sql).plan_info.oracle
        assert served == built

    def test_reexecution_of_cached_plan_is_stable(self):
        database = _db()
        sql = "SELECT a, b FROM t WHERE a >= 5 ORDER BY a"
        first = database.execute(sql)
        second = database.execute(sql)
        assert second.plan is first.plan
        assert second.rows == first.rows

    def test_logical_memo_bounded(self):
        database = _db()
        for i in range(database._LOGICAL_MEMO_SIZE + 40):
            database._bind(f"SELECT a FROM t WHERE b = {i}")
        assert len(database._logical_memo) == database._LOGICAL_MEMO_SIZE

    def test_epoch_stamp_recorded_on_plan_info(self):
        """Plans are stamped with the catalog epoch: a catalog bump
        re-plans, an insert advances only the data epoch and is served
        from the stamped plan with the new row in its answer."""
        database = _db()
        sql = "SELECT a FROM t"
        plan = database.plan(sql)
        assert plan.plan_info.epoch == catalog_epoch()
        bump_epoch("test")
        replanned = database.plan(sql)
        assert replanned is not plan
        assert replanned.plan_info.epoch == catalog_epoch()
        before = current_epoch(), catalog_epoch()
        database.table("t").insert((20, 60, 1))
        assert current_epoch() > before[0] and catalog_epoch() == before[1]
        served = database.execute(sql)
        assert served.plan is replanned
        assert sorted(served.rows) == sorted(database.execute(sql, use_cache=False).rows)
        assert (20,) in served.rows


# ----------------------------------------------------------------------
# Why a plan was kept or dropped after a write
# ----------------------------------------------------------------------
REASONS = ("stale_invalidations", "fact_invalidations", "growth_replans")
FK_SQL = "SELECT f.x FROM fact f JOIN dim d ON f.fk = d.k"


def _fk_db() -> Database:
    """A fact whose join to ``dim`` FD join elimination removes."""
    database = Database("pcfk")
    dim = database.create_table("dim", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
    dim.load([(i, i % 3) for i in range(10)])
    database.declare("dim", fd("k", "v"))
    fact = database.create_table("fact", Schema.of(("fk", DataType.INT), ("x", DataType.INT)))
    fact.load([(i % 10, i) for i in range(50)])
    database.declare_foreign_key("fact", ["fk"], "dim", ["k"])
    return database


class TestReplanReasons:
    def moved(self, database, before):
        after = database.plan_cache_stats()
        return {reason for reason in REASONS if after[reason] != before[reason]}

    def assert_fresh_answer(self, database, sql):
        served = database.execute(sql)
        assert sorted(served.rows) == sorted(database.execute(sql, use_cache=False).rows)
        return served

    def test_valid_append_is_served_and_rechecks_the_fk(self):
        database = _fk_db()
        plan = database.plan(FK_SQL)
        assert [r.rule for r in plan.plan_info.rewrites] == ["join-elimination"]
        before = database.plan_cache_stats()
        database.table("fact").insert((3, 50))
        served = self.assert_fresh_answer(database, FK_SQL)
        assert served.plan is plan and (50,) in served.rows
        assert self.moved(database, before) == set()

    def test_orphan_moves_fact_invalidations_only(self):
        database = _fk_db()
        plan = database.plan(FK_SQL)
        before = database.plan_cache_stats()
        database.table("fact").insert((99, 50))
        served = self.assert_fresh_answer(database, FK_SQL)
        assert served.plan is not plan and (50,) not in served.rows
        assert served.plan.plan_info.rewrites == []
        assert self.moved(database, before) == {"fact_invalidations"}

    def test_growth_past_the_fraction_moves_growth_replans_only(self):
        from repro.optimizer.plan_cache import REPLAN_GROWTH

        database = _db()
        sql = "SELECT a FROM t WHERE a >= 3"
        plan = database.plan(sql)
        table = database.table("t")
        within = int(len(table.rows) * REPLAN_GROWTH)
        before = database.plan_cache_stats()
        table.load([(100 + i, 300 + 3 * i, 0) for i in range(within)])
        assert self.assert_fresh_answer(database, sql).plan is plan
        table.insert((200, 600, 0))
        served = self.assert_fresh_answer(database, sql)
        assert served.plan is not plan and (200,) in served.rows
        assert self.moved(database, before) == {"growth_replans"}

    def test_shrink_moves_growth_replans_only(self):
        database = _db()
        sql = "SELECT a FROM t"
        plan = database.plan(sql)
        before = database.plan_cache_stats()
        database.table("t").rows.pop()
        served = self.assert_fresh_answer(database, sql)
        assert served.plan is not plan and len(served.rows) == 19
        assert self.moved(database, before) == {"growth_replans"}

    def test_catalog_change_moves_stale_invalidations_only(self):
        database = _fk_db()
        plan = database.plan(FK_SQL)
        before = database.plan_cache_stats()
        database.create_table("other", Schema.of(("z", DataType.INT)))
        served = self.assert_fresh_answer(database, FK_SQL)
        assert served.plan is not plan
        assert self.moved(database, before) == {"stale_invalidations"}

    def test_snapshot_carries_the_counters(self):
        snapshot = _fk_db().stats_snapshot()
        for reason in REASONS:
            assert snapshot["plan_cache"][reason] == 0

    def test_explain_prints_planned_rows_and_facts(self):
        database = _fk_db()
        planned = database.explain(FK_SQL, verbose=True)
        assert "planned on rows: dim 10, fact 50\n" in planned
        assert "relies on: foreign key fact(fk) -> dim(k)" in planned
        assert "relies on: unique key dim(k)" in planned
        database.table("fact").insert((3, 50))
        served = database.explain(FK_SQL, verbose=True)
        assert "planned on rows: dim 10, fact 50 (now 51)" in served
