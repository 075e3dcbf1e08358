"""Every order answer the join-order search holds equals the planner's
direct question on a fresh theory.

The search asks each question once (``joinorder._Interests``): an
entry's satisfied interesting orders per ``(alias subset, order)`` class,
a joined entry inheriting its probe's answers, and merge-readiness once
per ``(entry, join keys)``.  Here every candidate's satisfied set and
every merge-readiness answer handed to ``Planner.join_planned`` is asked
again through ``Planner._order_ok`` / ``_partition_ok`` on a
``build_theory(reuse=False)`` theory of the candidate's own statements.
Covered: every ``adhoc_plan`` template of the repo benchmark (tpcds
Q1–Q13, SN4, SN6, SK2, SK3, SK5, SK6, RW2), a cyclic join graph and a
self-join, in ``od`` and ``fd`` modes.
"""
from __future__ import annotations

from collections import defaultdict

import pytest

from repro.optimizer import joinorder
from repro.optimizer.context import (
    build_theory,
    clear_theory_cache,
    theory_cache_stats,
)
from repro.optimizer.planner import _ORACLE_KEYS, _Planned
from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES, build_rewrite_pack
from repro.workloads.snowflake import (
    SNOWFLAKE_QUERIES,
    build_snowflake,
    skewed_query_sql,
)
from repro.workloads.tpcds_lite import DATE_QUERIES, build_tpcds_lite

from test_joinorder import SELF_JOIN_SQL, TRIANGLE_SQL, _triangle


def _cases():
    snow = build_snowflake(days=150, sales_rows=4_000, items=60, brands=12, stores=8)
    lo, hi = snow.date_range(30, 40)
    for qid, template, _ in SNOWFLAKE_QUERIES:
        if qid in ("SN4", "SN6"):
            yield qid, snow.database, template.format(lo=lo, hi=hi)
    skewed = skewed_query_sql(snow)
    for qid in ("SK2", "SK3", "SK5", "SK6"):
        yield qid, snow.database, skewed[qid]
    yield "self-join", snow.database, SELF_JOIN_SQL
    tpcds = build_tpcds_lite(days=120, sales_rows=3_000)
    lo, hi = tpcds.date_range(20, 30)
    for qid, template in DATE_QUERIES:
        yield qid, tpcds.database, template.format(lo=lo, hi=hi)
    pack = build_rewrite_pack(
        fact_rows=2_000, wide_rows=1_500, order_rows=2_500, customers=1_200
    )
    yield "RW2", pack, dict((q, s) for q, s, _ in REWRITE_PACK_QUERIES)["RW2"]
    yield "triangle", _triangle(), TRIANGLE_SQL


TEMPLATES = ("SN4", "SN6", "SK2", "SK3", "SK5", "SK6", "RW2", "triangle", "self-join")
QIDS = TEMPLATES + tuple(f"Q{n}" for n in range(1, 14))
#: Statements whose join an ``od`` rewrite removes (the date rewrite, scan
#: consolidation), so only ``fd`` mode searches.
NO_JOIN_IN_OD = {"RW2"} | {f"Q{n}" for n in (1, 2, 3, 4, 7, 8, 9, 10, 12, 13)}


@pytest.fixture(scope="module")
def cases():
    return {qid: (db, sql) for qid, db, sql in _cases()}


def test_cases_cover_every_adhoc_template(cases):
    assert set(QIDS) == set(cases)


def _recorded(monkeypatch, db, sql, mode):
    """Plan cold, recording each satisfied set and readiness answer."""
    satisfied, ready = [], []
    original_satisfied = joinorder._Interests.satisfied
    original_ready = joinorder._Interests.ready

    def record_satisfied(self, entry, probe=None):
        found = original_satisfied(self, entry, probe)
        satisfied.append((self, entry, found))
        return found

    def record_ready(self, entry, keys):
        found = original_ready(self, entry, keys)
        ready.append((self, entry, keys, found))
        return found

    clear_theory_cache()
    with monkeypatch.context() as patch:
        patch.setattr(joinorder._Interests, "satisfied", record_satisfied)
        patch.setattr(joinorder._Interests, "ready", record_ready)
        db.plan(sql, optimize=mode == "od", use_cache=False)
    return satisfied, ready


def _direct(monkeypatch, planner, statements, ask):
    """``ask(planner)`` with the planner's theory a fresh, uninterned one
    of ``statements``."""
    fresh = build_theory(statements, reuse=False)
    with monkeypatch.context() as patch:
        patch.setattr(planner, "_theory", lambda _statements: fresh)
        return ask(planner)


def _built(planner, entry) -> _Planned:
    """The candidate as operators, built by the planner's one join
    constructor (the search builds only the tree it chose).  The join
    kind does not change the schema, so every join is a hash join."""
    if entry.scan is not None:
        return _Planned(entry.scan, entry.statements, entry.prop)
    return planner.join_planned(
        _built(planner, entry.probe),
        _built(planner, entry.build),
        entry.probe_keys,
        entry.build_keys,
        ready=False,
    )


def _direct_satisfied(monkeypatch, interests, entry):
    schema = _built(interests.planner, entry).op.schema

    def ask(planner):
        out = set()
        for interest in interests.orders:
            try:
                resolved = tuple(schema.resolve(c) for c in interest.columns)
            except (KeyError, ValueError):
                continue
            if interest.kind == "order":
                ok = planner._order_ok(entry.statements, entry.prop.order, resolved)
            else:
                ok = planner._partition_ok(entry.statements, entry.prop.order, resolved)
            if ok:
                out.add(interest)
        return frozenset(out)

    return _direct(monkeypatch, interests.planner, entry.statements, ask)


@pytest.mark.parametrize("mode", ["od", "fd"])
@pytest.mark.parametrize("qid", QIDS)
def test_held_answers_equal_direct_questions(monkeypatch, cases, qid, mode):
    satisfied, ready = _recorded(monkeypatch, *cases[qid], mode)
    assert bool(satisfied and ready) != (mode == "od" and qid in NO_JOIN_IN_OD)
    theories = defaultdict(set)
    for interests, entry, found in satisfied:
        assert found == _direct_satisfied(monkeypatch, interests, entry), entry.label
        # One interned theory per relation subset, over its statement set.
        theories[id(interests), entry.aliases].add(id(entry.theory))
        assert set(entry.theory.statements) == set(entry.statements)
    assert all(len(ids) == 1 for ids in theories.values())
    for interests, entry, keys, found in ready:
        direct = _direct(
            monkeypatch,
            interests.planner,
            entry.statements,
            lambda planner: planner._order_ok(
                entry.statements, entry.prop.order, keys
            ),
        )
        assert found == direct, (entry.label, keys)


@pytest.mark.parametrize("qid", ["SN6", "triangle", "RW2"])
def test_plan_oracle_counters_are_the_theories_deltas(cases, qid):
    """Entries hold their own theories, and the plan still reports the
    oracle work of every theory it used: after a cold plan every interned
    theory is this plan's, so their counters sum to ``PlanInfo.oracle``."""
    db, sql = cases[qid]
    clear_theory_cache()
    info = db.plan(sql, use_cache=False).plan_info
    totals = theory_cache_stats()
    assert info.oracle == {key: totals[key] for key in _ORACLE_KEYS}
    assert info.oracle["implies_calls"] > 0
