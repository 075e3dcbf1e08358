"""Cost-based join ordering: graph extraction, DP/greedy search, the
OD-aware interesting-order frontier, EXPLAIN reporting, cache keying, and
the random-join-graph equivalence property."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.logical import bind
from repro.engine.schema import Schema
from repro.engine.sql.parser import parse
from repro.engine.types import DataType
from repro.optimizer.joingraph import extract_join_graph
from repro.optimizer.planner import Planner
from repro.optimizer.rewrites import NameResolver, collect_aliases, push_filters
from repro.workloads.snowflake import SNOWFLAKE_QUERIES, build_snowflake

QUERIES = {qid: (template, keys) for qid, template, keys in SNOWFLAKE_QUERIES}


@pytest.fixture(scope="module")
def snowflake():
    return build_snowflake(days=150, sales_rows=4_000, items=60, brands=12, stores=8)


def _sql(workload, qid: str) -> str:
    lo, hi = workload.date_range(30, 40)
    return QUERIES[qid][0].format(lo=lo, hi=hi)


# ----------------------------------------------------------------------
# Join-graph extraction
# ----------------------------------------------------------------------
class TestJoinGraph:
    def _graph(self, database, sql):
        logical = bind(parse(sql))
        resolver = NameResolver(database, collect_aliases(logical))
        pushed = push_filters(logical, resolver)
        # descend through the unary chain to the topmost join
        node = pushed
        while not hasattr(node, "left_columns"):
            node = node.children()[0]
        return extract_join_graph(node, resolver)

    def test_extracts_relations_and_edges(self, snowflake):
        graph = self._graph(snowflake.database, _sql(snowflake, "SN6"))
        assert [r.alias for r in graph.relations] == ["r", "st", "f", "i", "b"]
        assert len(graph.edges) == 4
        assert graph.is_connected()
        # edges are fully qualified and owner-attributed
        edge = graph.edges_between({"r"}, {"st"})[0]
        assert {edge.left_column, edge.right_column} == {
            "r.r_region_sk", "st.st_region_sk"
        }

    def test_local_predicates_attached(self, snowflake):
        graph = self._graph(snowflake.database, _sql(snowflake, "SN2"))
        by_alias = {r.alias: r for r in graph.relations}
        assert by_alias["b"].predicate is not None  # pushed brand filter
        assert by_alias["f"].predicate is None

    def test_non_join_returns_none(self, snowflake):
        logical = bind(parse("SELECT r_name FROM region r"))
        resolver = NameResolver(snowflake.database, collect_aliases(logical))
        assert extract_join_graph(logical, resolver) is None

    def test_syntactic_label_is_left_deep(self, snowflake):
        graph = self._graph(snowflake.database, _sql(snowflake, "SN2"))
        assert graph.syntactic_label() == "((f ⋈ i) ⋈ b)"


# ----------------------------------------------------------------------
# The search: plan quality on the snowflake workload
# ----------------------------------------------------------------------
class TestSearchWins:
    def test_selective_dim_joined_first(self, snowflake):
        """SN2: parse order materializes fact ⋈ item before the selective
        brand filter; the search must join item ⋈ brand first and do
        measurably less hash work."""
        db = snowflake.database
        sql = _sql(snowflake, "SN2")
        cost = db.execute(sql)
        syn = db.execute(sql, join_order="syntactic")
        assert sorted(cost.rows) == sorted(syn.rows)
        decision = cost.plan.plan_info.join_orders[0]
        assert decision.chosen != decision.syntactic
        assert decision.chosen_cost < decision.syntactic_cost
        assert cost.metrics.work < syn.metrics.work

    def test_sort_eliminated_by_order_providing_probe(self, snowflake):
        """SN3 (the acceptance criterion): ORDER BY the fact's clustered
        key with the fact parsed second — the search puts the date-ordered
        access path on the probe side and the sort disappears, visible in
        EXPLAIN and in the Metrics counters."""
        db = snowflake.database
        sql = _sql(snowflake, "SN3")
        cost = db.execute(sql)
        syn = db.execute(sql, join_order="syntactic")
        assert sorted(cost.rows) == sorted(syn.rows)
        assert cost.metrics.get("sorts") == 0
        assert syn.metrics.get("sorts") == 1
        assert "Sort" not in db.explain(sql)
        assert "Sort" in db.explain(sql, join_order="syntactic")
        assert cost.plan.plan_info.avoided_sorts >= 1

    def test_stream_aggregate_from_reordered_probe(self, snowflake):
        """SN5: grouping by the fact's clustered key streams (and skips
        the sort) only under the reordered plan."""
        db = snowflake.database
        sql = _sql(snowflake, "SN5")
        cost = db.execute(sql)
        syn = db.execute(sql, join_order="syntactic")
        assert sorted(cost.rows) == sorted(syn.rows)
        assert cost.metrics.get("sorts") < syn.metrics.get("sorts")
        assert cost.metrics.work < syn.metrics.work

    def test_bushy_plan_beats_left_deep_chain(self, snowflake):
        """SN1: every left-deep order passes the fact through a hash
        twice; the search finds the bushy shape (fact probing the
        pre-joined dimension chain) that touches it once."""
        db = snowflake.database
        sql = _sql(snowflake, "SN1")
        cost = db.execute(sql)
        syn = db.execute(sql, join_order="syntactic")
        assert sorted(cost.rows) == sorted(syn.rows)
        decision = cost.plan.plan_info.join_orders[0]
        assert decision.chosen != decision.syntactic
        assert "(st ⋈ r)" in decision.chosen or "(r ⋈ st)" in decision.chosen
        assert decision.chosen_cost < decision.syntactic_cost

    def test_good_parse_order_kept(self, snowflake):
        """A two-relation fact-probe join is already in its best shape —
        the search must agree with the parse order and say so.  The
        rewrite pack would eliminate this join outright (bare dimension
        behind a declared FK), so it is disabled: the join-order search
        is what's under test here."""
        db = snowflake.database
        sql = (
            "SELECT COUNT(*) AS n FROM sales f "
            "JOIN store st ON f.f_store_sk = st.st_store_sk"
        )
        plan = db.plan(sql, use_cache=False, rewrites="off")
        decision = plan.plan_info.join_orders[0]
        assert decision.chosen == decision.syntactic == "(f ⋈ st)"
        # The parse order's tree was built for the baseline; the search
        # built none of the candidates it priced.
        assert decision.priced == 4 and decision.built == 0

    def test_whole_workload_never_worse(self, snowflake):
        """Across the full query set the cost-based order must never do
        more measured work than the parse order (and strictly less in
        aggregate — it found the planted wins)."""
        db = snowflake.database
        total_cost = total_syn = 0.0
        for qid in QUERIES:
            sql = _sql(snowflake, qid)
            cost = db.execute(sql)
            syn = db.execute(sql, join_order="syntactic")
            assert cost.metrics.work <= syn.metrics.work * 1.001, qid
            total_cost += cost.metrics.work
            total_syn += syn.metrics.work
        assert total_cost < total_syn


# ----------------------------------------------------------------------
# OD-aware interesting orders
# ----------------------------------------------------------------------
class TestODInterestingOrders:
    def test_od_implied_order_counts_as_interesting(self, snowflake):
        """ORDER BY d_week_seq: no index provides it positionally, but the
        theory chains [f_date_sk] ↔ [d_date_sk] ↔ [d_date] ↦ [d_week_seq],
        so in od mode a surrogate-ordered probe is an interesting order
        and the sort disappears; fd mode cannot derive it and must sort."""
        db = snowflake.database
        sql = (
            "SELECT d.d_week_seq, f.f_qty FROM item i "
            "JOIN sales f ON i.i_item_sk = f.f_item_sk "
            "JOIN date_dim d ON f.f_date_sk = d.d_date_sk "
            "ORDER BY d_week_seq"
        )
        od_result = db.execute(sql, optimize=True)
        fd_result = db.execute(sql, optimize=False)
        assert od_result.metrics.get("sorts") == 0
        assert fd_result.metrics.get("sorts") == 1
        assert sorted(od_result.rows) == sorted(fd_result.rows)

    def test_merge_join_from_interesting_orders(self, snowflake):
        """Both clustered sk indexes provide the join-key order, so the
        frontier keeps the ordered entries and a merge join wins."""
        db = snowflake.database
        sql = (
            "SELECT COUNT(*) AS n FROM sales f "
            "JOIN date_dim d ON f.f_date_sk = d.d_date_sk"
        )
        text = db.explain(sql)
        assert "MergeJoin" in text
        assert "Sort" not in text


# ----------------------------------------------------------------------
# EXPLAIN, estimates, cache keys, validation
# ----------------------------------------------------------------------
class TestReporting:
    def test_explain_reports_decision_and_estimates(self, snowflake):
        text = snowflake.database.explain(_sql(snowflake, "SN2"), verbose=True)
        assert "join order: cost-based (dp over 3 relations)" in text
        assert "syntactic" in text
        assert "estimate: ≈" in text

    def test_estimate_attached_to_every_plan(self, snowflake):
        plan = snowflake.database.plan("SELECT COUNT(*) AS n FROM sales")
        assert plan.plan_info.estimate is not None
        assert plan.plan_info.estimate.rows >= 1

    def test_join_orders_never_share_plans(self, snowflake):
        db = snowflake.database
        sql = _sql(snowflake, "SN2")
        db.plan_cache.clear()
        cost_plan = db.plan(sql)
        syn_plan = db.plan(sql, join_order="syntactic")
        assert cost_plan is not syn_plan
        assert db.plan(sql) is cost_plan
        assert db.plan(sql, join_order="syntactic") is syn_plan

    def test_invalid_join_order_rejected(self, snowflake):
        with pytest.raises(ValueError):
            snowflake.database.plan("SELECT COUNT(*) AS n FROM sales", join_order="best")
        with pytest.raises(ValueError):
            Planner(snowflake.database, join_order="best")

    def test_syntactic_mode_records_no_decision(self, snowflake):
        db = snowflake.database
        plan = db.plan(_sql(snowflake, "SN2"), join_order="syntactic", use_cache=False)
        assert plan.plan_info.join_orders == []


# ----------------------------------------------------------------------
# Greedy fallback above DP_MAX_RELATIONS
# ----------------------------------------------------------------------
def test_greedy_fallback_on_wide_chain():
    from repro.optimizer.joinorder import DP_MAX_RELATIONS

    count = DP_MAX_RELATIONS + 2
    db = Database("widechain")
    for i in range(count):
        table = db.create_table(
            f"t{i}", Schema.of((f"k{i}", DataType.INT), (f"v{i}", DataType.INT))
        )
        table.load((k, k * (i + 1)) for k in range(6))
    sql = "SELECT COUNT(*) AS n FROM t0"
    for i in range(1, count):
        sql += f" JOIN t{i} ON k{i - 1} = k{i}"
    cost = db.execute(sql)
    syn = db.execute(sql, join_order="syntactic")
    assert cost.rows == syn.rows == [(6,)]
    decision = cost.plan.plan_info.join_orders[0]
    assert decision.algorithm == "greedy"
    assert decision.relations == count


# ----------------------------------------------------------------------
# Property: random join graphs over random instances agree across
# join orders and execution modes
# ----------------------------------------------------------------------
@st.composite
def join_instances(draw):
    """A small random database + a random chain-join query over it."""
    table_count = draw(st.integers(min_value=2, max_value=4))
    tables = []
    for i in range(table_count):
        rows = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=9),
                ),
                min_size=0,
                max_size=12,
            )
        )
        indexed = draw(st.booleans())
        tables.append((rows, indexed))
    # each table joins to a random earlier table's key
    targets = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, table_count)]
    filtered = draw(st.booleans())
    threshold = draw(st.integers(min_value=0, max_value=9))
    grouped = draw(st.booleans())
    ordered = draw(st.booleans())
    return tables, targets, filtered, threshold, grouped, ordered


@given(join_instances())
@settings(max_examples=25, deadline=None)
def test_random_join_graphs_equivalent(instance):
    """Cost-based and syntactic orders return identical result multisets
    (and identical rows under ORDER BY) on random join graphs over random
    instances, in row, batch, and parallel execution modes."""
    tables, targets, filtered, threshold, grouped, ordered = instance
    db = Database("joinfuzz")
    for i, (rows, indexed) in enumerate(tables):
        table = db.create_table(
            f"t{i}", Schema.of((f"k{i}", DataType.INT), (f"v{i}", DataType.INT))
        )
        table.load(rows)
        if indexed:
            db.create_index(f"t{i}_k", f"t{i}", [f"k{i}"])

    if grouped:
        select = "k0, SUM(v0) AS s, COUNT(*) AS n"
        tail = " GROUP BY k0" + (" ORDER BY k0" if ordered else "")
        order_keys = ("k0",) if ordered else ()
    else:
        select = ", ".join(f"k{i}, v{i}" for i in range(len(tables)))
        tail = " ORDER BY v0" if ordered else ""
        order_keys = ("v0",) if ordered else ()
    sql = f"SELECT {select} FROM t0"
    for i, target in enumerate(targets, start=1):
        sql += f" JOIN t{i} ON k{target} = k{i}"
    if filtered:
        sql += f" WHERE v0 >= {threshold}"
    sql += tail

    cost = db.execute(sql)
    syn = db.execute(sql, join_order="syntactic")
    assert cost.columns == syn.columns
    assert sorted(cost.rows, key=repr) == sorted(syn.rows, key=repr)
    for result in (cost, syn):
        positions = [result.columns.index(k) for k in order_keys]
        values = [tuple(row[p] for p in positions) for row in result.rows]
        assert values == sorted(values)
    # mode matrix over the cost-ordered plan: bit- and counter-identical
    for kwargs in ({"batch_size": 3}, {"batch_size": 3, "workers": 2}):
        other = db.execute(sql, **kwargs)
        assert other.rows == cost.rows
        assert other.metrics.counters == cost.metrics.counters


# ----------------------------------------------------------------------
# The (relation subset, provided order) memo of satisfied interesting
# orders: same search, fewer oracle calls
# ----------------------------------------------------------------------
def _triangle() -> Database:
    """Three relations joined pairwise — a cyclic join graph, so a split
    can be crossed by two edges at once."""
    db = Database("triangle")
    for name, (left, right), rows in (
        ("ab", ("a", "b"), 40), ("bc", ("b", "c"), 25), ("ca", ("c", "a"), 60),
    ):
        table = db.create_table(
            name, Schema.of((f"{name}_{left}", DataType.INT), (f"{name}_{right}", DataType.INT))
        )
        table.load((i % 7, i % 5) for i in range(rows))
        db.create_index(f"{name}_ix", name, [f"{name}_{left}"], clustered=False)
    return db


TRIANGLE_SQL = (
    "SELECT ab_a, COUNT(*) AS n FROM ab "
    "JOIN bc ON ab_b = bc_b "
    "JOIN ca ON bc_c = ca_c AND ab_a = ca_a "
    "GROUP BY ab_a ORDER BY ab_a"
)
SELF_JOIN_SQL = (
    "SELECT a.f_date_sk, b.f_qty FROM sales a "
    "JOIN sales b ON a.f_item_sk = b.f_item_sk "
    "WHERE a.f_qty > 190 AND b.f_qty > 190 ORDER BY f_date_sk"
)


def _memo_cases():
    from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES, build_rewrite_pack
    from repro.workloads.snowflake import skewed_query_sql
    from repro.workloads.tpcds_lite import DATE_QUERIES, build_tpcds_lite

    snow = build_snowflake(days=150, sales_rows=4_000, items=60, brands=12, stores=8)
    lo, hi = snow.date_range(30, 40)
    for qid, template, _ in SNOWFLAKE_QUERIES:
        yield qid, snow.database, template.format(lo=lo, hi=hi)
    for qid, sql in skewed_query_sql(snow).items():
        yield qid, snow.database, sql
    yield "self-join", snow.database, SELF_JOIN_SQL
    tpcds = build_tpcds_lite(days=120, sales_rows=3_000)
    lo, hi = tpcds.date_range(20, 30)
    for qid, template in DATE_QUERIES:
        yield qid, tpcds.database, template.format(lo=lo, hi=hi)
    pack = build_rewrite_pack(
        fact_rows=2_000, wide_rows=1_500, order_rows=2_500, customers=1_200
    )
    for qid, sql, _ in REWRITE_PACK_QUERIES:
        yield qid, pack, sql
    yield "triangle", _triangle(), TRIANGLE_SQL


def test_memoised_search_equals_direct_search(monkeypatch):
    """Every workload statement, a cyclic join graph and a self-join, in
    both planning modes: asking the oracle once per (subset, order) and
    inheriting the probe's answers gives the decision, operator tree and
    estimate of asking every candidate about every order."""
    from repro.optimizer import joinorder

    def direct(self, entry, probe=None):
        return self.ask(entry, frozenset())[0]

    def facts(db, sql, optimize):
        plan = db.plan(sql, optimize=optimize, use_cache=False)
        info = plan.plan_info
        return info.join_orders, plan.explain(), info.estimate

    searched = reused = inherited = 0
    covered = set()
    for qid, db, sql in _memo_cases():
        covered.add(qid)
        for optimize in (True, False):
            memoised = facts(db, sql, optimize)
            with monkeypatch.context() as patch:
                patch.setattr(joinorder._Interests, "satisfied", direct)
                bypassed = facts(db, sql, optimize)
            assert memoised == bypassed, (qid, optimize)
            for with_memo, without in zip(memoised[0], bypassed[0]):
                searched += 1
                reused += with_memo.satisfied_reused
                inherited += with_memo.satisfied_inherited
                assert without.satisfied_reused == without.satisfied_inherited == 0
                assert (
                    with_memo.satisfied_asked
                    + with_memo.satisfied_inherited
                    + with_memo.satisfied_reused
                    == without.satisfied_asked
                )
    assert searched > 40 and reused > 0 and inherited > 0
    assert {"triangle", "self-join", "SN6", "SK5", "RW2", "Q3"} <= covered


def test_cold_sn6_prices_each_pair_once_and_asks_per_class():
    """Exact counts (default-size snowflake, cold theories): one merge
    walk per histogram pair however many candidates the DP prices; each
    candidate's answers asked, inherited from its probe or reused from
    its (subset, order) class; one interned theory per statement set."""
    from repro.engine.histogram import pair_selectivity_stats
    from repro.optimizer.context import clear_theory_cache, theory_cache_len

    workload = build_snowflake()
    sql = QUERIES["SN6"][0]
    clear_theory_cache()
    before = pair_selectivity_stats()
    info = workload.database.plan(sql, use_cache=False).plan_info
    after = pair_selectivity_stats()
    # Only item_sk is OD-ordered on both sides: (item, sales) and
    # (sales, item), priced 92 times between them.
    assert after["computed"] - before["computed"] == 2
    assert after["reused"] - before["reused"] == 90
    decision = info.join_orders[0]
    assert (
        decision.satisfied_asked,
        decision.satisfied_inherited,
        decision.satisfied_reused,
    ) == (212, 42, 1220)
    assert info.oracle["implies_calls"] == 243
    assert theory_cache_len() == 15

    clear_theory_cache()
    again = workload.database.plan(sql, use_cache=False).plan_info
    assert again.oracle == info.oracle
    assert pair_selectivity_stats()["computed"] == after["computed"]


def test_cold_sn6_prices_descriptions_and_builds_one_tree(monkeypatch):
    """Join candidates are priced as descriptions: of the 212 the DP
    prices on a cold default-size SN6, only the chosen tree's four joins
    become operators, beside the syntactic baseline's four."""
    from repro.engine.operators import joins
    from repro.optimizer.context import clear_theory_cache

    constructed = []
    original = joins._JoinBase.__init__

    def counting(self, *args, **kwargs):
        constructed.append(type(self).__name__)
        original(self, *args, **kwargs)

    workload = build_snowflake()
    clear_theory_cache()
    monkeypatch.setattr(joins._JoinBase, "__init__", counting)
    plan = workload.database.plan(QUERIES["SN6"][0], use_cache=False)
    decision = plan.plan_info.join_orders[0]
    assert (decision.priced, decision.built) == (212, 4)
    assert decision.chosen != decision.syntactic
    assert len(constructed) == decision.built + (decision.relations - 1)
    assert "join candidates: 212 priced, 4 built" in decision.describe()
    tree, stack = [], [plan]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if isinstance(node, joins._JoinBase):
            tree.append(node)
    assert len(tree) == decision.built
