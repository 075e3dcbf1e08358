"""Differential correctness harness: optimized vs unoptimized, cached vs
not, across batch sizes, serial vs parallel.

Every query in every workload (taxes, datedim, tpcds_lite, and databases
built from random_instances) is executed four ways:

* ``baseline`` — ``optimize=False`` with the plan cache bypassed (the
  [17]-style FD planner, freshly planned every time);
* ``cold``     — ``optimize=True`` against a just-cleared plan cache
  (a miss: full OD planning, entry stored);
* ``warm``     — ``optimize=True`` again (a hit: the memoized physical
  plan re-executed);
* ``fd_cold`` / ``fd_warm`` — ``optimize=False`` through the cache twice:
  the second must hit the fd-mode entry, and neither may ever be the od
  plan (modes never share plans).

The contract asserted for each:

* warm results are **bit-identical** to cold results (same rows, same
  order — a cached plan is the same operator tree re-run);
* every optimized result has the same columns and the same row multiset
  as the baseline, and respects the query's ORDER BY;
* the warm run really was a cache hit and the cold run a miss;
* after a catalog mutation the cached plan is never served again
  (the acceptance criterion: no stale plan across an epoch change).

The cache matrix runs at the default batch size.  On top of it, every
query also runs at every size in ``REPRO_DIFF_BATCH_SIZES`` (default
``7,256`` — a small odd size to stress batch-boundary carry logic, a
large one for the production shape; CI runs ``1,3,1024``), both
plan-cache-warm and plan-cache-cold.  Results must be bit-identical to
the default-size rows — including ORDER BY prefixes — and the
``Metrics`` counter totals must match exactly, except in a plan with a
``Limit``, whose scans are charged the whole batches they produced.

Completing the mode matrix, every query also runs **parallel**
(``workers=K`` — partitioned chains behind order-preserving exchanges)
at every count in ``REPRO_DIFF_WORKERS`` (default ``2``; the
``parallel-correctness`` CI job runs ``1,2,4``) on every exchange
backend in ``REPRO_DIFF_BACKEND`` (default ``inline``; CI runs an
``inline`` × ``process`` matrix with the spawn start method pinned),
both plan-cache-cold (fresh exchange placement) and plan-cache-warm
(the cached parallel tree re-executed, which doubles as a determinism
check).  Every parallel leg must be bit-identical to the serial rows
with exactly the serial counter totals at the same batch size — partitioning, process
scheduling, morsel reassembly, and result shipping must be invisible.
The parallel legs force the placement gate to 0 so even the small
differential workloads genuinely exercise exchanges (the gate's own
behaviour is pinned by its regression test in
``tests/engine/test_parallel.py``).

Finally the **join-order leg**: every query is re-planned with
``join_order="syntactic"`` (the parse order — the pre-search planner).
The syntactic plan must cache under its own plan key (never sharing a
tree with the cost-based default), produce the same
columns and row multiset, respect the query's ORDER BY, and behave like
any plan across batch sizes and worker counts (bit- and
counter-identical runs of the syntactic tree).  The
snowflake workload (``repro.workloads.snowflake``) exists to give this
leg real reorderings to check: its templates are written with
deliberately suboptimal parse orders and integer aggregate measures, so
cost-vs-syntactic results are exactly comparable (float sums would
differ in the last bits across fold orders).

And the **rewrites-off leg**: every query is re-planned with
``rewrites="off"`` (the logical rewrite pack disabled), which must cache
under its own plan key, record no
rewrite-pack rules, and agree with the default plan on columns, row
multiset, and ORDER BY.  The rewrite_pack workload
(``repro.workloads.rewrite_pack``) makes this leg a real on-vs-off
differential: each of its templates fires exactly one rule (eager
aggregation, scan consolidation, FD join elimination), again with
integer measures so rewritten and unrewritten folds compare exactly.
"""
from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.core.dependency import fd, od
from repro.engine import parallel as parallel_mod
from repro.engine.database import Database
from repro.engine.operators import Limit
from repro.engine.schema import Schema
from repro.engine.types import DataType
from repro.workloads.datedim import build_date_dim
from repro.workloads.random_instances import relation_satisfying
from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES, build_rewrite_pack
from repro.workloads.snowflake import SNOWFLAKE_QUERIES, build_snowflake
from repro.workloads.taxes import build_taxes
from repro.workloads.tpcds_lite import DATE_QUERIES, build_tpcds_lite

# ----------------------------------------------------------------------
# The harness core
# ----------------------------------------------------------------------
def _multiset(rows):
    return sorted(rows, key=repr)


def _assert_respects_order(result, order_keys, label):
    """The output must be non-decreasing on the ORDER BY keys.

    Only the prefix of keys present in the output columns is checkable
    (SQL permits ordering by columns the select list drops); trailing
    keys after a dropped one constrain only rows tied on the visible
    prefix, which multiset equality already covers.
    """
    positions = []
    for key in order_keys:
        if key not in result.columns:
            break
        positions.append(result.columns.index(key))
    values = [tuple(row[p] for p in positions) for row in result.rows]
    assert values == sorted(values), f"{label}: ORDER BY {order_keys} violated"


def _has_limit(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Limit):
            return True
        stack.extend(node.children())
    return False


def _assert_same_counters(result, reference, label):
    """Counter totals must not depend on the batch size.  The one
    documented exception is a plan with a ``Limit``: the scans under it
    are charged the whole batches they produced."""
    if _has_limit(result.plan):
        return
    assert result.metrics.counters == reference.metrics.counters, (
        f"{label}: counters differ ({result.metrics.counters} "
        f"vs {reference.metrics.counters})"
    )


#: Vectorized-mode chunk sizes the harness exercises; override with a
#: comma-separated ``REPRO_DIFF_BATCH_SIZES`` (CI runs a second, wider set).
BATCH_SIZES = tuple(
    int(size)
    for size in os.environ.get("REPRO_DIFF_BATCH_SIZES", "7,256").split(",")
    if size.strip()
)

#: Parallel worker counts the harness exercises; override with a
#: comma-separated ``REPRO_DIFF_WORKERS`` (the parallel-correctness CI
#: job runs ``1,2,4``).  Empty disables the parallel legs.
WORKER_COUNTS = tuple(
    int(workers)
    for workers in os.environ.get("REPRO_DIFF_WORKERS", "2").split(",")
    if workers.strip()
)

#: Exchange backends the parallel legs drain through; override with a
#: comma-separated ``REPRO_DIFF_BACKEND`` (the parallel-correctness CI
#: job runs an ``inline`` × ``process`` matrix).  Empty disables the
#: parallel legs.
BACKENDS = tuple(
    backend.strip()
    for backend in os.environ.get("REPRO_DIFF_BACKEND", "inline").split(",")
    if backend.strip()
)


def run_differential(database, sql, order_keys=()):
    """Run one query all four ways and enforce the differential contract."""
    database.plan_cache.clear()
    baseline = database.execute(sql, optimize=False, use_cache=False)
    cold = database.execute(sql, optimize=True)
    # cache_state lives on the (shared) cached plan's PlanInfo, so sample
    # it at serve time — the warm serve below overwrites it with "hit".
    assert cold.plan.plan_info.cache_state == "miss"
    warm = database.execute(sql, optimize=True)
    assert warm.plan.plan_info.cache_state == "hit"
    assert warm.plan is cold.plan  # the memoized operator tree itself
    fd_cold = database.execute(sql, optimize=False)
    assert fd_cold.plan is not cold.plan, "modes must never share plans"
    assert fd_cold.plan.plan_info.cache_state == "miss"
    fd_warm = database.execute(sql, optimize=False)
    assert fd_warm.plan is fd_cold.plan  # warm fd hit on the fd entry
    assert fd_warm.plan.plan_info.cache_state == "hit"

    # Bit-identical across the cache: same plan, same execution.
    assert warm.columns == cold.columns
    assert warm.rows == cold.rows

    for label, result in (
        ("cold", cold),
        ("warm", warm),
        ("fd_cold", fd_cold),
        ("fd_warm", fd_warm),
    ):
        assert result.columns == baseline.columns, f"{label}: column mismatch"
        assert _multiset(result.rows) == _multiset(baseline.rows), (
            f"{label}: row multiset differs from unoptimized baseline"
        )
        _assert_respects_order(result, order_keys, label)
    _assert_respects_order(baseline, order_keys, "baseline")

    # Other batch sizes, plan-cache-warm: the same memoized operator tree
    # must give bit-identical rows (ORDER BY prefixes included, since the
    # rows are identical in order) and the same Metrics counter totals.
    serial_at = {}
    for batch_size in BATCH_SIZES:
        batch_warm = database.execute(sql, optimize=True, batch_size=batch_size)
        label = f"batch_warm[{batch_size}]"
        assert batch_warm.plan is cold.plan, f"{label}: not the cached plan"
        assert batch_warm.columns == cold.columns, f"{label}: column mismatch"
        assert batch_warm.rows == cold.rows, (
            f"{label}: rows differ from the default batch size's"
        )
        _assert_same_counters(batch_warm, cold, label)
        serial_at[batch_size] = batch_warm

    # Plan-cache-cold: a freshly planned tree, first executed at another
    # batch size, must produce the same bits too.  (An empty
    # REPRO_DIFF_BATCH_SIZES disables the vectorized matrix entirely.)
    if BATCH_SIZES:
        database.plan_cache.clear()
        batch_cold = database.execute(
            sql, optimize=True, batch_size=BATCH_SIZES[0]
        )
        assert batch_cold.plan.plan_info.cache_state == "miss"
        assert batch_cold.columns == cold.columns, "batch_cold: column mismatch"
        assert batch_cold.rows == cold.rows, (
            "batch_cold: rows differ from the default batch size's"
        )
        _assert_same_counters(batch_cold, cold, "batch_cold")

    # Parallel mode: the same query over partitioned chains behind
    # order-preserving exchanges, on every configured backend.  Cold
    # first (fresh exchange placement — workers and backend are part of
    # the options' plan_key, so this never evicts or serves the serial
    # entries, and backends never serve each other's trees), then warm (the cached parallel tree re-executed:
    # also a determinism check).  Every leg must reproduce the serial
    # rows bit-for-bit with the serial counter totals.  The placement
    # gate is forced to 0 here so even the small workloads genuinely
    # partition (the gate itself is pinned in tests/engine/test_parallel).
    if BATCH_SIZES and WORKER_COUNTS and BACKENDS:
        parallel_batch = BATCH_SIZES[0]
        serial = serial_at[parallel_batch]
        with mock.patch.object(parallel_mod, "PARALLEL_MIN_ROWS", 0):
            for backend in BACKENDS:
                for workers in WORKER_COUNTS:
                    par_cold = database.execute(
                        sql,
                        optimize=True,
                        batch_size=parallel_batch,
                        workers=workers,
                        backend=backend,
                    )
                    label = f"parallel_cold[{backend},w{workers}]"
                    assert par_cold.plan.plan_info.cache_state == "miss", label
                    assert par_cold.plan is not cold.plan, (
                        f"{label}: parallel and serial plans must never mix"
                    )
                    assert par_cold.backend == backend, label
                    assert par_cold.columns == cold.columns, (
                        f"{label}: column mismatch"
                    )
                    assert par_cold.rows == cold.rows, (
                        f"{label}: parallel rows differ from serial rows"
                    )
                    assert par_cold.metrics.counters == serial.metrics.counters, (
                        f"{label}: counters differ (parallel "
                        f"{par_cold.metrics.counters} vs serial "
                        f"{serial.metrics.counters})"
                    )
                    par_warm = database.execute(
                        sql,
                        optimize=True,
                        batch_size=parallel_batch,
                        workers=workers,
                        backend=backend,
                    )
                    label = f"parallel_warm[{backend},w{workers}]"
                    assert par_warm.plan is par_cold.plan, (
                        f"{label}: not the cached plan"
                    )
                    assert par_warm.plan.plan_info.cache_state == "hit", label
                    assert par_warm.rows == cold.rows, f"{label}: rows drifted"
                    assert par_warm.metrics.counters == serial.metrics.counters, (
                        f"{label}: counters drifted"
                    )

    # Join-order leg: the parse (syntactic) order, planned under its own
    # plan key, must agree with the cost-based
    # default on columns, row multiset, and ORDER BY — and its tree must
    # behave like any plan across the execution modes.
    syn_cold = database.execute(sql, optimize=True, join_order="syntactic")
    assert syn_cold.plan is not cold.plan, (
        "join orders must never share plans"
    )
    assert syn_cold.plan.plan_info.cache_state == "miss"
    syn_warm = database.execute(sql, optimize=True, join_order="syntactic")
    assert syn_warm.plan is syn_cold.plan, "syntactic warm: not the cached plan"
    assert syn_warm.plan.plan_info.cache_state == "hit"
    assert syn_warm.rows == syn_cold.rows, "syntactic warm: rows drifted"
    assert syn_cold.columns == cold.columns, "joinorder: column mismatch"
    assert _multiset(syn_cold.rows) == _multiset(cold.rows), (
        "joinorder: row multiset differs between cost and syntactic orders"
    )
    _assert_respects_order(syn_cold, order_keys, "joinorder_syntactic")
    if BATCH_SIZES:
        syn_batch = database.execute(
            sql, optimize=True, join_order="syntactic", batch_size=BATCH_SIZES[0]
        )
        assert syn_batch.rows == syn_cold.rows, "joinorder batch: rows differ"
        _assert_same_counters(syn_batch, syn_cold, "joinorder batch")
    if BATCH_SIZES and WORKER_COUNTS and BACKENDS:
        with mock.patch.object(parallel_mod, "PARALLEL_MIN_ROWS", 0):
            syn_par = database.execute(
                sql,
                optimize=True,
                join_order="syntactic",
                batch_size=BATCH_SIZES[0],
                workers=WORKER_COUNTS[0],
                backend=BACKENDS[0],
            )
        assert syn_par.rows == syn_cold.rows, "joinorder parallel: rows differ"
        assert syn_par.metrics.counters == syn_batch.metrics.counters, (
            "joinorder parallel: counters differ"
        )

    # Rewrite-pack leg: the same query with the logical rewrite pack
    # disabled (``rewrites="off"``) must plan under its own plan key
    # (never sharing a tree with the default), carry no rewrite-pack records, and agree with
    # the default plan on columns, row multiset, and ORDER BY.  Where no
    # rule fires the two trees are the same shape anyway; where one does
    # (the rewrite_pack workload), this is the on-vs-off differential.
    norw_cold = database.execute(sql, optimize=True, rewrites="off")
    assert norw_cold.plan is not cold.plan, (
        "rewrite regimes must never share plans"
    )
    assert norw_cold.plan.plan_info.cache_state == "miss"
    assert norw_cold.plan.plan_info.rewrites == [], (
        "rewrites=off must never record rewrite-pack rules"
    )
    norw_warm = database.execute(sql, optimize=True, rewrites="off")
    assert norw_warm.plan is norw_cold.plan, "rewrites-off warm: not cached"
    assert norw_warm.plan.plan_info.cache_state == "hit"
    assert norw_warm.rows == norw_cold.rows, "rewrites-off warm: rows drifted"
    assert norw_cold.columns == cold.columns, "rewrites-off: column mismatch"
    assert _multiset(norw_cold.rows) == _multiset(cold.rows), (
        "rewrites-off: row multiset differs from the rewritten plan"
    )
    _assert_respects_order(norw_cold, order_keys, "rewrites_off")
    if BATCH_SIZES:
        norw_batch = database.execute(
            sql, optimize=True, rewrites="off", batch_size=BATCH_SIZES[0]
        )
        assert norw_batch.rows == norw_cold.rows, (
            "rewrites-off batch: rows differ"
        )
        _assert_same_counters(norw_batch, norw_cold, "rewrites-off batch")
    return baseline, cold, warm


def assert_no_stale_serving(database, sql, mutate):
    """A cached plan must never survive the catalog mutation ``mutate``."""
    before = database.plan(sql)
    hit = database.plan(sql)
    assert hit is before and hit.plan_info.cache_state == "hit"
    stale_before = database.plan_cache.stats()["stale_invalidations"]
    mutate()
    after = database.plan(sql)
    assert after is not before, "stale plan served across an epoch change"
    assert after.plan_info.cache_state == "miss"
    assert database.plan_cache.stats()["stale_invalidations"] == stale_before + 1


# ----------------------------------------------------------------------
# Workload fixtures (module-scoped, laptop-tiny)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tax_db():
    database = Database("difftax")
    build_taxes(database, rows=2_000)
    return database


@pytest.fixture(scope="module")
def date_db():
    database = Database("diffdate")
    build_date_dim(database, days=500)
    return database


@pytest.fixture(scope="module")
def tpcds():
    return build_tpcds_lite(days=180, sales_rows=5_000, items=40, stores=6)


@pytest.fixture(scope="module")
def snowflake():
    return build_snowflake(days=150, sales_rows=4_000, items=60, brands=12, stores=8)


@pytest.fixture(scope="module")
def rewrite_db():
    return build_rewrite_pack(
        fact_rows=3_000, wide_rows=2_000, order_rows=3_000, customers=1_500
    )


def _random_db(seed: int) -> Database:
    """A database over a rejection-sampled relation satisfying fixed ODs."""
    statements = [od("a", "b"), od("b", "c"), fd("a", "b,c")]
    relation = relation_satisfying(
        statements, ("a", "b", "c", "d"), rows=40, domain=6, rng=seed
    )
    assert relation is not None
    database = Database(f"diffrand{seed}")
    table = database.create_table(
        "r",
        Schema.of(
            ("a", DataType.INT),
            ("b", DataType.INT),
            ("c", DataType.INT),
            ("d", DataType.INT),
        ),
    )
    table.load(relation.rows)
    for statement in statements:
        database.declare("r", statement)
    database.create_index("r_a", "r", ["a"], clustered=True)
    return database


# ----------------------------------------------------------------------
# Query suites: (name, sql, order_keys)
# ----------------------------------------------------------------------
TAXES_QUERIES = (
    ("count", "SELECT COUNT(*) AS n FROM taxes", ()),
    (
        "example5_order",
        "SELECT income, bracket, payable FROM taxes ORDER BY bracket, payable",
        ("bracket", "payable"),
    ),
    (
        "group_bracket",
        "SELECT bracket, COUNT(*) AS n FROM taxes GROUP BY bracket ORDER BY bracket",
        ("bracket",),
    ),
    (
        "range_sum",
        "SELECT SUM(payable) AS total FROM taxes WHERE income BETWEEN 50000 AND 150000",
        (),
    ),
    (
        "topn",
        "SELECT taxpayer_id, income FROM taxes ORDER BY income LIMIT 25",
        ("income",),
    ),
    ("distinct", "SELECT DISTINCT bracket FROM taxes ORDER BY bracket", ("bracket",)),
)

DATEDIM_QUERIES = (
    (
        "example1",
        "SELECT d_year, d_qoy, d_moy, COUNT(*) AS days FROM date_dim d "
        "GROUP BY d_year, d_qoy, d_moy ORDER BY d_year, d_qoy, d_moy",
        ("d_year", "d_qoy", "d_moy"),
    ),
    (
        "order_by_path",
        "SELECT d_date, d_year, d_moy, d_dom FROM date_dim d "
        "ORDER BY d_year, d_moy, d_dom",
        ("d_year", "d_moy", "d_dom"),
    ),
    (
        "range_count",
        "SELECT COUNT(*) AS n FROM date_dim d WHERE d_year = 1998",
        (),
    ),
    (
        "distinct_months",
        "SELECT DISTINCT d_moy FROM date_dim d ORDER BY d_moy",
        ("d_moy",),
    ),
    (
        "weeks",
        "SELECT d_week_seq, COUNT(*) AS days FROM date_dim d "
        "GROUP BY d_week_seq ORDER BY d_week_seq LIMIT 20",
        ("d_week_seq",),
    ),
)

RANDOM_QUERIES = (
    ("order_abc", "SELECT a, b, c FROM r ORDER BY a, b, c", ("a", "b", "c")),
    ("order_b", "SELECT a, b, d FROM r ORDER BY b", ("b",)),
    ("group_a", "SELECT a, COUNT(*) AS n FROM r GROUP BY a ORDER BY a", ("a",)),
    ("distinct_b", "SELECT DISTINCT b FROM r ORDER BY b", ("b",)),
    ("filtered", "SELECT c, d FROM r WHERE a >= 2 ORDER BY c", ("c",)),
)


def _tpcds_order_keys(sql: str):
    if "ORDER BY" not in sql:
        return ()
    tail = sql.split("ORDER BY", 1)[1]
    return tuple(part.strip() for part in tail.split("\n")[0].split(","))


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,sql,keys", TAXES_QUERIES, ids=[q[0] for q in TAXES_QUERIES])
def test_taxes_differential(tax_db, name, sql, keys):
    run_differential(tax_db, sql, keys)


@pytest.mark.parametrize(
    "name,sql,keys", DATEDIM_QUERIES, ids=[q[0] for q in DATEDIM_QUERIES]
)
def test_datedim_differential(date_db, name, sql, keys):
    run_differential(date_db, sql, keys)


@pytest.mark.parametrize("qid", [qid for qid, _ in DATE_QUERIES])
def test_tpcds_differential(tpcds, qid):
    template = dict(DATE_QUERIES)[qid]
    lo, hi = tpcds.date_range(30, 45)
    sql = template.format(lo=lo, hi=hi)
    run_differential(tpcds.database, sql, _tpcds_order_keys(template))


@pytest.mark.parametrize("qid", [qid for qid, _, _ in SNOWFLAKE_QUERIES])
def test_snowflake_differential(snowflake, qid):
    """The multi-join workload: real reorderings for the join-order leg."""
    entry = {q[0]: q for q in SNOWFLAKE_QUERIES}[qid]
    _, template, keys = entry
    lo, hi = snowflake.date_range(30, 40)
    sql = template.format(lo=lo, hi=hi)
    run_differential(snowflake.database, sql, keys)


@pytest.mark.parametrize("qid", [qid for qid, _, _ in REWRITE_PACK_QUERIES])
def test_rewrite_pack_differential(rewrite_db, qid):
    """The planted-win workload: every rule fires, on-vs-off must agree
    (and the full matrix — batch, parallel, join-order, rewrites-off —
    runs over the rewritten trees, partial aggregates included)."""
    entry = {q[0]: q for q in REWRITE_PACK_QUERIES}[qid]
    _, sql, keys = entry
    run_differential(rewrite_db, sql, keys)
    # This workload exists to make the rules fire — assert they did.
    expected_rule = {
        "RW1": "eager-agg",
        "RW2": "scan-consolidation",
        "RW3": "join-elimination",
    }[qid]
    plan = rewrite_db.plan(sql)
    assert [r.rule for r in plan.plan_info.rewrites] == [expected_rule]


def test_tpcds_differential_empty_range(tpcds):
    """The rewrite's no-qualifying-dates path (predicate folds to FALSE)."""
    template = dict(DATE_QUERIES)["Q3"]
    lo, hi = "1901-01-01", "1901-02-01"
    sql = template.format(lo=lo, hi=hi)
    run_differential(tpcds.database, sql, ("ss_store_sk",))


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_random_instances_differential(seed):
    database = _random_db(seed)
    for name, sql, keys in RANDOM_QUERIES:
        run_differential(database, sql, keys)


# ----------------------------------------------------------------------
# The acceptance criterion: no cached plan across an epoch change
# ----------------------------------------------------------------------
def test_taxes_no_stale_plan_after_index(tax_db):
    assert_no_stale_serving(
        tax_db,
        "SELECT income, bracket FROM taxes ORDER BY bracket",
        lambda: tax_db.create_index("taxes_bracket_diff", "taxes", ["bracket"]),
    )


def test_datedim_no_stale_plan_after_declare(date_db):
    assert_no_stale_serving(
        date_db,
        "SELECT d_year, d_moy FROM date_dim d ORDER BY d_year, d_moy",
        lambda: date_db.declare("date_dim", od("d_date_sk", "d_year")),
    )


def test_tpcds_no_stale_plan_after_data_load(tpcds):
    """A fact append keeps the cached date-rewrite plan — its surrogate
    bounds were read from date_dim, which did not change — and the served
    plan's answer includes the new row.  A date_dim append breaks the
    recorded fact: the plan is dropped and re-planned."""
    from repro.engine.epoch import bump_epoch
    from repro.workloads.datedim import generate_date_dim

    database = tpcds.database
    lo, hi = tpcds.date_range(30, 45)
    sql = dict(DATE_QUERIES)["Q1"].format(lo=lo, hi=hi)
    fact = database.table("store_sales")
    dim = database.table("date_dim")
    before = database.plan(sql)
    assert before.plan_info.date_rewrites and before.plan_info.facts
    old_total = database.execute(sql).rows[0][0]
    counters = database.plan_cache_stats()
    fact_rows, dim_rows = len(fact.rows), len(dim.rows)
    try:
        fact.insert((tpcds.sk_base + 31, 1, 1, 1, 1, 9.99, 1.0))
        served = database.execute(sql)
        assert served.plan is before
        assert served.plan.plan_info.cache_state == "hit"
        fresh = database.execute(sql, use_cache=False)
        assert served.rows[0][0] == pytest.approx(fresh.rows[0][0])
        assert served.rows[0][0] == pytest.approx(old_total + 9.99)
        after = database.plan_cache_stats()
        for reason in ("stale_invalidations", "fact_invalidations", "growth_replans"):
            assert after[reason] == counters[reason], reason

        next_day = generate_date_dim(
            tpcds.start, tpcds.days + 1, tpcds.sk_base
        ).rows[-1]
        dim.load([next_day])
        replanned = database.execute(sql)
        assert replanned.plan is not before
        assert replanned.plan.plan_info.cache_state == "miss"
        assert database.plan_cache_stats()["fact_invalidations"] == (
            counters["fact_invalidations"] + 1
        )
        assert replanned.rows[0][0] == pytest.approx(fresh.rows[0][0])
    finally:
        # Restore the fixture's data through a catalog bump, so no plan
        # cached against the appended rows can outlive them.
        del fact.rows[fact_rows:]
        del dim.rows[dim_rows:]
        bump_epoch("test-restore")


def test_random_no_stale_plan_after_table():
    database = _random_db(21)
    assert_no_stale_serving(
        database,
        "SELECT a, b FROM r ORDER BY a, b",
        lambda: database.create_table(
            "unrelated", Schema.of(("x", DataType.INT))
        ),
    )


# ----------------------------------------------------------------------
# The chaos leg: injected faults, typed outcomes, healthy pools
# ----------------------------------------------------------------------
# Every scenario runs one query under a deterministic fault plan (see
# repro.engine.faults) and must land in exactly one of two places:
#
# * ``recovered`` — rows AND Metrics counters bit-identical to fault-free
#   serial execution (retries and backend degradation are invisible
#   except in exchange_stats/QueryResult accounting);
# * a typed error — ``ExecutionFailed`` when every recovery rung is
#   exhausted, ``QueryTimeout`` when the scenario pairs the fault with a
#   deadline (the process backend cannot distinguish a silently-dropped
#   result stream from a slow worker, so its drop scenario *must* carry
#   a deadline).  The inline backend has nothing to recover with — its
#   scenario pins that a deadline still lands there.
#
# After every scenario the same backend must serve a fault-free run with
# full parity — no pool is ever left poisoned.  ``REPRO_CHAOS_BACKENDS``
# filters the matrix (the fault-correctness CI job pins one backend per
# matrix entry).
from repro.engine import faults as faults_mod
from repro.engine.errors import ExecutionFailed, QueryTimeout

CHAOS_BACKENDS = tuple(
    backend.strip()
    for backend in os.environ.get(
        "REPRO_CHAOS_BACKENDS", "inline,process"
    ).split(",")
    if backend.strip()
)

CHAOS_SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total FROM taxes "
    "WHERE income > 20000 GROUP BY bracket ORDER BY bracket"
)

#: (id, backend, fault spec, timeout_s, expected outcome)
CHAOS_SCENARIOS = (
    ("inline-delay-deadline", "inline", "delay:delay=1.0", 0.25, "timeout"),
    ("process-kill-once", "process", "kill_worker:partition=0,attempts=1", None, "recovered"),
    ("process-kill-persistent", "process", "kill_worker:partition=0,attempts=99", None, "recovered"),
    ("process-raise-once", "process", "raise:partition=0,attempts=1", None, "recovered"),
    ("process-raise-seeded", "process", "raise:partition=seeded,seed=3,attempts=1", None, "recovered"),
    ("process-raise-persistent", "process", "raise:partition=0,attempts=99", None, "failed"),
    ("process-delay-deadline", "process", "delay:delay=1.0", 0.25, "timeout"),
    ("process-drop-deadline", "process", "drop_results:partition=0,attempts=99", 1.0, "timeout"),
)


@pytest.mark.parametrize(
    "scenario_id,backend,spec,timeout_s,expected",
    CHAOS_SCENARIOS,
    ids=[s[0] for s in CHAOS_SCENARIOS],
)
def test_chaos_matrix(tax_db, scenario_id, backend, spec, timeout_s, expected):
    if backend not in CHAOS_BACKENDS:
        pytest.skip(f"backend {backend!r} not in REPRO_CHAOS_BACKENDS")
    serial = tax_db.execute(CHAOS_SQL, batch_size=64)
    with mock.patch.object(parallel_mod, "PARALLEL_MIN_ROWS", 0):
        faults_mod.install(faults_mod.parse_plans(spec))
        try:
            if expected == "recovered":
                result = tax_db.execute(
                    CHAOS_SQL, workers=2, backend=backend, batch_size=64
                )
                assert result.rows == serial.rows, f"{scenario_id}: rows differ"
                assert result.metrics.counters == serial.metrics.counters, (
                    f"{scenario_id}: counters differ — recovery leaked into "
                    f"Metrics"
                )
                assert result.retries >= 1 or result.degraded_to is not None, (
                    f"{scenario_id}: the fault should have forced recovery"
                )
            elif expected == "failed":
                with pytest.raises(ExecutionFailed):
                    tax_db.execute(
                        CHAOS_SQL, workers=2, backend=backend, batch_size=64
                    )
            else:  # "timeout"
                with pytest.raises(QueryTimeout):
                    tax_db.execute(
                        CHAOS_SQL,
                        workers=2,
                        backend=backend,
                        batch_size=64,
                        timeout_s=timeout_s,
                    )
        finally:
            faults_mod.clear()
        # The pool must be healthy again: a fault-free run on the same
        # backend with full row and counter parity.
        after = tax_db.execute(CHAOS_SQL, workers=2, backend=backend, batch_size=64)
    assert after.rows == serial.rows, f"{scenario_id}: post-fault rows differ"
    assert after.metrics.counters == serial.metrics.counters, (
        f"{scenario_id}: post-fault counters differ"
    )
    assert after.retries == 0 and after.degraded_to is None, (
        f"{scenario_id}: the fault-free follow-up should not have recovered"
    )
