"""Benchmark-trajectory regression gate (ROADMAP "Benchmark trajectory").

The benchmark harness dumps per-case timings to committed
``BENCH_<module>.json`` files.  This test re-times cheap, data-independent
proxies for a few headline cases and fails if they regress beyond a
*generous* tolerance of the committed baseline — wide enough that CI-host
variance never trips it, tight enough that an accidental O(n) → O(n²) on
a hot path does.

Planning- and inference-time cases are checked against their committed
absolute timings: they are independent of data volume, so tiny fixtures
reproduce the baseline's regime.  Volume-dependent execution cases check
*ratios* on a small fixture instead of absolute times — ratios survive
CI-host speed differences.
"""
from __future__ import annotations

import json
import pathlib
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Allowed slowdown over the committed mean.  Generous on purpose: the
#: baselines were recorded on one laptop; CI machines differ by small
#: integer factors, real regressions by large ones.
TOLERANCE = 12.0


def _baseline(module: str, case: str) -> float:
    path = ROOT / f"BENCH_{module}.json"
    if not path.exists():
        pytest.skip(f"no committed baseline {path.name}")
    entries = json.loads(path.read_text())
    if case not in entries or entries[case].get("mean_s") is None:
        pytest.skip(f"{path.name} has no timing for {case}")
    return float(entries[case]["mean_s"])


def _best_of(fn, rounds: int = 5) -> float:
    """Minimum wall time of ``fn()`` over several rounds (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _check(measured: float, baseline: float, label: str) -> None:
    limit = baseline * TOLERANCE
    assert measured <= limit, (
        f"{label}: {measured * 1e3:.3f}ms vs baseline {baseline * 1e3:.3f}ms "
        f"(limit {limit * 1e3:.3f}ms, tolerance {TOLERANCE}x) — "
        "a hot path regressed"
    )


def _fact_pipeline(seed: int, rows: int = 20_000):
    """The small scan→filter→aggregate fixture the execution proxies
    share: returns a zero-arg pipeline builder
    over a freshly generated fact table — the *same* workload shape the
    benchmarks measure (``repro.workloads.microbench``), so the committed
    baselines and these proxies can never drift apart."""
    from repro.workloads.microbench import build_fact, scan_filter_aggregate

    table = build_fact(rows, seed=seed)
    return lambda: scan_filter_aggregate(table)


@pytest.fixture(scope="module")
def tiny_tpcds():
    from repro.workloads.tpcds_lite import build_tpcds_lite

    # Planning time does not depend on row counts, only on the catalog.
    return build_tpcds_lite(days=90, sales_rows=300, items=20, stores=4)


def _q9(workload) -> str:
    from repro.workloads.tpcds_lite import DATE_QUERIES

    lo, hi = workload.date_range(20, 30)
    return dict(DATE_QUERIES)["Q9"].format(lo=lo, hi=hi)


def test_warm_template_planning_not_regressed(tiny_tpcds):
    """Proxy for bench_engine::test_repeated_template_planning_warm."""
    baseline = _baseline("bench_engine", "test_repeated_template_planning_warm")
    sql = _q9(tiny_tpcds)
    database = tiny_tpcds.database
    database.plan(sql, use_cache=False)  # warm the theories first

    measured = _best_of(
        lambda: [database.plan(sql, use_cache=False) for _ in range(10)]
    )
    _check(measured, baseline, "warm repeated-template planning (10 plans)")


def test_plan_cache_warm_not_regressed(tiny_tpcds):
    """Proxy for bench_plan_cache::test_repeated_template_plan_cache_warm,
    plus the tentpole claim itself: cached planning beats uncached warm
    planning by a wide margin."""
    baseline = _baseline("bench_plan_cache", "test_repeated_template_plan_cache_warm")
    sql = _q9(tiny_tpcds)
    database = tiny_tpcds.database
    database.plan(sql)

    measured = _best_of(lambda: [database.plan(sql) for _ in range(10)])
    _check(measured, baseline, "plan-cache warm repeated planning (10 plans)")

    uncached = _best_of(lambda: [database.plan(sql, use_cache=False) for _ in range(10)])
    assert measured * 5 < uncached, (
        f"plan cache lost its edge: warm {measured * 1e3:.3f}ms vs "
        f"uncached {uncached * 1e3:.3f}ms"
    )


def test_oracle_chain_implication_not_regressed():
    """Proxy for bench_inference::test_implication_scaling_chain[8]."""
    from repro.core.dependency import od
    from repro.core.inference import ODTheory

    baseline = _baseline("bench_inference", "test_implication_scaling_chain[8]")
    theory = ODTheory(
        [od(f"c{i}", f"c{i + 1}") for i in range(7)], max_attributes=40
    )
    goal = od("c0", "c7")
    assert theory.implies(goal)

    iterations = 200
    measured = _best_of(
        lambda: [theory.implies(goal) for _ in range(iterations)]
    ) / iterations
    _check(measured, baseline, "chain implication (width 8)")


#: Process-backend overhead floors where the recording host had no spare
#: core (mirroring ``benchmarks/bench_parallel.py::OVERHEAD_FLOOR`` with
#: CI-noise slack): the backend still pays its full serialization bill
#: (chains out, morsels back) with zero offsetting parallelism.  The
#: committed-baseline floor first, the live floor (re-timed on a noisy
#: shared CI core) second.
_COMMITTED_FLOOR = 0.25
_LIVE_FLOOR = 0.2


def test_parallel_execution_not_regressed():
    """Proxy for bench_parallel::*, on the process backend.

    1. the committed baseline must document
       ``test_parallel_scaling_claim[process]`` honestly — if it was
       recorded on a multi-core host (``process_capable``), the recorded
       workers=4 speedup must be ≥1.5×; if not, the recorded overhead
       must stay within ``_COMMITTED_FLOOR``;
    2. live, on a small fixture: parallel execution must stay
       bit-identical and counter-identical to serial, and the exchange
       machinery's overhead must stay bounded (workers=4 within
       ``_LIVE_FLOOR`` of workers=1 — wide enough for CI noise, tight
       enough that an accidental re-sort, re-scan, or serialization of
       the whole stream through a busy lock trips it).

    Process-backend *speed* is measured end to end by the
    ``report_process`` workload of ``BENCHMARK.json``, not asserted here.
    """
    import json as _json

    path = ROOT / "BENCH_bench_parallel.json"
    if not path.exists():
        pytest.skip("no committed baseline BENCH_bench_parallel.json")
    entries = _json.loads(path.read_text())
    claim = entries.get("test_parallel_scaling_claim[process]", {}).get(
        "extra_info", {}
    )
    recorded_speedup = claim.get("speedup_workers4_vs_1")
    assert recorded_speedup is not None, (
        "BENCH_bench_parallel.json carries no scaling claim — the "
        "acceptance record went missing"
    )
    if claim.get("process_capable"):
        assert recorded_speedup >= 1.5, (
            f"committed baseline lost the parallel edge: process workers=4 "
            f"only {recorded_speedup}x on a capable recording host"
        )
    else:
        assert recorded_speedup >= _COMMITTED_FLOOR, (
            f"committed baseline documents out-of-bounds process parallel "
            f"overhead: {recorded_speedup}x (floor {_COMMITTED_FLOOR}x)"
        )

    from repro.engine.parallel import insert_exchanges

    pipeline = _fact_pipeline(seed=29)
    serial_rows, serial_metrics = pipeline().run(1024)

    def run(workers):
        return insert_exchanges(
            pipeline(), workers, backend="process"
        ).run(1024)

    for workers in (1, 4):
        par_rows, par_metrics = run(workers)
        assert par_rows == serial_rows, f"workers={workers}: rows differ"
        assert par_metrics.counters == serial_metrics.counters, (
            f"workers={workers}: counters differ"
        )

    one_s = _best_of(lambda: run(1))
    four_s = _best_of(lambda: run(4))
    live_speedup = one_s / four_s
    assert live_speedup >= _LIVE_FLOOR, (
        f"process parallel execution overhead regressed: workers=4 is "
        f"{live_speedup:.2f}x of workers=1 (floor {_LIVE_FLOOR}x) — "
        f"{four_s * 1e3:.2f}ms vs {one_s * 1e3:.2f}ms"
    )


def test_joinorder_not_regressed():
    """Proxy for bench_joinorder::test_joinorder_claim.

    1. the committed baseline must document the join-ordering edge: on
       the planted-win snowflake templates the syntactic plans do ≥1.5×
       the reordered plans' deterministic ``Metrics.work``;
    2. live, on a tiny snowflake fixture: identical result multisets and
       a conservative 1.3× aggregate work ratio, plus the planted sort
       elimination itself (SN3: zero sorts reordered, one syntactic) —
       ``Metrics.work`` is exact on every host, so a search regression
       (quietly falling back to parse order, losing the order-providing
       probe) trips CI deterministically.
    """
    import json as _json

    path = ROOT / "BENCH_bench_joinorder.json"
    if not path.exists():
        pytest.skip("no committed baseline BENCH_bench_joinorder.json")
    entries = _json.loads(path.read_text())
    claim = entries.get("test_joinorder_claim", {}).get("extra_info", {})
    recorded_ratio = claim.get("work_ratio_syntactic_vs_cost")
    if recorded_ratio is not None:
        assert recorded_ratio >= 1.5, (
            f"committed baseline lost the join-ordering edge: work ratio "
            f"only {recorded_ratio}x on the planted-win queries"
        )

    from repro.workloads.snowflake import SNOWFLAKE_QUERIES, build_snowflake

    workload = build_snowflake(
        days=120, sales_rows=3_000, items=60, brands=12, stores=8
    )
    db = workload.database
    lo, hi = workload.date_range(30, 40)
    templates = {qid: template for qid, template, _ in SNOWFLAKE_QUERIES}
    cost_work = syn_work = 0.0
    for qid in ("SN2", "SN3", "SN5", "SN6"):
        sql = templates[qid].format(lo=lo, hi=hi)
        cost = db.execute(sql)
        syn = db.execute(sql, join_order="syntactic")
        assert sorted(cost.rows, key=repr) == sorted(syn.rows, key=repr), qid
        cost_work += cost.metrics.work
        syn_work += syn.metrics.work
    assert syn_work >= 1.3 * cost_work, (
        f"join-ordering lost its edge: syntactic/cost work ratio "
        f"{syn_work / cost_work:.2f}x (gate 1.3x)"
    )

    sn3 = templates["SN3"].format(lo=lo, hi=hi)
    assert db.execute(sn3).metrics.get("sorts") == 0, (
        "the reordered SN3 plan no longer eliminates its sort"
    )
    assert db.execute(sn3, join_order="syntactic").metrics.get("sorts") == 1


def test_rewrites_not_regressed():
    """Proxy for bench_rewrites::test_rewrites_claim.

    1. the committed baseline must document each rewrite rule's edge on
       its planted-win query — eager aggregation ≥1.5×, scan
       consolidation ≥1.2×, FD join elimination ≥1.5× in deterministic
       ``Metrics.work`` (off vs on);
    2. live, on a tiny rewrite_pack fixture: every rule still fires on
       its planted query (and only with the pack on), the on/off result
       multisets are identical, and conservative work ratios hold
       (1.3× / 1.1× / 1.3× — ``work`` is exact on every host, so a
       rewrite regression — a rule silently not firing, a proof gate
       accidentally always false — trips CI deterministically.
    """
    import json as _json

    path = ROOT / "BENCH_bench_rewrites.json"
    if not path.exists():
        pytest.skip("no committed baseline BENCH_bench_rewrites.json")
    entries = _json.loads(path.read_text())
    claim = entries.get("test_rewrites_claim", {}).get("extra_info", {})
    bars = {
        "eager-agg": 1.5,
        "scan-consolidation": 1.2,
        "join-elimination": 1.5,
    }
    for rule, bar in bars.items():
        recorded = claim.get(f"work_ratio_off_vs_on_{rule}")
        assert recorded is not None, (
            f"BENCH_bench_rewrites.json carries no {rule} claim — the "
            "acceptance record went missing"
        )
        assert recorded >= bar, (
            f"committed baseline lost the {rule} edge: off/on work ratio "
            f"only {recorded}x (acceptance bar: {bar}x)"
        )

    from repro.workloads.rewrite_pack import (
        REWRITE_PACK_QUERIES,
        build_rewrite_pack,
    )

    db = build_rewrite_pack(
        fact_rows=3_000, wide_rows=2_000, order_rows=3_000, customers=1_500
    )
    live_bars = {"RW1": 1.3, "RW2": 1.1, "RW3": 1.3}
    planted = {
        "RW1": "eager-agg",
        "RW2": "scan-consolidation",
        "RW3": "join-elimination",
    }
    for qid, sql, _ in REWRITE_PACK_QUERIES:
        on = db.execute(sql)
        off = db.execute(sql, rewrites="off")
        assert sorted(on.rows, key=repr) == sorted(off.rows, key=repr), qid
        assert [r.rule for r in on.plan.plan_info.rewrites] == [planted[qid]], (
            f"{qid}: the {planted[qid]} rule no longer fires on its "
            "planted-win query"
        )
        assert off.plan.plan_info.rewrites == [], qid
        live_ratio = off.metrics.work / on.metrics.work
        assert live_ratio >= live_bars[qid], (
            f"{qid}: {planted[qid]} lost its live edge — off/on work "
            f"ratio {live_ratio:.2f}x (gate {live_bars[qid]}x)"
        )


#: Live Q-error per skewed template on the tiny fixture below, as the one
#: cardinality model computed it when the uniform model was removed; the
#: gate lets none of them get worse.
LIVE_QERRORS = {
    "SK1": 1.0,
    "SK2": 1.5836764021218324,
    "SK3": 1.1035092642842745,
    "SK4": 1.1714285714285715,
    "SK5": 1.0,
    "SK6": 3.5000000000000004,
}


def test_stats_not_regressed():
    """Proxy for bench_stats::test_stats_qerror_claim.

    1. the committed baseline must document the estimation edge: on the
       skewed snowflake templates the histogram model's median Q-error
       beat the uniform model's (the record of the ablation run before
       the uniform model was removed), and the planted SK1 join-order
       flip is recorded with measurably cheaper work (≥1.1×);
    2. live, on a tiny skewed snowflake fixture: SK1 keeps the join order
       the histogram model chose in that record (the promo join probed
       first), no template's Q-error is worse than ``LIVE_QERRORS``, and
       every result equals the ``join_order="syntactic"`` run (estimates
       must never change answers).  A statistics regression (histograms
       silently ignored, the merge bound falling back to containment,
       the covered-predicate fix lost) trips CI deterministically.
    """
    import json as _json

    path = ROOT / "BENCH_bench_stats.json"
    if not path.exists():
        pytest.skip("no committed baseline BENCH_bench_stats.json")
    entries = _json.loads(path.read_text())
    claim = entries.get("test_stats_qerror_claim", {}).get("extra_info", {})
    recorded_uniform = claim.get("median_q_uniform")
    recorded_histogram = claim.get("median_q_histogram")
    if recorded_uniform is not None and recorded_histogram is not None:
        assert recorded_histogram < recorded_uniform, (
            f"committed baseline lost the estimation edge: median Q-error "
            f"{recorded_histogram} (histogram) vs {recorded_uniform} (uniform)"
        )
    recorded_flip_ratio = claim.get("flip_work_ratio")
    if recorded_flip_ratio is not None:
        assert claim.get("flip_uniform_order") != claim.get(
            "flip_histogram_order"
        ), "committed baseline no longer records the SK1 join-order flip"
        assert recorded_flip_ratio >= 1.1, (
            f"committed baseline's SK1 flip is no longer measurably "
            f"cheaper: {recorded_flip_ratio}x (gate 1.1x)"
        )

    from repro.optimizer.costing import estimate_plan
    from repro.workloads.snowflake import build_snowflake, skewed_query_sql

    def canon(rows):
        # Different join orders accumulate float SUMs in different
        # orders; compare up to last-ulp noise.
        return sorted(
            (
                tuple(
                    round(v, 6) if isinstance(v, float) else v for v in row
                )
                for row in rows
            ),
            key=repr,
        )

    workload = build_snowflake(
        days=120, sales_rows=3_000, items=60, brands=12, stores=8
    )
    db = workload.database
    sqls = skewed_query_sql(workload)
    assert set(sqls) == set(LIVE_QERRORS)
    for qid, sql in sqls.items():
        plan = db.plan(sql, use_cache=False)
        estimate = max(1.0, estimate_plan(db, plan).rows)
        result = db.execute(sql, use_cache=False)
        actual = max(1, len(result.rows))
        qerror = max(estimate / actual, actual / estimate)
        assert qerror <= LIVE_QERRORS[qid], (
            f"{qid}: live Q-error {qerror:.4f} is worse than "
            f"{LIVE_QERRORS[qid]:.4f}"
        )
        syntactic = db.execute(sql, use_cache=False, join_order="syntactic")
        assert canon(result.rows) == canon(syntactic.rows), (
            f"{qid}: result rows differ from the syntactic join order"
        )
        if qid == "SK1":
            orders = tuple(d.chosen for d in plan.plan_info.join_orders)
            assert orders == ("((f ⋈ p) ⋈ i)",), (
                f"SK1 no longer probes the promo join first: {orders}"
            )


def test_faults_not_regressed():
    """Proxy for bench_faults::*.

    1. the committed baseline must document the cancellation-overhead
       acceptance claim (<2% on scan→filter→aggregate) and carry timings
       for every recovery scenario (fault-free, kill-and-retry,
       degrade-to-inline) — the file is the acceptance record;
    2. live, on a small fixture: a killed worker is recovered with rows
       and counters bit-identical to serial (and the recovery really
       happened — ``exchange_stats`` records the retry), so a regression
       in the retry/redispatch machinery trips CI deterministically;
    3. live, the cancellation check stays cheap — a wide 1.5× gate (CI
       hosts are noisy at these millisecond scales; the tight <1.02 bar
       is asserted where the baseline is recorded) that still trips if a
       per-row time syscall or similar lands on the hot path.
    """
    import json as _json

    path = ROOT / "BENCH_bench_faults.json"
    if not path.exists():
        pytest.skip("no committed baseline BENCH_bench_faults.json")
    entries = _json.loads(path.read_text())
    claim = entries.get("test_cancellation_check_overhead_claim", {}).get(
        "extra_info", {}
    )
    recorded_overhead = claim.get("cancel_check_overhead")
    assert recorded_overhead is not None, (
        "BENCH_bench_faults.json carries no cancellation-overhead claim — "
        "the acceptance record went missing"
    )
    assert recorded_overhead < 1.02, (
        f"committed baseline documents {recorded_overhead}x cancellation "
        "overhead (acceptance bar: <2%)"
    )
    for scenario in (
        "test_fault_free_process",
        "test_kill_one_worker_and_retry",
        "test_degrade_to_inline",
    ):
        assert entries.get(scenario, {}).get("mean_s") is not None, (
            f"BENCH_bench_faults.json lost its {scenario} recovery timing"
        )

    from repro.engine import faults
    from repro.engine.errors import CancelToken
    from repro.engine.parallel import insert_exchanges

    pipeline = _fact_pipeline(seed=31)
    serial_rows, serial_metrics = pipeline().run(1024)

    # Live kill-recovery: bit- and counter-identical, and really retried.
    faults.install(faults.parse_plans("kill_worker:partition=0,attempts=1"))
    try:
        plan = insert_exchanges(pipeline(), 2, backend="process")
        rows, metrics = plan.run(1024)
    finally:
        faults.clear()
    assert rows == serial_rows, "kill-recovery: rows differ from serial"
    assert metrics.counters == serial_metrics.counters, (
        "kill-recovery: counters differ — recovery leaked into Metrics"
    )
    retries = 0
    stack = [plan]
    while stack:
        node = stack.pop()
        retries += getattr(node, "exchange_stats", {}).get("retries", 0)
        stack.extend(node.children())
    assert retries >= 1, (
        "kill-recovery: the injected worker kill was never retried"
    )

    # Live cancellation overhead, with CI-noise slack.  Rounds are
    # interleaved (bare, timed, bare, timed, ...) so both sides see the
    # same load regime — a sequential best-of each is flaky when a noise
    # spike lands entirely inside one side's window.
    chain = pipeline()
    chain.run(1024)  # warm
    bare_s = timed_s = float("inf")
    for _ in range(9):
        start = time.perf_counter()
        chain.run(1024)
        bare_s = min(bare_s, time.perf_counter() - start)
        start = time.perf_counter()
        chain.run(1024, token=CancelToken(3600.0))
        timed_s = min(timed_s, time.perf_counter() - start)
    assert timed_s <= bare_s * 1.5, (
        f"cancellation checks regressed: {timed_s * 1e3:.2f}ms with a "
        f"deadline token vs {bare_s * 1e3:.2f}ms without "
        f"({timed_s / bare_s:.2f}x, live gate 1.5x)"
    )


def test_observe_not_regressed():
    """Proxy for bench_observe::*.

    1. the committed baseline must document both tracing-overhead
       acceptance claims — disabled <2% (the wrappers are pay-as-you-go)
       and enabled <10% (spans are per-stream, not per-row) — and carry
       timings for the traced process exchange and the stats snapshot;
    2. live, on a small fixture: a fully traced run stays bit- and
       counter-identical to the untraced run (tracing must never perturb
       ``Metrics``), actually produces spans, and stays within a wide
       1.5× gate (CI hosts are noisy at these millisecond scales; the
       tight bars are asserted where the baseline is recorded) — so a
       per-row span or an accidentally always-on tracer trips CI.
    """
    import json as _json

    path = ROOT / "BENCH_bench_observe.json"
    if not path.exists():
        pytest.skip("no committed baseline BENCH_bench_observe.json")
    entries = _json.loads(path.read_text())
    disabled = entries.get("test_tracing_disabled_overhead_claim", {}).get(
        "extra_info", {}
    ).get("tracing_disabled_overhead")
    assert disabled is not None, (
        "BENCH_bench_observe.json carries no disabled-tracing claim — "
        "the acceptance record went missing"
    )
    assert disabled < 1.02, (
        f"committed baseline documents {disabled}x disabled-tracing "
        "overhead (acceptance bar: <2%)"
    )
    enabled = entries.get("test_tracing_enabled_overhead_claim", {}).get(
        "extra_info", {}
    ).get("tracing_enabled_overhead")
    assert enabled is not None, (
        "BENCH_bench_observe.json carries no enabled-tracing claim — "
        "the acceptance record went missing"
    )
    assert enabled < 1.10, (
        f"committed baseline documents {enabled}x enabled-tracing "
        "overhead (acceptance bar: <10%)"
    )
    for scenario in ("test_traced_process_exchange", "test_stats_snapshot_cost"):
        assert entries.get(scenario, {}).get("mean_s") is not None, (
            f"BENCH_bench_observe.json lost its {scenario} timing"
        )

    from repro.obs.tracer import Tracer

    pipeline = _fact_pipeline(seed=37)
    serial_rows, serial_metrics = pipeline().run(1024)

    def traced():
        tracer = Tracer()
        rows, metrics = pipeline().run(1024, tracer=tracer)
        assert rows == serial_rows, "traced run: rows differ from untraced"
        assert metrics.counters == serial_metrics.counters, (
            "traced run: counters differ — tracing leaked into Metrics"
        )
        assert tracer.spans, "traced run produced no spans"

    bare_s = _best_of(lambda: pipeline().run(1024))
    traced_s = _best_of(traced)
    assert traced_s <= bare_s * 1.5, (
        f"tracing overhead regressed: {traced_s * 1e3:.2f}ms traced vs "
        f"{bare_s * 1e3:.2f}ms untraced ({traced_s / bare_s:.2f}x, "
        "live gate 1.5x)"
    )


def test_memoized_oracle_repeats_not_regressed():
    """Proxy for bench_inference::test_memoized_repeat_queries[8]."""
    from repro.core.dependency import od
    from repro.core.inference import ODTheory

    baseline = _baseline("bench_inference", "test_memoized_repeat_queries[8]")
    theory = ODTheory(
        [od(f"c{i}", f"c{i + 1}") for i in range(7)], max_attributes=40
    )
    goals = [od("c0", f"c{i}") for i in range(1, 8)]

    def run():
        for goal in goals:
            assert theory.implies(goal)

    run()  # fill the result cache, as the benchmark's warm rounds do
    measured = _best_of(run)
    _check(measured, baseline, "memoized repeated oracle probes (width 8)")
