"""Layer-by-layer accounting for the traced pass.

Two sources, both outside ``src/``:

* the span tree the program already returns in ``QueryResult.trace`` is
  folded into layer self times (a span minus the children on its own lane);
* the benchmark's own spans around calls into public functions —
  ``tokenize``, ``parse``, ``bind``, ``fingerprint``, ``push_filters``,
  ``build_theory``, ``Database.plan(use_cache=False)``, ``collect_stats``,
  ``SortedIndex.build``, ``Table.columnar``, ``Table.load``,
  ``verified_foreign_key``, ``ODTheory(...)``, ``implies``,
  ``counterexample``, ``prove``, ``check_proof``, ``discover_ods``.

A layer is a module of ``repro``.  All spans are kept in memory and written
as one Chrome ``trace_event`` file when the workload ends.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

PHASE_LAYER = {
    "query": "engine.database",
    "cache-lookup": "optimizer.plan_cache",
    "pushdown": "optimizer.rewrites",
    "date-rewrite": "optimizer.rewrites",
    "rewrite-pack": "optimizer.rewrite_pack",
    "physical-plan": "optimizer.planner",
    "join-order": "optimizer.joinorder",
    "estimate": "optimizer.costing",
    "exchange-placement": "engine.parallel",
    "execute": "engine.operators",
}

OPERATOR_KIND = {
    "SeqScan": "scan", "IndexScan": "scan", "ShippedScan": "scan",
    "Filter": "filter",
    "HashJoin": "join", "MergeJoin": "join", "NestedLoopJoin": "join",
    "HashAggregate": "aggregate", "StreamAggregate": "aggregate",
    "PartialHashAggregate": "aggregate", "PartialStreamAggregate": "aggregate",
    "Sort": "sort", "TopN": "sort",
    "Project": "project", "Limit": "project", "HashDistinct": "project",
    "SortedDistinct": "project",
    "UnionExchange": "exchange", "MergeExchange": "exchange",
}

#: Layers whose time is spent before the first row moves.
PLANNING_LAYERS = (
    "engine.sql", "engine.logical", "optimizer.plan_cache", "optimizer.rewrites",
    "optimizer.rewrite_pack", "optimizer.joinorder", "optimizer.planner",
    "optimizer.costing",
)


class SpanLog:
    """The benchmark's own spans plus the program's, on one timeline."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.events = []

    def own(self, layer, name, start, end, stmt) -> None:
        self.events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": 0,
            "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"stmt": stmt},
        })

    def program(self, chrome: dict, start: float, stmt) -> None:
        """Re-base a returned trace (its clock starts at its first span)."""
        offset = (start - self.origin) * 1e6
        for event in chrome["traceEvents"]:
            copy = dict(event)
            copy["ts"] = event["ts"] + offset
            copy["tid"] = 1 + event["tid"]  # lane 0 is the benchmark's
            copy["args"] = dict(event["args"], stmt=stmt)
            self.events.append(copy)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, handle)


def fold(events) -> dict:
    """Self time per bucket of one returned trace, in µs.

    Buckets are ``phase.<span name>`` and ``op.<operator kind>`` for the
    consumer lane (tid 0) and ``worker`` for partition lanes, which overlap
    the consumer in wall time and so are kept out of the sum.
    """
    covered = defaultdict(float)
    for event in events:
        parent = event["args"].get("parent")
        if parent is not None:
            covered[(parent, event["tid"])] += event["dur"]
    out = defaultdict(float)
    for event in events:
        own = max(0.0, event["dur"] - covered[(event["args"]["id"], event["tid"])])
        if event["tid"] != 0:
            out["worker"] += own
        elif event["cat"] == "operator":
            out["op." + OPERATOR_KIND.get(event["name"], "project")] += own
        else:
            out["phase." + event["name"]] += own
    return out


def _access_paths(plan) -> tuple:
    """``(index names scanned, tables scanned sequentially, tables touched)``
    of a physical plan, read off the public operator tree."""
    indexes, sequential, touched = set(), set(), set()
    stack = [plan]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        if kind == "IndexScan":
            indexes.add(node.index.name)
            touched.add(node.index.table.name)
        elif kind == "SeqScan":
            sequential.add(node.table.name)
            touched.add(node.table.name)
        stack.extend(node.children())
    return indexes, sequential, touched


# ----------------------------------------------------------------------
# SQL workloads
# ----------------------------------------------------------------------
class SqlObserver:
    """Collects what one pass over a SQL workload shows from outside.

    In the count pass (untraced) it reads the public counters; in the traced
    pass it also folds each returned span tree.
    """

    def __init__(self, workload, log=None) -> None:
        self.w = workload
        self.log = log
        self.statements = 0
        self.wall_us = 0.0
        self.buckets = defaultdict(float)
        self.own = defaultdict(float)   # layer -> µs of benchmark-own spans
        self.load_us = 0.0
        self.spans = 0
        self.work = 0.0
        self.rows = 0
        self.counts = defaultdict(int)
        self.relations = []
        self.cache = defaultdict(int)  # plan-cache counter movement, own rounds only

    def result(self, op, result, start, wall) -> None:
        self.statements += 1
        self.wall_us += wall * 1e6
        self.work += result.metrics.work
        self.rows += len(result.rows)
        info = result.plan.plan_info
        c = self.counts
        c["date_rewrites"] += len(info.date_rewrites)
        c["rules"] += len(info.rewrites)
        c["sorts_avoided"] += info.avoided_sorts
        c["stream_aggregates"] += info.stream_aggregates
        self.w.access[op.cls] = _access_paths(result.plan)
        if info.join_orders:
            self.relations.append(max(d.relations for d in info.join_orders))
        if info.cache_state == "miss":  # this call planned: the oracle work is its own
            for key in ("implies_calls", "enumerations", "cache_hits", "cache_misses"):
                c["oracle_" + key] += info.oracle[key]
        stats = result.exchange_stats
        for key in ("exchanges", "morsel_bytes", "chain_bytes", "retries",
                    "degraded_partitions"):
            c[key] += stats.get(key, 0)
        if result.trace is not None and self.log is not None:
            events = result.trace["traceEvents"]
            self.spans += len(events)
            for bucket, us in fold(events).items():
                self.buckets[bucket] += us
            self.log.own("benchmark", "Database.execute", start, start + wall, op.key)
            self.log.program(result.trace, start, op.key)

    def _own(self, layer, name, stmt, call, *args):
        """Time an outside call as a benchmark-own span of ``layer``."""
        start = perf_counter()
        value = call(*args)
        end = perf_counter()
        self.note_own(layer, name, stmt, start, end)
        return value

    def note_own(self, layer, name, stmt, start, end) -> None:
        us = (end - start) * 1e6
        self.own[layer] += us
        self.wall_us += us
        if self.log is not None:
            self.log.own(layer, name, start, end, stmt)

    def load(self, op, start, inserted, end) -> None:
        self.load_us += (end - start) * 1e6
        self.note_own("engine.table", "Table.load", op.cls, start, inserted)
        if end > inserted:
            self.note_own("core.satisfaction", "Table.check_constraints", op.cls,
                          inserted, end)

    def prepay(self, database, table_name, reads) -> None:
        """After a write, do from outside — and time — the rebuilding the
        next reads would otherwise do inside their own spans: re-sort the
        indexes they scan, re-transpose the columnar view if they scan the
        written table sequentially, recollect statistics for the tables
        they touch.  Each is memoised per row count or epoch, so the reads
        that follow find it done; this is how the read-after-write penalty
        is split by layer without a span inside the program.  Which access
        paths a read uses is taken from the plan its previous run returned.
        Foreign keys are not re-verified here: whether a planning asks for
        that is the rewrite pack's decision, so it stays in that layer."""
        stmt = f"after {table_name}.load"
        indexes, sequential, touched = set(), set(), set()
        for op in reads:
            seen = self.w.access.get(op.cls, (set(), set(), set()))
            indexes |= seen[0]
            sequential |= seen[1]
            touched |= seen[2]
        for index in database.indexes_on(table_name):
            if index.name in indexes:
                self._own("engine.index", "SortedIndex.build", stmt, index.build)
        if table_name in sequential:
            self._own("engine.table", "Table.columnar", stmt,
                      database.table(table_name).columnar)
        for name in sorted(touched):
            self._own("engine.stats", "Database.stats", stmt, database.stats, name)

    def resume(self) -> None:
        self.cache_before = {
            key: db.plan_cache_stats() for key, db in self.w.dbs.items()
        }

    def pause(self) -> None:
        """Add the plan-cache counter movement since ``resume``."""
        for key, db in self.w.dbs.items():
            after, before = db.plan_cache_stats(), self.cache_before[key]
            for name in ("hits", "misses", "evictions", "stale_invalidations"):
                self.cache[name] += after[name] - before[name]

    def layer_times(self, split) -> dict:
        """Layer → µs over the traced pass.  ``split`` is the
        outside-measured (lex+parse, bind, fingerprint) µs that divides the
        program's single ``parse-bind`` span between three layers.  What
        the spans do not cover — building and exporting the trace — is the
        tracer's own cost."""
        layers = defaultdict(float, self.own)
        for bucket, us in self.buckets.items():
            kind, _, name = bucket.partition(".")
            if bucket == "worker":
                continue
            if bucket == "phase.parse-bind":
                total = sum(split) or 1.0
                for layer, part in zip(
                    ("engine.sql", "engine.logical", "optimizer.plan_cache"), split
                ):
                    layers[layer] += us * part / total
            elif kind == "op":
                layers["engine.parallel" if name == "exchange" else "engine.operators"] += us
            else:
                layers[PHASE_LAYER.get(name, "engine.database")] += us
        layers["obs.tracer"] = max(0.0, self.wall_us - sum(layers.values()))
        return layers


def sql_probes(workload, log) -> dict:
    """Outside calls into each layer, once per distinct statement of round
    0, then the storage calls on the fact table.  Means in µs (``*_us``) or
    ms (``*_ms``).  Runs last: the storage probes bump the catalog epoch."""
    from repro.engine.epoch import bump_epoch
    from repro.engine.logical import bind
    from repro.engine.sql.lexer import tokenize
    from repro.engine.sql.parser import parse
    from repro.engine.stats import collect_stats
    from repro.engine.table import Table
    from repro.obs.tracer import Tracer
    from repro.optimizer.context import (
        alias_constraints,
        build_theory,
        clear_theory_cache,
    )
    from repro.optimizer.plan_cache import fingerprint
    from repro.optimizer.rewrites import NameResolver, collect_aliases, push_filters

    sums = defaultdict(float)
    q_errors = []
    plan_kw = {k: v for k, v in workload.exec_kw.items() if k != "batch_size"}
    statements = {}
    for op in workload.ops(0):
        if not op.table:
            statements.setdefault(op.cls, op)

    def timed(layer, name, stmt, call, *args, **kwargs):
        start = perf_counter()
        value = call(*args, **kwargs)
        end = perf_counter()
        log.own(layer, name, start, end, stmt)
        sums[name] += (end - start) * 1e6
        return value

    for cls, op in statements.items():
        database = workload.dbs[op.db]
        timed("engine.sql", "tokenize", cls, tokenize, op.sql)
        statement = timed("engine.sql", "parse", cls, parse, op.sql)
        logical = timed("engine.logical", "bind", cls, bind, statement)
        timed("optimizer.plan_cache", "fingerprint", cls, fingerprint, logical)
        aliases = collect_aliases(logical)
        resolver = NameResolver(database, aliases)
        timed("optimizer.rewrites", "push_filters", cls, push_filters, logical, resolver)
        premises = [
            s for alias, table in aliases.items()
            for s in alias_constraints(database, alias, table)
        ]
        timed("optimizer.context", "build_theory", cls, build_theory, premises, reuse=False)
        clear_theory_cache()  # a cold plan: no interned theory, no memoised verdict
        tracer = Tracer()
        timed("optimizer.planner", "Database.plan", cls, database.plan,
              op.sql, use_cache=False, tracer=tracer, **plan_kw)
        tracer.finish()
        for bucket, us in fold(tracer.chrome()["traceEvents"]).items():
            sums[bucket] += us
        # The estimator audited against what the operators actually produced.
        database.explain(op.sql, analyze=True, **workload.exec_kw)
        analyzed = database.plan(op.sql, **plan_kw).plan_info.analyze or {}
        q_errors += [n["q_error"] for n in analyzed.get("summary", []) if "q_error" in n]

    n = len(statements)
    out = {name: total / n for name, total in sums.items()}
    out["q_error_p50"] = statistics.median(q_errors) if q_errors else 0.0
    out["q_error_max"] = max(q_errors, default=0.0)

    # Storage calls, once each on the fact table; ``sums`` now holds them alone.
    sums.clear()
    database = workload.dbs["snow"]
    fact = database.table("sales")
    stmt = "storage probe"
    timed("engine.stats", "collect_stats", stmt, collect_stats, fact,
          indexes=database.indexes_on("sales"))
    timed("engine.index", "SortedIndex.build", stmt, database.indexes["sales_date"].build)
    view = Table("probe_view", fact.schema)
    view.rows = fact.rows  # same rows, no cached transpose yet
    timed("engine.table", "Table.columnar", stmt, view.columnar)
    rows = fact.rows[:1000]
    timed("engine.table", "Table.load", stmt, Table("probe_load", fact.schema).load, rows)
    bump_epoch("benchmark-probe")
    timed("engine.database", "verified_foreign_key", stmt, database.verified_foreign_key,
          "sales", ["f_item_sk"], "item", ["i_item_sk"])
    if "taxes" in database.tables:
        timed("core.satisfaction", "Table.check_constraints", stmt,
              database.table("taxes").check_constraints)
    out["collect_ms"] = sums["collect_stats"] / 1e3
    out["build_ms"] = sums["SortedIndex.build"] / 1e3
    out["columnar_ms"] = sums["Table.columnar"] / 1e3
    out["load_us_per_row"] = sums["Table.load"] / len(rows)
    out["fk_verify_ms"] = sums["verified_foreign_key"] / 1e3
    out["check_ms"] = sums["Table.check_constraints"] / 1e3
    return out


def sql_metrics(count, count_rec, traced, traced_rec, probes, theory_cache_size) -> tuple:
    """``(per-layer metrics, layer µs per statement, traced wall µs per
    statement)`` of a SQL workload."""
    m = {}
    n = count.statements
    c = count.counts
    cache = count.cache
    lookups = cache["hits"] + cache["misses"]
    m["optimizer.plan_cache.hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    m["optimizer.plan_cache.evictions"] = cache["evictions"]
    m["optimizer.plan_cache.stale_invalidations"] = cache["stale_invalidations"]
    m["optimizer.rewrites.date_rewrites_fired"] = c["date_rewrites"]
    m["optimizer.rewrite_pack.rules_fired"] = c["rules"]
    m["optimizer.joinorder.relations_p50"] = (
        statistics.median(count.relations) if count.relations else 0
    )
    m["optimizer.planner.sorts_avoided"] = c["sorts_avoided"]
    m["optimizer.planner.stream_aggregates"] = c["stream_aggregates"]
    m["optimizer.context.oracle_calls_per_stmt"] = c["oracle_implies_calls"] / n
    m["optimizer.context.oracle_enumerated_per_stmt"] = c["oracle_enumerations"] / n
    oracle_lookups = c["oracle_cache_hits"] + c["oracle_cache_misses"]
    m["optimizer.context.oracle_hit_rate"] = (
        c["oracle_cache_hits"] / oracle_lookups if oracle_lookups else 0.0
    )
    m["optimizer.context.theory_cache_size"] = theory_cache_size
    m["engine.operators.work_per_stmt"] = count.work / n
    m["engine.operators.rows_out_per_stmt"] = count.rows / n
    m["engine.parallel.exchanges_per_stmt"] = c["exchanges"] / n
    m["engine.parallel.morsel_bytes_per_stmt"] = c["morsel_bytes"] / n
    m["engine.parallel.chain_bytes_per_stmt"] = c["chain_bytes"] / n
    m["engine.parallel.retries"] = c["retries"]
    m["engine.parallel.degraded_partitions"] = c["degraded_partitions"]

    split = (probes["parse"], probes["bind"], probes["fingerprint"])
    layers = traced.layer_times(split)
    stmts = traced.statements
    per_stmt = {layer: us / stmts for layer, us in layers.items()}
    wall = traced.wall_us / stmts
    b = {k: v / stmts for k, v in traced.buckets.items()}
    m["engine.sql.tokenize_us"] = probes["tokenize"]
    m["engine.sql.parse_us"] = probes["parse"]
    m["engine.logical.bind_us"] = probes["bind"]
    m["optimizer.plan_cache.fingerprint_us"] = probes["fingerprint"]
    m["optimizer.plan_cache.lookup_us"] = b.get("phase.cache-lookup", 0.0)
    m["optimizer.rewrites.pushdown_us"] = probes["push_filters"]
    m["optimizer.rewrites.date_rewrite_us"] = probes.get("phase.date-rewrite", 0.0)
    m["optimizer.rewrite_pack.apply_us"] = probes.get("phase.rewrite-pack", 0.0)
    m["optimizer.joinorder.search_us"] = probes.get("phase.join-order", 0.0)
    m["optimizer.planner.plan_cold_us"] = probes["Database.plan"]
    m["optimizer.planner.physical_self_us"] = probes.get("phase.physical-plan", 0.0)
    m["optimizer.costing.estimate_us"] = probes.get("phase.estimate", 0.0)
    m["optimizer.costing.q_error_p50"] = probes["q_error_p50"]
    m["optimizer.costing.q_error_max"] = probes["q_error_max"]
    m["optimizer.context.build_theory_us"] = probes["build_theory"]
    m["engine.parallel.placement_us"] = probes.get("phase.exchange-placement", 0.0)
    execute_us = per_stmt.get("engine.operators", 0.0)
    m["engine.operators.execute_us"] = execute_us
    traced_work = traced.work / stmts
    m["engine.operators.us_per_kwork"] = execute_us / traced_work * 1e3 if traced_work else 0.0
    for kind in ("scan", "filter", "join", "aggregate", "sort", "project"):
        m[f"engine.operators.{kind}_self_us"] = b.get("op." + kind, 0.0)
    m["engine.parallel.exchange_self_us"] = b.get("op.exchange", 0.0)
    m["engine.parallel.worker_busy_us"] = b.get("worker", 0.0)
    m["engine.stats.collect_ms"] = probes["collect_ms"]
    m["engine.index.build_ms"] = probes["build_ms"]
    m["engine.table.columnar_ms"] = probes["columnar_ms"]
    m["engine.table.load_us_per_row"] = probes["load_us_per_row"]
    m["engine.database.fk_verify_ms"] = probes["fk_verify_ms"]
    m["core.satisfaction.check_ms"] = probes["check_ms"]
    writes = count_rec.by_class.get("taxes.load")
    m["engine.table.write_ms_p50"] = statistics.median(writes) * 1e3 if writes else 0.0
    # What execute() spends outside plan() and run(): the query span's own
    # time plus everything around it, which under tracing includes building
    # and exporting the trace.
    m["engine.database.execute_overhead_us"] = (
        b.get("phase.query", 0.0) + per_stmt.get("obs.tracer", 0.0)
    )
    m["obs.tracer.spans_per_stmt"] = traced.spans / stmts
    m["obs.tracer.traced_over_untraced"] = (
        statistics.median(traced_rec.cycles) + _own_per_round(traced, traced_rec)
    ) / statistics.median(count_rec.cycles)
    planning = sum(per_stmt.get(layer, 0.0) for layer in PLANNING_LAYERS)
    m["obs.tracer.coverage"] = (wall - per_stmt["obs.tracer"]) / wall
    m["optimizer.share_of_wall"] = planning / wall
    m["engine.operators.share_of_wall"] = execute_us / wall
    return m, per_stmt, wall


def _own_per_round(traced, traced_rec) -> float:
    """Seconds per traced round spent in prepaid rebuilds: they replace work
    the untraced reads do inside ``execute``, so the ratio needs them."""
    prepaid = sum(traced.own.values()) - traced.load_us
    return prepaid / 1e6 / max(1, len(traced_rec.cycles))


def layer_table(name, per_call, wall, unit="statement") -> str:
    """The one-screen report: µs and share of wall per layer."""
    lines = [
        f"{name}: traced wall {wall:,.0f} µs per {unit}",
        f"  {'layer':<26}{'µs':>12}{'share':>9}",
    ]
    for layer, us in sorted(per_call.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<26}{us:>12,.1f}{us / wall:>9.1%}")
    planning = sum(per_call.get(layer, 0.0) for layer in PLANNING_LAYERS)
    if planning:
        lines.append(
            f"  {'planning layers together':<26}{planning:>12,.1f}{planning / wall:>9.1%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# od_inference
# ----------------------------------------------------------------------
class OdObserver:
    """Spans and public counters of the paper-core workload."""

    def __init__(self, log=None) -> None:
        self.log = log
        self.us = defaultdict(list)     # call name -> µs samples
        self.layer_us = defaultdict(float)
        self.stats = defaultdict(int)
        self.implied = 0
        self.found = 0
        self.proof_lines = []
        self.prove_ms = []

    def resume(self) -> None:
        pass

    def pause(self) -> None:
        pass

    def span(self, layer, name, start, end, stmt) -> None:
        us = (end - start) * 1e6
        self.us[name].append(us)
        self.layer_us[layer] += us
        if self.log is not None:
            self.log.own(layer, name, start, end, stmt)

    def theory(self, stats: dict) -> None:
        for key in ("implies_calls", "fast_path", "cache_hits", "cache_misses",
                    "enumerations"):
            self.stats[key] += stats[key]

    def proof(self, implied: bool, proof, seconds: float) -> None:
        self.prove_ms.append(seconds * 1e3)
        self.implied += implied
        if proof is not None:
            self.found += 1
            self.proof_lines.append(len(proof))


def od_metrics(count, count_rec, traced, log, seed) -> tuple:
    """``(per-layer metrics, layer µs, wall µs)``, the last two summed over
    the traced pass."""
    import random

    from repro.discovery import discover_ods
    from repro.workloads.random_instances import random_relation

    def mean(name):
        return statistics.fmean(traced.us[name]) if traced.us[name] else 0.0

    m = {}
    cold = sorted(w * 1e6 for v in count_rec.by_class.values() for w in v)
    m["core.inference.decide_us_p50"] = statistics.median(cold)
    m["core.inference.decide_us_p99"] = cold[int(len(cold) * 0.99)]
    build_s = sum(count.us["ODTheory"]) / 1e6
    m["core.inference.decisions_per_s"] = len(cold) / (sum(cold) / 1e6 + build_s)
    m["core.inference.theory_build_us"] = mean("ODTheory")
    m["core.inference.implies_warm_us"] = mean("implies-warm")
    m["core.inference.counterexample_us"] = mean("counterexample")
    s = count.stats
    m["core.inference.enumerations_per_decision"] = s["enumerations"] / len(cold)
    lookups = s["cache_hits"] + s["cache_misses"]
    m["core.inference.cache_hit_rate"] = s["cache_hits"] / lookups if lookups else 0.0
    m["core.prover.prove_us"] = mean("prove")
    m["core.prover.prove_ms_p50"] = statistics.median(count.prove_ms)
    m["core.prover.found_ratio"] = count.found / count.implied if count.implied else 0.0
    m["core.prover.proof_lines_p50"] = (
        statistics.median(count.proof_lines) if count.proof_lines else 0
    )
    m["core.proofs.check_us"] = mean("check_proof")
    names = list("ABCDEF")
    relation = random_relation(names, 500, domain=4, rng=random.Random(seed))
    start = perf_counter()
    discover_ods(relation)
    end = perf_counter()
    log.own("discovery", "discover_ods", start, end, "probe")
    m["discovery.discover_ods_ms"] = (end - start) * 1e3
    return m, dict(traced.layer_us), sum(traced.layer_us.values())
