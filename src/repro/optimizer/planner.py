"""Physical planning with three reasoning modes.

* ``"naive"`` — no indexes, hash everything, always sort: the floor.
* ``"fd"`` — the [17] (Simmen et al.) state of the art the paper improves
  on: predicate pushdown, index selection, FD-based ``ReduceOrder``,
  FD-based stream grouping — but **no OD reasoning**.
* ``"od"`` — everything in ``"fd"`` plus the paper's contributions:
  OD-based order satisfaction (the oracle decides ``provided ↦ required``),
  ``ReduceOrder++`` (Eliminate / Left Eliminate drops), and the Section 2.3
  date-dimension join elimination.

A base table is read through one enumerator, :meth:`Planner.access_paths`
(the sequential scan, then one index range per index); the
single-relation planner picks one path by the order or grouping it gives
and its sargable width, and the join-order search keeps every path as a
leaf.

``Database.execute(sql, optimize=True)`` maps ``True → "od"`` and
``False → "fd"``; benchmarks flip this switch to regenerate each of the
paper's comparisons.

Order properties travel as a :class:`~repro.optimizer.properties.PhysicalProperty`
(an :class:`~repro.optimizer.properties.OrderSpec` each physical operator
*declares* for its output) plus a statement set; projections contribute
renaming equivalences (``[d.month] ↔ [month]``) and
monotone-derived-column ODs (``[d.date] ↦ [yr]`` for ``YEAR(d.date) AS yr``
— the [12] technique), so satisfaction checks reduce uniformly to oracle
implications.  Query-scoped theories are interned
(:func:`~repro.optimizer.context.build_theory`) and the oracle memoizes its
answers, so repeated plannings of the same template short-circuit; the
per-plan oracle activity (calls, cache hits, enumerations) is reported in
:class:`PlanInfo` and surfaced by ``EXPLAIN``-style output
(:meth:`PlanInfo.describe`).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.attrs import AttrList
from ..core.dependency import OrderDependency, OrderEquivalence, Statement
from ..engine.expr import (
    Arith,
    Col,
    Expr,
    Func,
    Lit,
    inclusive_bound,
    ordered_comparisons,
)
from ..engine.logical import (
    BindError,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    node_columns,
)
from ..engine.options import ExecOptions
from ..engine.types import TypeError_, orderable
from ..engine.operators import (
    Filter,
    TopN,
    HashAggregate,
    HashDistinct,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    Operator,
    PartialHashAggregate,
    PartialStreamAggregate,
    Project,
    SeqScan,
    Sort,
    SortedDistinct,
    StreamAggregate,
)
from .context import (
    alias_constraints,
    build_theory,
    constant_statement,
    join_equivalence,
)
from .properties import (
    EMPTY_PROPERTY,
    OrderSpec,
    PhysicalProperty,
    groupable,
    reduce_keys,
    satisfies,
)
from .rewrites import (
    NameResolver,
    apply_date_rewrite,
    apply_rewrites,
    collect_aliases,
    orient_join_keys,
    push_filters,
    split_conjuncts,
)

__all__ = ["Planner", "Desired", "PlanInfo"]

#: Functions monotone (non-decreasing) in their single column argument.
_MONOTONE_FUNCS = {"YEAR"}


@dataclass(frozen=True)
class Desired:
    """Interesting-order hints pushed toward the leaves.

    ``order``: the stream should arrive sorted by these qualified columns.
    ``partition``: equal values of these should arrive contiguously.
    """

    order: Tuple[str, ...] = ()
    partition: Tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.order and not self.partition


@dataclass
class _Planned:
    """A physical subtree plus its reasoning context.

    ``prop`` may be *richer* than ``op.provides()``: a projection's output
    stream is still physically ordered by the (possibly hidden) child
    columns, with renaming equivalences in ``statements`` connecting them
    to output names — the planner keeps that knowledge even when the
    operator's own declared spec truncates.
    """

    op: Operator
    statements: List[Statement]
    prop: PhysicalProperty

    @property
    def provided_order(self) -> OrderSpec:
        return self.prop.order


#: Integer oracle counters the planner attributes to a single plan.
_ORACLE_KEYS = ("implies_calls", "fast_path", "cache_hits", "cache_misses", "enumerations")


@dataclass
class PlanInfo:
    """Planner decision log, attached to the returned root operator."""

    mode: str
    date_rewrites: list = field(default_factory=list)
    #: One :class:`~repro.optimizer.rewrites.RewriteRecord` per fired date
    #: rewrite (``date_rewrites``) and per fired rewrite-pack rule — scan
    #: consolidation, FD join elimination, eager aggregation
    #: (``rewrites``, empty when the pack was off or nothing fired).
    rewrites: list = field(default_factory=list)
    avoided_sorts: int = 0
    stream_aggregates: int = 0
    notes: List[str] = field(default_factory=list)
    #: Oracle activity during this plan (diffed against interned theories).
    #: On a cached plan these counters are the work done when the entry was
    #: *built* — serving a hit does no oracle work, and ``describe()`` says
    #: so rather than pretending the work happened again.
    oracle: Dict[str, int] = field(
        default_factory=lambda: {key: 0 for key in _ORACLE_KEYS}
    )
    #: Plan-cache provenance, filled in by ``Database.plan``:
    #: ``fingerprint`` — SHA-256 of the canonical logical tree (None when
    #: planned outside the caching entry point); ``epoch`` — the catalog
    #: epoch (:func:`~repro.engine.epoch.catalog_epoch`) the plan was
    #: built under; ``cache_state`` — "miss" (planned
    #: and stored), "hit" (served from cache), or "bypass"
    #: (``use_cache=False``); ``cache_serves`` — times this entry has been
    #: served since it was stored.  One PlanInfo is shared by every caller
    #: holding the cached plan, so ``cache_state``/``cache_serves`` always
    #: reflect the *most recent* acquisition — sample them at serve time,
    #: or use ``Database.plan_cache_stats()`` deltas for per-call facts.
    fingerprint: Optional[str] = None
    epoch: Optional[int] = None
    cache_state: str = "uncached"
    cache_serves: int = 0
    #: How the plan was last *executed* (an execution-time fact, set by
    #: ``Database.execute``/``explain``): ``"vectorized (batch size N)"``
    #: or ``"parallel (K workers, batch size N, B backend)"``.  Like
    #: ``cache_state``, one PlanInfo is shared by every holder of a cached
    #: plan — sample it right after the execution you care about.
    execution: str = ExecOptions().describe()
    #: Parallel planning: the worker count exchanges were placed for
    #: (``None`` — serial plan), the exchange backend they drain through
    #: (``"inline"``/``"process"``), and one record per placed exchange:
    #: ``(kind, partitions, ordering keys, partitioned subtree label)``.
    workers: Optional[int] = None
    backend: Optional[str] = None
    exchanges: List[tuple] = field(default_factory=list)
    #: Fault-tolerance accounting for the most recent *execution* of this
    #: plan (set by ``Database.execute``; empty when the run was
    #: fault-free): ``retries``, ``degraded_partitions``, ``degraded_to``
    #: (deepest rung), ``timed_out``, and — when the query raised —
    #: ``failed`` (the typed error's class name).  Like ``execution``,
    #: sample it right after the run you care about.
    recovery: Dict[str, object] = field(default_factory=dict)
    #: One :class:`~repro.optimizer.joinorder.JoinOrderDecision` per join
    #: block the cost-based search ordered (empty for syntactic planning
    #: and single-relation queries).
    join_orders: List[object] = field(default_factory=list)
    #: The plan's estimated output rows and cumulative cost
    #: (:class:`~repro.optimizer.costing.PlanEstimate`), computed once at
    #: planning time — what EXPLAIN prints next to measured work.
    estimate: Optional[object] = None
    #: EXPLAIN-ANALYZE summary for the most recent analyzed execution
    #: (set by ``Database.explain(analyze=True)``): node count, total
    #: wall milliseconds, and the worst per-node Q-error.  Like
    #: ``execution``, sample it right after the run you care about.
    analyze: Optional[Dict[str, object]] = None
    #: One entry per scan that reads only some of its table's columns:
    #: ``"alias reads c1, c2 (2 of 7)"``, in plan order.
    pruned_scans: List[str] = field(default_factory=list)
    #: What the plan was planned on, re-checked before a cached copy is
    #: served (:func:`~repro.optimizer.plan_cache.replan_reason`): the row
    #: count of every base table the query names, tables a rewrite removed
    #: included, and the data facts (:class:`~repro.optimizer.rewrites.
    #: Fact`) its fired rewrites relied on.
    planned_rows: Dict[str, int] = field(default_factory=dict)
    facts: List[object] = field(default_factory=list)

    @property
    def oracle_hit_rate(self) -> float:
        """Result-cache hit rate over this plan's cached-path lookups."""
        lookups = self.oracle["cache_hits"] + self.oracle["cache_misses"]
        return self.oracle["cache_hits"] / lookups if lookups else 0.0

    def describe(self, current_rows: Optional[Dict[str, int]] = None) -> str:
        """EXPLAIN-style report: which sorts/joins were eliminated and how
        much oracle work was cached vs enumerated.  ``current_rows``
        (table → row count now) adds the current count beside each
        planned-at count that differs."""
        lines = [f"plan mode: {self.mode}"]
        lines.append(f"execution: {self.execution}")
        if self.workers is not None:
            lines.append(
                f"parallel: {self.workers} workers, {self.backend} backend"
            )
            if self.exchanges:
                for kind, partitions, keys, label in self.exchanges:
                    detail = f" on [{', '.join(keys)}]" if keys else ""
                    lines.append(
                        f"exchange: {kind}-exchange, {partitions} partitions"
                        f"{detail} over {label}"
                    )
            else:
                lines.append(
                    f"parallel: no partitionable subtree at workers="
                    f"{self.workers} (plan runs serial)"
                )
        if self.recovery:
            r = self.recovery
            parts = [
                f"{r.get('retries', 0)} retried attempt(s)",
                f"{r.get('degraded_partitions', 0)} partition(s) degraded",
            ]
            if r.get("degraded_to"):
                parts.append(f"deepest fallback {r['degraded_to']}")
            if r.get("timed_out"):
                parts.append("deadline exceeded")
            elif r.get("failed"):
                parts.append(f"failed with {r['failed']}")
            lines.append(f"fault tolerance: {', '.join(parts)}")
        for rewrite in self.date_rewrites:
            lines.append(f"join eliminated: {rewrite.describe()}")
        if self.rewrites:
            lines.append(
                "rewrites: " + ", ".join(r.describe() for r in self.rewrites)
            )
        for decision in self.join_orders:
            lines.append(f"join order: {decision.describe()}")
        if self.estimate is not None:
            lines.append(
                f"estimate: ≈{self.estimate.rows:,.0f} rows, {self.estimate.cost}"
            )
        if self.analyze is not None:
            a = self.analyze
            line = (
                f"analyze: {a['nodes']} node(s), "
                f"wall {a['wall_ms']:.3f}ms"
            )
            if a.get("max_q_error") is not None:
                line += f", max q-err {a['max_q_error']:.2f}"
            lines.append(line)
        for entry in self.pruned_scans:
            lines.append(f"scan columns: {entry}")
        if self.planned_rows:
            counts = []
            for table, planned in sorted(self.planned_rows.items()):
                now = (current_rows or {}).get(table, planned)
                counts.append(
                    f"{table} {planned:,}" + (f" (now {now:,})" if now != planned else "")
                )
            lines.append(f"planned on rows: {', '.join(counts)}")
        for fact in self.facts:
            lines.append(f"relies on: {fact.describe()}")
        lines.append(f"sorts avoided: {self.avoided_sorts}")
        lines.append(f"stream aggregates: {self.stream_aggregates}")
        for note in self.notes:
            lines.append(f"note: {note}")
        o = self.oracle
        lines.append(
            "oracle: {calls} calls ({fast} fast-path, {hits} cached, "
            "{enum} enumerated), hit rate {rate:.0%}".format(
                calls=o["implies_calls"],
                fast=o["fast_path"],
                hits=o["cache_hits"],
                enum=o["enumerations"],
                rate=self.oracle_hit_rate,
            )
        )
        if self.fingerprint is not None:
            # Entry-centric phrasing: one PlanInfo is shared by everyone
            # holding the cached plan, so describe the entry's history
            # (planned once, served N times) — true whenever it is read —
            # rather than any single caller's hit/miss perspective.
            line = (
                f"plan cache: entry {self.fingerprint[:12]} (catalog epoch "
                f"{self.epoch}): planned once, served {self.cache_serves}x "
                "from cache"
            )
            if self.cache_serves:
                line += "; oracle counters above are from the initial planning"
            lines.append(line)
        return "\n".join(lines)


class Planner:
    """Translate a logical tree into an executable operator tree."""

    def __init__(
        self,
        database,
        optimize: bool = True,
        mode: Optional[str] = None,
        workers: Optional[int] = None,
        join_order: str = "cost",
        backend: Optional[str] = None,
        rewrites: str = "on",
        tracer: Optional[object] = None,
    ):
        self.database = database
        if mode is None:
            mode = "od" if optimize else "fd"
        if mode not in ("naive", "fd", "od"):
            raise ValueError(f"unknown planning mode {mode!r}")
        self.mode = mode
        #: The resolved options: the one place join_order / rewrites /
        #: workers / backend are checked and defaulted.  (The rewrite pack
        #: itself only runs in "od" mode.)
        self.options = ExecOptions(
            join_order=join_order, rewrites=rewrites, workers=workers, backend=backend
        )
        self.info = PlanInfo(mode=mode)
        #: Optional :class:`~repro.obs.tracer.Tracer` (duck-typed): each
        #: optimizer phase gets its own span under the caller's open span.
        self.tracer = tracer
        self.resolver: Optional[NameResolver] = None
        #: alias -> the bare columns the plan reads through it, or ``None``
        #: when every scan reads every column (set by :meth:`plan`).
        self.read_columns: Optional[Dict[str, set]] = None
        #: id(theory) -> (theory, stats snapshot at first acquisition); the
        #: post-plan diff attributes interned-oracle work to this plan.
        self._theories: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def _span(self, name: str):
        """A tracer phase span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, "optimizer")

    def plan(self, logical: LogicalNode) -> Operator:
        aliases = collect_aliases(logical)
        self.resolver = NameResolver(self.database, aliases)
        tables = self.database.tables
        names = set(aliases.values())
        for name in names:  # declared facts are trusted from here on
            tables[name].check_appended()
        self.info.planned_rows = {name: len(tables[name].rows) for name in names}
        # SELECT * exposes the join block's column arrangement directly,
        # so a reordered join must restore the syntactic schema; every
        # other consumer resolves columns by name (the search reads this
        # to decide whether the compensating projection is needed).  The
        # same walk binds every column reference and type-checks WHERE
        # comparisons before any rewrite reads rows, once each ON pair
        # sits on the sides that own its columns.
        logical = orient_join_keys(logical, self.resolver)
        self.star_projection = _check_tree(logical, self.resolver)
        if self.mode != "naive":
            with self._span("pushdown"):
                logical = push_filters(logical, self.resolver)
        if self.mode == "od":
            with self._span("date-rewrite"):
                logical, applied = apply_date_rewrite(
                    self.database, logical, self.resolver, theory_source=self._theory
                )
                self.info.date_rewrites = applied
                if applied:
                    logical = push_filters(logical, self.resolver)
            if self.options.rewrites == "on":
                # The rewrite pack (eager aggregation, scan consolidation,
                # FD join elimination) runs after the date rewrite so an
                # eliminated date join never blocks aggregate placement.
                # Because it runs before physical planning, the estimate
                # below automatically prices the post-rewrite tree.
                with self._span("rewrite-pack"):
                    logical, self.info.rewrites = apply_rewrites(
                        self.database, logical, self.resolver, self.star_projection
                    )
        self.info.facts = [
            fact
            for record in self.info.date_rewrites + self.info.rewrites
            for fact in record.facts
        ]
        self.read_columns = _read_columns(logical, self.resolver)
        with self._span("physical-plan"):
            planned = self._plan(logical, Desired())
        self._finalize_oracle_stats()
        op = planned.op
        self.info.pruned_scans = _pruned_scans(op)
        # Estimated rows/cost for EXPLAIN, computed on the logical-order
        # tree (exchanges are a physical transform the cost model does
        # not price).  Estimation failures never fail a plan, but they
        # leave a visible note rather than silently omitting the line.
        try:
            from .costing import estimate_plan  # lazy: avoids cycle

            with self._span("estimate"):
                self.info.estimate = estimate_plan(self.database, op)
        except (TypeError, KeyError, ValueError) as exc:
            self.info.estimate = None
            self.info.notes.append(f"estimate unavailable: {exc}")
        if self.options.workers is not None:
            # Physical parallelization: wrap maximal partitionable chains
            # in exchanges whose kind the declared order property decides
            # (merge preserves it, union suffices without one).  Purely a
            # tree transform — results and counter totals stay exactly
            # the serial plan's (the mode-matrix differential's gate).
            # Placement is cost-gated on epoch-keyed TableStats row
            # counts: chains over small (dimension) tables stay serial.
            from ..engine import parallel  # lazy: avoids cycle

            self.info.workers = self.options.workers
            self.info.backend = self.options.backend
            with self._span("exchange-placement"):
                op = parallel.insert_exchanges(
                    op,
                    self.options.workers,
                    self.info,
                    backend=self.options.backend,
                    # Read at plan time so test patches of the gate apply.
                    min_rows=parallel.PARALLEL_MIN_ROWS,
                    row_estimator=self._estimated_rows,
                )
        op.plan_info = self.info  # type: ignore[attr-defined]
        return op

    def scan_columns(self, alias: str) -> Optional[set]:
        """The ``columns`` argument for a scan under ``alias``."""
        if self.read_columns is None:
            return None
        return self.read_columns.get(alias, set())

    def _estimated_rows(self, table) -> Optional[int]:
        """Scan-size estimate for the exchange cost gate: the epoch-keyed
        ``TableStats`` row count (recollected after any mutation, so the
        gate can never reason from pre-insert sizes)."""
        try:
            return self.database.stats(table.name).row_count
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Property-framework access (theories interned, stats attributed)
    # ------------------------------------------------------------------
    def _theory(self, statements):
        theory = build_theory(statements)
        if id(theory) not in self._theories:
            self._theories[id(theory)] = (theory, theory.stats())
        return theory

    def _finalize_oracle_stats(self) -> None:
        for theory, baseline in self._theories.values():
            current = theory.stats()
            for key in _ORACLE_KEYS:
                self.info.oracle[key] += current[key] - baseline[key]

    def _order_ok(self, statements, provided, required) -> bool:
        if not required:
            return True
        theory = None if self.mode == "naive" else self._theory(statements)
        return satisfies(theory, provided, required, self.mode)

    def _partition_ok(self, statements, provided, group_columns) -> bool:
        if not group_columns:
            return True
        if self.mode == "naive":
            return False
        return groupable(self._theory(statements), provided, group_columns, self.mode)

    def _reduce(self, statements, keys) -> Tuple[str, ...]:
        theory = None if self.mode == "naive" else self._theory(statements)
        return reduce_keys(theory, keys, self.mode)

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------
    def _plan(self, node: LogicalNode, desired: Desired) -> _Planned:
        if isinstance(node, LogicalScan):
            return self._plan_scan(node, None, desired)
        if isinstance(node, LogicalFilter):
            return self._plan_filter(node, desired)
        if isinstance(node, LogicalJoin):
            return self._plan_join(node, desired)
        if isinstance(node, LogicalAggregate):
            return self._plan_aggregate(node, desired)
        if isinstance(node, LogicalProject):
            return self._plan_project(node, desired)
        if isinstance(node, LogicalDistinct):
            return self._plan_distinct(node, desired)
        if isinstance(node, LogicalSort):
            return self._plan_sort(node, desired)
        if isinstance(node, LogicalLimit):
            if isinstance(node.child, LogicalSort) and self.mode != "naive":
                return self._plan_topn(node.child, node.count, desired)
            child = self._plan(node.child, desired)
            return _Planned(Limit(child.op, node.count), child.statements, child.prop)
        raise TypeError(f"cannot plan {node!r}")

    def _plan_topn(self, sort_node: LogicalSort, count: int, desired: Desired) -> _Planned:
        """ORDER BY + LIMIT: prefer no sort at all (OD satisfaction), else a
        bounded-heap TopN instead of a full Sort."""
        planned = self._plan_sort(sort_node, desired)
        top = planned.op
        if isinstance(top, Sort):
            fused = TopN(top.child, top.keys, count)
            return _Planned(
                fused, planned.statements, PhysicalProperty(fused.provides())
            )
        return _Planned(Limit(top, count), planned.statements, planned.prop)

    # ------------------------------------------------------------------
    # Access paths: how a base table can be read
    # ------------------------------------------------------------------
    def access_paths(self, alias: str, table: str, predicate: Optional[Expr]):
        """``(statements, paths)`` for reading ``table AS alias`` under its
        pushed-down ``predicate``.

        ``statements`` are the alias's declared constraints plus one
        constant statement per equality conjunct.  ``paths`` are
        ``(index, low, high, width)``: the sequential scan first
        (``index`` ``None``), then — outside ``naive`` mode — one per index
        with the :func:`_sargable_bounds` its key takes from the
        predicate.  Both the single-relation choice (:meth:`_plan_scan`)
        and the join-order search's leaves read base tables from here;
        :meth:`scan_operator` builds a path.
        """
        bounds = _column_bounds(predicate, self.resolver)
        statements = alias_constraints(self.database, alias, table)
        statements += _constant_statements(bounds)
        paths = [(None, None, None, 0)]
        if self.mode != "naive":
            for index in self.database.indexes_on(table):
                bounded = _sargable_bounds(index.key_columns, alias, bounds)
                paths.append((index,) + bounded)
        return statements, paths

    def scan_operator(self, alias: str, table: str, predicate, path) -> Operator:
        """The scan for one of :meth:`access_paths`' paths, under a
        ``Filter`` of the whole predicate."""
        index, low, high, _width = path
        columns = self.scan_columns(alias)
        if index is None:
            op: Operator = SeqScan(self.database.table(table), alias, columns=columns)
        else:
            op = IndexScan(index, alias, low, high, columns=columns)
        return op if predicate is None else Filter(op, predicate)

    def _plan_scan(
        self,
        node: LogicalScan,
        predicate: Optional[Expr],
        desired: Desired,
    ) -> _Planned:
        """Pick the path scoring highest on (gives the desired order or
        partition, is sargable, bound width); the first path wins ties,
        and the sequential scan wins when no index does either."""
        statements, paths = self.access_paths(node.alias, node.table, predicate)
        best, best_score = paths[0], (False, False, 0)
        for path in paths[1:]:
            index, _low, _high, width = path
            qualified = tuple(f"{node.alias}.{c}" for c in index.key_columns)
            gives_order = bool(desired.order) and self._order_ok(
                statements, qualified, self._try_qualify(desired.order)
            )
            gives_partition = bool(desired.partition) and self._partition_ok(
                statements, qualified, self._try_qualify(desired.partition)
            )
            score = (gives_order or gives_partition, width > 0, width)
            if score > best_score:
                best, best_score = path, score
        op = self.scan_operator(node.alias, node.table, predicate, best)
        # Scans (and the preserving Filter above them) declare their own
        # provided spec — the planner just reads it back.
        return _Planned(op, statements, PhysicalProperty(op.provides()))

    def _try_qualify(self, names: Sequence[str]) -> Tuple[str, ...]:
        out = []
        for name in names:
            try:
                out.append(self.resolver.qualify(name))
            except (KeyError, ValueError):
                out.append(name)
        return tuple(out)

    # ------------------------------------------------------------------
    def _plan_filter(self, node: LogicalFilter, desired: Desired) -> _Planned:
        if isinstance(node.child, LogicalScan) and self.mode != "naive":
            return self._plan_scan(node.child, node.predicate, desired)
        child = self._plan(node.child, desired)
        statements = child.statements + _constant_statements(
            _column_bounds(node.predicate, self.resolver)
        )
        return _Planned(Filter(child.op, node.predicate), statements, child.prop)

    # ------------------------------------------------------------------
    def _plan_join(self, node: LogicalJoin, desired: Desired) -> _Planned:
        """Join planning: cost-based ordering by default, parse order as
        the fallback (``join_order="syntactic"``, ``naive`` mode, or a
        join block the search cannot extract/beat)."""
        if self.options.join_order == "cost" and self.mode != "naive":
            from .joinorder import search_join_order  # lazy: module cycle

            with self._span("join-order"):
                result = search_join_order(self, node, desired)
            if result is not None:
                self.info.join_orders.append(result.record)
                return result.planned
        return self._plan_join_syntactic(node, desired)

    def _plan_join_syntactic(self, node: LogicalJoin, desired: Desired) -> _Planned:
        # The probe (left) side preserves its order through a hash join, so
        # interesting orders flow to the left child.  Nested joins recurse
        # through this method directly so a syntactic tree stays fully
        # syntactic (the cost search uses it as its comparison baseline).
        left = (
            self._plan_join_syntactic(node.left, desired)
            if isinstance(node.left, LogicalJoin)
            else self._plan(node.left, desired)
        )
        right = (
            self._plan_join_syntactic(node.right, Desired())
            if isinstance(node.right, LogicalJoin)
            else self._plan(node.right, Desired())
        )
        left_keys = [left.op.schema.resolve(c) for c in node.left_columns]
        right_keys = [right.op.schema.resolve(c) for c in node.right_columns]
        return self.join_planned(left, right, left_keys, right_keys)

    def join_planned(
        self,
        left: _Planned,
        right: _Planned,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        ready: Optional[bool] = None,
    ) -> _Planned:
        """Join two planned subtrees on resolved keys: a merge join when
        both declared orders provably satisfy their keys, a hash join
        otherwise.  The single construction point shared by the syntactic
        path and the cost-based search, so the two orderings can never
        diverge in when they emit MergeJoin vs HashJoin or in how join
        equivalences thread into the statement set.

        ``ready`` is that merge-readiness when the caller already holds
        it (the search asks it once per input and keys); ``None`` asks
        :meth:`_order_ok`, the reference."""
        statements = left.statements + right.statements
        for l, r in zip(left_keys, right_keys):
            statements.append(join_equivalence(l, r))

        if ready is None:
            ready = self._order_ok(
                left.statements, left.prop.order, left_keys
            ) and self._order_ok(right.statements, right.prop.order, right_keys)
        both_sorted = self.mode != "naive" and ready
        if both_sorted:
            op: Operator = MergeJoin(left.op, right.op, left_keys, right_keys)
        else:
            op = HashJoin(left.op, right.op, left_keys, right_keys)
        # Both joins preserve the probe (left) stream's properties.
        return _Planned(op, statements, left.prop)

    # ------------------------------------------------------------------
    def _plan_aggregate(self, node: LogicalAggregate, desired: Desired) -> _Planned:
        group_qualified = self._try_qualify(node.group_columns)
        child_desired_order: Tuple[str, ...] = ()
        if desired.order and set(desired.order) <= set(node.group_columns):
            remaining = [
                c for c in node.group_columns if c not in set(desired.order)
            ]
            child_desired_order = tuple(desired.order) + tuple(remaining)
        elif not desired.order:
            child_desired_order = ()
        child = self._plan(
            node.child,
            Desired(
                order=self._try_qualify(child_desired_order),
                partition=group_qualified,
            ),
        )
        resolved_group = tuple(
            child.op.schema.resolve(c) for c in node.group_columns
        )
        partial = getattr(node, "partial", False)
        if self._partition_ok(child.statements, child.prop.order, resolved_group):
            stream_cls = PartialStreamAggregate if partial else StreamAggregate
            op: Operator = stream_cls(child.op, resolved_group, node.aggregates)
            self.info.stream_aggregates += 1
            prop = child.prop
        else:
            hash_cls = PartialHashAggregate if partial else HashAggregate
            op = hash_cls(child.op, resolved_group, node.aggregates)
            prop = EMPTY_PROPERTY
        return _Planned(op, child.statements, prop)

    # ------------------------------------------------------------------
    def _plan_project(self, node: LogicalProject, desired: Desired) -> _Planned:
        if node.exprs is None:  # SELECT *
            return self._plan(node.child, desired)
        # Translate desired output names to input columns where possible.
        rename = {
            name: expr.name
            for expr, name in zip(node.exprs, node.names)
            if isinstance(expr, Col)
        }
        translated_order = tuple(rename.get(c, c) for c in desired.order)
        translated_partition = tuple(rename.get(c, c) for c in desired.partition)
        child = self._plan(
            node.child, Desired(translated_order, translated_partition)
        )
        op = Project(child.op, node.exprs, node.names)
        statements = list(child.statements)
        for expr, name in zip(node.exprs, node.names):
            statements.extend(
                _projection_statements(expr, name, child.op.schema)
            )
        # The stream is still physically ordered by the (possibly hidden)
        # child order; renaming equivalences connect it to output names.
        return _Planned(op, statements, child.prop)

    # ------------------------------------------------------------------
    def _plan_distinct(self, node: LogicalDistinct, desired: Desired) -> _Planned:
        child = self._plan(node.child, desired)
        columns = child.op.schema.names
        if self.mode != "naive" and self._partition_ok(
            child.statements, child.prop.order, columns
        ):
            op: Operator = SortedDistinct(child.op)
        else:
            op = HashDistinct(child.op)
        return _Planned(
            op,
            child.statements,
            child.prop if isinstance(op, SortedDistinct) else EMPTY_PROPERTY,
        )

    # ------------------------------------------------------------------
    def _plan_sort(self, node: LogicalSort, desired: Desired) -> _Planned:
        child = self._plan(node.child, Desired(order=node.keys))
        try:
            required = tuple(child.op.schema.resolve(k) for k in node.keys)
        except (KeyError, ValueError):
            # SQL permits ordering by columns the select list drops; push
            # the sort below the projection, where they are still visible.
            if isinstance(node.child, LogicalProject) and node.child.exprs is not None:
                import dataclasses

                lowered = dataclasses.replace(
                    node.child, child=LogicalSort(node.child.child, node.keys)
                )
                return self._plan(lowered, desired)
            raise
        if self._order_ok(child.statements, child.prop.order, required):
            self.info.avoided_sorts += 1
            self.info.notes.append(
                f"sort on [{', '.join(required)}] satisfied by existing order "
                f"[{', '.join(child.prop.order)}]"
            )
            return child
        keys = self._reduce(child.statements, required)
        if keys != required:
            self.info.notes.append(
                f"order-by reduced: [{', '.join(required)}] -> "
                f"[{', '.join(keys)}]"
            )
        if not keys:  # everything constant: any order is correct
            self.info.avoided_sorts += 1
            return child
        op = Sort(child.op, keys)
        return _Planned(op, child.statements, PhysicalProperty(op.provides()))


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _check_tree(node: LogicalNode, resolver) -> bool:
    """Bind every column reference; does any projection pass columns
    through positionally (``SELECT *``)?

    A reference resolves as the physical plan will resolve it (the exact
    name, else a unique ``.name`` suffix) against what its node sees: the
    statement's tables, then the grouping columns and aggregate outputs,
    then a projection's names — ``ORDER BY`` also sees the columns the
    select list drops.  An ``ON`` clause sees only its own join's inputs,
    each side of a key pair its own side's tables.  A reference no scope
    resolves to exactly one column raises
    :class:`~repro.engine.logical.BindError` naming it: unknown (with every
    column of the statement's tables), ambiguous (with its matches), or
    not visible where it is used.  The same walk, made before any rewrite
    reads rows, raises :class:`~repro.engine.types.TypeError_` for a
    ``WHERE`` comparison that orders a column against a literal of a type
    the column's values cannot be ordered with (``int_col < 'a'``).
    Equality stays legal: it is false on every row.
    """
    star = False
    #: id(projection) -> what its input sees, for ORDER BY.
    below: Dict[int, Optional[Tuple[str, ...]]] = {}

    def found(names, reference) -> List[str]:
        """What answers to ``reference`` in ``names`` (``None``: the
        statement's tables)."""
        if names is None:
            return resolver.matches(reference)
        if reference in names:
            return [reference]
        return [name for name in names if name.endswith("." + reference)]

    def unbound(reference, clause, problem) -> BindError:
        return BindError(
            f"column {reference!r} in {clause} is {problem}; the statement's "
            f"tables have {', '.join(resolver.columns())}"
        )

    def bind(names, grouped, references, clause, dropped=False) -> None:
        """``dropped``: what a projection below hides from ``names``."""
        for reference in references:
            scopes = [found(names, reference)]
            if dropped is not False:
                scopes.append(found(dropped, reference))
            if any(len(matches) == 1 for matches in scopes):
                continue
            ambiguous = next((m for m in scopes if len(m) > 1), None)
            problem = "not selected"
            if not resolver.matches(reference):
                problem = "unknown"
            elif ambiguous:
                problem = f"ambiguous (it matches {', '.join(ambiguous)})"
            elif grouped:
                problem = "neither grouped nor aggregated"
            raise unbound(reference, clause, problem)

    def bind_on(references, aliases) -> None:
        """Join keys see the tables of their own side of the join."""
        for reference in references:
            matches = resolver.matches(reference, aliases)
            if len(matches) == 1:
                continue
            problem = f"not a column of {', '.join(sorted(aliases))}"
            if not resolver.matches(reference):
                problem = "unknown"
            elif matches:
                problem = f"ambiguous (it matches {', '.join(matches)})"
            raise unbound(reference, "ON", problem)

    def visible(node) -> Tuple[Optional[Tuple[str, ...]], bool]:
        """The names above ``node`` (``None``: the tables' columns), and
        whether they are grouped."""
        nonlocal star
        if isinstance(node, LogicalScan):
            return None, False
        if isinstance(node, LogicalJoin):
            visible(node.left)
            visible(node.right)
            bind_on(node.left_columns, collect_aliases(node.left))
            bind_on(node.right_columns, collect_aliases(node.right))
            return None, False
        names, grouped = visible(node.child)
        if isinstance(node, LogicalFilter):
            clause = "HAVING" if grouped else "WHERE"
            bind(names, grouped, node.predicate.columns(), clause)
            for column, value in ordered_comparisons(node.predicate):
                dtype = None if grouped else resolver.dtype_of(column)
                if dtype is not None and not orderable(dtype, value):
                    raise TypeError_(
                        f"column {column!r} ({dtype.value}) cannot be ordered "
                        f"against the literal {value!r}"
                    )
        elif isinstance(node, LogicalAggregate):
            references, split = node_columns(node), len(node.group_columns)
            bind(names, False, references[:split], "GROUP BY")
            bind(names, False, references[split:], "an aggregate")
            keys = [_qualified(resolver, c) for c in node.group_columns]
            return (*keys, *(spec.name for spec in node.aggregates)), True
        elif isinstance(node, LogicalProject) and node.exprs is None:
            star = True
        elif isinstance(node, LogicalProject):
            bind(names, grouped, node_columns(node), "the SELECT list")
            below[id(node)] = names
            return node.names, grouped
        elif isinstance(node, LogicalSort):
            dropped = below.get(id(node.child), False)
            bind(names, grouped, node.keys, "ORDER BY", dropped)
        return names, grouped

    visible(node)
    return star


def _qualified(resolver, reference: str) -> str:
    """``reference`` as its scan names it, when one column owns it."""
    try:
        return resolver.qualify(reference)
    except (KeyError, ValueError):
        return reference


def _read_columns(node: LogicalNode, resolver) -> Optional[Dict[str, set]]:
    """alias -> the bare columns the tree references through it, in one
    walk: join keys, filter predicates (pushed-down ones included),
    grouping columns and aggregate arguments, projections and sort keys.

    A name no alias owns (an aggregate output, ``__partial_n``) is
    skipped.  ``None`` — every scan reads every column — for a
    ``SELECT *`` or an ambiguous reference.
    """
    references: List[str] = []
    stack = [node]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        columns = node_columns(node)
        if columns is None:
            return None
        references += columns
    read: Dict[str, set] = {}
    for reference in references:
        try:
            alias, bare = resolver.qualify(reference).split(".", 1)
        except KeyError:
            continue
        except ValueError:
            return None
        read.setdefault(alias, set()).add(bare)
    return read


def _pruned_scans(op: Operator) -> List[str]:
    """One EXPLAIN entry per scan that reads fewer columns than its
    table has."""
    out = []
    stack = [op]
    while stack:
        node = stack.pop()
        stack.extend(reversed(node.children()))
        if isinstance(node, (SeqScan, IndexScan)):
            total = len(node.table.schema)
            if len(node.columns) < total:
                out.append(
                    f"{node.alias} reads {', '.join(node.columns)} "
                    f"({len(node.columns)} of {total})"
                )
    return out


def _column_bounds(predicate: Optional[Expr], resolver) -> List[tuple]:
    """``(qualified column, low, high)`` for each conjunct of ``predicate``
    that bounds a column inclusively by literals (:func:`inclusive_bound`),
    in conjunct order."""
    out = []
    for conjunct in split_conjuncts(predicate) if predicate is not None else ():
        bound = inclusive_bound(conjunct)
        if bound is not None:
            try:
                out.append((resolver.qualify(bound[0]), bound[1], bound[2]))
            except (KeyError, ValueError):
                pass
    return out


def _constant_statements(bounds) -> List[Statement]:
    """``[] ↦ [col]`` for each bound pinning a column to one value."""
    return [constant_statement(column) for column, low, high in bounds if low == high]


def _sargable_bounds(key_columns, alias, bounds):
    """Bounds (low, high, width) over a prefix of the index key.

    Takes the first equality bound on each key column along the prefix,
    then the tightest range the bounds give the next key column.
    """
    low: List = []
    high: List = []
    for column in key_columns:
        target = f"{alias}.{column}"
        on_key = [(lo, hi) for name, lo, hi in bounds if name == target]
        point = next((lo for lo, hi in on_key if lo == hi), None)
        if point is None:
            lows = [lo for lo, _ in on_key if lo is not None]
            highs = [hi for _, hi in on_key if hi is not None]
            if lows:
                low.append(max(lows))
            if highs:
                high.append(min(highs))
            break
        low.append(point)
        high.append(point)
    return tuple(low) or None, tuple(high) or None, max(len(low), len(high))


def _projection_statements(expr: Expr, name: str, child_schema) -> List[Statement]:
    """Statements connecting a projected output column to its sources.

    * pass-through ``Col``: full equivalence (a pure rename);
    * monotone function / arithmetic of one column: a one-way OD — the
      [12]-style derived monotonicity of Section 2.2.
    """
    if isinstance(expr, Col):
        try:
            source = child_schema.resolve(expr.name)
        except (KeyError, ValueError):
            return []
        if source == name:
            return []
        return [OrderEquivalence(AttrList([source]), AttrList([name]))]
    source_column = _monotone_source(expr)
    if source_column is not None:
        try:
            source = child_schema.resolve(source_column)
        except (KeyError, ValueError):
            return []
        return [OrderDependency(AttrList([source]), AttrList([name]))]
    return []


def _monotone_source(expr: Expr) -> Optional[str]:
    """The single column an expression is monotone non-decreasing in."""
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Func) and expr.name in _MONOTONE_FUNCS and len(expr.args) == 1:
        return _monotone_source(expr.args[0])
    if isinstance(expr, Arith):
        if expr.op in ("+", "-") and isinstance(expr.right, Lit):
            return _monotone_source(expr.left)
        if expr.op == "+" and isinstance(expr.left, Lit):
            return _monotone_source(expr.right)
        if expr.op in ("*", "/") and isinstance(expr.right, Lit):
            value = expr.right.value
            if isinstance(value, (int, float)) and value > 0:
                return _monotone_source(expr.left)
        if expr.op == "*" and isinstance(expr.left, Lit):
            value = expr.left.value
            if isinstance(value, (int, float)) and value > 0:
                return _monotone_source(expr.right)
    return None
