"""The Database: catalog, constraint registry, and query entry points.

Ties the engine together: tables, sorted indexes, declared dependency
constraints (the paper's OD check constraints), statistics, and
``execute``/``explain`` entry points that delegate planning to
:mod:`repro.optimizer.planner` with optimization on or off — the switch the
benchmark harness flips to reproduce every "with vs without OD reasoning"
comparison.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter_ns
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from collections import OrderedDict

from ..config import SLOW_QUERY_MS, TRACE_DEFAULT
from ..core.dependency import Statement
from ..obs import EngineMetrics
from ..obs.tracer import Tracer
from .epoch import bump_epoch, catalog_epoch, current_epoch
from .errors import CancelToken, QueryTimeout
from .histogram import pair_selectivity_stats
from .index import SortedIndex
from .operators.base import Metrics, Operator
from .options import ExecOptions
from .schema import Schema
from .stats import MaintainedStats, TableStats, estimation_mode
from .table import Table

#: Stable empty mapping for fault-free/serial results' ``exchange_stats``.
_EMPTY_STATS: Mapping[str, object] = MappingProxyType({})

__all__ = ["Database", "ForeignKey", "QueryResult"]


@dataclass(frozen=True)
class ForeignKey:
    """A declared referential constraint: every ``child_columns`` tuple in
    ``child_table`` appears among ``parent_columns`` in ``parent_table``.

    Declared via :meth:`Database.declare_foreign_key` (containment checked
    at declaration) and re-verified against the rows written since before
    any rewrite relies on it (:meth:`Database.verified_foreign_key`)."""

    child_table: str
    child_columns: Tuple[str, ...]
    parent_table: str
    parent_columns: Tuple[str, ...]


@dataclass
class _FkCoverage:
    """A containment verdict and what it covers: the parent's key set and
    how many child and parent rows went into it."""

    parent_keys: set
    child_rows: int
    parent_rows: int
    contained: bool


@dataclass
class QueryResult:
    """Rows plus everything needed to compare plans."""

    columns: Tuple[str, ...]
    rows: List[tuple]
    metrics: Metrics
    plan: Operator
    #: The batch size the execution streamed at (``None`` at the call
    #: resolves to :data:`~repro.engine.batch.DEFAULT_BATCH_SIZE`).
    batch_size: Optional[int] = None
    #: Parallel worker count, ``None`` for serial execution.
    workers: Optional[int] = None
    #: Exchange backend the parallel run drained through (``"inline"`` /
    #: ``"process"``), ``None`` for serial execution.
    backend: Optional[str] = None
    #: Fault-tolerance accounting for this execution (summed across the
    #: plan's exchanges; zero/None on the fault-free path): partition
    #: attempts that were retried, and ``"inline"`` when any partition
    #: degraded to it (``None`` — no degradation).  Lives here and in
    #: ``exchange_stats``, never in :class:`Metrics` — recovered runs
    #: stay counter-identical to serial.
    retries: int = 0
    degraded_to: Optional[str] = None
    #: Whether this execution hit its deadline.  Always ``False`` on a
    #: returned result (a timeout raises :class:`QueryTimeout` instead);
    #: the mirror field on ``plan_info.recovery`` records timeouts for
    #: EXPLAIN post-mortems.
    timed_out: bool = False
    #: Merged per-exchange accounting for this execution, as a *stable
    #: read-only mapping* (the supported surface — digging
    #: ``exchange_stats`` out of the plan tree is deprecated): retries,
    #: degraded partitions, ``degraded_to``, and the
    #: process backend's serialization totals (``chain_bytes``,
    #: ``morsel_bytes``, ``morsels``, ``rows_shipped``).  Empty for
    #: serial/fault-free-inline runs.
    exchange_stats: Mapping[str, object] = field(default_factory=lambda: _EMPTY_STATS)
    #: Wall-clock milliseconds for plan + execution (what the slow-query
    #: ring records).
    wall_ms: float = 0.0
    #: Chrome ``trace_event`` dict when the execution was traced
    #: (``trace=True`` / ``REPRO_TRACE=1``), else ``None``.  Dump with
    #: ``json.dump`` and load in ``chrome://tracing`` / Perfetto.
    trace: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, limit: int = 20) -> str:  # pragma: no cover - cosmetic
        header = " | ".join(self.columns)
        lines = [header, "-" * len(header)]
        for row in self.rows[:limit]:
            lines.append(" | ".join(str(value) for value in row))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


class Database:
    """An in-memory database instance."""

    #: Bound on the SQL-text → logical-tree memo (parse/bind fast path).
    _LOGICAL_MEMO_SIZE = 512

    def __init__(self, name: str = "db", plan_cache_capacity: int = 128) -> None:
        from ..optimizer.plan_cache import PlanCache  # lazy: avoids import cycle

        self.name = name
        self.tables: Dict[str, Table] = {}
        self.indexes: Dict[str, SortedIndex] = {}
        #: table name → its statistics and what they cover; see
        #: :meth:`stats`.
        self._stats: Dict[str, MaintainedStats] = {}
        #: Whole-plan memoization: logical fingerprint + the options'
        #: ``plan_key`` → physical plan, invalidated by a catalog change,
        #: a read table's shrink or growth, or a broken fact (see
        #: :mod:`repro.optimizer.plan_cache`).
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
        #: SQL text → (bound logical tree, canonical fingerprint).  Both
        #: are catalog-independent (names resolve at physical planning),
        #: so entries never go stale; the memo spares repeated templates
        #: the parse/bind/fingerprint work.
        self._logical_memo: "OrderedDict[str, object]" = OrderedDict()
        #: Declared referential constraints (see :class:`ForeignKey`) and
        #: what each one's latest containment verdict covers.
        self._foreign_keys: List[ForeignKey] = []
        self._fk_checks: Dict[ForeignKey, _FkCoverage] = {}
        #: Times statistics / FK verdicts were extended by appended rows
        #: vs rebuilt by a full pass (monotonic; :meth:`stats_snapshot`
        #: adds the indexes' and tables' own counters).
        self._maintenance: Dict[str, Dict[str, int]] = {
            kind: {"extended": 0, "rebuilt": 0} for kind in ("stats", "fk")
        }
        #: Cumulative query/timing counters + slow-query ring (see
        #: :mod:`repro.obs.registry`); surfaced by :meth:`stats_snapshot`.
        self._registry = EngineMetrics(SLOW_QUERY_MS)
        #: Lifetime exchange totals (monotonic, summed across executions).
        self._exchange_totals: Dict[str, int] = {"parallel_runs": 0}

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, schema)
        self.tables[name] = table
        bump_epoch("create-table")
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r}") from None

    def create_index(
        self,
        name: str,
        table_name: str,
        key_columns: Sequence[str],
        clustered: bool = False,
    ) -> SortedIndex:
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists")
        index = SortedIndex(name, self.table(table_name), key_columns, clustered)
        self.indexes[name] = index
        bump_epoch("create-index")
        return index

    def indexes_on(self, table_name: str) -> List[SortedIndex]:
        return [
            index for index in self.indexes.values()
            if index.table.name == table_name
        ]

    def declare(self, table_name: str, statement: Statement) -> None:
        """Register a dependency constraint on a table (checked on data)."""
        self.table(table_name).declare(statement)

    def constraints_on(self, table_name: str) -> List[Statement]:
        return list(self.table(table_name).constraints)

    def declare_foreign_key(
        self,
        child_table: str,
        child_columns: Sequence[str],
        parent_table: str,
        parent_columns: Sequence[str],
    ) -> ForeignKey:
        """Register a referential constraint, verifying containment now.

        The declaration is the *proof obligation* the rewrite pack's join
        elimination relies on (every fact row matches a dimension row);
        it is re-verified against the data at plan time through
        :meth:`verified_foreign_key`, so a later load that orphans rows
        silently disables the rewrite instead of corrupting results.
        """
        child = self.table(child_table)
        parent = self.table(parent_table)
        child_columns = tuple(child.schema.resolve(c) for c in child_columns)
        parent_columns = tuple(parent.schema.resolve(c) for c in parent_columns)
        if not child_columns or len(child_columns) != len(parent_columns):
            raise ValueError(
                "foreign key requires matching non-empty column lists"
            )
        fk = ForeignKey(child_table, child_columns, parent_table, parent_columns)
        if not self._fk_contained(fk):
            raise ValueError(
                f"foreign key violated: {child_table}({', '.join(child_columns)}) "
                f"has values missing from {parent_table}"
                f"({', '.join(parent_columns)})"
            )
        if fk not in self._foreign_keys:
            self._foreign_keys.append(fk)
        bump_epoch("declare-fk")
        return fk

    def foreign_keys_on(self, child_table: str) -> List[ForeignKey]:
        return [fk for fk in self._foreign_keys if fk.child_table == child_table]

    def _fk_contained(self, fk: ForeignKey) -> bool:
        """One O(|child| + |parent|) set-containment pass."""
        return self._fk_cover(fk).contained

    @staticmethod
    def _fk_keys(table: Table, columns: Sequence[str], start: int = 0):
        """The key tuples of ``table.rows[start:]``."""
        positions = [table.schema.position(c) for c in columns]
        return (tuple(row[p] for p in positions) for row in table.rows[start:])

    def _fk_cover(self, fk: ForeignKey) -> _FkCoverage:
        """The full containment pass, keeping what later appends extend."""
        child = self.table(fk.child_table)
        parent = self.table(fk.parent_table)
        parent_keys = set(self._fk_keys(parent, fk.parent_columns))
        contained = all(
            key in parent_keys for key in self._fk_keys(child, fk.child_columns)
        )
        return _FkCoverage(parent_keys, len(child.rows), len(parent.rows), contained)

    def verified_foreign_key(
        self,
        child_table: str,
        child_columns: Sequence[str],
        parent_table: str,
        parent_columns: Sequence[str],
    ) -> bool:
        """Is a matching declared FK still valid on the current data?

        Matches the declared constraint by its (child, parent) column
        *pairs* regardless of order, then re-verifies containment over
        the rows appended since the last verdict: new child rows are
        looked up in the retained parent key set, new parent rows add
        keys to it.  More keys can only turn a false verdict true, so
        after a parent append a false one re-checks the child from row 0.
        A table that shrank gets the full pass again.
        """
        want = frozenset(zip(child_columns, parent_columns))
        for fk in self._foreign_keys:
            if (
                fk.child_table == child_table
                and fk.parent_table == parent_table
                and frozenset(zip(fk.child_columns, fk.parent_columns)) == want
            ):
                return self._fk_verdict(fk)
        return False

    def _fk_verdict(self, fk: ForeignKey) -> bool:
        """``fk``'s containment on the current rows, from its retained
        coverage where only appends happened since."""
        child = self.table(fk.child_table)
        parent = self.table(fk.parent_table)
        child_rows, parent_rows = len(child.rows), len(parent.rows)
        cover = self._fk_checks.get(fk)
        if (
            cover is None
            or child_rows < cover.child_rows
            or parent_rows < cover.parent_rows
        ):
            cover = self._fk_checks[fk] = self._fk_cover(fk)
            self._maintenance["fk"]["rebuilt"] += 1
        elif (child_rows, parent_rows) != (cover.child_rows, cover.parent_rows):
            recheck_from = cover.child_rows
            if parent_rows > cover.parent_rows:
                cover.parent_keys.update(
                    self._fk_keys(parent, fk.parent_columns, cover.parent_rows)
                )
                if not cover.contained:
                    recheck_from, cover.contained = 0, True
            if cover.contained:
                parent_keys = cover.parent_keys
                cover.contained = all(
                    key in parent_keys
                    for key in self._fk_keys(child, fk.child_columns, recheck_from)
                )
            cover.child_rows, cover.parent_rows = child_rows, parent_rows
            self._maintenance["fk"]["extended"] += 1
        return cover.contained

    def stats(self, table_name: str, refresh: bool = False) -> TableStats:
        """Cached table statistics, current with the table's rows.

        The cached :class:`~repro.engine.stats.MaintainedStats` is stamped
        with the row count, constraint count, index count and estimation
        mode it was brought up to; while those read the same — one tuple
        comparison, this is called ~80× per cold planning — it is served
        as is.  Otherwise it is extended by the appended rows or rebuilt
        (see ``MaintainedStats.refresh``), so cardinality estimates are
        never computed from pre-mutation row counts, and writes to *other*
        tables cost this one nothing.
        """
        entry = self._stats.get(table_name)
        if entry is None:
            entry = self._stats[table_name] = MaintainedStats(self.table(table_name))
        table = entry.table
        stamp = (
            len(table.rows),
            len(table.constraints),
            len(self.indexes),
            estimation_mode(),
        )
        if stamp != entry.stamp or refresh:
            outcome = entry.refresh(self.indexes_on(table_name), force=refresh)
            if outcome is not None:
                self._maintenance["stats"][outcome] += 1
            entry.stamp = stamp
        return entry.stats

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def _bind(self, sql: str):
        """Parse + bind with a bounded memo on the raw SQL text.

        Returns ``(logical tree, fingerprint)``.  The fingerprint is a
        pure function of the tree, so it is memoized alongside it — a
        warm ``plan()`` is then genuinely two dict lookups, with no tree
        walk or hashing.
        """
        entry = self._logical_memo.get(sql)
        if entry is not None:
            self._logical_memo.move_to_end(sql)
            return entry
        from ..optimizer.plan_cache import fingerprint
        from .logical import bind
        from .sql.parser import parse

        logical = bind(parse(sql))
        entry = (logical, fingerprint(logical))
        self._logical_memo[sql] = entry
        while len(self._logical_memo) > self._LOGICAL_MEMO_SIZE:
            self._logical_memo.popitem(last=False)
        return entry

    def plan(
        self,
        sql: str,
        optimize: bool = True,
        use_cache: bool = True,
        workers: Optional[int] = None,
        join_order: str = "cost",
        backend: Optional[str] = None,
        rewrites: str = "on",
        tracer: Optional[Tracer] = None,
    ) -> Operator:
        """Parse, bind, optimize (optionally) and return the physical plan.

        With ``use_cache=True`` (the default) the plan cache is consulted
        first: the logical tree is fingerprinted and, if an entry exists
        for (fingerprint, resolved options) at the current catalog epoch,
        and the tables and facts it was planned on still pass
        :func:`~repro.optimizer.plan_cache.replan_reason`, the memoized
        physical plan is returned without re-planning.
        ``use_cache=False`` neither reads nor fills the cache (benchmarks
        use it to measure the uncached path; its plans report
        ``cache_state="bypass"``).  Every option below changes the
        physical tree, so plans built under different values never serve
        each other (see :attr:`ExecOptions.plan_key`).

        ``workers=K`` asks the planner to place exchange operators over
        the plan's partitionable chains (see :mod:`repro.engine.parallel`);
        ``backend=`` selects which :class:`ExchangeBackend` drains them
        (``"inline"`` when unspecified) and requires ``workers``.

        ``join_order`` selects how multi-join queries are ordered:
        ``"cost"`` (the default) runs the cost-based search of
        :mod:`repro.optimizer.joinorder` over the query's join graph;
        ``"syntactic"`` keeps the parse order (the pre-search behaviour,
        and the baseline the differential harness compares against).

        ``rewrites`` switches the logical rewrite pack (eager
        aggregation, scan consolidation, FD join elimination — see
        :mod:`repro.optimizer.rewrites`) ``"on"`` or ``"off"``.
        """
        options = ExecOptions(
            optimize=optimize,
            join_order=join_order,
            rewrites=rewrites,
            workers=workers,
            backend=backend,
        )
        return self._plan(sql, options, use_cache, tracer)

    def _plan(
        self,
        sql: str,
        options: ExecOptions,
        use_cache: bool,
        tracer: Optional[Tracer] = None,
    ) -> Operator:
        """``plan`` for already-resolved options (what ``execute`` and
        ``explain`` call, so options resolve once per statement)."""
        span = tracer.span if tracer is not None else None
        with span("parse-bind", "optimizer") if span else nullcontext():
            logical, fp = self._bind(sql)
        if use_cache:
            key = options.plan_key
            epoch = catalog_epoch()
            with span("cache-lookup", "optimizer", key=key) if span else nullcontext():
                entry = self.plan_cache.lookup(fp, key, epoch, self)
            if entry is not None:
                info = entry.plan.plan_info  # type: ignore[attr-defined]
                for name in info.planned_rows:  # it trusts their facts
                    self.tables[name].check_appended()
                info.cache_state = "hit"
                info.cache_serves = entry.serves
                return entry.plan
        from ..optimizer.planner import Planner  # lazy: avoids import cycle

        plan = Planner(
            self,
            optimize=options.optimize,
            workers=options.workers,
            join_order=options.join_order,
            backend=options.backend,
            rewrites=options.rewrites,
            tracer=tracer,
        ).plan(logical)
        info = plan.plan_info  # type: ignore[attr-defined]
        if use_cache:
            info.fingerprint = fp
            info.epoch = epoch
            info.cache_state = "miss"
            self.plan_cache.store(fp, key, epoch, plan)
        else:
            info.cache_state = "bypass"
        return plan

    def plan_cache_stats(self) -> Dict[str, object]:
        """Plan-cache counters: hits, misses, stores, evictions,
        stale_invalidations, fact_invalidations, growth_replans, size,
        capacity, hit_rate."""
        return self.plan_cache.stats()

    def stats_snapshot(self) -> Dict[str, object]:
        """One unified point-in-time reading of every engine metric.

        The counter contract (shared by every sub-registry): keys under a
        ``counters`` mapping are **monotonic** — they only grow for this
        database's lifetime, so deltas between snapshots are meaningful
        rates — while sizes, hit rates, and the slow-query list are
        **gauges**.  Sections:

        * ``engine`` — cumulative query/failure/timeout/row counters,
          average wall ms, and the slow-query ring
          (:mod:`repro.obs.registry`);
        * ``plan_cache`` — whole-plan memoization counters, with why
          entries were dropped: ``stale_invalidations`` (a catalog
          change), ``fact_invalidations`` (a relied-on fact broke) and
          ``growth_replans`` (a read table shrank or outgrew
          ``REPLAN_GROWTH``);
        * ``theory_cache`` — the OD-oracle theory cache: live size plus
          oracle-work gauges summed over the live theories;
        * ``exchange`` — lifetime parallel-execution totals (retries,
          degradations, process-backend serialization bytes);
        * ``maintenance`` — per kind of derived state (``stats``,
          ``index``, ``fk``, ``constraints``, ``columnar``), how often a
          read after a write ``extended`` it by the appended rows and how
          often it was ``rebuilt`` by the full pass (first builds
          included).  A
          workload whose ``rebuilt`` keeps pace with its writes is
          falling back every time;
        * ``pair_selectivity`` — the join estimator's histogram-pair merge
          walks ``computed`` and ``reused`` and their map's live ``size``
          (process-wide, like ``theory_cache``); ``computed`` keeping
          pace with plannings over unchanged data is a thrashing map;
        * ``logical_memo_size`` / ``epoch`` / ``catalog_epoch`` —
          parse-memo occupancy, the epoch of every mutation and that of
          catalog mutations only.
        """
        from ..optimizer.context import theory_cache_stats

        maintenance = {kind: dict(v) for kind, v in self._maintenance.items()}
        tables = self.tables.values()
        for kind, counters in (
            ("index", [index.maintenance for index in self.indexes.values()]),
            ("constraints", [table.maintenance for table in tables]),
            ("columnar", [table.columnar_maintenance for table in tables]),
        ):
            maintenance[kind] = {
                outcome: sum(owned[outcome] for owned in counters)
                for outcome in ("extended", "rebuilt")
            }
        return {
            "epoch": current_epoch(),
            "catalog_epoch": catalog_epoch(),
            "engine": self._registry.snapshot(),
            "plan_cache": self.plan_cache.stats(),
            "theory_cache": theory_cache_stats(),
            "exchange": dict(self._exchange_totals),
            "maintenance": maintenance,
            "pair_selectivity": pair_selectivity_stats(),
            "logical_memo_size": len(self._logical_memo),
        }

    @staticmethod
    def _collect_recovery(plan: Operator) -> Dict[str, object]:
        """Merge exchange accounting over the plan's exchanges.

        Walks the physical tree for ``exchange_stats`` (set by the most
        recent batch execution) and totals every integer counter —
        ``retries``, ``degraded_partitions``, and the process backend's
        serialization accounting (``chain_bytes``, ``morsel_bytes``,
        ``morsels``, ``rows_shipped``, ``token_shipped_chains``);
        ``degraded_to`` is ``"inline"`` when any partition fell back to
        it and ``exchanges`` counts the exchange operators that executed.
        The merged mapping is what ``QueryResult.exchange_stats`` freezes.
        """
        totals: Dict[str, object] = {
            "retries": 0,
            "degraded_partitions": 0,
            "degraded_to": None,
        }
        exchanges = 0
        stack = [plan]
        while stack:
            node = stack.pop()
            stats = getattr(node, "exchange_stats", None)
            if stats:
                exchanges += 1
                for key, value in stats.items():
                    if key == "degraded_to":
                        totals["degraded_to"] = totals["degraded_to"] or value
                    elif isinstance(value, int) and not isinstance(value, bool):
                        totals[key] = totals.get(key, 0) + value  # type: ignore[operator]
            # Exchanges expose their serial subtree as children(); the
            # partition clones hold no exchanges, so children() covers
            # every exchange in the tree exactly once.
            stack.extend(node.children())
        if exchanges:
            totals["exchanges"] = exchanges
        return totals

    def execute(
        self,
        sql: str,
        optimize: bool = True,
        use_cache: bool = True,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        join_order: str = "cost",
        backend: Optional[str] = None,
        timeout_s: Optional[float] = None,
        rewrites: str = "on",
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Run a query to completion.

        Operators stream :class:`~repro.engine.batch.ColumnBatch` chunks
        of ``batch_size`` rows through compiled expression kernels;
        ``batch_size=None`` (default) means
        :data:`~repro.engine.batch.DEFAULT_BATCH_SIZE`, and the rows are
        flattened from the batches at the end.  ``workers=K``
        additionally partitions the plan's partitionable chains behind
        order-preserving exchanges, and ``backend=`` picks the exchange
        backend: ``"inline"`` (default: no pool — the deterministic
        floor) or ``"process"`` (true multicore).  Results and
        ``Metrics`` counter totals are identical across batch sizes,
        worker counts and backends (gated by the differential harness);
        only the speed differs.  The one exception is ``LIMIT``: a scan
        under it is charged for the whole batches it produced, at most
        one batch past the row that completes the limit.

        ``timeout_s`` sets a deadline: a :class:`CancelToken` rides the
        execution's ``Metrics`` and every operator loop checks it once
        per batch, so a past-deadline query raises
        :class:`~repro.engine.errors.QueryTimeout` promptly and the
        worker pool stays healthy for the next query.  Worker/partition
        failures are retried and degraded transparently (see
        :mod:`repro.engine.parallel`); the result's
        ``retries``/``degraded_to``/``exchange_stats`` report what
        recovery ran.

        ``trace=True`` (or ``REPRO_TRACE=1`` in the environment) records
        a hierarchical span trace of the optimizer phases and every
        operator's execution — across worker processes too — and attaches it
        as a Chrome ``trace_event`` dict on ``QueryResult.trace`` (on the
        raised exception for failed queries).  Tracing is
        observational only: rows and ``Metrics`` counters are
        bit-identical to an untraced run.

        Every failed statement — a syntax, binding or type error as much
        as a :class:`~repro.engine.errors.QueryError` — is counted in
        ``stats_snapshot()`` and re-raised unchanged.
        """
        options = ExecOptions(
            optimize=optimize,
            join_order=join_order,
            rewrites=rewrites,
            batch_size=batch_size,
            workers=workers,
            backend=backend,
        )
        if trace is None:
            trace = TRACE_DEFAULT
        tracer = Tracer() if trace else None
        started = perf_counter_ns()
        token = CancelToken(timeout_s) if timeout_s is not None else None
        plan: Optional[Operator] = None
        info = None
        try:
            with tracer.span("query", "query", sql=sql) if tracer else nullcontext():
                plan = self._plan(sql, options, use_cache, tracer)
                info = getattr(plan, "plan_info", None)
                with tracer.span("execute", "execute") if tracer else nullcontext():
                    rows, metrics = plan.run(
                        options.batch_size, token=token, tracer=tracer
                    )
        except Exception as exc:
            wall_ns = perf_counter_ns() - started
            self._registry.record(
                sql,
                wall_ns,
                0,
                backend=options.backend,
                workers=options.workers,
                error=exc,
                timed_out=isinstance(exc, QueryTimeout),
            )
            if tracer is not None:
                tracer.finish()
                exc.trace = tracer.chrome()
            if info is not None and plan is not None:
                info.execution = options.describe()
                merged = self._collect_recovery(plan)
                self._fold_exchange_totals(merged)
                recovery = {
                    key: merged[key]
                    for key in ("retries", "degraded_partitions", "degraded_to")
                }
                recovery["timed_out"] = isinstance(exc, QueryTimeout)
                recovery["failed"] = type(exc).__name__
                info.recovery = recovery
            raise
        wall_ns = perf_counter_ns() - started
        self._registry.record(
            sql,
            wall_ns,
            len(rows),
            backend=options.backend,
            workers=options.workers,
        )
        merged = self._collect_recovery(plan)
        self._fold_exchange_totals(merged)
        if info is not None:
            info.execution = options.describe()
            if merged["retries"] or merged["degraded_partitions"]:
                info.recovery = {
                    "retries": merged["retries"],
                    "degraded_partitions": merged["degraded_partitions"],
                    "degraded_to": merged["degraded_to"],
                    "timed_out": False,
                }
            else:
                info.recovery = {}
        if tracer is not None:
            tracer.finish()
        return QueryResult(
            plan.schema.names,
            rows,
            metrics,
            plan,
            options.batch_size,
            options.workers,
            options.backend,
            retries=merged["retries"],  # type: ignore[arg-type]
            degraded_to=merged["degraded_to"],  # type: ignore[arg-type]
            timed_out=False,
            exchange_stats=(
                MappingProxyType(merged) if merged.get("exchanges") else _EMPTY_STATS
            ),
            wall_ms=wall_ns / 1e6,
            trace=tracer.chrome() if tracer is not None else None,
        )

    def _fold_exchange_totals(self, merged: Dict[str, object]) -> None:
        """Accumulate one execution's merged exchange stats into the
        database-lifetime monotonic totals (``stats_snapshot()["exchange"]``)."""
        if not merged.get("exchanges"):
            return
        self._exchange_totals["parallel_runs"] += 1
        for key, value in merged.items():
            if key == "exchanges" or not isinstance(value, int) or isinstance(value, bool):
                continue
            self._exchange_totals[key] = self._exchange_totals.get(key, 0) + value

    def explain(
        self,
        sql: str,
        optimize: bool = True,
        verbose: bool = False,
        use_cache: bool = True,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        join_order: str = "cost",
        backend: Optional[str] = None,
        rewrites: str = "on",
        analyze: bool = False,
    ) -> str:
        """The physical plan as text.

        With ``workers=K`` the tree shows the placed exchange operators
        (merge or union) over their partitioned chains.  ``verbose=True``
        appends the planner's decision log — which sorts/joins were
        eliminated, the join order the cost-based search chose (with its
        estimate and the syntactic-order estimate it beat), the plan's
        estimated rows/cost, each exchange's kind / partition count /
        ordering keys, how much oracle work was answered from the
        memoized result cache vs enumerated, the row count of every table
        the plan was planned on (with today's where it differs) and the
        data facts its rewrites rely on, whether this plan was a
        plan-cache hit, miss, or bypass (with its fingerprint prefix and
        catalog epoch), and the execution the given ``batch_size``/
        ``workers`` select (serial or parallel, with the resolved batch
        size).

        ``analyze=True`` *runs the query* under a tracer and annotates
        every node with its measured actuals — rows, batches, wall time —
        plus the planner's cardinality estimate and the Q-error between
        them (``max(est/actual, actual/est)``), the engine auditing its
        own statistics subsystem.  The per-node summary also lands on
        ``plan_info.analyze`` for programmatic use.
        """
        options = ExecOptions(
            optimize=optimize,
            join_order=join_order,
            rewrites=rewrites,
            batch_size=batch_size,
            workers=workers,
            backend=backend,
        )
        plan = self._plan(sql, options, use_cache)
        info = getattr(plan, "plan_info", None)
        if analyze:
            from ..obs.analyze import annotate_plan

            tracer = Tracer()
            started = perf_counter_ns()
            with tracer.span("query", "query", sql=sql):
                with tracer.span("execute", "execute"):
                    plan.run(options.batch_size, tracer=tracer)
            wall_ns = perf_counter_ns() - started
            tracer.finish()
            text, summary = annotate_plan(self, plan, tracer.spans)
            if info is not None:
                q_errors = [
                    entry["q_error"] for entry in summary if "q_error" in entry
                ]
                info.analyze = {
                    "nodes": len(summary),
                    "wall_ms": wall_ns / 1e6,
                    "summary": summary,
                }
                if q_errors:
                    info.analyze["max_q_error"] = max(q_errors)
        else:
            text = plan.explain()
        if verbose and info is not None:
            info.execution = options.describe()
            current = {name: len(self.tables[name].rows) for name in info.planned_rows}
            text = f"{text}\n{info.describe(current)}"
        return text
