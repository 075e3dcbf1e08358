"""Whole-plan memoization: logical-tree fingerprint → physical plan.

PR 1 made order properties canonically hashable and interned the
query-scoped OD theories; this module takes the step ROADMAP.md called
out: skip planning entirely when the *same logical tree* is planned again
under an unchanged catalog.

Fingerprinting rules
--------------------
:func:`canonical_tuple` lowers a logical tree into a nested tuple that is
equal iff the trees are plan-equivalent inputs:

* structure and node kinds (scan/join/filter/aggregate/project/distinct/
  sort/limit) are encoded positionally;
* scans contribute ``(table, alias)`` — alias matters because constraint
  qualification and name resolution are alias-sensitive;
* expressions contribute their rendered SQL text (``Expr.render`` is a
  faithful, parenthesized serialization, so distinct predicates and
  literals render distinctly);
* aggregate specs contribute ``(func, argument render, output name)``;
* sort keys, join columns, group columns, limits contribute verbatim.

:func:`fingerprint` hashes that tuple (SHA-256, hex) so cache keys are
small and printable in ``EXPLAIN`` output.  Two different SQL strings that
bind to the same logical tree (whitespace, comment, keyword-case variants)
share a fingerprint and therefore a cached plan.

Invalidation contract
---------------------
A lookup validates the entry in this order, and a failure drops it,
moves one counter and makes the caller re-plan:

1. **The catalog stamp.**  Entries are stamped with
   :func:`repro.engine.epoch.catalog_epoch` at planning time.  DDL, index
   creation, constraint and FK declarations and the estimation-mode flip
   advance it; a lookup under another catalog epoch is a *stale
   invalidation* (``stale_invalidations``).  Data writes do not advance
   it.
2. **The row counts.**  Every base table the query names (including
   tables a rewrite removed) must hold no fewer rows than at planning and
   at most :data:`REPLAN_GROWTH` more; otherwise ``growth_replans``.  A
   shrink may have removed a row a maintained fact was built on; growth
   past the fraction leaves the join order priced on stale estimates.
3. **The facts** its rewrites relied on (``PlanInfo.facts``).  A fact
   whose tables all hold their planned row counts is not re-checked.  An
   FK or unique-key fact whose tables grew is re-checked through its
   maintained verdict (``Database.verified_foreign_key`` /
   ``verified_unique_key``, which extend by the appended rows); a date
   rewrite's surrogate range whose dimension grew fails.  Either failure
   counts as ``fact_invalidations``.

Everything else a plan decided stays right across an append: a declared
OD survives because a checked ``load`` rejects a violating row, and scans
resolve their row ranges at execution time.  Capacity pressure evicts
least-recently-used entries.  ``len(table.rows)`` is the row-count
signal, so a truncation followed by a longer append with no lookup in
between passes step 2 — the hole every maintained structure shares until
direct mutation of ``Table.rows`` is guarded.
"""
from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..engine.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)

__all__ = [
    "REPLAN_GROWTH",
    "canonical_tuple",
    "fingerprint",
    "replan_reason",
    "PlanCacheEntry",
    "PlanCache",
]

#: A cached plan is re-planned once a table it read holds more than this
#: fraction more rows than when it was planned.
REPLAN_GROWTH = 0.2


def canonical_tuple(node: LogicalNode) -> tuple:
    """The canonical nested-tuple form of a logical tree (see module doc)."""
    if isinstance(node, LogicalScan):
        return ("scan", node.table, node.alias)
    if isinstance(node, LogicalJoin):
        return (
            "join",
            canonical_tuple(node.left),
            canonical_tuple(node.right),
            tuple(node.left_columns),
            tuple(node.right_columns),
        )
    if isinstance(node, LogicalFilter):
        return ("filter", canonical_tuple(node.child), node.predicate.render())
    if isinstance(node, LogicalAggregate):
        return (
            "aggregate",
            canonical_tuple(node.child),
            tuple(node.group_columns),
            tuple(
                (spec.func, spec.expr.render() if spec.expr is not None else None, spec.name)
                for spec in node.aggregates
            ),
        )
    if isinstance(node, LogicalProject):
        if node.exprs is None:
            return ("project", canonical_tuple(node.child), None, None)
        return (
            "project",
            canonical_tuple(node.child),
            tuple(expr.render() for expr in node.exprs),
            tuple(node.names),
        )
    if isinstance(node, LogicalDistinct):
        return ("distinct", canonical_tuple(node.child))
    if isinstance(node, LogicalSort):
        return ("sort", canonical_tuple(node.child), tuple(node.keys))
    if isinstance(node, LogicalLimit):
        return ("limit", canonical_tuple(node.child), node.count)
    raise TypeError(f"cannot fingerprint {node!r}")


def fingerprint(node: LogicalNode) -> str:
    """SHA-256 hex digest of the canonical tuple — the plan-cache key."""
    return hashlib.sha256(repr(canonical_tuple(node)).encode()).hexdigest()


def replan_reason(database, info) -> Optional[str]:
    """Why the plan ``info`` describes may not be served on ``database``'s
    current data: ``"growth_replans"``, ``"fact_invalidations"`` or
    ``None`` (serve it).  Steps 2 and 3 of the module's contract."""
    tables = database.tables
    planned_rows = info.planned_rows
    current = {}
    for name, planned in planned_rows.items():
        rows = len(tables[name].rows)
        if rows < planned or rows > planned * (1 + REPLAN_GROWTH):
            return "growth_replans"
        current[name] = rows
    for fact in info.facts:
        if all(current[name] == planned_rows[name] for name in fact.tables):
            continue
        if fact.kind == "fk":
            holds = database.verified_foreign_key(*fact.key)
        else:
            holds = fact.kind == "unique" and database.verified_unique_key(*fact.key)
        if not holds:
            return "fact_invalidations"
    return None


@dataclass
class PlanCacheEntry:
    """One memoized physical plan, with its provenance."""

    plan: object  # the root Operator, with .plan_info attached
    fingerprint: str
    plan_key: Hashable
    epoch: int
    #: How many times this entry has been served (beyond the storing plan).
    serves: int = 0


class PlanCache:
    """A bounded LRU of physical plans keyed on (fingerprint, plan_key).

    ``plan_key`` is :attr:`repro.engine.options.ExecOptions.plan_key` —
    every option that changes the physical tree (reasoning mode, join
    ordering, rewrites, worker count, exchange backend) — so plannings
    that differ in any of them never serve each other's trees.  The
    cache only needs it hashable.

    The catalog epoch is *not* part of the key: at most one entry exists
    per logical tree and plan_key, and a lookup that finds it invalid
    (module doc) explicitly drops it (counted) rather than letting it
    shadow-rot.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, Hashable], PlanCacheEntry]" = OrderedDict()
        self._stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "stale_invalidations": 0,
            "fact_invalidations": 0,
            "growth_replans": 0,
        }

    # ------------------------------------------------------------------
    def lookup(
        self, fp: str, plan_key: Hashable, epoch: int, database=None
    ) -> Optional[PlanCacheEntry]:
        """The live entry for (fp, plan_key) at catalog ``epoch``, or
        ``None``.

        A hit bumps the entry's LRU position and serve count.  An entry
        stamped with a different epoch, or — given the ``database`` it was
        planned on — one :func:`replan_reason` rejects, is dropped and
        counted under its reason.
        """
        key = (fp, plan_key)
        entry = self._entries.get(key)
        if entry is None:
            self._stats["misses"] += 1
            return None
        reason = "stale_invalidations" if entry.epoch != epoch else None
        if reason is None and database is not None:
            reason = replan_reason(database, entry.plan.plan_info)
        if reason is not None:
            del self._entries[key]
            self._stats[reason] += 1
            self._stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        entry.serves += 1
        self._stats["hits"] += 1
        return entry

    def store(
        self, fp: str, plan_key: Hashable, epoch: int, plan: object
    ) -> PlanCacheEntry:
        """Memoize a freshly planned tree, evicting LRU entries past capacity."""
        entry = PlanCacheEntry(
            plan=plan, fingerprint=fp, plan_key=plan_key, epoch=epoch
        )
        self._entries[(fp, plan_key)] = entry
        self._entries.move_to_end((fp, plan_key))
        self._stats["stores"] += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats["evictions"] += 1
        return entry

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (stats counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self._stats["hits"] + self._stats["misses"]
        return self._stats["hits"] / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        """Counters plus current occupancy — the ``plan_cache_stats()`` payload.

        Follows the snapshot contract of ``Database.stats_snapshot``:
        ``hits`` / ``misses`` / ``stores`` / ``evictions`` /
        ``stale_invalidations`` (catalog changes) / ``fact_invalidations``
        / ``growth_replans`` are **monotonic** for the cache's lifetime
        (``clear()`` drops entries, never counters), so deltas between two
        readings are meaningful; ``size``, ``capacity``, and ``hit_rate``
        are **gauges** — point-in-time values that may move either way.
        """
        out: Dict[str, object] = dict(self._stats)
        out["size"] = len(self._entries)
        out["capacity"] = self.capacity
        out["hit_rate"] = self.hit_rate
        return out
