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
Entries are stamped with the :mod:`repro.engine.epoch` value current at
planning time.  A lookup whose stamp differs from the caller's epoch is a
*stale invalidation*: the entry is dropped, the ``stale_invalidations``
counter moves, and the caller re-plans.  DDL, index creation, dependency
registration, and data loads all bump the epoch (see
:mod:`repro.engine.epoch` for why data is included), so a cached plan is
never served across any mutation that could change what planning would
produce.  Capacity pressure evicts least-recently-used entries.
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

__all__ = ["canonical_tuple", "fingerprint", "PlanCacheEntry", "PlanCache"]


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

    The epoch is *not* part of the key: at most one entry exists per
    logical tree and plan_key, and a lookup under a newer epoch explicitly
    drops the stale entry (counted) rather than letting it shadow-rot.
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
        }

    # ------------------------------------------------------------------
    def lookup(
        self, fp: str, plan_key: Hashable, epoch: int
    ) -> Optional[PlanCacheEntry]:
        """The live entry for (fp, plan_key) at ``epoch``, or ``None``.

        A hit bumps the entry's LRU position and serve count; an entry
        stamped with a different epoch is dropped and counted stale.
        """
        key = (fp, plan_key)
        entry = self._entries.get(key)
        if entry is None:
            self._stats["misses"] += 1
            return None
        if entry.epoch != epoch:
            del self._entries[key]
            self._stats["stale_invalidations"] += 1
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
        ``stale_invalidations`` are **monotonic** for the cache's lifetime
        (``clear()`` drops entries, never counters), so deltas between two
        readings are meaningful; ``size``, ``capacity``, and ``hit_rate``
        are **gauges** — point-in-time values that may move either way.
        """
        out: Dict[str, object] = dict(self._stats)
        out["size"] = len(self._entries)
        out["capacity"] = self.capacity
        out["hit_rate"] = self.hit_rate
        return out
