"""OD-aware query optimization: rewrites, order reduction, planning.

The application layer of the reproduction — the techniques Sections 1–2 of
the paper motivate, built on the theory core.  Module map (dependency
order, bottom-up):

* :mod:`repro.optimizer.reduce_order` — the rewrite algorithms:
  ReduceOrder ([17]) vs ReduceOrder++ (Eliminate / Left Eliminate), plus
  the order-satisfaction and stream-groupability predicates they power.
* :mod:`repro.optimizer.properties` — the physical-property IR:
  :class:`~repro.optimizer.properties.OrderSpec` /
  :class:`~repro.optimizer.properties.PhysicalProperty` with canonical
  hashing, rename/restrict algebra, and the mode-dispatched satisfaction
  layer (``naive`` / ``fd`` / ``od``) every caller funnels through.
* :mod:`repro.optimizer.context` — query-scoped dependency theories:
  constraint qualification, join equivalences, constant bindings, and the
  interned (LRU) :func:`~repro.optimizer.context.build_theory` that keeps
  the oracle's memoized results alive across repeated plannings.
* :mod:`repro.optimizer.rewrites` — logical rewrites, one tree walk and
  one :class:`~repro.optimizer.rewrites.RewriteRecord` per firing:
  predicate pushdown, the date-dimension surrogate-key join elimination
  ([18] / Section 2.3, verified through the property framework), and the
  rewrite pack — scan consolidation, FD join elimination and eager
  aggregation.
* :mod:`repro.optimizer.costing` — cardinality + cost estimation,
  pricing sort-avoidance from operators' declared order properties and
  equi-join output sizes from per-column NDVs (containment assumption).
* :mod:`repro.optimizer.joingraph` — flattens a logical join block into
  relations + equi-join edges for the ordering search.
* :mod:`repro.optimizer.joinorder` — cost-based join ordering: DP
  enumeration (greedy above :data:`~repro.optimizer.joinorder.DP_MAX_RELATIONS`)
  over a Pareto frontier of (cost, provided order) entries, with
  OD-implied orders merging frontier classes.
* :mod:`repro.optimizer.planner` — physical planning in ``naive`` /
  ``fd`` / ``od`` modes; attributes per-plan oracle activity (cache hits
  vs enumerations) to :class:`~repro.optimizer.planner.PlanInfo` for
  ``EXPLAIN``-style reporting.
* :mod:`repro.optimizer.plan_cache` — whole-plan memoization: canonical
  logical-tree fingerprints, a bounded LRU of physical plans, and the
  catalog-epoch invalidation contract shared with the interned theories.
"""
from .context import build_theory, clear_theory_cache, qualify_statement
from .costing import PlanEstimate, estimate_plan
from .joingraph import BaseRelation, JoinEdge, JoinGraph, extract_join_graph
from .joinorder import (
    DP_MAX_RELATIONS,
    JoinOrderDecision,
    JoinOrderResult,
    search_join_order,
)
from .plan_cache import PlanCache, PlanCacheEntry, canonical_tuple, fingerprint
from .planner import Desired, Planner, PlanInfo
from .properties import (
    EMPTY_PROPERTY,
    EMPTY_SPEC,
    OrderSpec,
    PhysicalProperty,
    column_equivalent,
    exchange_kind,
    groupable,
    reduce_keys,
    satisfies,
)
from .reduce_order import (
    minimal_groupby,
    ordering_satisfies,
    ordering_satisfies_fd,
    reduce_order_exact,
    reduce_order_fd,
    reduce_order_od,
    stream_groupable,
)
from .rewrites import RewriteRecord, apply_date_rewrite, push_filters

__all__ = [
    "Planner",
    "PlanInfo",
    "Desired",
    "OrderSpec",
    "PhysicalProperty",
    "EMPTY_SPEC",
    "EMPTY_PROPERTY",
    "satisfies",
    "groupable",
    "reduce_keys",
    "column_equivalent",
    "exchange_kind",
    "reduce_order_fd",
    "reduce_order_od",
    "reduce_order_exact",
    "ordering_satisfies",
    "ordering_satisfies_fd",
    "stream_groupable",
    "minimal_groupby",
    "apply_date_rewrite",
    "push_filters",
    "RewriteRecord",
    "build_theory",
    "clear_theory_cache",
    "qualify_statement",
    "PlanCache",
    "PlanCacheEntry",
    "canonical_tuple",
    "fingerprint",
    "estimate_plan",
    "PlanEstimate",
    "BaseRelation",
    "JoinEdge",
    "JoinGraph",
    "extract_join_graph",
    "DP_MAX_RELATIONS",
    "JoinOrderDecision",
    "JoinOrderResult",
    "search_join_order",
]
