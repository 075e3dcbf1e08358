"""Cost-based join ordering with OD-aware interesting orders.

Classic System-R join ordering enumerates join orders bottom-up, keeping
per relation-subset not just the cheapest subplan but one per
*interesting order* — an order some downstream consumer (a merge join, a
stream aggregate, the final ORDER BY) could exploit.  The paper's OD
oracle generalizes when an order is interesting: a subplan's provided
:class:`~repro.optimizer.properties.OrderSpec` counts for an interesting
order whenever the constraint theory *implies* the prefix the consumer
needs, not only when the columns match positionally.  Two provided
orders the theory proves interchangeable therefore satisfy the same
interesting orders, land in the same frontier class, and merge (the
cheaper survives) — OD-implied orders are covered without being
enumerated separately, the [Ngo et al., PAPERS.md] FD-pruning idea lifted
to ODs.

The search itself:

* **DPsize** (:func:`_dp_search`) for blocks of at most
  :data:`DP_MAX_RELATIONS` relations: enumerate connected subsets by
  increasing size, combining every connected disjoint split, both
  probe/build directions, with a merge join whenever both sides' declared
  orders provably satisfy their join keys.
* **Greedy** (:func:`_greedy_search`) above that: repeatedly merge the
  pair of connected components whose best join is cheapest (GOO-style),
  carrying the same Pareto frontiers.

The leaves are the planner's access paths
(:meth:`~repro.optimizer.planner.Planner.access_paths`): the sequential
scan and one index scan per index, each under its relation's pushed-down
filter — the list the single-relation planner picks one path from, so
the search and the syntactic plan read base tables the same way.

Each frontier entry is a real physical subplan costed by
:func:`~repro.optimizer.costing.estimate_plan` (NDV-based equi-join
cardinalities under the containment assumption).  Entries are pruned by
dominance: an entry dies when another satisfies at least the same
interesting orders at no greater cost.  Final selection adds *completion
penalties* — a sort the consumer would need if the entry's order does not
satisfy the desired one, a hash pass if its order cannot stream-group the
desired partition — so an order-providing plan wins exactly when the sort
it saves is worth more than the cost difference.

The planner (:meth:`repro.optimizer.planner.Planner._plan_join`) runs
this search for ``join_order="cost"`` (the default) and falls back to
the parse order when extraction fails or the search finds nothing
cheaper; EXPLAIN reports the chosen order, its estimate, and the
syntactic estimate it beat.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..engine.cost import Cost, hash_cost, sort_cost
from ..engine.expr import Col
from ..engine.logical import LogicalJoin
from ..engine.operators import MergeJoin, Operator, Project
from ..engine.stats import estimate_equijoin
from .costing import PlanEstimate, estimate_plan, join_key_stats
from .joingraph import BaseRelation, JoinEdge, JoinGraph, extract_join_graph
from .properties import PhysicalProperty

__all__ = [
    "DP_MAX_RELATIONS",
    "JoinOrderDecision",
    "JoinOrderResult",
    "search_join_order",
]

#: Largest join block the exact DP enumerates; bigger blocks go greedy.
DP_MAX_RELATIONS = 8

#: Defensive cap on frontier width per subset (dominance pruning usually
#: keeps far fewer; the cap bounds the worst case on dense graphs).
MAX_FRONTIER = 6

#: Relative completed-cost improvement the search must find before it
#: replaces the parse order.  Estimates are heuristics: a noise-level win
#: (swapping two six-row dimensions) is not worth the plan churn, and
#: ties must never flip on tie-break order.
MIN_IMPROVEMENT = 1e-3


@dataclass(frozen=True)
class _Interest:
    """One interesting order: a consumer could exploit these columns
    either as a sort prefix (``"order"``) or as contiguous groups
    (``"partition"``)."""

    kind: str  # "order" | "partition"
    columns: Tuple[str, ...]


@dataclass
class _Entry:
    """One Pareto-frontier member: a physical subplan over ``aliases``."""

    op: Operator
    statements: list
    prop: PhysicalProperty
    estimate: PlanEstimate
    aliases: FrozenSet[str]
    label: str
    satisfied: FrozenSet[_Interest]

    @property
    def cost(self) -> float:
        return self.estimate.cost.total


@dataclass(frozen=True)
class JoinOrderDecision:
    """The EXPLAIN record of one join-ordering decision.

    Costs are *completed* costs — subtree estimate plus the downstream
    sort/grouping the consumer would still pay — because that is the
    number the selection actually compared; raw subtree costs could show
    the chosen order "losing" a comparison it won on sort avoidance.
    """

    algorithm: str  # "dp" | "greedy"
    relations: int
    chosen: str
    chosen_rows: float
    chosen_cost: float
    syntactic: str
    syntactic_cost: float
    #: ``(relation subset, order)`` classes put to the oracle / candidates
    #: that took a class's answer: search effort, not part of the decision.
    satisfied_evaluated: int = field(default=0, compare=False)
    satisfied_reused: int = field(default=0, compare=False)

    def describe(self) -> str:
        report = (
            f"cost-based ({self.algorithm} over {self.relations} relations) "
            f"chose {self.chosen} — est ≈{self.chosen_rows:,.0f} rows, "
            f"completed cost {self.chosen_cost:.1f}"
        )
        if self.chosen == self.syntactic:
            report += " (the syntactic order)"
        else:
            report += (
                f"; syntactic {self.syntactic} "
                f"completed cost {self.syntactic_cost:.1f}"
            )
        return (
            f"{report}; satisfied orders: {self.satisfied_evaluated} "
            f"evaluated, {self.satisfied_reused} reused"
        )


@dataclass
class JoinOrderResult:
    """What the planner threads back into its tree: the planned subtree
    plus the decision record for EXPLAIN."""

    planned: object  # planner._Planned
    record: JoinOrderDecision


# ----------------------------------------------------------------------
# Interesting orders and satisfaction classes
# ----------------------------------------------------------------------
def _interesting_orders(planner, graph: JoinGraph, desired) -> Tuple[_Interest, ...]:
    """The query's interesting orders: the consumer's desired order and
    grouping (leading the tuple), plus every join-key column (a merge
    join's appetite)."""
    interests = []
    if desired.order:
        interests.append(_Interest("order", planner._try_qualify(desired.order)))
    if desired.partition:
        interests.append(
            _Interest("partition", planner._try_qualify(desired.partition))
        )
    for edge in graph.edges:
        interests.append(_Interest("order", (edge.left_column,)))
        interests.append(_Interest("order", (edge.right_column,)))
    # Deterministic, duplicate-free ordering (dict preserves insertion).
    return tuple(dict.fromkeys(interests))


def _satisfied(planner, op, statements, prop, interests) -> FrozenSet[_Interest]:
    """Which interesting orders this subplan's declared property covers.

    Satisfaction goes through the planner's mode-dispatched oracle layer,
    so in ``od`` mode an OD-implied order counts — this is where
    order-equivalent frontier entries collapse into one class.
    """
    out = []
    for interest in interests:
        try:
            resolved = tuple(op.schema.resolve(c) for c in interest.columns)
        except (KeyError, ValueError):
            continue  # not this subplan's columns
        if interest.kind == "order":
            ok = planner._order_ok(statements, prop.order, resolved)
        else:
            ok = planner._partition_ok(statements, prop.order, resolved)
        if ok:
            out.append(interest)
    return frozenset(out)


class _Interests:
    """One search's interesting orders, and :func:`_satisfied` asked once
    per ``(alias subset, provided order)``: every join tree over a subset
    carries the same statements (its leaves' plus one equivalence per join
    edge inside it — each crosses exactly one split) and ``M ⊨ X ↦ Y``
    reads ``M`` as a set, so such candidates agree on the answer."""

    def __init__(self, planner, orders: Tuple[_Interest, ...]) -> None:
        self.planner = planner
        self.orders = orders
        self.evaluated = 0
        self.reused = 0
        self._memo: Dict[tuple, FrozenSet[_Interest]] = {}

    def satisfied(self, aliases, op, statements, prop) -> FrozenSet[_Interest]:
        key = (aliases, prop.order)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = _satisfied(
                self.planner, op, statements, prop, self.orders
            )
            self.evaluated += 1
        else:
            self.reused += 1
        return found


def _prune(entries: List[_Entry]) -> List[_Entry]:
    """Dominance pruning: drop entries another entry beats on both cost
    and satisfied interesting orders; cap the frontier width."""
    entries.sort(key=lambda entry: (entry.cost, entry.label))
    kept: List[_Entry] = []
    for entry in entries:
        if any(
            keeper.satisfied >= entry.satisfied and keeper.cost <= entry.cost
            for keeper in kept
        ):
            continue
        kept.append(entry)
    return kept[:MAX_FRONTIER]


# ----------------------------------------------------------------------
# Leaf access paths
# ----------------------------------------------------------------------
def _leaf_candidates(
    planner, relation: BaseRelation, interests: _Interests
) -> List[_Entry]:
    """One frontier entry per access path of a base relation
    (:meth:`~repro.optimizer.planner.Planner.access_paths`): the
    sequential scan and every index, the unbounded ones kept for their
    order class."""
    statements, paths = planner.access_paths(
        relation.alias, relation.table, relation.predicate
    )
    entries: List[_Entry] = []
    aliases = frozenset({relation.alias})
    for path in paths:
        op = planner.scan_operator(
            relation.alias, relation.table, relation.predicate, path
        )
        prop = PhysicalProperty(op.provides())
        entries.append(
            _Entry(
                op=op,
                statements=list(statements),
                prop=prop,
                estimate=estimate_plan(planner.database, op),
                aliases=aliases,
                label=relation.alias,
                satisfied=interests.satisfied(aliases, op, statements, prop),
            )
        )
    return _prune(entries)


# ----------------------------------------------------------------------
# Joining two frontier entries
# ----------------------------------------------------------------------
def _join_estimate(
    database, op: Operator, probe_est: PlanEstimate, build_est: PlanEstimate
) -> PlanEstimate:
    """Incremental join estimate: the children's estimates already live
    on the frontier entries, so only the join's own arm is computed —
    the same FD/OD-aware cardinality model and extra cost as
    ``estimate_plan``'s join case (which re-estimation of every
    candidate's whole subtree would duplicate at super-linear search
    cost), via the shared ``join_key_stats`` profile lookup."""
    rows = estimate_equijoin(
        probe_est.rows, build_est.rows, join_key_stats(database, op)
    )
    if isinstance(op, MergeJoin):
        extra = Cost(cpu=0.2 * (probe_est.rows + build_est.rows))
    else:  # HashJoin: the build side is the right input
        extra = hash_cost(build_est.rows, probe_est.rows)
    return PlanEstimate(rows, probe_est.cost + build_est.cost + extra)


def _join_entries(
    planner,
    probe: _Entry,
    build: _Entry,
    cross_edges: Sequence[JoinEdge],
    interests: _Interests,
) -> _Entry:
    """Join two subplans with ``probe`` as the (order-preserving) left
    input, through the planner's shared join construction — the same
    merge-readiness gate and statement threading the syntactic path
    uses, so the two orderings can never diverge physically."""
    from .planner import _Planned  # deferred: planner loads first

    probe_keys: List[str] = []
    build_keys: List[str] = []
    for edge in cross_edges:
        if edge.left_alias in probe.aliases:
            probe_keys.append(edge.left_column)
            build_keys.append(edge.right_column)
        else:
            probe_keys.append(edge.right_column)
            build_keys.append(edge.left_column)
    planned = planner.join_planned(
        _Planned(probe.op, probe.statements, probe.prop),
        _Planned(build.op, build.statements, build.prop),
        probe_keys,
        build_keys,
    )
    aliases = probe.aliases | build.aliases
    return _Entry(
        op=planned.op,
        statements=planned.statements,
        prop=planned.prop,
        estimate=_join_estimate(
            planner.database, planned.op, probe.estimate, build.estimate
        ),
        aliases=aliases,
        label=f"({probe.label} ⋈ {build.label})",
        satisfied=interests.satisfied(
            aliases, planned.op, planned.statements, planned.prop
        ),
    )


def _combine(
    planner,
    frontier_a: List[_Entry],
    frontier_b: List[_Entry],
    cross_edges: Sequence[JoinEdge],
    interests: _Interests,
) -> List[_Entry]:
    """Every join of an entry from each frontier, in both directions."""
    out: List[_Entry] = []
    for entry_a in frontier_a:
        for entry_b in frontier_b:
            out.append(
                _join_entries(planner, entry_a, entry_b, cross_edges, interests)
            )
            out.append(
                _join_entries(planner, entry_b, entry_a, cross_edges, interests)
            )
    return out


# ----------------------------------------------------------------------
# Enumeration: exact DP (small blocks) and greedy (large blocks)
# ----------------------------------------------------------------------
def _dp_search(
    planner, graph: JoinGraph, interests: _Interests
) -> Optional[List[_Entry]]:
    """DPsize over connected subsets, Pareto frontier per subset."""
    frontiers: Dict[FrozenSet[str], List[_Entry]] = {}
    subsets_by_size: Dict[int, List[FrozenSet[str]]] = {1: []}
    for relation in graph.relations:
        subset = frozenset({relation.alias})
        frontiers[subset] = _leaf_candidates(planner, relation, interests)
        subsets_by_size[1].append(subset)

    total = len(graph.relations)
    for size in range(2, total + 1):
        grown: Dict[FrozenSet[str], List[_Entry]] = {}
        for small in range(1, size // 2 + 1):
            large = size - small
            for subset_a in subsets_by_size.get(small, ()):
                for subset_b in subsets_by_size.get(large, ()):
                    if subset_a & subset_b:
                        continue
                    if small == large and sorted(subset_a) >= sorted(subset_b):
                        continue  # unordered pair: visit each split once
                    cross = graph.edges_between(subset_a, subset_b)
                    if not cross:
                        continue  # never introduce a cross product
                    grown.setdefault(subset_a | subset_b, []).extend(
                        _combine(
                            planner,
                            frontiers[subset_a],
                            frontiers[subset_b],
                            cross,
                            interests,
                        )
                    )
        subsets_by_size[size] = []
        for subset, entries in grown.items():
            frontiers[subset] = _prune(entries)
            subsets_by_size[size].append(subset)
    return frontiers.get(graph.aliases())


def _greedy_search(
    planner, graph: JoinGraph, interests: _Interests
) -> Optional[List[_Entry]]:
    """GOO-style greedy: repeatedly merge the connected component pair
    whose cheapest join is globally cheapest, keeping frontiers."""
    components: Dict[FrozenSet[str], List[_Entry]] = {}
    for relation in graph.relations:
        components[frozenset({relation.alias})] = _leaf_candidates(
            planner, relation, interests
        )
    while len(components) > 1:
        best: Optional[Tuple[float, FrozenSet[str], FrozenSet[str], List[_Entry]]]
        best = None
        for subset_a, subset_b in combinations(list(components), 2):
            cross = graph.edges_between(subset_a, subset_b)
            if not cross:
                continue
            merged = _prune(
                _combine(
                    planner,
                    components[subset_a],
                    components[subset_b],
                    cross,
                    interests,
                )
            )
            cheapest = merged[0].cost
            if best is None or cheapest < best[0]:
                best = (cheapest, subset_a, subset_b, merged)
        if best is None:
            return None  # disconnected (extraction should have caught it)
        _, subset_a, subset_b, merged = best
        del components[subset_a]
        del components[subset_b]
        components[subset_a | subset_b] = merged
    return next(iter(components.values()))


# ----------------------------------------------------------------------
# Final selection
# ----------------------------------------------------------------------
def _completed_cost(planner, op, statements, prop, estimate, want) -> float:
    """Entry cost plus what the consumer (``want``: its desired order,
    else its desired grouping, else None) still has to pay: a sort if the
    order is not provided, a hash pass if the grouping cannot stream."""
    total = estimate.cost.total
    if want is None:
        return total
    try:
        resolved = tuple(op.schema.resolve(c) for c in want.columns)
    except (KeyError, ValueError):
        return total
    if want.kind == "order":
        if not planner._order_ok(statements, prop.order, resolved):
            total += sort_cost(estimate.rows).total
    elif not planner._partition_ok(statements, prop.order, resolved):
        total += hash_cost(estimate.rows, 0).total
    return total


def _syntactic_schema(planner, graph: JoinGraph) -> Tuple[str, ...]:
    """The column order the parse-order join tree would produce."""
    names: List[str] = []
    for relation in graph.relations:
        table = planner.database.table(relation.table)
        names.extend(f"{relation.alias}.{column.name}" for column in table.schema)
    return tuple(names)


def search_join_order(planner, node: LogicalJoin, desired) -> Optional[JoinOrderResult]:
    """Run the search over one join block; ``None`` keeps the parse order.

    For ``SELECT *`` queries — the one consumer that reads the join
    block's columns positionally — a pass-through projection restores
    the syntactic column arrangement above a reordered join; named
    consumers (explicit projections, filters, sorts, aggregates) resolve
    by name and need no compensation.
    """
    from .planner import _Planned  # deferred: planner loads first

    graph = extract_join_graph(node, planner.resolver)
    if graph is None:
        return None
    interests = _Interests(planner, _interesting_orders(planner, graph, desired))
    # What the consumer wants leads the tuple: its order, else its grouping.
    want = interests.orders[0] if desired.order or desired.partition else None
    if len(graph.relations) <= DP_MAX_RELATIONS:
        algorithm = "dp"
        frontier = _dp_search(planner, graph, interests)
    else:
        algorithm = "greedy"
        frontier = _greedy_search(planner, graph, interests)
    if not frontier:
        return None

    scored = [
        (_completed_cost(planner, e.op, e.statements, e.prop, e.estimate, want), e)
        for e in frontier
    ]
    best_completed, best = min(scored, key=lambda pair: (pair[0], pair[1].label))

    syntactic = planner._plan_join_syntactic(node, desired)
    syntactic_estimate = estimate_plan(planner.database, syntactic.op)
    syntactic_completed = _completed_cost(
        planner,
        syntactic.op,
        syntactic.statements,
        syntactic.prop,
        syntactic_estimate,
        want,
    )
    syntactic_label = graph.syntactic_label()

    if best_completed < syntactic_completed * (1.0 - MIN_IMPROVEMENT):
        op = best.op
        estimate = best.estimate
        expected = _syntactic_schema(planner, graph)
        if (
            getattr(planner, "star_projection", False)
            and tuple(op.schema.names) != expected
        ):
            # SELECT * passes the join schema through positionally, so a
            # reordered join must restore the syntactic column
            # arrangement; every other consumer resolves by name and
            # skips this (identity renames: order property flows through).
            op = Project(op, [Col(name) for name in expected], expected)
            estimate = estimate_plan(planner.database, op)
        planned = _Planned(op, best.statements, best.prop)
        chosen_label, chosen_completed = best.label, best_completed
    else:
        planned = syntactic
        estimate = syntactic_estimate
        chosen_label, chosen_completed = syntactic_label, syntactic_completed

    record = JoinOrderDecision(
        algorithm=algorithm,
        relations=len(graph.relations),
        chosen=chosen_label,
        chosen_rows=estimate.rows,
        chosen_cost=chosen_completed,
        syntactic=syntactic_label,
        syntactic_cost=syntactic_completed,
        satisfied_evaluated=interests.evaluated,
        satisfied_reused=interests.reused,
    )
    return JoinOrderResult(planned=planned, record=record)
