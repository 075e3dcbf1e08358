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

Each frontier entry is a *description* of a subplan, not operators: a
leaf is an access path's built scan, estimated by
:func:`~repro.optimizer.costing.estimate_plan`; a join is its two input
entries, their keys and its kind (merge or hash), priced incrementally
from its inputs' estimates and the join-key statistics
(:func:`~repro.optimizer.costing.join_key_stats`, NDV-based equi-join
cardinalities under the containment assumption).  After selection the
one chosen entry is built, through the planner's only join constructor
(:meth:`~repro.optimizer.planner.Planner.join_planned`); no other
candidate ever becomes operators.  Each entry also carries the answers
the search needs about it, each asked once (:class:`_Interests`; the
interesting orders are fixed up front and every check on an entry is a
set lookup — the framework of Simmen, Shekita and Malkemus, SIGMOD
1996): the interned theory its relation subset shares, the interesting
orders it satisfies — a joined entry inherits its probe's and asks only
the rest — and, per join-key tuple, whether its order is merge-ready,
which decides its join kind and is handed to ``join_planned`` when it is
built.  Column names are resolved once per relation subset, and a
join-key pair's statistics once per search.  Entries are pruned by
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
from ..engine.operators import Operator, Project
from ..engine.schema import resolve_name
from ..engine.stats import estimate_equijoin
from .context import join_equivalence
from .costing import PlanEstimate, estimate_plan, join_key_stats
from .joingraph import BaseRelation, JoinEdge, JoinGraph, extract_join_graph
from .properties import PhysicalProperty, groupable, satisfies

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
    """One Pareto-frontier member: a *description* of a subplan over
    ``aliases``, priced but not built.

    A leaf holds its built access-path scan (``scan``).  A join holds its
    inputs and how they meet — ``probe`` (the order-preserving left
    input), ``build``, their keys and ``merge`` (merge join, else hash
    join) — and becomes operators only if it wins (:func:`_build`).  Both
    hold their provided order (a join keeps its probe's), their estimate
    and what the search asked about them, each asked once: the interned
    theory of their statements (one per alias subset), the interesting
    orders they satisfy, and per join-key tuple whether their order is
    merge-ready (``ready``).
    """

    aliases: FrozenSet[str]
    label: str
    prop: PhysicalProperty
    estimate: PlanEstimate
    scan: Optional[Operator] = None
    probe: Optional["_Entry"] = None
    build: Optional["_Entry"] = None
    probe_keys: Tuple[str, ...] = ()
    build_keys: Tuple[str, ...] = ()
    merge: bool = False
    theory: object = None  # the interned ODTheory of ``statements``
    satisfied: FrozenSet[_Interest] = frozenset()
    ready: Dict[Tuple[str, ...], bool] = field(default_factory=dict)
    _statements: Optional[list] = field(default=None, repr=False)

    @property
    def cost(self) -> float:
        return self.estimate.cost.total

    @property
    def statements(self) -> list:
        """The statement list :meth:`~repro.optimizer.planner.Planner.
        join_planned` would thread through this subplan: a join's inputs'
        statements plus one equivalence per key pair.  Made when read —
        for a subset's first entry (its theory) and for the winner."""
        if self._statements is None:
            self._statements = self.probe.statements + self.build.statements
            self._statements += map(join_equivalence, self.probe_keys, self.build_keys)
        return self._statements


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
    #: Where each candidate's answer about each interesting order it can
    #: name came from: put to the oracle, inherited from its probe input,
    #: or reused from a candidate of the same ``(relation subset, order)``
    #: class.  Search effort, not part of the decision.
    satisfied_asked: int = field(default=0, compare=False)
    satisfied_inherited: int = field(default=0, compare=False)
    satisfied_reused: int = field(default=0, compare=False)
    #: Join candidates the search priced, and join operators it built —
    #: only the chosen tree's, none when the syntactic order is kept.
    priced: int = field(default=0, compare=False)
    built: int = field(default=0, compare=False)

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
            f"{report}; join candidates: {self.priced} priced, "
            f"{self.built} built; satisfied orders: {self.satisfied_asked} asked, "
            f"{self.satisfied_inherited} inherited from the probe, "
            f"{self.satisfied_reused} reused"
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


class _Interests:
    """One search's interesting orders, and every answer about them asked
    once.

    * **Per class.**  Every join tree over one alias subset carries the
      same statement *set* — its leaves' statements plus one equivalence
      per join edge inside it, in one orientation
      (:func:`~repro.optimizer.context.join_equivalence`) — and so shares
      one interned theory (:meth:`theory`).  ``M ⊨ X ↦ Y`` reads ``M`` as a
      set, so candidates with the same ``(alias subset, provided order)``
      agree on every answer: the first one asks, the rest reuse.
    * **Per join.**  A joined candidate's statements are a superset of its
      probe's and its order is the probe's, so an answer that is one
      implication stays true: it is inherited, and only the rest are
      asked.  Grouping answers are implications in both modes and order
      answers in ``od`` mode; ``fd`` mode's order test FD-reduces the
      requirement and then matches a prefix, which more statements can
      break, so there order answers are asked again.
    * **Per join input.**  Merge-readiness, ``order ↦ join keys``, is
      answered once per ``(entry, keys)`` (:meth:`ready`); a single key is
      one of the interesting orders, whose answer the entry holds.
    * **Per subset and per search.**  The interesting orders' columns are
      resolved once per alias subset (:meth:`named`) against the subset's
      leaf schemas, by :meth:`~repro.engine.schema.Schema.resolve`'s rule;
      a join-key pair's column statistics once per search
      (:meth:`key_stats`): inside one join block a key always names its
      alias's base column, which the alias's leaf scan reads.

    ``asked`` + ``inherited`` + ``reused`` counts every candidate's
    answer about every interesting order its columns can name — what
    asking each candidate directly would put to the oracle.  ``priced``
    counts join candidates, ``built`` the join operators :func:`_build`
    made for the winner.
    """

    def __init__(self, planner, orders: Tuple[_Interest, ...]) -> None:
        self.planner = planner
        self.orders = orders
        self.asked = 0
        self.inherited = 0
        self.reused = 0
        self.priced = 0
        self.built = 0
        #: (alias subset, provided order) -> (satisfied, answers it holds)
        self._memo: Dict[tuple, Tuple[FrozenSet[_Interest], int]] = {}
        self._theories: Dict[FrozenSet[str], object] = {}
        #: The answers a join keeps (see above).
        self._kept = frozenset(
            interest
            for interest in orders
            if interest.kind == "partition" or planner.mode == "od"
        )
        #: alias -> its leaf scans, one per access path.
        self.scans: Dict[str, List[Operator]] = {}
        self._named: Dict[FrozenSet[str], Tuple[tuple, ...]] = {}
        self._pair_stats: Dict[Tuple[str, str], object] = {}

    def theory(self, entry: _Entry) -> object:
        """The interned theory every join tree over ``entry.aliases``
        shares; only the subset's first entry reads its statements."""
        theory = self._theories.get(entry.aliases)
        if theory is None:
            theory = self.planner._theory(entry.statements)
            self._theories[entry.aliases] = theory
        return theory

    def named(self, aliases: FrozenSet[str]) -> Tuple[tuple, ...]:
        """``(interest, its resolved columns)`` for each interesting order
        a subplan over ``aliases`` can name, in order."""
        found = self._named.get(aliases)
        if found is None:
            names = {
                name: None
                for alias in aliases
                for scan in self.scans[alias]
                for name in scan.schema.names
            }
            out = []
            for interest in self.orders:
                try:
                    resolved = tuple(resolve_name(names, c) for c in interest.columns)
                except (KeyError, ValueError):
                    continue  # not this subplan's columns
                out.append((interest, resolved))
            found = self._named[aliases] = tuple(out)
        return found

    def key_stats(self, probe_keys: Tuple[str, ...], build_keys: Tuple[str, ...]) -> list:
        """The :class:`~repro.engine.stats.JoinKeyStats` of joining on
        these keys, each read through a leaf scan of its alias (every
        access path reads the same table)."""

        def owner(key: str) -> Operator:
            return self.scans[key.split(".", 1)[0]][0]

        return join_key_stats(
            self.planner.database,
            [
                (owner(left), left, owner(right), right)
                for left, right in zip(probe_keys, build_keys)
            ],
            self._pair_stats,
        )

    def satisfied(self, entry: _Entry, probe: Optional[_Entry] = None):
        """The interesting orders ``entry`` satisfies; ``probe`` is the
        order-preserving input of a joined entry."""
        key = (entry.aliases, entry.prop.order)
        found = self._memo.get(key)
        if found is None:
            inherit = probe.satisfied & self._kept if probe is not None else frozenset()
            found = self._memo[key] = self.ask(entry, inherit)
        else:
            self.reused += found[1]
        return found[0]

    def ask(self, entry: _Entry, inherit) -> Tuple[FrozenSet[_Interest], int]:
        """Answer every interesting order ``entry``'s columns can name,
        taking the ones in ``inherit`` as given; also returns how many
        answers that was.

        Satisfaction goes through the planner's mode-dispatched oracle
        layer on the entry's theory, so in ``od`` mode an OD-implied order
        counts — this is where order-equivalent frontier entries collapse
        into one class.
        """
        mode = self.planner.mode
        order = entry.prop.order
        out = []
        named = self.named(entry.aliases)
        for interest, resolved in named:
            if interest in inherit:
                self.inherited += 1
                out.append(interest)
                continue
            self.asked += 1
            if interest.kind == "order":
                ok = satisfies(entry.theory, order, resolved, mode)
            else:
                ok = groupable(entry.theory, order, resolved, mode)
            if ok:
                out.append(interest)
        return frozenset(out), len(named)

    def ready(self, entry: _Entry, keys: Tuple[str, ...]) -> bool:
        """Does ``entry``'s order satisfy its side's join ``keys``?"""
        found = entry.ready.get(keys)
        if found is None:
            single = _Interest("order", keys)
            if len(keys) == 1 and single in self.orders:
                # Edge columns are qualified as the scans name them, so
                # the interest was asked about exactly these columns.
                found = single in entry.satisfied
            else:
                found = satisfies(entry.theory, entry.prop.order, keys, self.planner.mode)
            entry.ready[keys] = found
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
    order class.  Leaves are built and estimated whole: the search reads
    their schemas and the joins above read their statistics."""
    statements, paths = planner.access_paths(
        relation.alias, relation.table, relation.predicate
    )
    alias = relation.alias
    aliases = frozenset({alias})
    scans = [
        planner.scan_operator(alias, relation.table, relation.predicate, path)
        for path in paths
    ]
    interests.scans[alias] = scans
    entries: List[_Entry] = []
    for scan in scans:
        entry = _Entry(
            aliases=aliases,
            label=alias,
            prop=PhysicalProperty(scan.provides()),
            estimate=estimate_plan(planner.database, scan),
            scan=scan,
            _statements=list(statements),
        )
        entry.theory = interests.theory(entry)
        entry.satisfied = interests.satisfied(entry)
        entries.append(entry)
    return _prune(entries)


# ----------------------------------------------------------------------
# Pricing a join of two frontier entries
# ----------------------------------------------------------------------
def _join_estimate(
    merge: bool, probe_est: PlanEstimate, build_est: PlanEstimate, key_stats: list
) -> PlanEstimate:
    """Incremental join estimate: the children's estimates already live
    on the frontier entries, so only the join's own arm is computed —
    the same FD/OD-aware cardinality model and extra cost as
    ``estimate_plan``'s join case (which re-estimation of every
    candidate's whole subtree would duplicate at super-linear search
    cost), over the same ``join_key_stats`` profiles."""
    rows = estimate_equijoin(probe_est.rows, build_est.rows, key_stats)
    if merge:
        extra = Cost(cpu=0.2 * (probe_est.rows + build_est.rows))
    else:  # HashJoin: the build side is the right input
        extra = hash_cost(build_est.rows, probe_est.rows)
    return PlanEstimate(rows, probe_est.cost + build_est.cost + extra)


def _join_entries(
    probe: _Entry,
    build: _Entry,
    probe_keys: Tuple[str, ...],
    build_keys: Tuple[str, ...],
    key_stats: list,
    aliases: FrozenSet[str],
    interests: _Interests,
) -> _Entry:
    """Price joining two subplans with ``probe`` as the (order-preserving)
    left input, as a description: a merge join when both entries' held
    answers say their orders are merge-ready, the probe's order, and the
    incremental estimate.  Nothing is built here; :func:`_build` makes
    the winner through the planner's shared join construction, so the
    two orderings can never diverge physically."""
    merge = interests.ready(probe, probe_keys) and interests.ready(build, build_keys)
    entry = _Entry(
        aliases=aliases,
        label=f"({probe.label} ⋈ {build.label})",
        prop=probe.prop,
        estimate=_join_estimate(merge, probe.estimate, build.estimate, key_stats),
        probe=probe,
        build=build,
        probe_keys=probe_keys,
        build_keys=build_keys,
        merge=merge,
    )
    entry.theory = interests.theory(entry)
    entry.satisfied = interests.satisfied(entry, probe)
    interests.priced += 1
    return entry


def _combine(
    frontier_a: List[_Entry],
    frontier_b: List[_Entry],
    cross_edges: Sequence[JoinEdge],
    interests: _Interests,
) -> List[_Entry]:
    """Every join of an entry from each frontier, in both directions."""
    aliases_a = frontier_a[0].aliases
    aliases = aliases_a | frontier_b[0].aliases
    keys_a: List[str] = []
    keys_b: List[str] = []
    for edge in cross_edges:
        if edge.left_alias in aliases_a:
            keys_a.append(edge.left_column)
            keys_b.append(edge.right_column)
        else:
            keys_a.append(edge.right_column)
            keys_b.append(edge.left_column)
    a, b = tuple(keys_a), tuple(keys_b)
    stats_ab, stats_ba = interests.key_stats(a, b), interests.key_stats(b, a)
    out: List[_Entry] = []
    for entry_a in frontier_a:
        for entry_b in frontier_b:
            out.append(
                _join_entries(entry_a, entry_b, a, b, stats_ab, aliases, interests)
            )
            out.append(
                _join_entries(entry_b, entry_a, b, a, stats_ba, aliases, interests)
            )
    return out


def _build(planner, entry: _Entry, interests: _Interests):
    """Materialise a chosen description: its leaves' scans, joined through
    :meth:`~repro.optimizer.planner.Planner.join_planned` with the
    merge-readiness the entry holds."""
    from .planner import _Planned  # deferred: planner loads first

    if entry.scan is not None:
        return _Planned(entry.scan, entry.statements, entry.prop)
    planned = planner.join_planned(
        _build(planner, entry.probe, interests),
        _build(planner, entry.build, interests),
        entry.probe_keys,
        entry.build_keys,
        ready=entry.merge,
    )
    interests.built += 1
    return planned


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
def _completed_cost(estimate: PlanEstimate, want, ok: Optional[bool]) -> float:
    """Subplan cost plus what the consumer (``want``: its desired order,
    else its desired grouping, else None) still has to pay: a sort if the
    order is not provided, a hash pass if the grouping cannot stream.
    ``ok`` says whether the subplan gives ``want`` (``None``: it cannot
    name ``want``'s columns, and nothing is charged)."""
    total = estimate.cost.total
    if want is None or ok is None or ok:
        return total
    if want.kind == "order":
        return total + sort_cost(estimate.rows).total
    return total + hash_cost(estimate.rows, 0).total


def _gives(planner, planned, want) -> Optional[bool]:
    """Does a built subplan give ``want``?  The planner's direct question,
    for the syntactic baseline (frontier entries hold their answers)."""
    if want is None:
        return None
    try:
        resolved = tuple(planned.op.schema.resolve(c) for c in want.columns)
    except (KeyError, ValueError):
        return None
    if want.kind == "order":
        return planner._order_ok(planned.statements, planned.prop.order, resolved)
    return planner._partition_ok(planned.statements, planned.prop.order, resolved)


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

    # Every final entry spans the whole block, so names ``want`` alike.
    named = any(interest == want for interest, _ in interests.named(graph.aliases()))
    scored = [
        (_completed_cost(e.estimate, want, want in e.satisfied if named else None), e)
        for e in frontier
    ]
    best_completed, best = min(scored, key=lambda pair: (pair[0], pair[1].label))

    syntactic = planner._plan_join_syntactic(node, desired)
    syntactic_estimate = estimate_plan(planner.database, syntactic.op)
    syntactic_completed = _completed_cost(
        syntactic_estimate, want, _gives(planner, syntactic, want)
    )
    syntactic_label = graph.syntactic_label()

    if best_completed < syntactic_completed * (1.0 - MIN_IMPROVEMENT):
        planned = _build(planner, best, interests)
        estimate = best.estimate
        expected = _syntactic_schema(planner, graph)
        if (
            getattr(planner, "star_projection", False)
            and tuple(planned.op.schema.names) != expected
        ):
            # SELECT * passes the join schema through positionally, so a
            # reordered join must restore the syntactic column
            # arrangement; every other consumer resolves by name and
            # skips this (identity renames: order property flows through).
            planned.op = Project(planned.op, [Col(name) for name in expected], expected)
            estimate = estimate_plan(planner.database, planned.op)
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
        satisfied_asked=interests.asked,
        satisfied_inherited=interests.inherited,
        satisfied_reused=interests.reused,
        priced=interests.priced,
        built=interests.built,
    )
    return JoinOrderResult(planned=planned, record=record)
