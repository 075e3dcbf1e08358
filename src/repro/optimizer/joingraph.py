"""Join-graph extraction: the input to cost-based join ordering.

A bound, pushed-down logical join block is a tree of
:class:`~repro.engine.logical.LogicalJoin` nodes whose leaves are base
scans (optionally under a pushed-down single-alias filter).  This module
flattens that tree into the form a join-ordering search consumes:

* :class:`BaseRelation` — one per scan leaf: alias, table, and the local
  predicate :func:`~repro.optimizer.rewrites.push_filters` parked on it;
* :class:`JoinEdge` — one per equi-join conjunct, with both columns
  fully qualified and attributed to their owning aliases.

Extraction is deliberately conservative: any shape the search could not
reassemble faithfully — a non-scan leaf, an unresolvable or same-alias
join column, a repeated alias, a disconnected graph — yields ``None``
and the planner keeps the syntactic order.  The binder only produces
left-deep equi-join blocks today, so in practice every multi-join query
extracts; the guards are for future rewrites that may not.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from ..engine.expr import Expr
from ..engine.logical import LogicalJoin, LogicalNode
from .rewrites import _leaf_scan

__all__ = ["BaseRelation", "JoinEdge", "JoinGraph", "extract_join_graph"]


@dataclass(frozen=True)
class BaseRelation:
    """One scan leaf of a join block."""

    alias: str
    table: str
    #: The pushed-down local predicate (``None`` when unfiltered).
    predicate: Optional[Expr]


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join conjunct, columns qualified and owner-attributed."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def connects(self, group_a: FrozenSet[str], group_b: FrozenSet[str]) -> bool:
        """Does this edge join a relation of ``group_a`` to one of ``group_b``?"""
        return (self.left_alias in group_a and self.right_alias in group_b) or (
            self.left_alias in group_b and self.right_alias in group_a
        )


@dataclass
class JoinGraph:
    """Relations (in syntactic order) plus equi-join edges."""

    relations: List[BaseRelation]
    edges: List[JoinEdge]

    def aliases(self) -> FrozenSet[str]:
        return frozenset(relation.alias for relation in self.relations)

    def edges_between(
        self, group_a: Iterable[str], group_b: Iterable[str]
    ) -> List[JoinEdge]:
        """Every edge with one endpoint in each group (either direction)."""
        group_a, group_b = frozenset(group_a), frozenset(group_b)
        return [edge for edge in self.edges if edge.connects(group_a, group_b)]

    def is_connected(self) -> bool:
        """Is every relation reachable from the first through edges?"""
        if not self.relations:
            return False
        reached = {self.relations[0].alias}
        frontier = [self.relations[0].alias]
        neighbors = {relation.alias: set() for relation in self.relations}
        for edge in self.edges:
            neighbors[edge.left_alias].add(edge.right_alias)
            neighbors[edge.right_alias].add(edge.left_alias)
        while frontier:
            alias = frontier.pop()
            for neighbor in neighbors[alias]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        return len(reached) == len(self.relations)

    def syntactic_label(self) -> str:
        """The parse (left-deep) order as a readable join expression."""
        label = self.relations[0].alias
        for relation in self.relations[1:]:
            label = f"({label} ⋈ {relation.alias})"
        return label


def extract_join_graph(node: LogicalNode, resolver) -> Optional[JoinGraph]:
    """Flatten a join block into a :class:`JoinGraph`, or ``None`` if any
    part of it is a shape the search could not faithfully reassemble."""
    if not isinstance(node, LogicalJoin):
        return None
    relations: List[BaseRelation] = []
    edges: List[JoinEdge] = []
    if not _collect(node, relations, edges, resolver):
        return None
    if len(relations) < 2 or not edges:
        return None
    aliases = [relation.alias for relation in relations]
    if len(set(aliases)) != len(aliases):
        return None
    graph = JoinGraph(relations, edges)
    if not graph.is_connected():
        return None
    return graph


def _collect(
    node: LogicalNode,
    relations: List[BaseRelation],
    edges: List[JoinEdge],
    resolver,
) -> bool:
    if isinstance(node, LogicalJoin):
        if not _collect(node.left, relations, edges, resolver):
            return False
        if not _collect(node.right, relations, edges, resolver):
            return False
        for left, right in zip(node.left_columns, node.right_columns):
            try:
                left_q = resolver.qualify(left)
                right_q = resolver.qualify(right)
            except (KeyError, ValueError):
                return False
            left_alias = left_q.split(".", 1)[0]
            right_alias = right_q.split(".", 1)[0]
            if left_alias == right_alias:
                return False  # self-conjunct: a filter, not a join edge
            edges.append(JoinEdge(left_alias, left_q, right_alias, right_q))
        return True
    leaf = _leaf_scan(node)
    if leaf is None:
        return False
    scan, predicate = leaf
    relations.append(BaseRelation(scan.alias, scan.table, predicate))
    return True
