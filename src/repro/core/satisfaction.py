"""Satisfaction of dependency statements by relation instances.

Implements Definition 4 (when an instance satisfies an OD) together with the
*split* / *swap* witness machinery of Definitions 13–14, which the paper's
completeness proof rests on (Theorem 15): an OD ``X ↦ Y`` is falsified by a
table iff the table contains

* a **split**: two tuples equal on ``X`` but not on ``Y`` (this falsifies the
  FD facet ``X ↦ XY``), or
* a **swap**: two tuples strictly ordered one way by ``X`` and the opposite
  way by ``Y`` (this falsifies the order-compatibility facet ``X ~ Y``).

Three implementations are provided: a naive O(n²) pairwise check (the
definitional oracle, used to validate the fast path in tests), an
O(n log n) check that sorts by ``X`` once, and :class:`AppendChecker`,
which keeps that ``X`` order and admits each further row in O(log n).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .attrs import AttrList
from .dependency import (
    FunctionalDependency,
    OrderDependency,
    Statement,
    to_ods,
)
from .relation import Relation, Row

__all__ = [
    "Witness",
    "satisfies",
    "satisfies_naive",
    "find_split",
    "find_swap",
    "find_witness",
    "explain_violation",
    "AppendChecker",
]


@dataclass(frozen=True)
class Witness:
    """A falsifying pair of tuples, tagged with the violation kind.

    ``kind`` is ``"split"`` or ``"swap"``; ``s`` precedes-or-equals ``t`` on
    the OD's left-hand side.
    """

    kind: str
    s: Row
    t: Row

    def rows(self) -> tuple:
        return (self.s, self.t)


# ----------------------------------------------------------------------
# Witness search (Definitions 13 and 14)
# ----------------------------------------------------------------------
def find_split(relation: Relation, dependency: OrderDependency) -> Optional[Witness]:
    """Find a split w.r.t. ``X ↦ Y``: ``s =_X t`` but ``s ≠_Y t``.

    Runs in O(n log n): group rows by their ``X`` projection and require each
    group to be constant on ``Y``.
    """
    groups: dict = {}
    x, y = dependency.lhs, dependency.rhs
    x_pos = relation.positions(x)
    y_pos = relation.positions(y)
    for row in relation.rows:
        key = tuple(row[i] for i in x_pos)
        y_val = tuple(row[i] for i in y_pos)
        if key in groups:
            first_row, first_y = groups[key]
            if first_y != y_val:
                return Witness("split", first_row, row)
        else:
            groups[key] = (row, y_val)
    return None


def find_swap(relation: Relation, dependency: OrderDependency) -> Optional[Witness]:
    """Find a swap w.r.t. ``X ↦ Y``: ``s ≺_X t`` but ``t ≺_Y s``.

    Sorts by ``X`` then scans for a strict descent on ``Y`` between rows in
    distinct ``X`` groups.  Within an ``X`` group the ``Y`` values may vary
    (that is a split, not a swap), so the scan compares against the *minimum*
    ``Y`` value seen in any earlier strictly-smaller ``X`` group against the
    maximum, and vice versa; it suffices to track, per group boundary, the
    largest ``Y`` seen so far and the smallest in the current group.
    """
    x_pos = relation.positions(dependency.lhs)
    y_pos = relation.positions(dependency.rhs)
    decorated = sorted(
        (tuple(row[i] for i in x_pos), tuple(row[i] for i in y_pos), row)
        for row in relation.rows
    )
    # max Y value (with its row) over all strictly earlier X-groups
    best_y = None
    best_row = None
    group_key = None
    group_max_y = None
    group_max_row = None
    for x_val, y_val, row in decorated:
        if group_key is None or x_val != group_key:
            if group_key is not None:
                if best_y is None or group_max_y > best_y:
                    best_y, best_row = group_max_y, group_max_row
            group_key, group_max_y, group_max_row = x_val, y_val, row
        else:
            if y_val > group_max_y:
                group_max_y, group_max_row = y_val, row
        if best_y is not None and y_val < best_y:
            return Witness("swap", best_row, row)
    return None


def find_witness(relation: Relation, dependency: OrderDependency) -> Optional[Witness]:
    """Find a split or swap falsifying the OD, or ``None`` if it holds.

    By Theorem 15 these are the only two ways an OD can fail.
    """
    return find_split(relation, dependency) or find_swap(relation, dependency)


# ----------------------------------------------------------------------
# Satisfaction
# ----------------------------------------------------------------------
def _satisfies_od(relation: Relation, dependency: OrderDependency) -> bool:
    return find_witness(relation, dependency) is None


def satisfies(relation: Relation, statement: Statement) -> bool:
    """Does the instance satisfy the statement (OD, ↔, ~, or FD)?

    Equivalences and compatibilities are checked through their component ODs;
    FDs through Theorem 13's OD encoding (equivalently: no split).
    """
    if isinstance(statement, FunctionalDependency):
        return find_split(relation, statement.as_od()) is None
    return all(_satisfies_od(relation, od) for od in to_ods(statement))


def satisfies_naive(relation: Relation, statement: Statement) -> bool:
    """Definitional O(n²) satisfaction check — the test oracle.

    Quantifies over *all ordered pairs* of tuples exactly as Definition 4
    states: ``s ≼_X t`` implies ``s ≼_Y t``.
    """
    for dependency in to_ods(statement):
        x, y = dependency.lhs, dependency.rhs
        for s in relation.rows:
            for t in relation.rows:
                if relation.leq(s, t, x) and not relation.leq(s, t, y):
                    return False
    return True


def explain_violation(relation: Relation, statement: Statement) -> Optional[str]:
    """Human-readable description of why the statement fails, or ``None``.

    Useful for OD check-constraint error messages in the engine layer.
    """
    for dependency in to_ods(statement):
        witness = find_witness(relation, dependency)
        if witness is None:
            continue
        s, t = witness.rows()
        if witness.kind == "split":
            return (
                f"split falsifies {dependency}: tuples {s} and {t} agree on "
                f"{dependency.lhs!r} but differ on {dependency.rhs!r}"
            )
        return (
            f"swap falsifies {dependency}: tuple {s} precedes {t} on "
            f"{dependency.lhs!r} but follows it on {dependency.rhs!r}"
        )
    return None


# ----------------------------------------------------------------------
# Satisfaction maintained under appends
# ----------------------------------------------------------------------
def _projection(positions: Tuple[int, ...]) -> Callable[[Row], object]:
    """``row ↦ row[X]`` as a value that compares like the list ``X``."""
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)  # one position: the bare value


class AppendChecker:
    """Do rows appended to a satisfying instance keep it satisfying?

    Built over rows that satisfy every statement.  For each distinct
    left-hand side ``X`` among the statements' component ODs it keeps one
    row per distinct ``X`` value, in ``X`` order.  A new row is bisected
    into that order: a row with the same ``X`` value must agree with it
    on every ``Y`` (else the pair is a split); otherwise its ``Y`` must
    lie between its predecessor's and its successor's (else a swap).  The
    neighbours suffice because ``Y`` is already non-decreasing along the
    order and ``≼`` is transitive.  FDs cannot swap (Theorem 13's
    encoding ``X ↦ XY`` is ordered by ``X`` first), so they take the
    split half only.

    The verdict agrees with :func:`explain_violation` being ``None`` on
    all the rows; which pair falsifies what is left to that full pass.
    """

    def __init__(
        self,
        attributes: AttrList,
        statements: Sequence[Statement],
        rows: Sequence[Row],
    ) -> None:
        position = {name: i for i, name in enumerate(attributes)}
        by_lhs: Dict[tuple, list] = {}
        for statement in statements:
            can_swap = not isinstance(statement, FunctionalDependency)
            for dependency in to_ods(statement):
                lhs = tuple(position[a] for a in dependency.lhs)
                rhs = tuple(position[a] for a in dependency.rhs)
                by_lhs.setdefault(lhs, []).append((_projection(rhs), can_swap))
        #: (``row[X]``, [(``row[Y]``, can it swap)], one row per ``X`` value in ``X`` order)
        self._orders: List[Tuple[Callable, list, List[Row]]] = []
        for lhs, dependents in by_lhs.items():
            x_of = _projection(lhs)
            first: Dict[object, Row] = {}
            for row in rows:
                first.setdefault(x_of(row), row)
            self._orders.append(
                (x_of, dependents, [first[x] for x in sorted(first)])
            )

    def admit(self, row: Row) -> bool:
        """Add ``row``; ``False`` if it splits or swaps with an earlier
        row — after which this checker must be discarded (the row may
        already stand in some of its orders)."""
        for x_of, dependents, order in self._orders:
            x = x_of(row)
            at = bisect_left(order, x, key=x_of)
            successor = order[at] if at < len(order) else None
            if successor is not None and x_of(successor) == x:
                if any(y_of(successor) != y_of(row) for y_of, _ in dependents):
                    return False  # split
                continue
            predecessor = order[at - 1] if at else None
            for y_of, can_swap in dependents:
                if not can_swap:
                    continue
                y = y_of(row)
                if predecessor is not None and y < y_of(predecessor):
                    return False  # swap
                if successor is not None and y_of(successor) < y:
                    return False  # swap
            order.insert(at, row)
        return True
