"""Query-scoped dependency theories.

Rewrite decisions are implication questions against an
:class:`~repro.core.inference.ODTheory` assembled from everything the
optimizer knows about the tuple stream at a plan node:

* each table's **declared constraints** (ODs / FDs / equivalences), with
  attribute names qualified by the scan alias (``month`` → ``d.month``);
* **join equalities** — after an equi-join on ``f.sk = d.sk`` the two
  columns are order-equivalent (and functionally interchangeable) in the
  output stream;
* **constant bindings** — a conjunct ``d.year = 2000`` makes ``d.year`` a
  constant downstream (``[] ↦ [d.year]``), which both reductions exploit.

All three statement families are *pairwise* properties, so they keep holding
for the multiset of output tuples of filters and joins — the soundness
argument for using the oracle on derived streams.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.attrs import EMPTY, AttrList
from ..core.dependency import (
    FunctionalDependency,
    OrderCompatibility,
    OrderDependency,
    OrderEquivalence,
    Statement,
)
from ..core.inference import ODTheory
from ..engine.epoch import catalog_epoch

__all__ = [
    "qualify_statement",
    "alias_constraints",
    "join_equivalence",
    "constant_statement",
    "build_theory",
    "clear_theory_cache",
    "theory_cache_len",
    "theory_cache_stats",
]


def _qualify_list(attrs: AttrList, alias: str) -> AttrList:
    return AttrList(f"{alias}.{name}" for name in attrs)


def qualify_statement(statement: Statement, alias: str) -> Statement:
    """Rename a table-level statement into a scan's qualified namespace."""
    if isinstance(statement, OrderDependency):
        return OrderDependency(
            _qualify_list(statement.lhs, alias), _qualify_list(statement.rhs, alias)
        )
    if isinstance(statement, OrderEquivalence):
        return OrderEquivalence(
            _qualify_list(statement.lhs, alias), _qualify_list(statement.rhs, alias)
        )
    if isinstance(statement, OrderCompatibility):
        return OrderCompatibility(
            _qualify_list(statement.lhs, alias), _qualify_list(statement.rhs, alias)
        )
    if isinstance(statement, FunctionalDependency):
        return FunctionalDependency(
            tuple(f"{alias}.{name}" for name in statement.lhs),
            tuple(f"{alias}.{name}" for name in statement.rhs),
        )
    raise TypeError(f"cannot qualify {statement!r}")


def alias_constraints(database, alias: str, table_name: str) -> List[Statement]:
    """Every declared constraint of the table, qualified by the alias, in
    a new list the caller may extend.

    Qualified once per ``(table, alias)`` and catalog epoch: a
    ``declare`` advances the epoch, so the next call qualifies again."""
    memo = database.qualified_constraints
    epoch = catalog_epoch()
    found = memo.get((table_name, alias))
    if found is None or found[0] != epoch:
        found = memo[table_name, alias] = (
            epoch,
            tuple(
                qualify_statement(statement, alias)
                for statement in database.constraints_on(table_name)
            ),
        )
    return list(found[1])


def join_equivalence(left_column: str, right_column: str) -> Statement:
    """``[l] ↔ [r]``: equi-joined columns are equal row-by-row, hence
    order-equivalent in the join output.

    The statement has one canonical orientation, the two names in sorted
    order, so ``join_equivalence(a, b) == join_equivalence(b, a)``: the
    statement set of a join tree does not depend on which side probed, and
    every tree over one relation subset shares one interned theory."""
    first, second = sorted((left_column, right_column))
    return OrderEquivalence(AttrList([first]), AttrList([second]))


def constant_statement(column: str) -> Statement:
    """``[] ↦ [col]``: the column is pinned to a single value downstream."""
    return OrderDependency(EMPTY, AttrList([column]))


#: Interned theories keyed on the statement *set*, LRU-bounded.
#: Repeated plannings of the same query template — and every join tree
#: over one relation subset, whichever side probed — assemble the same
#: statements, so they get the *same* ``ODTheory`` instance back, and with
#: it the theory's memoized implication results.  ``M ⊨ φ`` reads ``M`` as
#: a set, and quantifies over *all* instances: no insert can change a
#: verdict, and a ``declare`` changes what :func:`alias_constraints`
#: returns and with it the key.
_THEORY_CACHE_SIZE = 256
_theory_cache: "OrderedDict[frozenset, ODTheory]" = OrderedDict()


def _statement_order(statement: Statement) -> tuple:
    """A total order on statements, so an interned theory's premises do
    not depend on which caller built it first."""
    return type(statement).__name__, tuple(statement.lhs), tuple(statement.rhs)


def build_theory(statements: Iterable[Statement], reuse: bool = True) -> ODTheory:
    """Assemble the query-scoped theory (bounded for big schemas).

    ``reuse=True`` (the default) interns theories by statement set, its
    premises in one canonical order, so the oracle's result cache survives
    across queries and across writes (a changed constraint set is a
    different key); pass ``reuse=False`` for a fresh, isolated instance
    over the statements as given (tests, one-off analyses).
    """
    if not reuse:
        return ODTheory(tuple(statements), max_attributes=20)
    key = frozenset(statements)
    theory = _theory_cache.get(key)
    if theory is None:
        theory = ODTheory(sorted(key, key=_statement_order), max_attributes=20)
        _theory_cache[key] = theory
    else:
        _theory_cache.move_to_end(key)
    while len(_theory_cache) > _THEORY_CACHE_SIZE:
        _theory_cache.popitem(last=False)
    return theory


def clear_theory_cache() -> None:
    """Drop every interned theory (benchmarks use this for cold starts)."""
    _theory_cache.clear()


def theory_cache_len() -> int:
    return len(_theory_cache)


def theory_cache_stats() -> dict:
    """Point-in-time oracle-cache reading for ``Database.stats_snapshot``.

    Everything here is a **gauge**, not a monotonic counter: ``size`` is
    the live LRU occupancy and the oracle-work keys are summed over the
    *currently interned* theories only — evicted theories take their
    counts with them.  (The per-plan monotonic view lives on
    ``PlanInfo.oracle``, diffed around each planning.)
    """
    stats: dict = {
        "size": len(_theory_cache),
        "capacity": _THEORY_CACHE_SIZE,
        "implies_calls": 0,
        "fast_path": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "enumerations": 0,
    }
    for theory in _theory_cache.values():
        counters = theory.stats()
        for key in (
            "implies_calls",
            "fast_path",
            "cache_hits",
            "cache_misses",
            "enumerations",
        ):
            stats[key] += counters[key]
    return stats
