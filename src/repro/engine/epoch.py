"""The catalog epoch: the clock behind the plan cache and the worker pool.

A cached physical plan is only sound while the facts planning consumed
stay true.  In this engine those facts are:

* the **catalog** — which tables and indexes exist (index choice is baked
  into a physical plan);
* the **constraint registry** — declared ODs/FDs drive sort elimination,
  join elimination, and stream-aggregate selection;
* the **data**, in two ways: the Section 2.3 date rewrite translates a
  natural-date range into *surrogate-key bounds read from the dimension's
  rows*, and join orders are chosen from cardinality estimates — so a
  cached plan embeds data-derived literals and decisions.

Every mutation of any of the three bumps the global epoch, and a plan
stamped with another epoch is a miss.  The counter is deliberately global
(not per-database): cross-database bumps only cost a spurious re-plan,
never a stale answer.

Everything *else* derived from a table follows that table alone.  An
append is not DDL: each piece of derived state records how many rows of
its own table it covers; a read that finds more rows folds the new ones
in, and a read that finds anything else changed runs the full pass again.
``len(table.rows)`` is the staleness signal throughout, so ``rows`` may be
appended to (or truncated) directly, but not edited in place.

==================  =========================  ==========================  =====================
derived state       depends on                 refreshed by                reference (full pass)
==================  =========================  ==========================  =====================
cached plan         catalog, constraints and   any epoch bump: re-plan     ``plan(use_cache=
                    data of every table                                    False)``
process pool image  data of every table        any epoch bump: re-fork     ``backend="inline"``
interned theory     its statement tuple        nothing (``M ⊨ φ`` is over  ``build_theory(
                                               all instances); a           reuse=False)``
                                               ``declare`` is a new key
``Database.stats``  the table's rows,          append: extended; shrink,   ``collect_stats``
                    constraint count, indexes  ``declare``, new index,
                    and the estimation mode    mode flip, unorderable
                                               value: rebuilt
pair selectivity    the two histogram objects  never: replaced with its    from-scratch merge
                    (``merge_join_rows``)      statistics (new histogram   walk (``histogram.
                                               = new entry; the old one    _merge_walk``)
                                               ages out of a bounded map)
``SortedIndex``     its table's rows           append: new entries merged  ``SortedIndex.build``
                                               in; shrink: rebuilt
FK verdict          child and parent rows      append: new rows / new      ``Database.
                                               keys only; shrink: rebuilt  _fk_contained``
constraint check    the table's rows and       append: each new row        ``explain_violation``
                    constraints                against its neighbours; a
                                               violation, ``declare`` or
                                               shrink: full pass
``Table.columnar``  the table's rows           append: lists extended in   ``[list(c) for c in
                                               place; shrink: re-          zip(*rows)]``
                                               transposed
==================  =========================  ==========================  =====================

Both the column view's lists and an index's entry lists change in place on
an append, so a scan copies its range of row ids before it starts and
hands out slices or gathers of the view, never the lists themselves.

``Database.stats_snapshot()["maintenance"]`` counts, per kind, how often a
read extended and how often it rebuilt; ``["pair_selectivity"]`` counts
merge walks ``computed`` against walks ``reused``.
"""
from __future__ import annotations

from typing import Dict

__all__ = ["current_epoch", "bump_epoch", "epoch_log", "reset_epoch_log"]

_epoch: int = 0
#: Per-reason bump counts, for tests and diagnostics.
_bumps: Dict[str, int] = {}


def current_epoch() -> int:
    """The current catalog/constraint/data epoch."""
    return _epoch


def bump_epoch(reason: str = "unspecified") -> int:
    """Advance the epoch (invalidating every cached plan).

    ``reason`` is a short tag (``"create-table"``, ``"declare"``, ...)
    recorded in :func:`epoch_log` so tests can assert *which* mutations
    invalidate.
    """
    global _epoch
    _epoch += 1
    _bumps[reason] = _bumps.get(reason, 0) + 1
    return _epoch


def epoch_log() -> Dict[str, int]:
    """Per-reason bump counts since process start (or the last reset)."""
    return dict(_bumps)


def reset_epoch_log() -> None:
    """Zero the per-reason counts (the epoch itself never rewinds)."""
    _bumps.clear()
