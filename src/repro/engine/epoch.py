"""The epochs: the clocks behind the plan cache and the worker pool.

Every mutation is one of two kinds, and each kind has its reader:

* the **catalog** kind — which tables and indexes exist (index choice is
  baked into a physical plan), the constraint registry (declared ODs,
  FDs and FKs drive sort elimination, join elimination and
  stream-aggregate selection).  Tags ``create-table``, ``create-index``,
  ``declare`` and ``declare-fk`` (and any tag not listed in
  :data:`DATA_REASONS`).
  These advance :func:`catalog_epoch`; a cached plan stamped with another
  catalog epoch is a miss (``stale_invalidations``);
* the **data** kind — ``insert`` and ``load-rejected``.  These reach no
  cached plan through the clock.  A plan records what it was planned on
  instead (the row count of every table it read, and the data facts its
  rewrites relied on) and :func:`repro.optimizer.plan_cache.replan_reason`
  re-checks that record at lookup.  A declared OD survives an append
  because a checked ``load`` or an ``insert`` rejects a violating row (the
  paper's Section 2.2 check constraint) and rows appended unchecked are
  checked before a plan is served (``Table.check_appended``); the facts
  a rewrite relied on are re-checked when a table behind them changed:
  an FK verdict and a key uniqueness verdict through the maintained
  state in the table below, the date rewrite's surrogate range by
  re-planning.

Both kinds advance :func:`current_epoch`, which the process pool reads:
its forked image holds every table's rows, so any mutation re-forks it.
The counters are deliberately global (not per-database): cross-database
bumps only cost a spurious re-plan or re-fork, never a stale answer.

Everything *else* derived from a table follows that table alone.  An
append is not DDL: each piece of derived state records how many rows of
its own table it covers; a read that finds more rows folds the new ones
in, and a read that finds anything else changed runs the full pass again.
``len(table.rows)`` is the staleness signal throughout, so ``rows`` may be
appended to (or truncated) directly, but not edited in place.  Its known
hole — a truncation followed by a longer append with no read in between
is taken for a pure append — now reaches cached plans too, until direct
mutation of ``rows`` is guarded.

==================  =========================  ==========================  =====================
derived state       depends on                 refreshed by                reference (full pass)
==================  =========================  ==========================  =====================
cached plan         the catalog; the row       catalog bump: re-plan;      ``plan(use_cache=
                    counts of the tables it    a read table shrank or      False)``
                    read; the facts its        grew past ``REPLAN_
                    rewrites relied on         GROWTH``, or a fact broke:
                                               re-plan; else served
process pool image  data of every table        any bump: re-fork           ``backend="inline"``
qualified           the catalog                catalog bump: qualified     ``qualify_statement``
constraints                                    again
interned theory     its statement set          nothing (``M ⊨ φ`` is over  ``build_theory(
                                               all instances); a           reuse=False)``
                                               ``declare`` is a new key
``Database.stats``  the table's rows,          when something plans:       ``collect_stats``
                    constraint count and       append: extended; shrink,
                    indexes                    ``declare``, new index,
                                               unorderable value: rebuilt
pair selectivity    the two histogram objects  never: replaced with its    from-scratch merge
                    (``merge_join_rows``)      statistics (new histogram   walk (``histogram.
                                               = new entry; the old one    _merge_walk``)
                                               ages out of a bounded map)
``SortedIndex``     its table's rows           append: new entries merged  ``SortedIndex.build``
                                               in; shrink: rebuilt
FK verdict          child and parent rows      append: new rows / new      ``Database.
                                               keys only; shrink: rebuilt  _fk_contained``
key uniqueness      the table's rows and       append: new keys only (a    ``Database.
verdict             constraint count           duplicate stays found);     _key_unique``
                                               shrink, ``declare``:
                                               rebuilt
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

__all__ = [
    "DATA_REASONS",
    "current_epoch",
    "catalog_epoch",
    "bump_epoch",
    "epoch_log",
    "reset_epoch_log",
]

#: The tags of the data kind of mutation: they advance only
#: :func:`current_epoch`.  Every other tag is the catalog kind.
DATA_REASONS = frozenset({"insert", "load-rejected"})

_epoch: int = 0
_catalog_epoch: int = 0
#: Per-reason bump counts, for tests and diagnostics.
_bumps: Dict[str, int] = {}


def current_epoch() -> int:
    """The epoch of every mutation, catalog and data alike."""
    return _epoch


def catalog_epoch() -> int:
    """The epoch of catalog mutations only (what cached plans are stamped
    with)."""
    return _catalog_epoch


def bump_epoch(reason: str = "unspecified") -> int:
    """Advance the epoch, and the catalog epoch unless ``reason`` is a
    data tag (:data:`DATA_REASONS`).

    ``reason`` is a short tag (``"create-table"``, ``"declare"``, ...)
    recorded in :func:`epoch_log` so tests can assert *which* mutations
    happened.
    """
    global _epoch, _catalog_epoch
    _epoch += 1
    if reason not in DATA_REASONS:
        _catalog_epoch += 1
    _bumps[reason] = _bumps.get(reason, 0) + 1
    return _epoch


def epoch_log() -> Dict[str, int]:
    """Per-reason bump counts since process start (or the last reset)."""
    return dict(_bumps)


def reset_epoch_log() -> None:
    """Zero the per-reason counts (the epochs themselves never rewind)."""
    _bumps.clear()
