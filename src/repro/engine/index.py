"""Sorted (B-tree-like) indexes with range scans and min/max probes.

Backed by a sorted array + binary search — the access-pattern equivalent of
a B-tree for an in-memory engine.  Two operations matter to the paper's
rewrites:

* ``range_scan`` — drives index-satisfied ``ORDER BY``/``GROUP BY`` (the
  Example 1 plan) and the fact-table side of the date rewrite;
* ``probe_min`` / ``probe_max`` — the *two probes into the date dimension*
  of Section 2.3 that translate a natural-date range into a surrogate-key
  range.
"""
from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .table import Table

__all__ = ["SortedIndex"]

_NEG_INF = object()
_POS_INF = object()


class SortedIndex:
    """A sorted-array index over one or more key columns."""

    def __init__(
        self,
        name: str,
        table: Table,
        key_columns: Sequence[str],
        clustered: bool = False,
    ) -> None:
        self.name = name
        self.table = table
        self.key_columns: Tuple[str, ...] = tuple(
            table.schema.resolve(column) for column in key_columns
        )
        self.clustered = clustered
        self._positions = tuple(
            table.schema.position(column) for column in self.key_columns
        )
        self._entries: List[Tuple[tuple, int]] = []
        self._keys: List[tuple] = []
        self._built_row_count = -1
        #: Times the entries were extended by appended rows vs rebuilt.
        self.maintenance = {"extended": 0, "rebuilt": 0}

    # ------------------------------------------------------------------
    def _entries_of(self, start: int) -> Iterator[Tuple[tuple, int]]:
        """``(key, rowid)`` for the table's rows from ``start`` on."""
        positions = self._positions
        return (
            (tuple(row[i] for i in positions), rowid)
            for rowid, row in enumerate(self.table.rows[start:], start)
        )

    def build(self) -> "SortedIndex":
        """(Re)build from the table's current rows."""
        self._install(sorted(self._entries_of(0)))
        self.maintenance["rebuilt"] += 1
        return self

    def _install(self, entries: List[Tuple[tuple, int]]) -> None:
        self._entries = entries
        self._keys = [entry[0] for entry in entries]
        self._built_row_count = len(self.table.rows)

    def _ensure_built(self) -> None:
        built = self._built_row_count
        if built == len(self.table.rows):
            return
        if 0 <= built < len(self.table.rows):
            # Rows were appended: the old entries are one long sorted run
            # and the new ones a short tail, which is what list.sort()
            # merges fastest.  A copy, so a key that does not compare
            # leaves the index as it was.
            entries = self._entries + list(self._entries_of(built))
            entries.sort()
            self._install(entries)
            self.maintenance["extended"] += 1
        else:
            self.build()

    def __len__(self) -> int:
        self._ensure_built()
        return len(self._entries)

    # ------------------------------------------------------------------
    # Probes and scans
    # ------------------------------------------------------------------
    def range_positions(
        self,
        low: Optional[tuple] = None,
        high: Optional[tuple] = None,
    ) -> Tuple[int, int]:
        """Entry positions ``[start, stop)`` whose key-prefix lies in
        ``low ≤ key ≤ high`` — the seam partitioned index scans slice."""
        self._ensure_built()
        keys = self._keys
        start = 0
        stop = len(keys)
        if low is not None:
            start = bisect.bisect_left(keys, tuple(low))
        if high is not None:
            # Append a maximal sentinel so prefix bounds include all
            # extensions of the bound value.
            stop = bisect.bisect_right(keys, tuple(high) + (_Top(),))
        return start, max(start, stop)

    def scan_positions(
        self, start: int, stop: int, reverse: bool = False
    ) -> Iterator[tuple]:
        """Yield table rows for the entry positions ``[start, stop)`` in
        key order (reversed when asked).  Iterates in place — no slice
        copy of the entry array per scan."""
        self._ensure_built()
        entries = self._entries
        rows = self.table.rows
        indices = range(start, stop)
        if reverse:
            indices = reversed(indices)
        for position in indices:
            yield rows[entries[position][1]]

    def range_scan(
        self,
        low: Optional[tuple] = None,
        high: Optional[tuple] = None,
        reverse: bool = False,
    ) -> Iterator[tuple]:
        """Yield table rows with ``low ≤ key-prefix ≤ high`` in key order.

        ``low``/``high`` are tuples over a *prefix* of the key columns;
        ``None`` leaves that end unbounded.  The scan is inclusive at both
        ends, matching SQL ``BETWEEN``.
        """
        start, stop = self.range_positions(low, high)
        yield from self.scan_positions(start, stop, reverse)

    def probe_min(
        self, low: tuple, value_column: str
    ) -> Optional[Any]:
        """Smallest ``value_column`` among rows with key-prefix ≥ ``low``.

        With ``value_column`` monotone in the key (an OD!), this is the
        first qualifying entry — O(log n), the Section 2.3 "probe".
        """
        self._ensure_built()
        keys = self._keys
        start = bisect.bisect_left(keys, tuple(low))
        if start >= len(self._entries):
            return None
        position = self.table.schema.position(
            self.table.schema.resolve(value_column)
        )
        return self.table.rows[self._entries[start][1]][position]

    def probe_max(
        self, high: tuple, value_column: str
    ) -> Optional[Any]:
        """Largest ``value_column`` among rows with key-prefix ≤ ``high``."""
        self._ensure_built()
        keys = self._keys
        stop = bisect.bisect_right(keys, tuple(high) + (_Top(),))
        if stop == 0:
            return None
        position = self.table.schema.position(
            self.table.schema.resolve(value_column)
        )
        return self.table.rows[self._entries[stop - 1][1]][position]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "clustered" if self.clustered else "secondary"
        return (
            f"SortedIndex({self.name!r} ON {self.table.name}"
            f"({', '.join(self.key_columns)}), {kind})"
        )


class _Top:
    """Compares greater than every value — sentinel for inclusive prefix
    upper bounds."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True
