"""Sorted (B-tree-like) indexes with range scans and min/max probes.

Backed by a sorted array + binary search — the access-pattern equivalent of
a B-tree for an in-memory engine.  The array is two parallel lists: the key
tuples (what ``bisect`` searches) and the row ids (what scans gather by).
Two operations matter to the paper's rewrites:

* ``range_positions`` + ``rowids`` — drive index-satisfied ``ORDER BY``/
  ``GROUP BY`` (the Example 1 plan) and the fact-table side of the date
  rewrite;
* ``probe_min`` / ``probe_max`` — the *two probes into the date dimension*
  of Section 2.3 that translate a natural-date range into a surrogate-key
  range.
"""
from __future__ import annotations

import bisect
from itertools import islice, repeat
from operator import itemgetter
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .table import Table

__all__ = ["SortedIndex"]


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
        #: Entry ``i`` is the row ``_rowids[i]`` with key ``_keys[i]``, in
        #: ``(key, rowid)`` order.  Appends insert into both lists in place.
        self._keys: List[tuple] = []
        self._rowids: List[int] = []
        self._built_row_count = -1
        #: Times the entries were extended by appended rows vs rebuilt.
        self.maintenance = {"extended": 0, "rebuilt": 0}

    # ------------------------------------------------------------------
    def _keys_of(self, start: int) -> List[tuple]:
        """The key tuples of the table's rows from ``start`` on."""
        rows = islice(self.table.rows, start, None)
        if len(self._positions) == 1:
            (position,) = self._positions
            return [(row[position],) for row in rows]
        return list(map(itemgetter(*self._positions), rows))

    def build(self) -> "SortedIndex":
        """(Re)build from the table's current rows."""
        keys = self._keys_of(0)
        # A stable sort of the row ids by key: ``(key, rowid)`` order.
        self._rowids = sorted(range(len(keys)), key=keys.__getitem__)
        self._keys = [keys[rowid] for rowid in self._rowids]
        self._built_row_count = len(self.table.rows)
        self.maintenance["rebuilt"] += 1
        return self

    def _ensure_built(self) -> None:
        built = self._built_row_count
        if built == len(self.table.rows):
            return
        if 0 <= built < len(self.table.rows):
            self._extend(built)
            self.maintenance["extended"] += 1
        else:
            self.build()

    def _extend(self, built: int) -> None:
        """Insert the rows appended since ``built`` into the entries.

        A new row id exceeds every old one, so a new entry goes after the
        old entries with an equal key (``bisect_right``) — the order a
        full sort gives.  Every position is found before anything moves,
        so a key that does not compare leaves the index as it was.  The
        lists grow once and each run of old entries moves once, right to
        left, by the number of new entries that precede it."""
        new_keys = self._keys_of(built)
        order = sorted(range(len(new_keys)), key=new_keys.__getitem__)
        keys, rowids = self._keys, self._rowids
        at = [bisect.bisect_right(keys, new_keys[i]) for i in order]
        end = len(keys)
        shift = len(order)
        keys.extend(repeat(None, shift))
        rowids.extend(repeat(None, shift))
        for position, i in zip(reversed(at), reversed(order)):
            keys[position + shift:end + shift] = keys[position:end]
            rowids[position + shift:end + shift] = rowids[position:end]
            shift -= 1
            keys[position + shift] = new_keys[i]
            rowids[position + shift] = built + i
            end = position
        self._built_row_count = len(self.table.rows)

    def __len__(self) -> int:
        self._ensure_built()
        return len(self._rowids)

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

    def rowids(self, start: int, stop: int) -> List[int]:
        """The row ids of entry positions ``[start, stop)``, in key order.

        A copy: appended rows are inserted into the entries in place, so
        a scan takes its range once and gathers from that."""
        self._ensure_built()
        return self._rowids[start:stop]

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
        rowids = self.rowids(*self.range_positions(low, high))
        if reverse:
            rowids.reverse()
        rows = self.table.rows
        for rowid in rowids:
            yield rows[rowid]

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
        if start >= len(keys):
            return None
        position = self.table.schema.position(
            self.table.schema.resolve(value_column)
        )
        return self.table.rows[self._rowids[start]][position]

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
        return self.table.rows[self._rowids[stop - 1]][position]

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
