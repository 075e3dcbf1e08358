"""Columnar batches: the unit of execution.

A row-at-a-time iterator would charge a Python generator hop, a metrics
update, and a closure chain *per row* — at laptop scale that interpreter
overhead drowns the signal the paper's rewrites produce (sorts and joins
that never run).  A :class:`ColumnBatch` amortizes all of it: operators
move fixed-capacity chunks of column vectors, charge
:class:`~repro.engine.operators.base.Metrics` once per batch (with row
counts, so totals do not depend on the chunk size), and evaluate
expressions through the compiled vectorized kernels of
:mod:`repro.engine.expr`.

Layout: one Python sequence per column (lists or the tuples ``zip``
produces — anything sliceable), all of equal length, sharing the
operator's :class:`~repro.engine.schema.Schema`.  ``rows()`` turns a
batch into row tuples, which is how results reach the caller.

Ordering: a batch stream carries an :class:`OrderSpec` guarantee —
*within* each batch rows are in stream order, and batches are emitted in
stream order, so concatenating ``rows()`` over the stream gives the
ordered result.
"""
from __future__ import annotations

from itertools import chain, compress
from typing import Iterator, List, Optional, Sequence

from .schema import Schema

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ColumnBatch",
]

#: Default chunk capacity.  Large enough that per-batch costs (one
#: metrics update, one generator hop, one kernel call) amortize to
#: nothing; small enough to stay cache-friendly.
DEFAULT_BATCH_SIZE = 1024


class ColumnBatch:
    """A fixed-capacity chunk of rows in column-major layout."""

    __slots__ = ("schema", "columns", "_length")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Sequence],
        length: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.columns: List[Sequence] = list(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self._length = length

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnBatch":
        """Transpose row tuples into a batch (``zip(*rows)`` — C speed)."""
        if rows:
            return cls(schema, list(zip(*rows)), length=len(rows))
        return cls(schema, [() for _ in schema], length=0)

    @classmethod
    def empty(cls, schema: Schema) -> "ColumnBatch":
        return cls(schema, [() for _ in schema], length=0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    # ------------------------------------------------------------------
    # Pickling (``__slots__`` classes have no ``__dict__`` to snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Ship plain column lists + the schema — a batch holds no
        ``Table`` back-pointers, so this is exactly its data.  Column
        vectors may be lazy views (``zip`` tuples, slices); ``list()``
        normalizes them so the wire format is always plain lists."""
        return (self.schema, [list(column) for column in self.columns], self._length)

    def __setstate__(self, state):
        schema, columns, length = state
        self.schema = schema
        self.columns = columns
        self._length = length

    def column(self, reference: str) -> Sequence:
        """The vector for a (possibly unqualified) column reference."""
        return self.columns[self.schema.position(self.schema.resolve(reference))]

    def rows(self) -> Iterator[tuple]:
        """Row tuples in stream order."""
        if not self.columns:
            return iter(() for _ in range(self._length))
        return zip(*self.columns)

    def to_rows(self) -> List[tuple]:
        return list(self.rows())

    # ------------------------------------------------------------------
    # Cheap structural operations
    # ------------------------------------------------------------------
    def filter(self, mask: Sequence) -> "ColumnBatch":
        """Keep rows whose mask entry is truthy (``itertools.compress``)."""
        columns = [list(compress(column, mask)) for column in self.columns]
        if columns:
            length = len(columns[0])
        else:
            length = sum(1 for keep in mask if keep)
        return ColumnBatch(self.schema, columns, length)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        stop = min(stop, self._length)
        start = min(start, stop)
        return ColumnBatch(
            self.schema,
            [column[start:stop] for column in self.columns],
            stop - start,
        )

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather rows by position (e.g. a sort permutation)."""
        return ColumnBatch(
            self.schema,
            [[column[i] for i in indices] for column in self.columns],
            len(indices),
        )

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate same-schema batches into one."""
        if not batches:
            raise ValueError("concat of zero batches (schema unknown)")
        first = batches[0]
        if len(batches) == 1:
            return first
        columns = [
            list(chain.from_iterable(batch.columns[i] for batch in batches))
            for i in range(len(first.columns))
        ]
        return ColumnBatch(first.schema, columns, sum(len(b) for b in batches))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnBatch({len(self.columns)} cols x {self._length} rows)"

