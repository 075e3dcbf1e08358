"""Top-N: fused Sort + Limit via a bounded heap.

When a plan needs ``ORDER BY k LIMIT n`` and no existing order satisfies
``k``, a full sort is wasteful: a size-``n`` heap does O(N log n) work and
O(n) memory.  The OD story still applies first — if the order *is*
satisfied, the planner emits plain ``Limit`` and even the heap disappears —
so TopN is the fallback the rewrites compete against.
"""
from __future__ import annotations

import heapq
from typing import Iterator, List, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from .base import Metrics, Operator, order_spec

__all__ = ["TopN"]


class TopN(Operator):
    """The ``n`` smallest rows by the given (qualified) key columns.

    Output is emitted in key order.  Ties are broken by input arrival order
    (stable, matching what ``Sort`` + ``Limit`` would produce).

    Not partition-transparent (``partition_kind`` stays ``None``): like
    ``Sort`` it charges a single ``sorts`` event, and its stable tiebreak
    is a whole-stream arrival fact.  Unlike ``Limit`` it is no *barrier*
    — TopN drains its child completely (no early termination), so the
    input chain below it parallelizes safely."""

    def __init__(self, child: Operator, keys: Sequence[str], count: int) -> None:
        if count < 0:
            raise ValueError("TopN count must be non-negative")
        self.child = child
        self.keys: Tuple[str, ...] = tuple(
            child.schema.resolve(key) for key in keys
        )
        self.count = count
        self.schema = child.schema
        # Like Sort, TopN enforces (a bounded prefix of) its key order.
        self.ordering = tuple(order_spec(self.keys))
        self._positions = tuple(self.schema.position(key) for key in self.keys)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """A bounded heap fed batch-wise; arrival order (the stable
        tiebreak) is counted globally across batches."""
        if self.count == 0:
            return  # no need to touch the child at all
        positions = self._positions
        # max-heap of the current best n: store negated comparison wrapper
        heap: List[tuple] = []
        arrival = 0
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            metrics.add("topn_rows", len(batch))
            for row in batch.rows():
                key = tuple(row[i] for i in positions)
                entry = (_Reverse((key, arrival)), row)
                if len(heap) < self.count:
                    heapq.heappush(heap, entry)
                elif (key, arrival) < heap[0][0].value:
                    heapq.heapreplace(heap, entry)
                arrival += 1
        metrics.add("sorts")
        metrics.add("sort_rows", len(heap))  # only the heap contents sort
        ordered = sorted(heap, key=lambda entry: entry[0].value)
        rows = [row for _, row in ordered]
        schema = self.schema
        for start in range(0, len(rows), batch_size):
            yield ColumnBatch.from_rows(schema, rows[start:start + batch_size])

    def label(self) -> str:
        return f"TopN({', '.join(self.keys)}; {self.count})"

    def trace_args(self) -> dict:
        return {"keys": ", ".join(self.keys), "count": self.count}


class _Reverse:
    """Inverts comparison so heapq's min-heap acts as a max-heap."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reverse") -> bool:
        return other.value < self.value
