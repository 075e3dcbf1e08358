"""The Sort operator — the operator the paper's rewrites exist to remove.

Sorting is "at the heart of many database operations" (Section 5) and is
the expensive step OD reasoning eliminates: every benchmark in this
reproduction ultimately compares plans with and without a Sort node.
"""
from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from .base import Metrics, Operator, order_spec

__all__ = ["Sort"]


class Sort(Operator):
    """Full materializing sort on the given (qualified) columns, ascending.

    Charges ``sort_rows`` (and one ``sorts`` event) to the metrics; the
    shared :class:`~repro.engine.operators.base.Metrics.work` summary
    weights these at ``n·log2(n)``.

    Not partition-transparent (``partition_kind`` stays ``None``): a
    per-partition sort would charge K ``sorts`` events where the serial
    plan charges one, breaking counter parity — and the whole point of
    the paper is that provable orders make the Sort disappear, at which
    point the chain below *is* parallelizable and the merge-exchange
    preserves its order for free.  Exchange placement parallelizes the
    input chain instead."""

    def __init__(self, child: Operator, keys: Sequence[str]) -> None:
        self.child = child
        self.keys: Tuple[str, ...] = tuple(
            child.schema.resolve(key) for key in keys
        )
        self.schema = child.schema
        # A Sort is the order *enforcer*: it provides exactly its keys.
        self.ordering = tuple(order_spec(self.keys))
        self._positions = tuple(self.schema.position(key) for key in self.keys)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Collect the child's output, stable-sort the row positions by
        the keys, and gather the output in chunks — the permutation
        sorting the row tuples themselves would give.  One sort key sorts
        on the bare column, which orders exactly as its 1-tuples do."""
        data = self.child.collect(metrics, batch_size)
        metrics.add("sorts")
        metrics.add("sort_rows", len(data))
        keys = data.key_vector(self._positions)
        order = sorted(range(len(data)), key=keys.__getitem__)
        for start in range(0, len(order), batch_size):
            yield data.take(order[start:start + batch_size])

    def label(self) -> str:
        return f"Sort({', '.join(self.keys)})"

    def trace_args(self) -> dict:
        return {"keys": ", ".join(self.keys)}
