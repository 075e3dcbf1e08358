"""Join operators: hash join, sort-merge join, nested loops.

The Section 2.3 date rewrite's payoff is a :class:`HashJoin` (fact ⋈
date_dim) that disappears entirely; the sort-merge join is where "a sort on
input can be removed" when ODs prove an existing stream order equivalent to
the required one ([17]'s motivation).
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from ..schema import Schema
from .base import Metrics, Operator

__all__ = ["HashJoin", "MergeJoin", "NestedLoopJoin"]


class _JoinBase(Operator):
    """Joins are not partition-transparent (``partition_kind`` stays
    ``None``): they combine two streams, so exchange placement recurses
    into each side instead — either input may itself be a parallelized
    chain, since all three joins drain their inputs wholesale.
    (Partitioning the *probe* loop against a shared built table is the
    natural next step; it needs a build-once barrier the current exchange
    does not model.)"""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise ValueError("join key lists must have equal length")
        self.left = left
        self.right = right
        self.left_keys = tuple(left.schema.resolve(k) for k in left_keys)
        self.right_keys = tuple(right.schema.resolve(k) for k in right_keys)
        self.schema = left.schema.concat(right.schema)
        self._left_positions = tuple(
            left.schema.position(k) for k in self.left_keys
        )
        self._right_positions = tuple(
            right.schema.position(k) for k in self.right_keys
        )

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def _materialize(self, side: Operator, metrics: Metrics, batch_size: int):
        """All of one input's rows via its batch path (both merge and
        nested-loop joins consume a side wholesale)."""
        rows: List[tuple] = []
        for batch in side.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            rows.extend(batch.rows())
        return rows

    def _emit_batches(self, rows: List[tuple], batch_size: int):
        schema = self.schema
        for start in range(0, len(rows), batch_size):
            yield ColumnBatch.from_rows(schema, rows[start:start + batch_size])

    def label(self) -> str:
        condition = " AND ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"{type(self).__name__}({condition})"

    def trace_args(self) -> dict:
        return {
            "keys": " AND ".join(
                f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
            )
        }


class HashJoin(_JoinBase):
    """Equi-join: build a hash table on the right input, probe with the left.

    Preserves the probe (left) side's ordering — each probe row's matches
    are emitted contiguously in probe order.
    """

    def __init__(self, left, right, left_keys, right_keys) -> None:
        super().__init__(left, right, left_keys, right_keys)
        self.ordering = left.ordering  # preserves the probe side's spec

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Build from right batches, probe left batch-wise.  Single-column
        joins (every date rewrite's shape) key on the bare value instead
        of a 1-tuple.  Probe order — and therefore the declared left
        ordering — is preserved; counters charge per batch."""
        single = len(self._right_positions) == 1
        table: Dict = {}
        setdefault = table.setdefault
        for batch in self.right.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            metrics.add("hash_build_rows", len(batch))
            if single:
                position = self._right_positions[0]
                for row in batch.rows():
                    setdefault(row[position], []).append(row)
            else:
                positions = self._right_positions
                for row in batch.rows():
                    setdefault(tuple(row[i] for i in positions), []).append(row)

        get = table.get
        out: List[tuple] = []
        for batch in self.left.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            metrics.add("hash_probe_rows", len(batch))
            produced = 0
            if single:
                position = self._left_positions[0]
                for row in batch.rows():
                    matches = get(row[position])
                    if matches:
                        produced += len(matches)
                        for match in matches:
                            out.append(row + match)
            else:
                positions = self._left_positions
                for row in batch.rows():
                    matches = get(tuple(row[i] for i in positions))
                    if matches:
                        produced += len(matches)
                        for match in matches:
                            out.append(row + match)
            if produced:
                metrics.add("join_rows", produced)
            while len(out) >= batch_size:
                yield ColumnBatch.from_rows(self.schema, out[:batch_size])
                del out[:batch_size]
        if out:
            yield ColumnBatch.from_rows(self.schema, out)


class MergeJoin(_JoinBase):
    """Sort-merge join.  **Precondition**: both inputs ordered by their join
    keys (the optimizer inserts Sorts, or — with ODs — proves them away).

    Output ordering: the left input's ordering.
    """

    def __init__(self, left, right, left_keys, right_keys) -> None:
        super().__init__(left, right, left_keys, right_keys)
        self.ordering = left.ordering  # preserves the probe side's spec

    def _merge(
        self, left_rows: List[tuple], right_rows: List[tuple], metrics: Metrics
    ) -> List[tuple]:
        """The two-pointer merge; ``merge_steps``/``join_rows`` are
        charged once, with their totals."""
        out: List[tuple] = []
        steps = 0
        i = j = 0
        while i < len(left_rows) and j < len(right_rows):
            steps += 1
            left_key = tuple(left_rows[i][p] for p in self._left_positions)
            right_key = tuple(right_rows[j][p] for p in self._right_positions)
            if left_key < right_key:
                i += 1
            elif left_key > right_key:
                j += 1
            else:
                # gather the right-side run for this key
                j_end = j
                while j_end < len(right_rows) and tuple(
                    right_rows[j_end][p] for p in self._right_positions
                ) == right_key:
                    j_end += 1
                while i < len(left_rows) and tuple(
                    left_rows[i][p] for p in self._left_positions
                ) == left_key:
                    for k in range(j, j_end):
                        out.append(left_rows[i] + right_rows[k])
                    i += 1
                j = j_end
        if steps:
            metrics.add("merge_steps", steps)
        if out:
            metrics.add("join_rows", len(out))
        return out

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Merge the two inputs, each materialized from its batches."""
        left_rows = self._materialize(self.left, metrics, batch_size)
        right_rows = self._materialize(self.right, metrics, batch_size)
        out = self._merge(left_rows, right_rows, metrics)
        yield from self._emit_batches(out, batch_size)


class NestedLoopJoin(_JoinBase):
    """Tuple-at-a-time nested loops (any predicate via key equality here);
    kept as the baseline everything else beats.  Preserves outer ordering."""

    def __init__(self, left, right, left_keys, right_keys) -> None:
        super().__init__(left, right, left_keys, right_keys)
        self.ordering = left.ordering  # preserves the probe side's spec

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        right_rows = self._materialize(self.right, metrics, batch_size)
        right_keys = [
            tuple(other[i] for i in self._right_positions) for other in right_rows
        ]
        out: List[tuple] = []
        for batch in self.left.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            produced = 0
            for row in batch.rows():
                left_key = tuple(row[i] for i in self._left_positions)
                for other_key, other in zip(right_keys, right_rows):
                    if left_key == other_key:
                        out.append(row + other)
                        produced += 1
            if right_rows:  # no comparison made, no counter key created
                metrics.add("nl_comparisons", len(batch) * len(right_rows))
            if produced:
                metrics.add("join_rows", produced)
            while len(out) >= batch_size:
                yield ColumnBatch.from_rows(self.schema, out[:batch_size])
                del out[:batch_size]
        if out:
            yield ColumnBatch.from_rows(self.schema, out)
