"""Join operators: hash join, sort-merge join, nested loops.

The Section 2.3 date rewrite's payoff is a :class:`HashJoin` (fact ⋈
date_dim) that disappears entirely; the sort-merge join is where "a sort on
input can be removed" when ODs prove an existing stream order equivalent to
the required one ([17]'s motivation).

No join builds a row tuple.  Each one matches *row positions* — a left
(probe) position and a right (build) position per output row — and
gathers the output columns with :meth:`ColumnBatch.take`, once per column
per output chunk.  A probe row's matches come out in build order.

Keys come from :meth:`ColumnBatch.key_vector` (bare values for one key
column).  The hash join matches a probe batch with one ``map`` over its
table; the merge join gallops over the two sorted key vectors with
``bisect``, so its Python work is per distinct matched key and per gap
between matches rather than per row.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress, repeat
from typing import Dict, Iterator, List, Sequence

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from .base import Metrics, Operator

__all__ = ["HashJoin", "MergeJoin", "NestedLoopJoin"]


class _JoinBase(Operator):
    """Joins are not partition-transparent (``partition_kind`` stays
    ``None``): they combine two streams, so exchange placement recurses
    into each side instead — either input may itself be a parallelized
    chain.  (Partitioning the *probe* loop against a shared built table is
    the natural next step; it needs a build-once barrier the current
    exchange does not model.)"""

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

    def _joined(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        left_ids: Sequence[int],
        right_ids: Sequence[int],
    ) -> ColumnBatch:
        """The rows ``left[i] + right[j]`` for each id pair ``(i, j)``."""
        return ColumnBatch(
            self.schema,
            left.take(left_ids).columns + right.take(right_ids).columns,
            len(left_ids),
        )

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


def _rechunk(
    batches: Iterator[ColumnBatch], batch_size: int
) -> Iterator[ColumnBatch]:
    """Re-cut a stream of non-empty batches of any length into
    ``batch_size`` chunks, each yielded as soon as it is full."""
    pending: List[ColumnBatch] = []
    count = 0
    for batch in batches:
        pending.append(batch)
        count += len(batch)
        if count < batch_size:
            continue
        merged = ColumnBatch.concat(pending)
        if count == batch_size:
            yield merged
            pending, count = [], 0
            continue
        full = count - count % batch_size
        for start in range(0, full, batch_size):
            yield merged.slice(start, start + batch_size)
        pending = [merged.slice(full, count)] if full < count else []
        count -= full
    if pending:
        yield ColumnBatch.concat(pending)


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
        """Map each build key to its build positions, then probe left
        batch-wise.  Single-column joins (every date rewrite's shape) key
        on the bare value instead of a 1-tuple.  Probe order — and
        therefore the declared left ordering — is preserved; counters
        charge per batch."""
        return _rechunk(self._probe(metrics, batch_size), batch_size)

    def _probe(self, metrics: Metrics, batch_size: int) -> Iterator[ColumnBatch]:
        """One batch of joined rows per probe batch that matched at all."""
        built: List[ColumnBatch] = []
        for batch in self.right.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            metrics.add("hash_build_rows", len(batch))
            built.append(batch)
        if built:
            build = ColumnBatch.concat(built)
        else:
            build = ColumnBatch.empty(self.right.schema)
        table: Dict = {}
        setdefault = table.setdefault
        for position, key in enumerate(build.key_vector(self._right_positions)):
            setdefault(key, []).append(position)

        get = table.get
        for batch in self.left.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            metrics.add("hash_probe_rows", len(batch))
            found = list(map(get, batch.key_vector(self._left_positions)))
            matched = list(compress(found, found))
            if not matched:
                continue
            right_ids = list(chain.from_iterable(matched))
            left_ids = list(compress(range(len(batch)), found))
            if len(right_ids) != len(left_ids):  # some probe row matched twice
                left_ids = list(
                    chain.from_iterable(map(repeat, left_ids, map(len, matched)))
                )
            metrics.add("join_rows", len(right_ids))
            yield self._joined(batch, build, left_ids, right_ids)


class MergeJoin(_JoinBase):
    """Sort-merge join.  **Precondition**: both inputs ordered by their join
    keys (the optimizer inserts Sorts, or — with ODs — proves them away).

    Both inputs are collected whole and merged by :meth:`_merge`, a
    galloping merge whose result and ``merge_steps`` are those of the
    classic two-pointer walk.  Output ordering: the left input's ordering.
    """

    def __init__(self, left, right, left_keys, right_keys) -> None:
        super().__init__(left, right, left_keys, right_keys)
        self.ordering = left.ordering  # preserves the probe side's spec

    def _merge(
        self, left_keys: Sequence, right_keys: Sequence, metrics: Metrics
    ) -> "tuple[List[int], List[int]]":
        """Match two ascending key vectors, returning the matched ``(left
        ids, right ids)`` in left order, each left row's matches in right
        order; ``merge_steps``/``join_rows`` are charged once, with their
        totals.

        The merge gallops: where the keys differ, the lagging side jumps
        to the other side's key with ``bisect_left``; on a match,
        ``bisect_right`` finds both runs and their cross product is
        emitted by ``range``/``repeat``.  Python work is per matched key
        and per gap, not per row.  ``merge_steps`` stays the two-pointer
        walk's count: one step per row a side skips, one per matched key.
        Bisection is exact because keys are totally ordered (the engine
        stores no NULL and no NaN).
        """
        left_ids: List[int] = []
        right_ids: List[int] = []
        steps = 0
        i = j = 0
        left_count, right_count = len(left_keys), len(right_keys)
        while i < left_count and j < right_count:
            left_key = left_keys[i]
            right_key = right_keys[j]
            if left_key < right_key:
                stop = bisect_left(left_keys, right_key, i + 1)
                steps += stop - i
                i = stop
            elif left_key > right_key:
                stop = bisect_left(right_keys, left_key, j + 1)
                steps += stop - j
                j = stop
            else:
                steps += 1
                left_stop = bisect_right(left_keys, left_key, i + 1)
                right_stop = bisect_right(right_keys, right_key, j + 1)
                width = right_stop - j
                if width == 1:
                    left_ids += range(i, left_stop)
                    right_ids += repeat(j, left_stop - i)
                else:
                    left_ids += chain.from_iterable(
                        map(repeat, range(i, left_stop), repeat(width))
                    )
                    right_ids += chain.from_iterable(
                        repeat(range(j, right_stop), left_stop - i)
                    )
                i, j = left_stop, right_stop
        if steps:
            metrics.add("merge_steps", steps)
        if left_ids:
            metrics.add("join_rows", len(left_ids))
        return left_ids, right_ids

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Merge the two inputs, each collected whole, and gather the
        output in chunks."""
        left = self.left.collect(metrics, batch_size)
        right = self.right.collect(metrics, batch_size)
        left_ids, right_ids = self._merge(
            left.key_vector(self._left_positions),
            right.key_vector(self._right_positions),
            metrics,
        )
        for start in range(0, len(left_ids), batch_size):
            stop = start + batch_size
            yield self._joined(
                left, right, left_ids[start:stop], right_ids[start:stop]
            )


class NestedLoopJoin(_JoinBase):
    """Tuple-at-a-time nested loops (any predicate via key equality here);
    kept as the baseline everything else beats.  Preserves outer ordering."""

    def __init__(self, left, right, left_keys, right_keys) -> None:
        super().__init__(left, right, left_keys, right_keys)
        self.ordering = left.ordering  # preserves the probe side's spec

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        return _rechunk(self._loop(metrics, batch_size), batch_size)

    def _loop(self, metrics: Metrics, batch_size: int) -> Iterator[ColumnBatch]:
        """One batch of joined rows per outer batch that matched at all."""
        inner = self.right.collect(metrics, batch_size)
        inner_keys = inner.keys(self._right_positions)
        for batch in self.left.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            left_ids: List[int] = []
            right_ids: List[int] = []
            for i, left_key in enumerate(batch.keys(self._left_positions)):
                for j, right_key in enumerate(inner_keys):
                    if left_key == right_key:
                        left_ids.append(i)
                        right_ids.append(j)
            if inner_keys:  # no comparison made, no counter key created
                metrics.add("nl_comparisons", len(batch) * len(inner_keys))
            if left_ids:
                metrics.add("join_rows", len(left_ids))
                yield self._joined(batch, inner, left_ids, right_ids)
