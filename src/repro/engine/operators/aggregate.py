"""Aggregation: hash-based and stream (sort-based) group-by.

The paper's Example 1 turns on exactly this choice: a group-by over a
stream already ordered compatibly with the grouping columns runs *on the
fly* (:class:`StreamAggregate` — group boundaries are found in the stream),
while an unordered input needs a partitioning operation
(:class:`HashAggregate`) or an explicit sort.

:class:`HashAggregate` folds whole batches into per-aggregate
accumulator dicts (``Counter`` for the shared row counts — also the
first-seen emission order — plus one dict per SUM/AVG/MIN/MAX);
:class:`StreamAggregate` splits each batch into contiguous key runs and
folds each run in one ``update_many`` step.  Both add a group's values
left to right in stream order, so float results do not depend on the
batch size.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterator, List, Optional, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from ..expr import vectorized_kernel
from ..schema import Column, Schema
from ..types import DataType
from .base import AggSpec, Metrics, Operator
from .basic import _infer_dtype

__all__ = [
    "HashAggregate",
    "StreamAggregate",
    "PartialHashAggregate",
    "PartialStreamAggregate",
]


def _output_schema(
    child: Operator, group_columns: Tuple[str, ...], aggregates: Tuple[AggSpec, ...]
) -> Schema:
    columns: List[Column] = []
    for name in group_columns:
        resolved = child.schema.resolve(name)
        columns.append(Column(resolved, child.schema.dtype_of(resolved)))
    for spec in aggregates:
        if spec.func == "COUNT":
            dtype = DataType.INT
        elif spec.expr is not None and spec.func in ("MIN", "MAX", "SUM"):
            dtype = _infer_dtype(spec.expr, child.schema)
        else:
            dtype = DataType.FLOAT
        columns.append(Column(spec.name, dtype))
    return Schema(columns)


class _AggregateBase(Operator):
    """Aggregates are not partition-transparent (``partition_kind`` stays
    ``None``): a two-phase partial/final split would re-associate float
    SUM/AVG folds — ``(a+b)+(c+d)`` is not bit-identical to
    ``((a+b)+c)+d`` — and HashAggregate's first-seen emission order is a
    whole-stream fact.  Exchange placement therefore parallelizes the
    *input* chain and keeps the fold serial, preserving the exact
    bit-for-bit results the differential harness demands."""

    def __init__(
        self,
        child: Operator,
        group_columns: Sequence[str],
        aggregates: Sequence[AggSpec],
    ) -> None:
        self.child = child
        self.group_columns: Tuple[str, ...] = tuple(
            child.schema.resolve(column) for column in group_columns
        )
        self.aggregates: Tuple[AggSpec, ...] = tuple(aggregates)
        self.schema = _output_schema(child, self.group_columns, self.aggregates)
        self._group_positions = tuple(
            child.schema.position(column) for column in self.group_columns
        )
        self._agg_kernels: Optional[list] = None  # compiled on first batch

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def _kernels(self) -> list:
        """Vectorized argument evaluators, one per aggregate (``None``
        for ``COUNT(*)``)."""
        kernels = self._agg_kernels
        if kernels is None:
            child_schema = self.child.schema
            kernels = self._agg_kernels = [
                vectorized_kernel(spec.expr, child_schema)
                if spec.expr is not None
                else None
                for spec in self.aggregates
            ]
        return kernels

    def _batch_keys(self, batch: ColumnBatch):
        """The grouping-key vector for one batch: the bare column for a
        single grouping column, row tuples otherwise."""
        positions = self._group_positions
        if len(positions) == 1:
            return batch.columns[positions[0]]
        return list(zip(*(batch.columns[p] for p in positions)))

    def _global_batches(
        self, metrics: Metrics, batch_size: int, counter: Optional[str]
    ) -> Iterator[ColumnBatch]:
        """The no-grouping-columns case shared by both aggregates: every
        row lands in one group, which SQL emits even over zero rows."""
        kernels = self._kernels()
        states = self._fresh_states()
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            if counter is not None:
                metrics.add(counter, length)
            for state, kernel in zip(states, kernels):
                state.update_many(
                    kernel(batch.columns, length) if kernel is not None else None,
                    length,
                )
        yield ColumnBatch.from_rows(self.schema, [self._emit((), states)])

    def _fresh_states(self):
        return [spec.make_state() for spec in self.aggregates]

    def _emit(self, key: tuple, states) -> tuple:
        return key + tuple(state.result() for state in states)

    def label(self) -> str:
        parts = list(self.group_columns) + [
            f"{spec.render()} AS {spec.name}" for spec in self.aggregates
        ]
        return f"{type(self).__name__}({', '.join(parts)})"

    def trace_args(self) -> dict:
        return {
            "group_by": ", ".join(self.group_columns),
            "aggs": ", ".join(spec.render() for spec in self.aggregates),
        }


class HashAggregate(_AggregateBase):
    """Group-by via a hash partition; output order is unspecified.

    (We emit groups in first-seen order, but the operator *advertises* no
    ordering — downstream consumers must not rely on it.)
    """

    ordering: Tuple[str, ...] = ()

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Fold batches into per-aggregate accumulator dicts.

        The shared ``Counter`` of group row counts serves COUNT and AVG
        *and* fixes the emission order (dicts keep first-insertion order,
        so groups come out in first-seen order); SUM/AVG accumulate per
        key in row order.
        """
        if not self.group_columns:
            yield from self._global_batches(metrics, batch_size, "hash_build_rows")
            return
        kernels = self._kernels()
        single = len(self._group_positions) == 1
        counts: Counter = Counter()
        # per-aggregate accumulators (COUNT/AVG share ``counts``)
        folds: List[tuple] = [
            (spec.func, kernel, defaultdict(int) if spec.func in ("SUM", "AVG") else {})
            for spec, kernel in zip(self.aggregates, kernels)
        ]
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            metrics.add("hash_build_rows", length)
            keys = self._batch_keys(batch)
            counts.update(keys)
            for func, kernel, accumulator in folds:
                if func == "COUNT":
                    continue
                values = kernel(batch.columns, length)
                if func in ("SUM", "AVG"):
                    for key, value in zip(keys, values):
                        accumulator[key] += value
                elif func == "MIN":
                    get = accumulator.get
                    for key, value in zip(keys, values):
                        current = get(key)
                        if current is None or value < current:
                            accumulator[key] = value
                else:  # MAX
                    get = accumulator.get
                    for key, value in zip(keys, values):
                        current = get(key)
                        if current is None or value > current:
                            accumulator[key] = value

        out: List[tuple] = []
        schema = self.schema
        for key in counts:
            results = []
            for func, _, accumulator in folds:
                if func == "COUNT":
                    results.append(counts[key])
                elif func == "SUM":
                    # SQL: SUM of zero rows is NULL — never let the
                    # defaultdict fabricate an int 0 for an uncounted key.
                    results.append(accumulator[key] if counts[key] else None)
                elif func == "AVG":
                    results.append(accumulator[key] / counts[key])
                else:
                    results.append(accumulator[key])
            out.append(((key,) if single else key) + tuple(results))
            if len(out) >= batch_size:
                yield ColumnBatch.from_rows(schema, out)
                out = []
        if out:
            yield ColumnBatch.from_rows(schema, out)


class StreamAggregate(_AggregateBase):
    """Group-by over a stream ordered compatibly with the grouping columns.

    Emits a group whenever the grouping key changes — no hash table, no
    sort, O(1) memory.  **Precondition** (the optimizer's obligation, via
    order properties + ODs): equal grouping keys arrive contiguously.
    Output ordering: the input ordering survives to the prefix made of
    grouping columns.
    """

    def __init__(self, child, group_columns, aggregates) -> None:
        super().__init__(child, group_columns, aggregates)
        # OrderSpec.restrict: the input order survives up to the prefix
        # made of grouping columns.
        self.ordering = tuple(child.provides().restrict(self.group_columns))

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Split each batch into contiguous key runs and fold each run in
        one ``update_many`` step.  A run spanning a batch boundary keeps
        accumulating into the carried states — the operator's contiguity
        precondition guarantees the key never reappears later."""
        if not self.group_columns:
            yield from self._global_batches(metrics, batch_size, None)
            return
        kernels = self._kernels()
        single = len(self._group_positions) == 1
        current_key = None
        states = None
        out: List[tuple] = []
        schema = self.schema
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            if not length:
                continue
            keys = self._batch_keys(batch)
            vectors = [
                kernel(batch.columns, length) if kernel is not None else None
                for kernel in kernels
            ]
            start = 0
            while start < length:
                key = keys[start]
                stop = start + 1
                while stop < length and keys[stop] == key:
                    stop += 1
                if states is None:
                    current_key, states = key, self._fresh_states()
                elif key != current_key:
                    out.append(
                        self._emit(
                            (current_key,) if single else current_key, states
                        )
                    )
                    current_key, states = key, self._fresh_states()
                for state, vector in zip(states, vectors):
                    state.update_many(
                        vector[start:stop] if vector is not None else None,
                        stop - start,
                    )
                start = stop
            while len(out) >= batch_size:
                yield ColumnBatch.from_rows(schema, out[:batch_size])
                del out[:batch_size]
        if states is not None:
            out.append(self._emit((current_key,) if single else current_key, states))
        if out:
            yield ColumnBatch.from_rows(schema, out)


class PartialHashAggregate(HashAggregate):
    """A rewrite-introduced partial fold placed *below* a join (eager
    aggregation).  Execution is exactly :class:`HashAggregate` — the split
    into partial + final stages is the logical rewrite's responsibility
    (`repro.optimizer.rewrite_pack`), which only fires for decomposable
    aggregates (COUNT/SUM/MIN/MAX) with integer-typed SUM arguments so the
    recombined results are value-identical to the unrewritten fold.  The
    subclass exists so EXPLAIN trees and tests can tell the stages apart."""


class PartialStreamAggregate(StreamAggregate):
    """Streaming variant of :class:`PartialHashAggregate` — chosen by the
    planner when the partial group columns are provably ordered (the same
    order-property reasoning that picks :class:`StreamAggregate`)."""
