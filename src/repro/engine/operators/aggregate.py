"""Aggregation: hash-based and stream (sort-based) group-by.

The paper's Example 1 turns on exactly this choice: a group-by over a
stream already ordered compatibly with the grouping columns runs *on the
fly* (:class:`StreamAggregate` — group boundaries are found in the stream),
while an unordered input needs a partitioning operation
(:class:`HashAggregate`) or an explicit sort.

:class:`HashAggregate` folds whole batches into per-aggregate
accumulator dicts (``Counter`` for the shared row counts — also the
first-seen emission order — plus one dict per SUM/AVG/MIN/MAX);
:class:`StreamAggregate` finds each batch's key runs in one C-level pass
and folds each run straight into one value per aggregate, so its Python
work is per run, not per row.  Both add a group's values left to right
in stream order, from the int 0, so float results do not depend on the
batch size or on the Python version.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import add, ne, sub, truediv
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

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

    def _global_batches(
        self, metrics: Metrics, batch_size: int, counter: Optional[str]
    ) -> Iterator[ColumnBatch]:
        """The no-grouping-columns case shared by both aggregates: every
        row lands in one group, which SQL emits even over zero rows (COUNT
        0, every other aggregate NULL).  Each batch is one run."""
        kernels = self._kernels()
        count = 0
        values: List[Any] = [None] * len(self.aggregates)
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            if counter is not None:
                metrics.add(counter, length)
            if not length:
                continue
            count += length
            for index, (spec, kernel) in enumerate(zip(self.aggregates, kernels)):
                if spec.func != "COUNT":
                    runs = (kernel(batch.columns, length),)
                    values[index] = _fold_runs(spec.func, runs, values[index])[0]
        row = []
        for spec, value in zip(self.aggregates, values):
            if spec.func == "COUNT":
                row.append(count)
            elif spec.func == "AVG" and count:
                row.append(value / count)
            else:
                row.append(value)
        yield ColumnBatch.from_rows(self.schema, [tuple(row)])

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
        key in row order.  The result is built as columns, one
        ``batch_size`` slice of the groups at a time.
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
            keys = batch.key_vector(self._group_positions)
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

        # Emit columns, not row tuples: each slice of the first-seen keys,
        # then one vector per aggregate looked up in that order.
        groups = list(counts)
        schema = self.schema
        for start in range(0, len(groups), batch_size):
            chunk = groups[start:start + batch_size]
            columns: List[Sequence] = [chunk] if single else list(zip(*chunk))
            for func, _, accumulator in folds:
                if func == "COUNT":
                    columns.append(list(map(counts.__getitem__, chunk)))
                elif func == "AVG":
                    columns.append([accumulator[key] / counts[key] for key in chunk])
                else:
                    # Every emitted group counted at least one row, so SUM
                    # is never the NULL of an empty group here.
                    columns.append(list(map(accumulator.__getitem__, chunk)))
            yield ColumnBatch(schema, columns, len(chunk))


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
        """Fold the stream one key run at a time.

        A batch's run starts come from one C-level pass (the rows whose
        key differs from the previous row's), and each run is folded
        straight into one value per aggregate (:func:`_fold_runs`).  A
        batch's last run stays open: when the next batch starts with the
        same key it keeps accumulating — the operator's contiguity
        precondition guarantees the key never reappears later.  Finished
        groups are emitted as columns, ``batch_size`` groups at a time."""
        if not self.group_columns:
            yield from self._global_batches(metrics, batch_size, None)
            return
        funcs = [spec.func for spec in self.aggregates]
        kernels = self._kernels()
        # Groups so far: keys, row counts, one value list per aggregate
        # (none for COUNT).  The last group is open — the next batch may
        # continue it — and the others are finished.
        group_keys: List = []
        counts: List[int] = []
        values: List[List] = [[] for _ in funcs]
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            if not length:
                continue
            keys = batch.key_vector(self._group_positions)
            starts = [0]
            starts += compress(range(1, length), map(ne, islice(keys, 1, None), keys))
            stops = starts[1:]
            stops.append(length)
            run_counts = list(map(sub, stops, starts))
            continues = bool(group_keys) and keys[0] == group_keys[-1]
            if continues:  # the open group keeps its first key
                counts[-1] += run_counts[0]
                group_keys += map(keys.__getitem__, islice(starts, 1, None))
                counts += islice(run_counts, 1, None)
            else:
                group_keys += map(keys.__getitem__, starts)
                counts += run_counts
            for func, kernel, folded in zip(funcs, kernels, values):
                if func == "COUNT":  # counted in ``counts``
                    continue
                vector = kernel(batch.columns, length)
                runs = map(vector.__getitem__, map(slice, starts, stops))
                if continues:
                    folded[-1:] = _fold_runs(func, runs, folded[-1])
                else:
                    folded += _fold_runs(func, runs, None)
            finished = len(group_keys) - 1
            if finished >= batch_size:
                full = finished - finished % batch_size
                for start in range(0, full, batch_size):
                    yield self._groups(group_keys, counts, values, start, start + batch_size)
                del group_keys[:full], counts[:full]
                for folded in values:
                    del folded[:full]
        if group_keys:
            yield self._groups(group_keys, counts, values, 0, len(group_keys))

    def _groups(
        self,
        keys: List,
        counts: List[int],
        values: List[List],
        start: int,
        stop: int,
    ) -> ColumnBatch:
        """Groups ``start:stop`` as one batch of columns."""
        chunk = keys[start:stop]
        columns: List[Sequence] = (
            [chunk] if len(self._group_positions) == 1 else list(zip(*chunk))
        )
        for spec, finished in zip(self.aggregates, values):
            if spec.func == "COUNT":
                columns.append(counts[start:stop])
            elif spec.func == "AVG":
                columns.append(
                    list(map(truediv, finished[start:stop], counts[start:stop]))
                )
            else:
                columns.append(finished[start:stop])
        return ColumnBatch(self.schema, columns, stop - start)


def _fold_runs(func: str, runs: Iterable[Sequence], carried: Any) -> list:
    """SUM, AVG, MIN or MAX of each run, one value per run.

    ``carried`` is the open group's value when the first run continues
    it, else ``None``.  Sums add strictly left to right from the int 0,
    like :class:`HashAggregate`'s ``+=`` (``sum()`` compensates float
    addition since Python 3.12, so its bits would depend on how a group
    is split into runs); MIN and MAX keep the earlier element on ties.
    """
    if func in ("SUM", "AVG"):
        first = 0 if carried is None else carried
        return list(map(reduce, repeat(add), runs, chain((first,), repeat(0))))
    pick = min if func == "MIN" else max
    folded = list(map(pick, runs))
    if carried is not None:
        folded[0] = pick(carried, folded[0])
    return folded


class PartialHashAggregate(HashAggregate):
    """A rewrite-introduced partial fold placed *below* a join (eager
    aggregation).  Execution is exactly :class:`HashAggregate` — the split
    into partial + final stages is the logical rewrite's responsibility
    (`repro.optimizer.rewrites`), which only fires for decomposable
    aggregates (COUNT/SUM/MIN/MAX) with integer-typed SUM arguments so the
    recombined results are value-identical to the unrewritten fold.  The
    subclass exists so EXPLAIN trees and tests can tell the stages apart."""


class PartialStreamAggregate(StreamAggregate):
    """Streaming variant of :class:`PartialHashAggregate` — chosen by the
    planner when the partial group columns are provably ordered (the same
    order-property reasoning that picks :class:`StreamAggregate`)."""
