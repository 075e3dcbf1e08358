"""Streaming operators: Filter, Project, Limit, Distinct.

Each documents how it transforms the *order property* of its input — the
bookkeeping that lets the optimizer know when a downstream sort is
unnecessary — and provides both a row-at-a-time ``execute`` and a
vectorized ``execute_batches`` (Filter/Project evaluate expressions
through the fused kernels of :mod:`repro.engine.expr`).
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from ..expr import Col, Expr, vectorized_kernel
from ..schema import Column, Schema
from ..types import DataType
from .base import Metrics, Operator

__all__ = ["Filter", "Project", "Limit", "HashDistinct", "SortedDistinct"]


class Filter(Operator):
    """Predicate filter; preserves input ordering.

    Partition-transparent: the predicate decides each row independently
    and survivors keep their relative order, so a clone above each
    contiguous partition concatenates to the serial stream with
    row-linear (``rows_filtered``) charges that sum exactly.
    """

    partition_kind = "transparent"

    def __init__(self, child: Operator, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self.ordering = child.ordering  # order-preserving: same spec as input
        self._compiled = predicate.compile_against(child.schema)
        self._kernel = None  # vectorized predicate, compiled on first batch

    def partition_through(self, child: Operator) -> "Filter":
        return Filter(child, self.predicate)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, metrics: Metrics) -> Iterator[tuple]:
        compiled = self._compiled
        for row in self.child.execute(metrics):
            metrics.add("rows_filtered")
            if compiled(row):
                yield row

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """One kernel call builds the selection mask for a whole batch;
        surviving rows keep their relative (stream) order."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = vectorized_kernel(
                self.predicate, self.child.schema
            )
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            metrics.add("rows_filtered", length)
            out = batch.filter(kernel(batch.columns, length))
            if len(out):
                yield out

    def label(self) -> str:
        return f"Filter({self.predicate.render()})"

    def trace_args(self) -> dict:
        return {"predicate": self.predicate.render()}

    # Picklable for process-backend shipping: the compiled row closure
    # and vectorized kernel are code objects (unpicklable) *derived from*
    # the predicate — ship the constructor args, recompile in the worker.
    def __getstate__(self):
        return (self.child, self.predicate)

    def __setstate__(self, state):
        child, predicate = state
        self.__init__(child, predicate)


class Project(Operator):
    """Compute output expressions (projection / renaming).

    Ordering propagation: the output is ordered by the longest prefix of the
    input ordering whose columns survive as pass-through ``Col`` outputs
    (renamed accordingly).

    Partition-transparent: output expressions are pure row-wise functions,
    so a clone above each contiguous partition concatenates to the serial
    stream (Project charges no counters at all).
    """

    partition_kind = "transparent"

    def __init__(
        self,
        child: Operator,
        exprs: Sequence[Expr],
        names: Sequence[str],
    ) -> None:
        if len(exprs) != len(names):
            raise ValueError("Project: exprs/names length mismatch")
        self.child = child
        self.exprs = tuple(exprs)
        self.names = tuple(names)
        self.schema = Schema(
            Column(name, _infer_dtype(expr, child.schema))
            for name, expr in zip(self.names, self.exprs)
        )
        self._compiled = [expr.compile_against(child.schema) for expr in self.exprs]
        self._kernels = None  # vectorized outputs, compiled on first batch
        self.ordering = self._propagate_ordering()

    def partition_through(self, child: Operator) -> "Project":
        return Project(child, self.exprs, self.names)

    def _propagate_ordering(self) -> Tuple[str, ...]:
        rename: dict = {}
        for expr, name in zip(self.exprs, self.names):
            if isinstance(expr, Col):
                resolved = self.child.schema.resolve(expr.name)
                rename.setdefault(resolved, name)
        # OrderSpec.rename: the longest surviving prefix, renamed; ordering
        # beyond a dropped column is lost.
        return tuple(self.child.provides().rename(rename))

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, metrics: Metrics) -> Iterator[tuple]:
        compiled = self._compiled
        for row in self.child.execute(metrics):
            yield tuple(fn(row) for fn in compiled)

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """One kernel call per output column per batch (pass-through
        columns are shared, not copied)."""
        kernels = self._kernels
        if kernels is None:
            child_schema = self.child.schema
            kernels = self._kernels = [
                vectorized_kernel(expr, child_schema) for expr in self.exprs
            ]
        schema = self.schema
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            length = len(batch)
            if not length:
                continue
            columns = batch.columns
            yield ColumnBatch(
                schema, [kernel(columns, length) for kernel in kernels], length
            )

    def label(self) -> str:
        parts = ", ".join(
            f"{expr.render()} AS {name}" if expr.render() != name else name
            for expr, name in zip(self.exprs, self.names)
        )
        return f"Project({parts})"

    def trace_args(self) -> dict:
        return {"names": ", ".join(self.names)}

    # Picklable for process-backend shipping: compiled closures/kernels
    # are derived state — ship the constructor args, recompile in the
    # worker (expressions themselves are frozen dataclasses, picklable).
    def __getstate__(self):
        return (self.child, self.exprs, self.names)

    def __setstate__(self, state):
        child, exprs, names = state
        self.__init__(child, exprs, names)


def _infer_dtype(expr: Expr, schema: Schema) -> DataType:
    """Best-effort output typing; falls back to FLOAT for computed values."""
    if isinstance(expr, Col):
        return schema.dtype_of(expr.name)
    from ..expr import Func, Lit

    if isinstance(expr, Lit):
        import datetime

        if isinstance(expr.value, bool):
            return DataType.BOOL
        if isinstance(expr.value, int):
            return DataType.INT
        if isinstance(expr.value, float):
            return DataType.FLOAT
        if isinstance(expr.value, datetime.date):
            return DataType.DATE
        return DataType.STR
    if isinstance(expr, Func) and expr.name in (
        "YEAR",
        "QUARTER",
        "MONTH",
        "DAY",
        "DAY_OF_YEAR",
        "WEEK",
        "LENGTH",
    ):
        return DataType.INT
    return DataType.FLOAT


class Limit(Operator):
    """First ``n`` rows; preserves ordering.

    Deliberately has **no native batch path**: the base-class adapter runs
    the subtree in row mode.  Limit is the one operator that stops pulling
    its child early, and a columnar child would charge whole batches of
    scan work the row path never does — the adapter keeps early-
    termination (and therefore metrics parity between modes) exact, and a
    LIMIT plan's output is bounded anyway.

    For the same reason Limit is a parallelism **barrier**: exchange
    placement never descends into its subtree — eagerly drained partitions
    would charge scan work the early-terminating serial path never does.
    """

    partition_kind = "barrier"

    def __init__(self, child: Operator, count: int) -> None:
        self.child = child
        self.count = count
        self.schema = child.schema
        self.ordering = child.ordering  # order-preserving: same spec as input

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, metrics: Metrics) -> Iterator[tuple]:
        emitted = 0
        for row in self.child.execute(metrics):
            if emitted >= self.count:
                break
            emitted += 1
            yield row

    def label(self) -> str:
        return f"Limit({self.count})"


class HashDistinct(Operator):
    """Duplicate elimination via hashing; destroys ordering.

    Not partition-transparent (``partition_kind`` stays ``None``): which
    duplicate survives depends on cross-partition state (the first
    occurrence in the *whole* stream), so exchange placement parallelizes
    below it, never through it.
    """

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.schema = child.schema
        self.ordering = ()

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, metrics: Metrics) -> Iterator[tuple]:
        seen: set = set()
        for row in self.child.execute(metrics):
            metrics.add("hash_probe_rows")
            if row not in seen:
                seen.add(row)
                yield row

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        seen: set = set()
        add = seen.add
        schema = self.schema
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            metrics.add("hash_probe_rows", len(batch))
            out: List[tuple] = []
            append = out.append
            for row in batch.rows():
                if row not in seen:
                    add(row)
                    append(row)
            if out:
                yield ColumnBatch.from_rows(schema, out)

    def label(self) -> str:
        return "HashDistinct"


class SortedDistinct(Operator):
    """Duplicate elimination over a sorted stream — no hash table needed.

    Requires the input ordered by (at least) all output columns; valid when
    the optimizer can prove it via order properties, exactly the "distinct
    is exchangeable with group-by" observation of Section 2.3.

    Not partition-transparent: run suppression carries state across rows
    (a run spanning a partition boundary would emit twice), so exchange
    placement parallelizes below it, never through it.
    """

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.schema = child.schema
        self.ordering = child.ordering  # order-preserving: same spec as input

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, metrics: Metrics) -> Iterator[tuple]:
        previous: Optional[tuple] = None
        for row in self.child.execute(metrics):
            if row != previous:
                yield row
                previous = row

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        previous: Optional[tuple] = None  # carried across batch boundaries
        schema = self.schema
        for batch in self.child.execute_batches(metrics, batch_size):
            metrics.check_cancel()
            out: List[tuple] = []
            append = out.append
            for row in batch.rows():
                if row != previous:
                    append(row)
                    previous = row
            if out:
                yield ColumnBatch.from_rows(schema, out)

    def label(self) -> str:
        return "SortedDistinct"
