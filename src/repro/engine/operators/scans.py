"""Scan operators: sequential scans and index range scans.

Scans introduce table rows into a plan under an *alias*: output columns are
named ``alias.column`` so joins never collide and the binder can resolve
unqualified references by suffix.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Optional, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from ..index import SortedIndex
from ..schema import Column, Schema
from ..table import Table
from .base import Metrics, Operator, order_spec

__all__ = ["SeqScan", "IndexScan", "ShippedScan", "qualified_schema"]


def qualified_schema(table: Table, alias: str) -> Schema:
    """The table's schema with every column qualified by the alias."""
    return Schema(
        Column(f"{alias}.{column.name}", column.dtype) for column in table.schema
    )


class SeqScan(Operator):
    """Full sequential scan.  No ordering guarantee.

    A partitionable source: partition ``i`` of ``k`` is the contiguous row
    range ``[i*N//k, (i+1)*N//k)``, resolved against the table's row count
    at *execution* time (plans never bake in a length the epoch clock
    would have to guard).
    """

    partition_kind = "source"

    def __init__(
        self,
        table: Table,
        alias: Optional[str] = None,
        partition: Optional[tuple] = None,
    ) -> None:
        self.table = table
        self.alias = alias or table.name
        self.schema = qualified_schema(table, self.alias)
        self.ordering = ()
        self.partition = partition  # (index, count) or None

    def partition_clone(self, index: int, count: int) -> "SeqScan":
        return SeqScan(self.table, self.alias, partition=(index, count))

    def _bounds(self) -> "tuple[int, int]":
        total = len(self.table.rows)
        if self.partition is None:
            return 0, total
        index, count = self.partition
        return (index * total) // count, ((index + 1) * total) // count

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Slice the table's cached columnar view; ``rows_scanned`` is
        charged once per batch with the batch length (partition totals sum
        to the unpartitioned scan's)."""
        columns = self.table.columnar()
        first, last = self._bounds()
        schema = self.schema
        for start in range(first, last, batch_size):
            stop = min(start + batch_size, last)
            metrics.check_cancel()
            metrics.add("rows_scanned", stop - start)
            yield ColumnBatch(
                schema, [column[start:stop] for column in columns], stop - start
            )

    def label(self) -> str:
        suffix = ""
        if self.partition is not None:
            suffix = f" [part {self.partition[0] + 1}/{self.partition[1]}]"
        return f"SeqScan({self.table.name} AS {self.alias}{suffix})"

    def trace_args(self) -> dict:
        return {"table": self.table.name, "alias": self.alias}

    def __reduce__(self):
        """Pickling ships the scan to a worker process.

        When the target pool *inherited* this table through ``fork`` (the
        ship-token context says so), ship only a registry token — the
        worker rebuilds a normal ``SeqScan`` over the object it already
        holds, zero data copied.  Otherwise materialize: resolve the
        partition bounds now (pickling happens at execution start, so
        these are execution-time bounds) and ship the column slices as a
        :class:`ShippedScan` with no ``Table`` back-pointer.
        """
        from ..parallel import active_ship_tokens

        token = ("table", id(self.table))
        if token in active_ship_tokens():
            return (_rebuild_seq_scan, (token, self.alias, self.partition))
        start, stop = self._bounds()
        columns = self.table.columnar()
        return (
            ShippedScan,
            (
                self.schema,
                [list(column[start:stop]) for column in columns],
                stop - start,
                (),
                False,
            ),
        )


class IndexScan(Operator):
    """Sorted range scan over a :class:`~repro.engine.index.SortedIndex`.

    Output is guaranteed ordered by the (qualified) index key columns — the
    order property every OD rewrite trades on.  ``low``/``high`` are
    inclusive key-prefix bounds.

    A partitionable source: the matched entry range splits into ``k``
    contiguous position slices (each sorted by the key, slices in key
    order — the shape :class:`~repro.engine.parallel.MergeExchange`
    reassembles).  The per-execute ``index_probes`` charge belongs to
    partition 0 alone so partition totals equal the serial scan's.
    """

    partition_kind = "source"

    def __init__(
        self,
        index: SortedIndex,
        alias: Optional[str] = None,
        low: Optional[tuple] = None,
        high: Optional[tuple] = None,
        partition: Optional[tuple] = None,
    ) -> None:
        self.index = index
        self.table = index.table
        self.alias = alias or index.table.name
        self.low = low
        self.high = high
        self.schema = qualified_schema(index.table, self.alias)
        self.ordering = tuple(
            order_spec(f"{self.alias}.{column}" for column in index.key_columns)
        )
        self.partition = partition  # (index, count) or None

    def partition_clone(self, index: int, count: int) -> "IndexScan":
        return IndexScan(
            self.index, self.alias, self.low, self.high, partition=(index, count)
        )

    def _position_bounds(self) -> "tuple[int, int]":
        start, stop = self.index.range_positions(self.low, self.high)
        if self.partition is None:
            return start, stop
        index, count = self.partition
        width = max(0, stop - start)
        return start + (index * width) // count, start + ((index + 1) * width) // count

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Chunk the key-ordered range scan and transpose each chunk;
        one ``index_probes`` plus per-batch ``rows_scanned`` charges.  Key
        order carries batch-to-batch."""
        if self.partition is None or self.partition[0] == 0:
            metrics.add("index_probes")
        start, stop = self._position_bounds()
        scan = self.index.scan_positions(start, stop)
        schema = self.schema
        while True:
            metrics.check_cancel()
            chunk = list(islice(scan, batch_size))
            if not chunk:
                return
            metrics.add("rows_scanned", len(chunk))
            yield ColumnBatch(schema, list(zip(*chunk)), len(chunk))

    def label(self) -> str:
        bounds = ""
        if self.low is not None or self.high is not None:
            bounds = f" [{self.low} .. {self.high}]"
        suffix = ""
        if self.partition is not None:
            suffix = f" [part {self.partition[0] + 1}/{self.partition[1]}]"
        return (
            f"IndexScan({self.index.name} ON {self.table.name} AS "
            f"{self.alias}{bounds}{suffix})"
        )

    def trace_args(self) -> dict:
        return {
            "index": self.index.name,
            "table": self.table.name,
            "alias": self.alias,
        }

    def __reduce__(self):
        """Same two shipping modes as :meth:`SeqScan.__reduce__`.

        The materialized form resolves the partition's position bounds
        against the live index and ships the rows of that slice — which
        are in key order, so the declared (qualified) ``OrderSpec``
        travels with them.  The per-execute ``index_probes`` charge stays
        with partition 0 (``charge_probe``) so shipped partition totals
        still sum to the serial scan's.
        """
        from ..parallel import active_ship_tokens

        token = ("index", id(self.index))
        if token in active_ship_tokens():
            return (
                _rebuild_index_scan,
                (token, self.alias, self.low, self.high, self.partition),
            )
        start, stop = self._position_bounds()
        rows = list(self.index.scan_positions(start, stop))
        if rows:
            columns: List[list] = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in self.schema]
        charge_probe = self.partition is None or self.partition[0] == 0
        return (
            ShippedScan,
            (self.schema, columns, len(rows), tuple(self.ordering), charge_probe),
        )


def _rebuild_seq_scan(token, alias, partition) -> SeqScan:
    """Worker-side: rebuild a ``SeqScan`` over the fork-inherited table."""
    from ..parallel import shipped_object

    table = shipped_object(token)
    if table is None:  # pragma: no cover - epoch-keyed restarts prevent this
        raise RuntimeError("shipped table missing from worker registry (stale pool?)")
    return SeqScan(table, alias, partition=partition)


def _rebuild_index_scan(token, alias, low, high, partition) -> IndexScan:
    """Worker-side: rebuild an ``IndexScan`` over the fork-inherited index."""
    from ..parallel import shipped_object

    index = shipped_object(token)
    if index is None:  # pragma: no cover - epoch-keyed restarts prevent this
        raise RuntimeError("shipped index missing from worker registry (stale pool?)")
    return IndexScan(index, alias, low, high, partition=partition)


class ShippedScan(Operator):
    """A scan materialized for shipping to another process.

    Holds plain column lists plus the (qualified) schema — no ``Table``
    or ``SortedIndex`` back-pointers, so pickling it costs exactly its
    data.  Metrics parity with the scan it replaced: ``rows_scanned``
    per batch, and ``index_probes`` once when ``charge_probe`` (the
    shipped form of "partition 0 owns the per-execute probe charge").
    ``ordering`` is the declared :class:`OrderSpec` the source scan
    guaranteed — an index partition's slice is in key order, so the
    guarantee survives the wire.
    """

    def __init__(
        self,
        schema: Schema,
        columns: List[list],
        length: int,
        ordering: Tuple[str, ...] = (),
        charge_probe: bool = False,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.length = length
        self.ordering = tuple(ordering)
        self.charge_probe = charge_probe

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        if self.charge_probe:
            metrics.add("index_probes")
        schema = self.schema
        for start in range(0, self.length, batch_size):
            stop = min(start + batch_size, self.length)
            metrics.check_cancel()
            metrics.add("rows_scanned", stop - start)
            yield ColumnBatch(
                schema, [column[start:stop] for column in self.columns], stop - start
            )

    def label(self) -> str:
        return f"ShippedScan({self.length} rows x {len(self.columns)} cols)"

    def trace_args(self) -> dict:
        return {"length": self.length, "cols": len(self.columns)}
