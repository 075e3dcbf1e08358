"""Scan operators: sequential scans and index range scans.

Scans introduce table rows into a plan under an *alias*: output columns are
named ``alias.column`` so joins never collide and the binder can resolve
unqualified references by suffix.

A scan carries only the columns its query reads.  The planner hands each
scan the bare column names referenced through its alias (``columns``);
the scan keeps those, in table order, plus an index scan's key columns
(its declared ordering names them), and never fewer than one.  Filters,
joins and aggregates above then move only those vectors.  ``columns=None``
reads every column.  A scan's schema is therefore a subset of its
table's: resolve its columns by name, never by table position.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from ..index import SortedIndex
from ..schema import Column, Schema
from ..table import Table
from .base import Metrics, Operator, order_spec

__all__ = ["SeqScan", "IndexScan", "ShippedScan", "qualified_schema"]


def qualified_schema(
    table: Table, alias: str, columns: Optional[Sequence[str]] = None
) -> Schema:
    """The table's schema with every column (or only ``columns``, in table
    order) qualified by the alias."""
    return Schema(
        Column(f"{alias}.{column.name}", column.dtype)
        for column in table.schema
        if columns is None or column.name in columns
    )


def _kept_columns(
    table: Table, columns: Optional[Sequence[str]], keys: Sequence[str] = ()
) -> Tuple[str, ...]:
    """The bare columns a scan reads, in table order: ``columns`` plus
    ``keys`` (all of them for ``None``), and at least the first column so
    no batch is ever zero-width."""
    names = table.schema.names
    if columns is None:
        return tuple(names)
    wanted = set(columns).union(keys)
    return tuple(name for name in names if name in wanted) or tuple(names[:1])


def _live_columns(scan) -> List[list]:
    """The table's live column lists a scan reads: slice or gather from
    them, never hand one out."""
    columns = scan.table.columnar()
    position = scan.table.schema.position
    return [columns[position(name)] for name in scan.columns]


def _pruned_args(scan) -> dict:
    """The ``columns`` trace arg of a scan that reads fewer columns than
    its table has (none for a full-width scan)."""
    if len(scan.columns) == len(scan.table.schema):
        return {}
    return {"columns": ", ".join(scan.columns)}


class SeqScan(Operator):
    """Full sequential scan of the ``columns`` it reads.  No ordering
    guarantee.

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
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.table = table
        self.alias = alias or table.name
        self.columns = _kept_columns(table, columns)
        self.schema = qualified_schema(table, self.alias, self.columns)
        self.ordering = ()
        self.partition = partition  # (index, count) or None

    def partition_clone(self, index: int, count: int) -> "SeqScan":
        return SeqScan(
            self.table, self.alias, partition=(index, count), columns=self.columns
        )

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
        columns = _live_columns(self)
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
        return {"table": self.table.name, "alias": self.alias, **_pruned_args(self)}

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
            return (
                _rebuild_seq_scan, (token, self.alias, self.partition, self.columns)
            )
        start, stop = self._bounds()
        columns = _live_columns(self)
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
    inclusive key-prefix bounds.  The key columns are always among the
    ``columns`` it reads: its ordering, and a merge exchange above it,
    name them.

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
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.index = index
        self.table = index.table
        self.alias = alias or index.table.name
        self.low = low
        self.high = high
        self.columns = _kept_columns(self.table, columns, index.key_columns)
        self.schema = qualified_schema(self.table, self.alias, self.columns)
        self.ordering = tuple(
            order_spec(f"{self.alias}.{column}" for column in index.key_columns)
        )
        self.partition = partition  # (index, count) or None

    def partition_clone(self, index: int, count: int) -> "IndexScan":
        return IndexScan(
            self.index,
            self.alias,
            self.low,
            self.high,
            partition=(index, count),
            columns=self.columns,
        )

    def _position_bounds(self) -> "tuple[int, int]":
        start, stop = self.index.range_positions(self.low, self.high)
        if self.partition is None:
            return start, stop
        index, count = self.partition
        width = max(0, stop - start)
        return start + (index * width) // count, start + ((index + 1) * width) // count

    def _source(self) -> "tuple[ColumnBatch, List[int]]":
        """The table's column view (the columns this scan reads) as one
        batch to gather from, and the row ids of this scan's entry range
        in key order."""
        rowids = self.index.rowids(*self._position_bounds())
        table = ColumnBatch(self.schema, _live_columns(self), len(self.table.rows))
        return table, rowids

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Gather the key-ordered entry range by row id, chunk by chunk;
        one ``index_probes`` plus per-batch ``rows_scanned`` charges.  Key
        order carries batch-to-batch."""
        if self.partition is None or self.partition[0] == 0:
            metrics.add("index_probes")
        table, rowids = self._source()
        for start in range(0, len(rowids), batch_size):
            chunk = rowids[start:start + batch_size]
            metrics.check_cancel()
            metrics.add("rows_scanned", len(chunk))
            yield table.take(chunk)

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
            **_pruned_args(self),
        }

    def __reduce__(self):
        """Same two shipping modes as :meth:`SeqScan.__reduce__`.

        The materialized form resolves the partition's position bounds
        against the live index and ships the rows of that slice, gathered
        by row id — they are in key order, so the declared (qualified)
        ``OrderSpec`` travels with them.  The per-execute
        ``index_probes`` charge stays with partition 0 (``charge_probe``)
        so shipped partition totals still sum to the serial scan's.
        """
        from ..parallel import active_ship_tokens

        token = ("index", id(self.index))
        if token in active_ship_tokens():
            return (
                _rebuild_index_scan,
                (
                    token,
                    self.alias,
                    self.low,
                    self.high,
                    self.partition,
                    self.columns,
                ),
            )
        table, rowids = self._source()
        rows = table.take(rowids)
        charge_probe = self.partition is None or self.partition[0] == 0
        return (
            ShippedScan,
            (self.schema, rows.columns, len(rows), tuple(self.ordering), charge_probe),
        )


def _rebuild_seq_scan(token, alias, partition, columns) -> SeqScan:
    """Worker-side: rebuild a ``SeqScan`` over the fork-inherited table."""
    from ..parallel import shipped_object

    table = shipped_object(token)
    if table is None:  # pragma: no cover - epoch-keyed restarts prevent this
        raise RuntimeError("shipped table missing from worker registry (stale pool?)")
    return SeqScan(table, alias, partition=partition, columns=columns)


def _rebuild_index_scan(token, alias, low, high, partition, columns) -> IndexScan:
    """Worker-side: rebuild an ``IndexScan`` over the fork-inherited index."""
    from ..parallel import shipped_object

    index = shipped_object(token)
    if index is None:  # pragma: no cover - epoch-keyed restarts prevent this
        raise RuntimeError("shipped index missing from worker registry (stale pool?)")
    return IndexScan(index, alias, low, high, partition=partition, columns=columns)


class ShippedScan(Operator):
    """A scan materialized for shipping to another process.

    Holds plain column sequences (lists or tuples) — only the columns the
    scan it replaced reads — plus that scan's (qualified) schema — no ``Table`` or ``SortedIndex`` back-pointers, so pickling
    it costs exactly its data.  Metrics parity with the scan it replaced:
    ``rows_scanned`` per batch, and ``index_probes`` once when
    ``charge_probe`` (the shipped form of "partition 0 owns the
    per-execute probe charge").
    ``ordering`` is the declared :class:`OrderSpec` the source scan
    guaranteed — an index partition's slice is in key order, so the
    guarantee survives the wire.
    """

    def __init__(
        self,
        schema: Schema,
        columns: List[Sequence],
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
