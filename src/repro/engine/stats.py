"""Table statistics for cardinality estimation.

Per-column min/max/distinct counts plus row counts — what a cost-based
optimizer needs to rank plan alternatives — extended with the histogram
subsystem (:mod:`repro.engine.histogram`): equi-depth histograms for
equality/range selectivity on skewed data, k-minimum-values distinct
sketches for measured join-key overlap, and per-column dependency facts
(is the column a key? is it OD-declared ordered?) read off the table's
declared constraints through the FD facet of the OD theory (Lemma 1:
every OD ``X ↦ Y`` implies the FD ``X → Y``).

Everything is collected in the single :func:`collect_stats` pass and
cached per table by :meth:`repro.engine.database.Database.stats` as a
:class:`MaintainedStats`, which records how many rows of its table (and
which constraints and indexes) it covers: a read that finds more rows
folds the new ones in, a read that finds anything else changed runs the
full pass again.  Writes to other tables and unrelated DDL leave it
alone.

There is one estimation model: histogram selectivities, sketch-measured
join overlap, FD key caps and OD interleaved-merge join bounds.  Where
the data gives a summary nothing to answer with — a column whose values
do not compare has no histogram, a bound that does not compare with the
column's values — it falls back to uniform interpolation over
[minimum, maximum], ``1/distinct`` equality and NDV containment joins.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .histogram import (
    EquiDepthHistogram,
    KMVSketch,
    build_histogram,
    build_sketch,
    extend_sketch,
    merge_join_rows,
)
from .table import Table

__all__ = [
    "DEFAULT_SELECTIVITY",
    "ColumnStats",
    "TableStats",
    "collect_stats",
    "MaintainedStats",
    "estimate_equijoin",
    "JoinKeyStats",
]

#: Selectivity assumed for predicates the estimator cannot analyze — an
#: unknown comparison, a non-numeric range, a column with no statistics.
#: One shared constant (historically ``optimizer/costing.py`` used 0.33
#: while the non-numeric range fallback here used 0.3; the estimates they
#: feed are compared against each other, so they must agree).
DEFAULT_SELECTIVITY = 0.33

@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column.

    The first three fields are the classic summary; ``histogram`` and
    ``sketch`` are the distribution summaries (None when the column is
    empty), and ``is_key``/``od_ordered`` are dependency facts derived
    from the owning table's declared constraints:

    * ``is_key`` — the column alone functionally determines every other
      column (via the FD facet of the declared FDs/ODs/equivalences), so
      an equi-join on it matches at most one row per probe;
    * ``od_ordered`` — the column leads a declared OD/equivalence or a
      sorted index, so its domain is meaningfully ordered and join-key
      overlap can use interleaved-merge range estimates.
    """

    distinct: int
    minimum: Any
    maximum: Any
    histogram: Optional[EquiDepthHistogram] = None
    sketch: Optional[KMVSketch] = None
    is_key: bool = False
    od_ordered: bool = False

    def range_selectivity(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Fraction of rows with values in the requested window.

        ``None`` bounds are open ends; inclusiveness distinguishes
        ``<`` from ``<=``.  With a histogram the bucket profile answers;
        without one (values that do not compare) or for a bound the
        histogram cannot place, :meth:`_uniform_range` interpolates over
        [minimum, maximum].  Three guarantees hold either way:

        * a window disjoint from the observed domain estimates **0.0**
          (including on constant columns, where ``span == 0`` used to
          return 1.0 for *any* window);
        * a constant column whose value lies inside the window estimates
          **1.0**;
        * a closed non-empty window never estimates below
          :meth:`equality_selectivity` — a point range ``BETWEEN x AND
          x`` is an equality, not a zero-width interval.
        """
        if self.minimum is None or self.maximum is None:
            return 1.0
        # Domain-disjointness: decisive for every summary.  Exclusive bounds
        # touching the domain edge exclude it entirely.
        try:
            if low is not None and (
                low > self.maximum
                or (low == self.maximum and not low_inclusive)
            ):
                return 0.0
            if high is not None and (
                high < self.minimum
                or (high == self.minimum and not high_inclusive)
            ):
                return 0.0
        except TypeError:  # incomparable bound (e.g. str vs int domain)
            return DEFAULT_SELECTIVITY
        if self.minimum == self.maximum:
            # Constant column and the window contains its only value.
            return 1.0
        point_range = (
            low is not None
            and high is not None
            and low == high
            and low_inclusive
            and high_inclusive
        )
        if point_range:
            return self.equality_selectivity(low)
        if self.histogram is not None:
            fraction = self.histogram.range_fraction(
                low, high, low_inclusive, high_inclusive
            )
            if fraction >= 0.0:  # negative: incomparable, fall through
                # Inclusive endpoints inside the domain contribute at
                # least their own equality mass — interpolation loses it
                # when the endpoint sits on a bucket edge (``k >= max``
                # must not estimate zero rows).
                if low is not None and low_inclusive:
                    fraction = max(fraction, self.equality_selectivity(low))
                if high is not None and high_inclusive:
                    fraction = max(fraction, self.equality_selectivity(high))
                return min(1.0, fraction)
        return self._uniform_range(low, high, low_inclusive, high_inclusive)

    def _uniform_range(
        self, low: Any, high: Any, low_inclusive: bool, high_inclusive: bool
    ) -> float:
        """The uniform-interpolation model over [minimum, maximum]."""
        lo = max(low, self.minimum) if low is not None else self.minimum
        hi = min(high, self.maximum) if high is not None else self.maximum
        try:
            span = self.maximum - self.minimum
            window = hi - lo
        except TypeError:  # non-numeric domain: fall back to the default
            return DEFAULT_SELECTIVITY
        if hasattr(span, "days"):  # date arithmetic yields timedeltas
            span = span.days
            window = window.days
        if span <= 0:  # constant column already handled; be safe
            return 1.0
        fraction = max(0.0, min(1.0, window / span))
        if low is not None and high is not None and low_inclusive and high_inclusive:
            # A closed window that reaches this far overlaps the domain:
            # it holds at least as many rows as one equality match.
            fraction = max(fraction, self.equality_selectivity())
        return fraction

    def equality_selectivity(self, value: Any = None) -> float:
        """Fraction of rows matching one value.

        Without a concrete value (or without a histogram): ``1/distinct``
        — the uniform assumption.  With both, the histogram answers from
        the owning bucket (0.0 for values outside the observed domain),
        which is what separates a heavy hitter from the long tail.
        """
        if value is not None and self.minimum is not None:
            try:
                if value < self.minimum or value > self.maximum:
                    return 0.0
            except TypeError:
                return DEFAULT_SELECTIVITY
            if self.histogram is not None:
                return self.histogram.equality_fraction(value)
        return 1.0 / max(1, self.distinct)


@dataclass
class TableStats:
    """Row count and per-column statistics."""

    row_count: int
    columns: Dict[str, ColumnStats]

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


@dataclass(frozen=True)
class JoinKeyStats:
    """One join-key pair's column statistics (either side may be None
    when the key does not resolve to a base-table column)."""

    left: Optional[ColumnStats]
    right: Optional[ColumnStats]


def estimate_equijoin(
    left_rows: float,
    right_rows: float,
    keys: Sequence[JoinKeyStats],
) -> float:
    """FD/OD-aware equi-join output estimate.

    Per key pair, most-informed model first:

    1. **OD interleaved merge** — both columns OD-declared ordered with
       histograms: :func:`~repro.engine.histogram.merge_join_rows` walks
       the merged bucket boundaries, so disjoint or partially overlapping
       key ranges estimate (near) zero matches instead of containment's
       full cross-probability; the walk is made once per pair of live
       histogram objects, whatever cardinalities each caller scales it by;
    2. **sketch overlap** — both columns sketched: the matching
       probability is ``|A ∩ B| / (ndv_l · ndv_r)`` with the intersection
       measured by the KMV sketches (containment is the special case
       ``|A ∩ B| = min(ndv)``);
    3. **containment** — the classic ``1 / max(ndv)`` (System R: the
       smaller key domain is assumed contained in the larger); a key
       pair with no usable NDV on either side divides by
       ``max(|L|, |R|)`` instead, at most once, so multi-key joins
       without statistics don't collapse to zero.

    Then the FD layer caps the result: a key column on one side matches
    at most one row per probe-side row, so the output can never exceed
    the other side's cardinality.
    """
    rows = float(left_rows) * float(right_rows)
    fallback_used = False
    applied = False
    for key in keys:
        left, right = key.left, key.right
        left_ndv = left.distinct if left is not None else 0
        right_ndv = right.distinct if right is not None else 0
        if (
            left is not None
            and right is not None
            and left.od_ordered
            and right.od_ordered
            and left.histogram is not None
            and right.histogram is not None
        ):
            merged = merge_join_rows(
                left_rows, right_rows, left.histogram, right.histogram
            )
            if merged >= 0.0:  # negative: incomparable domains, fall on
                # The merge walk already scales to the input
                # cardinalities; as one key's selectivity factor it is
                # merged/(|L|·|R|), composing with the other keys.
                cross = max(float(left_rows) * float(right_rows), 1e-12)
                rows *= min(1.0, merged / cross)
                applied = True
                continue
        if (
            left is not None
            and right is not None
            and left.sketch is not None
            and right.sketch is not None
            and left_ndv
            and right_ndv
        ):
            overlap = left.sketch.intersection_ndv(right.sketch)
            rows *= overlap / (left_ndv * right_ndv)
            applied = True
            continue
        denominator = max(left_ndv, right_ndv)
        if denominator > 0:
            rows /= denominator
            applied = True
        elif not fallback_used:
            rows /= max(left_rows, right_rows, 1.0)
            fallback_used = True
    if not applied and not fallback_used:
        rows /= max(left_rows, right_rows, 1.0)
    # FD layer: a declared key on one side bounds the output at the other
    # side's cardinality (each probe row finds at most one match).
    for key in keys:
        if key.right is not None and key.right.is_key:
            rows = min(rows, float(left_rows))
        if key.left is not None and key.left.is_key:
            rows = min(rows, float(right_rows))
    return max(1.0, rows)


def _dependency_facts(table: Table) -> Tuple[frozenset, frozenset]:
    """(key columns, OD-ordered columns) from the declared constraints.

    Keyness goes through the FD facet of the full statement set (Lemma 1:
    every component OD of every declared statement implies its FD) and
    the classical closure test — the OD oracle's FD layer, evaluated
    eagerly per collection pass so join estimates read a set instead of
    running implication queries.
    """
    from ..core.dependency import (
        OrderDependency,
        OrderEquivalence,
    )
    from ..fd.bridge import fds_of
    from ..fd.closure import is_superkey

    names = table.schema.names
    keys = set()
    ordered = set()
    if table.constraints:
        fds = fds_of(table.constraints)
        for name in names:
            if is_superkey([name], names, fds):
                keys.add(name)
        for statement in table.constraints:
            if isinstance(statement, (OrderDependency, OrderEquivalence)):
                if statement.lhs:
                    ordered.add(str(statement.lhs[0]))
                if isinstance(statement, OrderEquivalence) and statement.rhs:
                    ordered.add(str(statement.rhs[0]))
    return frozenset(keys), frozenset(ordered)


def collect_stats(table: Table, indexes: Sequence = ()) -> TableStats:
    """One full pass over the table.

    Per column: min/max/NDV (as before) plus the equi-depth histogram and
    KMV distinct sketch, and the dependency facts (``is_key`` /
    ``od_ordered``) derived from the table's declared constraints.
    ``indexes`` (the database passes its sorted indexes on the table)
    additionally mark each index's leading key column as OD-ordered — a
    sorted index is a physically materialized OD declaration.
    """
    return _collect(table, indexes, None)


def _collect(
    table: Table, indexes: Sequence, runs: Optional[List[list]]
) -> TableStats:
    """:func:`collect_stats`; a list passed as ``runs`` additionally
    receives each column's sorted values, for later appends to extend."""
    keys, ordered = _dependency_facts(table)
    index_ordered = {
        index.key_columns[0] for index in indexes if index.key_columns
    }
    columns: Dict[str, ColumnStats] = {}
    for position, column in enumerate(table.schema):
        values = [row[position] for row in table.rows]
        if values:
            try:
                ordered_values = sorted(values)
            except TypeError:  # mixed/incomparable values: no histogram
                ordered_values = None
            columns[column.name] = ColumnStats(
                distinct=len(set(values)),
                minimum=min(values) if ordered_values is None else ordered_values[0],
                maximum=max(values) if ordered_values is None else ordered_values[-1],
                histogram=(
                    build_histogram(ordered_values)
                    if ordered_values is not None
                    else None
                ),
                sketch=build_sketch(values),
                is_key=column.name in keys,
                od_ordered=column.name in ordered or column.name in index_ordered,
            )
        else:
            ordered_values = []
            columns[column.name] = ColumnStats(
                0,
                None,
                None,
                is_key=column.name in keys,
                od_ordered=column.name in ordered or column.name in index_ordered,
            )
        if runs is not None:
            runs.append(ordered_values)
    return TableStats(row_count=len(table.rows), columns=columns)


class MaintainedStats:
    """One table's statistics, extended by appended rows.

    ``rows`` and ``shape`` record what ``stats`` covers: how many of the
    table's rows, and its constraint count and indexes.  :meth:`refresh`
    folds rows past ``rows`` into the retained sorted column values; a
    shrunken table, any other ``shape`` or a value that does not compare
    with its column goes through :func:`collect_stats` again.  The result always equals
    ``collect_stats(table, indexes)``.

    Nothing is retained by the first collection — most tables are
    collected once and never written — so the first append to a table
    pays one more full pass, which keeps its sorted values.
    """

    __slots__ = ("table", "stats", "rows", "shape", "stamp", "_runs")

    def __init__(self, table: Table) -> None:
        self.table = table
        self.stats: Optional[TableStats] = None
        self.rows = -1
        self.shape: Optional[tuple] = None
        #: What :meth:`Database.stats` compares on every call; set there.
        self.stamp: Optional[tuple] = None
        #: Sorted values per column, once a second collection was needed.
        self._runs: Optional[List[list]] = None

    def refresh(self, indexes: Sequence, force: bool = False) -> Optional[str]:
        """Bring ``stats`` up to the table's current state; returns
        ``"extended"``, ``"rebuilt"`` or ``None`` (nothing it depends on
        changed)."""
        table = self.table
        shape = (len(table.constraints), tuple(indexes))
        row_count = len(table.rows)
        if shape == self.shape and not force:
            if row_count == self.rows:
                return None
            if row_count > self.rows and self._extend(row_count):
                return "extended"
        kept: Optional[List[list]] = None if self.stats is None else []
        self.stats = _collect(table, indexes, kept)
        self._runs, self.rows, self.shape = kept, row_count, shape
        return "rebuilt"

    def _extend(self, row_count: int) -> bool:
        """Fold rows ``[self.rows, row_count)`` in; ``False`` (and nothing
        retained any more) when there is nothing to extend or a new value
        does not compare with its column."""
        runs, self._runs = self._runs, None
        if runs is None:
            return False
        try:
            self.stats = self._extended(runs, row_count)
        except TypeError:
            return False
        self._runs, self.rows = runs, row_count
        return True

    def _extended(self, runs: List[list], row_count: int) -> TableStats:
        """Statistics over the first ``row_count`` rows, from the covered
        ones plus ``runs`` — each new value is bisected into its column's
        sorted run, which tells whether it is a new distinct value, keeps
        min/max at the ends and is what the histogram walks."""
        table = self.table
        new_rows = table.rows[self.rows:row_count]
        columns: Dict[str, ColumnStats] = {}
        for position, (column, run) in enumerate(zip(table.schema, runs)):
            covered = self.stats.columns[column.name]
            unseen = []
            for row in new_rows:
                value = row[position]
                # After its equals, where a stable sort of all rows puts it.
                at = bisect_right(run, value)
                if not at or run[at - 1] != value:
                    unseen.append(value)
                run.insert(at, value)
            columns[column.name] = ColumnStats(
                distinct=covered.distinct + len(unseen),
                minimum=run[0],
                maximum=run[-1],
                histogram=build_histogram(run),
                sketch=extend_sketch(covered.sketch, unseen),
                is_key=covered.is_key,
                od_ordered=covered.od_ordered,
            )
        return TableStats(row_count=row_count, columns=columns)
