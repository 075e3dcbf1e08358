"""Estimator edge cases: the selectivity bugs this PR fixes plus the
histogram/sketch/FD/OD layers built on top.

The two seed bugs, as reported:

* ``ColumnStats(1, 5, 5).range_selectivity(10, 20)`` returned 1.0 — a
  constant column matched *any* window because ``span <= 0`` short-
  circuited to 1.0;
* ``WHERE k BETWEEN 5 AND 5`` estimated ≈0 rows while ``WHERE k = 5``
  estimated ``rows/ndv`` — a zero-width window under the uniform
  interpolation, un-floored.

Where meaningful a case runs over both summaries a column can have: the
bug fixes hold for the ``"fallback"`` (no histogram — what a column whose
values do not compare gets, answered by uniform interpolation over
[minimum, maximum] and ``1/distinct``) as for the ``"histogram"``; the
distribution-aware cases read the histogram.
"""
from __future__ import annotations

import dataclasses
import datetime
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.histogram import (
    EquiDepthHistogram,
    KMVSketch,
    _ordinal,
    build_histogram,
    build_sketch,
    merge_join_rows,
    pair_selectivity_stats,
)
from repro.engine.schema import Schema
from repro.engine.stats import (
    ColumnStats,
    JoinKeyStats,
    collect_stats,
    estimate_equijoin,
)
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.workloads.microbench import build_dim, build_fact


SUMMARIES = ["fallback", "histogram"]


def _summary(column, summary):
    """``column`` as collected, or without its histogram (``"fallback"``)."""
    if summary == "fallback":
        return dataclasses.replace(column, histogram=None)
    return column


def _stats(values, summary="histogram"):
    """ColumnStats over a literal value list, via the real collector."""
    table = Table("t", Schema.of(("k", DataType.INT)))
    table.load((v,) for v in values)
    return _summary(collect_stats(table).column("k"), summary)


# ----------------------------------------------------------------------
# Satellite 1: constant columns
# ----------------------------------------------------------------------
class TestConstantColumns:
    @pytest.mark.parametrize("summary", SUMMARIES)
    def test_disjoint_window_is_zero(self, summary):
        """The reported repro: a window excluding the only value."""
        assert ColumnStats(1, 5, 5).range_selectivity(10, 20) == 0.0
        assert _stats([5] * 10, summary).range_selectivity(10, 20) == 0.0

    @pytest.mark.parametrize("summary", SUMMARIES)
    def test_covering_window_is_one(self, summary):
        for stats in (ColumnStats(1, 5, 5), _stats([5] * 10, summary)):
            assert stats.range_selectivity(0, 20) == 1.0
            assert stats.range_selectivity(5, 5) == 1.0
            assert stats.range_selectivity(None, None) == 1.0

    def test_below_and_above(self):
        stats = ColumnStats(1, 5, 5)
        assert stats.range_selectivity(None, 4) == 0.0
        assert stats.range_selectivity(6, None) == 0.0

    def test_exclusive_endpoint_touching_value(self):
        stats = ColumnStats(1, 5, 5)
        # (5, 20] excludes the only value; [5, 20] includes it.
        assert stats.range_selectivity(5, 20, low_inclusive=False) == 0.0
        assert stats.range_selectivity(0, 5, high_inclusive=False) == 0.0
        assert stats.range_selectivity(5, 20) == 1.0


# ----------------------------------------------------------------------
# Satellite 2: point ranges floor at equality
# ----------------------------------------------------------------------
class TestPointRanges:
    @pytest.mark.parametrize("summary", SUMMARIES)
    def test_point_range_equals_equality(self, summary):
        stats = _stats([1, 2, 3, 4, 5] * 20, summary)
        assert stats.range_selectivity(3, 3) == stats.equality_selectivity(3)
        assert stats.range_selectivity(3, 3) > 0.0

    def test_between_matches_eq_at_plan_level(self):
        """`BETWEEN x AND x` and `= x` produce identical estimates."""
        db = Database("t")
        table = Table("t", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
        table.load((i % 100, i) for i in range(10_000))
        db.tables["t"] = table
        between = db.plan("SELECT v FROM t WHERE k BETWEEN 5 AND 5")
        eq = db.plan("SELECT v FROM t WHERE k = 5")
        assert between.plan_info.estimate is not None
        assert between.plan_info.estimate.rows == eq.plan_info.estimate.rows
        assert between.plan_info.estimate.rows == pytest.approx(100.0)

    def test_closed_window_floors_at_equality(self):
        stats = _stats(list(range(1000)), "fallback")
        narrow = stats.range_selectivity(500, 500)
        assert narrow >= stats.equality_selectivity()
        # Not a point range: the floor is the fallback's own.
        assert stats._uniform_range(500, 500.5, True, True) == pytest.approx(
            stats.equality_selectivity()
        )


# ----------------------------------------------------------------------
# Disjoint ranges and window edges
# ----------------------------------------------------------------------
class TestDisjointRanges:
    @pytest.mark.parametrize("summary", SUMMARIES)
    def test_window_above_domain(self, summary):
        stats = _stats(list(range(100)), summary)
        assert stats.range_selectivity(200, 300) == 0.0
        assert stats.range_selectivity(200, None) == 0.0

    @pytest.mark.parametrize("summary", SUMMARIES)
    def test_window_below_domain(self, summary):
        stats = _stats(list(range(100, 200)), summary)
        assert stats.range_selectivity(0, 50) == 0.0
        assert stats.range_selectivity(None, 50) == 0.0

    def test_exclusive_bound_at_domain_edge(self):
        stats = _stats(list(range(100)))
        # k > 99 is empty; k >= 99 is one value.
        assert stats.range_selectivity(99, None, low_inclusive=False) == 0.0
        assert stats.range_selectivity(99, None) > 0.0


# ----------------------------------------------------------------------
# Date domains
# ----------------------------------------------------------------------
class TestDateDomains:
    def _dates(self, summary="histogram"):
        base = datetime.date(2001, 1, 1)
        days = [base + datetime.timedelta(days=i) for i in range(365)]
        table = Table("t", Schema.of(("d", DataType.DATE)))
        table.load((d,) for d in days)
        return _summary(collect_stats(table).column("d"), summary)

    @pytest.mark.parametrize("summary", SUMMARIES)
    def test_window_interpolates_by_days(self, summary):
        stats = self._dates(summary)
        lo = datetime.date(2001, 1, 1)
        hi = datetime.date(2001, 2, 5)  # 36 of 365 days
        sel = stats.range_selectivity(lo, hi)
        assert sel == pytest.approx(36 / 365, rel=0.25)

    def test_point_date(self):
        stats = self._dates()
        day = datetime.date(2001, 6, 15)
        assert stats.range_selectivity(day, day) == pytest.approx(
            1 / 365, rel=0.5
        )

    def test_disjoint_date_window(self):
        stats = self._dates()
        assert (
            stats.range_selectivity(
                datetime.date(2005, 1, 1), datetime.date(2005, 12, 31)
            )
            == 0.0
        )


# ----------------------------------------------------------------------
# < vs <= vs <> and AND/OR/NOT composition
# ----------------------------------------------------------------------
class TestOperators:
    def test_lt_vs_le(self):
        stats = _stats([1, 2, 3, 4, 5] * 100)
        le = stats.range_selectivity(None, 3)
        lt = stats.range_selectivity(None, 3, high_inclusive=False)
        assert lt < le
        assert le - lt == pytest.approx(stats.equality_selectivity(3), rel=0.3)

    def test_plan_level_operators(self):
        db = Database("t")
        table = Table("t", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
        table.load((i % 10, i) for i in range(1000))
        db.tables["t"] = table

        def rows(sql):
            return db.plan(sql, use_cache=False).plan_info.estimate.rows

        lt = rows("SELECT v FROM t WHERE k < 5")
        le = rows("SELECT v FROM t WHERE k <= 5")
        ne = rows("SELECT v FROM t WHERE k <> 5")
        eq = rows("SELECT v FROM t WHERE k = 5")
        assert lt < le
        assert eq == pytest.approx(100.0)
        assert ne == pytest.approx(900.0)

    def test_composition_bounds(self):
        """AND/OR/NOT compositions stay inside [0, child_rows]."""
        db = Database("t")
        table = Table("t", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
        table.load((i % 10, i % 7) for i in range(700))
        db.tables["t"] = table
        queries = [
            "SELECT k FROM t WHERE k = 3 AND v = 4",
            "SELECT k FROM t WHERE k = 3 OR v = 4",
            "SELECT k FROM t WHERE NOT k = 3",
            "SELECT k FROM t WHERE (k < 5 OR k > 8) AND NOT v = 2",
        ]
        for sql in queries:
            estimate = db.plan(sql, use_cache=False).plan_info.estimate
            assert estimate is not None, sql
            assert 0.0 <= estimate.rows <= 700.0, sql


# ----------------------------------------------------------------------
# Empty tables
# ----------------------------------------------------------------------
class TestEmptyTables:
    def test_empty_column_stats(self):
        table = Table("t", Schema.of(("k", DataType.INT)))
        stats = collect_stats(table)
        assert stats.row_count == 0
        column = stats.column("k")
        assert column.minimum is None
        assert column.histogram is None
        assert column.range_selectivity(1, 10) == 1.0  # no info: neutral

    def test_empty_table_plan_estimates_zero(self):
        db = Database("t")
        db.tables["t"] = Table(
            "t", Schema.of(("k", DataType.INT), ("v", DataType.INT))
        )
        estimate = db.plan(
            "SELECT v FROM t WHERE k BETWEEN 1 AND 5", use_cache=False
        ).plan_info.estimate
        assert estimate is not None
        assert estimate.rows == 0.0


# ----------------------------------------------------------------------
# Histogram behavior on skew
# ----------------------------------------------------------------------
class TestHistograms:
    def test_heavy_hitter_equality(self):
        values = [7] * 900 + list(range(100))
        stats = _stats(values)
        hot = stats.equality_selectivity(7)
        cold = stats.equality_selectivity(50)
        assert hot == pytest.approx(900 / 1000, rel=0.1)
        assert cold < 0.01
        assert stats.equality_selectivity(5000) == 0.0  # outside domain

    def test_skewed_range(self):
        values = sorted(list(range(100)) * 1 + list(range(900, 1000)) * 9)
        stats = _stats(values)
        sparse = stats.range_selectivity(0, 99)
        dense = stats.range_selectivity(900, 999)
        assert sparse == pytest.approx(0.1, rel=0.3)
        assert dense == pytest.approx(0.9, rel=0.2)


# ----------------------------------------------------------------------
# Sketches and FD/OD join bounds
# ----------------------------------------------------------------------
class TestJoinBounds:
    def test_sketch_exact_below_k(self):
        sketch = build_sketch(list(range(100)) * 5)
        assert sketch.exact
        assert sketch.ndv() == 100.0

    def test_sketch_estimates_above_k(self):
        sketch = build_sketch(list(range(10_000)))
        assert not sketch.exact
        assert sketch.ndv() == pytest.approx(10_000, rel=0.2)

    def test_sketch_intersection_disjoint(self):
        a = build_sketch(list(range(100)))
        b = build_sketch(list(range(1000, 1100)))
        assert a.intersection_ndv(b) == 0.0

    def test_sketch_intersection_overlap(self):
        a = build_sketch(list(range(200)))
        b = build_sketch(list(range(100, 300)))
        assert a.intersection_ndv(b) == pytest.approx(100, rel=0.01)

    def test_fd_key_caps_join(self):
        """A declared key on the build side caps output at probe rows."""
        from repro.core.dependency import fd

        dim = Table(
            "dim", Schema.of(("pk", DataType.INT), ("attr", DataType.INT))
        )
        dim.load((i, i * 2) for i in range(50))
        dim.declare(fd("pk", "attr"))
        dim_stats = collect_stats(dim).column("pk")
        assert dim_stats.is_key
        fact = Table("fact", Schema.of(("fk", DataType.INT)))
        fact.load((i % 50,) for i in range(5000))
        fact_stats = collect_stats(fact).column("fk")
        rows = estimate_equijoin(
            5000, 50, [JoinKeyStats(fact_stats, dim_stats)]
        )
        assert rows <= 5000.0

    def test_merge_join_disjoint_domains(self):
        left = build_histogram(sorted(range(1000)))
        right = build_histogram(sorted(range(5000, 6000)))
        assert merge_join_rows(1000, 1000, left, right) == 0.0

    def test_merge_join_partial_overlap(self):
        left = build_histogram(sorted(range(1000)))
        right = build_histogram(sorted(range(900, 1900)))
        estimate = merge_join_rows(1000, 1000, left, right)
        assert estimate == pytest.approx(100, rel=0.3)

    def test_od_ordered_keys_use_merge(self):
        """Full estimate path: OD-ordered disjoint keys estimate ~0."""
        db = Database("t")
        left = Table("l", Schema.of(("k", DataType.INT)))
        left.load((i,) for i in range(1000))
        right = Table("r", Schema.of(("k", DataType.INT)))
        right.load((i,) for i in range(5000, 6000))
        db.tables["l"], db.tables["r"] = left, right
        db.create_index("l_k", "l", ["k"], clustered=True)
        db.create_index("r_k", "r", ["k"], clustered=True)
        l_stats = db.stats("l").column("k")
        r_stats = db.stats("r").column("k")
        assert l_stats.od_ordered and r_stats.od_ordered
        rows = estimate_equijoin(1000, 1000, [JoinKeyStats(l_stats, r_stats)])
        assert rows == 1.0  # the global ≥1-row floor, nothing more


# ----------------------------------------------------------------------
# Estimate-vs-actual sanity on the microbench workload
# ----------------------------------------------------------------------
class TestMicrobenchSanity:
    def test_filter_estimate_within_qerror(self):
        db = Database("micro")
        db.tables["fact"] = build_fact(20_000, seed=11)
        result = db.execute(
            "SELECT income FROM fact WHERE income BETWEEN 100000 AND 200000"
        )
        estimate = db.plan(
            "SELECT income FROM fact WHERE income BETWEEN 100000 AND 200000"
        ).plan_info.estimate
        actual = max(1, len(result.rows))
        q = max(estimate.rows / actual, actual / estimate.rows)
        assert q < 2.0

    def test_join_estimate_within_qerror(self):
        db = Database("micro")
        db.tables["fact"] = build_fact(20_000, seed=11)
        db.tables["dim"] = build_dim()
        sql = (
            "SELECT d.label, COUNT(*) AS n FROM fact f "
            "JOIN dim d ON f.bracket = d.k GROUP BY label ORDER BY label"
        )
        plan = db.plan(sql)
        join_est = None
        for decision in plan.plan_info.join_orders:
            join_est = decision.chosen_rows
        actual = 20_000  # bracket is total on the dim side: 1 match per row
        if join_est is None:
            pytest.skip("no join-order decision recorded")
        q = max(join_est / actual, actual / join_est)
        assert q < 3.0


# ----------------------------------------------------------------------
# Pair selectivities: one merge walk per pair of live histograms
# ----------------------------------------------------------------------
def _reference_interval_mass(hist, low, high, include_low):
    """``interval_mass`` as first written: every bucket, from bucket 0."""
    rows = 0.0
    distinct = 0.0
    for i in range(len(hist.counts)):
        bucket_low, bucket_high = hist.lowers[i], hist.uppers[i]
        if bucket_high < low or (bucket_high == low and not include_low):
            continue
        if bucket_low > high:
            break
        if bucket_low == bucket_high:
            inside_low = low < bucket_low or (include_low and bucket_low == low)
            if inside_low and bucket_low <= high:
                rows += hist.counts[i]
                distinct += hist.distincts[i]
            continue
        lo_ord, hi_ord = _ordinal(bucket_low), _ordinal(bucket_high)
        if lo_ord is None or hi_ord is None or hi_ord <= lo_ord:
            rows += hist.counts[i] * 0.5
            distinct += hist.distincts[i] * 0.5
            continue
        window_lo = max(lo_ord, _ordinal(low))
        window_hi = min(hi_ord, _ordinal(high))
        fraction = (window_hi - window_lo) / (hi_ord - lo_ord)
        fraction = max(0.0, min(1.0, fraction))
        rows += hist.counts[i] * fraction
        distinct += hist.distincts[i] * fraction
    return rows, distinct


def _reference_merge_join_rows(left_rows, right_rows, left_hist, right_hist):
    """``merge_join_rows`` as first written: the whole walk per call."""
    if left_hist.total == 0 or right_hist.total == 0:
        return 0.0
    try:
        boundaries = sorted(
            set(left_hist.lowers) | set(left_hist.uppers)
            | set(right_hist.lowers) | set(right_hist.uppers)
        )
        left_scale = left_rows / left_hist.total
        right_scale = right_rows / right_hist.total
        rows = 0.0
        previous = None
        for boundary in boundaries:
            low = boundary if previous is None else previous
            include_low = previous is None
            previous = boundary
            l_rows, l_ndv = _reference_interval_mass(left_hist, low, boundary, include_low)
            r_rows, r_ndv = _reference_interval_mass(right_hist, low, boundary, include_low)
            if l_rows <= 0.0 or r_rows <= 0.0:
                continue
            rows += (l_rows * left_scale) * (r_rows * right_scale) / max(l_ndv, r_ndv, 1.0)
    except TypeError:
        return -1.0
    return rows


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


_key_values = st.one_of(
    st.lists(st.integers(-50, 400), min_size=1, max_size=300),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=120),
    st.lists(
        st.integers(0, 500).map(lambda d: datetime.date(2020, 1, 1) + datetime.timedelta(d)),
        min_size=1, max_size=200,
    ),
    st.lists(st.text("abcdef", min_size=1, max_size=3), min_size=1, max_size=80),
)
_cardinality = st.one_of(
    st.integers(0, 10**6).map(float), st.floats(0.0, 1e9, allow_nan=False)
)


class TestPairSelectivity:
    @given(
        left=_key_values,
        right=_key_values,
        buckets=st.sampled_from([2, 7, 64]),
        inputs=st.lists(st.tuples(_cardinality, _cardinality), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_memoised_equals_from_scratch_walk_bit_for_bit(
        self, left, right, buckets, inputs
    ):
        """Random histogram pairs (same and mixed domains) × random input
        cardinalities: the first call (walk computed) and every later one
        (walk replayed) have the float bits of the from-scratch walk."""
        left_hist = build_histogram(sorted(left), buckets)
        right_hist = build_histogram(sorted(right), buckets)
        before = pair_selectivity_stats()
        for left_rows, right_rows in inputs + inputs:
            expected = _reference_merge_join_rows(left_rows, right_rows, left_hist, right_hist)
            got = merge_join_rows(left_rows, right_rows, left_hist, right_hist)
            assert _bits(got) == _bits(expected)
        after = pair_selectivity_stats()
        assert after["computed"] - before["computed"] == 1
        assert after["reused"] - before["reused"] == 2 * len(inputs) - 1

    @given(
        values=_key_values,
        buckets=st.sampled_from([2, 7, 64]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_interval_mass_skips_only_buckets_that_add_nothing(
        self, values, buckets, data
    ):
        hist = build_histogram(sorted(values), buckets)
        probe = st.sampled_from(sorted(set(values)))
        low, high = sorted((data.draw(probe), data.draw(probe)))
        for include_low in (False, True):
            got = hist.interval_mass(low, high, include_low)
            expected = _reference_interval_mass(hist, low, high, include_low)
            assert [_bits(x) for x in got] == [_bits(x) for x in expected]

    def test_empty_histogram_is_zero_and_keeps_no_entry(self):
        empty = EquiDepthHistogram((), (), (), (), 0)
        full = build_histogram(sorted(range(100)))
        before = pair_selectivity_stats()
        assert merge_join_rows(10, 10, empty, full) == 0.0
        assert merge_join_rows(10, 10, full, empty) == 0.0
        assert pair_selectivity_stats() == before

    def test_incomparable_sentinel_survives_a_comparable_call(self):
        ints = build_histogram(sorted(range(100)))
        strs = build_histogram(sorted("abcdefgh"))
        more_ints = build_histogram(sorted(range(50, 150)))
        assert merge_join_rows(100, 8, ints, strs) == -1.0
        comparable = merge_join_rows(100, 100, ints, more_ints)
        assert _bits(comparable) == _bits(
            _reference_merge_join_rows(100, 100, ints, more_ints)
        )
        assert comparable > 0.0
        assert merge_join_rows(100, 8, ints, strs) == -1.0  # from the entry
        assert merge_join_rows(8, 100, strs, ints) == -1.0  # its own pair

    def test_append_prices_the_new_histogram_afresh(self):
        """``Table.load`` ⇒ ``Database.stats`` replaces the histogram
        object ⇒ the next estimate walks the new pair and equals the
        ``collect_stats`` reference; the old entry is never found again."""
        db = Database("t")
        left = db.create_table("l", Schema.of(("k", DataType.INT)))
        right = db.create_table("r", Schema.of(("k", DataType.INT)))
        left.load((i,) for i in range(1000))
        right.load((i,) for i in range(900, 1900))
        db.create_index("l_k", "l", ["k"], clustered=True)
        db.create_index("r_k", "r", ["k"], clustered=True)

        def estimate():
            keys = [JoinKeyStats(db.stats("l").column("k"), db.stats("r").column("k"))]
            return estimate_equijoin(len(left.rows), len(right.rows), keys)

        def reference():
            l = collect_stats(left, db.indexes_on("l")).column("k")
            r = collect_stats(right, db.indexes_on("r")).column("k")
            walked = _reference_merge_join_rows(
                len(left.rows), len(right.rows), l.histogram, r.histogram
            )
            cross = float(len(left.rows)) * float(len(right.rows))
            return max(1.0, cross * min(1.0, walked / cross))

        start = pair_selectivity_stats()
        first = estimate()
        assert _bits(first) == _bits(reference())
        assert _bits(estimate()) == _bits(first)
        old_histogram = db.stats("l").column("k").histogram
        for round_ in range(2):  # rebuilt, then extended
            left.load((i,) for i in range(1000 + 400 * round_, 1400 + 400 * round_))
            fresh = estimate()
            assert db.stats("l").column("k").histogram is not old_histogram
            assert _bits(fresh) == _bits(reference())
            assert fresh > first
        moved = pair_selectivity_stats()
        assert moved["computed"] - start["computed"] == 3  # one walk per new pair
        assert moved["reused"] - start["reused"] == 1
