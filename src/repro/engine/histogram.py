"""Equi-depth histograms and distinct-value sketches for estimation.

The uniform min/max model behind the original :class:`ColumnStats` is the
weakest layer under the cost-based join ordering: it cannot see skew (a
beta-distributed fact date column looks uniform), cannot answer point
ranges, and treats every join as containment of the smaller key domain.
This module supplies the two summaries that fix that:

* :class:`EquiDepthHistogram` — buckets of (approximately) equal row
  count over the sorted column values, so dense regions get many narrow
  buckets and sparse regions few wide ones.  Equality estimates read the
  owning bucket's rows-per-distinct; range estimates sum whole buckets
  and interpolate the partial ones.  A value never spans two buckets, so
  heavy hitters surface as single-value buckets with exact counts.
* :class:`KMVSketch` — a k-minimum-values distinct sketch.  Hashing every
  value and keeping the ``k`` smallest hashes yields a mergeable NDV
  estimate, and — the part the join estimator uses — an *intersection*
  estimate between two columns' key domains, replacing the containment
  assumption (``smaller domain ⊆ larger``) with a measured overlap.
  Below ``k`` distinct values the sketch is exact.

Both are built inside :func:`repro.engine.stats.collect_stats` (one pass
per column, shared with min/max/NDV collection) and live on
:class:`~repro.engine.stats.ColumnStats`, so they inherit the staleness
contract of ``TableStats``: the next ``Database.stats`` call after an
append re-walks the histogram over the retained sorted values and folds
only the new values' hashes into the sketch (:func:`extend_sketch`).

:func:`merge_join_rows` is the interleaved-merge join estimator: both
histograms' bucket boundaries are merged into one ordered sequence of
intervals and each interval contributes ``l_rows · r_rows / max(ndv)``
— per-interval containment, which degrades to the classic global
containment estimate when the histograms are flat but sees disjoint and
partially-overlapping key ranges exactly.
"""
from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "SKETCH_SIZE",
    "EquiDepthHistogram",
    "KMVSketch",
    "build_histogram",
    "build_sketch",
    "extend_sketch",
    "merge_join_rows",
    "pair_selectivity_stats",
]

#: Bucket budget per histogram.  Equi-depth buckets adapt their width to
#: the data, so a modest budget resolves strong skew; 64 keeps the
#: per-column summary a few hundred machine words.
DEFAULT_BUCKETS = 64

#: k for the k-minimum-values sketch: exact below 256 distinct values
#: (every dimension table here), ~6% relative NDV error above.
SKETCH_SIZE = 256


def _ordinal(value: Any) -> Optional[float]:
    """Map a value onto the interpolation axis (None: not interpolable).

    Numbers map to themselves and dates to their proleptic ordinal, so
    date-domain windows interpolate by *days* — the same convention the
    uniform model's ``timedelta.days`` branch uses.  Strings (and any
    other ordered-but-not-numeric domain) return None: range estimates
    then count whole buckets and charge half of a partially-covered one.
    """
    if isinstance(value, bool):  # bool is an int subclass; keep it explicit
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.datetime):
        return value.timestamp()
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    return None


@dataclass(frozen=True)
class EquiDepthHistogram:
    """Equi-depth buckets over one column's sorted values.

    Bucket ``i`` covers ``(lowers[i], uppers[i]]`` by value — except
    bucket 0, which includes its lower bound — holding ``counts[i]`` rows
    over ``distincts[i]`` distinct values.  Buckets never split a value:
    the boundary always advances to the last duplicate.
    """

    lowers: Tuple[Any, ...]
    uppers: Tuple[Any, ...]
    counts: Tuple[int, ...]
    distincts: Tuple[int, ...]
    total: int

    @property
    def minimum(self) -> Any:
        return self.lowers[0]

    @property
    def maximum(self) -> Any:
        return self.uppers[-1]

    def equality_fraction(self, value: Any) -> float:
        """Estimated fraction of rows equal to ``value``: the owning
        bucket's rows-per-distinct (0.0 outside the observed domain)."""
        if self.total == 0:
            return 0.0
        try:
            if value < self.minimum or value > self.maximum:
                return 0.0
            position = bisect_left(self.uppers, value)
        except TypeError:  # cross-type probe (e.g. str vs int column)
            return 0.0
        position = min(position, len(self.counts) - 1)
        rows = self.counts[position] / max(1, self.distincts[position])
        return min(1.0, rows / self.total)

    def range_fraction(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows in the window; ``None`` bounds are
        open ends.  Whole buckets inside the window contribute their full
        count; the boundary buckets interpolate on the ordinal axis (half
        a bucket for non-interpolable domains); exclusive endpoints give
        back their endpoint's equality mass."""
        if self.total == 0:
            return 0.0
        try:
            rows = 0.0
            for i in range(len(self.counts)):
                rows += self._bucket_overlap(i, low, high)
            if not low_inclusive and low is not None:
                rows -= self.equality_fraction(low) * self.total
            if not high_inclusive and high is not None:
                rows -= self.equality_fraction(high) * self.total
        except TypeError:  # incomparable bound for this domain
            return -1.0  # sentinel: caller falls back to the uniform model
        return max(0.0, min(1.0, rows / self.total))

    def _bucket_overlap(self, i: int, low: Any, high: Any) -> float:
        """Estimated rows of bucket ``i`` inside the closed window."""
        bucket_low, bucket_high = self.lowers[i], self.uppers[i]
        if (low is not None and bucket_high < low) or (
            high is not None and bucket_low > high
        ):
            return 0.0
        covers_low = low is None or low <= bucket_low
        covers_high = high is None or high >= bucket_high
        if covers_low and covers_high:
            return float(self.counts[i])
        if bucket_low == bucket_high:  # single-value bucket, inside window
            return float(self.counts[i])
        lo_ord = _ordinal(bucket_low)
        hi_ord = _ordinal(bucket_high)
        if lo_ord is None or hi_ord is None or hi_ord <= lo_ord:
            return self.counts[i] * 0.5  # non-interpolable: half a bucket
        window_lo = lo_ord if covers_low else max(lo_ord, _ordinal(low))
        window_hi = hi_ord if covers_high else min(hi_ord, _ordinal(high))
        fraction = (window_hi - window_lo) / (hi_ord - lo_ord)
        return self.counts[i] * max(0.0, min(1.0, fraction))

    def interval_mass(
        self, low: Any, high: Any, include_low: bool
    ) -> Tuple[float, float]:
        """(rows, distinct) mass in the half-open interval ``(low, high]``
        (``[low, high]`` when ``include_low``) under a *continuous*
        measure: single-value buckets are point masses assigned by
        membership, multi-value buckets interpolate rows **and**
        distincts by the same ordinal fraction.  Consecutive half-open
        intervals therefore tile the domain with no mass lost or counted
        twice — the invariant :func:`merge_join_rows` sums over.
        """
        rows = 0.0
        distinct = 0.0
        # Buckets that end below ``low`` add nothing: start past them.
        for i in range(bisect_left(self.uppers, low), len(self.counts)):
            bucket_low, bucket_high = self.lowers[i], self.uppers[i]
            if bucket_high == low and not include_low:
                continue
            if bucket_low > high:
                break
            if bucket_low == bucket_high:  # point bucket: membership
                inside_low = low < bucket_low or (
                    include_low and bucket_low == low
                )
                if inside_low and bucket_low <= high:
                    rows += self.counts[i]
                    distinct += self.distincts[i]
                continue
            lo_ord = _ordinal(bucket_low)
            hi_ord = _ordinal(bucket_high)
            if lo_ord is None or hi_ord is None or hi_ord <= lo_ord:
                rows += self.counts[i] * 0.5
                distinct += self.distincts[i] * 0.5
                continue
            window_lo = max(lo_ord, _ordinal(low))
            window_hi = min(hi_ord, _ordinal(high))
            fraction = (window_hi - window_lo) / (hi_ord - lo_ord)
            fraction = max(0.0, min(1.0, fraction))
            rows += self.counts[i] * fraction
            distinct += self.distincts[i] * fraction
        return rows, distinct


def build_histogram(
    sorted_values: Sequence[Any], buckets: int = DEFAULT_BUCKETS
) -> Optional[EquiDepthHistogram]:
    """Equi-depth histogram over pre-sorted values (None when empty).

    Walks the sorted run once: a bucket closes when it has reached the
    target depth *and* the value changes, so duplicates of one value are
    never split across buckets (their bucket just runs deep — that is the
    heavy-hitter signal the equality estimate reads).
    """
    total = len(sorted_values)
    if total == 0:
        return None
    depth = max(1, -(-total // buckets))  # ceil division
    lowers: List[Any] = []
    uppers: List[Any] = []
    counts: List[int] = []
    distincts: List[int] = []

    def emit(start: int, end: int) -> None:
        chunk = sorted_values[start:end]
        lowers.append(chunk[0])
        uppers.append(chunk[-1])
        counts.append(len(chunk))
        distinct = 1
        for j in range(1, len(chunk)):
            if chunk[j] != chunk[j - 1]:
                distinct += 1
        distincts.append(distinct)

    start = 0
    while start < total:
        end = min(start + depth, total)
        boundary = sorted_values[end - 1]
        run_start = bisect_left(sorted_values, boundary, start, end)
        run_end = bisect_right(sorted_values, boundary, end - 1, total)
        if run_end - run_start >= depth and run_start > start:
            # The boundary value alone fills a bucket: close the current
            # bucket *before* it so the heavy hitter gets a single-value
            # bucket with an exact count instead of diluting its
            # neighbors' rows-per-distinct.
            emit(start, run_start)
            start = run_start
            continue
        # Otherwise extend over the boundary value's duplicates — a
        # value never splits across buckets.
        emit(start, run_end)
        start = run_end
    return EquiDepthHistogram(
        tuple(lowers), tuple(uppers), tuple(counts), tuple(distincts), total
    )


def _stable_hash(value: Any) -> int:
    """64-bit content hash, stable across processes and Python runs
    (``hash()`` is salted for strings; sketches must be comparable
    between a fork-spawned worker and the parent)."""
    digest = blake2b(repr(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


_HASH_SPACE = float(1 << 64)


@dataclass(frozen=True)
class KMVSketch:
    """k-minimum-values distinct sketch: the ``k`` smallest 64-bit hashes
    of the value set, sorted ascending.  ``exact`` marks the lossless
    case (fewer than ``k`` distinct values — the sketch *is* the hashed
    domain, and intersections are exact)."""

    hashes: Tuple[int, ...]
    k: int = SKETCH_SIZE
    exact: bool = False

    def ndv(self) -> float:
        """Estimated distinct count: exact below k, else (k-1)/kth-value
        (the classical KMV estimator)."""
        if self.exact or len(self.hashes) < self.k:
            return float(len(self.hashes))
        return (self.k - 1) * _HASH_SPACE / float(self.hashes[-1])

    def intersection_ndv(self, other: "KMVSketch") -> float:
        """Estimated ``|A ∩ B|`` — the join estimator's measured overlap.

        Combine both sketches into the union's KMV (the k smallest of the
        merged hash sets), count how many of those the two sides share,
        and scale the union NDV estimate by that Jaccard fraction.  Exact
        whenever both sketches are exact.
        """
        if not self.hashes or not other.hashes:
            return 0.0
        mine, theirs = set(self.hashes), set(other.hashes)
        if self.exact and other.exact:
            return float(len(mine & theirs))
        k = min(self.k, other.k)
        union_smallest = sorted(mine | theirs)[:k]
        shared = sum(1 for h in union_smallest if h in mine and h in theirs)
        if not union_smallest:
            return 0.0
        jaccard = shared / len(union_smallest)
        union = KMVSketch(tuple(union_smallest), k, exact=False)
        if len(union_smallest) < k:
            return float(shared)
        return jaccard * union.ndv()


def build_sketch(values: Sequence[Any], k: int = SKETCH_SIZE) -> KMVSketch:
    """Sketch a column's value set (hash once per *distinct* value)."""
    hashes = {_stable_hash(value) for value in set(values)}
    if len(hashes) <= k:
        return KMVSketch(tuple(sorted(hashes)), k, exact=True)
    return KMVSketch(tuple(sorted(hashes)[:k]), k, exact=False)


def extend_sketch(sketch: Optional[KMVSketch], new_values: Sequence[Any]) -> KMVSketch:
    """The sketch of a value set grown by ``new_values``, hashing only those.

    Equal to :func:`build_sketch` over the union: an exact sketch holds
    every hash, so the union's hashes are all there; an inexact one holds
    the ``k`` smallest, and the ``k`` smallest of a union lie among each
    part's ``k`` smallest.
    """
    if sketch is None:
        return build_sketch(new_values)
    if not new_values:
        return sketch
    k = sketch.k
    hashes = set(sketch.hashes)
    hashes.update(_stable_hash(value) for value in new_values)
    if sketch.exact and len(hashes) <= k:
        return KMVSketch(tuple(sorted(hashes)), k, exact=True)
    return KMVSketch(tuple(sorted(hashes)[:k]), k, exact=False)


#: Merge walks kept per ``(id(left), id(right))``.  An entry holds both
#: histograms, so neither id is reused while it lives; histograms are
#: immutable and replaced with their statistics, so an entry is never
#: stale, only unreachable — the bound drops those, oldest first.
PAIR_LIMIT = 64
_pair_walks: "OrderedDict[Tuple[int, int], tuple]" = OrderedDict()
_pair_counts = {"computed": 0, "reused": 0}


def pair_selectivity_stats() -> Dict[str, int]:
    """Merge walks ``computed`` and ``reused`` (monotonic, process-wide,
    like the theory cache) and the live entry count."""
    return {**_pair_counts, "size": len(_pair_walks)}


def _merge_walk(
    left_hist: EquiDepthHistogram, right_hist: EquiDepthHistogram
) -> Optional[List[Tuple[float, float, float]]]:
    """The part of :func:`merge_join_rows` that depends on the two
    histograms alone: ``(l_rows, r_rows, max(l_ndv, r_ndv, 1.0))`` per
    merged interval with mass on both sides, in boundary order (None:
    incomparable domains, e.g. str keys vs int keys)."""
    terms = []
    try:
        boundaries = sorted(
            set(left_hist.lowers)
            | set(left_hist.uppers)
            | set(right_hist.lowers)
            | set(right_hist.uppers)
        )
        previous = None
        for boundary in boundaries:
            # Half-open intervals (prev, b] — the first is the point
            # [b0, b0] — tile the merged domain, so every row's mass is
            # counted exactly once (interval_mass's invariant).
            low = boundary if previous is None else previous
            include_low = previous is None
            previous = boundary
            l_rows, l_ndv = left_hist.interval_mass(low, boundary, include_low)
            r_rows, r_ndv = right_hist.interval_mass(low, boundary, include_low)
            if l_rows <= 0.0 or r_rows <= 0.0:
                continue
            terms.append((l_rows, r_rows, max(l_ndv, r_ndv, 1.0)))
    except TypeError:
        return None
    return terms


def merge_join_rows(
    left_rows: float,
    right_rows: float,
    left_hist: EquiDepthHistogram,
    right_hist: EquiDepthHistogram,
) -> float:
    """Interleaved-merge equi-join estimate for OD-ordered join keys.

    Both histograms' bucket boundaries are merged into one ordered
    sequence of intervals; each interval contributes containment locally
    (``l_i · r_i / max(ndv_l_i, ndv_r_i)``), scaled so the bucket row
    masses reproduce the actual input cardinalities.  Intervals covered
    by only one side contribute nothing — disjoint or partially
    overlapping key domains, which global containment cannot see, fall
    out exactly.

    The walk is made once per pair of live histogram objects
    (:func:`_merge_walk`); the scaling by the caller's cardinalities is
    replayed in the walk's order, so every estimate keeps its float bits.
    """
    if left_hist.total == 0 or right_hist.total == 0:
        return 0.0
    key = (id(left_hist), id(right_hist))
    entry = _pair_walks.get(key)
    if entry is None:
        while len(_pair_walks) >= PAIR_LIMIT:
            _pair_walks.popitem(last=False)
        entry = (_merge_walk(left_hist, right_hist), left_hist, right_hist)
        _pair_walks[key] = entry
        _pair_counts["computed"] += 1
    else:
        _pair_counts["reused"] += 1
    terms = entry[0]
    if terms is None:
        return -1.0  # sentinel: caller falls back to the next model
    left_scale = left_rows / left_hist.total
    right_scale = right_rows / right_hist.total
    rows = 0.0
    for l_rows, r_rows, ndv in terms:
        rows += (l_rows * left_scale) * (r_rows * right_scale) / ndv
    return rows
