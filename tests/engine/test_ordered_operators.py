"""The operators a proven order selects, against row-at-a-time references.

With an order proven, the planner picks a ``MergeJoin``, a
``StreamAggregate`` or a single-key ``Sort``.  Those operators do their
per-row work in C — ``bisect`` over sorted key vectors, run boundaries
by ``compress``, per-run ``reduce`` folds, ``sorted`` over a bare
column — and each is checked here against the plain Python loop it
replaces:

* ``MergeJoin._merge`` returns exactly the two-pointer merge's
  ``(left_ids, right_ids)``, ``merge_steps`` and ``join_rows`` on
  generated sorted key lists (ints, floats with ±0.0 and ±inf, int/float
  mixes, strings, dates, 2-tuples; duplicates, empty sides, sides of
  1–3 rows);
* ``StreamAggregate`` equals a row-at-a-time fold, bit for bit, at batch
  sizes 1, 3 and 1024, with groups spanning batches;
* a single-key ``Sort`` gives the permutation sorting 1-tuples gives;
* float SUM and AVG — ungrouped, stream-grouped and hash-grouped — equal
  a hand-written left-to-right fold bit for bit at every batch size
  (``sum()`` compensates float addition since Python 3.12, so a fold
  written with it differs by batch size there);
* NaN, which has no order, cannot be loaded.
"""
from __future__ import annotations

import datetime
import math
import random
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.expr import Col
from repro.engine.operators import (
    AggSpec,
    HashAggregate,
    MergeJoin,
    SeqScan,
    Sort,
    StreamAggregate,
)
from repro.engine.operators.base import Metrics
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType, TypeError_, coerce_literal

BATCH_SIZES = (1, 3, 1024)
INF = math.inf


def float_bits(rows):
    """``rows`` with every float as its exact bit pattern (``-0.0`` and
    ``0.0`` differ, and so does one ulp)."""
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in row)
        for row in rows
    ]


def table_of(name, columns, rows):
    table = Table(name, Schema.of(*columns))
    table.load(rows, check=False)
    return table


# ----------------------------------------------------------------------
# MergeJoin._merge against the two-pointer walk
# ----------------------------------------------------------------------
def two_pointer_merge(left_keys, right_keys, metrics):
    """The classic row-at-a-time merge: one step per loop iteration."""
    left_ids, right_ids = [], []
    steps = 0
    i = j = 0
    while i < len(left_keys) and j < len(right_keys):
        steps += 1
        left_key, right_key = left_keys[i], right_keys[j]
        if left_key < right_key:
            i += 1
        elif left_key > right_key:
            j += 1
        else:
            j_end = j
            while j_end < len(right_keys) and right_keys[j_end] == right_key:
                j_end += 1
            while i < len(left_keys) and left_keys[i] == left_key:
                left_ids += repeat(i, j_end - j)
                right_ids += range(j, j_end)
                i += 1
            j = j_end
    if steps:
        metrics.add("merge_steps", steps)
    if left_ids:
        metrics.add("join_rows", len(left_ids))
    return left_ids, right_ids


#: A merge join to call ``_merge`` on; its inputs are never executed.
_INT = (("k", DataType.INT),)
MERGE = MergeJoin(
    SeqScan(table_of("l", _INT, [])), SeqScan(table_of("r", _INT, [])),
    ["l.k"], ["r.k"],
)

FLOATS = st.sampled_from([-INF, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, INF])
DOMAINS = {
    "int": st.integers(-4, 4),
    "float": FLOATS,
    "int+float": st.one_of(st.integers(-2, 3), FLOATS),
    "str": st.text(alphabet="abc", max_size=3),
    "date": st.dates(datetime.date(2020, 1, 1), datetime.date(2020, 1, 8)),
    "pair": st.tuples(st.integers(0, 3), st.integers(0, 3)),
}


@st.composite
def sorted_sides(draw):
    """Two ascending key lists over one domain: long with duplicates,
    empty, or 1–3 rows."""
    values = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    side = st.one_of(
        st.lists(values, max_size=40), st.lists(values, min_size=1, max_size=3)
    )
    return sorted(draw(side)), sorted(draw(side))


@given(sorted_sides())
@settings(max_examples=400, deadline=None)
def test_merge_equals_two_pointer_walk(sides):
    left, right = sides
    metrics, reference = Metrics(), Metrics()
    assert MERGE._merge(left, right, metrics) == two_pointer_merge(
        left, right, reference
    )
    assert metrics.counters == reference.counters


def test_merge_gallops_over_gaps_and_runs():
    """Long gaps and long runs on both sides, and each side ending first."""
    left = [0] * 5 + list(range(10, 500)) + [1000] * 7
    right = list(range(-50, 0)) + [0] * 3 + [499, 499] + [1000] * 4 + [2000]
    for a, b in ((left, right), (right, left), (left, left[:-3])):
        metrics, reference = Metrics(), Metrics()
        assert MERGE._merge(a, b, metrics) == two_pointer_merge(a, b, reference)
        assert metrics.counters == reference.counters


# ----------------------------------------------------------------------
# StreamAggregate against a row-at-a-time fold
# ----------------------------------------------------------------------
ARGS = ("i", "f")
FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def stream_aggs():
    return [AggSpec("COUNT", None, "n")] + [
        AggSpec(func, Col(arg), f"{func.lower()}_{arg}")
        for func in FUNCS
        for arg in ARGS
    ]


def row_at_a_time(rows, width):
    """Groups of consecutive equal keys (the first ``width`` columns),
    each folded one row at a time: sums from the int 0, left to right;
    MIN/MAX replace only on a strictly better value."""
    groups = []
    for row in rows:
        key, values = row[:width], dict(zip(ARGS, row[width:]))
        if groups and groups[-1][0] == key:
            state = groups[-1][1]
            state["n"] += 1
            for arg, value in values.items():
                state["SUM", arg] += value
                if value < state["MIN", arg]:
                    state["MIN", arg] = value
                if value > state["MAX", arg]:
                    state["MAX", arg] = value
        else:
            state = {"n": 1}
            for arg, value in values.items():
                state["SUM", arg] = 0 + value
                state["MIN", arg] = state["MAX", arg] = value
            groups.append((key, state))
    out = []
    for key, state in groups:
        row = key + (state["n"],)
        for func in FUNCS:
            for arg in ARGS:
                if func == "COUNT":
                    row += (state["n"],)
                elif func == "AVG":
                    row += (state["SUM", arg] / state["n"],)
                else:
                    row += (state[func, arg],)
        out.append(row)
    return out


def grouped_rows(seed, keys):
    """Rows sorted by key with runs of 1–9 rows; floats of mixed
    magnitude (addition order shows in the bits) and ±0.0 ties."""
    rng = random.Random(seed)
    rows = []
    for key in keys:
        for _ in range(rng.randint(1, 9)):
            f = rng.choice(
                [rng.uniform(-1, 1) * 10 ** rng.randint(-6, 9), 0.0, -0.0]
            )
            rows.append(key + (rng.randint(-50, 50), f))
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "group_columns, keys",
    [
        ((("g", DataType.INT),), [(g,) for g in range(40)]),
        (
            (("g", DataType.STR), ("h", DataType.INT)),
            [(g, h) for g in "abc" for h in range(6)],
        ),
    ],
)
def test_stream_aggregate_equals_row_at_a_time(seed, group_columns, keys):
    rows = grouped_rows(seed, keys)
    table = table_of(
        "t", group_columns + (("i", DataType.INT), ("f", DataType.FLOAT)), rows
    )
    names = [name for name, _ in group_columns]
    expected = float_bits(row_at_a_time(rows, len(names)))
    counters = None
    for batch_size in BATCH_SIZES:
        out, metrics = StreamAggregate(SeqScan(table), names, stream_aggs()).run(
            batch_size
        )
        assert float_bits(out) == expected, f"batch_size={batch_size}"
        assert counters in (None, metrics.counters)
        counters = metrics.counters


def test_stream_aggregate_keeps_a_groups_first_key():
    """``0.0`` and ``-0.0`` are one group; the group keeps the key of its
    first row, and MIN/MAX the earlier of equal values, also when the run
    crosses batch boundaries."""
    rows = [(-1.0, 1, 5.0), (0.0, 2, 0.0), (-0.0, 3, -0.0), (0.0, 4, 0.0),
            (-0.0, 5, -0.0), (2.0, 6, 1.0)]
    table = table_of(
        "t", (("g", DataType.FLOAT), ("i", DataType.INT), ("f", DataType.FLOAT)), rows
    )
    expected = float_bits(row_at_a_time(rows, 1))
    assert expected[1][0] == (0.0).hex()
    for batch_size in BATCH_SIZES:
        out, _ = StreamAggregate(SeqScan(table), ["g"], stream_aggs()).run(batch_size)
        assert float_bits(out) == expected, f"batch_size={batch_size}"


def test_stream_aggregate_emits_groups_in_batch_size_chunks():
    rows = [(g, 1, 1.0) for g in range(10) for _ in range(2)]
    table = table_of(
        "t", (("g", DataType.INT), ("i", DataType.INT), ("f", DataType.FLOAT)), rows
    )
    metrics = Metrics()
    batches = list(
        StreamAggregate(SeqScan(table), ["g"], stream_aggs()).execute_batches(
            metrics, 4
        )
    )
    assert [len(batch) for batch in batches] == [4, 4, 2]


# ----------------------------------------------------------------------
# Single-key Sort
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.sampled_from([-0.0, 0.0, 1.5, -INF, INF])),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_single_key_sort_is_the_one_tuple_permutation(keys):
    rows = [(float(key), position) for position, key in enumerate(keys)]
    table = table_of("t", (("k", DataType.FLOAT), ("p", DataType.INT)), rows)
    expected = float_bits(sorted(rows, key=lambda row: (row[0],)))
    for batch_size in BATCH_SIZES:
        out, metrics = Sort(SeqScan(table), ["t.k"]).run(batch_size)
        assert float_bits(out) == expected
        assert metrics.get("sort_rows") == len(rows)


# ----------------------------------------------------------------------
# Float SUM/AVG: strictly left to right at every batch size
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def float_database():
    rng = random.Random(400)
    rows = [
        (position // 7, rng.randrange(5), rng.uniform(-1, 1) * 10 ** rng.randint(-8, 12))
        for position in range(400)
    ]
    database = Database()
    database.create_table(
        "t", Schema.of(("g", DataType.INT), ("h", DataType.INT), ("v", DataType.FLOAT))
    ).load(rows)
    database.create_index("t_g", "t", ["g"], clustered=True)
    return database, rows


def left_to_right(rows, key):
    totals, counts = {}, {}
    for row in rows:
        group = key(row)
        totals[group] = totals.get(group, 0) + row[2]
        counts[group] = counts.get(group, 0) + 1
    return {group: (totals[group], totals[group] / counts[group]) for group in totals}


@pytest.mark.parametrize(
    "sql, key, operator",
    [
        ("SELECT SUM(v) AS s, AVG(v) AS a FROM t", lambda row: (), None),
        ("SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g",
         lambda row: (row[0],), StreamAggregate),
        ("SELECT h, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY h",
         lambda row: (row[1],), HashAggregate),
    ],
    ids=["ungrouped", "stream", "hash"],
)
@pytest.mark.parametrize("batch_size", [1, 3, 1024, None])
def test_float_sum_is_a_left_to_right_fold(float_database, sql, key, operator, batch_size):
    database, rows = float_database
    result = database.execute(sql, batch_size=batch_size)
    if operator is not None:
        plan = result.plan
        stack, kinds = [plan], set()
        while stack:
            node = stack.pop()
            kinds.add(type(node))
            stack.extend(node.children())
        assert operator in kinds
    expected = left_to_right(rows, key)
    width = len(result.rows[0]) - 2
    got = {row[:width]: (row[width], row[width + 1]) for row in result.rows}
    assert {g: tuple(map(float.hex, v)) for g, v in got.items()} == {
        g: tuple(map(float.hex, v)) for g, v in expected.items()
    }


# ----------------------------------------------------------------------
# NaN cannot be stored
# ----------------------------------------------------------------------
def test_nan_is_rejected_at_load():
    """Merge joins and index ranges bisect on the order, and NaN has
    none: a FLOAT column refuses it like a NULL, whether it arrives as a
    float or as the text ``nan`` — so ``r JOIN t ON r.a = t.b`` over
    1.0, NaN, 3.0 on both sides cannot be built."""
    database = Database()
    table = database.create_table(
        "r", Schema.of(("a", DataType.FLOAT), ("x", DataType.INT))
    )
    with pytest.raises(TypeError_):
        table.load([(1.0, 1), (float("nan"), 2), (3.0, 3)])
    with pytest.raises(TypeError_):
        table.insert((float("nan"), 2))
    for text in ("nan", "NaN", "-nan"):
        with pytest.raises(TypeError_):
            coerce_literal(text)
    with pytest.raises(TypeError_):
        table.load([("nan", 2)])
    assert all(row[0] == row[0] for row in table.rows)
    ordered = database.create_table(
        "t", Schema.of(("b", DataType.FLOAT), ("y", DataType.INT))
    )
    ordered.load([(1.0, 1), (-INF, 2), (INF, 3), (coerce_literal("2.5"), 4)])
    assert [row[0] for row in ordered.rows] == [1.0, -INF, INF, 2.5]
