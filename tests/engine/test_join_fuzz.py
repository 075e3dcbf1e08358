"""Generated join queries against sqlite, in every planner mode.

``test_fuzz_modes`` generates single-table queries; this file generates
two- and three-table joins over small tables with many duplicate keys
(many-to-many matches), one- and two-column join keys, int and float
keys, and empty tables.  The tables carry clustered and secondary
indexes, and rows are appended after the indexes were built, so the
plans mix ``IndexScan``, ``Sort``, ``HashJoin`` and ``MergeJoin`` and the
index scans read both key-ordered and out-of-order row ids.

Every query runs through the ``naive``, ``fd`` and ``od`` planners, each
plan at batch sizes 1, 3 and 1024, plus the ``Database.execute`` surface
(``batch_size=None``).  The checks:

* the row multiset equals sqlite's on a mirror of the same rows;
* an ORDER BY holds as a sequence property of every output;
* one plan gives bit-identical rows and identical ``Metrics`` counters at
  every batch size;
* the generated plans reach what they are meant to exercise: hash and
  merge joins, index scans, sorts, and a scan that reads only some of
  its table's columns.
"""
from __future__ import annotations

import sqlite3

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.logical import bind
from repro.engine.operators import HashJoin, IndexScan, MergeJoin, SeqScan, Sort
from repro.engine.schema import Schema
from repro.engine.sql.parser import parse
from repro.engine.types import DataType
from repro.optimizer.planner import Planner

INT, FLOAT = DataType.INT, DataType.FLOAT
TABLES = {
    "r": (("a", INT), ("b", INT), ("x", FLOAT)),
    "s": (("a", INT), ("b", INT), ("y", FLOAT)),
    "u": (("a", INT), ("z", INT)),
}
#: (name, table, key columns, clustered)
INDEXES = (
    ("r_a", "r", ["a"], True),
    ("r_x", "r", ["x"], False),
    ("s_ab", "s", ["a", "b"], True),
    ("s_y", "s", ["y"], False),
    ("u_a", "u", ["a"], True),
)
#: Output alias → (qualified column, is a float column).
COLUMNS = {
    "ra": ("r.a", False), "rb": ("r.b", False), "rx": ("r.x", True),
    "sa": ("s.a", False), "sb": ("s.b", False), "sy": ("s.y", True),
    "ua": ("u.a", False), "uz": ("u.z", False),
}
PAIR_CONDITIONS = (
    "r.a = s.a",
    "r.a = s.a AND s.b = r.b",
    "r.x = s.y",
    "s.a = r.b",
)
THIRD_CONDITIONS = ("r.a = u.a", "s.a = u.a", "u.a = r.b")

KEY = st.integers(0, 3)
FLOAT_VALUE = st.sampled_from([0.5, 1.0, 1.5, 2.5])
ROWS = {
    "r": st.lists(st.tuples(KEY, KEY, FLOAT_VALUE), max_size=10),
    "s": st.lists(st.tuples(KEY, KEY, FLOAT_VALUE), max_size=10),
    "u": st.lists(st.tuples(KEY, KEY), max_size=6),
}


@st.composite
def contents(draw):
    """Rows per table, split into the rows loaded before the indexes are
    built and the rows appended after.  ``r`` is loaded in key order (its
    clustered index reads ascending row ids); the others are not."""
    before = {name: draw(rows) for name, rows in ROWS.items()}
    before["r"].sort(key=lambda row: row[0])
    after = {name: draw(rows) for name, rows in ROWS.items()}
    return before, after


def build(before, after):
    database = Database()
    for name, columns in TABLES.items():
        database.create_table(name, Schema.of(*columns)).load(before[name])
    for name, table, keys, clustered in INDEXES:
        database.create_index(name, table, keys, clustered=clustered)
        len(database.indexes[name])  # built before the appends below
    for name, rows in after.items():
        database.table(name).columnar()
        database.table(name).load(rows)
    mirror = sqlite3.connect(":memory:")
    for name, columns in TABLES.items():
        mirror.execute(f"CREATE TABLE {name} ({', '.join(c for c, _ in columns)})")
        marks = ", ".join("?" for _ in columns)
        mirror.executemany(
            f"INSERT INTO {name} VALUES ({marks})", database.table(name).rows
        )
    return database, mirror


@st.composite
def predicates(draw, names):
    column, is_float = COLUMNS[draw(st.sampled_from(names))]
    if is_float:
        return f"{column} {draw(st.sampled_from(['<', '>=', '=']))} {draw(FLOAT_VALUE)}"
    kind = draw(st.sampled_from(["between", "cmp", "in"]))
    if kind == "between":
        low, high = sorted((draw(KEY), draw(KEY)))
        return f"{column} BETWEEN {low} AND {high}"
    if kind == "cmp":
        return f"{column} {draw(st.sampled_from(['<', '<=', '>=', '>']))} {draw(KEY)}"
    chosen = draw(st.lists(KEY, min_size=1, max_size=3))
    return f"{column} IN ({', '.join(map(str, chosen))})"


@st.composite
def queries(draw):
    """``(sql, order_by aliases)``."""
    joins = f"r JOIN s ON {draw(st.sampled_from(PAIR_CONDITIONS))}"
    names = ["ra", "rb", "rx", "sa", "sb", "sy"]
    if draw(st.booleans()):
        joins += f" JOIN u ON {draw(st.sampled_from(THIRD_CONDITIONS))}"
        names += ["ua", "uz"]
    where = ""
    conjuncts = draw(st.lists(predicates(names), max_size=2))
    if conjuncts:
        where = " WHERE " + " AND ".join(conjuncts)
    tail = ""
    if draw(st.booleans()):
        groups = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
        ints = [n for n in names if not COLUMNS[n][1]]
        floats = [n for n in names if COLUMNS[n][1]]
        summed = COLUMNS[draw(st.sampled_from(ints))][0]
        extreme = COLUMNS[draw(st.sampled_from(floats))][0]
        items = [f"{COLUMNS[g][0]} AS {g}" for g in groups] + [
            "COUNT(*) AS n",
            f"SUM({summed}) AS total",
            f"AVG({summed}) AS mean",
            f"MIN({extreme}) AS lo",
            f"MAX({extreme}) AS hi",
        ]
        if groups:
            tail = " GROUP BY " + ", ".join(COLUMNS[g][0] for g in groups)
        orderable = groups
    else:
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
        items = [f"{COLUMNS[c][0]} AS {c}" for c in chosen]
        orderable = chosen
    order = draw(st.lists(st.sampled_from(orderable), max_size=2, unique=True)) if orderable else []
    if order:
        tail += " ORDER BY " + ", ".join(order)
    return f"SELECT {', '.join(items)} FROM {joins}{where}{tail}", order


def float_bits(rows):
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in row)
        for row in rows
    ]


def assert_ordered(rows, columns, order, label):
    positions = [columns.index(name) for name in order]
    keys = [tuple(row[p] for p in positions) for row in rows]
    assert keys == sorted(keys), f"ORDER BY violated: {label}"


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def _pruned(node) -> bool:
    return isinstance(node, (SeqScan, IndexScan)) and len(node.columns) < len(
        node.table.schema
    )


def test_join_queries_agree_with_sqlite():
    seen = set()

    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(contents(), st.lists(queries(), min_size=1, max_size=3))
    def check(content, generated):
        database, mirror = build(*content)
        try:
            for sql, order in generated:
                expected = sorted(mirror.execute(sql).fetchall())
                for mode in ("naive", "fd", "od"):
                    plan = Planner(database, mode=mode).plan(bind(parse(sql)))
                    for node in _walk(plan):
                        seen.add("pruned scan" if _pruned(node) else type(node))
                    columns = list(plan.schema.names)
                    first = None
                    for batch_size in (1, 3, 1024):
                        rows, metrics = plan.run(batch_size)
                        label = f"{mode} batch_size={batch_size}: {sql}"
                        assert sorted(rows) == expected, label
                        assert_ordered(rows, columns, order, label)
                        if first is None:
                            first = (float_bits(rows), metrics.counters)
                        else:
                            assert float_bits(rows) == first[0], label
                            assert metrics.counters == first[1], label
                result = database.execute(sql)
                assert sorted(result.rows) == expected, sql
                assert_ordered(result.rows, list(result.columns), order, sql)
        finally:
            mirror.close()

    check()
    assert {HashJoin, MergeJoin, IndexScan, Sort, "pruned scan"} <= seen, seen
