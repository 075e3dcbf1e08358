"""Derived state extended by appended rows equals the from-scratch pass.

Statistics, index entries, foreign-key and key-uniqueness verdicts,
constraint checks and the column view each record how many rows they
cover and fold further rows in.  The full passes — ``collect_stats``,
``SortedIndex.build``, ``Database._fk_contained``, ``Database._key_unique``,
``explain_violation`` and the transpose ``zip(*rows)`` — are the
references here: after every step of a random history the maintained
value must equal what the full pass computes from the same rows.
"""
from __future__ import annotations

import sqlite3
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attrs import EMPTY, AttrList
from repro.core.dependency import OrderDependency, compat, equiv, fd, od
from repro.core.satisfaction import explain_violation
from repro.engine.database import Database
from repro.engine.histogram import SKETCH_SIZE
from repro.engine.index import SortedIndex
from repro.engine.operators import IndexScan, SeqScan
from repro.engine.operators.base import Metrics
from repro.engine.schema import Schema
from repro.engine.stats import collect_stats
from repro.engine.table import ConstraintViolation, Table
from repro.engine.types import DataType
from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES, build_rewrite_pack

ROW = st.tuples(
    st.integers(0, 12),
    st.floats(0, 4, allow_nan=False).map(lambda x: round(x, 1)),
    st.sampled_from(["p", "q", "r", "s"]),
)
STEP = st.one_of(
    st.tuples(st.just("append"), st.lists(ROW, min_size=1, max_size=6)),
    st.tuples(st.just("declare"), st.sampled_from([fd("a", "b"), od("a", "b"), equiv("c", "a")])),
    # Index steps weigh double: each forces the statistics' full pass.
    st.tuples(st.just("index"), st.sampled_from([["a"], ["c", "a"], ["b"]])),
    st.tuples(st.just("index"), st.sampled_from([["a", "b"], ["c"]])),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("mixed-type"), st.none()),
)


def _database():
    db = Database()
    table = db.create_table(
        "t", Schema.of(("a", DataType.INT), ("b", DataType.FLOAT), ("c", DataType.STR))
    )
    return db, table


def _assert_current(db: Database, table: Table) -> None:
    assert db.stats("t") == collect_stats(table, db.indexes_on("t"))
    for index in db.indexes_on("t"):
        fresh = SortedIndex("fresh", table, index.key_columns).build()
        assert len(index) == len(table.rows)  # brings the index up to date
        assert index._keys == fresh._keys
        assert index._rowids == fresh._rowids
    transposed = [list(column) for column in zip(*table.rows)]
    assert table.columnar() == (transposed or [[] for _ in table.schema])


class TestStatsAndIndexes:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(STEP, min_size=1, max_size=14))
    def test_any_history_reads_like_a_fresh_pass(self, steps):
        db, table = _database()
        db.create_index("t_a", "t", ["a"], clustered=True)
        _assert_current(db, table)  # empty table, first collection
        for number, (kind, argument) in enumerate(steps):
            if kind == "append":
                table.load(argument, check=False)
            elif kind == "declare":
                table.declare(argument, check=False)
            elif kind == "index":
                db.create_index(f"ix{number}", "t", argument)
            elif kind == "pop":
                if table.rows:
                    table.rows.pop()
            elif table.rows:
                # A value its column cannot order: the full pass raises,
                # and so must the maintained one — then recover from it.
                table.rows.append(("x", 0.0, "p"))
                with pytest.raises(TypeError):
                    collect_stats(table, db.indexes_on("t"))
                with pytest.raises(TypeError):
                    db.stats("t")
                with pytest.raises(TypeError):
                    len(db.indexes["t_a"])
                table.rows.pop()
            _assert_current(db, table)

    def test_sketch_stays_equal_across_the_exactness_boundary(self):
        """Below ``SKETCH_SIZE`` distinct values the sketch holds every
        hash, above it the smallest ones; appends cross from one to the
        other."""
        db, table = _database()
        bounds = [0, 10, 20, SKETCH_SIZE - 40, SKETCH_SIZE + 40, 2 * SKETCH_SIZE]
        for start, stop in zip(bounds, bounds[1:]):
            table.load(
                [(v, float(v % 7), "pqrs"[v % 4]) for v in range(start, stop)],
                check=False,
            )
            _assert_current(db, table)
            assert db.stats("t").column("a").sketch.exact == (stop <= SKETCH_SIZE)
        # The first collection keeps nothing, the second keeps the sorted
        # values, the other three — one of them across the boundary — extend.
        counters = db.stats_snapshot()["maintenance"]["stats"]
        assert counters == {"extended": 3, "rebuilt": 2}

    def test_first_appends_to_an_empty_table(self):
        db, table = _database()
        db.create_index("t_a", "t", ["a"])
        _assert_current(db, table)
        table.load([(3, 0.5, "q"), (1, 0.5, "p")], check=False)
        _assert_current(db, table)
        table.load([(2, 1.5, "q")], check=False)
        _assert_current(db, table)
        maintenance = db.stats_snapshot()["maintenance"]
        assert maintenance["stats"] == {"extended": 1, "rebuilt": 2}
        assert maintenance["index"] == {"extended": 2, "rebuilt": 1}
        assert maintenance["columnar"] == {"extended": 2, "rebuilt": 1}

    @pytest.mark.parametrize("batch_size", [4, 1024])
    def test_batches_yielded_before_an_append_stay_as_they_were(self, batch_size):
        """The column view and the index entries change in place, so a scan
        must hand out slices or gathers of the view, never one of its
        lists, and must take its range of row ids before it yields."""
        db, table = _database()
        table.load([(v, float(v % 3), "pqrs"[v % 4]) for v in range(10)], check=False)
        in_order = db.create_index("t_a", "t", ["a"], clustered=True)
        shuffled = db.create_index("t_b", "t", ["b"])
        for scan in (SeqScan(table), IndexScan(in_order), IndexScan(shuffled)):
            expected, _ = scan.run(batch_size)
            stream = scan.execute_batches(Metrics(), batch_size)
            batch = next(stream)
            before = batch.to_rows()
            table.load([(5, 0.5, "p")], check=False)
            _assert_current(db, table)  # extends the view and the indexes
            assert batch.to_rows() == before, scan.label()
            assert all(len(column) == len(before) for column in batch.columns)
            rest = [row for later in stream for row in later.rows()]
            assert before + rest == expected, scan.label()


# ----------------------------------------------------------------------
# Foreign keys
# ----------------------------------------------------------------------
FK_STEP = st.one_of(
    st.tuples(st.sampled_from(["child", "parent"]), st.lists(st.integers(0, 8), min_size=1, max_size=4)),
    st.tuples(st.sampled_from(["pop-child", "pop-parent"]), st.none()),
)


def _fk_database():
    db = Database()
    db.create_table("parent", Schema.of(("k", DataType.INT)))
    db.create_table("child", Schema.of(("k", DataType.INT)))
    fk = db.declare_foreign_key("child", ["k"], "parent", ["k"])
    return db, fk


def _verified(db: Database) -> bool:
    return db.verified_foreign_key("child", ["k"], "parent", ["k"])


class TestForeignKeys:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(FK_STEP, min_size=1, max_size=16))
    def test_verdict_equals_the_containment_pass(self, steps):
        db, fk = _fk_database()
        for kind, keys in steps:
            if kind in ("child", "parent"):
                db.table(kind).load([(k,) for k in keys])
            else:
                rows = db.table(kind[len("pop-"):]).rows
                if rows:
                    rows.pop()
            assert _verified(db) == db._fk_contained(fk)

    def test_false_to_true_and_back(self):
        db, fk = _fk_database()
        db.table("parent").load([(1,), (2,)])
        db.table("child").load([(1,), (2,)])
        assert _verified(db)
        db.table("child").insert((3,))          # an orphan
        assert not _verified(db)
        db.table("child").insert((1,))          # more children cannot help
        assert not _verified(db)
        db.table("parent").insert((4,))         # nor can the wrong parent
        assert not _verified(db)
        db.table("parent").insert((3,))         # the parent catches up
        assert _verified(db)
        db.table("child").insert((5,))
        assert not _verified(db)
        assert db.stats_snapshot()["maintenance"]["fk"] == {"extended": 5, "rebuilt": 1}


# ----------------------------------------------------------------------
# Key uniqueness verdicts
# ----------------------------------------------------------------------
KEY_ROW = st.tuples(st.integers(0, 9), st.integers(0, 2))
UNIQUE_STEP = st.one_of(
    st.tuples(st.just("append"), st.lists(KEY_ROW, min_size=1, max_size=4)),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("truncate"), st.integers(0, 3)),
    st.tuples(st.just("declare"), st.none()),
)
KEYS = (["a"], ["a", "b"])


def _unique_database():
    db = Database()
    table = db.create_table("k", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    return db, table


def _assert_unique_current(db: Database) -> None:
    for columns in KEYS:
        keys = [tuple(row[:len(columns)]) for row in db.table("k").rows]
        assert db._key_unique("k", columns) == (len(set(keys)) == len(keys))
        assert db.verified_unique_key("k", columns) == db._key_unique("k", columns)


class TestUniqueKeys:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(UNIQUE_STEP, min_size=1, max_size=16))
    def test_verdict_equals_the_full_pass(self, steps):
        db, table = _unique_database()
        _assert_unique_current(db)
        for kind, argument in steps:
            if kind == "append":
                table.load(argument, check=False)
            elif kind == "pop" and table.rows:
                table.rows.pop()
            elif kind == "truncate":
                del table.rows[argument:]
            elif kind == "declare":
                table.declare(fd("a", "b"), check=False)
            _assert_unique_current(db)

    def test_unique_rows_a_duplicate_a_truncation_and_a_declare(self):
        db, table = _unique_database()
        table.load([(1, 0), (2, 0)])
        steps = [
            (lambda: None, True, "rebuilt"),                    # first verdict
            (lambda: table.load([(3, 0), (4, 1)]), True, "extended"),
            (lambda: table.load([(2, 1)]), False, "extended"),  # a duplicate
            (lambda: table.load([(5, 0)]), False, "extended"),  # stays found
            (lambda: table.rows.__delitem__(slice(3, None)), True, "rebuilt"),
            (lambda: table.declare(fd("a", "b")), True, "rebuilt"),
        ]
        counts = {"extended": 0, "rebuilt": 0}
        for step, unique, path in steps:
            step()
            assert db.verified_unique_key("k", ["a"]) is unique
            assert unique == db._key_unique("k", ["a"])
            counts[path] += 1
            assert db.stats_snapshot()["maintenance"]["unique"] == counts
        # A one-column key keeps bare values.
        assert db._unique_checks["k", ("a",)].keys == {1, 2, 3}

    def test_retained_keys_are_compact(self):
        """The full pass keeps a set sized like a copy of itself, not the
        one built element by element (about twice as large)."""
        db, table = _unique_database()
        table.load([(i, 0) for i in range(5_000)])
        assert db.verified_unique_key("k", ["a"])
        retained = db._unique_checks["k", ("a",)].keys
        assert sys.getsizeof(retained) <= sys.getsizeof(set(retained))


RW2 = dict((qid, sql) for qid, sql, _ in REWRITE_PACK_QUERIES)["RW2"]


def _sqlite_rows(table: Table, sql: str) -> list:
    conn = sqlite3.connect(":memory:")
    conn.execute(f"CREATE TABLE {table.name} ({', '.join(table.schema.names)})")
    conn.executemany(f"INSERT INTO {table.name} VALUES (?, ?, ?)", table.rows)
    return conn.execute(sql).fetchall()


def test_cached_consolidation_replans_after_a_duplicate_key():
    """The self-join RW2 merges into one scan because ``w_id`` is unique:
    a cached plan re-checks that through the maintained verdict, is served
    after an append of new keys, and re-plans after a duplicate key."""
    db = build_rewrite_pack(fact_rows=200, wide_rows=300, order_rows=200, customers=50)
    wide = db.table("wide")
    plan = db.plan(RW2)
    assert [record.rule for record in plan.plan_info.rewrites] == ["scan-consolidation"]

    wide.load([(301, 500, 100), (302, 900, 200)])
    before = db.plan_cache_stats()
    served = db.execute(RW2)
    assert served.plan is plan
    assert sorted(served.rows) == sorted(_sqlite_rows(wide, RW2))

    # An exact duplicate of a row RW2 returns: the FD still holds, and the
    # self-join now matches its key four times.
    duplicate = next(row for row in wide.rows if row[1] >= 300 and row[2] < 700)
    wide.load([duplicate])
    replanned = db.execute(RW2)
    assert replanned.plan is not plan
    assert replanned.plan.plan_info.rewrites == []
    after = db.plan_cache_stats()
    assert after["fact_invalidations"] == before["fact_invalidations"] + 1
    assert sorted(replanned.rows) == sorted(_sqlite_rows(wide, RW2))
    keys = [row[0] for row in replanned.rows]
    assert keys == sorted(keys) and keys.count(duplicate[0]) == 4


# ----------------------------------------------------------------------
# OD check constraints
# ----------------------------------------------------------------------
STATEMENTS = [
    od("a", "b"),
    od("a,b", "c"),
    od("b", "a,c"),
    equiv("a", "b"),
    compat("a", "c"),
    fd("a", "c"),
    fd("a,b", "c"),
    OrderDependency(EMPTY, AttrList(["c"])),  # empty left-hand side: c is constant
]
INT_ROW = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 1))
CHECK_STEP = st.one_of(
    st.tuples(st.just("load"), st.lists(INT_ROW, min_size=1, max_size=4)),
    st.tuples(st.just("declare"), st.sampled_from(STATEMENTS)),
    st.tuples(st.just("pop"), st.none()),
)


def _reference(table: Table, rows) -> str | None:
    """What the full pass says about the table's rows plus ``rows``."""
    candidate = Table(table.name, table.schema)
    candidate.rows = table.rows + [tuple(row) for row in rows]
    relation = candidate.as_relation()
    for statement in table.constraints:
        reason = explain_violation(relation, statement)
        if reason is not None:
            return f"{table.name}: {reason}"
    return None


class TestConstraintChecks:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(STATEMENTS), min_size=1, max_size=3),
        st.lists(CHECK_STEP, min_size=1, max_size=10),
    )
    def test_load_raises_iff_the_full_pass_finds_a_witness(self, statements, steps):
        table = Table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT))
        )
        for statement in statements:
            table.declare(statement)
        for kind, argument in steps:
            if kind == "declare":
                table.declare(argument, check=False)
            elif kind == "pop" and table.rows:
                table.rows.pop()
            # After a declare or a pop, an empty load: it checks all the same.
            rows = argument if kind == "load" else []
            before = list(table.rows)
            expected = _reference(table, rows)
            if expected is None:
                table.load(rows)
                assert table.rows == before + [tuple(row) for row in rows]
            else:
                with pytest.raises(ConstraintViolation) as excinfo:
                    table.load(rows)
                assert str(excinfo.value) == expected
                assert table.rows == before

    def test_appends_are_checked_without_the_full_pass(self):
        table = Table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
        table.declare(od("a", "b"))
        table.check_constraints()               # first check: the full pass
        table.load([(2, 2)])                    # first append to an empty table
        table.load([(1, 1), (3, 3)])
        table.load([(2, 2)])
        assert table.maintenance == {"extended": 3, "rebuilt": 1}
        with pytest.raises(ConstraintViolation):
            table.load([(0, 2)])                # words its error in the full pass
        assert table.maintenance == {"extended": 3, "rebuilt": 2}
