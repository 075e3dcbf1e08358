"""Tables (with OD check constraints) and sorted indexes."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependency import fd, od
from repro.engine.index import SortedIndex
from repro.engine.schema import Schema
from repro.engine.table import ConstraintViolation, Table
from repro.engine.types import DataType


def make_table(rows=()):
    table = Table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    table.load(rows, check=False)
    return table


class TestTable:
    def test_insert_validates_width(self):
        with pytest.raises(ValueError):
            make_table().insert((1,))

    def test_insert_validates_types(self):
        with pytest.raises(TypeError):
            make_table().insert((1, "x"))

    def test_insert_dicts(self):
        table = Table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
        table.insert_dicts([{"b": 2, "a": 1}])
        assert table.rows == [(1, 2)]

    def test_declare_checks_existing_data(self):
        table = make_table([(1, 2), (2, 1)])
        with pytest.raises(ConstraintViolation) as excinfo:
            table.declare(od("a", "b"))
        assert "swap" in str(excinfo.value)

    def test_declare_split_message(self):
        table = make_table([(1, 1), (1, 2)])
        with pytest.raises(ConstraintViolation) as excinfo:
            table.declare(fd("a", "b"))
        assert "split" in str(excinfo.value)

    def test_load_checks_constraints(self):
        table = make_table()
        table.declare(od("a", "b"))
        with pytest.raises(ConstraintViolation):
            table.load([(1, 2), (2, 1)])

    def test_rejected_load_leaves_the_table_as_it_found_it(self):
        """Regression: the rejected rows used to stay, and the optimizer
        went on discharging sorts by an OD the data no longer satisfied."""
        from repro.engine.database import Database

        db = Database()
        table = db.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(1, 10), (2, 20), (3, 30)])
        db.declare("t", od("a", "b"))
        db.create_index("t_a", "t", ["a"], clustered=True)
        sql = "SELECT a, b FROM t ORDER BY b"
        assert db.execute(sql).rows == [(1, 10), (2, 20), (3, 30)]
        with pytest.raises(ConstraintViolation) as excinfo:
            table.load([(4, 5)])
        assert "swap falsifies [a] |-> [b]" in str(excinfo.value)
        assert len(table.rows) == 3
        assert db.execute(sql).rows == [(1, 10), (2, 20), (3, 30)]

    def test_mistyped_row_rejects_the_whole_load(self):
        """Regression: the rows before a mistyped one used to stay behind,
        never checked against the declared OD."""
        import sqlite3

        from repro.engine.database import Database
        from repro.engine.types import TypeError_

        db = Database()
        table = db.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(1, 10), (2, 20), (3, 30)])
        db.declare("t", od("a", "b"))
        db.create_index("t_a", "t", ["a"], clustered=True)
        sql = "SELECT a, b FROM t ORDER BY b"
        before = list(table.rows)
        with pytest.raises(TypeError_):
            table.load([(4, 5), (5, "x")])
        assert table.rows == before
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", table.rows)
        assert db.execute(sql).rows == conn.execute(sql).fetchall()

    def test_load_after_a_rejected_one_is_still_validated(self):
        table = make_table([(1, 10), (3, 30)])
        table.declare(od("a", "b"))
        table.load([(5, 50)])                  # checked row by row from here on
        with pytest.raises(ConstraintViolation):
            table.load([(2, 20), (4, 5)])      # (2, 20) alone would pass
        assert table.rows == [(1, 10), (3, 30), (5, 50)]
        table.load([(4, 40)])                  # fits between the survivors
        with pytest.raises(ConstraintViolation) as excinfo:
            table.load([(2, 35)])              # swaps with (3, 30)
        assert "swap" in str(excinfo.value)
        with pytest.raises(ConstraintViolation) as excinfo:
            table.load([(4, 41)])              # splits with (4, 40)
        assert "split" in str(excinfo.value)
        assert table.rows == [(1, 10), (3, 30), (5, 50), (4, 40)]

    def test_declare_unknown_column(self):
        with pytest.raises(KeyError):
            make_table().declare(od("a", "zzz"))

    def test_as_relation(self):
        relation = make_table([(1, 2)]).as_relation()
        assert relation.rows == [(1, 2)]
        assert tuple(relation.attributes) == ("a", "b")

    def test_column_values(self):
        assert make_table([(1, 2), (3, 4)]).column_values("b") == [2, 4]


class TestSortedIndex:
    def build(self, rows):
        table = make_table(rows)
        return SortedIndex("idx", table, ["a"]), table

    def test_full_scan_sorted(self):
        index, _ = self.build([(3, 0), (1, 0), (2, 0)])
        assert [row[0] for row in index.range_scan()] == [1, 2, 3]

    def test_range_inclusive(self):
        index, _ = self.build([(i, 0) for i in range(10)])
        got = [row[0] for row in index.range_scan((3,), (6,))]
        assert got == [3, 4, 5, 6]

    def test_open_ends(self):
        index, _ = self.build([(i, 0) for i in range(5)])
        assert [r[0] for r in index.range_scan(low=(3,))] == [3, 4]
        assert [r[0] for r in index.range_scan(high=(1,))] == [0, 1]

    def test_reverse(self):
        index, _ = self.build([(1, 0), (2, 0)])
        assert [r[0] for r in index.range_scan(reverse=True)] == [2, 1]

    def test_prefix_bounds_on_composite_key(self):
        table = Table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        table.load([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)], check=False)
        index = SortedIndex("idx", table, ["a", "b"])
        got = list(index.range_scan((1,), (2,)))
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_probe_min_max(self):
        index, _ = self.build([(i, i * 10) for i in range(10)])
        assert index.probe_min((4,), "b") == 40
        assert index.probe_max((4,), "b") == 40
        assert index.probe_min((99,), "b") is None
        assert index.probe_max((-1,), "b") is None

    def test_stale_rebuild(self):
        index, table = self.build([(1, 0)])
        assert len(index) == 1
        table.insert((0, 0))
        assert [r[0] for r in index.range_scan()] == [0, 1]

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=30),
           st.integers(0, 20), st.integers(0, 20))
    def test_range_scan_vs_naive(self, rows, lo, hi):
        index, table = self.build(rows)
        got = sorted(index.range_scan((lo,), (hi,)))
        expected = sorted(row for row in table.rows if lo <= row[0] <= hi)
        assert got == expected
