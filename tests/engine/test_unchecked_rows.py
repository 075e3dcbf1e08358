"""No plan trusts a declared dependency that rows added since broke.

The optimizer removes a sort because a declared OD says the index order
already is the ORDER BY order.  That is only sound while every row
satisfies the OD, so every way a row can join a constrained table is
checked before a plan — cached or fresh — relies on the declaration:

* ``Table.insert`` checks like ``load``: a rejected row is not kept and
  :class:`ConstraintViolation` is raised;
* rows a ``load(check=False)`` (or a direct append) added are checked
  before the next plan, by the incremental ``AppendChecker`` when an
  earlier check covers the rows before them, and a violation fails typed.

The repro: ``[a] ↦ [b]`` on (1,10),(2,20),(3,30) clustered on ``a``;
``(4, 5)`` used to come back last from ``ORDER BY b``.
"""
from __future__ import annotations

import pytest

from repro.core.dependency import od
from repro.engine.database import Database
from repro.engine.schema import Schema
from repro.engine.table import ConstraintViolation
from repro.engine.types import DataType

SQL = "SELECT a, b FROM t ORDER BY b"


def _database():
    db = Database()
    table = db.create_table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    table.load([(1, 10), (2, 20), (3, 30)])
    table.declare(od("a", "b"))
    db.create_index("t_a", "t", ["a"], clustered=True)
    assert db.execute(SQL).rows == [(1, 10), (2, 20), (3, 30)]  # cached now
    return db, table


def test_insert_rejects_a_violating_row():
    db, table = _database()
    with pytest.raises(ConstraintViolation, match="swap"):
        table.insert((4, 5))
    assert table.rows == [(1, 10), (2, 20), (3, 30)]
    assert db.execute(SQL).rows == [(1, 10), (2, 20), (3, 30)]
    assert db.execute(SQL, use_cache=False).rows == [(1, 10), (2, 20), (3, 30)]
    table.insert((4, 40))  # a row the OD admits is kept
    assert db.execute(SQL).rows[-1] == (4, 40)


@pytest.mark.parametrize("use_cache", [True, False])
def test_unchecked_violating_rows_fail_every_plan(use_cache):
    db, table = _database()
    table.load([(4, 5)], check=False)
    with pytest.raises(ConstraintViolation, match="swap"):
        db.execute(SQL, use_cache=use_cache)
    with pytest.raises(ConstraintViolation):  # and keep failing
        db.plan(SQL, use_cache=not use_cache)
    assert table.rows[-1] == (4, 5)  # an unchecked load keeps its rows


def test_unchecked_rows_are_checked_incrementally():
    db, table = _database()
    table.load([(4, 40)])  # a checked load: the full pass, then a checker
    assert table.maintenance == {"extended": 0, "rebuilt": 1}
    table.load([(5, 50), (6, 60)], check=False)
    assert db.execute(SQL).rows[-2:] == [(5, 50), (6, 60)]  # the cached plan
    assert table.maintenance == {"extended": 1, "rebuilt": 1}
    table.load([(7, 70)], check=False)
    assert db.execute(SQL, use_cache=False).rows[-1] == (7, 70)
    assert table.maintenance == {"extended": 2, "rebuilt": 1}
    db.execute(SQL)  # nothing unchecked: nothing examined
    assert table.maintenance == {"extended": 2, "rebuilt": 1}


def test_declare_unchecked_is_checked_before_a_plan():
    db = Database()
    table = db.create_table("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)))
    table.load([(1, 30), (2, 20)])
    table.declare(od("a", "b"), check=False)
    db.create_index("t_a", "t", ["a"], clustered=True)
    with pytest.raises(ConstraintViolation):
        db.execute(SQL)
