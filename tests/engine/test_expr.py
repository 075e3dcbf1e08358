"""Expression evaluation and rendering."""
from __future__ import annotations

import datetime

import pytest

from repro.engine.expr import (
    Arith,
    Between,
    BoolOp,
    Cmp,
    Col,
    Func,
    InList,
    Lit,
    Not,
    inclusive_bound,
)
from repro.engine.schema import Schema
from repro.engine.types import DataType

SCHEMA = Schema.of(
    ("t.a", DataType.INT), ("t.b", DataType.INT), ("t.d", DataType.DATE)
)
ROW = (3, 7, datetime.date(2001, 8, 15))


def ev(expr):
    return expr.compile_against(SCHEMA)(ROW)


class TestBasics:
    def test_col_qualified(self):
        assert ev(Col("t.a")) == 3

    def test_col_suffix(self):
        assert ev(Col("b")) == 7

    def test_lit(self):
        assert ev(Lit(42)) == 42

    def test_arith(self):
        assert ev(Arith("+", Col("a"), Col("b"))) == 10
        assert ev(Arith("*", Col("a"), Lit(2))) == 6
        assert ev(Arith("%", Col("b"), Lit(4))) == 3

    def test_cmp(self):
        assert ev(Cmp("<", Col("a"), Col("b")))
        assert not ev(Cmp("=", Col("a"), Col("b")))
        assert ev(Cmp(">=", Col("b"), Lit(7)))

    def test_boolop(self):
        yes = Cmp("<", Col("a"), Col("b"))
        no = Cmp(">", Col("a"), Col("b"))
        assert ev(BoolOp("AND", [yes, yes]))
        assert not ev(BoolOp("AND", [yes, no]))
        assert ev(BoolOp("OR", [no, yes]))

    def test_not(self):
        assert ev(Not(Cmp(">", Col("a"), Col("b"))))

    def test_between(self):
        assert ev(Between(Col("a"), Lit(1), Lit(3)))  # inclusive
        assert not ev(Between(Col("a"), Lit(4), Lit(9)))

    def test_in_list(self):
        assert ev(InList(Col("a"), [1, 3, 5]))
        assert not ev(InList(Col("a"), [2, 4]))


class TestDateFunctions:
    def test_year_quarter_month(self):
        assert ev(Func("YEAR", [Col("d")])) == 2001
        assert ev(Func("QUARTER", [Col("d")])) == 3
        assert ev(Func("MONTH", [Col("d")])) == 8
        assert ev(Func("DAY", [Col("d")])) == 15

    def test_day_of_year(self):
        assert ev(Func("DAY_OF_YEAR", [Col("d")])) == 227

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            Func("NOPE", [Col("a")])

    def test_quarter_boundaries(self):
        import datetime as dt

        from repro.engine.expr import FUNCTIONS

        quarter = FUNCTIONS["QUARTER"]
        assert quarter(dt.date(2001, 1, 1)) == 1
        assert quarter(dt.date(2001, 3, 31)) == 1
        assert quarter(dt.date(2001, 4, 1)) == 2
        assert quarter(dt.date(2001, 12, 31)) == 4


class TestColumnsAndRender:
    def test_columns_collects_references(self):
        expr = BoolOp(
            "AND",
            [Cmp("=", Col("a"), Lit(1)), Between(Col("b"), Lit(0), Col("t.a"))],
        )
        assert expr.columns() == {"a", "b", "t.a"}

    def test_render_roundtrip_ish(self):
        expr = Between(Col("d"), Lit(datetime.date(2001, 1, 1)), Lit(datetime.date(2001, 2, 1)))
        text = expr.render()
        assert "BETWEEN" in text and "DATE '2001-01-01'" in text

    def test_lit_render_string(self):
        assert Lit("x").render() == "'x'"


@pytest.mark.parametrize("conjunct, bound", [
    (Between(Col("a"), Lit(1), Lit(5)), ("a", 1, 5)),
    (Cmp(">=", Col("a"), Lit(2)), ("a", 2, None)),
    (Cmp("<=", Col("a"), Lit(2)), ("a", None, 2)),
    (Cmp("=", Col("a"), Lit(2)), ("a", 2, 2)),
    (Cmp("<=", Lit(2), Col("a")), ("a", 2, None)),
    (Cmp(">=", Lit(2), Col("a")), ("a", None, 2)),
    (Cmp("=", Lit(2), Col("a")), ("a", 2, 2)),
    (Cmp(">", Col("a"), Lit(2)), None),
    (Cmp("<", Lit(2), Col("a")), None),
    (Cmp("<>", Col("a"), Lit(2)), None),
    (Cmp("=", Col("a"), Col("b")), None),
    (Between(Col("a"), Lit(1), Col("b")), None),
    (Between(Arith("+", Col("a"), Lit(1)), Lit(1), Lit(5)), None),
    (BoolOp("AND", [Cmp(">=", Col("a"), Lit(2))]), None),
])
def test_inclusive_bound(conjunct, bound):
    assert inclusive_bound(conjunct) == bound
