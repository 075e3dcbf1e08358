"""The SQL front-end: lexer, parser, binder."""
from __future__ import annotations

import datetime
import sqlite3

import pytest

from repro.engine.database import Database
from repro.engine.errors import QueryError
from repro.engine.expr import Between, BoolOp, Cmp, Col, Func, InList, Lit
from repro.engine.logical import (
    BindError,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    bind,
)
from repro.engine.schema import Schema
from repro.engine.sql.ast import AggCall
from repro.engine.sql.lexer import SqlSyntaxError, tokenize
from repro.engine.sql.parser import parse
from repro.engine.types import DataType
from repro.optimizer.rewrites import NameResolver, collect_aliases, orient_join_keys


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("SELECT a FROM t")]
        assert kinds == ["KEYWORD", "IDENT", "KEYWORD", "IDENT", "EOF"]

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind == "STRING" and tokens[0].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("1 2.5 .75")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", ".75"]

    def test_symbols(self):
        tokens = tokenize("a >= 1 AND b <> 2")
        symbols = [t.value for t in tokens if t.kind == "SYMBOL"]
        assert symbols == [">=", "<>"]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a ? b")

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].is_keyword("SELECT")


class TestParser:
    def test_minimal(self):
        statement = parse("SELECT a FROM t")
        assert statement.items[0].expr == Col("a")
        assert statement.table.table == "t"

    def test_star(self):
        statement = parse("SELECT * FROM t")
        assert statement.items[0].expr is None

    def test_aliases(self):
        statement = parse("SELECT a AS x, b y FROM t AS u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.table.alias == "u"

    def test_implicit_table_alias(self):
        statement = parse("SELECT a FROM tab t2")
        assert statement.table.alias == "t2"

    def test_where_precedence(self):
        statement = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(statement.where, BoolOp)
        assert statement.where.op == "OR"

    def test_between_and_in(self):
        statement = parse(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2)"
        )
        conjuncts = statement.where.operands
        assert isinstance(conjuncts[0], Between)
        assert isinstance(conjuncts[1], InList)

    def test_date_literal(self):
        statement = parse("SELECT a FROM t WHERE d = DATE '2001-05-06'")
        assert statement.where.right == Lit(datetime.date(2001, 5, 6))

    def test_join(self):
        statement = parse(
            "SELECT a FROM t JOIN u ON t.x = u.y AND t.z = u.w"
        )
        join = statement.joins[0]
        assert join.left_columns == ("t.x", "t.z")
        assert join.right_columns == ("u.y", "u.w")

    def test_group_order_limit(self):
        statement = parse(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a LIMIT 5"
        )
        assert statement.group_by == ("a",)
        assert statement.order_by[0].column == "a"
        assert statement.limit == 5

    def test_desc_rejected(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse("SELECT a FROM t ORDER BY a DESC")
        assert "ascending" in str(excinfo.value)

    def test_asc_accepted(self):
        statement = parse("SELECT a FROM t ORDER BY a ASC, b")
        assert [item.column for item in statement.order_by] == ["a", "b"]

    def test_aggregates(self):
        statement = parse("SELECT COUNT(*), SUM(b) FROM t")
        assert statement.items[0].expr == AggCall("COUNT", None)
        assert statement.items[1].expr == AggCall("SUM", Col("b"))

    def test_scalar_function(self):
        statement = parse("SELECT YEAR(d) FROM t")
        assert statement.items[0].expr == Func("YEAR", [Col("d")])

    def test_arithmetic_precedence(self):
        statement = parse("SELECT a + b * 2 FROM t")
        expr = statement.items[0].expr
        assert expr.op == "+" and expr.right.op == "*"

    def test_unary_minus(self):
        statement = parse("SELECT a FROM t WHERE a > -5")
        assert statement.where.right.op == "-"

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t WHERE a = 1 banana extra")

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_sum_star_invalid(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT SUM(*) FROM t")


class TestBinder:
    def test_plain_pipeline_shape(self):
        node = bind(parse(
            "SELECT a FROM t WHERE a = 1 ORDER BY a LIMIT 2"
        ))
        assert isinstance(node, LogicalLimit)
        assert isinstance(node.child, LogicalSort)
        assert isinstance(node.child.child, LogicalProject)
        assert isinstance(node.child.child.child, LogicalFilter)
        assert isinstance(node.child.child.child.child, LogicalScan)

    def test_joins_left_deep(self):
        node = bind(parse(
            "SELECT a FROM t JOIN u ON t.x = u.y JOIN v ON u.y = v.z"
        ))
        project = node
        join2 = project.child
        assert isinstance(join2, LogicalJoin)
        assert isinstance(join2.left, LogicalJoin)
        assert isinstance(join2.right, LogicalScan)

    def test_on_pairs_put_the_joined_table_on_the_right(self):
        """The planner orients ON pairs by the table that owns each
        column, qualified or not; the binder keeps them as written."""
        database = Database()
        for name, columns in (("t", ("x", "z", "a")), ("u", ("y", "v", "b"))):
            database.create_table(
                name, Schema.of(*((column, DataType.INT) for column in columns))
            )
        node = bind(parse(
            "SELECT a FROM t JOIN u AS w ON w.y = t.x AND t.z = w.v AND b = a"
        ))
        assert node.child.left_columns == ("w.y", "t.z", "b")
        oriented = orient_join_keys(
            node, NameResolver(database, collect_aliases(node))
        )
        join = oriented.child
        assert join.left_columns == ("t.x", "t.z", "a")
        assert join.right_columns == ("w.y", "w.v", "b")

    def test_repeated_group_keys_collapse(self):
        node = bind(parse("SELECT a, COUNT(*) FROM t GROUP BY a, b, a"))
        assert node.child.group_columns == ("a", "b")

    def test_aggregate_lifting(self):
        node = bind(parse("SELECT a, SUM(b) AS total FROM t GROUP BY a"))
        project = node
        aggregate = project.child
        assert isinstance(aggregate, LogicalAggregate)
        assert aggregate.group_columns == ("a",)
        assert aggregate.aggregates[0].name == "total"

    def test_agg_without_groupby_is_global(self):
        node = bind(parse("SELECT COUNT(*) FROM t"))
        aggregate = node.child
        assert isinstance(aggregate, LogicalAggregate)
        assert aggregate.group_columns == ()

    def test_default_agg_names(self):
        node = bind(parse("SELECT COUNT(*), COUNT(*) FROM t"))
        names = [spec.name for spec in node.child.aggregates]
        assert len(set(names)) == 2

    def test_star_with_groupby_rejected(self):
        with pytest.raises(BindError):
            bind(parse("SELECT * FROM t GROUP BY a"))


class TestHaving:
    def test_parse_having(self):
        statement = parse(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 5"
        )
        assert statement.having is not None

    def test_having_lifts_new_aggregate(self):
        node = bind(parse(
            "SELECT a FROM t GROUP BY a HAVING SUM(b) > 10"
        ))
        # Filter above Aggregate; a hidden SUM spec added
        filter_node = node.child
        assert isinstance(filter_node, LogicalFilter)
        aggregate = filter_node.child
        assert isinstance(aggregate, LogicalAggregate)
        assert any(s.name.startswith("_having") for s in aggregate.aggregates)

    def test_having_reuses_selected_aggregate(self):
        node = bind(parse(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 5"
        ))
        aggregate = node.child.child
        assert isinstance(aggregate, LogicalAggregate)
        assert len(aggregate.aggregates) == 1  # reused, not duplicated

    def test_having_without_groupby_is_global(self):
        node = bind(parse("SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 0"))
        assert isinstance(node.child, LogicalFilter)


# ----------------------------------------------------------------------
# Malformed statements fail typed, with a position, and are counted
# ----------------------------------------------------------------------
MALFORMED = [
    # (statement, the text the error must point at)
    ("SELECT a FROM t WHERE a = 'oops", "'oops"),
    ("SELECT a FROM t WHERE d >= DATE '2020-13-01'", "'2020-13-01'"),
    ("SELECT a FROM t WHERE", ""),
    ("SELECT a FROM t WHERE d BETWEEN DATE '{lo}' AND DATE '{hi}'", "'{lo}'"),
    ("SELECT a FROM t WHERE a BETWEEN {lo} AND {hi}", "{lo}"),
    ("SELECT a FROM t AS", ""),
    ("SELECT a FROM t LIMIT 1.5", "1.5"),
]


@pytest.mark.parametrize(
    "sql,marker", MALFORMED,
    ids=["unterminated-string", "bad-date", "trailing-where",
         "unfilled-date-placeholder", "unfilled-placeholder",
         "alias-missing-at-end", "fractional-limit"],
)
def test_malformed_sql_fails_typed_and_counted(sql, marker):
    database = Database()
    database.create_table("t", Schema.of(("a", DataType.INT), ("d", DataType.DATE)))
    expected_position = sql.index(marker) if marker else len(sql)
    for attempt in range(1, 4):
        with pytest.raises(SqlSyntaxError) as excinfo:
            database.execute(sql)
        error = excinfo.value
        assert isinstance(error, QueryError) and isinstance(error, ValueError)
        assert error.position == expected_position
        counters = database.stats_snapshot()["engine"]["counters"]
        assert counters["failures"] == attempt


# ----------------------------------------------------------------------
# Column references bind before anything reads rows
# ----------------------------------------------------------------------
UNBOUND = [
    ("SELECT nope FROM t", "'nope' in the SELECT list is unknown"),
    ("SELECT a FROM t WHERE nope = 1", "'nope' in WHERE is unknown"),
    ("SELECT a FROM t ORDER BY nope", "'nope' in ORDER BY is unknown"),
    ("SELECT a FROM t GROUP BY nope", "'nope' in GROUP BY is unknown"),
    ("SELECT t.nope FROM t", "'t.nope' in the SELECT list is unknown"),
    ("SELECT x.a FROM t", "'x.a' in the SELECT list is unknown"),
    (
        "SELECT a FROM t GROUP BY b",
        "'a' in the SELECT list is neither grouped nor aggregated",
    ),
    ("SELECT SUM(nope) AS s FROM t", "'nope' in an aggregate is unknown"),
    (
        "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING nope > 0",
        "'nope' in HAVING is unknown",
    ),
    (
        "SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY c",
        "'c' in ORDER BY is neither grouped nor aggregated",
    ),
    ("SELECT DISTINCT a FROM t ORDER BY b", "'b' in ORDER BY is not selected"),
]


def _abc_database():
    database = Database()
    table = database.create_table(
        "t", Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT))
    )
    table.load([(1, 2, 3), (2, 2, 4), (3, 5, 6)])
    return database


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("sql,marker", UNBOUND)
def test_unknown_column_fails_typed_naming_every_column(sql, marker, batch_size):
    """Not the pruned scan's columns in a bare ``KeyError``: every column
    of the statement's tables, in a :class:`BindError` raised before any
    statistics are collected."""
    database = _abc_database()
    with pytest.raises(BindError) as excinfo:
        database.execute(sql, batch_size=batch_size)
    message = str(excinfo.value)
    assert marker in message
    assert message.endswith("the statement's tables have t.a, t.b, t.c")
    assert database.stats_snapshot()["maintenance"]["stats"]["rebuilt"] == 0


def _two_table_database():
    database = Database()
    for name, columns in (("t", ("a", "b")), ("u", ("a", "d")), ("c", ("z",))):
        table = database.create_table(
            name, Schema.of(*((column, DataType.INT) for column in columns))
        )
        table.load([tuple(range(1, len(columns) + 1))])
    return database


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize(
    "sql,marker",
    [
        (
            "SELECT a FROM t JOIN u ON t.a = u.a",
            "'a' in the SELECT list is ambiguous (it matches t.a, u.a)",
        ),
        (
            "SELECT b FROM t JOIN u ON t.a = u.a WHERE a > 0",
            "'a' in WHERE is ambiguous (it matches t.a, u.a)",
        ),
        (
            "SELECT t.a, u.a FROM t JOIN u ON t.a = u.a ORDER BY a",
            "'a' in ORDER BY is ambiguous (it matches t.a, u.a)",
        ),
        (
            "SELECT * FROM t JOIN u ON t.a = c.z JOIN c ON u.d = c.z",
            "'c.z' in ON is not a column of u",
        ),
    ],
)
def test_ambiguous_or_out_of_scope_names_fail_typed(sql, marker, batch_size):
    """No name that several columns answer to, and no ON key outside its
    own join's inputs: a :class:`BindError` before any statistics are
    collected, not a bare ``ValueError``/``KeyError`` from planning."""
    database = _two_table_database()
    with pytest.raises(BindError) as excinfo:
        database.execute(sql, batch_size=batch_size)
    assert marker in str(excinfo.value)
    assert database.stats_snapshot()["maintenance"]["stats"]["rebuilt"] == 0


def _sqlite_rows(database, sql):
    """``sql``'s rows from an in-memory sqlite copy of ``database``."""
    conn = sqlite3.connect(":memory:")
    for name, table in database.tables.items():
        conn.execute(f"CREATE TABLE {name} ({', '.join(table.schema.names)})")
        marks = ", ".join("?" for _ in table.schema.names)
        conn.executemany(f"INSERT INTO {name} VALUES ({marks})", table.rows)
    return conn.execute(sql).fetchall()


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT b FROM t JOIN u ON d = b",
        "SELECT b, d FROM t JOIN u ON d = b AND u.a = t.a",
        "SELECT z FROM t JOIN u ON t.a = u.a JOIN c ON z = t.a",
    ],
)
def test_on_pairs_orient_by_owner(sql, batch_size):
    """Either side of an ON ``=`` may name either input, qualified or not:
    each pair is oriented by the table that owns each column."""
    database = _two_table_database()
    rows = database.execute(sql, batch_size=batch_size).rows
    assert sorted(rows) == sorted(_sqlite_rows(database, sql))
    assert rows


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT COUNT(*) FROM t GROUP BY a, a",
        "SELECT a, COUNT(*) FROM t GROUP BY a, a",
        "SELECT b, a, SUM(c) FROM t GROUP BY b, a, b ORDER BY a",
    ],
)
def test_repeated_group_keys_collapse_like_sqlite(sql, batch_size):
    database = _abc_database()
    database.table("t").load([(1, 5, 7), (3, 2, 1)])
    rows = database.execute(sql, batch_size=batch_size).rows
    assert sorted(rows) == sorted(_sqlite_rows(database, sql))


@pytest.mark.parametrize(
    "sql,rows",
    [
        ("SELECT t.a AS a FROM t JOIN u ON t.a = u.a ORDER BY a", [(1,)]),
        ("SELECT t.a FROM t JOIN u ON t.a = u.a ORDER BY a", [(1,)]),
        ("SELECT b, d FROM t JOIN u ON u.a = t.a ORDER BY b", [(2, 2)]),
        ("SELECT z FROM t JOIN u ON t.a = u.a JOIN c ON u.a = z", [(1,)]),
    ],
)
def test_names_one_scope_resolves_still_bind(sql, rows):
    assert _two_table_database().execute(sql).rows == rows


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize(
    "sql,rows",
    [
        ("SELECT a AS z FROM t ORDER BY z", [(1,), (2,), (3,)]),
        ("SELECT a FROM t ORDER BY c", [(1,), (2,), (3,)]),
        ("SELECT a FROM t AS x ORDER BY x.a", [(1,), (2,), (3,)]),
        ("SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING n > 1", [(2, 2)]),
        ("SELECT t.b, SUM(c) AS s FROM t GROUP BY b ORDER BY s", [(5, 6), (2, 7)]),
        ("SELECT b FROM t GROUP BY b HAVING b > 2", [(5,)]),
    ],
)
def test_aliases_and_dropped_order_keys_still_bind(sql, rows, batch_size):
    database = _abc_database()
    assert database.execute(sql, batch_size=batch_size).rows == rows
