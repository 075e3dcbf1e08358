"""Recursive-descent parser for the SQL subset.

Grammar (informally)::

    select    := SELECT [DISTINCT] items FROM tableref joins* [WHERE expr]
                 [GROUP BY columns] [ORDER BY orderitems] [LIMIT n]
    items     := '*' | item (',' item)*
    item      := expr [AS ident]
    tableref  := ident [[AS] ident]
    joins     := [INNER] JOIN tableref ON colref '=' colref (AND ...)*
    orderitem := colref [ASC]          -- DESC rejected: the paper scopes
                                          ODs to ascending order

Expression precedence: OR < AND < NOT < comparison/BETWEEN/IN < +- < */% <
primary.  ``DATE 'yyyy-mm-dd'`` literals are supported; aggregate calls
(COUNT/SUM/AVG/MIN/MAX) are parsed into :class:`~repro.engine.sql.ast.AggCall`
nodes for the binder to lift.
"""
from __future__ import annotations

import datetime
from typing import List, Optional, Tuple

from ..expr import Arith, Between, BoolOp, Cmp, Col, Expr, Func, InList, Lit, Not
from .ast import (
    AggCall,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    TableRef,
)
from .lexer import SqlSyntaxError, Token, tokenize

__all__ = ["parse", "SqlSyntaxError"]

AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "EOF":  # EOF is sticky: peek() stays in bounds
            self.position += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise SqlSyntaxError(f"expected {word}, got {token.value!r}", token.position)
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        token = self.peek()
        if not token.is_symbol(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, got {token.value!r}", token.position
            )
        return self.advance()

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if self.peek().is_keyword(*words):
            return self.advance()
        return None

    def accept_symbol(self, *symbols: str) -> Optional[Token]:
        if self.peek().is_symbol(*symbols):
            return self.advance()
        return None

    # ------------------------------------------------------------------
    # Statement
    # ------------------------------------------------------------------
    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = self.parse_select_items()
        self.expect_keyword("FROM")
        table = self.parse_table_ref()
        joins: List[JoinClause] = []
        while self.peek().is_keyword("JOIN", "INNER"):
            joins.append(self.parse_join())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: Tuple[str, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self.parse_column_list())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        order_by: List[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.parse_order_items()
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind != "NUMBER" or "." in token.value:
                raise SqlSyntaxError(
                    f"LIMIT expects an integer, got {token.value!r}", token.position
                )
            limit = int(token.value)
        token = self.peek()
        if token.kind != "EOF":
            raise SqlSyntaxError(
                f"unexpected trailing input: {token.value!r}", token.position
            )
        return SelectStatement(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            distinct=distinct,
            limit=limit,
        )

    def parse_select_items(self) -> List[SelectItem]:
        if self.accept_symbol("*"):
            return [SelectItem(None)]
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            token = self.advance()
            if token.kind != "IDENT":
                raise SqlSyntaxError(
                    f"expected alias, got {token.value!r}", token.position
                )
            alias = token.value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return SelectItem(expr, alias)

    def parse_table_ref(self) -> TableRef:
        token = self.advance()
        if token.kind != "IDENT":
            raise SqlSyntaxError(
                f"expected table name, got {token.value!r}", token.position
            )
        alias = token.value
        if self.accept_keyword("AS"):
            named = self.advance()
            if named.kind != "IDENT":
                raise SqlSyntaxError(
                    f"expected alias, got {named.value!r}", named.position
                )
            alias = named.value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return TableRef(token.value, alias)

    def parse_join(self) -> JoinClause:
        self.accept_keyword("INNER")
        self.expect_keyword("JOIN")
        table = self.parse_table_ref()
        self.expect_keyword("ON")
        lefts: List[str] = []
        rights: List[str] = []
        while True:
            left = self.parse_column_name()
            self.expect_symbol("=")
            right = self.parse_column_name()
            lefts.append(left)
            rights.append(right)
            if not self.accept_keyword("AND"):
                break
        return JoinClause(table, tuple(lefts), tuple(rights))

    def parse_column_list(self) -> List[str]:
        columns = [self.parse_column_name()]
        while self.accept_symbol(","):
            columns.append(self.parse_column_name())
        return columns

    def parse_column_name(self) -> str:
        token = self.advance()
        if token.kind != "IDENT":
            raise SqlSyntaxError(
                f"expected column name, got {token.value!r}", token.position
            )
        name = token.value
        if self.accept_symbol("."):
            part = self.advance()
            if part.kind != "IDENT":
                raise SqlSyntaxError("expected column after '.'", part.position)
            name = f"{name}.{part.value}"
        return name

    def parse_order_items(self) -> List[OrderItem]:
        items = [self.parse_order_item()]
        while self.accept_symbol(","):
            items.append(self.parse_order_item())
        return items

    def parse_order_item(self) -> OrderItem:
        column = self.parse_column_name()
        desc = self.accept_keyword("DESC")
        if desc is not None:
            raise SqlSyntaxError(
                "DESC is not supported: the paper's OD framework (and this "
                "reproduction) covers ascending lexicographic orders only",
                desc.position,
            )
        self.accept_keyword("ASC")
        return OrderItem(column)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        operands = [self.parse_and()]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else BoolOp("OR", operands)

    def parse_and(self) -> Expr:
        operands = [self.parse_not()]
        while self.accept_keyword("AND"):
            operands.append(self.parse_not())
        return operands[0] if len(operands) == 1 else BoolOp("AND", operands)

    def parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.advance().value
            right = self.parse_additive()
            return Cmp(op, left, right)
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return Between(left, low, high)
        if token.is_keyword("IN"):
            self.advance()
            self.expect_symbol("(")
            values = [self.parse_literal_value()]
            while self.accept_symbol(","):
                values.append(self.parse_literal_value())
            self.expect_symbol(")")
            return InList(left, values)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.peek().is_symbol("+", "-"):
            op = self.advance().value
            left = Arith(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_primary()
        while self.peek().is_symbol("*", "/", "%"):
            op = self.advance().value
            left = Arith(op, left, self.parse_primary())
        return left

    def parse_literal_value(self):
        token = self.advance()
        if token.kind == "NUMBER":
            return int(token.value) if "." not in token.value else float(token.value)
        if token.kind == "STRING":
            return token.value
        if token.is_keyword("DATE"):
            return self.parse_date_string()
        raise SqlSyntaxError(f"expected literal, got {token.value!r}", token.position)

    def parse_date_string(self) -> datetime.date:
        """The quoted ``yyyy-mm-dd`` string after a ``DATE`` keyword."""
        token = self.advance()
        if token.kind != "STRING":
            raise SqlSyntaxError("DATE literal expects a quoted string", token.position)
        try:
            return datetime.date.fromisoformat(token.value)
        except ValueError as exc:
            raise SqlSyntaxError(
                f"bad DATE literal {token.value!r}: {exc}", token.position
            ) from None

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.is_symbol("-"):
            self.advance()
            inner = self.parse_primary()
            return Arith("-", Lit(0), inner)
        if token.kind == "NUMBER":
            self.advance()
            value = int(token.value) if "." not in token.value else float(token.value)
            return Lit(value)
        if token.kind == "STRING":
            self.advance()
            return Lit(token.value)
        if token.is_keyword("DATE"):
            self.advance()
            return Lit(self.parse_date_string())
        if token.is_keyword("TRUE"):
            self.advance()
            return Lit(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Lit(False)
        if token.kind == "IDENT":
            name = self.advance().value
            if self.peek().is_symbol("("):
                return self.parse_call(name)
            if self.accept_symbol("."):
                part = self.advance()
                if part.kind != "IDENT":
                    raise SqlSyntaxError("expected column after '.'", part.position)
                return Col(f"{name}.{part.value}")
            return Col(name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )

    def parse_call(self, name: str) -> Expr:
        self.expect_symbol("(")
        upper = name.upper()
        if upper in AGG_FUNCS:
            star = self.accept_symbol("*")
            if star is not None:
                self.expect_symbol(")")
                if upper != "COUNT":
                    raise SqlSyntaxError(f"{upper}(*) is not valid", star.position)
                return AggCall("COUNT", None)
            arg = self.parse_expr()
            self.expect_symbol(")")
            return AggCall(upper, arg)
        args: List[Expr] = []
        if not self.peek().is_symbol(")"):
            args.append(self.parse_expr())
            while self.accept_symbol(","):
                args.append(self.parse_expr())
        self.expect_symbol(")")
        return Func(upper, args)


def parse(sql: str) -> SelectStatement:
    """Parse one SELECT statement."""
    return _Parser(tokenize(sql)).parse_select()
