"""Tokenizer for the SQL subset.

Produces a flat token list for the recursive-descent parser.  Keywords are
case-insensitive; identifiers preserve case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..errors import QueryError

__all__ = ["Token", "tokenize", "SqlSyntaxError"]

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "AS",
    "AND", "OR", "NOT", "BETWEEN", "IN", "JOIN", "INNER", "ON", "LIMIT",
    "ASC", "DESC", "DATE", "HAVING", "TRUE", "FALSE",
}

SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "*",
           "+", "-", "/", "%")


class SqlSyntaxError(QueryError, ValueError):
    """Lexical or syntactic error in a query.

    ``position`` is the character offset of the offending token in the
    statement text.  A :class:`QueryError`, so ``Database.execute``
    counts it as a failed query; still a ``ValueError`` for callers that
    catch bad input that way.
    """

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Token:
    """One token: kind ∈ {KEYWORD, IDENT, NUMBER, STRING, SYMBOL, EOF}."""

    kind: str
    value: str
    position: int

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "KEYWORD" and self.value in words

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "SYMBOL" and self.value in symbols


def tokenize(text: str) -> List[Token]:
    """Tokenize a statement; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 1
            if j >= n:
                raise SqlSyntaxError(f"unterminated string literal at {i}", i)
            tokens.append(Token("STRING", text[i + 1:j], i))
            i = j + 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # a dot not followed by a digit terminates the number
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.upper() in KEYWORDS:
                tokens.append(Token("KEYWORD", word.upper(), i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = j
            continue
        matched = False
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token("SYMBOL", symbol, i))
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}", i)
    tokens.append(Token("EOF", "", n))
    return tokens
