"""Column types for the mini relational engine.

A deliberately small, SQL-flavoured type system: integers, floats, strings,
booleans and dates.  Dates are first-class because the paper's motivating
workloads (Section 2.2's date hierarchy, the TPC-DS rewrite of Section 2.3)
revolve around the date/time domain — 85 of TPC-DS's 99 queries involve date
operators.
"""
from __future__ import annotations

import datetime
import enum
from typing import Any

__all__ = ["DataType", "validate_value", "coerce_literal", "orderable"]


class DataType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    DATE = "date"

    def python_types(self) -> tuple:
        return {
            DataType.INT: (int,),
            DataType.FLOAT: (float, int),
            DataType.STR: (str,),
            DataType.BOOL: (bool,),
            DataType.DATE: (datetime.date,),
        }[self]


class TypeError_(TypeError):
    """A value does not match its column's declared type."""


def orderable(dtype: DataType, value: Any) -> bool:
    """Can a column of ``dtype`` be ordered against ``value`` (``<``,
    ``BETWEEN``)?  Any number orders against any numeric column."""
    if dtype in (DataType.INT, DataType.FLOAT, DataType.BOOL):
        return isinstance(value, (int, float))
    return isinstance(value, dtype.python_types())


def validate_value(value: Any, dtype: DataType, column: str = "?") -> Any:
    """Check (and lightly coerce) a value against a column type.

    ``None`` is rejected — the engine is NULL-free by design, matching the
    paper's set-of-tuples model where comparisons are total.  A float NaN
    is rejected for the same reason (sqlite stores it as NULL): it is
    unordered, and merge joins and index ranges bisect on the order.
    """
    if value is None:
        raise TypeError_(f"column {column!r}: NULLs are not supported")
    if dtype is DataType.BOOL:
        if isinstance(value, bool):
            return value
        raise TypeError_(f"column {column!r}: expected bool, got {value!r}")
    if dtype is DataType.INT and isinstance(value, bool):
        raise TypeError_(f"column {column!r}: expected int, got bool")
    if isinstance(value, dtype.python_types()):
        if dtype is DataType.FLOAT:
            value = float(value)
            if value != value:
                raise TypeError_(f"column {column!r}: NaN is not supported")
        return value
    if dtype is DataType.DATE and isinstance(value, str):
        return datetime.date.fromisoformat(value)
    raise TypeError_(
        f"column {column!r}: expected {dtype.value}, got {type(value).__name__} "
        f"({value!r})"
    )


def coerce_literal(text: str) -> Any:
    """Best-effort literal coercion for unquoted numerics (quoted strings
    and DATE literals are handled in the parser).  The text ``nan`` is
    rejected like a NaN value: the engine stores no unordered value."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    if value != value:
        raise TypeError_(f"literal {text!r}: NaN is not supported")
    return value
