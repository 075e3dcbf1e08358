"""Schemas: named, typed column lists with fast position lookup."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from .types import DataType

__all__ = ["Column", "Schema", "resolve_name"]


def resolve_name(names, reference: str) -> str:
    """The one name in ``names`` (exact column names, in order) that
    ``reference`` answers to: itself, else the unique name ending in
    ``"." + reference``.

    :meth:`Schema.resolve`'s rule, for callers that hold names without a
    schema.  Raises ``KeyError`` if nothing matches and ``ValueError`` if
    several names do.
    """
    if reference in names:
        return reference
    matches = [name for name in names if name.endswith("." + reference)]
    if not matches:
        raise KeyError(f"no column matching {reference!r} in {tuple(names)}")
    if len(matches) > 1:
        raise ValueError(f"ambiguous column {reference!r}: matches {sorted(matches)}")
    return matches[0]


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __str__(self) -> str:
        return f"{self.name} {self.dtype.value.upper()}"


class Schema:
    """An ordered list of columns with name → position resolution.

    Column names may be qualified (``alias.column``); :meth:`resolve` accepts
    either the exact name or an unambiguous suffix, which is how the binder
    lets queries write ``price`` for ``s.price`` when no other ``price``
    exists.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns: Tuple[Column, ...] = tuple(columns)
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")
        self._positions = {name: i for i, name in enumerate(names)}

    @classmethod
    def of(cls, *specs: "tuple[str, DataType]") -> "Schema":
        """Build from ``("name", DataType)`` pairs."""
        return cls(Column(name, dtype) for name, dtype in specs)

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def position(self, name: str) -> int:
        """Exact-name position lookup."""
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"no column {name!r} in {self.names}") from None

    def resolve(self, reference: str) -> str:
        """Resolve a possibly-unqualified reference to an exact column name.

        Raises ``KeyError`` if nothing matches and ``ValueError`` if the
        reference is ambiguous.
        """
        if reference in self._positions:
            return reference
        return resolve_name(self._positions, reference)

    def dtype_of(self, reference: str) -> DataType:
        return self.columns[self.position(self.resolve(reference))].dtype

    def rename(self, names: Sequence[str]) -> "Schema":
        """Same types, new names (projection output)."""
        if len(names) != len(self.columns):
            raise ValueError("rename width mismatch")
        return Schema(
            Column(new, column.dtype) for new, column in zip(names, self.columns)
        )

    def concat(self, other: "Schema") -> "Schema":
        """Join output: concatenation of both column lists."""
        return Schema(self.columns + other.columns)

    def select(self, names: Sequence[str]) -> "Schema":
        """A sub-schema in the given column order."""
        resolved = [self.resolve(name) for name in names]
        return Schema(self.columns[self.position(name)] for name in resolved)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schema({', '.join(str(column) for column in self.columns)})"
