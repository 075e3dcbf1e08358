"""Tables: typed row storage with OD/FD check-constraint enforcement.

The paper proposes declaring ODs as a new kind of *integrity constraint*
(Section 2.2; their DB2 prototype added exactly such a check constraint).
:class:`Table` realizes that: statements registered through
:meth:`Table.declare` are validated on ``load`` and ``insert``, on demand,
and — for rows that joined unchecked — before a plan trusts them
(:meth:`Table.check_appended`), with split/swap witnesses in the error
message.
"""
from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.attrs import AttrList
from ..core.dependency import Statement
from ..core.relation import Relation
from ..core.satisfaction import AppendChecker, explain_violation, satisfies
from .epoch import bump_epoch
from .schema import Schema
from .types import validate_value

__all__ = ["Table", "ConstraintViolation"]


class ConstraintViolation(ValueError):
    """A declared dependency is falsified by the table's data."""


class Table:
    """A named, typed, row-oriented table."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self.rows: List[tuple] = []
        self.constraints: List[Statement] = []
        self._columnar: Optional[List[list]] = None
        self._columnar_row_count = -1
        #: Times the column view was extended by appended rows vs
        #: transposed from all of them.
        self.columnar_maintenance = {"extended": 0, "rebuilt": 0}
        #: The constraints and row count the last passed check covered,
        #: and the checker that admits further rows one at a time.
        self._checked: Optional[Tuple[List[Statement], int, AppendChecker]] = None
        #: Times a constraint check only looked at the appended rows vs
        #: ran the full pass over the table.
        self.maintenance = {"extended": 0, "rebuilt": 0}
        #: How many leading rows every declared constraint is known to hold
        #: on; rows past it joined unchecked (``load(check=False)``, a
        #: direct append) and :meth:`check_appended` checks them.
        self._verified_rows = 0

    # ------------------------------------------------------------------
    # Data manipulation
    # ------------------------------------------------------------------
    def _validated(self, row: Sequence[Any]) -> tuple:
        if len(row) != len(self.schema):
            raise ValueError(
                f"{self.name}: row width {len(row)} != schema width "
                f"{len(self.schema)}"
            )
        return tuple(
            validate_value(value, column.dtype, column.name)
            for value, column in zip(row, self.schema)
        )

    def insert(self, row: Sequence[Any]) -> None:
        """Insert one row, validating types and declared constraints: a
        row a constraint rejects is not kept (see :meth:`load`)."""
        self.load((row,))

    def load(self, rows: Iterable[Sequence[Any]], check: bool = True) -> "Table":
        """Bulk insert; validates declared constraints afterwards.

        Every row is type-checked before any is appended, and a load the
        constraints reject is undone before the
        :class:`ConstraintViolation` is raised: the optimizer trusts
        declared ODs, so a failed load leaves the table exactly as it was.
        """
        validated = [self._validated(row) for row in rows]
        before = len(self.rows)
        if validated:
            self.rows.extend(validated)
            # A data mutation: it re-forks the process pool; cached plans
            # re-check what they were planned on instead (see epoch.py).
            bump_epoch("insert")
        if not self.constraints:
            self._verified_rows = len(self.rows)
        elif check:
            try:
                self.check_constraints()
            except ConstraintViolation:
                del self.rows[before:]
                bump_epoch("load-rejected")
                raise
        return self

    def insert_dicts(self, dicts: Iterable[Dict[str, Any]], check: bool = True) -> "Table":
        """Bulk insert from mappings keyed by column name."""
        names = self.schema.names
        return self.load((tuple(d[n] for n in names) for d in dicts), check=check)

    def __len__(self) -> int:
        return len(self.rows)

    def columnar(self) -> List[list]:
        """A cached column-major view of the rows (one list per column).

        Scans slice these vectors or gather from them by row id instead of
        transposing row tuples per batch.  Brought up to date lazily on
        the row count (the staleness rule ``SortedIndex`` uses): rows
        appended since the last call extend the lists *in place*, any
        other change re-transposes.  Treat the lists as read-only and
        never hand one out unsliced — it grows under its holder.
        """
        covered, rows = self._columnar_row_count, self.rows
        if covered == len(rows):
            return self._columnar
        if 0 <= covered < len(rows):
            for column, appended in zip(self._columnar, zip(*rows[covered:])):
                column.extend(appended)
            self.columnar_maintenance["extended"] += 1
        else:
            if rows:
                self._columnar = [list(column) for column in zip(*rows)]
            else:
                self._columnar = [[] for _ in self.schema]
            self.columnar_maintenance["rebuilt"] += 1
        self._columnar_row_count = len(rows)
        return self._columnar

    # ------------------------------------------------------------------
    # Constraints (the paper's OD check constraints)
    # ------------------------------------------------------------------
    def declare(self, statement: Statement, check: bool = True) -> "Table":
        """Register a dependency statement as an integrity constraint.

        With ``check=False`` the current rows count as unchecked: the next
        :meth:`check_constraints` (a checked load, or a plan through
        :meth:`check_appended`) checks them all.
        """
        for attribute in sorted(statement.attributes):
            self.schema.resolve(attribute)  # raises on unknown columns
        if check and self.rows and not satisfies(self.as_relation(), statement):
            raise ConstraintViolation(
                f"{self.name}: {explain_violation(self.as_relation(), statement)}"
            )
        if not check:
            self._verified_rows = 0
        elif not self.constraints:
            self._verified_rows = len(self.rows)
        self.constraints.append(statement)
        bump_epoch("declare")
        return self

    def check_constraints(self) -> None:
        """Validate every declared constraint against current data.

        When the last check passed on the same constraints and rows have
        only been appended since, just the new rows are examined (see
        :class:`~repro.core.satisfaction.AppendChecker`).  A new row that
        fails there, a new constraint or a shrunken table goes through
        the full :func:`explain_violation` pass, which also words the
        error.
        """
        checked, self._checked = self._checked, None  # kept only by a pass
        if checked is not None:
            constraints, row_count, checker = checked
            if constraints == self.constraints and row_count <= len(self.rows):
                appended = self.rows[row_count:]
                if all(checker.admit(row) for row in appended):
                    self._checked = (constraints, len(self.rows), checker)
                    self._verified_rows = len(self.rows)
                    if appended:
                        self.maintenance["extended"] += 1
                    return
        self.maintenance["rebuilt"] += 1
        relation = self.as_relation()
        for statement in self.constraints:
            reason = explain_violation(relation, statement)
            if reason is not None:
                raise ConstraintViolation(f"{self.name}: {reason}")
        self._checked = (
            list(self.constraints),
            len(self.rows),
            AppendChecker(relation.attributes, self.constraints, self.rows),
        )
        self._verified_rows = len(self.rows)

    def check_appended(self) -> None:
        """Check rows that joined the table unchecked before a plan trusts
        its declared constraints.

        The optimizer removes sorts and joins on the strength of declared
        dependencies, so rows a ``load(check=False)`` or a direct append
        added since the last passed check go through
        :meth:`check_constraints` first — the
        :class:`~repro.core.satisfaction.AppendChecker` admits them one at
        a time when that check still covers the rows before them.  A
        violation raises :class:`ConstraintViolation` and leaves the rows
        in place; a table with nothing unchecked costs one comparison.
        """
        if self.constraints and self._verified_rows != len(self.rows):
            self.check_constraints()

    # ------------------------------------------------------------------
    # Bridging to the theory layer
    # ------------------------------------------------------------------
    def as_relation(self) -> Relation:
        """View this table as a :class:`~repro.core.relation.Relation`."""
        return Relation(AttrList(self.schema.names), self.rows, name=self.name)

    def column_values(self, name: str) -> List[Any]:
        position = self.schema.position(self.schema.resolve(name))
        return [row[position] for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows, {len(self.schema)} cols)"
