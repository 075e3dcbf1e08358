"""Independent references for the end-to-end benchmark.

Nothing here trusts the engine's internals.  SQL answers are judged by a
``sqlite3`` mirror of the generated tables; OD verdicts by this file's own
enumeration of two-row sign vectors (it shares no code with
``repro.core.signs``).  The mirror lives in the *oracle child* process, so
the measured interpreter's ``ru_maxrss`` never contains it; what crosses the
process boundary is one small digest per statement.

A digest is ``[row count, order-independent hash of the non-float columns,
per-float-column sums]``.  Floats are summed, not hashed, because the two
engines fold SUM/AVG in different orders; sums are compared with a relative
tolerance.  The hash is Python's own tuple hash, which is only comparable
across processes because ``run.py`` starts every child with
``PYTHONHASHSEED=0``.
"""
from __future__ import annotations

import datetime
import itertools
import math
import re
import sqlite3
from operator import itemgetter

_HASH_MASK = (1 << 61) - 1
_NULL = "\0NULL"


# ----------------------------------------------------------------------
# SQL: sqlite mirror
# ----------------------------------------------------------------------
def _to_sqlite(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _sqlite_type(dtype) -> str:
    return {"int": "INTEGER", "float": "REAL", "bool": "INTEGER"}.get(
        dtype.value, "TEXT"
    )


class Mirror:
    """One in-memory sqlite database per engine ``Database``."""

    def __init__(self, databases: dict) -> None:
        self.conns = {}
        for key, database in databases.items():
            conn = sqlite3.connect(":memory:")
            for name, table in database.tables.items():
                columns = ", ".join(
                    f'"{c}" {_sqlite_type(table.schema.dtype_of(c))}'
                    for c in table.schema.names
                )
                conn.execute(f'CREATE TABLE "{name}" ({columns})')
                self._insert(conn, name, table.rows)
            # Same access paths as the engine, so reference queries over a
            # narrow window do not scan the whole fact table.
            for index in database.indexes.values():
                columns = ", ".join(f'"{c}"' for c in index.key_columns)
                conn.execute(
                    f'CREATE INDEX "{index.name}" ON "{index.table.name}" ({columns})'
                )
            conn.execute("ANALYZE")
            conn.commit()
            self.conns[key] = conn

    @staticmethod
    def _insert(conn, table_name: str, rows) -> None:
        rows = [[_to_sqlite(v) for v in row] for row in rows]
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            conn.executemany(f'INSERT INTO "{table_name}" VALUES ({marks})', rows)

    def load(self, db_key: str, table_name: str, rows) -> None:
        """Keep the mirror in step with a ``Table.load`` on the engine."""
        self._insert(self.conns[db_key], table_name, rows)

    def query(self, db_key: str, sql: str):
        """Reference rows for an engine statement (DATE literals → TEXT)."""
        cursor = self.conns[db_key].execute(re.sub(r"DATE\s+'", "'", sql))
        return cursor.fetchall()

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()


# ----------------------------------------------------------------------
# SQL: digests and the full comparison
# ----------------------------------------------------------------------
def digest(rows) -> list:
    """``[count, hash of exact columns, float column sums]`` of a result."""
    rows = rows if isinstance(rows, list) else list(rows)
    if not rows:
        return [0, 0, []]
    first = rows[0]
    if any(isinstance(v, datetime.date) for v in first) or any(
        None in row for row in rows
    ):
        return _digest_slow(rows)
    float_cols = [i for i, v in enumerate(first) if isinstance(v, float)]
    exact_cols = [i for i in range(len(first)) if i not in float_cols]
    if not float_cols:
        total = sum(map(hash, rows))
    elif exact_cols:
        # One exact column hashes as a scalar, several as a tuple; the slow
        # path below does the same, so both sides of a comparison agree.
        total = sum(map(hash, map(itemgetter(*exact_cols), rows)))
    else:
        total = 0
    sums = [math.fsum(map(itemgetter(c), rows)) for c in float_cols]
    return [len(rows), total & _HASH_MASK, sums]


def _digest_slow(rows) -> list:
    """NULL- and date-safe path: ``hash(None)`` is address-based before
    Python 3.12, so NULLs are swapped for a string first."""
    float_cols = sorted(
        {i for row in rows for i, v in enumerate(row) if isinstance(v, float)}
    )
    total = 0
    sums = [0.0] * len(float_cols)
    for row in rows:
        exact = []
        for i, value in enumerate(row):
            if i in float_cols:
                if value is not None:
                    sums[float_cols.index(i)] += value
                else:
                    exact.append(_NULL)
            elif value is None:
                exact.append(_NULL)
            else:
                exact.append(_to_sqlite(value))
        total += hash(tuple(exact)) if len(exact) != 1 else hash(exact[0])
    return [len(rows), total & _HASH_MASK, sums]


def digests_match(got, want) -> bool:
    if got[0] != want[0] or got[1] != want[1] or len(got[2]) != len(want[2]):
        return False
    return all(
        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6) for a, b in zip(got[2], want[2])
    )


def _canon(rows) -> list:
    """Sorted rows with floats cut to 9 significant digits (SUM fold order
    differs between engines; 9 digits survive at this scale)."""

    def value(v):
        if isinstance(v, bool):
            return int(v)
        if isinstance(v, float):
            return float(f"{v:.9g}")
        if isinstance(v, datetime.date):
            return v.isoformat()
        return v

    return sorted((tuple(value(v) for v in row) for row in rows), key=repr)


def same_multiset(engine_rows, reference_rows) -> bool:
    return _canon(engine_rows) == _canon(reference_rows)


def is_ordered(columns, rows, order_keys) -> bool:
    """The ORDER BY sequence property: the result, read top to bottom, is
    non-decreasing on the statement's ORDER BY keys."""
    positions = []
    for key in order_keys:
        matches = [
            i for i, c in enumerate(columns) if c == key or c.endswith("." + key)
        ]
        if not matches:
            return False
        positions.append(matches[0])
    if not positions:
        return True
    pick = itemgetter(*positions)
    keys = list(map(pick, rows))
    return all(a <= b for a, b in zip(keys, keys[1:]))


# ----------------------------------------------------------------------
# OD implication: brute force over two-row sign vectors
# ----------------------------------------------------------------------
def _lex_sign(signs, positions) -> int:
    for p in positions:
        if signs[p]:
            return signs[p]
    return 0


def _od_holds(signs, lhs, rhs) -> bool:
    left = _lex_sign(signs, lhs)
    right = _lex_sign(signs, rhs)
    return right == 0 if left == 0 else right in (0, left)


def brute_force_verdicts(names, premises, goals) -> list:
    """``M ⊨ θ`` for each goal, by enumerating all ``3^n`` sign vectors.

    ``premises`` and ``goals`` are ``(lhs names, rhs names)`` pairs.  An OD
    is a pairwise constraint, so a two-row instance — abstracted to the sign
    of each attribute's comparison — refutes it whenever anything does.
    """
    index = {name: i for i, name in enumerate(names)}

    def compile_od(od):
        return tuple(index[a] for a in od[0]), tuple(index[a] for a in od[1])

    models = itertools.product((-1, 0, 1), repeat=len(names))
    for lhs, rhs in map(compile_od, premises):
        models = [m for m in models if _od_holds(m, lhs, rhs)]
    models = list(models)
    return [
        all(_od_holds(m, lhs, rhs) for m in models)
        for lhs, rhs in map(compile_od, goals)
    ]
