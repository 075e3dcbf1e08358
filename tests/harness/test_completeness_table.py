"""The paper's completeness table as the planner's adversary.

Section 4 proves OD1–OD6 complete by building, for any OD set ``M``, a
table that satisfies ``M`` and falsifies every OD outside ``M⁺``
(``paper_armstrong``; ``canonical_armstrong`` is the one-block-per-model
variant).  Loaded with ``M`` declared, that table is the sharpest data a
planner can face: a sort or stream it drops on an OD outside ``M⁺`` meets
rows that refute the OD, and an order ``M`` implies that the plan still
re-establishes shows up as a ``Sort``.

Each case draws ``M`` over 4–6 integer columns with ``random_od_set``,
builds the table with the two constructions in turn (redrawing past
``MAX_ROWS`` rows, a time budget), loads it as ``t`` and ``u`` with ``M``
declared on both, and gives ``t`` a clustered and a secondary index on
random keys and ``u`` a clustered one.  Every statement runs with
``optimize`` on and off, each plan at batch sizes 1, 3 and 1024:

* ORDER BY over an index range, GROUP BY … ORDER BY, DISTINCT … ORDER BY,
  ORDER BY … LIMIT, a two-table join with ORDER BY and a grouped join;
* rows must equal sqlite's as multisets and ORDER BY must hold as a
  sequence; LIMIT compares the ORDER BY keys only, since ties leave the
  boundary rows to the implementation.

Completeness: for ``ORDER BY X`` over an ``IndexScan`` on key ``K`` (with
nothing but a filter between), the optimized plan has a ``Sort`` iff
``M ⊭ K ↦ X``.  A ``Sort`` the theory makes unnecessary is a missed
order; a missing one it does not justify is an unsound one.  Both counts
must be 0.  sqlite, which shares no code with the engine, judges the
rows; a fresh ``ODTheory`` over ``M`` alone, with no planner state, judges
the count.
"""
from __future__ import annotations

import random
import sqlite3
from collections import Counter

from repro.core.armstrong import canonical_armstrong, paper_armstrong
from repro.core.dependency import od
from repro.core.inference import ODTheory
from repro.engine.database import Database
from repro.engine.operators import IndexScan, Sort, TopN
from repro.engine.schema import Schema
from repro.engine.types import DataType
from repro.workloads.random_instances import random_od_set

COLUMNS = "abcdef"
THEORIES = 24
MAX_ROWS = 400
BATCH_SIZES = (1, 3, 1024)
ORDER_BYS = 4  # ORDER BY statements per theory for the completeness count
LIMIT = 7


def _sample(rng, names, low, high) -> list:
    return rng.sample(names, rng.randint(low, min(high, len(names))))


def _cases():
    """``(names, premises, theory, rows, rng)`` per drawn theory."""
    rng = random.Random(0x15)
    made = 0
    while made < THEORIES:
        names = list(COLUMNS[: rng.randint(4, 6)])
        premises = random_od_set(names, rng.randint(1, len(names)), 2, rng)
        theory = ODTheory(premises)
        build = (paper_armstrong, canonical_armstrong)[made % 2]
        rows = build(theory, names).rows
        if len(rows) > MAX_ROWS:
            continue
        made += 1
        yield names, premises, theory, rows, rng


def _load(names, premises, rows, rng):
    database = Database()
    schema = Schema.of(*((name, DataType.INT) for name in names))
    for table_name in ("t", "u"):
        table = database.create_table(table_name, schema)
        table.load(rows)
        for statement in premises:
            table.declare(statement)  # checked: the construction satisfies M
    database.create_index("t_k", "t", _sample(rng, names, 1, 2), clustered=True)
    database.create_index("t_s", "t", _sample(rng, names, 1, 2))
    database.create_index("u_k", "u", _sample(rng, names, 1, 2), clustered=True)
    mirror = sqlite3.connect(":memory:")
    for table_name in ("t", "u"):
        mirror.execute(f"CREATE TABLE {table_name} ({', '.join(names)})")
        marks = ", ".join("?" for _ in names)
        mirror.executemany(f"INSERT INTO {table_name} VALUES ({marks})", rows)
    return database, mirror


def _statements(names, database, rows, rng):
    """``(sql, ORDER BY output columns, has LIMIT, ORDER BY list)``; the
    last is set on the ORDER BY statements the completeness count reads."""
    lead = database.indexes["t_k"].key_columns[0]
    where = f" WHERE {lead} >= 0"  # every value is >= 0: an index range
    out = []
    for _ in range(ORDER_BYS):
        order = _sample(rng, names, 1, 3)
        extra = [c for c in names if c not in order][:1]
        sql = f"SELECT {', '.join(order + extra)} FROM t{where} ORDER BY {', '.join(order)}"
        out.append((sql, order, False, order))
    groups = _sample(rng, names, 1, 2)
    summed = rng.choice(names)
    keys = ", ".join(groups)
    out.append((
        f"SELECT {keys}, COUNT(*) AS n, SUM({summed}) AS s FROM t{where} "
        f"GROUP BY {keys} ORDER BY {keys}",
        groups, False, None,
    ))
    distinct = _sample(rng, names, 1, 2)
    keys = ", ".join(distinct)
    out.append((f"SELECT DISTINCT {keys} FROM t{where} ORDER BY {keys}", distinct, False, None))
    order = _sample(rng, names, 1, 2)
    out.append((
        f"SELECT {', '.join(names)} FROM t{where} ORDER BY {', '.join(order)} LIMIT {LIMIT}",
        order, True, None,
    ))
    # Join on the column with the most distinct values, so that the join
    # stays near the table's size.
    position = {name: i for i, name in enumerate(names)}
    join = max(names, key=lambda c: (len({row[position[c]] for row in rows}), c))
    left, right = rng.choice(names), rng.choice(names)
    out.append((
        f"SELECT t.{left} AS l, u.{right} AS r FROM t JOIN u ON t.{join} = u.{join} "
        f"WHERE t.{lead} >= 0 ORDER BY l, r",
        ["l", "r"], False, None,
    ))
    group = rng.choice(names)
    out.append((
        f"SELECT t.{group} AS g, COUNT(*) AS n, SUM(u.{right}) AS s FROM t JOIN u "
        f"ON t.{join} = u.{join} GROUP BY t.{group} ORDER BY g",
        ["g"], False, None,
    ))
    return out


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def test_armstrong_tables_agree_with_sqlite_and_lose_no_order():
    counts = Counter()
    for names, premises, theory, rows, rng in _cases():
        database, mirror = _load(names, premises, rows, rng)
        try:
            for sql, order, limited, order_by in _statements(names, database, rows, rng):
                expected = mirror.execute(sql).fetchall()
                for optimize in (True, False):
                    plan = database.plan(sql, optimize=optimize, use_cache=False)
                    columns = list(plan.schema.names)
                    at = [columns.index(name) for name in order]
                    for batch_size in BATCH_SIZES:
                        got, _ = plan.run(batch_size)
                        label = f"M={premises} optimize={optimize} bs={batch_size}: {sql}"
                        keys = [tuple(row[p] for p in at) for row in got]
                        assert keys == sorted(keys), f"ORDER BY violated: {label}"
                        if limited:
                            want = [tuple(row[names.index(c)] for c in order) for row in expected]
                            assert keys == want, label
                        else:
                            assert sorted(got) == sorted(expected), label
                    counts["runs"] += len(BATCH_SIZES)
                    if not optimize or order_by is None:
                        continue
                    nodes = list(_walk(plan))
                    scans = [n for n in nodes if isinstance(n, IndexScan)]
                    if not scans:
                        counts["seq_scans"] += 1
                        continue
                    implied = theory.implies(od(scans[0].index.key_columns, order_by))
                    sorted_ = any(isinstance(n, (Sort, TopN)) for n in nodes)
                    counts["implied" if implied else "not_implied"] += 1
                    counts["missed_orders"] += implied and sorted_
                    counts["unsound_orders"] += not implied and not sorted_
        finally:
            mirror.close()
    assert counts["missed_orders"] == 0, counts
    assert counts["unsound_orders"] == 0, counts
    # Both sides of the count are exercised.
    assert counts["implied"] >= 10 and counts["not_implied"] >= 10, counts
