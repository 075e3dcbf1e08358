"""Planted-win workload for the logical rewrite pack.

Three table pairs, one per rewrite-pack rule in :mod:`repro.optimizer.rewrites`,
each shaped so the rewrite has a decisive, deterministic win in
``Metrics.work`` (the gated number — exact on every host) while the
unrewritten plan stays perfectly correct:

* **RW1 / eager aggregation** — ``fact`` (many rows, few ``(grp, key)``
  partial groups) joined to ``expand`` (several rows per key).  Without
  the rewrite the join multiplies every fact row by the expansion factor
  before the aggregate folds them back down; with it the partial stage
  collapses the fact to one row per ``(grp, key)`` first.  All measures
  are integers so the re-associated fold is value-identical.

* **RW2 / scan consolidation** — ``wide`` self-joined on its FD-declared,
  data-unique ``w_id`` with a different filter on each alias.  The join
  matches every row only with itself, so the consolidated plan scans the
  table once with the conjoined filter instead of building a
  table-sized hash.

* **RW3 / FD join elimination** — ``orders`` joined to ``cust`` purely
  for the (never-read) dimension columns, with a declared foreign key
  ``orders.o_cust → cust.c_id``.  The join neither adds nor drops rows,
  so the eliminated plan skips the dimension scan and the hash entirely.

``REWRITE_PACK_QUERIES`` entries are ``(qid, sql, order_keys)`` —
already instantiated (no date windows here), shared by the differential
harness, ``benchmarks/bench_rewrites.py``, and the bench-regression
proxy so the committed claims and the live re-checks always measure the
same queries.
"""
from __future__ import annotations

import random
from typing import Tuple

from ..core.dependency import fd
from ..engine.database import Database
from ..engine.schema import Schema
from ..engine.table import Table
from ..engine.types import DataType

__all__ = ["build_rewrite_pack", "REWRITE_PACK_QUERIES"]


def build_rewrite_pack(
    fact_rows: int = 30_000,
    groups: int = 10,
    keys: int = 50,
    expansion: int = 6,
    wide_rows: int = 20_000,
    order_rows: int = 40_000,
    customers: int = 20_000,
    seed: int = 13,
) -> Database:
    """Build the three planted-win table pairs in one database."""
    rng = random.Random(seed)
    database = Database("rewrite_pack")

    # RW1: the eager-aggregation pair.  ``fact`` has ``groups * keys``
    # distinct partial groups — far fewer than its rows — and ``expand``
    # multiplies every key by ``expansion``.
    fact = Table(
        "fact",
        Schema.of(
            ("f_grp", DataType.INT),
            ("f_key", DataType.INT),
            ("f_val", DataType.INT),
        ),
    )
    fact.load(
        (rng.randint(1, groups), rng.randint(1, keys), rng.randint(0, 100))
        for _ in range(fact_rows)
    )
    database.tables["fact"] = fact

    expand = Table(
        "expand",
        Schema.of(("x_key", DataType.INT), ("x_seq", DataType.INT)),
    )
    expand.load(
        (key, seq) for key in range(1, keys + 1) for seq in range(expansion)
    )
    database.tables["expand"] = expand

    # RW2: the scan-consolidation table.  ``w_id`` is a declared FD key
    # and genuinely unique in the data — both proofs the rule demands.
    wide = Table(
        "wide",
        Schema.of(
            ("w_id", DataType.INT),
            ("w_a", DataType.INT),
            ("w_b", DataType.INT),
        ),
    )
    wide.load(
        (i, rng.randint(0, 1000), rng.randint(0, 1000))
        for i in range(1, wide_rows + 1)
    )
    database.tables["wide"] = wide
    wide.declare(fd("w_id", "w_a,w_b"))
    database.create_index("wide_pk", "wide", ["w_id"], clustered=True)

    # RW3: the join-elimination pair.  Every order points at an existing
    # customer, recorded as a declared (and verified) foreign key.  The
    # dimension is deliberately fact-sized and unindexed: eliminating the
    # join saves its scan and the hash outright, rather than trading one
    # ordered access path for another.
    cust = Table(
        "cust",
        Schema.of(("c_id", DataType.INT), ("c_name", DataType.STR)),
    )
    cust.load((i, f"cust#{i}") for i in range(1, customers + 1))
    database.tables["cust"] = cust
    cust.declare(fd("c_id", "c_name"))

    orders = Table(
        "orders",
        Schema.of(("o_cust", DataType.INT), ("o_amount", DataType.INT)),
    )
    orders.load(
        (rng.randint(1, customers), rng.randint(1, 500))
        for _ in range(order_rows)
    )
    database.tables["orders"] = orders
    database.declare_foreign_key("orders", ["o_cust"], "cust", ["c_id"])
    return database


#: (qid, sql, ORDER BY keys).  Integer measures throughout so the
#: rewritten and unrewritten folds are exactly comparable.
REWRITE_PACK_QUERIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # Eager aggregation: group columns and aggregate arguments all from
    # the fact side, whose partial-group NDV product is ~2% of its rows.
    ("RW1", """
        SELECT f.f_grp, COUNT(*) AS n, SUM(f.f_val) AS total
        FROM fact f
        JOIN expand x ON f.f_key = x.x_key
        GROUP BY f_grp
        ORDER BY f_grp
    """, ("f_grp",)),
    # Scan consolidation: a self-join on the FD-proven unique key with a
    # different filter on each alias.
    ("RW2", """
        SELECT a.w_id, a.w_a, b.w_b
        FROM wide a
        JOIN wide b ON a.w_id = b.w_id
        WHERE a.w_a >= 300 AND b.w_b < 700
        ORDER BY a.w_id
    """, ("w_id",)),
    # FD join elimination: the dimension is joined and never read.  No
    # ORDER BY — the win under measurement is the dropped scan + hash,
    # not sort placement.
    ("RW3", """
        SELECT o.o_cust, COUNT(*) AS n, SUM(o.o_amount) AS amt
        FROM orders o
        JOIN cust c ON o.o_cust = c.c_id
        GROUP BY o_cust
    """, ()),
)
