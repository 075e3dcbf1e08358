"""The micro-benchmark workload: seeded fact/dim builders plus the two
pipeline shapes every execution-mode measurement shares.

``benchmarks/bench_vectorized.py`` (row vs batch), ``benchmarks/
bench_parallel.py`` (serial vs workers), and the regression proxies in
``tests/harness/test_bench_regression.py`` all measure **scan → filter →
aggregate** and **join → aggregate** over the same synthetic fact table.
Keeping the builders here — the package where every other seeded workload
lives — means the committed ``BENCH_*.json`` baselines and the CI proxies
can never drift onto different workload shapes.
"""
from __future__ import annotations

import random

from ..engine.expr import Between, Col, Lit
from ..engine.operators import (
    AggSpec,
    Filter,
    HashAggregate,
    HashJoin,
    Operator,
    SeqScan,
)
from ..engine.schema import Schema
from ..engine.table import Table
from ..engine.types import DataType

__all__ = [
    "build_fact",
    "build_dim",
    "scan_filter_aggregate",
    "join_aggregate",
]

#: Group count of the dimension side (brackets 0..40 cover incomes to 400k).
DIM_GROUPS = 40


def build_fact(rows: int, seed: int = 11) -> Table:
    """A seeded fact table: (income, bracket = income // 10k, payable)."""
    rng = random.Random(seed)
    table = Table(
        "fact",
        Schema.of(
            ("income", DataType.INT),
            ("bracket", DataType.INT),
            ("payable", DataType.FLOAT),
        ),
    )
    data = []
    for _ in range(rows):
        income = rng.randint(0, 400_000)
        data.append((income, income // 10_000, round(income * 0.21, 2)))
    table.load(data, check=False)
    table.columnar()  # build the columnar cache up front, like indexes
    return table


def build_dim(groups: int = DIM_GROUPS) -> Table:
    """The bracket dimension: (k, label), one row per group plus one."""
    table = Table("dim", Schema.of(("k", DataType.INT), ("label", DataType.STR)))
    table.load([(i, f"bracket-{i}") for i in range(groups + 1)], check=False)
    table.columnar()
    return table


def scan_filter_aggregate(fact: Table) -> Operator:
    """scan → filter → aggregate: full scan, range predicate, grouped
    COUNT+SUM — the headline shape of the execution-mode claims."""
    return HashAggregate(
        Filter(SeqScan(fact), Between(Col("income"), Lit(50_000), Lit(250_000))),
        ["bracket"],
        [AggSpec("COUNT", None, "n"), AggSpec("SUM", Col("payable"), "total")],
    )


def join_aggregate(fact: Table, dim: Table) -> Operator:
    """join → aggregate: fact ⋈ dim then grouped sum — the TPC-DS-lite
    shape, keeping more per-row work in Python."""
    join = HashJoin(SeqScan(fact), SeqScan(dim), ["fact.bracket"], ["dim.k"])
    return HashAggregate(
        join,
        ["dim.label"],
        [AggSpec("COUNT", None, "n"), AggSpec("SUM", Col("payable"), "total")],
    )
