"""Plan cost estimation: cardinalities + the cost model over operator trees.

The planner itself is rule-based (the paper's rewrites are always-good when
their preconditions hold), but a cost estimate per plan is what a cost-based
optimizer would compare — and what the ablation benchmarks report alongside
measured work.  Estimates use per-table statistics (row counts, per-column
distinct counts and min/max) with textbook selectivity heuristics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.cost import Cost, hash_cost, probe_cost, scan_cost, sort_cost
from ..engine.expr import (
    Between,
    BoolOp,
    Cmp,
    Col,
    Expr,
    InList,
    Lit,
    Not,
    inclusive_bound,
)
from ..engine.operators import (
    Filter,
    HashAggregate,
    HashDistinct,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    Sort,
    SortedDistinct,
    StreamAggregate,
    TopN,
)
from ..engine.stats import (
    DEFAULT_SELECTIVITY,
    ColumnStats,
    JoinKeyStats,
    TableStats,
    estimate_equijoin,
)
from .properties import OrderSpec

__all__ = [
    "PlanEstimate",
    "estimate_plan",
    "join_key_stats",
    "DEFAULT_SELECTIVITY",
]


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated output cardinality and cumulative cost of a subtree."""

    rows: float
    cost: Cost

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"≈{self.rows:,.0f} rows, {self.cost}"


def _column_stats(database, op, reference: str) -> Optional[ColumnStats]:
    """Stats for a (possibly qualified) column reference in a subtree.

    Walks down to the scan that owns the reference (its alias-qualified
    schema resolves it), so join-key and group-column NDVs are found
    through filters, projections, and join compositions — not just when
    the predicate sits directly above its scan.  Renamed/computed columns
    stop the search (``None``): no statistics beat wrong statistics.
    """
    table = getattr(op, "table", None)
    if table is not None:
        try:
            resolved = op.schema.resolve(reference)
        except (KeyError, ValueError):
            return None
        bare = resolved.split(".", 1)[-1]
        try:
            column = table.schema.resolve(bare)
        except (KeyError, ValueError):
            return None
        return database.stats(table.name).column(column)
    for child in op.children():
        found = _column_stats(database, child, reference)
        if found is not None:
            return found
    return None


def _predicate_selectivity(database, op, predicate: Expr) -> float:
    """Heuristic selectivity of a predicate evaluated right above ``op``."""
    if isinstance(predicate, Lit):
        return 1.0 if predicate.value else 0.0
    if isinstance(predicate, BoolOp):
        parts = [_predicate_selectivity(database, op, p) for p in predicate.operands]
        if predicate.op == "AND":
            out = 1.0
            for part in parts:
                out *= part
            return out
        out = 1.0
        for part in parts:
            out *= 1.0 - part
        return 1.0 - out
    if isinstance(predicate, Not):
        return 1.0 - _predicate_selectivity(database, op, predicate.operand)
    if isinstance(predicate, Between) and isinstance(predicate.operand, Col):
        stats = _column_stats(database, op, predicate.operand.name)
        if stats and isinstance(predicate.low, Lit) and isinstance(predicate.high, Lit):
            return stats.range_selectivity(predicate.low.value, predicate.high.value)
        return DEFAULT_SELECTIVITY
    if isinstance(predicate, InList) and isinstance(predicate.operand, Col):
        stats = _column_stats(database, op, predicate.operand.name)
        if stats:
            # Per-value equality mass (histogram-aware: a list of heavy
            # hitters is not the same as a list of tail values).
            return min(
                1.0,
                sum(stats.equality_selectivity(v) for v in predicate.values),
            )
        return DEFAULT_SELECTIVITY
    if isinstance(predicate, Cmp):
        column = None
        if isinstance(predicate.left, Col) and isinstance(predicate.right, Lit):
            column, literal = predicate.left.name, predicate.right.value
        elif isinstance(predicate.right, Col) and isinstance(predicate.left, Lit):
            column, literal = predicate.right.name, predicate.left.value
        if column is not None:
            stats = _column_stats(database, op, column)
            if stats is not None:
                if predicate.op == "=":
                    return stats.equality_selectivity(literal)
                if predicate.op in ("<", "<="):
                    return stats.range_selectivity(
                        None, literal, high_inclusive=(predicate.op == "<=")
                    )
                if predicate.op in (">", ">="):
                    return stats.range_selectivity(
                        literal, None, low_inclusive=(predicate.op == ">=")
                    )
                if predicate.op in ("<>", "!="):
                    return 1.0 - stats.equality_selectivity(literal)
    return DEFAULT_SELECTIVITY


def _covered_by_scan(scan, predicate: Expr) -> bool:
    """True when an index scan already applied this range predicate.

    The access-path rewrite keeps the originating range predicate as a
    residual filter above the :class:`IndexScan` for safety; estimating
    it again would square the selectivity (a ``BETWEEN`` over 3% of the
    key domain used to estimate 0.09% of the rows).  Conservative match:
    the conjunct's inclusive bound (:func:`~repro.engine.expr.
    inclusive_bound`) is on the leading key and equals the scan's
    single-column range.
    """
    if not isinstance(scan, IndexScan) or not scan.index.key_columns:
        return False
    bound = inclusive_bound(predicate)
    if bound is None:
        return False
    column, low, high = bound
    try:
        if scan.schema.resolve(column).split(".", 1)[-1] != scan.index.key_columns[0]:
            return False
    except (KeyError, ValueError):
        return False
    scan_low = scan.low[0] if scan.low and len(scan.low) == 1 else None
    scan_high = scan.high[0] if scan.high and len(scan.high) == 1 else None
    return low == scan_low and high == scan_high


def _filter_selectivity(database, op) -> float:
    """Selectivity of a Filter's predicate, skipping conjuncts the child
    index scan already applied (see :func:`_covered_by_scan`)."""
    predicate = op.predicate
    child = op.child
    conjuncts = (
        list(predicate.operands)
        if isinstance(predicate, BoolOp) and predicate.op == "AND"
        else [predicate]
    )
    out = 1.0
    for conjunct in conjuncts:
        if _covered_by_scan(child, conjunct):
            continue
        out *= _predicate_selectivity(database, child, conjunct)
    return out


def join_key_stats(database, op) -> list:
    """Per-key-pair :class:`JoinKeyStats` for a physical join operator.

    Shared by :func:`estimate_plan` and the join-order search so both
    read the same column profiles (histogram, sketch, keyness,
    OD-orderedness) when pricing a join.
    """
    pairs = []
    for left_key, right_key in zip(op.left_keys, op.right_keys):
        pairs.append(
            JoinKeyStats(
                left=_column_stats(database, op.left, left_key),
                right=_column_stats(database, op.right, right_key),
            )
        )
    return pairs


def _group_cardinality(database, op, child_rows: float) -> float:
    """Distinct-group estimate: capped product of per-column NDVs."""
    out = 1.0
    for column in op.group_columns:
        stats = _column_stats(database, op.child, column)
        out *= stats.distinct if stats else 10.0
        if out >= child_rows:
            return max(1.0, child_rows)
    return max(1.0, min(out, child_rows))


def estimate_plan(database, op: Operator) -> PlanEstimate:
    """Bottom-up cardinality + cost estimate for a physical plan."""
    if isinstance(op, SeqScan):
        rows = float(database.stats(op.table.name).row_count)
        return PlanEstimate(rows, scan_cost(rows))
    if isinstance(op, IndexScan):
        total = float(database.stats(op.table.name).row_count)
        selectivity = 1.0
        if op.low is not None or op.high is not None:
            first_key = op.index.key_columns[0]
            stats = database.stats(op.table.name).column(first_key)
            if stats is not None:
                low = op.low[0] if op.low else None
                high = op.high[0] if op.high else None
                selectivity = stats.range_selectivity(low, high)
        rows = max(1.0, total * selectivity)
        return PlanEstimate(rows, probe_cost(1) + scan_cost(rows))
    if isinstance(op, Filter):
        child = estimate_plan(database, op.child)
        selectivity = _filter_selectivity(database, op)
        # Reconciled with the ≥1-row floors used everywhere else: a
        # non-empty input never estimates below one surviving row (a
        # zero here would zero out every join subtree DP builds on top
        # of it), while a provably empty input stays 0.
        rows = child.rows * selectivity
        rows = 0.0 if child.rows <= 0 else min(child.rows, max(1.0, rows))
        return PlanEstimate(rows, child.cost + Cost(cpu=0.1 * child.rows))
    if isinstance(op, Project):
        child = estimate_plan(database, op.child)
        return PlanEstimate(child.rows, child.cost + Cost(cpu=0.05 * child.rows))
    if isinstance(op, Sort):
        child = estimate_plan(database, op.child)
        # Sort-avoidance priced from declared properties: when the child
        # already provides the key order, the sort degenerates to a verify
        # pass (the planner normally erases such sorts outright; a surviving
        # one must not be billed the n·log n it will never pay).
        if OrderSpec(op.child.ordering).starts_with(op.keys):
            return PlanEstimate(child.rows, child.cost + Cost(cpu=0.1 * child.rows))
        return PlanEstimate(child.rows, child.cost + sort_cost(child.rows))
    if isinstance(op, TopN):
        child = estimate_plan(database, op.child)
        kept = min(child.rows, float(op.count))
        if OrderSpec(op.child.ordering).starts_with(op.keys):
            extra = Cost(cpu=0.1 * child.rows)  # ordered input: plain limit
        else:
            # bounded heap: one touch per row plus a sort of the survivors
            extra = Cost(cpu=0.2 * child.rows) + sort_cost(kept)
        return PlanEstimate(kept, child.cost + extra)
    if isinstance(op, (HashAggregate, StreamAggregate)):
        child = estimate_plan(database, op.child)
        groups = (
            _group_cardinality(database, op, child.rows)
            if op.group_columns
            else 1.0
        )
        if isinstance(op, HashAggregate):
            extra = hash_cost(child.rows, 0)
        else:
            extra = Cost(cpu=0.1 * child.rows)
        return PlanEstimate(groups, child.cost + extra)
    if isinstance(op, (HashJoin, MergeJoin, NestedLoopJoin)):
        left = estimate_plan(database, op.left)
        right = estimate_plan(database, op.right)
        # FD/OD-aware equi-join cardinality: histogram merge-overlap for
        # OD-ordered keys, sketch-measured domain intersection, key caps
        # from the declared FDs — with NDV-under-containment as the
        # fallback (and the whole model in "uniform" estimation mode).
        rows = estimate_equijoin(
            left.rows, right.rows, join_key_stats(database, op)
        )
        if isinstance(op, HashJoin):
            extra = hash_cost(right.rows, left.rows)
        elif isinstance(op, MergeJoin):
            extra = Cost(cpu=0.2 * (left.rows + right.rows))
        else:
            extra = Cost(cpu=0.5 * left.rows * right.rows)
        return PlanEstimate(rows, left.cost + right.cost + extra)
    if isinstance(op, HashDistinct):
        child = estimate_plan(database, op.child)
        return PlanEstimate(
            max(1.0, child.rows * 0.5), child.cost + hash_cost(child.rows, 0)
        )
    if isinstance(op, SortedDistinct):
        child = estimate_plan(database, op.child)
        return PlanEstimate(
            max(1.0, child.rows * 0.5), child.cost + Cost(cpu=0.1 * child.rows)
        )
    if isinstance(op, Limit):
        child = estimate_plan(database, op.child)
        return PlanEstimate(min(child.rows, float(op.count)), child.cost)
    raise TypeError(f"cannot estimate {type(op).__name__}")
