"""Logical query plans and the AST → logical binder.

The logical layer is deliberately thin: a tree of relational operations with
*raw* (possibly unqualified) column references.  Name resolution happens at
physical planning time against real schemas; rewrite rules (the OD
optimizations) operate on this tree.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

from .expr import Col, Expr
from .operators.base import AggSpec
from .sql.ast import AggCall, SelectStatement

__all__ = [
    "LogicalScan",
    "LogicalJoin",
    "LogicalFilter",
    "LogicalAggregate",
    "LogicalProject",
    "LogicalDistinct",
    "LogicalSort",
    "LogicalLimit",
    "LogicalNode",
    "node_columns",
    "BindError",
    "bind",
]


class BindError(ValueError):
    """The statement cannot be bound to a logical plan."""


@dataclass(frozen=True)
class LogicalScan:
    table: str
    alias: str

    def children(self) -> tuple:
        return ()

    def describe(self) -> str:
        return f"Scan {self.table} AS {self.alias}"


@dataclass(frozen=True)
class LogicalJoin:
    left: "LogicalNode"
    right: "LogicalNode"
    left_columns: Tuple[str, ...]
    right_columns: Tuple[str, ...]

    def children(self) -> tuple:
        return (self.left, self.right)

    def describe(self) -> str:
        condition = " AND ".join(
            f"{l} = {r}" for l, r in zip(self.left_columns, self.right_columns)
        )
        return f"Join ON {condition}"


@dataclass(frozen=True)
class LogicalFilter:
    child: "LogicalNode"
    predicate: Expr

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter {self.predicate.render()}"


@dataclass(frozen=True)
class LogicalAggregate:
    child: "LogicalNode"
    group_columns: Tuple[str, ...]
    aggregates: Tuple[AggSpec, ...]
    #: True for the below-the-join stage introduced by eager aggregation
    #: (repro.optimizer.rewrites); the binder never sets it, so plan
    #: fingerprints (computed on bound trees) are unaffected.
    partial: bool = False

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        parts = list(self.group_columns) + [
            f"{spec.render()} AS {spec.name}" for spec in self.aggregates
        ]
        stage = "PartialAggregate" if self.partial else "Aggregate"
        return f"{stage} [{', '.join(parts)}]"


@dataclass(frozen=True)
class LogicalProject:
    child: "LogicalNode"
    exprs: Optional[Tuple[Expr, ...]]  # None == SELECT *
    names: Optional[Tuple[str, ...]]

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        if self.exprs is None:
            return "Project *"
        parts = ", ".join(
            f"{expr.render()} AS {name}" if expr.render() != name else name
            for expr, name in zip(self.exprs, self.names)
        )
        return f"Project {parts}"


@dataclass(frozen=True)
class LogicalDistinct:
    child: "LogicalNode"

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class LogicalSort:
    child: "LogicalNode"
    keys: Tuple[str, ...]

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return f"Sort [{', '.join(self.keys)}]"


@dataclass(frozen=True)
class LogicalLimit:
    child: "LogicalNode"
    count: int

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit {self.count}"


LogicalNode = Union[
    LogicalScan,
    LogicalJoin,
    LogicalFilter,
    LogicalAggregate,
    LogicalProject,
    LogicalDistinct,
    LogicalSort,
    LogicalLimit,
]


def node_columns(node: LogicalNode) -> Optional[List[str]]:
    """The column references ``node`` makes itself, not its children:
    join keys, a filter's predicate columns, grouping columns and
    aggregate arguments, projected expressions' columns and sort keys, as
    written (possibly unqualified).  ``None`` for ``SELECT *``, which
    references every column."""
    if isinstance(node, LogicalJoin):
        return [*node.left_columns, *node.right_columns]
    if isinstance(node, LogicalFilter):
        return [*node.predicate.columns()]
    if isinstance(node, LogicalAggregate):
        columns = list(node.group_columns)
        for spec in node.aggregates:
            if spec.expr is not None:
                columns.extend(spec.expr.columns())
        return columns
    if isinstance(node, LogicalProject):
        if node.exprs is None:
            return None
        return [column for expr in node.exprs for column in expr.columns()]
    if isinstance(node, LogicalSort):
        return list(node.keys)
    return []


def explain_logical(node: LogicalNode, indent: int = 0) -> str:
    """Pretty-print a logical tree."""
    lines = ["  " * indent + "-> " + node.describe()]
    for child in node.children():
        lines.append(explain_logical(child, indent + 1))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Binder
# ----------------------------------------------------------------------
def _lift_aggregates(expr: Expr, specs: List[AggSpec], counter: List[int]) -> Expr:
    """Replace AggCall nodes inside a HAVING predicate by references to
    (possibly new, hidden) aggregate outputs."""
    from .expr import Arith, Between, BoolOp, Cmp, InList, Not

    if isinstance(expr, AggCall):
        rendered = expr.render()
        for spec in specs:
            if spec.func == expr.func and (
                (spec.expr is None and expr.arg is None)
                or (
                    spec.expr is not None
                    and expr.arg is not None
                    and spec.expr.render() == expr.arg.render()
                )
            ):
                return Col(spec.name)
        counter[0] += 1
        name = f"_having_{counter[0]}"
        specs.append(AggSpec(expr.func, expr.arg, name))
        return Col(name)
    if isinstance(expr, Cmp):
        return Cmp(
            expr.op,
            _lift_aggregates(expr.left, specs, counter),
            _lift_aggregates(expr.right, specs, counter),
        )
    if isinstance(expr, Arith):
        return Arith(
            expr.op,
            _lift_aggregates(expr.left, specs, counter),
            _lift_aggregates(expr.right, specs, counter),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(
            expr.op, [_lift_aggregates(o, specs, counter) for o in expr.operands]
        )
    if isinstance(expr, Not):
        return Not(_lift_aggregates(expr.operand, specs, counter))
    if isinstance(expr, Between):
        return Between(
            _lift_aggregates(expr.operand, specs, counter),
            _lift_aggregates(expr.low, specs, counter),
            _lift_aggregates(expr.high, specs, counter),
        )
    if isinstance(expr, InList):
        return InList(_lift_aggregates(expr.operand, specs, counter), expr.values)
    return expr


def bind(statement: SelectStatement) -> LogicalNode:
    """Lower a parsed SELECT into a logical plan.

    Aggregate calls in the select list are lifted into a
    :class:`LogicalAggregate`; non-aggregate select items in a grouped query
    must be grouping columns (checked at physical planning, where schemas
    are known).  A HAVING predicate becomes a filter over the aggregate's
    output, with its aggregate calls lifted to (hidden) aggregate columns.
    ON pairs keep the sides they were written on: which table owns an
    unqualified column is a catalog question, and the planner orients them
    (:func:`~repro.optimizer.rewrites.orient_join_keys`).
    """
    node: LogicalNode = LogicalScan(statement.table.table, statement.table.alias)
    for join in statement.joins:
        node = LogicalJoin(
            node,
            LogicalScan(join.table.table, join.table.alias),
            join.left_columns,
            join.right_columns,
        )
    if statement.where is not None:
        node = LogicalFilter(node, statement.where)

    agg_specs: List[AggSpec] = []
    select_exprs: List[Expr] = []
    select_names: List[str] = []
    star = False
    has_aggs = any(isinstance(item.expr, AggCall) for item in statement.items)
    grouped = bool(statement.group_by) or has_aggs or statement.having is not None

    counter = 0
    for item in statement.items:
        if item.expr is None:
            if grouped:
                raise BindError("SELECT * cannot be combined with GROUP BY")
            star = True
            continue
        if isinstance(item.expr, AggCall):
            counter += 1
            default = f"{item.expr.func.lower()}_{counter}"
            name = item.alias or default
            agg_specs.append(AggSpec(item.expr.func, item.expr.arg, name))
            select_exprs.append(Col(name))
            select_names.append(name)
        else:
            name = item.alias or item.expr.render()
            select_exprs.append(item.expr)
            select_names.append(name)

    if grouped:
        having = statement.having
        if having is not None:
            having = _lift_aggregates(having, agg_specs, [counter])
        # A repeated key groups by nothing more: keep its first occurrence.
        keys = tuple(dict.fromkeys(statement.group_by))
        node = LogicalAggregate(node, keys, tuple(agg_specs))
        if having is not None:
            node = LogicalFilter(node, having)

    if star:
        node = LogicalProject(node, None, None)
    else:
        node = LogicalProject(node, tuple(select_exprs), tuple(select_names))

    if statement.distinct:
        node = LogicalDistinct(node)
    if statement.order_by:
        node = LogicalSort(node, tuple(item.column for item in statement.order_by))
    if statement.limit is not None:
        node = LogicalLimit(node, statement.limit)
    return node
