"""Logical rewrites: predicate pushdown and the date-dimension join
elimination of Section 2.3 / [18].

The date rewrite reproduces the paper's prototype behaviour: a fact table
records dates as *surrogate keys* into a date dimension; queries predicate
on *natural* dates, forcing a join.  Given the guarantee (an OD check
constraint) that the surrogate key is ordered like the natural date —
``[sk] ↔ [d_date]`` — the plan can make **two probes** into the dimension
to translate the natural range into a surrogate range, replace the join by
a range predicate on the fact's own column, and (in a partitioned layout)
touch only the relevant partitions.

The range is exact only when each fact key in it matches exactly one
qualifying dimension row.  That holds when the qualifying integer
surrogates are distinct and fill ``[sk_lo, sk_hi]``, or when a declared,
verified FK from the fact column reaches a data-unique surrogate; otherwise
the join stays.  Each rewrite records which of the two held as the
:class:`Fact` a cached plan re-checks before it is served again.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine.expr import Between, BoolOp, Cmp, Col, Expr, Lit
from ..engine.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from ..engine.types import DataType
from .context import build_theory, alias_constraints
from .properties import column_equivalent

__all__ = [
    "split_conjuncts",
    "conjoin",
    "collect_aliases",
    "NameResolver",
    "push_filters",
    "Fact",
    "DateRewrite",
    "apply_date_rewrite",
]


def split_conjuncts(predicate: Expr) -> List[Expr]:
    """Flatten nested ANDs into a conjunct list."""
    if isinstance(predicate, BoolOp) and predicate.op == "AND":
        out: List[Expr] = []
        for operand in predicate.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [predicate]


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Rebuild a predicate from conjuncts (``None`` if empty)."""
    conjuncts = list(conjuncts)
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("AND", conjuncts)


def collect_aliases(node: LogicalNode) -> Dict[str, str]:
    """alias → table name for every scan in the tree."""
    out: Dict[str, str] = {}
    if isinstance(node, LogicalScan):
        out[node.alias] = node.table
    for child in node.children():
        out.update(collect_aliases(child))
    return out


class NameResolver:
    """Resolve raw column references (possibly unqualified) to aliases."""

    def __init__(self, database, aliases: Dict[str, str]) -> None:
        self.aliases = aliases
        self._by_qualified: Dict[str, str] = {}
        self._by_bare: Dict[str, List[str]] = {}
        for alias, table_name in aliases.items():
            for column in database.table(table_name).schema.names:
                qualified = f"{alias}.{column}"
                self._by_qualified[qualified] = alias
                self._by_bare.setdefault(column, []).append(qualified)

    def qualify(self, reference: str) -> str:
        """The fully-qualified ``alias.column`` form of a raw reference."""
        if reference in self._by_qualified:
            return reference
        candidates = self._by_bare.get(reference, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise KeyError(f"unknown column {reference!r}")
        raise ValueError(f"ambiguous column {reference!r}: {candidates}")

    def alias_of(self, reference: str) -> str:
        return self.qualify(reference).split(".", 1)[0]

    def bare(self, reference: str) -> str:
        return self.qualify(reference).split(".", 1)[1]


# ----------------------------------------------------------------------
# Predicate pushdown
# ----------------------------------------------------------------------
def push_filters(node: LogicalNode, resolver: NameResolver) -> LogicalNode:
    """Push single-alias filter conjuncts down onto their scans.

    Both planning modes run this — it is stock optimization, not an OD
    technique; leaving it out would strawman the baseline.
    """
    if isinstance(node, LogicalFilter):
        child = push_filters(node.child, resolver)
        per_alias: Dict[str, List[Expr]] = {}
        residue: List[Expr] = []
        for conjunct in split_conjuncts(node.predicate):
            try:
                owners = {resolver.alias_of(col) for col in conjunct.columns()}
            except (KeyError, ValueError):
                owners = set()
            if len(owners) == 1:
                per_alias.setdefault(owners.pop(), []).append(conjunct)
            else:
                residue.append(conjunct)
        child = _attach(child, per_alias)
        rest = conjoin(residue)
        return LogicalFilter(child, rest) if rest is not None else child
    return _rebuild(node, [push_filters(c, resolver) for c in node.children()])


def _attach(node: LogicalNode, per_alias: Dict[str, List[Expr]]) -> LogicalNode:
    if isinstance(node, LogicalScan):
        conjuncts = per_alias.get(node.alias)
        if conjuncts:
            return LogicalFilter(node, conjoin(conjuncts))
        return node
    return _rebuild(node, [_attach(c, per_alias) for c in node.children()])


def _rebuild(node: LogicalNode, children: List[LogicalNode]) -> LogicalNode:
    if not children:
        return node
    if isinstance(node, LogicalJoin):
        return dataclasses.replace(node, left=children[0], right=children[1])
    return dataclasses.replace(node, child=children[0])


# ----------------------------------------------------------------------
# The data facts a rewrite relies on
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fact:
    """One data fact a fired rewrite relied on, with the tables it reads.

    ``kind`` is ``"fk"`` (``key`` = the ``verified_foreign_key``
    arguments: child table, child columns, parent table, parent columns),
    ``"unique"`` (``key`` = the table and its key columns) or
    ``"date-range"`` (``key`` = the dimension and the surrogate range its
    qualifying rows filled, ``None`` bounds when none qualified).  A cached
    plan re-checks a fact only when one of its ``tables`` changed size:
    an FK through its maintained verdict, any other kind by re-planning.
    """

    kind: str
    tables: Tuple[str, ...]
    key: tuple

    def describe(self) -> str:
        if self.kind == "fk":
            child, child_columns, parent, parent_columns = self.key
            return (
                f"foreign key {child}({', '.join(child_columns)}) -> "
                f"{parent}({', '.join(parent_columns)})"
            )
        if self.kind == "unique":
            table, columns = self.key
            return f"unique key {table}({', '.join(columns)})"
        table, low, high = self.key
        if low is None:
            return f"no row of {table} in the natural range"
        return f"{table} surrogates {low}..{high} distinct and contiguous"


def _key_unique(table, bare_columns: Sequence[str]) -> bool:
    """Data-verified uniqueness of a column set (one O(n) pass).

    The FD proof (``is_superkey``) guarantees rows agreeing on the key
    agree on *everything* — which duplicate rows satisfy trivially — so
    the rules that treat a key as match-exactly-once re-verify genuine
    uniqueness first.
    """
    positions = [table.schema.position(c) for c in bare_columns]
    seen: Set[tuple] = set()
    for row in table.rows:
        key = tuple(row[p] for p in positions)
        if key in seen:
            return False
        seen.add(key)
    return True


# ----------------------------------------------------------------------
# The Section 2.3 date rewrite
# ----------------------------------------------------------------------
@dataclass
class DateRewrite:
    """Record of one applied join elimination (for EXPLAIN and tests)."""

    dim_alias: str
    dim_table: str
    natural_column: str
    surrogate_column: str
    fact_column: str
    low: object
    high: object
    surrogate_low: object
    surrogate_high: object
    #: The facts that make the surrogate range exact (see :class:`Fact`).
    facts: Tuple[Fact, ...] = ()

    def describe(self) -> str:
        return (
            f"eliminated join with {self.dim_table} AS {self.dim_alias}: "
            f"{self.natural_column} in [{self.low} .. {self.high}] became "
            f"{self.fact_column} BETWEEN {self.surrogate_low} AND "
            f"{self.surrogate_high} (two probes; "
            f"{'; '.join(fact.describe() for fact in self.facts)})"
        )


def _range_of(conjuncts: Sequence[Expr], column_alias: str, resolver: NameResolver):
    """Extract an inclusive (column, low, high) range over one dim column.

    Accepts BETWEEN, ``>=``/``<=``/``=`` comparisons against literals.
    Returns (bare_column, low, high, matched_conjuncts) or ``None``.
    """
    bounds: Dict[str, List] = {}
    matched: Dict[str, List[Expr]] = {}

    def note(column: str, low, high, conjunct: Expr) -> None:
        entry = bounds.setdefault(column, [None, None])
        if low is not None:
            entry[0] = low if entry[0] is None else max(entry[0], low)
        if high is not None:
            entry[1] = high if entry[1] is None else min(entry[1], high)
        matched.setdefault(column, []).append(conjunct)

    for conjunct in conjuncts:
        if isinstance(conjunct, Between) and isinstance(conjunct.operand, Col):
            if not (isinstance(conjunct.low, Lit) and isinstance(conjunct.high, Lit)):
                continue
            note(resolver.bare(conjunct.operand.name), conjunct.low.value,
                 conjunct.high.value, conjunct)
        elif isinstance(conjunct, Cmp):
            column, literal, op = None, None, conjunct.op
            if isinstance(conjunct.left, Col) and isinstance(conjunct.right, Lit):
                column, literal = conjunct.left.name, conjunct.right.value
            elif isinstance(conjunct.right, Col) and isinstance(conjunct.left, Lit):
                column, literal = conjunct.right.name, conjunct.left.value
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if column is None:
                continue
            bare = resolver.bare(column)
            if op == ">=":
                note(bare, literal, None, conjunct)
            elif op == "<=":
                note(bare, None, literal, conjunct)
            elif op == "=":
                note(bare, literal, literal, conjunct)
    for column, (low, high) in bounds.items():
        if low is not None and high is not None:
            return column, low, high, matched[column]
    return None


def _referenced_aliases(node: LogicalNode, resolver: NameResolver) -> Set[str]:
    """Aliases referenced by expressions/keys at this node and below."""
    refs: Set[str] = set()

    def note_column(name: str) -> None:
        try:
            refs.add(resolver.alias_of(name))
        except (KeyError, ValueError):
            pass

    if isinstance(node, LogicalFilter):
        for column in node.predicate.columns():
            note_column(column)
    elif isinstance(node, LogicalJoin):
        for column in node.left_columns + node.right_columns:
            note_column(column)
    elif isinstance(node, LogicalAggregate):
        for column in node.group_columns:
            note_column(column)
        for spec in node.aggregates:
            if spec.expr is not None:
                for column in spec.expr.columns():
                    note_column(column)
    elif isinstance(node, LogicalProject):
        if node.exprs is not None:
            for expr in node.exprs:
                for column in expr.columns():
                    note_column(column)
        else:
            refs.update(resolver.aliases)  # SELECT * references everything
    elif isinstance(node, LogicalSort):
        for column in node.keys:
            note_column(column)
    for child in node.children():
        refs |= _referenced_aliases(child, resolver)
    return refs


def apply_date_rewrite(
    database, node: LogicalNode, resolver: NameResolver, theory_source=None
) -> Tuple[LogicalNode, List[DateRewrite]]:
    """Eliminate dimension joins used only to translate a natural-date range.

    Preconditions, checked per join (fact ⋈ dim on ``f.fk = d.pk``):

    1. the dimension side is a bare scan (with pushed-down filters),
    2. its filters yield one closed range on a natural column ``D``,
    3. the dimension declares ``[pk] ↔ [D]`` (surrogate ordered like the
       natural value) — verified through the constraint theory,
    4. no other part of the query references the dimension.

    Applies every eligible elimination; returns the rewritten tree plus a
    :class:`DateRewrite` record per application.  ``theory_source`` lets the
    caller (the planner) supply its interned, stats-attributed theories;
    defaults to :func:`~repro.optimizer.context.build_theory`.
    """
    applied: List[DateRewrite] = []
    if theory_source is None:
        theory_source = build_theory
    rewritten = _rewrite_joins(database, node, node, resolver, applied, theory_source)
    return rewritten, applied


def _rewrite_joins(
    database,
    root: LogicalNode,
    node: LogicalNode,
    resolver: NameResolver,
    applied: List[DateRewrite],
    theory_source,
) -> LogicalNode:
    if isinstance(node, LogicalJoin):
        left = _rewrite_joins(database, root, node.left, resolver, applied, theory_source)
        right = _rewrite_joins(database, root, node.right, resolver, applied, theory_source)
        node = dataclasses.replace(node, left=left, right=right)
        for dim_side, fact_side, dim_cols, fact_cols in (
            ("right", "left", node.right_columns, node.left_columns),
            ("left", "right", node.left_columns, node.right_columns),
        ):
            dim_node = getattr(node, dim_side)
            fact_node = getattr(node, fact_side)
            rewrite = _try_eliminate(
                database, root, node, dim_node, fact_node,
                dim_cols, fact_cols, resolver, theory_source,
            )
            if rewrite is not None:
                replacement, record = rewrite
                applied.append(record)
                return replacement
        return node
    return _rebuild(
        node,
        [
            _rewrite_joins(database, root, c, resolver, applied, theory_source)
            for c in node.children()
        ],
    )


def _try_eliminate(
    database, root, join, dim_node, fact_node, dim_cols, fact_cols, resolver,
    theory_source,
):
    # 1. dimension side must be Filter(Scan) or Scan, with a single join key
    if len(dim_cols) != 1:
        return None
    conjuncts: List[Expr] = []
    scan = dim_node
    if isinstance(scan, LogicalFilter):
        conjuncts = split_conjuncts(scan.predicate)
        scan = scan.child
    if not isinstance(scan, LogicalScan):
        return None
    dim_alias, dim_table = scan.alias, scan.table
    try:
        if resolver.alias_of(dim_cols[0]) != dim_alias:
            return None
    except (KeyError, ValueError):
        return None
    surrogate = resolver.bare(dim_cols[0])

    # 2. a closed natural-column range in the dimension's local filters
    found = _range_of(conjuncts, dim_alias, resolver)
    if found is None:
        return None
    natural, low, high, matched = found
    if natural == surrogate:
        return None
    if len(matched) != len(conjuncts):
        return None  # leftover dim predicates would be lost

    # 3. the OD guarantee: surrogate ordered like the natural column
    theory = theory_source(alias_constraints(database, dim_alias, dim_table))
    if not column_equivalent(
        theory, f"{dim_alias}.{surrogate}", f"{dim_alias}.{natural}"
    ):
        return None

    # 4. the dimension feeds nothing but this join and its own range filter
    if _count_dim_references(root, resolver, dim_alias) > 1:
        return None  # >1: referenced beyond the single join key

    # Two probes: translate the natural range into the surrogate domain.
    table = database.table(dim_table)
    surrogate_position = table.schema.position(surrogate)
    natural_position = table.schema.position(natural)
    qualifying = [
        row[surrogate_position]
        for row in table.rows
        if low <= row[natural_position] <= high
    ]
    fact_column = fact_cols[0]
    if not qualifying:
        nothing = Fact("date-range", (dim_table,), (dim_table, None, None))
        return LogicalFilter(fact_node, Lit(False)), DateRewrite(
            dim_alias, dim_table, natural, surrogate, fact_column,
            low, high, None, None, (nothing,),
        )
    sk_low, sk_high = min(qualifying), max(qualifying)
    facts = _exact_range_facts(
        database, table, surrogate, fact_column, resolver, qualifying, sk_low, sk_high
    )
    if facts is None:
        return None
    predicate = Between(Col(fact_column), Lit(sk_low), Lit(sk_high))
    record = DateRewrite(
        dim_alias, dim_table, natural, surrogate, fact_column,
        low, high, sk_low, sk_high, facts,
    )
    return LogicalFilter(fact_node, predicate), record


def _exact_range_facts(
    database, table, surrogate, fact_column, resolver, qualifying, sk_low, sk_high
) -> Optional[Tuple[Fact, ...]]:
    """The facts that make ``fact_column BETWEEN sk_low AND sk_high`` match
    exactly the fact rows the join would, or ``None`` (keep the join).

    Under ``[sk] ↔ [D]`` a row with a qualifying surrogate qualifies, so
    distinct integer surrogates that fill the range leave each fact key in
    it exactly one dimension row.  Failing that, a verified FK from the
    fact column to a data-unique surrogate does: every fact key then has
    one dimension row, and any key between two qualifying ones qualifies.
    """
    if (
        table.schema.dtype_of(surrogate) is DataType.INT
        and len(qualifying) == sk_high - sk_low + 1 == len(set(qualifying))
    ):
        return (Fact("date-range", (table.name,), (table.name, sk_low, sk_high)),)
    try:
        fact_table = resolver.aliases[resolver.alias_of(fact_column)]
        fact_bare = resolver.bare(fact_column)
    except (KeyError, ValueError):
        return None
    fk = (fact_table, (fact_bare,), table.name, (surrogate,))
    if not database.verified_foreign_key(*fk) or not _key_unique(table, [surrogate]):
        return None
    return (
        Fact("fk", (fact_table, table.name), fk),
        Fact("unique", (table.name,), (table.name, (surrogate,))),
    )


def _count_dim_references(
    root: LogicalNode,
    resolver: NameResolver,
    dim_alias: str,
) -> int:
    """References to the dimension outside its own pushed-down filter.

    The dimension's local filter (a Filter directly over its scan, produced
    by :func:`push_filters`) is exempt; every other reference counts,
    including join keys — an eligible query has exactly one (the join key
    being eliminated).  Aliases are unique, so structural matching suffices.
    """
    count = 0

    def walk(node: LogicalNode) -> None:
        nonlocal count
        columns: List[str] = []
        if isinstance(node, LogicalFilter):
            if isinstance(node.child, LogicalScan) and node.child.alias == dim_alias:
                return  # the dimension's own range predicate
            columns = list(node.predicate.columns())
        elif isinstance(node, LogicalAggregate):
            columns = list(node.group_columns)
            for spec in node.aggregates:
                if spec.expr is not None:
                    columns.extend(spec.expr.columns())
        elif isinstance(node, LogicalProject):
            if node.exprs is None:
                count += 1  # SELECT * would expose dimension columns
            else:
                for expr in node.exprs:
                    columns.extend(expr.columns())
        elif isinstance(node, LogicalSort):
            columns = list(node.keys)
        elif isinstance(node, LogicalJoin):
            columns = list(node.left_columns + node.right_columns)
        for column in columns:
            try:
                if resolver.alias_of(column) == dim_alias:
                    count += 1
            except (KeyError, ValueError):
                pass
        for child in node.children():
            walk(child)

    walk(root)
    return count
