"""The logical rewrite pack: eager aggregation, scan consolidation, and
FD-based join elimination.

Three proof-gated rules applied between ``push_filters`` and physical
planning (after the Section 2.3 date rewrite, sharing its recursion
idioms).  Each rule only fires when a *declared-dependency proof* plus a
data-verified side condition guarantees the rewritten tree returns the
same multiset:

* **Eager (partial) aggregation** — ``Agg_G(R ⋈ S)`` with every group
  column and aggregate argument from one side ``S`` becomes
  ``Agg_G(R ⋈ PartialAgg_{G ∪ keys(S)}(S))``: each partial group joins
  the same ``R`` rows every one of its input rows did, so additive
  aggregates recombine by SUM (COUNT → SUM of partial counts) and
  MIN/MAX are duplicate-insensitive.  Only decomposable functions
  qualify (AVG does not), and SUM arguments must be integer-typed
  columns so the re-associated fold is value-identical, not merely
  close.  The move is priced with the statistics NDVs (the same
  ``_group_cardinality`` model costing uses) and fires only when the
  estimated partial-group count shrinks the join input; a clustered
  index providing the partial grouping order relaxes the threshold,
  since the partial stage then streams for free (the Pareto frontier's
  provided-order information, read at the source).

* **Scan consolidation** — a self-join of one table on an FD-proven key
  (``is_superkey`` over the declared constraints, re-verified unique on
  the data so duplicate rows cannot inflate the join) matches every row
  only with itself, so both scans merge into a single scan carrying the
  conjunction of both sides' predicates; all references to the removed
  alias are renamed to the kept one.  Blocked under ``SELECT *`` (the
  join exposed two copies of every column positionally).

* **FD join elimination** — a join against a bare dimension scan is
  dropped when (a) the dimension-side keys are an FD-proven, data-unique
  superkey, (b) the fact side's keys carry a *declared foreign key* to
  them (``Database.declare_foreign_key``, re-verified containment at the
  current epoch) so every fact row matches exactly one dimension row,
  and (c) nothing else in the query references the dimension.  Recorded
  in ``PlanInfo.rewrites`` exactly like ``DateRewrite`` records.

The pack runs in ``"od"`` mode only (the optimized regime, like the date
rewrite) and is switched by the ``rewrites="on"|"off"`` knob threaded
through ``Database.plan/execute/explain``; the setting is part of the
plan-cache key, so the two regimes never serve each other's trees.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine.expr import (
    Arith,
    Between,
    BoolOp,
    Cmp,
    Col,
    Expr,
    Func,
    InList,
    Lit,
    Not,
)
from ..engine.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)
from ..engine.operators import Filter, SeqScan
from ..engine.operators.base import AggSpec
from ..engine.types import DataType
from ..fd.bridge import fds_of
from ..fd.closure import is_superkey
from .rewrites import (
    Fact,
    NameResolver,
    _count_dim_references,
    _key_unique,
    _rebuild,
    collect_aliases,
    conjoin,
    split_conjuncts,
)

__all__ = ["RewriteRecord", "apply_rewrites"]

#: Eager aggregation fires when estimated partial groups / side rows is at
#: most this ratio (the join input must shrink enough to pay for the
#: extra fold) ...
EAGER_AGG_MAX_RATIO = 0.5
#: ... relaxed to this when a clustered index provides the partial
#: grouping order, because the partial stage then runs as a streaming
#: aggregate with no hash table.
EAGER_AGG_ORDERED_RATIO = 0.9

#: Aggregate functions that decompose into partial + final stages.
#: AVG does not (partial averages cannot be recombined without counts).
_DECOMPOSABLE = ("COUNT", "SUM", "MIN", "MAX")


@dataclass
class RewriteRecord:
    """Record of one applied rewrite-pack rule (for EXPLAIN and tests)."""

    rule: str  # "eager-agg" | "scan-consolidation" | "join-elimination"
    detail: str
    #: The data facts the rule relied on (see
    #: :class:`~repro.optimizer.rewrites.Fact`); eager aggregation relies
    #: on none — its statistics only price it.
    facts: Tuple[Fact, ...] = ()

    def describe(self) -> str:
        if self.rule == "join-elimination":
            return f"eliminated join({self.detail})"
        if self.rule == "scan-consolidation":
            return f"consolidated scan({self.detail})"
        return f"{self.rule}({self.detail})"


def apply_rewrites(
    database, node: LogicalNode, resolver: NameResolver
) -> Tuple[LogicalNode, List[RewriteRecord]]:
    """Apply every eligible rewrite; return the new tree plus records.

    Rule order matters: consolidation first (it shrinks the alias set and
    may expose further shapes), then join elimination (it removes joins
    eager aggregation would otherwise price), then eager aggregation.
    """
    records: List[RewriteRecord] = []
    node = _consolidate_scans(database, node, resolver, records)
    node = _eliminate_joins(database, node, node, resolver, records)
    node = _eager_aggregation(database, node, resolver, records)
    return node, records


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _declared_superkey(database, table_name: str, bare_columns: Sequence[str]) -> bool:
    table = database.table(table_name)
    fds = fds_of(table.constraints)
    return is_superkey(bare_columns, table.schema.names, fds)


def _contains_star(node: LogicalNode) -> bool:
    if isinstance(node, LogicalProject) and node.exprs is None:
        return True
    return any(_contains_star(child) for child in node.children())


def _replace_node(
    node: LogicalNode, target: LogicalNode, replacement: LogicalNode
) -> LogicalNode:
    if node is target:
        return replacement
    return _rebuild(
        node, [_replace_node(c, target, replacement) for c in node.children()]
    )


def _rename_expr(expr: Expr, rename) -> Expr:
    """Structurally rebuild an expression with column refs renamed."""
    if isinstance(expr, Col):
        return Col(rename(expr.name))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _rename_expr(expr.left, rename), _rename_expr(expr.right, rename))
    if isinstance(expr, Arith):
        return Arith(expr.op, _rename_expr(expr.left, rename), _rename_expr(expr.right, rename))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, [_rename_expr(o, rename) for o in expr.operands])
    if isinstance(expr, Not):
        return Not(_rename_expr(expr.operand, rename))
    if isinstance(expr, Between):
        return Between(
            _rename_expr(expr.operand, rename),
            _rename_expr(expr.low, rename),
            _rename_expr(expr.high, rename),
        )
    if isinstance(expr, InList):
        return InList(_rename_expr(expr.operand, rename), expr.values)
    if isinstance(expr, Func):
        return Func(expr.name, [_rename_expr(a, rename) for a in expr.args])
    return expr


def _rename_tree(
    node: LogicalNode, resolver: NameResolver, removed: str, kept: str
) -> LogicalNode:
    """Rename every reference owned by ``removed`` to the ``kept`` alias.

    Output names (projection aliases, aggregate result names) stay —
    only column *references* move.  References that do not resolve (e.g.
    ORDER BY over a projected output name) are left untouched.
    """

    def rename(name: str) -> str:
        try:
            if resolver.alias_of(name) == removed:
                return f"{kept}.{resolver.bare(name)}"
        except (KeyError, ValueError):
            pass
        return name

    children = [_rename_tree(c, resolver, removed, kept) for c in node.children()]
    node = _rebuild(node, children)
    if isinstance(node, LogicalFilter):
        return dataclasses.replace(node, predicate=_rename_expr(node.predicate, rename))
    if isinstance(node, LogicalJoin):
        return dataclasses.replace(
            node,
            left_columns=tuple(rename(c) for c in node.left_columns),
            right_columns=tuple(rename(c) for c in node.right_columns),
        )
    if isinstance(node, LogicalAggregate):
        return dataclasses.replace(
            node,
            group_columns=tuple(rename(c) for c in node.group_columns),
            aggregates=tuple(
                AggSpec(
                    spec.func,
                    _rename_expr(spec.expr, rename) if spec.expr is not None else None,
                    spec.name,
                )
                for spec in node.aggregates
            ),
        )
    if isinstance(node, LogicalProject) and node.exprs is not None:
        return dataclasses.replace(
            node, exprs=tuple(_rename_expr(e, rename) for e in node.exprs)
        )
    if hasattr(node, "keys"):  # LogicalSort
        return dataclasses.replace(node, keys=tuple(rename(k) for k in node.keys))
    return node


def _leaf_scan(node: LogicalNode):
    """(scan, predicate) for a Scan or Filter-over-Scan leaf, else None."""
    predicate = None
    if isinstance(node, LogicalFilter):
        predicate = node.predicate
        node = node.child
    if isinstance(node, LogicalScan):
        return node, predicate
    return None


# ----------------------------------------------------------------------
# Rule 1: scan consolidation (self-join on an FD-proven key)
# ----------------------------------------------------------------------
def _consolidate_scans(
    database,
    root: LogicalNode,
    resolver: NameResolver,
    records: List[RewriteRecord],
) -> LogicalNode:
    if _contains_star(root):
        # The join exposes both copies positionally; merging would change
        # the output width.
        return root
    while True:
        found = _find_self_join(database, root, resolver)
        if found is None:
            return root
        join, kept, removed, table_name, key = found
        left_leaf = _leaf_scan(join.left)
        right_leaf = _leaf_scan(join.right)
        conjuncts: List[Expr] = []
        for _, predicate in (left_leaf, right_leaf):
            if predicate is not None:
                conjuncts.extend(split_conjuncts(predicate))
        merged: LogicalNode = left_leaf[0]
        predicate = conjoin(conjuncts)
        if predicate is not None:
            merged = LogicalFilter(merged, predicate)
        root = _replace_node(root, join, merged)
        # Tree-wide rename (the merged predicate's removed-alias conjuncts
        # included — they are part of the new root by now).
        root = _rename_tree(root, resolver, removed, kept)
        records.append(
            RewriteRecord(
                "scan-consolidation",
                f"{table_name} AS {removed} into {kept}",
                (Fact("unique", (table_name,), (table_name, key)),),
            )
        )


def _find_self_join(database, node: LogicalNode, resolver: NameResolver):
    """First eligible self-join: both sides leaf scans of one table,
    joined pairwise on the same bare columns, which form an FD-proven,
    data-unique key.  Returns (join, kept_alias, removed_alias, table,
    key columns)."""
    if isinstance(node, LogicalJoin):
        left_leaf = _leaf_scan(node.left)
        right_leaf = _leaf_scan(node.right)
        if left_leaf is not None and right_leaf is not None:
            left_scan, right_scan = left_leaf[0], right_leaf[0]
            if (
                left_scan.table == right_scan.table
                and left_scan.alias != right_scan.alias
                and node.left_columns
            ):
                bares: List[str] = []
                ok = True
                for l, r in zip(node.left_columns, node.right_columns):
                    try:
                        pair_aliases = {resolver.alias_of(l), resolver.alias_of(r)}
                        same_bare = resolver.bare(l) == resolver.bare(r)
                    except (KeyError, ValueError):
                        ok = False
                        break
                    if pair_aliases != {left_scan.alias, right_scan.alias} or not same_bare:
                        ok = False
                        break
                    bares.append(resolver.bare(l))
                if ok:
                    table = database.table(left_scan.table)
                    if _declared_superkey(
                        database, left_scan.table, bares
                    ) and _key_unique(table, bares):
                        return (
                            node, left_scan.alias, right_scan.alias,
                            left_scan.table, tuple(bares),
                        )
    for child in node.children():
        found = _find_self_join(database, child, resolver)
        if found is not None:
            return found
    return None


# ----------------------------------------------------------------------
# Rule 2: FD join elimination (unused dimension behind a declared FK)
# ----------------------------------------------------------------------
def _eliminate_joins(
    database,
    root: LogicalNode,
    node: LogicalNode,
    resolver: NameResolver,
    records: List[RewriteRecord],
) -> LogicalNode:
    if isinstance(node, LogicalJoin):
        left = _eliminate_joins(database, root, node.left, resolver, records)
        right = _eliminate_joins(database, root, node.right, resolver, records)
        node = dataclasses.replace(node, left=left, right=right)
        for dim_side, fact_side, dim_cols, fact_cols in (
            ("right", "left", node.right_columns, node.left_columns),
            ("left", "right", node.left_columns, node.right_columns),
        ):
            dim_node = getattr(node, dim_side)
            fact_node = getattr(node, fact_side)
            record = _try_eliminate_unused(
                database, root, dim_node, fact_node, dim_cols, fact_cols, resolver
            )
            if record is not None:
                records.append(record)
                return fact_node
        return node
    return _rebuild(
        node,
        [
            _eliminate_joins(database, root, c, resolver, records)
            for c in node.children()
        ],
    )


def _try_eliminate_unused(
    database, root, dim_node, fact_node, dim_cols, fact_cols, resolver
) -> Optional[RewriteRecord]:
    # 1. dimension side must be a *bare* scan — a local filter could drop
    #    dimension rows fact rows still point at, breaking exactly-once.
    if not isinstance(dim_node, LogicalScan) or not dim_cols:
        return None
    dim_alias, dim_table = dim_node.alias, dim_node.table
    try:
        if any(resolver.alias_of(c) != dim_alias for c in dim_cols):
            return None
        dim_bares = [resolver.bare(c) for c in dim_cols]
        fact_aliases = {resolver.alias_of(c) for c in fact_cols}
        fact_bares = [resolver.bare(c) for c in fact_cols]
    except (KeyError, ValueError):
        return None

    # 2. the dimension keys are an FD-proven, data-unique superkey —
    #    every fact row matches at most one dimension row.
    table = database.table(dim_table)
    if not _declared_superkey(database, dim_table, dim_bares):
        return None
    if not _key_unique(table, dim_bares):
        return None

    # 3. a declared (and epoch-re-verified) foreign key from the fact
    #    side's single owning alias — every fact row matches at least one.
    if len(fact_aliases) != 1:
        return None
    fact_alias = next(iter(fact_aliases))
    fact_table = resolver.aliases.get(fact_alias)
    if fact_table is None:
        return None
    fk = (fact_table, tuple(fact_bares), dim_table, tuple(dim_bares))
    if not database.verified_foreign_key(*fk):
        return None

    # 4. nothing but this join's keys references the dimension (a bare
    #    scan has no exempt local filter, so the count is exactly the
    #    join-key references when eligible; SELECT * counts as a use).
    if _count_dim_references(root, resolver, dim_alias) != len(dim_cols):
        return None
    return RewriteRecord(
        "join-elimination",
        dim_alias,
        (
            Fact("fk", (fact_table, dim_table), fk),
            Fact("unique", (dim_table,), (dim_table, tuple(dim_bares))),
        ),
    )


# ----------------------------------------------------------------------
# Rule 3: eager (partial) aggregation below a join
# ----------------------------------------------------------------------
def _eager_aggregation(
    database,
    node: LogicalNode,
    resolver: NameResolver,
    records: List[RewriteRecord],
) -> LogicalNode:
    if isinstance(node, LogicalAggregate) and not node.partial:
        replaced = _try_eager(database, node, resolver, records)
        if replaced is not None:
            return replaced
    return _rebuild(
        node,
        [_eager_aggregation(database, c, resolver, records) for c in node.children()],
    )


def _try_eager(
    database,
    agg: LogicalAggregate,
    resolver: NameResolver,
    records: List[RewriteRecord],
) -> Optional[LogicalNode]:
    # Grouped aggregates directly above a join only: the grouped-only gate
    # sidesteps the empty-input corner (a global COUNT/SUM over zero rows
    # must still emit its one NULL/0 row, which a partial stage below the
    # join would not reproduce), and a residue filter between aggregate
    # and join would see partial rows instead of join rows.
    if not agg.group_columns or not isinstance(agg.child, LogicalJoin):
        return None
    if any(spec.func not in _DECOMPOSABLE for spec in agg.aggregates):
        return None
    join = agg.child

    needed: List[str] = list(agg.group_columns)
    for spec in agg.aggregates:
        if spec.expr is not None:
            needed.extend(spec.expr.columns())
    try:
        needed_aliases = {resolver.alias_of(c) for c in needed}
    except (KeyError, ValueError):
        return None

    for side_name, own_keys in (("left", join.left_columns), ("right", join.right_columns)):
        side_node = getattr(join, side_name)
        leaf = _leaf_scan(side_node)
        if leaf is None:
            continue
        scan, _ = leaf
        if needed_aliases != {scan.alias}:
            continue
        try:
            if any(resolver.alias_of(k) != scan.alias for k in own_keys):
                continue
            key_bares = [resolver.bare(k) for k in own_keys]
        except (KeyError, ValueError):
            continue

        # SUM arguments must be integer-typed columns: the partial/final
        # split re-associates the fold, which is only value-identical
        # (multiset-exact across the on/off differential) for ints.
        table = database.table(scan.table)
        sums_ok = True
        for spec in agg.aggregates:
            if spec.func != "SUM":
                continue
            if not isinstance(spec.expr, Col):
                sums_ok = False
                break
            try:
                bare = resolver.bare(spec.expr.name)
            except (KeyError, ValueError):
                sums_ok = False
                break
            if table.schema.dtype_of(bare) is not DataType.INT:
                sums_ok = False
                break
        if not sums_ok:
            continue

        # Partial grouping: the final group columns plus this side's join
        # keys (the join must still see every key value distinctly).
        partial_group: List[str] = []
        seen: Set[str] = set()
        for column in tuple(agg.group_columns) + tuple(own_keys):
            qualified = resolver.qualify(column)
            if qualified not in seen:
                seen.add(qualified)
                partial_group.append(column)
        group_bares = [resolver.bare(c) for c in partial_group]

        if not _eager_profitable(database, side_node, scan, group_bares):
            continue

        partial_specs: List[AggSpec] = []
        final_specs: List[AggSpec] = []
        for spec in agg.aggregates:
            pname = f"__partial_{spec.name}"
            partial_specs.append(AggSpec(spec.func, spec.expr, pname))
            # COUNT recombines by summing partial counts; SUM/MIN/MAX
            # recombine by themselves.
            final_func = "SUM" if spec.func == "COUNT" else spec.func
            final_specs.append(AggSpec(final_func, Col(pname), spec.name))

        partial = LogicalAggregate(
            side_node, tuple(partial_group), tuple(partial_specs), partial=True
        )
        new_join = dataclasses.replace(join, **{side_name: partial})
        target = scan.alias
        for spec in agg.aggregates:
            if spec.expr is not None and spec.expr.columns():
                target = resolver.qualify(list(spec.expr.columns())[0])
                break
        records.append(RewriteRecord("eager-agg", f"{target} below join"))
        return LogicalAggregate(new_join, agg.group_columns, tuple(final_specs))
    return None


def _eager_profitable(database, side_node, scan, group_bares: Sequence[str]) -> bool:
    """Does the partial stage shrink its side enough to pay for itself?

    Priced with the same statistics costing uses: estimated side rows
    (through the pushed-down filter, via ``estimate_plan`` on a throwaway
    scan chain) against the capped NDV product of the partial group.  A
    clustered index providing the partial grouping order relaxes the
    ratio — the partial stage then streams with no hash table.
    """
    try:
        stats = database.stats(scan.table)
    except KeyError:
        return False
    rows = float(stats.row_count)
    if isinstance(side_node, LogicalFilter):
        try:
            from .costing import estimate_plan  # lazy: import cycle

            table = database.table(scan.table)
            chain = Filter(SeqScan(table, scan.alias), side_node.predicate)
            rows = estimate_plan(database, chain).rows
        except (TypeError, KeyError, ValueError):
            pass
    if rows <= 0:
        return False
    groups = 1.0
    for bare in group_bares:
        column = stats.column(bare)
        groups *= column.distinct if column is not None else 10.0
        if groups >= rows:
            break
    groups = max(1.0, min(groups, rows))
    threshold = EAGER_AGG_MAX_RATIO
    if _streams_partial_group(database, scan.table, group_bares):
        threshold = EAGER_AGG_ORDERED_RATIO
    return groups <= threshold * rows


def _streams_partial_group(database, table_name: str, group_bares: Sequence[str]) -> bool:
    """Conservative provided-order check: a clustered index whose key set
    equals the partial group guarantees the partial stage streams."""
    group_set = set(group_bares)
    for index in database.indexes_on(table_name):
        if index.clustered and set(index.key_columns) == group_set:
            return True
    return False
