"""Logical rewrites: predicate pushdown, then the rules a declared
dependency plus a data-verified side condition make safe.

Every rule fires only when the rewritten tree returns the same multiset,
and every firing is one :class:`RewriteRecord` naming the rule and the
data :class:`Fact` s it relied on (what a cached plan re-checks before it
is served again).  The rules run in two phases — the planner traces them
as ``date-rewrite`` and ``rewrite-pack`` — each a bottom-up rebuild of the
tree (:func:`_walk`) that offers every node to the phase's rules (scan
consolidation walks once more per merge):

* **Date rewrite** (Section 2.3 / [18]) — a fact table records dates as
  *surrogate keys* into a date dimension, and queries predicate on
  *natural* dates, forcing a join.  Given the OD check constraint
  ``[sk] ↔ [d_date]`` (the surrogate is ordered like the date), one scan
  of the dimension translates the natural range into a surrogate range,
  and a range predicate on the fact's own column replaces the join.  The
  range is exact only when each fact key in it matches exactly one
  qualifying dimension row: the qualifying integer surrogates are
  distinct and fill ``[sk_lo, sk_hi]``, or a verified FK from the fact
  column reaches a data-unique surrogate; otherwise the join stays.
  Runs in ``od`` mode.

The rewrite pack runs after it, in ``od`` mode with ``rewrites="on"``
(the setting is part of the plan-cache key, so the two regimes never
serve each other's trees):

* **Scan consolidation** — a self-join of one table on an FD-proven key
  (``is_superkey`` over the declared constraints, re-verified unique on
  the data so duplicate rows cannot inflate the join) matches every row
  only with itself, so both scans merge into one carrying both sides'
  predicates, and references to the removed alias are renamed to the
  kept one.  Blocked under ``SELECT *`` (the join exposed two copies of
  every column positionally).
* **FD join elimination** — the date rewrite's move with an FD in place
  of the OD: a join against a bare dimension scan is dropped when the
  dimension keys are an FD-proven, data-unique superkey and the fact
  side carries a verified foreign key to them (every fact row matches
  exactly one dimension row), and nothing else reads the dimension.
* **Eager (partial) aggregation** — ``Agg_G(R ⋈ S)`` with every group
  column and aggregate argument from one side ``S`` becomes
  ``Agg_G(R ⋈ PartialAgg_{G ∪ keys(S)}(S))``: each partial group joins
  the same ``R`` rows its input rows did, so COUNT recombines as SUM and
  SUM/MIN/MAX by themselves (AVG does not decompose).  SUM arguments must
  be integer columns, so the re-associated fold is value-identical.
  Priced with the statistics NDVs: it fires when the estimated partial
  groups shrink the side enough, relaxed when a clustered index provides
  the partial grouping order (the partial stage then streams).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
    inclusive_bound,
)
from ..engine.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    node_columns,
)
from ..engine.operators import Filter, SeqScan
from ..engine.operators.base import AggSpec
from ..engine.types import DataType
from ..fd.bridge import fds_of
from ..fd.closure import is_superkey
from .context import alias_constraints, build_theory
from .properties import column_equivalent

__all__ = [
    "split_conjuncts",
    "conjoin",
    "collect_aliases",
    "NameResolver",
    "push_filters",
    "Fact",
    "RewriteRecord",
    "apply_date_rewrite",
    "apply_rewrites",
]

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
        self._schemas: Dict[str, object] = {}
        self._by_qualified: Dict[str, str] = {}
        self._by_bare: Dict[str, List[str]] = {}
        for alias, table_name in aliases.items():
            schema = self._schemas[alias] = database.table(table_name).schema
            for column in schema.names:
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

    def dtype_of(self, reference: str) -> Optional[DataType]:
        """The declared type of the column a reference names, or ``None``
        when no one column owns it (an output name, an ambiguity)."""
        try:
            alias, bare = self.qualify(reference).split(".", 1)
        except (KeyError, ValueError):
            return None
        return self._schemas[alias].dtype_of(bare)


# ----------------------------------------------------------------------
# The walk every rewrite shares
# ----------------------------------------------------------------------
def _walk(
    node: LogicalNode, rule: Callable[[LogicalNode], Optional[LogicalNode]]
) -> LogicalNode:
    """Rebuild ``node`` bottom-up, offering every rebuilt node to ``rule``.

    ``rule`` returns a replacement (not walked again) or ``None`` to keep
    the node.  A node none of whose children changed is kept as it is.
    """
    if isinstance(node, LogicalJoin):
        left, right = _walk(node.left, rule), _walk(node.right, rule)
        if left is not node.left or right is not node.right:
            node = dataclasses.replace(node, left=left, right=right)
    elif not isinstance(node, LogicalScan):
        child = _walk(node.child, rule)
        if child is not node.child:
            node = dataclasses.replace(node, child=child)
    replacement = rule(node)
    return node if replacement is None else replacement


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
# Predicate pushdown
# ----------------------------------------------------------------------
def push_filters(node: LogicalNode, resolver: NameResolver) -> LogicalNode:
    """Push single-alias filter conjuncts down onto their scans.

    Both planning modes run this — it is stock optimization, not an OD
    technique; leaving it out would strawman the baseline.
    """

    def push(node: LogicalNode) -> Optional[LogicalNode]:
        if not isinstance(node, LogicalFilter):
            return None
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

        def attach(node: LogicalNode) -> Optional[LogicalNode]:
            if isinstance(node, LogicalScan) and node.alias in per_alias:
                return LogicalFilter(node, conjoin(per_alias[node.alias]))
            return None

        child = _walk(node.child, attach)
        rest = conjoin(residue)
        return LogicalFilter(child, rest) if rest is not None else child

    return _walk(node, push)


# ----------------------------------------------------------------------
# What a firing relied on, and its record
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


@dataclass
class RewriteRecord:
    """One fired rewrite (for EXPLAIN, tests and the plan cache)."""

    #: "date-rewrite" | "scan-consolidation" | "join-elimination" | "eager-agg"
    rule: str
    detail: str
    #: The data facts the rule relied on; eager aggregation relies on
    #: none — its statistics only price it.
    facts: Tuple[Fact, ...] = ()

    def describe(self) -> str:
        if self.rule == "date-rewrite":
            relied = "; ".join(fact.describe() for fact in self.facts)
            return (
                f"eliminated join with {self.detail} "
                f"(one full scan of the dimension; {relied})"
            )
        if self.rule == "join-elimination":
            return f"eliminated join({self.detail})"
        if self.rule == "scan-consolidation":
            return f"consolidated scan({self.detail})"
        return f"{self.rule}({self.detail})"


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


def _declared_superkey(database, table_name: str, bare_columns: Sequence[str]) -> bool:
    table = database.table(table_name)
    return is_superkey(bare_columns, table.schema.names, fds_of(table.constraints))


def _exactly_one_match(
    database, resolver: NameResolver, fact_columns, dim_table: str, dim_bares
) -> Optional[Tuple[Fact, ...]]:
    """The facts that every fact row matches exactly one dimension row —
    a verified FK from the fact columns (all of one alias) to the
    dimension keys, which are unique on the data — or ``None``."""
    try:
        fact_aliases = {resolver.alias_of(c) for c in fact_columns}
        fact_bares = tuple(resolver.bare(c) for c in fact_columns)
    except (KeyError, ValueError):
        return None
    if len(fact_aliases) != 1:
        return None
    fact_table = resolver.aliases[fact_aliases.pop()]
    fk = (fact_table, fact_bares, dim_table, tuple(dim_bares))
    if not database.verified_foreign_key(*fk):
        return None
    if not _key_unique(database.table(dim_table), dim_bares):
        return None
    return (
        Fact("fk", (fact_table, dim_table), fk),
        Fact("unique", (dim_table,), (dim_table, tuple(dim_bares))),
    )


def _count_dim_references(
    root: LogicalNode, resolver: NameResolver, dim_alias: str
) -> int:
    """References to the dimension outside its own pushed-down filter.

    The dimension's local filter (a Filter directly over its scan, produced
    by :func:`push_filters`) is exempt; every other reference counts,
    including join keys, and ``SELECT *`` counts once.  Aliases are
    unique, so structural matching suffices.
    """
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalFilter):
            child = node.child
            if isinstance(child, LogicalScan) and child.alias == dim_alias:
                continue  # the dimension's own range predicate
        stack.extend(node.children())
        columns = node_columns(node)
        if columns is None:
            count += 1  # SELECT * would expose dimension columns
            continue
        for column in columns:
            try:
                if resolver.alias_of(column) == dim_alias:
                    count += 1
            except (KeyError, ValueError):
                pass
    return count


# ----------------------------------------------------------------------
# The two phases
# ----------------------------------------------------------------------
def apply_date_rewrite(
    database, node: LogicalNode, resolver: NameResolver, theory_source=None
) -> Tuple[LogicalNode, List[RewriteRecord]]:
    """Eliminate dimension joins used only to translate a natural-date range.

    Preconditions, checked per join (fact ⋈ dim on ``f.fk = d.pk``):

    1. the dimension side is a bare scan (with pushed-down filters),
    2. its filters yield one closed range on a natural column ``D``,
    3. the dimension declares ``[pk] ↔ [D]`` (surrogate ordered like the
       natural value) — verified through the constraint theory,
    4. no other part of the query references the dimension.

    Applies every eligible elimination; returns the rewritten tree plus a
    ``"date-rewrite"`` :class:`RewriteRecord` per application.
    ``theory_source`` lets the caller (the planner) supply its interned,
    stats-attributed theories; defaults to
    :func:`~repro.optimizer.context.build_theory`.
    """
    rules = _Rules(database, resolver, node, theory_source or build_theory)
    return _walk(node, rules.date_rewrite), rules.records


def apply_rewrites(
    database, node: LogicalNode, resolver: NameResolver, star: bool
) -> Tuple[LogicalNode, List[RewriteRecord]]:
    """The rewrite pack: every eligible scan consolidation (unless
    ``star``, the query has a ``SELECT *``), then, in one walk, FD join
    eliminations and eager aggregation; returns the new tree plus records.

    Consolidation goes first (it shrinks the alias set and may expose
    further shapes), one self-join at a time, each followed by a tree-wide
    rename; join elimination then removes joins eager aggregation would
    otherwise price.
    """
    rules = _Rules(database, resolver, node)
    while not star:
        rules.renaming = None
        node = _walk(node, rules.consolidate)
        if rules.renaming is None:
            break
        node = _rename_tree(node, resolver, *rules.renaming)
    rules.root = node
    return _walk(node, rules.pack), rules.records


class _Rules:
    """The per-node rules of one phase over one tree, and their records.

    ``root`` is the tree as the phase's walk started: a dimension's
    references are counted there.
    """

    def __init__(self, database, resolver: NameResolver, root, theory_source=None):
        self.database = database
        self.resolver = resolver
        self.root = root
        self.theory_source = theory_source
        self.records: List[RewriteRecord] = []
        #: (removed alias, kept alias) once a consolidation fired.
        self.renaming: Optional[Tuple[str, str]] = None

    def _fire(self, found) -> Optional[LogicalNode]:
        if found is None:
            return None
        replacement, record = found
        self.records.append(record)
        return replacement

    def date_rewrite(self, node: LogicalNode) -> Optional[LogicalNode]:
        if isinstance(node, LogicalJoin):
            return self._fire(_eliminate(node, self._date_range))
        return None

    def pack(self, node: LogicalNode) -> Optional[LogicalNode]:
        if isinstance(node, LogicalJoin):
            return self._fire(_eliminate(node, self._unused_dimension))
        if isinstance(node, LogicalAggregate) and not node.partial:
            return self._fire(self._eager(node))
        return None

    # ------------------------------------------------------------------
    # The date rewrite (OD [sk] ↔ [D])
    # ------------------------------------------------------------------
    def _date_range(self, dim_node, fact_node, dim_cols, fact_cols):
        resolver = self.resolver
        # 1. dimension side must be Filter(Scan) or Scan, with a single join key
        leaf = _leaf_scan(dim_node)
        if len(dim_cols) != 1 or leaf is None:
            return None
        scan, predicate = leaf
        conjuncts = split_conjuncts(predicate) if predicate is not None else []
        dim_alias, dim_table = scan.alias, scan.table
        try:
            if resolver.alias_of(dim_cols[0]) != dim_alias:
                return None
        except (KeyError, ValueError):
            return None
        surrogate = resolver.bare(dim_cols[0])

        # 2. a closed natural-column range in the dimension's local filters
        found = _range_of(conjuncts, resolver)
        if found is None:
            return None
        natural, low, high, matched = found
        if natural == surrogate:
            return None
        if len(matched) != len(conjuncts):
            return None  # leftover dim predicates would be lost

        # 3. the OD guarantee: surrogate ordered like the natural column
        theory = self.theory_source(
            alias_constraints(self.database, dim_alias, dim_table)
        )
        if not column_equivalent(
            theory, f"{dim_alias}.{surrogate}", f"{dim_alias}.{natural}"
        ):
            return None

        # 4. the dimension feeds nothing but this join and its own range filter
        if _count_dim_references(self.root, resolver, dim_alias) > 1:
            return None  # >1: referenced beyond the single join key

        # One scan of the dimension translates the natural range into the
        # surrogate domain.
        table = self.database.table(dim_table)
        surrogate_position = table.schema.position(surrogate)
        natural_position = table.schema.position(natural)
        qualifying = [
            row[surrogate_position]
            for row in table.rows
            if low <= row[natural_position] <= high
        ]
        fact_column = fact_cols[0]
        detail = f"{dim_table} AS {dim_alias}: {natural} in [{low} .. {high}] became "
        if not qualifying:
            nothing = Fact("date-range", (dim_table,), (dim_table, None, None))
            record = RewriteRecord(
                "date-rewrite",
                detail + f"{fact_column} BETWEEN None AND None",
                (nothing,),
            )
            return LogicalFilter(fact_node, Lit(False)), record
        sk_low, sk_high = min(qualifying), max(qualifying)
        # Under [sk] ↔ [D] a row with a qualifying surrogate qualifies, so
        # distinct integer surrogates that fill the range leave each fact
        # key in it exactly one dimension row.  Failing that, a verified
        # FK to a data-unique surrogate does: every fact key then has one
        # dimension row, and any key between two qualifying ones qualifies.
        if (
            table.schema.dtype_of(surrogate) is DataType.INT
            and len(qualifying) == sk_high - sk_low + 1 == len(set(qualifying))
        ):
            facts = (Fact("date-range", (dim_table,), (dim_table, sk_low, sk_high)),)
        else:
            facts = _exactly_one_match(
                self.database, resolver, fact_cols, dim_table, (surrogate,)
            )
            if facts is None:
                return None
        record = RewriteRecord(
            "date-rewrite",
            detail + f"{fact_column} BETWEEN {sk_low} AND {sk_high}",
            facts,
        )
        predicate = Between(Col(fact_column), Lit(sk_low), Lit(sk_high))
        return LogicalFilter(fact_node, predicate), record

    # ------------------------------------------------------------------
    # FD join elimination (unused dimension behind a declared FK)
    # ------------------------------------------------------------------
    def _unused_dimension(self, dim_node, fact_node, dim_cols, fact_cols):
        resolver = self.resolver
        # 1. dimension side must be a *bare* scan — a local filter could drop
        #    dimension rows fact rows still point at, breaking exactly-once.
        if not isinstance(dim_node, LogicalScan) or not dim_cols:
            return None
        dim_alias, dim_table = dim_node.alias, dim_node.table
        try:
            if any(resolver.alias_of(c) != dim_alias for c in dim_cols):
                return None
            dim_bares = [resolver.bare(c) for c in dim_cols]
        except (KeyError, ValueError):
            return None

        # 2. the dimension keys are an FD-proven superkey, and every fact
        #    row matches exactly one dimension row.
        if not _declared_superkey(self.database, dim_table, dim_bares):
            return None
        facts = _exactly_one_match(
            self.database, resolver, fact_cols, dim_table, dim_bares
        )
        if facts is None:
            return None

        # 3. nothing but this join's keys references the dimension (a bare
        #    scan has no exempt local filter, so the count is exactly the
        #    join-key references when eligible; SELECT * counts as a use).
        if _count_dim_references(self.root, resolver, dim_alias) != len(dim_cols):
            return None
        return fact_node, RewriteRecord("join-elimination", dim_alias, facts)

    # ------------------------------------------------------------------
    # Scan consolidation (self-join on an FD-proven key)
    # ------------------------------------------------------------------
    def consolidate(self, node: LogicalNode) -> Optional[LogicalNode]:
        """Merge the first eligible self-join the walk reaches — both
        sides leaf scans of one table, joined pairwise on the same bare
        columns, which form an FD-proven, data-unique key.  An eligible
        join has no join below it, so the walk reaches them in pre-order.
        """
        if self.renaming is not None or not isinstance(node, LogicalJoin):
            return None
        left_leaf = _leaf_scan(node.left)
        right_leaf = _leaf_scan(node.right)
        if left_leaf is None or right_leaf is None:
            return None
        left_scan, right_scan = left_leaf[0], right_leaf[0]
        if (
            left_scan.table != right_scan.table
            or left_scan.alias == right_scan.alias
            or not node.left_columns
        ):
            return None
        resolver = self.resolver
        bares: List[str] = []
        for l, r in zip(node.left_columns, node.right_columns):
            try:
                pair_aliases = {resolver.alias_of(l), resolver.alias_of(r)}
                same_bare = resolver.bare(l) == resolver.bare(r)
            except (KeyError, ValueError):
                return None
            if pair_aliases != {left_scan.alias, right_scan.alias} or not same_bare:
                return None
            bares.append(resolver.bare(l))
        table_name = left_scan.table
        if not _declared_superkey(self.database, table_name, bares):
            return None
        if not _key_unique(self.database.table(table_name), bares):
            return None

        conjuncts: List[Expr] = []
        for _, predicate in (left_leaf, right_leaf):
            if predicate is not None:
                conjuncts.extend(split_conjuncts(predicate))
        merged: LogicalNode = left_scan
        predicate = conjoin(conjuncts)
        if predicate is not None:
            merged = LogicalFilter(merged, predicate)
        # The caller renames the removed alias tree-wide, the merged
        # predicate's conjuncts included.
        self.renaming = (right_scan.alias, left_scan.alias)
        self.records.append(
            RewriteRecord(
                "scan-consolidation",
                f"{table_name} AS {right_scan.alias} into {left_scan.alias}",
                (Fact("unique", (table_name,), (table_name, tuple(bares))),),
            )
        )
        return merged

    # ------------------------------------------------------------------
    # Eager (partial) aggregation below a join
    # ------------------------------------------------------------------
    def _eager(self, agg: LogicalAggregate):
        resolver = self.resolver
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
            except (KeyError, ValueError):
                continue

            # SUM arguments must be integer-typed columns: the partial/final
            # split re-associates the fold, which is only value-identical
            # (multiset-exact across the on/off differential) for ints.
            if any(
                spec.func == "SUM"
                and not (
                    isinstance(spec.expr, Col)
                    and resolver.dtype_of(spec.expr.name) is DataType.INT
                )
                for spec in agg.aggregates
            ):
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

            if not _eager_profitable(self.database, side_node, scan, group_bares):
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
            return (
                LogicalAggregate(new_join, agg.group_columns, tuple(final_specs)),
                RewriteRecord("eager-agg", f"{target} below join"),
            )
        return None


def _eliminate(join: LogicalJoin, try_side):
    """Try ``join``'s right side, then its left, as the dimension:
    ``try_side(dim, fact, dim_columns, fact_columns)`` returns
    ``(replacement, record)`` or ``None``."""
    return try_side(
        join.right, join.left, join.right_columns, join.left_columns
    ) or try_side(join.left, join.right, join.left_columns, join.right_columns)


def _range_of(conjuncts: Sequence[Expr], resolver: NameResolver):
    """Extract an inclusive (column, low, high) range over one dim column
    from the conjuncts :func:`~repro.engine.expr.inclusive_bound` reads.

    Returns (bare_column, low, high, matched_conjuncts) or ``None``.
    """
    bounds: Dict[str, List] = {}
    matched: Dict[str, List[Expr]] = {}
    for conjunct in conjuncts:
        bound = inclusive_bound(conjunct)
        if bound is None:
            continue
        column, low, high = bound
        column = resolver.bare(column)
        entry = bounds.setdefault(column, [None, None])
        if low is not None:
            entry[0] = low if entry[0] is None else max(entry[0], low)
        if high is not None:
            entry[1] = high if entry[1] is None else min(entry[1], high)
        matched.setdefault(column, []).append(conjunct)
    for column, (low, high) in bounds.items():
        if low is not None and high is not None:
            return column, low, high, matched[column]
    return None


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

    def renamed(node: LogicalNode) -> Optional[LogicalNode]:
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
        return None

    return _walk(node, renamed)


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
