"""The batch execution engine's contracts.

Three things are gated here, operator by operator:

* **expected rows** — every operator's output equals what plain Python
  computes from the input rows (``sorted``, comprehensions, ``Counter``,
  a hand fold), in the operator's documented order;
* **batch-size independence** — ``run(N)`` at boundary sizes (1, a small
  odd size, larger than the input) gives identical rows, identical float
  bits and identical ``Metrics`` counters; ``Limit`` is the documented
  exception for counters, pinned by its own tests;
* **order conformance on random instances** — ``execute_batches`` output
  respects the operator's declared :class:`OrderSpec` (property test,
  hypothesis-driven row data).

Plus the building blocks: :class:`ColumnBatch` structural operations and
the fused vectorized expression kernels against the ``compile_against``
closures they are generated independently of.
"""
from __future__ import annotations

import datetime
import random
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import DEFAULT_BATCH_SIZE, ColumnBatch
from repro.engine.database import Database
from repro.engine.expr import (
    Arith,
    Between,
    BoolOp,
    Cmp,
    Col,
    Func,
    InList,
    Lit,
    Not,
    vectorized_kernel,
)
from repro.engine.index import SortedIndex
from repro.engine.operators import (
    AggSpec,
    Filter,
    HashAggregate,
    HashDistinct,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    SortedDistinct,
    StreamAggregate,
    TopN,
)
from repro.engine.operators.base import Metrics
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType

BATCH_SIZES = (1, 3, 1024)


def make_table(rows, name="t"):
    table = Table(
        name,
        Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.FLOAT)),
    )
    table.load(rows, check=False)
    return table


def random_rows(seed, n=120):
    rng = random.Random(seed)
    return [
        (rng.randint(0, 9), rng.randint(0, 9), round(rng.random() * 100, 3))
        for _ in range(n)
    ]


def float_bits(rows):
    """``rows`` with every float replaced by its exact bit pattern, so
    equality also tells ``-0.0`` from ``0.0`` and one ulp from another."""
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in row)
        for row in rows
    ]


def run_every_batch_size(build_op, expected):
    """Run a fresh tree from ``build_op`` at every size in BATCH_SIZES.

    The rows must equal ``expected`` bit for bit at every size, and the
    counters must be identical at every size.  Returns the first run's
    (rows, metrics).
    """
    first = None
    for batch_size in BATCH_SIZES:
        rows, metrics = build_op().run(batch_size)
        assert float_bits(rows) == float_bits(expected), (
            f"batch_size={batch_size}: rows differ from the expected rows"
        )
        if first is None:
            first = (rows, metrics)
        else:
            assert metrics.counters == first[1].counters, (
                f"batch_size={batch_size}: counters differ "
                f"({metrics.counters} vs {first[1].counters})"
            )
    return first


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def key_of(*positions):
    return lambda row: tuple(row[p] for p in positions)


def fold_groups(rows, key):
    """The AGGS fold — COUNT(*), SUM(c), AVG(c), MIN(b), MAX(b) — per
    group, groups in first-seen order, each group's values added left to
    right in input order."""
    members = {}
    for row in rows:
        members.setdefault(key(row), []).append(row)
    counts = Counter(key(row) for row in rows)
    out = []
    for group, group_rows in members.items():
        total = 0  # not sum(): it compensates float addition since 3.12
        for row in group_rows:
            total += row[2]
        out.append(group + (
            counts[group],
            total,
            total / counts[group],
            min(row[1] for row in group_rows),
            max(row[1] for row in group_rows),
        ))
    return out


def merge_steps(left_keys, right_keys):
    """The steps a two-pointer merge of the sorted key lists takes: one per
    distinct key both sides hold, and one per row whose key the other side
    lacks — unless that key lies above the other side's maximum, where
    the merge has already ended."""
    if not left_keys or not right_keys:
        return 0
    left, right = set(left_keys), set(right_keys)
    return (
        len(left & right)
        + sum(1 for key in left_keys if key not in right and key < right_keys[-1])
        + sum(1 for key in right_keys if key not in left and key < left_keys[-1])
    )


# ----------------------------------------------------------------------
# ColumnBatch structural operations
# ----------------------------------------------------------------------
class TestColumnBatch:
    SCHEMA = Schema.of(("x", DataType.INT), ("y", DataType.STR))
    ROWS = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]

    def test_from_rows_roundtrip(self):
        batch = ColumnBatch.from_rows(self.SCHEMA, self.ROWS)
        assert len(batch) == 4
        assert batch.to_rows() == self.ROWS
        assert list(batch.column("y")) == ["a", "b", "c", "d"]

    def test_empty(self):
        batch = ColumnBatch.from_rows(self.SCHEMA, [])
        assert len(batch) == 0
        assert batch.to_rows() == []
        assert len(batch.columns) == len(self.SCHEMA)

    def test_filter(self):
        batch = ColumnBatch.from_rows(self.SCHEMA, self.ROWS)
        kept = batch.filter([True, False, True, False])
        assert kept.to_rows() == [(1, "a"), (3, "c")]
        assert len(kept) == 2

    def test_slice(self):
        batch = ColumnBatch.from_rows(self.SCHEMA, self.ROWS)
        assert batch.slice(1, 3).to_rows() == [(2, "b"), (3, "c")]
        assert batch.slice(3, 99).to_rows() == [(4, "d")]

    def test_take(self):
        batch = ColumnBatch.from_rows(self.SCHEMA, self.ROWS)
        assert batch.take([3, 0]).to_rows() == [(4, "d"), (1, "a")]

    def test_concat(self):
        first = ColumnBatch.from_rows(self.SCHEMA, self.ROWS[:2])
        second = ColumnBatch.from_rows(self.SCHEMA, self.ROWS[2:])
        assert ColumnBatch.concat([first, second]).to_rows() == self.ROWS
        with pytest.raises(ValueError):
            ColumnBatch.concat([])


# ----------------------------------------------------------------------
# Vectorized kernels vs the compile_against closures
# ----------------------------------------------------------------------
EXPR_SCHEMA = Schema.of(
    ("a", DataType.INT), ("b", DataType.FLOAT), ("d", DataType.DATE)
)

EXPRESSIONS = [
    Cmp("<=", Col("a"), Lit(5)),
    Cmp("<>", Col("a"), Col("a")),
    Cmp("=", Arith("%", Col("a"), Lit(3)), Lit(0)),
    Between(Col("b"), Lit(10.0), Lit(60.0)),
    BoolOp("AND", [Cmp(">", Col("a"), Lit(2)), Cmp("<", Col("b"), Lit(50.0))]),
    BoolOp("OR", [Cmp("=", Col("a"), Lit(0)), Not(Cmp("<", Col("b"), Lit(90.0)))]),
    InList(Col("a"), [1, 3, 5, 7]),
    Func("YEAR", [Col("d")]),
    Func("QUARTER", [Col("d")]),
    Arith("*", Arith("+", Col("a"), Lit(1)), Col("b")),
    Lit(42),
    Col("b"),
]


@pytest.mark.parametrize("expr", EXPRESSIONS, ids=[e.render() for e in EXPRESSIONS])
@given(data=st.lists(
    st.tuples(
        st.integers(min_value=-10, max_value=10),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.dates(
            min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2030, 12, 31)
        ),
    ),
    max_size=40,
))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_row_closure(expr, data):
    """The fused kernel must agree element-for-element (value *and* type)
    with the expression's own per-row closure on arbitrary rows — a
    reference built by a separate code path from the kernel generator."""
    row_fn = expr.compile_against(EXPR_SCHEMA)
    kernel = vectorized_kernel(expr, EXPR_SCHEMA)
    columns = [list(col) for col in zip(*data)] if data else [[], [], []]
    vector = kernel(columns, len(data))
    expected = [row_fn(row) for row in data]
    assert list(vector) == expected
    assert [type(v) for v in vector] == [type(e) for e in expected]


def test_kernel_is_cached_per_expression():
    first = vectorized_kernel(Cmp("<", Col("a"), Lit(3)), EXPR_SCHEMA)
    second = vectorized_kernel(Cmp("<", Col("a"), Lit(3)), EXPR_SCHEMA)
    assert first is second
    other_schema = Schema.of(("z", DataType.INT), ("a", DataType.INT))
    assert vectorized_kernel(Cmp("<", Col("a"), Lit(3)), other_schema) is not first


def test_kernel_cache_distinguishes_literal_types():
    """Lit(1) == Lit(1.0) == Lit(True) under dataclass equality, but their
    kernels bake different reprs — the cache key must not conflate them."""
    columns = [[1, 2, 3], [], []]
    int_kernel = vectorized_kernel(Arith("+", Col("a"), Lit(1)), EXPR_SCHEMA)
    float_kernel = vectorized_kernel(Arith("+", Col("a"), Lit(1.0)), EXPR_SCHEMA)
    bool_kernel = vectorized_kernel(Arith("+", Col("a"), Lit(True)), EXPR_SCHEMA)
    assert int_kernel(columns, 3) == [2, 3, 4]
    assert [type(v) for v in float_kernel(columns, 3)] == [float] * 3
    assert bool_kernel(columns, 3) == [2, 3, 4]
    # IN-list values are part of the signature too
    int_in = vectorized_kernel(InList(Col("a"), [1, 2]), EXPR_SCHEMA)
    assert int_in(columns, 3) == [True, True, False]


# ----------------------------------------------------------------------
# Per-operator expected rows + batch-size independence
# ----------------------------------------------------------------------
class TestOperatorModeParity:
    @pytest.fixture(params=[3, 17, 2024])
    def table(self, request):
        return make_table(random_rows(request.param))

    @pytest.fixture
    def dim(self):
        dim = Table("dim", Schema.of(("k", DataType.INT), ("label", DataType.STR)))
        dim.load([(i, f"k{i}") for i in range(10)], check=False)
        return dim

    def test_seq_scan(self, table):
        _, metrics = run_every_batch_size(lambda: SeqScan(table), table.rows)
        assert metrics.counters == {"rows_scanned": len(table)}

    def test_seq_scan_empty_table(self):
        run_every_batch_size(lambda: SeqScan(make_table([])), [])

    def test_index_scan(self, table):
        """Two shapes: an index built over random rows, and a clustered
        index over rows loaded in key order with rows appended out of
        order after the build — its scans slice the ascending runs of row
        ids and gather around the appended ones."""
        clustered = make_table(sorted(table.rows[:100], key=key_of(0, 1)))
        appended = SortedIndex("t_ab", clustered, ["a", "b"], clustered=True).build()
        clustered.load(table.rows[100:], check=False)
        for rows, index in (
            (table.rows, SortedIndex("t_ab", table, ["a", "b"]).build()),
            (clustered.rows, appended),
        ):
            _, metrics = run_every_batch_size(
                lambda: IndexScan(index), sorted(rows, key=key_of(0, 1))
            )
            assert metrics.counters == {"index_probes": 1, "rows_scanned": len(rows)}

    def test_index_scan_bounded(self, table):
        index = SortedIndex("t_a", table, ["a"]).build()
        expected = [row for row in sorted(table.rows, key=key_of(0)) if 2 <= row[0] <= 6]
        _, metrics = run_every_batch_size(
            lambda: IndexScan(index, low=(2,), high=(6,)), expected
        )
        assert metrics.get("rows_scanned") == len(expected)

    def test_filter(self, table):
        predicate = BoolOp(
            "AND",
            [Cmp(">=", Col("a"), Lit(2)), Cmp("<", Col("c"), Lit(80.0))],
        )
        _, metrics = run_every_batch_size(
            lambda: Filter(SeqScan(table), predicate),
            [row for row in table.rows if row[0] >= 2 and row[2] < 80.0],
        )
        assert metrics.get("rows_filtered") == len(table)

    def test_filter_none_pass(self, table):
        run_every_batch_size(
            lambda: Filter(SeqScan(table), Cmp(">", Col("a"), Lit(99))), []
        )

    def test_project(self, table):
        run_every_batch_size(
            lambda: Project(
                SeqScan(table),
                [Col("t.a"), Arith("+", Col("t.b"), Lit(100)), Col("t.c")],
                ["a", "shifted", "c"],
            ),
            [(a, b + 100, c) for a, b, c in table.rows],
        )

    def test_limit_exact_early_termination(self, table):
        """Limit stops pulling at the batch that completes the count: the
        scan is charged whole batches, at most one batch past row 10."""
        for batch_size in BATCH_SIZES:
            rows, metrics = Limit(SeqScan(table), 10).run(batch_size)
            assert rows == table.rows[:10]
            batches_pulled = -(-10 // batch_size)
            assert metrics.get("rows_scanned") == min(
                len(table), batches_pulled * batch_size
            )

    def test_sort(self, table):
        """On (b, c), and on a alone: 120 rows over ten values of ``a``
        tie, and ``sorted`` — stable — fixes their order."""
        for keys, positions in ((["t.b", "t.c"], (1, 2)), (["t.a"], (0,))):
            _, metrics = run_every_batch_size(
                lambda: Sort(SeqScan(table), keys),
                sorted(table.rows, key=key_of(*positions)),
            )
            assert metrics.get("sorts") == 1 and metrics.get("sort_rows") == len(table)

    def test_topn(self, table):
        _, metrics = run_every_batch_size(
            lambda: TopN(SeqScan(table), ["t.c"], 11),
            sorted(table.rows, key=key_of(2))[:11],
        )
        assert metrics.get("topn_rows") == len(table)
        assert metrics.get("sort_rows") == 11

    def test_topn_zero(self, table):
        _, metrics = run_every_batch_size(
            lambda: TopN(SeqScan(table), ["t.c"], 0), []
        )
        assert metrics.counters == {}  # the child is never touched

    def test_hash_distinct(self, table):
        run_every_batch_size(
            lambda: HashDistinct(Project(SeqScan(table), [Col("t.a")], ["a"])),
            list(Counter((row[0],) for row in table.rows)),  # first-seen order
        )

    def test_sorted_distinct(self, table):
        run_every_batch_size(
            lambda: SortedDistinct(
                Project(Sort(SeqScan(table), ["t.a", "t.b"]),
                        [Col("t.a"), Col("t.b")], ["a", "b"])
            ),
            sorted({(a, b) for a, b, _ in table.rows}),
        )

    def test_hash_join(self, table, dim):
        """Against a unique build key, and against a build side with
        duplicate keys: each probe row's matches come out in build order."""
        duplicates = make_table(random_rows(7, 40), name="u")
        for build, key in ((dim, "dim.k"), (duplicates, "u.a")):
            _, metrics = run_every_batch_size(
                lambda: HashJoin(SeqScan(table), SeqScan(build), ["t.a"], [key]),
                [left + right for left in table.rows for right in build.rows
                 if left[0] == right[0]],
            )
            assert metrics.get("hash_build_rows") == len(build)
            assert metrics.get("hash_probe_rows") == len(table)

    def test_hash_join_multi_key(self, table):
        other = make_table(random_rows(99, 50), name="u")
        run_every_batch_size(
            lambda: HashJoin(
                SeqScan(table), SeqScan(other), ["t.a", "t.b"], ["u.a", "u.b"]
            ),
            [left + right for left in table.rows for right in other.rows
             if left[:2] == right[:2]],
        )

    def test_merge_join(self, table, dim):
        """Against a unique right key, and many-to-many against a right
        side whose keys repeat and only partly overlap the left's."""
        duplicates = make_table(
            [(a + 4, b, c) for a, b, c in random_rows(7, 40)], name="u"
        )
        for right, key in ((dim, "dim.k"), (duplicates, "u.a")):
            left_rows = sorted(table.rows, key=key_of(0))
            right_rows = sorted(right.rows, key=key_of(0))
            _, metrics = run_every_batch_size(
                lambda: MergeJoin(
                    Sort(SeqScan(table), ["t.a"]),
                    Sort(SeqScan(right), [key]),
                    ["t.a"],
                    [key],
                ),
                [l + r for l in left_rows for r in right_rows if l[0] == r[0]],
            )
            assert metrics.get("merge_steps") == merge_steps(
                [row[0] for row in left_rows], [row[0] for row in right_rows]
            )

    def test_nested_loop_join(self, table, dim):
        _, metrics = run_every_batch_size(
            lambda: NestedLoopJoin(SeqScan(table), SeqScan(dim), ["t.a"], ["dim.k"]),
            [left + right for left in table.rows for right in dim.rows
             if left[0] == right[0]],
        )
        assert metrics.get("nl_comparisons") == len(table) * len(dim)

    def test_nested_loop_join_empty_right(self, table):
        empty = make_table([], name="u")
        _, metrics = run_every_batch_size(
            lambda: NestedLoopJoin(SeqScan(table), SeqScan(empty), ["t.a"], ["u.a"]),
            [],
        )
        assert "nl_comparisons" not in metrics.counters

    AGGS = staticmethod(
        lambda: [
            AggSpec("COUNT", None, "n"),
            AggSpec("SUM", Col("c"), "total"),
            AggSpec("AVG", Col("c"), "mean"),
            AggSpec("MIN", Col("b"), "lo"),
            AggSpec("MAX", Col("b"), "hi"),
        ]
    )

    def test_hash_aggregate(self, table):
        run_every_batch_size(
            lambda: HashAggregate(SeqScan(table), ["a"], self.AGGS()),
            fold_groups(table.rows, key_of(0)),
        )

    def test_hash_aggregate_multi_group(self, table):
        run_every_batch_size(
            lambda: HashAggregate(SeqScan(table), ["a", "b"], self.AGGS()),
            fold_groups(table.rows, key_of(0, 1)),
        )

    def test_hash_aggregate_global(self, table):
        run_every_batch_size(
            lambda: HashAggregate(SeqScan(table), [], self.AGGS()),
            fold_groups(table.rows, key_of()),
        )

    def test_hash_aggregate_global_empty_input(self):
        empty = make_table([])
        run_every_batch_size(
            lambda: HashAggregate(SeqScan(empty), [], self.AGGS()),
            [(0, None, None, None, None)],  # SQL: one row over zero rows
        )

    def test_stream_aggregate(self, table):
        run_every_batch_size(
            lambda: StreamAggregate(Sort(SeqScan(table), ["t.a"]), ["a"], self.AGGS()),
            fold_groups(sorted(table.rows, key=key_of(0)), key_of(0)),
        )

    def test_stream_aggregate_multi_group(self, table):
        run_every_batch_size(
            lambda: StreamAggregate(
                Sort(SeqScan(table), ["t.a", "t.b"]), ["a", "b"], self.AGGS()
            ),
            fold_groups(sorted(table.rows, key=key_of(0, 1)), key_of(0, 1)),
        )

    def test_stream_aggregate_global(self, table):
        run_every_batch_size(
            lambda: StreamAggregate(SeqScan(table), [], self.AGGS()),
            fold_groups(table.rows, key_of()),
        )

    def test_stream_aggregate_run_spans_batches(self):
        """A single group covering many batches keeps one accumulator."""
        rows = [(1, i, float(i)) for i in range(50)]
        table = make_table(rows)
        run_every_batch_size(
            lambda: StreamAggregate(SeqScan(table), ["a"], self.AGGS()),
            [(1, 50, 1225.0, 24.5, 0, 49)],
        )


# ----------------------------------------------------------------------
# Property: execute_batches respects the declared OrderSpec
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from([1, 2, 7, 33, 1024]),
)
@settings(max_examples=30, deadline=None)
def test_batch_streams_respect_declared_order_spec(seed, batch_size):
    """On random instances, every order-declaring operator's batch output
    must be sorted by its declared OrderSpec — the conformance contract
    the planner's property framework rests on, carried batch-to-batch."""
    table = make_table(random_rows(seed, n=80))
    index = SortedIndex("t_ab", table, ["a", "b"]).build()
    dim = Table("dim", Schema.of(("k", DataType.INT), ("v", DataType.INT)))
    dim.load([(i, i * i) for i in range(10)], check=False)
    operators = [
        IndexScan(index),
        Filter(IndexScan(index), Cmp("<=", Col("t.a"), Lit(6))),
        Sort(SeqScan(table), ["t.b", "t.a"]),
        TopN(SeqScan(table), ["t.c"], 13),
        Project(IndexScan(index), [Col("t.a"), Col("t.b")], ["x", "y"]),
        HashJoin(IndexScan(index), SeqScan(dim), ["t.a"], ["dim.k"]),
        MergeJoin(
            Sort(SeqScan(table), ["t.a"]), SeqScan(dim), ["t.a"], ["dim.k"]
        ),
        StreamAggregate(
            IndexScan(index), ["t.a"], [AggSpec("COUNT", None, "n")]
        ),
        SortedDistinct(
            Project(IndexScan(index), [Col("t.a"), Col("t.b")], ["a", "b"])
        ),
    ]
    for op in operators:
        spec = tuple(op.provides())
        assert spec, f"{op.label()} should declare an ordering here"
        positions = [op.schema.position(column) for column in spec]
        rows, _ = op.run(batch_size)
        keys = [tuple(row[p] for p in positions) for row in rows]
        assert keys == sorted(keys), (
            f"{op.label()} batch output violates declared order {spec} "
            f"at batch_size={batch_size}"
        )


# ----------------------------------------------------------------------
# Database-level surface
# ----------------------------------------------------------------------
class TestDatabaseBatchMode:
    @pytest.fixture()
    def database(self):
        database = Database("batchdb")
        table = database.create_table(
            "t", Schema.of(("a", DataType.INT), ("b", DataType.FLOAT))
        )
        rng = random.Random(5)
        table.load(
            [(rng.randint(0, 20), round(rng.random() * 10, 2)) for _ in range(300)]
        )
        database.create_index("t_a", "t", ["a"], clustered=True)
        return database

    SQL = "SELECT a, COUNT(*) AS n, SUM(b) AS s FROM t GROUP BY a ORDER BY a"

    def test_execute_batch_size_matches_row_mode(self, database):
        """``batch_size=None`` (rows at the surface) is the default batch
        size underneath: same rows, float bits and counters as any other."""
        default = database.execute(self.SQL)
        batch = database.execute(self.SQL, batch_size=32)
        assert float_bits(batch.rows) == float_bits(default.rows)
        assert batch.columns == default.columns
        assert batch.metrics.counters == default.metrics.counters
        assert batch.batch_size == 32 and default.batch_size == DEFAULT_BATCH_SIZE

    def test_execute_rejects_nonpositive_batch_size(self, database):
        with pytest.raises(ValueError):
            database.execute(self.SQL, batch_size=0)

    def test_plan_info_reports_execution_mode(self, database):
        result = database.execute(self.SQL, batch_size=16)
        assert result.plan.plan_info.execution == "vectorized (batch size 16)"
        result = database.execute(self.SQL)
        assert result.plan.plan_info.execution == (
            f"vectorized (batch size {DEFAULT_BATCH_SIZE})"
        )

    def test_explain_reports_execution_mode(self, database):
        verbose = database.explain(self.SQL, verbose=True, batch_size=64)
        assert "execution: vectorized (batch size 64)" in verbose
        verbose = database.explain(self.SQL, verbose=True)
        assert f"execution: vectorized (batch size {DEFAULT_BATCH_SIZE})" in verbose

    def test_cached_plan_serves_both_modes(self, database):
        cold = database.execute(self.SQL)
        warm_batch = database.execute(self.SQL, batch_size=8)
        assert warm_batch.plan is cold.plan  # one memoized tree, any batch size
        assert warm_batch.rows == cold.rows


# ----------------------------------------------------------------------
# LIMIT: stop pulling, charge whole batches
# ----------------------------------------------------------------------
class TestLimitContract:
    ROWS = 10_000

    @pytest.fixture(scope="class")
    def databases(self):
        database = Database("limitdb")
        table = database.create_table(
            "t", Schema.of(("k", DataType.INT), ("v", DataType.INT))
        )
        table.load([(i, (i * 7919) % 100) for i in range(self.ROWS)])
        oracle = sqlite3.connect(":memory:")
        oracle.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        oracle.executemany("INSERT INTO t VALUES (?, ?)", table.rows)
        yield database, oracle
        oracle.close()

    @pytest.mark.parametrize(
        "sql",
        ["SELECT k, v FROM t LIMIT 5", "SELECT k, v FROM t WHERE v < 50 LIMIT 5"],
        ids=["scan", "filter"],
    )
    def test_limit_matches_sqlite_and_charges_one_batch(self, databases, sql):
        database, oracle = databases
        expected = oracle.execute(sql).fetchall()
        assert len(expected) == 5
        result = database.execute(sql)
        assert isinstance(result.plan, Limit)
        assert any(isinstance(op, SeqScan) for op in _walk(result.plan))
        assert result.rows == expected
        assert result.metrics.get("rows_scanned") == DEFAULT_BATCH_SIZE
        small = database.execute(sql, batch_size=1)
        assert small.rows == expected
        assert small.metrics.get("rows_scanned") < DEFAULT_BATCH_SIZE

    def test_limit_zero_pulls_nothing(self, databases):
        database, oracle = databases
        sql = "SELECT k, v FROM t LIMIT 0"
        assert oracle.execute(sql).fetchall() == []
        result = database.execute(sql)
        assert result.rows == []
        assert result.metrics.get("rows_scanned") == 0


# ----------------------------------------------------------------------
# The batch-charging satellite: per-batch scan counters
# ----------------------------------------------------------------------
class TestBatchScanCharging:
    def test_seq_scan_charges_once_per_batch(self):
        table = make_table(random_rows(1, n=100))
        metrics = Metrics()
        batches = list(SeqScan(table).execute_batches(metrics, 32))
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        assert metrics.counters == {"rows_scanned": 100}

    def test_index_scan_charges_once_per_batch(self):
        table = make_table(random_rows(2, n=100))
        index = SortedIndex("t_a", table, ["a"]).build()
        metrics = Metrics()
        batches = list(IndexScan(index).execute_batches(metrics, 64))
        assert [len(b) for b in batches] == [64, 36]
        assert metrics.counters == {"index_probes": 1, "rows_scanned": 100}

    def test_table_columnar_cache_invalidates_on_insert(self):
        table = make_table(random_rows(3, n=10))
        first = table.columnar()
        assert table.columnar() is first  # cached while rows unchanged
        table.insert((1, 2, 3.0))
        extended = table.columnar()
        assert extended is first  # an append extends the lists in place
        assert [column[-1] for column in extended] == [1, 2, 3.0]
        assert len(extended[0]) == 11
        table.rows.pop()
        refreshed = table.columnar()  # a shrink transposes again
        assert refreshed is not first
        assert len(refreshed[0]) == 10
