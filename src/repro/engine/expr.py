"""Expression trees: scalar expressions evaluated against rows.

Supports the SQL subset the paper's examples need: column references,
literals, arithmetic, comparisons, boolean connectives, ``BETWEEN``/``IN``,
and the date extraction functions (``YEAR``/``QUARTER``/``MONTH``/``DAY``/
``WEEK``/``DAY_OF_YEAR``) central to Section 2.2's monotonic derived columns.

Each expression compiles itself against a :class:`~repro.engine.schema.Schema`
two ways:

* ``compile_vectorized`` (also :func:`vectorized_kernel`) — a *generated*
  list-comprehension kernel over whole column vectors, which is what the
  operators run: the entire expression tree is fused into one Python
  expression compiled once (and cached per ``(expression, schema)``), so
  a batch of N rows costs one function call instead of N closure chains;
* ``compile_against`` — a plain Python closure evaluating one row.  No
  operator uses it; it is the kernels' test reference, built by a
  separate code path from the kernel generator, so the two agreeing
  element for element (value and type) checks the generated source.
"""
from __future__ import annotations

import datetime
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .schema import Schema
from .types import TypeError_

__all__ = [
    "Expr",
    "Col",
    "Lit",
    "Arith",
    "Cmp",
    "BoolOp",
    "Not",
    "Between",
    "InList",
    "Func",
    "FUNCTIONS",
    "inclusive_bound",
    "ordered_comparisons",
    "vectorized_kernel",
]


def _quarter(value: datetime.date) -> int:
    return (value.month - 1) // 3 + 1


def _week(value: datetime.date) -> int:
    return value.isocalendar()[1]


#: Built-in scalar functions.  All the date extractors are monotonic in
#: their argument at the granularity the Figure 2 hierarchy describes.
FUNCTIONS: dict = {
    "YEAR": lambda d: d.year,
    "QUARTER": _quarter,
    "MONTH": lambda d: d.month,
    "DAY": lambda d: d.day,
    "DAY_OF_YEAR": lambda d: d.timetuple().tm_yday,
    "WEEK": _week,
    "ABS": abs,
    "LOWER": lambda s: s.lower(),
    "UPPER": lambda s: s.upper(),
    "LENGTH": len,
}

_CMP_OPS: dict = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH_OPS: dict = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


class Expr:
    """Base expression node."""

    def columns(self) -> FrozenSet[str]:
        """All column references (as written, possibly unqualified)."""
        raise NotImplementedError

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        """A closure evaluating this expression on rows of ``schema``."""
        raise NotImplementedError

    def compile_vectorized(
        self, schema: Schema
    ) -> Callable[[Sequence[Sequence], int], list]:
        """A kernel ``fn(columns, n) -> list`` evaluating this expression
        over column vectors of ``schema`` — see :func:`vectorized_kernel`."""
        return vectorized_kernel(self, schema)

    def vector_source(self, ctx: "_VectorContext") -> str:
        """The per-row Python source this node contributes to a fused
        vectorized kernel (columns as scalar variables, constants hoisted
        into the kernel namespace via ``ctx``)."""
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


@dataclass(frozen=True)
class Col(Expr):
    """A column reference (possibly qualified, e.g. ``d.year``)."""

    name: str

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.name])

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        position = schema.position(schema.resolve(self.name))
        return lambda row: row[position]

    def vector_source(self, ctx: "_VectorContext") -> str:
        return ctx.column(self.name)

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit(Expr):
    """A literal constant."""

    value: Any

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        value = self.value
        return lambda row: value

    def vector_source(self, ctx: "_VectorContext") -> str:
        return ctx.literal(self.value)

    def render(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        if isinstance(self.value, datetime.date):
            return f"DATE '{self.value.isoformat()}'"
        return repr(self.value)


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic."""

    op: str
    left: Expr
    right: Expr

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        operation = _ARITH_OPS[self.op]
        left = self.left.compile_against(schema)
        right = self.right.compile_against(schema)
        return lambda row: operation(left(row), right(row))

    def vector_source(self, ctx: "_VectorContext") -> str:
        return (
            f"({self.left.vector_source(ctx)} {self.op} "
            f"{self.right.vector_source(ctx)})"
        )

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True)
class Cmp(Expr):
    """Binary comparison."""

    op: str
    left: Expr
    right: Expr

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        operation = _CMP_OPS[self.op]
        left = self.left.compile_against(schema)
        right = self.right.compile_against(schema)
        return lambda row: operation(left(row), right(row))

    def vector_source(self, ctx: "_VectorContext") -> str:
        operator = {"=": "==", "<>": "!="}.get(self.op, self.op)
        return (
            f"({self.left.vector_source(ctx)} {operator} "
            f"{self.right.vector_source(ctx)})"
        )

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"


@dataclass(frozen=True)
class BoolOp(Expr):
    """``AND`` / ``OR`` over two or more operands."""

    op: str  # "AND" | "OR"
    operands: Tuple[Expr, ...]

    def __init__(self, op: str, operands: Sequence[Expr]) -> None:
        object.__setattr__(self, "op", op.upper())
        object.__setattr__(self, "operands", tuple(operands))

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for operand in self.operands:
            out |= operand.columns()
        return out

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        compiled = [operand.compile_against(schema) for operand in self.operands]
        if self.op == "AND":
            return lambda row: all(fn(row) for fn in compiled)
        return lambda row: any(fn(row) for fn in compiled)

    def vector_source(self, ctx: "_VectorContext") -> str:
        # ``bool(...)`` matches the closure's all()/any() return type while
        # keeping Python's left-to-right short-circuit per row.
        joiner = " and " if self.op == "AND" else " or "
        inner = joiner.join(
            f"({operand.vector_source(ctx)})" for operand in self.operands
        )
        return f"bool({inner})"

    def render(self) -> str:
        joiner = f" {self.op} "
        return "(" + joiner.join(o.render() for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        inner = self.operand.compile_against(schema)
        return lambda row: not inner(row)

    def vector_source(self, ctx: "_VectorContext") -> str:
        return f"(not {self.operand.vector_source(ctx)})"

    def render(self) -> str:
        return f"NOT ({self.operand.render()})"


@dataclass(frozen=True)
class Between(Expr):
    """``expr BETWEEN lo AND hi`` (inclusive both ends, as in SQL)."""

    operand: Expr
    low: Expr
    high: Expr

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        operand = self.operand.compile_against(schema)
        low = self.low.compile_against(schema)
        high = self.high.compile_against(schema)
        return lambda row: low(row) <= operand(row) <= high(row)

    def vector_source(self, ctx: "_VectorContext") -> str:
        # Chained comparison evaluates the middle operand once, as the row
        # path's closure does.
        return (
            f"({self.low.vector_source(ctx)} <= "
            f"{self.operand.vector_source(ctx)} <= "
            f"{self.high.vector_source(ctx)})"
        )

    def render(self) -> str:
        return (
            f"{self.operand.render()} BETWEEN {self.low.render()} "
            f"AND {self.high.render()}"
        )


def ordered_comparisons(expr: Expr) -> Iterator[Tuple[str, Any]]:
    """``(column, literal value)`` for every ordered comparison (``<``,
    ``<=``, ``>``, ``>=``, ``BETWEEN``) of a column with a literal in
    ``expr``'s boolean structure."""
    if isinstance(expr, BoolOp):
        for operand in expr.operands:
            yield from ordered_comparisons(operand)
    elif isinstance(expr, Not):
        yield from ordered_comparisons(expr.operand)
    elif isinstance(expr, Cmp) and expr.op in ("<", "<=", ">", ">="):
        for column, literal in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(column, Col) and isinstance(literal, Lit):
                yield column.name, literal.value
    elif isinstance(expr, Between) and isinstance(expr.operand, Col):
        for bound in (expr.low, expr.high):
            if isinstance(bound, Lit):
                yield expr.operand.name, bound.value


#: The comparison a flipped ``literal op column`` states about the column.
_FLIPPED = {">=": "<=", "<=": ">=", "=": "="}


def inclusive_bound(conjunct: Expr):
    """``(column, low, high)`` for a conjunct that bounds a column
    inclusively by literals — ``BETWEEN``, ``>=``, ``<=`` or ``=``, the
    column on either side — with ``None`` for an open end; else ``None``."""
    if isinstance(conjunct, Between):
        if isinstance(conjunct.operand, Col) and isinstance(conjunct.low, Lit) \
                and isinstance(conjunct.high, Lit):
            return conjunct.operand.name, conjunct.low.value, conjunct.high.value
        return None
    if not isinstance(conjunct, Cmp) or conjunct.op not in _FLIPPED:
        return None
    op = conjunct.op
    if isinstance(conjunct.left, Col) and isinstance(conjunct.right, Lit):
        column, value = conjunct.left.name, conjunct.right.value
    elif isinstance(conjunct.right, Col) and isinstance(conjunct.left, Lit):
        column, value, op = conjunct.right.name, conjunct.left.value, _FLIPPED[op]
    else:
        return None
    return (
        column,
        None if op == "<=" else value,
        None if op == ">=" else value,
    )


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    operand: Expr
    values: Tuple[Any, ...]

    def __init__(self, operand: Expr, values: Sequence[Any]) -> None:
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "values", tuple(values))

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        operand = self.operand.compile_against(schema)
        values = set(self.values)
        return lambda row: operand(row) in values

    def vector_source(self, ctx: "_VectorContext") -> str:
        hoisted = ctx.hoist(set(self.values))
        return f"({self.operand.vector_source(ctx)} in {hoisted})"

    def render(self) -> str:
        rendered = ", ".join(Lit(value).render() for value in self.values)
        return f"{self.operand.render()} IN ({rendered})"


@dataclass(frozen=True)
class Func(Expr):
    """A built-in scalar function call."""

    name: str
    args: Tuple[Expr, ...]

    def __init__(self, name: str, args: Sequence[Expr]) -> None:
        name = name.upper()
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for argument in self.args:
            out |= argument.columns()
        return out

    def compile_against(self, schema: Schema) -> Callable[[tuple], Any]:
        function = FUNCTIONS[self.name]
        compiled = [argument.compile_against(schema) for argument in self.args]
        return lambda row: function(*(fn(row) for fn in compiled))

    def vector_source(self, ctx: "_VectorContext") -> str:
        function = ctx.function(self.name)
        arguments = ", ".join(a.vector_source(ctx) for a in self.args)
        return f"{function}({arguments})"

    def render(self) -> str:
        return f"{self.name}({', '.join(a.render() for a in self.args)})"


# ----------------------------------------------------------------------
# Vectorized kernel generation (the batch execution mode's evaluator)
# ----------------------------------------------------------------------
class _VectorContext:
    """Codegen state for one fused kernel: which column positions the
    expression touches (each becomes a loop variable) and the values
    hoisted into the kernel's namespace (functions, non-trivial
    literals, IN-list sets)."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.positions: Dict[int, str] = {}
        self.namespace: Dict[str, Any] = {}
        self._hoisted = 0

    def column(self, name: str) -> str:
        position = self.schema.position(self.schema.resolve(name))
        variable = f"v{position}"
        self.positions[position] = variable
        return variable

    def hoist(self, value: Any) -> str:
        name = f"_k{self._hoisted}"
        self._hoisted += 1
        self.namespace[name] = value
        return name

    def literal(self, value: Any) -> str:
        # bool before int: True is an int, but repr is already exact.
        if value is None or isinstance(value, (bool, int, float, str)):
            return repr(value)
        return self.hoist(value)

    def function(self, name: str) -> str:
        key = f"_f_{name}"
        self.namespace[key] = FUNCTIONS[name]
        return key


def _build_kernel(expr: Expr, schema: Schema):
    """Fuse ``expr`` into one generated list comprehension.

    The whole tree becomes a single Python expression evaluated per row
    inside one comprehension — preserving per-row left-to-right,
    short-circuit semantics — so a batch costs one function call plus a
    C-speed loop instead of a closure chain per row.  Operands no operator
    accepts (``int < str``) raise :class:`~repro.engine.types.TypeError_`
    naming the expression.
    """
    if isinstance(expr, Col):
        # Pass-through column: the input vector itself, no copy.
        position = schema.position(schema.resolve(expr.name))
        return lambda columns, n: columns[position]
    ctx = _VectorContext(schema)
    body = expr.vector_source(ctx)
    positions = sorted(ctx.positions)
    if not positions:
        result = f"[{body}] * n"
    elif len(positions) == 1:
        p = positions[0]
        result = f"[{body} for v{p} in columns[{p}]]"
    else:
        variables = ", ".join(f"v{p}" for p in positions)
        vectors = ", ".join(f"columns[{p}]" for p in positions)
        result = f"[{body} for ({variables},) in zip({vectors})]"
    namespace = ctx.namespace
    source = f"def _kernel(columns, n):\n    return {result}"
    exec(compile(source, "<vectorized-expr>", "exec"), namespace)
    kernel = namespace["_kernel"]

    # Wrapped here, not in the generated source: a try block there adds
    # half again to the compile time of each new kernel, and every new
    # literal value compiles one.
    def checked(columns, n):
        try:
            return kernel(columns, n)
        except TypeError as exc:
            raise TypeError_(f"{expr.render()}: {exc}") from exc

    return checked


def _literal_signature(expr: Expr) -> tuple:
    """The types of every literal in the tree, in traversal order.

    Part of the kernel cache key: dataclass equality says
    ``Lit(1) == Lit(1.0) == Lit(True)`` (Python's cross-type numeric
    ``==``), but their kernels bake different ``repr``s — without the
    type signature, two queries differing only in literal type would
    share one kernel and the second would return wrong-typed values.
    """
    signature: list = []

    def walk(node: Expr) -> None:
        if isinstance(node, Lit):
            signature.append(type(node.value).__name__)
        elif isinstance(node, InList):
            signature.extend(type(value).__name__ for value in node.values)
            walk(node.operand)
        elif isinstance(node, (Arith, Cmp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, BoolOp):
            for operand in node.operands:
                walk(operand)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, Func):
            for argument in node.args:
                walk(argument)

    walk(expr)
    return tuple(signature)


#: kernel cache: (expression, literal-type signature, schema column
#: names) → compiled kernel.  Expressions are frozen dataclasses
#: (hashable), so identical predicates against identical schemas — e.g.
#: every execution of a cached plan — compile exactly once.
_KERNEL_CACHE: "OrderedDict[tuple, Callable]" = OrderedDict()
_KERNEL_CACHE_CAPACITY = 1024
#: Callers may execute plans from several threads; the lock keeps
#: the get/move_to_end/evict sequence atomic (an eviction racing a
#: ``move_to_end`` would otherwise KeyError).  Uncontended cost is one
#: lock per *operator construction*, not per batch — kernels are cached
#: on the operator instance after the first call.
_KERNEL_CACHE_LOCK = threading.Lock()


def vectorized_kernel(
    expr: Expr, schema: Schema
) -> Callable[[Sequence[Sequence], int], list]:
    """The (cached) vectorized evaluator for ``expr`` against ``schema``.

    Returns ``fn(columns, n) -> list`` where ``columns`` is a sequence of
    column vectors positioned as in ``schema`` and ``n`` their length;
    the result vector matches per-row ``compile_against`` evaluation
    element-for-element.
    """
    try:
        key = (expr, _literal_signature(expr), schema.names)
        with _KERNEL_CACHE_LOCK:
            cached = _KERNEL_CACHE.get(key)
            if cached is not None:
                _KERNEL_CACHE.move_to_end(key)
    except TypeError:  # unhashable literal somewhere: compile uncached
        return _build_kernel(expr, schema)
    if cached is not None:
        return cached
    kernel = _build_kernel(expr, schema)
    with _KERNEL_CACHE_LOCK:
        _KERNEL_CACHE[key] = kernel
        while len(_KERNEL_CACHE) > _KERNEL_CACHE_CAPACITY:
            _KERNEL_CACHE.popitem(last=False)
    return kernel
