"""Operator framework: batch streams with work accounting.

There is one execution engine: every physical operator streams
:class:`~repro.engine.batch.ColumnBatch` chunks.  A caller that wants row
tuples (``batch_size=None`` at the ``Database`` surface) gets them from
:meth:`Operator.run`, which flattens the batch stream — rows are an
adapter over batches, not a second implementation.

Every physical operator exposes

* ``schema`` — its output :class:`~repro.engine.schema.Schema`;
* ``ordering`` — the attribute list its output stream is *guaranteed* sorted
  by (Simmen-style order property; the currency of all the paper's rewrites),
  derived per operator from the input's spec via the
  :class:`~repro.optimizer.properties.OrderSpec` algebra and exposed to the
  planner as :meth:`Operator.provides`;
* ``execute_batches(metrics, batch_size)`` — a generator of
  :class:`~repro.engine.batch.ColumnBatch` chunks, charging its work to
  the shared :class:`Metrics` once per batch (with row counts), so the
  totals of a fully drained plan do not depend on ``batch_size``;
* ``explain_lines()`` — the pretty plan tree.

``Metrics`` totals are what the benchmark harness compares across plans:
the OD rewrites show up as sorts and joins that simply never run.
"""
from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..batch import DEFAULT_BATCH_SIZE, ColumnBatch
from ..expr import Expr
from ..schema import Schema

__all__ = ["Metrics", "Operator", "AggSpec", "order_spec"]

#: Memoized :class:`~repro.optimizer.properties.OrderSpec` class — imported
#: on first use (never at module import) so the engine layer has no
#: import-time dependency on the optimizer package (which itself imports
#: the engine's operators), without paying the import-machinery lookup on
#: every ``provides()`` call.
_ORDER_SPEC_CLS = None


def order_spec(columns: Sequence[str] = ()) -> "Any":
    """Build an :class:`~repro.optimizer.properties.OrderSpec`."""
    global _ORDER_SPEC_CLS
    if _ORDER_SPEC_CLS is None:
        from ...optimizer.properties import OrderSpec

        _ORDER_SPEC_CLS = OrderSpec
    return _ORDER_SPEC_CLS(columns)


@dataclass
class Metrics:
    """Work counters shared by all operators of one execution.

    ``token`` is the execution's optional
    :class:`~repro.engine.errors.CancelToken`: operators call
    :meth:`check_cancel` once per batch so deadlines and consumer-side
    cancellation land cooperatively.  It is *not* a counter — parity
    comparisons look only at :attr:`counters`, and worker-side Metrics
    never carry one (the consumer enforces deadlines while pumping).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    token: Optional[Any] = None
    #: Optional :class:`~repro.obs.tracer.Tracer` (duck-typed — the engine
    #: never imports :mod:`repro.obs`).  ``None`` means tracing is off and
    #: the operator wrappers return the raw stream untouched.
    tracer: Optional[Any] = None
    #: Revision stamp for the :attr:`work` cache — bumped by every
    #: :meth:`add` so repeated ``work`` reads (EXPLAIN ANALYZE, snapshots)
    #: don't recompute the weighted sum against unchanged counters.
    _rev: int = field(default=0, init=False, repr=False, compare=False)
    _work_rev: int = field(default=-1, init=False, repr=False, compare=False)
    _work_cache: float = field(default=0.0, init=False, repr=False, compare=False)

    def add(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount
        self._rev += 1

    def check_cancel(self) -> None:
        """Raise the typed timeout/cancel error if the token says stop."""
        token = self.token
        if token is not None:
            token.check()

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)

    @property
    def work(self) -> float:
        """A single scalar summary: rows touched, with sorts and probes
        weighted as in :mod:`repro.engine.cost`.  Cached against the
        counter revision — counters only change through :meth:`add`."""
        if self._work_rev == self._rev:
            return self._work_cache
        total = 0.0
        total += self.get("rows_scanned")
        total += 4.0 * self.get("index_probes")
        total += 1.5 * (self.get("hash_build_rows") + self.get("hash_probe_rows"))
        sort_rows = self.get("sort_rows")
        if sort_rows > 1:
            total += 1.2 * sort_rows * math.log2(sort_rows)
        self._work_cache = total
        self._work_rev = self._rev
        return total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"Metrics({inner}, work={self.work:.0f})"


def _traced(fn: Callable) -> Callable:
    """Wrap an ``execute_batches`` method for span capture.

    Pay-as-you-go contract: with no tracer on the ``Metrics`` the wrapper
    returns the raw stream — one attribute read and one ``is None`` test
    per *stream creation* (never per batch), so the disabled-tracer
    overhead is unmeasurable next to execution itself.
    """

    def wrapper(self, metrics, *args, **kwargs):
        stream = fn(self, metrics, *args, **kwargs)
        tracer = metrics.tracer
        if tracer is None:
            return stream
        return tracer.wrap_stream(self, stream)

    wrapper._obs_traced = True
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


class Operator:
    """Base class for physical operators."""

    def __init_subclass__(cls, **kwargs) -> None:
        """Install the trace wrapper on every subclass's own
        ``execute_batches`` — one hook instead of editing every operator
        module's hot loops (which stay byte-for-byte untouched)."""
        super().__init_subclass__(**kwargs)
        fn = cls.__dict__.get("execute_batches")
        if fn is not None and not getattr(fn, "_obs_traced", False):
            cls.execute_batches = _traced(fn)

    #: Output schema; set by subclasses.
    schema: Schema
    #: Guaranteed output ordering (exact column names, ascending).  Each
    #: subclass *declares* this from its input's spec — the planner reads
    #: it back via :meth:`provides` instead of re-deriving it.
    ordering: Tuple[str, ...] = ()
    #: How this operator participates in partitioned (parallel) execution
    #: — the hook :func:`repro.engine.parallel.insert_exchanges` reads:
    #:
    #: * ``"source"`` — a leaf that can split itself into contiguous
    #:   partitions (implements :meth:`partition_clone`);
    #: * ``"transparent"`` — a unary operator that preserves per-row
    #:   independence and relative order, so it can be cloned above each
    #:   partition (implements :meth:`partition_through`);
    #: * ``"barrier"`` — parallelism must not be introduced anywhere in
    #:   this operator's subtree (``Limit``: it stops pulling early);
    #: * ``None`` — not partitionable itself; exchange placement recurses
    #:   into the children instead.
    partition_kind: Optional[str] = None

    def provides(self) -> "Any":
        """The :class:`~repro.optimizer.properties.OrderSpec` this
        operator's output stream is guaranteed sorted by."""
        return order_spec(self.ordering)

    # ------------------------------------------------------------------
    # Partitioned-execution hooks (see :mod:`repro.engine.parallel`)
    # ------------------------------------------------------------------
    def partition_clone(self, index: int, count: int) -> "Optional[Operator]":
        """``"source"`` hook: this operator, restricted to its ``index``-th
        of ``count`` contiguous partitions.  The partition streams must
        concatenate (in index order) to exactly this operator's stream,
        each must honor the declared :attr:`ordering`, and their metrics
        charges must *sum* to this operator's (per-execute charges belong
        to partition 0 alone)."""
        return None

    def partition_through(self, child: "Operator") -> "Optional[Operator]":
        """``"transparent"`` hook: rebuild this unary operator over a
        partition of its child.  Sound only for operators that decide each
        row independently and preserve relative order — then clone streams
        concatenate to the serial stream and charges stay row-linear."""
        return None

    def replace_child(self, old: "Operator", new: "Operator") -> None:
        """Rewire one direct child in place (physical transforms such as
        exchange placement).  Sound only when ``new`` has the same schema
        and ordering as ``old`` — parents precompile against the child
        schema at construction."""
        for name, value in vars(self).items():
            if value is old:
                setattr(self, name, new)
                return
        raise ValueError(f"{self.label()}: {old.label()} is not a child")

    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Yield this operator's output as :class:`ColumnBatch` chunks of
        at most ``batch_size`` rows.

        The stream honors :attr:`ordering` (batches in stream order, rows
        in order within each batch).  Counter totals of a drained stream
        are the same at every ``batch_size``; a consumer that stops early
        (``Limit``) leaves each streaming operator charged for the whole
        batches it produced.
        """
        raise NotImplementedError

    def children(self) -> Sequence["Operator"]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def trace_args(self) -> Dict[str, Any]:
        """Extra key/values stamped into this operator's trace spans.

        Must be cheap and static (called once per stream creation when
        tracing); default is nothing."""
        return {}

    def explain_lines(self, indent: int = 0) -> List[str]:
        lines = ["  " * indent + "-> " + self.label()]
        for child in self.children():
            lines.extend(child.explain_lines(indent + 1))
        return lines

    def explain(self) -> str:
        """The full plan tree as text."""
        return "\n".join(self.explain_lines())

    def run(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        token: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> "tuple[List[tuple], Metrics]":
        """Execute to completion, flattening the batch stream into row
        tuples; returns (rows, metrics).  ``token`` is an optional
        :class:`~repro.engine.errors.CancelToken` enforced cooperatively
        throughout; ``tracer`` an optional
        :class:`~repro.obs.tracer.Tracer` capturing per-operator spans."""
        if tracer is not None:
            tracer.register_plan(self)
        metrics = Metrics(token=token, tracer=tracer)
        rows: List[tuple] = []
        for batch in self.execute_batches(metrics, batch_size):
            rows.extend(batch.rows())
        return rows, metrics


@dataclass(frozen=True)
class AggSpec:
    """One aggregate in a group-by: ``func(expr) AS name``.

    ``func`` ∈ {COUNT, SUM, AVG, MIN, MAX}; ``expr`` is ``None`` for
    ``COUNT(*)``.
    """

    func: str
    expr: Optional[Expr]
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "func", self.func.upper())
        if self.func not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise ValueError(f"unsupported aggregate {self.func!r}")
        if self.expr is None and self.func != "COUNT":
            raise ValueError(f"{self.func} requires an argument")

    def make_state(self) -> "_AggState":
        return _AggState(self.func)

    def render(self) -> str:
        arg = "*" if self.expr is None else self.expr.render()
        return f"{self.func}({arg})"


class _AggState:
    """Incremental aggregate accumulator."""

    __slots__ = ("func", "count", "total", "minimum", "maximum")

    def __init__(self, func: str) -> None:
        self.func = func
        self.count = 0
        self.total: Any = 0
        self.minimum: Any = None
        self.maximum: Any = None

    def update_many(self, values: Optional[Sequence[Any]], count: int) -> None:
        """Fold ``count`` rows in one step (``values`` is the evaluated
        argument vector, ``None`` for ``COUNT(*)``).

        ``sum(values, start)`` adds left-to-right from the running total,
        so a group's float result is the same however its rows are split
        into runs; min/max keep the earlier element on ties.
        """
        if not count:
            return
        self.count += count
        if values is None:
            return
        if self.func in ("SUM", "AVG"):
            self.total = sum(values, self.total)
        elif self.func == "MIN":
            smallest = min(values)
            if self.minimum is None or smallest < self.minimum:
                self.minimum = smallest
        elif self.func == "MAX":
            largest = max(values)
            if self.maximum is None or largest > self.maximum:
                self.maximum = largest

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            # SQL: SUM over zero rows is NULL, not 0 — ``total`` starts at
            # the int 0 only as an accumulator identity, never a result.
            return self.total if self.count else None
        if self.func == "AVG":
            return self.total / self.count if self.count else None
        if self.func == "MIN":
            return self.minimum
        return self.maximum
