"""Hierarchical wall-clock spans over planning and execution.

Span model
----------
A :class:`Span` is a closed interval on the ``perf_counter_ns`` clock with
a name, a category, an explicit parent link, and a small ``args`` dict.
Two kinds exist:

* **phase spans** — opened with the :meth:`Tracer.span` context manager
  around optimizer phases (``parse``, ``pushdown``, ``join-order``, …)
  and the outer ``query``/``execute`` envelopes.  These nest lexically,
  so an explicit stack gives their parents.
* **operator spans** — one per *stream* of an operator, opened by
  :meth:`Tracer.wrap_stream` when the stream is created and closed when
  it is exhausted or abandoned.  In a pull pipeline that interval also
  holds every ancestor's work between this stream's batches, so each
  operator span carries ``busy_us`` as well: the time spent inside this
  stream's own ``next()`` calls — its children's work included, its
  consumers' excluded.  Lexical nesting does **not** hold for
  these: a join creates both child streams before pulling either, so the
  second child would wrongly nest under the first.  Parents come from
  plan *structure* instead — :meth:`register_plan` records each
  operator's parent operator, and a new stream parents to the parent
  operator's most recently opened still-open span.

Well-nesting is guaranteed by construction: the driver generator that
counts rows closes its inner stream *first* (ending descendant spans —
CPython finalizes the inner frame's child generators synchronously) and
only then ends its own span.

Worker spans
------------
Parallel partitions always run under a *fresh local tracer* (one per
attempt), never the consumer's — no cross-thread mutation, and spans of
failed attempts vanish with the attempt.  The winning attempt's spans
travel back on the terminal exchange message as :meth:`dump` payloads;
the consumer re-parents them under its exchange span with
:meth:`adopt`, giving each partition its own ``tid`` lane.

Everything here is pay-as-you-go: when no tracer is installed the
engine's hot paths never see this module (see
``Operator.__init_subclass__``), and tracing never touches ``Metrics``
counters, so traced runs stay bit- and counter-identical to untraced
ones.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer"]


class Span:
    """One timed interval; ``dur_ns`` is ``None`` while still open."""

    __slots__ = ("id", "parent", "name", "cat", "start_ns", "dur_ns", "tid", "args")

    def __init__(
        self,
        id: int,
        parent: Optional[int],
        name: str,
        cat: str,
        start_ns: int,
        tid: int,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.cat = cat
        self.start_ns = start_ns
        self.dur_ns: Optional[int] = None
        self.tid = tid
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"Span({self.id}, parent={self.parent}, {self.name!r}, "
            f"dur={self.dur_ns})"
        )


class Tracer:
    """Collects spans for one query (or one partition attempt)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 1
        #: Open context-manager (phase) spans, innermost last.
        self._ctx: List[int] = []
        #: id(op) -> id(parent op) from :meth:`register_plan`.
        self._op_parent: Dict[int, Optional[int]] = {}
        #: id(op) -> structural path ("0", "0.1", …) for analyze/adopt.
        self._op_path: Dict[int, str] = {}
        #: id(op) -> span-id stack of this op's still-open spans.
        self._op_open: Dict[int, List[int]] = {}
        #: tid lanes handed out to adopted partition spans (0 = local).
        self._lanes = 0

    # ------------------------------------------------------------------
    # Core span lifecycle
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str = "phase",
        parent: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
        tid: int = 0,
    ) -> int:
        span = Span(self._next_id, parent, name, cat, perf_counter_ns(), tid, args)
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.id] = span
        return span.id

    def end(self, span_id: int) -> None:
        span = self._by_id.get(span_id)
        if span is not None and span.dur_ns is None:
            span.dur_ns = perf_counter_ns() - span.start_ns

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args: Any) -> Iterator[int]:
        """A lexically nested phase span (optimizer phases, envelopes)."""
        parent = self._ctx[-1] if self._ctx else None
        sid = self.begin(name, cat, parent, args or None)
        self._ctx.append(sid)
        try:
            yield sid
        finally:
            self._ctx.pop()
            self.end(sid)

    # ------------------------------------------------------------------
    # Operator spans
    # ------------------------------------------------------------------
    def register_plan(self, root: Any, parent_op: Any = None) -> None:
        """Record the plan's parent/child structure for span parenting.

        Paths are dotted child indices from the root (root ``"0"``, its
        second child ``"0.1"``, …) — stable across pickling, which is how
        worker spans map back onto consumer plan nodes.
        """
        base_parent = id(parent_op) if parent_op is not None else None
        base_path = self._op_path.get(base_parent, "") if base_parent else ""
        root_path = f"{base_path}.0" if base_path else "0"
        stack: List[Tuple[Any, Optional[int], str]] = [(root, base_parent, root_path)]
        while stack:
            op, parent_id, path = stack.pop()
            oid = id(op)
            self._op_parent[oid] = parent_id
            self._op_path[oid] = path
            for index, child in enumerate(op.children()):
                stack.append((child, oid, f"{path}.{index}"))

    def _parent_for(self, op: Any) -> Optional[int]:
        parent_id = self._op_parent.get(id(op))
        while parent_id is not None:
            open_stack = self._op_open.get(parent_id)
            if open_stack:
                return open_stack[-1]
            parent_id = self._op_parent.get(parent_id)
        return self._ctx[-1] if self._ctx else None

    def _end_op(self, op_id: int, span_id: int) -> None:
        stack = self._op_open.get(op_id)
        if stack and stack[-1] == span_id:
            stack.pop()
        elif stack and span_id in stack:  # pragma: no cover - defensive
            stack.remove(span_id)
        self.end(span_id)

    def wrap_stream(self, op: Any, stream: Any) -> Any:
        """Wrap an operator's batch stream in a counting span driver.

        The span opens *now* (stream creation) and closes when the driver
        is exhausted or closed; the driver closes the inner stream before
        ending its own span so descendant spans always end first.
        """
        oid = id(op)
        args: Dict[str, Any] = {}
        path = self._op_path.get(oid)
        if path is not None:
            args["node"] = path
        extra = op.trace_args()
        if extra:
            args.update(extra)
        sid = self.begin(type(op).__name__, "operator", self._parent_for(op), args)
        self._op_open.setdefault(oid, []).append(sid)
        return self._drive_batches(oid, sid, stream, args)

    def _drive_batches(
        self, op_id: int, span_id: int, stream: Any, args: Dict[str, Any]
    ) -> Iterator[Any]:
        rows = 0
        batches = 0
        busy_ns = 0
        pull = iter(stream).__next__
        try:
            while True:
                started = perf_counter_ns()
                try:
                    batch = pull()
                except StopIteration:
                    break
                finally:
                    busy_ns += perf_counter_ns() - started
                batches += 1
                rows += len(batch)
                yield batch
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            args["rows"] = rows
            args["batches"] = batches
            args["busy_us"] = busy_ns / 1e3
            self._end_op(op_id, span_id)

    # ------------------------------------------------------------------
    # Shipping worker spans
    # ------------------------------------------------------------------
    def dump(self) -> List[tuple]:
        """Picklable form of every span (the terminal-message payload)."""
        return [
            (s.id, s.parent, s.name, s.cat, s.start_ns, s.dur_ns, s.tid, s.args)
            for s in self.spans
        ]

    def adopt(
        self,
        spans_data: Sequence[tuple],
        exchange_op: Any,
        partition: int,
        attempt: int,
    ) -> None:
        """Graft a partition attempt's spans under the exchange's span.

        Span ids are rebased into this tracer's id space, roots are
        re-parented under the exchange's currently open span, node paths
        are rewritten from partition-relative to consumer-tree paths, and
        the whole attempt gets its own ``tid`` lane.
        """
        if not spans_data:
            return
        open_stack = self._op_open.get(id(exchange_op))
        if open_stack:
            graft_parent: Optional[int] = open_stack[-1]
        else:
            graft_parent = self._ctx[-1] if self._ctx else None
        prefix = self._op_path.get(id(exchange_op))
        self._lanes += 1
        lane = self._lanes
        remap: Dict[int, int] = {}
        for sid, parent, name, cat, start_ns, dur_ns, tid, args in spans_data:
            new_id = self._next_id
            self._next_id += 1
            remap[sid] = new_id
            new_args = dict(args) if args else {}
            new_args["partition"] = partition
            new_args["attempt"] = attempt
            node = new_args.get("node")
            if prefix is not None and isinstance(node, str):
                # Partition chains mirror the exchange subtree, whose root
                # sits at <exchange path>.0 in the consumer tree.
                new_args["node"] = f"{prefix}.0{node[1:]}" if node else node
            new_parent = remap.get(parent, graft_parent) if parent is not None else graft_parent
            span = Span(new_id, new_parent, name, cat, start_ns, lane, new_args)
            span.dur_ns = dur_ns
            self.spans.append(span)
            self._by_id[new_id] = span

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close any spans left open (abandoned streams on error paths)."""
        now = perf_counter_ns()
        for span in self.spans:
            if span.dur_ns is None:
                span.dur_ns = now - span.start_ns
        self._op_open.clear()
        self._ctx.clear()

    def chrome(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON object (complete ``"X"`` events).

        Timestamps are microseconds relative to the earliest span, so the
        export opens at t=0 in ``chrome://tracing`` / Perfetto.  The
        explicit parent links ride along in ``args`` (``id``/``parent``)
        — interval nesting per ``tid`` tells the same story visually.
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        t0 = min(span.start_ns for span in self.spans)
        events = []
        for span in self.spans:
            args = dict(span.args) if span.args else {}
            args["id"] = span.id
            if span.parent is not None:
                args["parent"] = span.parent
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": (span.start_ns - t0) / 1000.0,
                    "dur": (span.dur_ns or 0) / 1000.0,
                    "pid": 0,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
