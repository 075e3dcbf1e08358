"""Parallel batch execution: partitioned pipelines + order-preserving
exchanges over two backends, one of them fault-tolerant.

The :class:`~repro.engine.batch.ColumnBatch` stream of PR 3 is the natural
*exchange granule* for parallelism: a partitionable leaf (a scan) is split
into contiguous partitions, the order/row-preserving chain above it
(filters, projections) is cloned per partition, the per-partition pipelines
run on an :class:`ExchangeBackend`, and a single **exchange** operator
reassembles the partition morsel streams into one batch stream for the
serial remainder of the plan.

Two backends (``Database.execute(..., workers=K, backend=...)``):

* ``inline`` (the default) — no pool at all: partitions run lazily on
  the caller, in partition order for union and interleaved on demand
  for merge.  The deterministic floor the process backend is compared
  against and degrades to.
* ``process`` — true multicore: partition chains are *pickled* and shipped
  to a persistent pool of worker processes, which stream
  ``ColumnBatch`` columns back through one bounded result queue in
  **morsels** of ~:data:`MORSEL_ROWS` rows.  Workers pull partition tasks
  from a shared task queue (work stealing: whichever worker frees first
  takes the next partition) and a parent-side demultiplexer reassembles
  the streams deterministically — completion order never leaks into
  results or counters.

Fault tolerance (the process backend *recovers*; inline is the floor it
degrades to):

* **Release-on-completion**: the consumer sees a partition's batches
  only after its terminal "done" message arrives.  A failed attempt's
  partial output is discarded wholesale and the retry re-produces the
  partition from scratch — partitions are deterministic, so recovered
  runs stay bit- and counter-identical to serial, and consumers can
  never observe duplicated or torn streams.
* **Attempt tags**: every worker message carries the attempt number it
  belongs to; messages from superseded attempts are discarded, so a
  re-dispatched partition racing a not-actually-dead original is
  harmless.
* **Retry, then degrade**: a failed partition attempt (worker death,
  in-kernel exception, dropped result stream) is re-enqueued with capped
  exponential backoff up to :data:`RETRY_LIMIT` times; past that, the
  partition degrades ``process`` → ``inline`` — re-running *only the
  failed partition* on the caller.  When even inline fails, the typed
  :class:`~repro.engine.errors.ExecutionFailed` carries the first
  worker-side traceback.  Recovery accounting (``retries``,
  ``degraded_partitions``, ``degraded_to``) lives in
  ``Exchange.exchange_stats``, never in query :class:`Metrics` — the
  parity invariant survives every recovery path.
* **Deadlines/cancellation**: the consumer-side pump checks the
  execution's :class:`~repro.engine.errors.CancelToken` between morsels;
  on timeout the run *aborts* (pool marked for restart) instead of
  draining, and the next query gets a healthy pool.
  Workers never see the token — no cross-process signalling needed.
* **Deterministic fault injection**: producers call the
  :mod:`repro.engine.faults` seam before emitting each batch, so the
  chaos harness can replay kills/raises/delays/drops on a fixed
  schedule (``REPRO_FAULTS``).  With no plans active the seam is one
  falsy check.

Process-backend shipping, in detail:

* Under the ``fork`` start method (the Linux default; override with
  ``REPRO_START_METHOD``) the pool's workers inherit the parent's memory,
  so scans don't ship data at all: a :meth:`__reduce__` hook replaces the
  ``Table``/``SortedIndex`` reference with a *token* into the module's
  ship registry, and the forked worker rebuilds a normal scan around the
  object it already has.  Staleness is governed by the catalog epoch
  (:mod:`repro.engine.epoch`): any mutation since the pool forked
  restarts it, so a worker can never scan a pre-mutation memory image.
* Under ``spawn`` (pinned in CI for portability) — or for objects the
  current fork image doesn't hold — scans materialize their resolved
  partition slice into a picklable ``ShippedScan`` (plain column lists +
  schema, no ``Table`` back-pointers).  Execution-time bounds are
  preserved either way: pickling happens at execution start, and the
  token path re-resolves bounds in the worker.
* Serialization is accounted *outside* query :class:`Metrics` (parity!):
  each exchange records ``exchange_stats`` — shipped chain bytes, morsel
  count/bytes, rows shipped — for the backend that actually ran.

Two exchange kinds, chosen by the planner from the physical property the
subtree already declares (see
:func:`repro.optimizer.properties.exchange_kind`):

* :class:`MergeExchange` — when the subtree declares a non-empty
  :class:`~repro.optimizer.properties.OrderSpec`.  Planner-built
  exchanges are ``contiguous``: the ``partition_clone`` contract says the
  partition streams concatenate (in index order) to exactly the serial
  stream, which honors the declared order — so the "merge" is a
  streaming concatenation, no heap, no sort.  Test-built exchanges over
  genuinely interleaving partitions use a streaming stable k-way
  ``heapq.merge`` (ties to the lower partition index).
* :class:`UnionExchange` — when the subtree declares no ordering: emit
  partition streams in partition-index order (deterministic; over
  contiguous partitions this *is* the serial stream).

The execution contract — enforced query-by-query in the mode-matrix
differential (``tests/harness/test_differential.py``, including its
process-backend and chaos legs) and property-tested in
``tests/engine/test_parallel.py``:

* **bit-identical rows**: a parallel execution emits exactly the serial
  batch path's rows in exactly the serial order, at every worker count,
  on every backend — *including recovered runs*;
* **counter-identical metrics**: every partition charges a private
  :class:`~repro.engine.operators.base.Metrics`, merged into the shared
  one in partition-index order *after* the streams drain — regardless of
  completion order; per-execute charges (an ``index_probes`` probe) are
  charged by partition 0 only, so totals equal the serial path's
  exactly — exchanges themselves charge nothing, because the serial plan
  has no exchange;
* **determinism**: results never depend on process scheduling —
  partitions are fixed at plan time, drained to completion, and
  reassembled in a fixed order.

Placement is **cost-gated**: :func:`insert_exchanges` skips chains whose
source scans fewer than ``min_rows`` estimated rows (the planner passes
:data:`PARALLEL_MIN_ROWS`, fed by epoch-keyed
:class:`~repro.engine.stats.TableStats` row counts), so dimension-table
scans never pay exchange overhead.  ``LIMIT`` subtrees are never
parallelized (``partition_kind == "barrier"``): Limit stops pulling its
child early, and an eager partition drain would charge scan work the
serial path never does.
"""
from __future__ import annotations

import atexit
import os
import heapq
import pickle
import queue as queue_module
import sys
import threading
import time
import traceback
from collections import OrderedDict, deque
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import config
from . import faults as faults_mod
from .batch import DEFAULT_BATCH_SIZE, ColumnBatch
from .epoch import current_epoch
from .errors import ExecutionFailed, QueryError
from .operators.base import Metrics, Operator

__all__ = [
    "Exchange",
    "UnionExchange",
    "MergeExchange",
    "ExchangeBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "MORSEL_ROWS",
    "PARALLEL_MIN_ROWS",
    "RETRY_LIMIT",
    "partitionable",
    "partition_pipeline",
    "insert_exchanges",
    "host_capability",
    "shutdown_process_pool",
]

#: The recognized backend names, in cost order.
BACKENDS: Tuple[str, ...] = ("inline", "process")

#: What ``workers=K`` selects when no ``backend=`` is given: no pool.  On
#: the report statements inline measured faster than both pools on a
#: 2-CPU GIL host; ``process`` is the opt-in for hosts with cores to use.
DEFAULT_BACKEND = "inline"

#: Target morsel size (rows) for process-backend result streaming: big
#: enough to amortize one pickle + queue hop over thousands of rows, small
#: enough that the parent overlaps reassembly with worker production.
MORSEL_ROWS = 16384

#: Placement gate: chains whose source scans fewer estimated rows than
#: this plan serial (exchange overhead would dominate — the snowflake
#: dimension tables are the motivating case).  Chosen between the test
#: workloads' dimension tables (≤ a few hundred rows) and their fact
#: tables (thousands+).
PARALLEL_MIN_ROWS = 1024

#: How many times a failed partition attempt is re-enqueued (with capped
#: exponential backoff) before the partition degrades to inline.
RETRY_LIMIT = 2

#: Retry backoff: ``base * 2^(failures-1)`` seconds, capped.  Short on
#: purpose — the failures this engine retries (a dead worker, an
#: injected fault) are not congestion, so the cap keeps recovered-run
#: latency bounded while still spacing genuinely flapping retries out.
RETRY_BACKOFF_S = 0.02
RETRY_BACKOFF_CAP_S = 0.25

#: Process-pool result-queue bound (messages in flight): backpressure so
#: fast workers never buffer unbounded morsels in the queue itself.
_RESULT_QUEUE_DEPTH = 16

#: Seconds between worker-liveness checks while the process-backend
#: consumer waits on the result queue.  Short: it is also the detection
#: latency for a killed worker.
_PULL_TIMEOUT = 0.25


def _resolve_start_method() -> str:
    """``REPRO_START_METHOD`` if set, else ``fork`` where available
    (Linux: cheap workers that inherit table memory), else ``spawn``."""
    import multiprocessing

    method = config.start_method()
    if method:
        return method
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def host_capability() -> dict:
    """Can this host actually run Python code in parallel — and how?

    * ``process_capable`` — the **process** backend scales: more than one
      core (the GIL is per-process, so a stock build is fine).
    * ``start_method`` — how worker processes would be created here.
    * ``gil_enabled`` / ``parallel_capable`` — a free-threaded build
      (PEP 703) with more than one core.  Nothing in the engine keys on
      them; they stay because recorded baselines and the e2e benchmark
      header print them.

    The benchmark baseline records all of this in ``extra_info`` and the
    bench/regression gates key their speedup-vs-overhead bars on it — one
    definition, shared, so the gates can never disagree.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "cpus": cpus,
        "gil_enabled": gil_enabled,
        "parallel_capable": cpus >= 2 and not gil_enabled,
        "process_capable": cpus >= 2,
        "start_method": _resolve_start_method(),
    }


# ----------------------------------------------------------------------
# Partitionable-chain analysis (reads the hooks each operator declares)
# ----------------------------------------------------------------------
def partitionable(op: Operator) -> bool:
    """Is this subtree a partitionable chain — a ``"source"`` leaf under
    zero or more ``"transparent"`` (order/row-preserving unary) operators?"""
    while True:
        kind = op.partition_kind
        if kind == "source":
            return True
        if kind == "transparent":
            op = op.child  # type: ignore[attr-defined]
            continue
        return False


def partition_pipeline(op: Operator, index: int, count: int) -> Operator:
    """Clone a partitionable chain for one partition: the source becomes
    its ``index``-of-``count`` contiguous slice, the transparent operators
    above are rebuilt over the slice."""
    kind = op.partition_kind
    if kind == "source":
        clone = op.partition_clone(index, count)
        if clone is None:  # pragma: no cover - hook contract violation
            raise TypeError(f"{op.label()} declares 'source' but returned no clone")
        return clone
    if kind == "transparent":
        child = partition_pipeline(op.child, index, count)  # type: ignore[attr-defined]
        clone = op.partition_through(child)
        if clone is None:  # pragma: no cover - hook contract violation
            raise TypeError(f"{op.label()} declares 'transparent' but returned no clone")
        return clone
    raise TypeError(f"{op.label()} is not part of a partitionable chain")


# ----------------------------------------------------------------------
# Ship registry: fork-inherited zero-copy scan shipping
# ----------------------------------------------------------------------
#: token -> live Table / SortedIndex.  Strong references, LRU-bounded:
#: an entry both (a) lets a forked worker find the object it inherited
#: and (b) pins the object so its ``id`` can never be reused while any
#: pool snapshot still maps the token to it.
_SHIP_REGISTRY: "OrderedDict[tuple, object]" = OrderedDict()
_SHIP_REGISTRY_CAP = 64

#: Tokens that may be shipped by reference *right now* — set (on this
#: thread) only while the process backend pickles chains destined for a
#: fork pool whose snapshot holds them.  Everywhere else (unit-test
#: round-trips, spawn pools) scans materialize their columns instead.
_ACTIVE_SHIP_TOKENS: frozenset = frozenset()


def active_ship_tokens() -> frozenset:
    """The tokens scans may currently ship by registry reference."""
    return _ACTIVE_SHIP_TOKENS


def shipped_object(token: tuple):
    """Worker-side registry lookup (inherited through ``fork``)."""
    return _SHIP_REGISTRY.get(token)


def _register_shippable(token: tuple, obj) -> None:
    """Pin an object in the registry and force its lazy caches (columnar
    view / sorted index array) so a subsequent fork inherits them built."""
    if token[0] == "table":
        obj.columnar()
    else:
        len(obj)  # SortedIndex: force the sorted-array build
    _SHIP_REGISTRY[token] = obj
    _SHIP_REGISTRY.move_to_end(token)
    while len(_SHIP_REGISTRY) > _SHIP_REGISTRY_CAP:
        _SHIP_REGISTRY.popitem(last=False)


def _collect_shippable(op: Operator) -> List[Tuple[tuple, object]]:
    """(token, object) pairs for every scan leaf in the subtree.  An
    ``IndexScan`` registers its index (which owns the table)."""
    out: List[Tuple[tuple, object]] = []
    seen = set()
    stack = [op]
    while stack:
        node = stack.pop()
        index = getattr(node, "index", None)
        table = getattr(node, "table", None)
        if index is not None:
            token: Optional[tuple] = ("index", id(index))
            obj: object = index
        elif table is not None:
            token = ("table", id(table))
            obj = table
        else:
            token = None
            obj = None
        if token is not None and token not in seen:
            seen.add(token)
            out.append((token, obj))
        stack.extend(node.children())
    return out


class _ShipContext:
    """Context manager installing the ship-by-reference token set."""

    def __init__(self, tokens: frozenset) -> None:
        self.tokens = tokens
        self._previous: frozenset = frozenset()

    def __enter__(self) -> "_ShipContext":
        global _ACTIVE_SHIP_TOKENS
        self._previous = _ACTIVE_SHIP_TOKENS
        _ACTIVE_SHIP_TOKENS = self.tokens
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_SHIP_TOKENS
        _ACTIVE_SHIP_TOKENS = self._previous


# ----------------------------------------------------------------------
# Internal recovery plumbing
# ----------------------------------------------------------------------
def _backoff(failures: int) -> None:
    time.sleep(min(RETRY_BACKOFF_S * (2 ** max(0, failures - 1)), RETRY_BACKOFF_CAP_S))


def _local_tracer(partition: Operator):
    """A fresh per-attempt tracer for one partition (lazy import: the
    engine only touches :mod:`repro.obs` when tracing is on)."""
    from ..obs.tracer import Tracer

    tracer = Tracer()
    tracer.register_plan(partition)
    return tracer


def _dump_spans(tracer) -> Optional[list]:
    if tracer is None:
        return None
    tracer.finish()
    return tracer.dump()


def _run_partition_inline(
    partition: Operator,
    batch_size: int,
    index: int,
    attempt: int,
    plans: Tuple,
    token,
    trace: bool = False,
) -> Tuple[List[ColumnBatch], Dict[str, int], Optional[list]]:
    """The degraded attempt of a single partition: run it to completion
    on the caller — deterministic, no pool, no queue — with the token on
    its Metrics.  Returns ``(batches, counters, spans)``; ``spans`` is
    the attempt's local trace dump (``None`` untraced)."""
    tracer = _local_tracer(partition) if trace else None
    metrics = Metrics(token=token, tracer=tracer)
    batches: List[ColumnBatch] = []
    batch_no = 0
    for batch in partition.execute_batches(metrics, batch_size):
        if plans:
            faults_mod.fire(plans, index, batch_no, attempt, "inline")
        batch_no += 1
        if len(batch):
            batches.append(batch)
    return batches, metrics.counters, _dump_spans(tracer)


# ----------------------------------------------------------------------
# Partition streams: the unit every backend hands back
# ----------------------------------------------------------------------
class _InlineStream:
    """A partition executed lazily on the calling thread."""

    def __init__(
        self,
        partition: Operator,
        batch_size: int,
        token=None,
        index: int = 0,
        plans: Tuple = (),
        trace: bool = False,
    ) -> None:
        self._tracer = _local_tracer(partition) if trace else None
        self.trace_spans: Optional[list] = None
        self._metrics = Metrics(token=token, tracer=self._tracer)
        self._generator = self._produce(partition, batch_size, index, plans)
        self._done = False

    def _produce(self, partition, batch_size, index, plans):
        try:
            batch_no = 0
            for batch in partition.execute_batches(self._metrics, batch_size):
                if plans:
                    faults_mod.fire(plans, index, batch_no, 0, "inline")
                batch_no += 1
                yield batch
        finally:
            if self._tracer is not None:
                self.trace_spans = _dump_spans(self._tracer)

    @property
    def counters(self) -> Dict[str, int]:
        return self._metrics.counters

    def __iter__(self) -> Iterator[ColumnBatch]:
        for batch in self._generator:
            yield batch
        self._done = True

    def close(self) -> None:
        """Drain to completion so counters always total the serial run's."""
        if not self._done:
            for _ in self._generator:
                pass
            self._done = True

    def abort(self) -> None:
        """Stop without draining (error/timeout/abandonment path)."""
        self._generator.close()
        self._done = True


class _BufferedStream:
    """The consumer's view of one partition on the process backend.

    **Release-on-completion**: iteration first drives the run until this
    partition's terminal "done" message arrived, then yields the buffered
    batches.  Failed attempts' partial buffers are discarded wholesale
    before a retry, so the consumer can never see duplicated or torn
    streams — the property that makes retrying mid-stream safe at all.
    """

    def __init__(self, run: "_ProcessRun", index: int) -> None:
        self.run = run
        self.index = index

    @property
    def counters(self) -> Dict[str, int]:
        return self.run.partition_counters[self.index]

    @property
    def trace_spans(self) -> Optional[list]:
        return self.run.partition_spans[self.index]

    def __iter__(self) -> Iterator[ColumnBatch]:
        self.run.ensure_done(self.index)
        buffer = self.run.buffers[self.index]
        while buffer:
            yield buffer.popleft()

    def close(self) -> None:
        # Per-stream close defers to the run: counters require *every*
        # partition drained (and locks must release exactly once).
        self.run.close()


class _BackendRun:
    """What a backend hands the exchange: per-partition streams, a
    ``close()`` that drains everything, an ``abort()`` that stops
    producers *without* draining, and serialization/recovery stats."""

    def __init__(self, streams: Sequence, stats: Optional[dict] = None) -> None:
        self.streams = list(streams)
        self.stats = stats if stats is not None else {}

    def close(self) -> None:
        for stream in self.streams:
            stream.close()

    def abort(self) -> None:
        for stream in self.streams:
            stream.abort()


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class ExchangeBackend:
    """How partition pipelines actually execute.

    ``run`` starts every partition and returns a :class:`_BackendRun`
    whose streams yield :class:`ColumnBatch` morsels; after a stream is
    exhausted (or the run is closed) its ``counters`` hold the
    partition's private :class:`Metrics` totals.  The exchange merges
    those in partition-index order — never completion order.  ``token``
    is the execution's optional :class:`~repro.engine.errors.CancelToken`
    (enforced consumer-side).
    """

    name = "?"

    def run(
        self, partitions: Sequence[Operator], batch_size: int, token=None,
        trace: bool = False,
    ) -> _BackendRun:
        """``trace=True`` runs every partition attempt under a fresh local
        tracer; the winning attempt's span dump is exposed per stream as
        ``trace_spans`` for the exchange to adopt."""
        raise NotImplementedError


class InlineBackend(ExchangeBackend):
    """No pool: lazy, on the caller, the deterministic floor — and what
    the process backend degrades to."""

    name = "inline"

    def run(self, partitions, batch_size, token=None, trace=False):
        plans = faults_mod.resolve(faults_mod.active_plans(), len(partitions))
        return _BackendRun(
            [
                _InlineStream(partition, batch_size, token, index, plans, trace)
                for index, partition in enumerate(partitions)
            ],
            {"backend": "inline"},
        )


# ----------------------------------------------------------------------
# The process backend: persistent worker pool + morsel demultiplexer
# ----------------------------------------------------------------------
def _process_worker(tasks, results) -> None:  # pragma: no cover - child process
    """Worker main loop: pull (partition) tasks until the ``None`` pill.

    Each task is a pre-pickled operator chain tagged with its attempt id
    and the active fault plans; results stream back as pre-pickled
    morsels so serialization failures raise *here*, visibly, instead of
    vanishing in a queue feeder thread.  Message protocol (all 5-tuples
    ``(kind, index, attempt, payload, extra)``): ``"s"`` started (payload
    = worker pid, for parent-side failure attribution), ``"m"`` morsel,
    then one terminal ``"d"`` (payload = counters, extra = the attempt's
    trace-span dump or ``None``) or ``"e"`` ((message, traceback)).  A
    kill fault exits before the terminal; a drop fault skips it silently.
    """
    while True:
        task = tasks.get()
        if task is None:
            return
        index, blob, batch_size, morsel_rows, attempt, plans, trace = task
        metrics = Metrics()
        try:
            results.put(("s", index, attempt, os.getpid(), None))
            op = pickle.loads(blob)
            if trace:
                metrics.tracer = _local_tracer(op)
            pending: List[tuple] = []
            pending_rows = 0
            batch_no = 0
            for batch in op.execute_batches(metrics, batch_size):
                if plans:
                    faults_mod.fire(plans, index, batch_no, attempt, "process")
                batch_no += 1
                length = len(batch)
                if not length:
                    continue
                pending.append((batch.columns, length))
                pending_rows += length
                if pending_rows >= morsel_rows:
                    payload = pickle.dumps(pending, pickle.HIGHEST_PROTOCOL)
                    results.put(("m", index, attempt, payload, pending_rows))
                    pending = []
                    pending_rows = 0
            if pending:
                payload = pickle.dumps(pending, pickle.HIGHEST_PROTOCOL)
                results.put(("m", index, attempt, payload, pending_rows))
            results.put(
                ("d", index, attempt, metrics.counters, _dump_spans(metrics.tracer))
            )
        except faults_mod.DropResults:
            continue  # the injected lost-result-stream fault: go silent
        except BaseException as exc:  # noqa: BLE001 - relayed to the parent
            try:
                results.put(
                    (
                        "e",
                        index,
                        attempt,
                        (f"{type(exc).__name__}: {exc}", traceback.format_exc()),
                        None,
                    )
                )
            except Exception:
                return


#: Registered once, on first pool creation: workers are daemons (they die
#: with the parent regardless), but an explicit interpreter-exit shutdown
#: also terminates promptly, joins, and closes the queues' feeder threads
#: — no orphan windows, no noisy atexit races.  (Lifecycle regression:
#: ``tests/engine/test_fault_tolerance.py``.)
_ATEXIT_REGISTERED = False


def _register_pool_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        _ATEXIT_REGISTERED = True
        atexit.register(shutdown_process_pool)


class _ProcessPool:
    """A persistent pool of daemon worker processes.

    ``snapshot`` maps ship tokens to the objects the workers inherited at
    fork time (empty under spawn); ``fork_epoch`` is the catalog epoch
    then.  Any epoch movement restarts the pool — the same staleness rule
    the plan cache and ``Database.stats`` obey — so workers can never
    scan a pre-mutation memory image.
    """

    def __init__(self, size: int, method: str) -> None:
        import multiprocessing

        context = multiprocessing.get_context(method)
        self.context = context
        self.method = method
        self.size = size
        self.tasks = context.Queue()
        self.results = context.Queue(maxsize=_RESULT_QUEUE_DEPTH)
        self.fork_epoch = current_epoch()
        self.snapshot: Dict[tuple, object] = (
            dict(_SHIP_REGISTRY) if method == "fork" else {}
        )
        self.broken = False
        self.processes = [
            context.Process(
                target=_process_worker,
                args=(self.tasks, self.results),
                daemon=True,
                name=f"repro-exchange-{i}",
            )
            for i in range(size)
        ]
        for process in self.processes:
            process.start()
        _register_pool_atexit()

    def alive(self) -> bool:
        return all(process.is_alive() for process in self.processes)

    def respawn_dead(self) -> None:
        """Rebuild the pool — fresh queues, a full set of new workers.

        The shared queues cannot survive a worker death: an idle worker
        blocks inside ``tasks.get()`` *holding the queue's reader lock*,
        so a worker killed there leaves the semaphore acquired forever
        and every replacement reader deadlocks behind a corpse.  The only
        safe recovery is wholesale — terminate the survivors too (their
        in-flight work is re-dispatched by the caller), recreate both
        queues, and start a new full complement.

        A ``fork`` respawn re-forks from the *current* parent image; the
        staleness rules of :func:`_ensure_process_pool` guarantee that
        image still matches ``snapshot`` (any epoch movement would have
        restarted the whole pool before this run began), so token lookups
        in the replacement stay valid.
        """
        if all(process.is_alive() for process in self.processes):
            return
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join(timeout=2.0)
        for q in (self.tasks, self.results):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        self.tasks = self.context.Queue()
        self.results = self.context.Queue(maxsize=_RESULT_QUEUE_DEPTH)
        self.processes = [
            self.context.Process(
                target=_process_worker,
                args=(self.tasks, self.results),
                daemon=True,
                name=f"repro-exchange-{i}",
            )
            for i in range(self.size)
        ]
        for process in self.processes:
            process.start()

    def shutdown(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join(timeout=2.0)
        for q in (self.tasks, self.results):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass


_PROCESS_POOL: Optional[_ProcessPool] = None
_PROCESS_POOL_LOCK = threading.Lock()
#: Serializes process-backend runs: the pool has one result queue, so one
#: streaming run owns it at a time.  A *nested* run on the same thread
#: (two exchanges pulled interleaved, e.g. under a merge join) falls back
#: to the inline backend instead of deadlocking on the lock.
_PROCESS_RUN_LOCK = threading.Lock()
_PROCESS_RUN_OWNER: Optional[int] = None


def shutdown_process_pool() -> None:
    """Tear down the persistent process pool (tests; start-method swaps;
    the interpreter-exit hook)."""
    global _PROCESS_POOL
    with _PROCESS_POOL_LOCK:
        if _PROCESS_POOL is not None:
            _PROCESS_POOL.shutdown()
            _PROCESS_POOL = None


def _ensure_process_pool(needed: Sequence[Tuple[tuple, object]]) -> _ProcessPool:
    """The live pool, restarted when its memory image went stale.

    Restart conditions: no pool yet, the pool was marked broken, the
    configured start method changed, or — fork pools only — the catalog
    epoch moved or a needed object was never part of the fork image.
    (A merely *dead worker* is no longer a restart condition: the run
    respawns dead workers in place and retries their partitions.)
    Registration happens *before* the (re)fork so the children inherit
    every needed object with its caches built.
    """
    global _PROCESS_POOL
    method = _resolve_start_method()
    for token, obj in needed:
        if _SHIP_REGISTRY.get(token) is not obj:
            _register_shippable(token, obj)
    pool = _PROCESS_POOL
    stale = (
        pool is None
        or pool.broken
        or pool.method != method
        or not any(process.is_alive() for process in pool.processes)
        or (
            pool.method == "fork"
            and (
                pool.fork_epoch != current_epoch()
                or any(pool.snapshot.get(token) is not obj for token, obj in needed)
            )
        )
    )
    if stale:
        if pool is not None:
            pool.shutdown()
        pool = _ProcessPool(max(4, host_capability()["cpus"]), method)
        _PROCESS_POOL = pool
    elif not pool.alive():
        pool.respawn_dead()
    return pool


class _ProcessRun(_BackendRun):
    """Demultiplexer for one process-backend execution, with recovery.

    Workers tag every message with partition index *and attempt id*; the
    parent buffers morsels per partition (released on completion), tracks
    which worker pid runs which partition, and on worker death respawns
    the pool and re-enqueues the unfinished partitions.  Per partition
    it keeps the current attempt's buffered batches, the attempt id
    (stale-message discard + fault-seam gating), the failure count, and
    the first failure's ``(message, traceback)``.  Retries exhausted →
    the partition degrades to inline.  A corrupt result queue (a worker
    killed mid-write) is unrecoverable for the whole pool: every
    outstanding partition degrades and the pool restarts on the next
    query.
    """

    def __init__(
        self, pool, partitions, blobs, batch_size, token, plans, trace=False
    ) -> None:
        self.pool = pool
        self.partitions = list(partitions)
        self.blobs = list(blobs)
        count = len(self.partitions)
        self.batch_size = batch_size
        self.token = token
        self.plans = plans
        self.trace = trace
        self.buffers: List[deque] = [deque() for _ in range(count)]
        self.done = [False] * count
        self.partition_counters: List[Dict[str, int]] = [{} for _ in range(count)]
        self.partition_spans: List[Optional[list]] = [None] * count
        self.failures = [0] * count
        self.attempt_ids = [0] * count
        self.first_failure: List[Optional[tuple]] = [None] * count
        self.running_pid: List[Optional[int]] = [None] * count
        self.finished = False
        stats = {
            "backend": "process",
            "start_method": pool.method,
            "chain_bytes": sum(len(blob) for blob in blobs),
            "morsel_bytes": 0,
            "morsels": 0,
            "rows_shipped": 0,
            "token_shipped_chains": 0,
            "retries": 0,
            "degraded_partitions": 0,
            "degraded_to": None,
        }
        super().__init__([_BufferedStream(self, i) for i in range(count)], stats)
        # Work stealing: partitions go into one shared task queue; each of
        # the pool's workers pulls the next one the moment it frees up.
        for index in range(count):
            self._redispatch(index)

    # -- recovery policy ------------------------------------------------
    def _record_failure(self, index: int, error: tuple) -> None:
        if self.first_failure[index] is None:
            self.first_failure[index] = error

    def _discard_attempt(self, index: int) -> None:
        """Drop the current attempt's output and supersede its in-flight
        (now stale) messages."""
        self.buffers[index].clear()
        self.partition_spans[index] = None
        self.attempt_ids[index] += 1

    def _partition_failed(self, index: int, error: tuple) -> None:
        """One attempt failed: discard its output, then retry (capped
        exponential backoff) or degrade to inline."""
        self._record_failure(index, error)
        self.failures[index] += 1
        if self.failures[index] > RETRY_LIMIT:
            self._degrade(index)
            return
        self._discard_attempt(index)
        self.stats["retries"] += 1
        _backoff(self.failures[index])
        self._redispatch(index)

    def _degrade(self, index: int) -> None:
        """Re-run just this partition inline; raise the typed
        :class:`ExecutionFailed` only when that fails too."""
        self._discard_attempt(index)
        try:
            batches, counters, spans = _run_partition_inline(
                self.partitions[index],
                self.batch_size,
                index,
                self.attempt_ids[index],
                self.plans,
                self.token,
                self.trace,
            )
        except QueryError:
            raise  # timeouts/cancellation propagate as themselves
        except BaseException as exc:  # noqa: BLE001 - typed below
            self._record_failure(
                index, (f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
            message, worker_traceback = self.first_failure[index]
            raise ExecutionFailed(
                f"partition {index} failed after {self.failures[index]} "
                f"attempt(s) and inline degradation: {message}",
                worker_traceback=worker_traceback,
            ) from None
        self.buffers[index].extend(batches)
        self.partition_counters[index] = counters
        self.partition_spans[index] = spans
        self.done[index] = True
        self.stats["degraded_partitions"] += 1
        self.stats["degraded_to"] = "inline"

    # ------------------------------------------------------------------
    def _redispatch(self, index: int) -> None:
        self.running_pid[index] = None
        self.pool.tasks.put(
            (
                index,
                self.blobs[index],
                self.batch_size,
                MORSEL_ROWS,
                self.attempt_ids[index],
                self.plans,
                self.trace,
            )
        )

    def ensure_done(self, index: int) -> None:
        while not self.done[index]:
            self.pump()

    def pump(self) -> None:
        """Receive one message (or time out into a liveness check)."""
        if self.token is not None:
            self.token.check()
        try:
            message = self.pool.results.get(timeout=_PULL_TIMEOUT)
        except queue_module.Empty:
            self._check_liveness()
            return
        except Exception as exc:  # corrupt stream: pool unrecoverable
            self._pool_failed(f"result queue failed: {type(exc).__name__}: {exc}")
            return
        kind, index, attempt, payload, extra = message
        if self.done[index] or attempt != self.attempt_ids[index]:
            return  # stale: a retry superseded this attempt
        if kind == "s":
            self.running_pid[index] = payload
        elif kind == "m":
            self.stats["morsel_bytes"] += len(payload)
            self.stats["morsels"] += 1
            self.stats["rows_shipped"] += extra
            schema = self.partitions[index].schema
            for columns, length in pickle.loads(payload):
                self.buffers[index].append(ColumnBatch(schema, columns, length))
        elif kind == "d":
            self.partition_counters[index] = payload
            self.partition_spans[index] = extra
            self.done[index] = True
        else:  # "e"
            self._partition_failed(index, payload)

    def _check_liveness(self) -> None:
        """After a pull timeout: a dead worker means the pool is rebuilt
        (fresh queues — the corpse may hold a queue lock), so *every*
        unfinished partition restarts: the dead worker's, any queued but
        never started, and any mid-stream on a terminated survivor."""
        if self.pool.alive():
            return
        try:
            self.pool.respawn_dead()
        except Exception as exc:  # pragma: no cover - spawn failure
            self._pool_failed(f"could not respawn dead workers: {exc!r}")
            return
        for index in range(len(self.partitions)):
            if not self.done[index]:
                self._partition_failed(
                    index,
                    ("worker process died; pool rebuilt, partition re-run", None),
                )

    def _pool_failed(self, reason: str) -> None:
        """The pool itself is unrecoverable: mark it broken and degrade
        every outstanding partition locally."""
        self.pool.broken = True
        for index in range(len(self.partitions)):
            if not self.done[index]:
                self._record_failure(index, (reason, None))
                self._degrade(index)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain every partition to completion and release the run lock."""
        try:
            while not all(self.done):
                self.pump()
        except BaseException:
            self.pool.broken = True
            raise
        finally:
            if self.pool.broken:
                try:
                    self.pool.shutdown()
                except Exception:  # pragma: no cover - best effort
                    pass
            self._release()

    def abort(self) -> None:
        """Stop without draining (error/timeout/abandonment): outstanding
        workers may be mid-stream, so restart the pool rather than let
        them block forever on the bounded result queue.  The next query
        sees a healthy, fresh pool."""
        if not all(self.done):
            self.pool.broken = True
            try:
                self.pool.shutdown()
            except Exception:  # pragma: no cover - best effort
                pass
        self._release()

    def _release(self) -> None:
        global _PROCESS_RUN_OWNER
        if not self.finished:
            self.finished = True
            _PROCESS_RUN_OWNER = None
            _PROCESS_RUN_LOCK.release()


class _PoolUnavailable(Exception):
    """Internal: the process pool could not be built at all."""


class ProcessBackend(ExchangeBackend):
    """True multicore: pickled chains out, morsel streams back — with
    worker recovery, and whole-run degradation to inline when no pool
    can be built at all."""

    name = "process"

    def run(self, partitions, batch_size, token=None, trace=False):
        global _PROCESS_RUN_OWNER
        me = threading.get_ident()
        if _PROCESS_RUN_OWNER == me:
            # Nested run on this thread (two exchanges pulled interleaved,
            # e.g. both inputs of a merge join): the result queue is owned
            # by the outer run, so run this one inline — deterministic,
            # bit-identical, just not process-parallel.
            return InlineBackend().run(partitions, batch_size, token, trace)
        _PROCESS_RUN_LOCK.acquire()
        _PROCESS_RUN_OWNER = me
        try:
            needed = _collect_shippable(partitions[0])
            try:
                pool = _ensure_process_pool(needed)
            except Exception as exc:
                raise _PoolUnavailable(f"{type(exc).__name__}: {exc}") from exc
            tokens = frozenset(
                token_ for token_, obj in needed if pool.snapshot.get(token_) is obj
            )
            with _ShipContext(tokens):
                blobs = [
                    pickle.dumps(partition, pickle.HIGHEST_PROTOCOL)
                    for partition in partitions
                ]
            plans = faults_mod.resolve(faults_mod.active_plans(), len(partitions))
            run = _ProcessRun(pool, partitions, blobs, batch_size, token, plans, trace)
            run.stats["token_shipped_chains"] = len(tokens)
            return run
        except _PoolUnavailable as exc:
            # No pool at all (e.g. a platform without working
            # multiprocessing): degrade the whole run to inline.
            _PROCESS_RUN_OWNER = None
            _PROCESS_RUN_LOCK.release()
            run = InlineBackend().run(partitions, batch_size, token, trace)
            run.stats.update(
                retries=0,
                degraded_partitions=len(partitions),
                degraded_to="inline",
                degraded_reason=str(exc),
            )
            return run
        except BaseException:
            _PROCESS_RUN_OWNER = None
            _PROCESS_RUN_LOCK.release()
            raise


_BACKEND_INSTANCES: Dict[str, ExchangeBackend] = {
    "inline": InlineBackend(),
    "process": ProcessBackend(),
}


def get_backend(name: str) -> ExchangeBackend:
    try:
        return _BACKEND_INSTANCES[name]
    except KeyError:
        raise ValueError(
            f"unknown exchange backend {name!r} (expected one of {BACKENDS})"
        ) from None


# ----------------------------------------------------------------------
# Exchange operators
# ----------------------------------------------------------------------
class Exchange(Operator):
    """Base exchange: run per-partition pipelines, reassemble one stream.

    ``partitions`` are the per-partition operator trees (each with the
    same schema, and each individually honoring the declared ordering).
    ``subtree`` — when built by the planner — is the serial chain the
    partitions were cloned from: it is what ``children()`` exposes for
    EXPLAIN.  ``backend`` names the :class:`ExchangeBackend` execution
    drains through (``workers <= 1`` or a single partition always
    degrades to inline).
    """

    #: "merge" or "union" — also the EXPLAIN vocabulary.
    kind = "exchange"

    def __init__(
        self,
        partitions: Sequence[Operator],
        workers: Optional[int] = None,
        subtree: Optional[Operator] = None,
        backend: str = DEFAULT_BACKEND,
        contiguous: bool = False,
    ) -> None:
        partitions = list(partitions)
        if not partitions:
            raise ValueError("an exchange needs at least one partition")
        if workers is None:
            workers = len(partitions)
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.partitions: List[Operator] = partitions
        self.workers = workers
        self.subtree = subtree
        self.backend = backend
        get_backend(backend)  # validate eagerly
        #: Planner-built exchanges are contiguous: the partition_clone
        #: contract guarantees the streams concatenate (in index order)
        #: to the serial stream.
        self.contiguous = contiguous
        #: Serialization + recovery accounting for the most recent batch
        #: execution (kept out of query Metrics — the serial plan ships
        #: and retries nothing, and counter parity is the differential
        #: harness's contract).
        self.exchange_stats: dict = {}
        template = subtree if subtree is not None else partitions[0]
        self.schema = template.schema
        self.ordering = tuple(template.ordering)

    # ------------------------------------------------------------------
    def children(self) -> Sequence[Operator]:
        if self.subtree is not None:
            return (self.subtree,)
        return tuple(self.partitions)

    def label(self) -> str:
        return f"{type(self).__name__}({len(self.partitions)} partitions)"

    def trace_args(self) -> dict:
        return {
            "kind": self.kind,
            "partitions": len(self.partitions),
            "backend": self.backend,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_batches(
        self, metrics: Metrics, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        if self.workers <= 1 or len(self.partitions) <= 1:
            backend = get_backend("inline")
        else:
            backend = get_backend(self.backend)
        tracer = metrics.tracer
        run = backend.run(
            self.partitions,
            batch_size,
            token=metrics.token,
            trace=tracer is not None,
        )
        try:
            yield from self._emit_streams(run.streams, batch_size)
        except BaseException:
            # Error, timeout, or an abandoning consumer (GeneratorExit):
            # stop producers without draining — abort leaves the pools
            # healthy (or marked for restart) for the next query.
            run.abort()
            self.exchange_stats = run.stats
            raise
        run.close()
        # Deterministic counter merge: partition-index order, after
        # every stream drained — completion order never matters.
        for stream in run.streams:
            for key, value in stream.counters.items():
                metrics.add(key, value)
        if tracer is not None:
            # Graft each partition's winning-attempt spans (local tracers;
            # failed attempts' spans died with the attempt) under this
            # exchange's open span, in partition order.
            attempts = getattr(run, "attempt_ids", None)
            for index, stream in enumerate(run.streams):
                spans = getattr(stream, "trace_spans", None)
                if spans:
                    attempt = attempts[index] if attempts is not None else 0
                    tracer.adopt(spans, self, index, attempt)
        self.exchange_stats = run.stats

    def _emit_streams(
        self, streams: Sequence, batch_size: int
    ) -> Iterator[ColumnBatch]:
        raise NotImplementedError


class UnionExchange(Exchange):
    """Order-insensitive exchange: emit partition streams in partition
    order.  Over the contiguous partitions the planner builds, the
    concatenation *is* the serial stream, so the choice of union over
    merge is purely a cost call — no ordering obligation exists."""

    kind = "union"

    def __init__(
        self,
        partitions,
        workers=None,
        subtree=None,
        backend=DEFAULT_BACKEND,
        contiguous=False,
    ) -> None:
        super().__init__(partitions, workers, subtree, backend, contiguous)
        # Concatenation makes no ordering promise: even if the partitions
        # are individually sorted, their ranges may interleave.  Never
        # advertise an OrderSpec this operator does not enforce — that is
        # the soundness contract every provides() consumer trusts.  (The
        # planner only picks union for empty specs anyway.)
        self.ordering = ()

    def _emit_streams(self, streams, batch_size):
        for stream in streams:
            for batch in stream:
                if len(batch):
                    yield batch


class MergeExchange(Exchange):
    """Order-preserving exchange: reassemble on the declared ordering.

    Each partition stream must individually honor ``keys`` (the chain's
    declared :class:`~repro.optimizer.properties.OrderSpec`).

    * ``contiguous`` (planner-built): the ``partition_clone`` contract
      guarantees concatenation in partition order *is* the serial stream
      — which honors the declared order — so emission is a streaming
      concat: no heap, no materialization, no sort.
    * otherwise (the randomly-partitioned property-test instances): a
      streaming stable k-way ``heapq.merge`` interleaves the morsel
      streams without sorting anything; ties across partitions resolve
      to the lower partition index (``heapq.merge`` is stable by input
      position).
    """

    kind = "merge"

    def __init__(
        self,
        partitions: Sequence[Operator],
        workers: Optional[int] = None,
        subtree: Optional[Operator] = None,
        backend: str = DEFAULT_BACKEND,
        contiguous: bool = False,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(partitions, workers, subtree, backend, contiguous)
        if keys is None:
            keys = self.ordering
        self.keys: Tuple[str, ...] = tuple(keys)
        if not self.keys:
            raise ValueError("MergeExchange needs a non-empty ordering")
        self._positions = tuple(self.schema.position(key) for key in self.keys)

    def label(self) -> str:
        return (
            f"MergeExchange({len(self.partitions)} partitions "
            f"on [{', '.join(self.keys)}])"
        )

    def _key(self, row: tuple) -> tuple:
        positions = self._positions
        return tuple(row[p] for p in positions)

    def _emit_streams(self, streams, batch_size):
        if self.contiguous:
            for stream in streams:
                for batch in stream:
                    if len(batch):
                        yield batch
            return
        merged = heapq.merge(
            *(_rows_of_stream(stream) for stream in streams), key=self._key
        )
        schema = self.schema
        while True:
            chunk = list(islice(merged, batch_size))
            if not chunk:
                return
            yield ColumnBatch.from_rows(schema, chunk)


def _rows_of_stream(stream) -> Iterator[tuple]:
    for batch in stream:
        yield from batch.rows()


# ----------------------------------------------------------------------
# Exchange placement (called by the planner when ``workers`` is set)
# ----------------------------------------------------------------------
def insert_exchanges(
    root: Operator,
    workers: int,
    info=None,
    backend: str = DEFAULT_BACKEND,
    min_rows: int = 0,
    row_estimator=None,
) -> Operator:
    """Wrap every maximal partitionable chain of a physical plan in an
    exchange of ``workers`` contiguous partitions.

    The exchange kind is decided by the chain's *declared* order property
    (:func:`repro.optimizer.properties.exchange_kind`): a non-empty
    :class:`~repro.optimizer.properties.OrderSpec` demands a
    :class:`MergeExchange` keyed on it, the empty spec takes the cheaper
    :class:`UnionExchange`.  ``LIMIT`` subtrees are left serial (their
    ``partition_kind`` is ``"barrier"`` — exact early-termination parity).

    ``min_rows > 0`` cost-gates placement: a chain whose source scans
    fewer estimated rows stays serial (``row_estimator(table)`` supplies
    the estimate — the planner passes epoch-keyed ``TableStats`` row
    counts — with ``len(table.rows)`` as the fallback; chains with no
    table, e.g. test seams, are never gated).  Direct callers default to
    ``min_rows=0``: placement exactly where asked.

    ``info`` — a :class:`~repro.optimizer.planner.PlanInfo` — receives one
    ``exchanges`` record per placement (and a note per gated skip) for
    EXPLAIN reporting.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    get_backend(backend)  # validate
    return _place(root, workers, info, backend, min_rows, row_estimator)


def _chain_source_rows(op: Operator, row_estimator) -> Optional[int]:
    """Estimated rows the chain's source scan reads (None: no estimate)."""
    node = op
    while node.partition_kind == "transparent":
        node = node.child  # type: ignore[attr-defined]
    table = getattr(node, "table", None)
    if table is None:
        return None
    if row_estimator is not None:
        try:
            estimate = row_estimator(table)
        except (KeyError, ValueError, AttributeError):
            estimate = None
        if estimate is not None:
            return int(estimate)
    return len(table.rows)


def _place(op: Operator, workers: int, info, backend, min_rows, row_estimator) -> Operator:
    if op.partition_kind == "barrier":
        return op
    if partitionable(op):
        if min_rows > 0:
            rows = _chain_source_rows(op, row_estimator)
            if rows is not None and rows < min_rows:
                if info is not None:
                    info.notes.append(
                        f"exchange skipped over {op.label()}: ≈{rows} rows "
                        f"< min-rows gate {min_rows}"
                    )
                return op
        return _make_exchange(op, workers, info, backend)
    for child in tuple(op.children()):
        replacement = _place(child, workers, info, backend, min_rows, row_estimator)
        if replacement is not child:
            op.replace_child(child, replacement)
    return op


def _make_exchange(subtree: Operator, workers: int, info, backend) -> Exchange:
    # Lazy import: the engine layer must not depend on the optimizer
    # package at import time (the optimizer imports the engine's
    # operators) — same rule as ``operators.base.order_spec``.
    from ..optimizer.properties import exchange_kind

    spec = subtree.provides()
    partitions = [
        partition_pipeline(subtree, index, workers) for index in range(workers)
    ]
    if exchange_kind(spec) == "merge":
        exchange: Exchange = MergeExchange(
            partitions,
            workers=workers,
            subtree=subtree,
            backend=backend,
            contiguous=True,
            keys=tuple(spec),
        )
    else:
        exchange = UnionExchange(
            partitions,
            workers=workers,
            subtree=subtree,
            backend=backend,
            contiguous=True,
        )
    if info is not None:
        info.exchanges.append(
            (exchange.kind, len(partitions), tuple(spec), subtree.label())
        )
    return exchange
