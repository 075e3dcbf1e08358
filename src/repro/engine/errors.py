"""Typed query-lifecycle errors and the cooperative cancellation token.

The fault-tolerance contract (see :mod:`repro.engine.parallel` and the
chaos leg of ``tests/harness/test_differential.py``) is that a query
either returns answers bit-identical to fault-free serial execution or
raises one of the *typed* errors below — never a wrong answer, never a
``Database`` poisoned for the next query.  Keeping the hierarchy in its
own leaf module lets every layer (operators, exchanges, ``Database``,
tests) import it without cycles.

Cancellation is **cooperative**: a :class:`CancelToken` rides on the
execution's :class:`~repro.engine.operators.base.Metrics` and operators
call ``metrics.check_cancel()`` once per batch (or per ~1k rows in row
mode) — cheap enough to be unmeasurable (<2%, gated in
``BENCH_bench_faults.json``), frequent enough that a deadline lands
within one batch of wall-clock truth.  Worker processes never see the
token; the consumer side enforces deadlines while pumping morsels, so a
timeout needs no cross-process signalling.
"""
from __future__ import annotations

import time
from typing import Optional

__all__ = [
    "QueryError",
    "QueryTimeout",
    "QueryCancelled",
    "ExecutionFailed",
    "CancelToken",
]


class QueryError(RuntimeError):
    """Base of every typed query-lifecycle error.

    When the failed execution was traced (``execute(trace=True)`` /
    ``REPRO_TRACE=1``), ``Database.execute`` attaches the Chrome
    ``trace_event`` dict collected up to the failure as ``trace`` —
    failed queries keep their flight recorder."""

    #: Chrome trace dict of the failed execution, ``None`` when untraced.
    trace: Optional[dict] = None


class QueryTimeout(QueryError):
    """The query ran past its ``timeout_s`` deadline and was cancelled."""


class QueryCancelled(QueryError):
    """The query was cancelled by the consumer before completion."""


class ExecutionFailed(QueryError):
    """Execution failed after every recovery step (retries, then the
    inline fallback) was exhausted.

    ``worker_traceback`` carries the original worker-side traceback text
    (process workers relay it over the result queue) so the first
    failure's real stack is never lost to the retry machinery.
    """

    def __init__(self, message: str, worker_traceback: Optional[str] = None) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback


class CancelToken:
    """A deadline plus a cancellation flag, checked cooperatively.

    ``check()`` is the only hot-path call: one attribute load and an
    ``is not None`` test when no deadline is set, one ``time.monotonic()``
    when one is.  Deadlines are absolute monotonic instants so a token
    created before planning still bounds total wall clock.
    """

    __slots__ = ("timeout_s", "deadline", "_cancelled", "_reason")

    def __init__(self, timeout_s: Optional[float] = None) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        self._cancelled = False
        self._reason = ""

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "cancelled by consumer") -> None:
        """Request cooperative cancellation (consumer-side close)."""
        self._cancelled = True
        self._reason = reason

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None``: no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def check(self) -> None:
        """Raise the typed error if cancelled or past the deadline."""
        if self._cancelled:
            raise QueryCancelled(self._reason or "query cancelled")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise QueryTimeout(
                f"query exceeded its deadline of {self.timeout_s}s"
            )
