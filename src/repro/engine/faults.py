"""Deterministic fault injection for the exchange backends.

Recovery code that only runs when hardware misbehaves is recovery code
that never runs in CI.  This module gives the backends *seams* where
faults fire on a fixed, seeded schedule — a :class:`FaultPlan` names a
fault kind, the partition and batch it strikes, and how many attempts it
keeps striking — so the chaos leg of the differential harness
(``tests/harness/test_differential.py``) can replay worker kills,
in-kernel exceptions, delays, and lost result streams and assert the
recovered run stays bit-identical to fault-free serial execution.

Fault kinds (the ``kind`` field):

* ``kill_worker`` — the worker process hard-exits (``os._exit``) before
  emitting the target batch.  Process backend only; the inline seam
  skips it (there is no worker to kill).
* ``raise`` — the partition raises :class:`InjectedFault` before
  emitting the target batch, on any backend.
* ``delay`` — the partition sleeps ``delay_s`` before emitting the
  target batch (pairs with ``timeout_s`` to exercise deadlines).
* ``drop_results`` — the worker stops silently: no more morsels and no
  terminal message (a lost result stream).  The parent cannot
  distinguish that from a slow worker, so chaos tests pair it with a
  deadline.  The inline seam skips it (the inline "stream" *is* the
  consumer).

Plans are **attempt-gated**: a plan fires while the partition's attempt
number is below ``attempts``, so ``attempts=1`` means "fail once, then
let the retry succeed" and a large ``attempts`` means "fail every retry
rung" (driving the run into backend degradation and, past the ladder,
the typed :class:`~repro.engine.errors.ExecutionFailed`).

Activation: programmatic :func:`install`/:func:`clear` (tests), or the
``REPRO_FAULTS`` environment knob, a ``;``-separated list of specs like
``kill_worker:partition=0,batch=1,attempts=2``.  With no plans active
the seams are a single falsy check — zero cost on the fault-free path.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..config import faults_spec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "DropResults",
    "parse_plan",
    "parse_plans",
    "install",
    "clear",
    "active_plans",
    "resolve",
    "should_fire",
    "fire",
]

#: The recognized fault kinds.
FAULT_KINDS: Tuple[str, ...] = ("kill_worker", "raise", "delay", "drop_results")


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault plants in a partition kernel."""


class DropResults(Exception):
    """Control-flow signal: the producer stops without a terminal message.

    Never surfaces to callers — backends catch it at the seam and simply
    go silent, which is the point of the fault.
    """


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled fault: *kind* strikes *partition* at *batch*, for
    the first *attempts* attempts.

    ``partition is None`` targets every partition; ``partition == -1``
    picks one deterministically from ``seed`` once the run's partition
    count is known (:func:`resolve`).  Frozen and picklable: process
    tasks ship their resolved plans to the worker.
    """

    kind: str
    partition: Optional[int] = None
    at_batch: int = 0
    attempts: int = 1
    delay_s: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


def parse_plan(spec: str) -> FaultPlan:
    """``kind:key=value,...`` → :class:`FaultPlan`.

    Keys: ``partition`` (int, or ``any``/``seeded``), ``batch``,
    ``attempts``, ``delay`` (seconds), ``seed``.
    """
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.strip().partition("=")
            key = key.strip()
            value = value.strip()
            if key == "partition":
                if value == "any":
                    kwargs["partition"] = None
                elif value == "seeded":
                    kwargs["partition"] = -1
                else:
                    kwargs["partition"] = int(value)
            elif key == "batch":
                kwargs["at_batch"] = int(value)
            elif key == "attempts":
                kwargs["attempts"] = int(value)
            elif key == "delay":
                kwargs["delay_s"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ValueError(f"unknown fault-plan key {key!r} in {spec!r}")
    return FaultPlan(kind=kind.strip(), **kwargs)


def parse_plans(text: str) -> Tuple[FaultPlan, ...]:
    """Parse a ``;``-separated list of plan specs (empty → no plans)."""
    return tuple(
        parse_plan(item) for item in text.split(";") if item.strip()
    )


#: Programmatically installed plans (take precedence over the env knob).
_INSTALLED: Optional[Tuple[FaultPlan, ...]] = None


def install(plans: Sequence[FaultPlan]) -> None:
    """Activate fault plans for subsequent executions (tests)."""
    global _INSTALLED
    _INSTALLED = tuple(plans)


def clear() -> None:
    """Deactivate programmatic plans (the env knob applies again)."""
    global _INSTALLED
    _INSTALLED = None


def active_plans() -> Tuple[FaultPlan, ...]:
    """The plans in force: installed ones, else ``REPRO_FAULTS``."""
    if _INSTALLED is not None:
        return _INSTALLED
    text = faults_spec()
    if not text.strip():
        return ()
    return parse_plans(text)


def resolve(
    plans: Sequence[FaultPlan], partition_count: int
) -> Tuple[FaultPlan, ...]:
    """Pin seeded (``partition == -1``) plans to a concrete partition.

    Done once, parent-side, when the run's partition count is known — so
    every attempt and every backend rung targets the *same* partition
    and the schedule stays deterministic end to end.
    """
    resolved = []
    for plan in plans:
        if plan.partition == -1:
            pick = random.Random(plan.seed).randrange(max(1, partition_count))
            plan = replace(plan, partition=pick)
        resolved.append(plan)
    return tuple(resolved)


def should_fire(
    plan: FaultPlan, partition: int, batch_no: int, attempt: int
) -> bool:
    return (
        attempt < plan.attempts
        and batch_no == plan.at_batch
        and (plan.partition is None or plan.partition == partition)
    )


def fire(
    plans: Sequence[FaultPlan],
    partition: int,
    batch_no: int,
    attempt: int,
    backend: str,
) -> None:
    """The seam: called by a producer before emitting batch ``batch_no``
    of ``partition`` on ``attempt``.  Raises, sleeps, or kills per the
    matching plans; kinds a backend cannot express are skipped (see the
    module docstring)."""
    for plan in plans:
        if not should_fire(plan, partition, batch_no, attempt):
            continue
        if plan.kind == "delay":
            time.sleep(plan.delay_s)
        elif plan.kind == "raise":
            raise InjectedFault(
                f"injected fault: partition {partition} batch {batch_no} "
                f"attempt {attempt}"
            )
        elif plan.kind == "kill_worker":
            if backend == "process":
                os._exit(43)
        elif plan.kind == "drop_results":
            if backend != "inline":
                raise DropResults()
