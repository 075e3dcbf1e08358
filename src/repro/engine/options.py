"""Resolved execution options: validated and defaulted once per call.

``Database.plan``/``execute``/``explain`` build one :class:`ExecOptions`
from their keyword arguments; everything downstream (the plan cache,
the planner, EXPLAIN, ``QueryResult``) reads the resolved object.  Every
check on those arguments lives in :meth:`ExecOptions.__post_init__`, so
an instance that exists is valid, and the defaults ("parallel implies
batch", the default backend) are applied in exactly one place.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .batch import DEFAULT_BATCH_SIZE
from .parallel import DEFAULT_BACKEND, get_backend

__all__ = ["ExecOptions"]


@dataclass(frozen=True)
class ExecOptions:
    """How one statement is planned and run.

    After construction ``backend`` is ``None`` exactly when ``workers``
    is (serial execution), and a parallel run always has a
    ``batch_size`` — parallel execution is batch execution.
    """

    optimize: bool = True
    join_order: str = "cost"
    rewrites: str = "on"
    batch_size: Optional[int] = None
    workers: Optional[int] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.join_order not in ("cost", "syntactic"):
            raise ValueError(f"unknown join_order {self.join_order!r}")
        if self.rewrites not in ("on", "off"):
            raise ValueError(f"unknown rewrites setting {self.rewrites!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.workers is None:
            if self.backend is not None:
                raise ValueError("backend= requires workers=")
            return
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", DEFAULT_BATCH_SIZE)
        if self.backend is None:
            object.__setattr__(self, "backend", DEFAULT_BACKEND)
        get_backend(self.backend)  # raises ValueError naming the valid ones

    @property
    def plan_key(self) -> tuple:
        """Every option that changes the physical tree — the plan
        cache's key next to the logical fingerprint.  ``batch_size`` is
        absent: one tree runs at any chunk size."""
        return (
            self.optimize,
            self.join_order,
            self.rewrites,
            self.workers,
            self.backend,
        )

    def describe(self) -> str:
        """The execution mode these options select, for EXPLAIN."""
        if self.workers is not None:
            return (
                f"parallel ({self.workers} workers, batch size "
                f"{self.batch_size}, {self.backend} backend)"
            )
        if self.batch_size is not None:
            return f"vectorized (batch size {self.batch_size})"
        return "row (iterator)"
