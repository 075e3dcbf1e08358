"""The engine's environment variables, read here and nowhere else.

Two are read **once at import** — they configure module state other
code snapshots at construction:

* ``REPRO_TRACE`` — a truthy value traces every ``Database.execute``
  call by default (a per-call ``trace=`` still wins);
* ``REPRO_SLOW_QUERY_MS`` — wall-clock threshold of the slow-query ring
  (default 100 ms).

Two are read **on every call**, so a test or harness can set them after
import:

* ``REPRO_FAULTS`` — ``;``-separated fault-plan specs
  (:mod:`repro.engine.faults`);
* ``REPRO_START_METHOD`` — ``fork``/``spawn`` for the process backend's
  worker pool (:mod:`repro.engine.parallel`).
"""
from __future__ import annotations

import os

__all__ = [
    "TRACE_DEFAULT",
    "SLOW_QUERY_MS",
    "faults_spec",
    "start_method",
]

#: Whether ``Database.execute`` traces when the caller doesn't say.
TRACE_DEFAULT = os.environ.get("REPRO_TRACE", "").strip().lower() not in (
    "",
    "0",
    "false",
    "off",
)

#: Queries slower than this (wall milliseconds) enter the slow-query ring.
SLOW_QUERY_MS = float(os.environ.get("REPRO_SLOW_QUERY_MS", "100"))


def faults_spec() -> str:
    """The current ``REPRO_FAULTS`` text (empty: no plans)."""
    return os.environ.get("REPRO_FAULTS", "")


def start_method() -> str:
    """The current ``REPRO_START_METHOD`` (empty: pick the platform's)."""
    return os.environ.get("REPRO_START_METHOD", "").strip()
