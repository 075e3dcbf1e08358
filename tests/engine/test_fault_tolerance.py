"""Fault-tolerant execution: worker recovery, deadlines/cancellation,
and the deterministic fault-injection harness.

The contract under test (see :mod:`repro.engine.parallel` and
:mod:`repro.engine.errors`): a query under injected faults either returns
rows *and counters* bit-identical to fault-free serial execution, or
raises one of the typed errors — never a wrong answer, and never a pool
poisoned for the next query.  The chaos-matrix leg lives in
``tests/harness/test_differential.py``; this file covers the unit
surface: fault-plan parsing, the cancel token, retry/degradation
accounting, error propagation per backend, pool lifecycle, and the
EXPLAIN/``QueryResult`` reporting.
"""
from __future__ import annotations

import time

import pytest

from repro.engine import faults
from repro.engine import parallel as parallel_mod
from repro.engine.database import Database
from repro.engine.errors import (
    CancelToken,
    ExecutionFailed,
    QueryCancelled,
    QueryError,
    QueryTimeout,
)
from repro.engine.expr import Cmp, Col, Lit
from repro.engine.operators import Filter, SeqScan
from repro.engine.operators.base import Metrics
from repro.engine.parallel import insert_exchanges, shutdown_process_pool
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.workloads.microbench import build_fact

ROWS = 6_000
SQL = (
    "SELECT bracket, COUNT(*) AS n, SUM(payable) AS total "
    "FROM fact WHERE income > 1000 GROUP BY bracket ORDER BY bracket"
)


@pytest.fixture
def db():
    database = Database()
    fact = build_fact(ROWS, seed=7)
    table = database.create_table("fact", fact.schema)
    for row in fact.rows:
        table.insert(row)
    return database


@pytest.fixture
def serial(db):
    return db.execute(SQL, batch_size=256)


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Every test starts and ends fault-free, whatever it installed."""
    faults.clear()
    yield
    faults.clear()


def _install(spec: str) -> None:
    faults.install(faults.parse_plans(spec))


def assert_parity(result, serial) -> None:
    assert result.rows == serial.rows
    assert result.metrics.counters == serial.metrics.counters


# ----------------------------------------------------------------------
# Fault-plan parsing and scheduling
# ----------------------------------------------------------------------
def test_parse_plan_full_spec():
    plan = faults.parse_plan(
        "kill_worker:partition=1,batch=2,attempts=3,delay=0.5,seed=9"
    )
    assert plan == faults.FaultPlan(
        kind="kill_worker", partition=1, at_batch=2, attempts=3,
        delay_s=0.5, seed=9,
    )


def test_parse_plan_defaults_and_partition_aliases():
    assert faults.parse_plan("raise").partition is None
    assert faults.parse_plan("raise:partition=any").partition is None
    assert faults.parse_plan("raise:partition=seeded").partition == -1


def test_parse_plans_splits_on_semicolons():
    plans = faults.parse_plans("raise:partition=0 ; delay:delay=0.1")
    assert [plan.kind for plan in plans] == ["raise", "delay"]
    assert faults.parse_plans("  ") == ()


def test_parse_plan_rejects_unknown_kind_and_key():
    with pytest.raises(ValueError):
        faults.parse_plan("explode")
    with pytest.raises(ValueError):
        faults.parse_plan("raise:warp=9")
    with pytest.raises(ValueError):
        faults.FaultPlan(kind="raise", attempts=0)


def test_seeded_partition_resolves_deterministically():
    plan = faults.parse_plan("raise:partition=seeded,seed=5")
    first = faults.resolve((plan,), 8)
    second = faults.resolve((plan,), 8)
    assert first == second
    assert 0 <= first[0].partition < 8


def test_attempt_gating():
    plan = faults.parse_plan("raise:partition=0,attempts=2")
    assert faults.should_fire(plan, 0, 0, 0)
    assert faults.should_fire(plan, 0, 0, 1)
    assert not faults.should_fire(plan, 0, 0, 2)  # retries now succeed
    assert not faults.should_fire(plan, 1, 0, 0)  # wrong partition
    assert not faults.should_fire(plan, 0, 1, 0)  # wrong batch


def test_env_knob_activates_plans(monkeypatch):
    faults.clear()
    monkeypatch.setenv("REPRO_FAULTS", "delay:delay=0.2;raise")
    assert [plan.kind for plan in faults.active_plans()] == ["delay", "raise"]
    faults.install(())  # programmatic install overrides the env
    assert faults.active_plans() == ()


# ----------------------------------------------------------------------
# CancelToken
# ----------------------------------------------------------------------
def test_cancel_token_validates_timeout():
    with pytest.raises(ValueError):
        CancelToken(0)
    with pytest.raises(ValueError):
        CancelToken(-1)


def test_cancel_token_deadline():
    token = CancelToken(0.01)
    assert token.remaining() <= 0.01
    time.sleep(0.02)
    assert token.expired()
    with pytest.raises(QueryTimeout):
        token.check()


def test_cancel_token_cancellation():
    token = CancelToken()
    token.check()  # no deadline, not cancelled: a no-op
    token.cancel("client went away")
    assert token.cancelled
    with pytest.raises(QueryCancelled, match="client went away"):
        token.check()


def test_typed_errors_are_query_errors():
    assert issubclass(QueryTimeout, QueryError)
    assert issubclass(QueryCancelled, QueryError)
    assert issubclass(ExecutionFailed, QueryError)
    error = ExecutionFailed("boom", worker_traceback="trace...")
    assert error.worker_traceback == "trace..."


# ----------------------------------------------------------------------
# Worker recovery: retry, then degrade process → inline
# ----------------------------------------------------------------------
def test_killed_worker_is_retried_and_result_is_identical(db, serial):
    _install("kill_worker:partition=0,attempts=1")
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(result, serial)
    assert result.retries >= 1
    assert result.degraded_to is None


def test_persistent_kill_degrades_to_inline(db, serial):
    _install("kill_worker:partition=0,attempts=99")
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(result, serial)
    assert result.retries == parallel_mod.RETRY_LIMIT
    assert result.degraded_to == "inline"
    # The pool is rebuilt transparently: the next query is fault-free.
    faults.clear()
    again = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(again, serial)
    assert again.retries == 0 and again.degraded_to is None


def test_transient_raise_is_retried(db, serial):
    _install("raise:partition=1,attempts=1")
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(result, serial)
    assert result.retries == 1


def test_fault_on_every_rung_raises_execution_failed(db):
    # `raise` fires on every backend, so the retries and the inline
    # fallback all fail: the typed error carries the first failure's
    # (worker-side) traceback.
    _install("raise:partition=0,attempts=99")
    with pytest.raises(ExecutionFailed) as excinfo:
        db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert "InjectedFault" in str(excinfo.value)
    assert "InjectedFault" in excinfo.value.worker_traceback


def test_unbuildable_pool_degrades_the_whole_run_to_inline(db, serial, monkeypatch):
    def no_pool(needed):
        raise OSError("no multiprocessing here")

    monkeypatch.setattr(parallel_mod, "_ensure_process_pool", no_pool)
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(result, serial)
    assert result.backend == "process"
    assert result.degraded_to == "inline" and result.retries == 0
    assert result.exchange_stats["degraded_partitions"] == 2


def test_recovery_accounting_stays_out_of_metrics(db, serial):
    """The parity invariant: retries/degradation never leak into the
    query's Metrics counters — they live in exchange_stats alone."""
    _install("raise:partition=0,attempts=1")
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert result.metrics.counters == serial.metrics.counters
    info = result.plan.plan_info
    assert info.recovery["retries"] == 1
    assert "fault tolerance: 1 retried attempt(s)" in info.describe()


# ----------------------------------------------------------------------
# Deadlines and cancellation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["inline", "process"])
def test_deadline_raises_query_timeout_and_pool_survives(db, serial, backend):
    _install("delay:delay=1.0")
    started = time.monotonic()
    with pytest.raises(QueryTimeout):
        db.execute(
            SQL, workers=2, backend=backend, batch_size=256, timeout_s=0.2
        )
    assert time.monotonic() - started < 5.0, "timeout must land promptly"
    faults.clear()
    again = db.execute(SQL, workers=2, backend=backend, batch_size=256)
    assert_parity(again, serial)


def test_serial_paths_honor_deadlines(db):
    for kwargs in ({}, {"batch_size": 64}):
        with pytest.raises(QueryTimeout):
            db.execute(
                "SELECT income, payable FROM fact ORDER BY income",
                timeout_s=1e-9,
                **kwargs,
            )
    # The database still answers afterwards.
    assert len(db.execute(SQL).rows)


def test_timeout_is_recorded_for_explain(db):
    _install("delay:delay=1.0")
    with pytest.raises(QueryTimeout):
        db.execute(
            SQL, workers=2, backend="inline", batch_size=256, timeout_s=0.2
        )
    # The cached plan's info records the post-mortem for EXPLAIN.
    plan = db.plan(SQL, workers=2, backend="inline")
    recovery = plan.plan_info.recovery
    assert recovery["timed_out"] is True
    assert recovery["failed"] == "QueryTimeout"
    assert "deadline exceeded" in plan.plan_info.describe()


def test_cancel_token_rides_metrics(db):
    token = CancelToken()
    plan = db.plan(SQL)
    token.cancel()
    with pytest.raises(QueryCancelled):
        plan.run(64, token=token)


# ----------------------------------------------------------------------
# Error propagation: real kernel errors surface typed, pools survive
# ----------------------------------------------------------------------
ERROR_SQL = (
    "SELECT income / (income - income) AS boom FROM fact"
)


def test_inline_backend_propagates_raw_errors(db):
    with pytest.raises(ZeroDivisionError):
        db.execute(ERROR_SQL, workers=2, backend="inline", batch_size=256)


def test_worker_errors_surface_with_traceback(db, serial):
    with pytest.raises(ExecutionFailed) as excinfo:
        db.execute(ERROR_SQL, workers=2, backend="process", batch_size=256)
    assert "ZeroDivisionError" in str(excinfo.value)
    assert "ZeroDivisionError" in (excinfo.value.worker_traceback or "")
    # The pool is not poisoned: the next query on the same backend works.
    again = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(again, serial)


# ----------------------------------------------------------------------
# Abandonment: a consumer that stops mid-stream
# ----------------------------------------------------------------------
def test_abandoned_exchange_leaves_a_healthy_pool():
    """A consumer that stops mid-stream (without exhausting the
    exchange) must not wedge workers on the bounded result queue — and
    the pool must still serve a full follow-up run."""
    table = Table("t", Schema.of(("a", DataType.INT)))
    for value in range(5_000):
        table.insert((value,))

    def chain():
        return Filter(SeqScan(table), Cmp(">=", Col("t.a"), Lit(0)))

    stream = insert_exchanges(chain(), 4, backend="process").execute_batches(
        Metrics(), 64
    )
    next(stream)
    stream.close()  # abandon: GeneratorExit → abort path
    serial_rows, serial_metrics = chain().run(64)
    rows, metrics = insert_exchanges(chain(), 4, backend="process").run(64)
    assert rows == serial_rows
    assert metrics.counters == serial_metrics.counters


# ----------------------------------------------------------------------
# Process-pool lifecycle
# ----------------------------------------------------------------------
def test_process_pool_shutdown_reaps_workers(db, serial):
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(result, serial)
    pool = parallel_mod._PROCESS_POOL
    assert pool is not None
    assert all(process.daemon for process in pool.processes)
    processes = list(pool.processes)
    shutdown_process_pool()
    assert parallel_mod._PROCESS_POOL is None
    assert all(not process.is_alive() for process in processes)
    shutdown_process_pool()  # idempotent: double shutdown is a no-op


def test_pool_shutdown_is_registered_atexit(db, serial):
    db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert parallel_mod._ATEXIT_REGISTERED, (
        "creating a pool must register the interpreter-exit shutdown hook"
    )


def test_respawn_replaces_dead_workers(db, serial):
    db.execute(SQL, workers=2, backend="process", batch_size=256)
    pool = parallel_mod._PROCESS_POOL
    victim = pool.processes[0]
    victim.terminate()
    victim.join(timeout=2.0)
    assert not pool.alive()
    pool.respawn_dead()
    assert pool.alive()
    assert pool.processes[0] is not victim
    # And the respawned pool still executes correctly.
    result = db.execute(SQL, workers=2, backend="process", batch_size=256)
    assert_parity(result, serial)
