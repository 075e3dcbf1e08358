"""``ExecOptions``: the one place execution kwargs are checked and
defaulted — every entry point that takes them must reject the same
malformed values with the same error."""
from __future__ import annotations

import pytest

from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.database import Database
from repro.engine.options import ExecOptions
from repro.engine.parallel import DEFAULT_BACKEND
from repro.engine.schema import Schema
from repro.engine.types import DataType
from repro.optimizer.planner import Planner

BAD_KWARGS = [
    {"workers": 0},
    {"join_order": "best"},
    {"rewrites": "maybe"},
    {"backend": "process"},  # backend= requires workers=
    {"workers": 2, "backend": "thread"},  # the removed backend
    {"workers": 2, "backend": "greenlet"},
]


def test_defaults_resolve_once():
    serial = ExecOptions()
    assert (serial.batch_size, serial.workers, serial.backend) == (None, None, None)
    assert serial.describe() == "row (iterator)"
    assert ExecOptions(batch_size=64).describe() == "vectorized (batch size 64)"
    parallel = ExecOptions(workers=3)
    assert parallel.batch_size == DEFAULT_BATCH_SIZE  # parallel implies batch
    assert parallel.backend == DEFAULT_BACKEND
    assert ExecOptions(workers=3, batch_size=7).batch_size == 7
    assert "3 workers" in parallel.describe()
    assert hash(parallel.plan_key) == hash(ExecOptions(workers=3).plan_key)


@pytest.mark.parametrize("kwargs", BAD_KWARGS + [{"batch_size": 0}], ids=str)
def test_bad_values_are_rejected(kwargs):
    with pytest.raises(ValueError):
        ExecOptions(**kwargs)


def test_removed_thread_backend_error_names_the_valid_ones():
    with pytest.raises(ValueError, match="inline.*process"):
        ExecOptions(workers=2, backend="thread")


@pytest.mark.parametrize("kwargs", BAD_KWARGS, ids=str)
def test_every_entry_point_rejects_the_same_values(kwargs):
    database = Database("opts")
    database.create_table("t", Schema.of(("a", DataType.INT))).load([(1,), (2,)])
    sql = "SELECT a FROM t"
    for entry in (database.plan, database.execute, database.explain):
        with pytest.raises(ValueError):
            entry(sql, **kwargs)
    with pytest.raises(ValueError):
        Planner(database, **kwargs)
