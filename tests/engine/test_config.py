"""One env reader: ``repro/config.py`` is the only module under
``src/repro`` that touches the process environment, and the README's env
tables list exactly the variables that exist."""
from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ENGINE_VARS = {
    "REPRO_TRACE",
    "REPRO_SLOW_QUERY_MS",
    "REPRO_FAULTS",
    "REPRO_START_METHOD",
}


def _names(text: str) -> set:
    return set(re.findall(r"REPRO_[A-Z_]+", text))


def test_environment_is_read_only_in_config():
    offenders = [
        str(path.relative_to(ROOT))
        for path in SRC.rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text())
        and path != SRC / "config.py"
    ]
    assert offenders == []
    assert _names((SRC / "config.py").read_text()) == ENGINE_VARS


def test_readme_env_tables_list_exactly_the_variables_in_use():
    harness = set()
    for folder in (ROOT / "tests", ROOT / "benchmarks"):
        for path in folder.rglob("*.py"):
            if path != pathlib.Path(__file__).resolve():
                harness |= _names(path.read_text())
    readme = (ROOT / "README.md").read_text()
    listed = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
    assert listed == ENGINE_VARS | harness
    # Nothing else in the engine mentions a variable config.py does not read.
    for path in SRC.rglob("*.py"):
        assert _names(path.read_text()) <= ENGINE_VARS, path
