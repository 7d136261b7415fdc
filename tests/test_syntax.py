"""Every Python file parses as Python 3.10, the oldest version
``pyproject.toml`` allows, whatever version runs the tests.

``ast.parse`` checks ``feature_version`` on a best-effort basis: it refuses
newer grammar such as ``except*``, but not every newer form, and not a
library name that 3.10 lacks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for tree in ("src", "tests", "benchmark")
    for path in (ROOT / tree).rglob("*.py")
)


def test_sources_are_found():
    assert "src/morphprim/engine.py" in SOURCES
    assert "benchmark/run.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES)
def test_parses_as_python_3_10(path):
    source = (ROOT / path).read_text(encoding="utf-8")
    ast.parse(source, filename=path, feature_version=(3, 10))
