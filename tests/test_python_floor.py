"""The sources parse at the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_declared_python_floor(path):
    # Syntax only: ast's feature_version knows nothing of the standard library,
    # so a module or function newer than the floor still passes here.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(FLOOR.group(1))))
