"""Source hygiene: every name a package module imports is read."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "expmetric").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each name the module imports and never reads, left out
    where the name's line, or the first line of its import, says ``noqa``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if name not in read and not any("noqa" in line for line in marked):
                    unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_orphans_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from typing import List  # noqa: F401\n"
              "from json import (  # noqa: F401\n"
              "    dumps,\n"
              "    loads,\n"
              ")\n"
              "x: int = math.pi\n"
              "y = os.path.join\n"
              "@dataclass\n"
              "class A:\n"
              "    pass\n")
    assert unused_imports(source) == [(4, "field")]
