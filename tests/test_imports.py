"""Every name a package module imports is used there, or marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "activedesign"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for each imported name that ``source`` never uses.

    A name is used when it appears as an expression name anywhere in the
    module; an import whose line carries ``# noqa: F401`` is exempt.
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{name} (line {alias.lineno})")
    return unused


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "import numpy as np\n"
        "print(pi, np.zeros)\n"
    )
    assert unused_imports(source) == ["os (line 1)", "tau (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
