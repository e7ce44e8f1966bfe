"""Every `src/` module imports only the standard library, numpy and
lpfacility itself: numpy is the one runtime dependency that pyproject.toml
declares. scipy, for one, may be importable where the tests run without
being declared."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = sys.stdlib_module_names | {"numpy", "lpfacility"}


def undeclared_imports(source: str) -> list:
    # (line, top-level module) of every absolute import outside ALLOWED
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        top = (name.partition(".")[0] for name in names)
        found += [(node.lineno, name) for name in top if name not in ALLOWED]
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda path: str(path.relative_to(SRC)))
def test_a_library_module_imports_only_declared_dependencies(path):
    assert undeclared_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_undeclared_import():
    source = "import math, scipy.optimize\nfrom scipy import special\nfrom . import core\nimport numpy as np\n"
    assert undeclared_imports(source) == [(1, "scipy"), (2, "scipy")]
