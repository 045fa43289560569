"""Static checks of the package sources: every module-level import is used
(`__init__` re-exports), and no invariant hides in an `assert`, which
`python -O` strips."""

import ast
from pathlib import Path

import pytest

import quotbwb

PACKAGE = Path(quotbwb.__file__).resolve().parent
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py"))
MODULES = [name for name in SOURCES if name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no other node of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_checker_sees_unused_names():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int]\n"
    assert unused_imports(source) == ["Sequence (line 2)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def bare_asserts(source: str) -> list[int]:
    """Line numbers of the `assert` statements in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_checker_sees_asserts():
    source = "def f(x):\n    assert x > 0\n    return x\nassert f(1)\n"
    assert bare_asserts(source) == [2, 4]


@pytest.mark.parametrize("module", SOURCES)
def test_no_bare_asserts(module):
    assert bare_asserts((PACKAGE / module).read_text()) == []
