"""Static checks of the package sources: every module-level import is used
(`__init__` re-exports), no module loads the process-pool machinery at
import, every module-level definition is read by the package itself, no
invariant hides in an `assert`, which `python -O` strips, and every name
the benchmark reads on the package exists."""

import ast
import importlib
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


POOL_PACKAGES = ("concurrent", "multiprocessing")


def pool_imports(source: str) -> list[str]:
    """Modules of POOL_PACKAGES imported at module level.  Such an import
    costs every process that imports the package, pool or not."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names
                if name.split(".")[0] in POOL_PACKAGES]
    return out


def test_checker_sees_pool_imports():
    source = ("import os, multiprocessing.pool\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "from . import concurrent\n"
              "def f():\n    import multiprocessing\n")
    assert pool_imports(source) == ["multiprocessing.pool (line 1)",
                                    "concurrent.futures (line 2)"]


@pytest.mark.parametrize("module", SOURCES)
def test_no_module_level_pool_import(module):
    assert pool_imports((PACKAGE / module).read_text()) == []


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


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level `def`, `class` and assignment nodes by bound name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of each definition that no code reads outside the
    definition itself: neither its own module nor a `from .module import`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {f"{node.module}.{alias.name}"
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree).items():
            own = {id(n) for n in ast.walk(node)}
            read = any(isinstance(n, ast.Name) and n.id == name
                       and isinstance(n.ctx, ast.Load) and id(n) not in own
                       for n in ast.walk(tree))
            if not read and f"{module}.{name}" not in imported:
                out.append(f"{module}.{name}")
    return sorted(out)


def test_checker_sees_unread_definitions():
    sources = {"a": "X = 1\nY = X\ndef f():\n    return f()\nclass C:\n    pass\n",
               "b": "from .a import C\nZ: int = 2\nprint(C)\n"}
    assert unread_definitions(sources) == ["a.Y", "a.f", "b.Z"]


def test_every_definition_is_read():
    sources = {name[:-3]: (PACKAGE / name).read_text() for name in MODULES}
    assert unread_definitions(sources) == []


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_hooks(source: str) -> list[tuple[str, str]]:
    """(module, name) of every attribute the bench source reads by name on
    a quotbwb module: the pairs of its `TRACED` tuple, and `alias.name`
    for each module bound by `import quotbwb.m as alias` or
    `from quotbwb import m`."""
    tree = ast.parse(source)
    out, aliases = [], {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            out += ast.literal_eval(node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name.split(".", 1)[1]) for a in node.names
                           if a.asname and a.name.startswith("quotbwb."))
        elif isinstance(node, ast.ImportFrom) and node.module == "quotbwb":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
    out += [(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases]
    return out


def test_checker_sees_bench_hooks():
    source = ("TRACED = (('cli', 'run'),)\n"
              "def main():\n    import quotbwb.cli as c\n"
              "    from quotbwb import schur\n    c.build_parser()\n"
              "    return len(schur._MEMO), os.sep\n")
    assert bench_hooks(source) == [("cli", "run"), ("cli", "build_parser"),
                                   ("schur", "_MEMO")]


def test_bench_hooks_resolve():
    # the benchmark wraps and reads these by name; a rename here breaks
    # `bench/run.py --trace 1` while every other test passes
    traced = bench_hooks((BENCH / "tracer.py").read_text())
    assert traced
    read = bench_hooks((BENCH / "child.py").read_text())
    memos = sorted(f"{m}.{name}" for m, name in read if name.startswith("_"))
    assert memos == ["complexes._SCAN_CACHE", "schur._LR_EXPAND_CACHE",
                     "schur._SKEW_CACHE", "schur._SUM_CACHE"]
    for module, name in traced + read:
        value = getattr(importlib.import_module(f"quotbwb.{module}"), name, None)
        assert value is not None, f"{module}.{name}"
        assert callable(value) or isinstance(value, dict), f"{module}.{name}"
