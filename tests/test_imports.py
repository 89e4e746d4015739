import ast
from pathlib import Path

import pytest

import hermcap

# __init__.py re-exports the names it imports, so it is not checked
MODULES = sorted(p for p in Path(hermcap.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` imports aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(os, loads)\n"
    assert unused_imports(source) == ["system", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_package_imports(source: str) -> list[str]:
    """Package modules imported inside a function body rather than at module level."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hermcap"
            ):
                found.append("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name.split(".")[0] == "hermcap"]
    return found


def test_the_check_sees_a_nested_package_import():
    source = (
        "from .rng import mix64\n"
        "def f():\n    from .capfile import read_cap\n    import json\n"
        "def g():\n    from hermcap.search import run_strategy\n    import hermcap.cli\n"
    )
    assert nested_package_imports(source) == [".capfile", "hermcap.search", "hermcap.cli"]


@pytest.mark.parametrize(
    "path", sorted(Path(hermcap.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_the_package_at_module_level(path):
    assert nested_package_imports(path.read_text()) == []
