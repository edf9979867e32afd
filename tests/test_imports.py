"""Every module-level import in the package is read somewhere in its module
(`__init__.py` is exempt), and the package's own names load on first use."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multiforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each name bound by an import in the module body,
    or in a module-level `if` such as `if TYPE_CHECKING:`, that no name
    expression in the module reads."""
    tree = ast.parse(source)
    stmts = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            stmts.extend(node.body + node.orelse)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in stmts:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append(f"line {node.lineno}: {name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nif True:\n    import re\nprint(dumps)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: loads", "line 4: re"]


def test_package_names_load_on_first_use():
    """Each name of `multiforge.__all__` is its defining module's object,
    `from multiforge import *` binds every one, and an unknown name is an
    AttributeError."""
    import multiforge

    assert len(set(multiforge.__all__)) == len(multiforge.__all__) == 45
    for name in multiforge.__all__:
        value = getattr(multiforge, name)
        assert value.__module__.startswith("multiforge."), name
        assert value is getattr(importlib.import_module(value.__module__), name), name
    namespace: dict = {}
    exec("from multiforge import *", namespace)
    assert {n: namespace[n] for n in multiforge.__all__} == {
        n: getattr(multiforge, n) for n in multiforge.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        multiforge.no_such_name
    with pytest.raises(ImportError):
        exec("from multiforge import no_such_name", {})
