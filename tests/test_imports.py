"""Every module-level import in the package is read somewhere in its module
(`__init__.py` is exempt), the package's own names load on first use, no
module imports `dataclasses`, and each pipeline command starts without the
standard-library and package modules it does not run."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multiforge import cli
from multiforge.complexes import Cells, Diagnostics
from multiforge.graphs import Multigraph
from multiforge.permrep import PermRep
from multiforge.words import Params, Word

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

    assert len(set(multiforge.__all__)) == len(multiforge.__all__) == 43
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


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module an import statement names,
    anywhere in the source, function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_import_scan_sees_nested_imports():
    source = "from . import words\ndef f():\n    import dataclasses.x\n    from json import dumps\n"
    assert imported_modules(source) == {"dataclasses", "json"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def modules_after(*argv) -> set[str]:
    """Every module in `sys.modules` after `cli.main(argv)` in a fresh
    interpreter, which must exit 0."""
    code = ("import sys\nfrom multiforge.cli import main\n"
            "assert main(sys.argv[1:]) == 0\nprint(*sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("command, absent", [
    ("random", {"dataclasses", "inspect", "json"}),
    ("build", {"dataclasses", "inspect"}),
    ("analyze", {"dataclasses", "inspect"}),
    ("lcc", {"dataclasses", "inspect"}),
    ("spectra", {"multiforge.permrep"}),
    ("line-graph", {"multiforge.complexes", "multiforge.quotient"}),
])
def test_each_command_starts_without_what_it_does_not_run(tmp_path, command, absent):
    """`random`, `build`, `analyze` and `lcc` load neither `dataclasses` nor
    `inspect` (`random` not even `json`), `spectra` reads and validates
    its complex without `multiforge.permrep`, and `line-graph` reads the
    Schreier graph off the rep without building the quotient complex."""
    rep, x_path = tmp_path / "rep.txt", tmp_path / "x.json"
    assert cli.main(["random", "--d", "2", "--k", "3", "--n", "30", "--seed", "5",
                     "--out", str(rep)]) == 0
    assert cli.main(["build", "--rep", str(rep), "--out", str(x_path)]) == 0
    argv = {
        "random": ["random", "--d", 2, "--k", 3, "--n", 30, "--seed", 5],
        "build": ["build", "--rep", rep],
        "analyze": ["analyze", x_path],
        "lcc": ["lcc", x_path],
        "spectra": ["spectra", x_path],
        "line-graph": ["line-graph", "--rep", rep],
    }[command]
    loaded = modules_after(*argv, "--out", tmp_path / "out")
    assert "multiforge.cli" in loaded and not loaded & absent, loaded & absent


def test_records_keep_equality_hashing_and_repr():
    """The records that replaced dataclasses compare by their fields, hash
    where they are immutable, refuse assignment there, and print as
    `Name(field=value, ...)`."""
    p = Params(2, 3)
    assert repr(p) == "Params(d=2, k=3)" and p == Params(2, 3) and hash(p) == hash(Params(2, 3))
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        Params(0, 3)
    with pytest.raises(ValueError, match="k must be >= 2, got 1"):
        Params(1, 1)
    w = Word(((0, 1), (2, 2)))
    assert repr(w) == "Word(letters=((0, 1), (2, 2)))" and len(w) == 2 and not Word()
    assert w * w == Word(w.letters * 2) and {w: 1}[Word(((0, 1), (2, 2)))] == 1
    assert w != (w.letters,) and Word() != () and hash(w) == hash((w.letters,))
    for op in (lambda: w + w, lambda: 3 * w, lambda: w[0]):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(AttributeError):
        w.letters = ()
    rep = PermRep(Params(1, 2), 1, ((0,), (0,)))
    assert rep.root == 0 and {rep} == {PermRep(Params(1, 2), 1, ((0,), (0,)), 0)}
    with pytest.raises(AttributeError):
        rep.n = 2
    assert repr(Diagnostics(False, ["m"])) == "Diagnostics(ok=False, messages=['m'])"
    assert Diagnostics(True) == Diagnostics(True, []) != Diagnostics(False, [])
    assert Cells((0, 1), [0, 1], [0, 0]) == Cells((0, 1), [0, 1], [0, 0]) != Cells((0, 1), [], [])
    assert repr(Multigraph(2)) == "Multigraph(n=2, edges=[])" and Multigraph(2) == Multigraph(2, [])
    with pytest.raises(TypeError):
        hash(Diagnostics(True))
