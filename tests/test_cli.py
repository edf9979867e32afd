from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multiforge import cli
from multiforge.complexes import (
    from_json,
    merge_vertices,
    single_simplex,
    to_json,
    to_json_dict,
    validate_structure,
)
from multiforge.gallery import coxeter_kernel_rep
from multiforge.graphs import (
    EXACT_BOUND,
    check_decomposition,
    format_multigraph,
    parse_multigraph,
    to_dot,
)
from multiforge.lcc import link_connected_cover
from multiforge.permrep import format_rep, parse_rep, validate
from multiforge.quotient import build_quotient, complex_line_graph
from multiforge.spectral import boundary_matrix, up_laplacian
from multiforge.words import Params
from conftest import seeded_rep
from test_complexes import figure_two_complex


def run(argv: list) -> int:
    return cli.main([str(a) for a in argv])


def build_m_quotient(tmp_path, d: int, k: int):
    """Path of the JSON quotient of the M-subgroup rep at (d, k), built
    through the CLI."""
    rep, x_path = tmp_path / "m.txt", tmp_path / "m.json"
    assert run(["gallery", "m", "--d", d, "--k", k, "--out", rep]) == 0
    assert run(["build", "--rep", rep, "--out", x_path]) == 0
    return x_path


@pytest.mark.parametrize("d, k, n, seed", [(1, 3, 40, 11), (2, 3, 30, 12)])
def test_pipeline_round_trip(tmp_path, capsys, d, k, n, seed):
    rep, x_path, cover = tmp_path / "rep.txt", tmp_path / "x.json", tmp_path / "cover.json"
    report, gap = tmp_path / "report.txt", tmp_path / "gap.txt"
    assert run(["random", "--d", d, "--k", k, "--n", n, "--seed", seed, "--out", rep]) == 0
    assert run(["build", "--rep", rep, "--out", x_path]) == 0
    assert run(["analyze", x_path, "--out", report]) == 0
    assert "structure-valid: true" in report.read_text().splitlines()
    assert run(["lcc", x_path, "--out", cover]) == 0
    assert cover.read_text() == x_path.read_text()
    assert run(["spectra", x_path, "--raw", "--out", gap]) == 0
    assert "error" not in capsys.readouterr().err

    x = from_json(x_path.read_text())
    lines = dict(line.split(": ", 1) for line in gap.read_text().splitlines())
    lap = up_laplacian(x)
    rank = np.linalg.matrix_rank(boundary_matrix(x, x.d - 1).matrix)
    assert int(lines["forms"]) == lap.shape[0]
    assert int(lines["coboundary-rank"]) == rank
    assert abs(float(lines["lambda"]) - np.linalg.eigvalsh(lap)[rank]) < 1e-9


def test_full_spectrum_of_k33(tmp_path, capsys):
    assert run(["spectra", build_m_quotient(tmp_path, 1, 3), "--full"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "forms: 6",
        "coboundary-rank: 1",
        "lambda: 3",
        "spectrum: 0.000x1 3.000x4 6.000x1",
    ]


def _drop(key):
    return lambda doc: doc.pop(key)


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _drop_from_cell(key):
    return lambda doc: doc["cells"][0].pop(key)


MALFORMED = {
    "not-an-object": lambda doc: [1],
    "format-mcomplex-1": _set("format", "mcomplex/1"),
    "no-format": _drop("format"),
    "no-params": _drop("params"),
    "params-list": _set("params", [2, 2]),
    "params-d-string": _set("params", {"d": "2", "k": 2}),
    "no-cells": _drop("cells"),
    "cells-object": _set("cells", {}),
    "no-vertex-colors": _drop("vertex_colors"),
    "vertex-colors-int": _set("vertex_colors", 3),
    "cell-not-object": lambda doc: doc["cells"].__setitem__(0, 0),
    "cell-no-colors": _drop_from_cell("colors"),
    # the index of a cell is its position: a column cut short leaves it undefined
    "cell-no-index": lambda doc: doc["cells"][0]["vertices"].pop(),
    "cell-no-vertices": _drop_from_cell("vertices"),
    "cell-no-faces": _drop_from_cell("faces"),
    "cell-bad-face-id": lambda doc: doc["cells"][0]["faces"].__setitem__(0, "0"),
    "cell-face-id-nested-list": lambda doc: doc["cells"][0]["faces"].__setitem__(0, [[1]]),
    "cell-vertex-nested-list": lambda doc: doc["cells"][0]["vertices"].__setitem__(0, [0]),
    "cell-vertex-bool": lambda doc: doc["cells"][0]["vertices"].__setitem__(0, False),
    "vertex-color-nested-list": lambda doc: doc["vertex_colors"].__setitem__(2, [1]),
    "cell-colors-unsorted": lambda doc: doc["cells"][0].__setitem__("colors", [1, 0]),
    "cell-colors-out-of-range": lambda doc: doc["cells"][0].__setitem__("colors", [0, 3]),
    "ordering-int": _set("ordering", 5),
    "ordering-record-not-object": lambda doc: doc["ordering"].__setitem__(0, 0),
    "ordering-record-no-cycle": lambda doc: doc["ordering"][0].pop("cycles"),
    "ordering-cycle-int": lambda doc: doc["ordering"][0]["cycles"].__setitem__(0, 5),
    "ordering-bad-cell-id": lambda doc: doc["ordering"][0].__setitem__("colors", [0]),
    "root-int": _set("root", 5),
    "boundary-int": _set("boundary", 5),
    "boundary-bad-id": _set("boundary", [5]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_complex_json_is_one_error_line(tmp_path, capsys, case):
    doc = json.loads(build_m_quotient(tmp_path, 2, 2).read_text())
    doc = MALFORMED[case](doc) or doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("analyze", "lcc", "spectra"):
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("argv, problem", [
    (["analyze", "{dir}"], "Is a directory"),
    (["random", "--d", 2, "--k", 3, "--n", 6, "--seed", 1, "--out", "{dir}"], "Is a directory"),
    (["reduce", "--d", 1, "--k", 3, "a^1"], "bad word token 'a^1', expected a<i>^<l>"),
    (["reduce", "--d", 1, "--k", 3, "a1^x"], "bad word token 'a1^x', expected a<i>^<l>"),
], ids=["analyze-directory", "random-out-directory", "word-no-index", "word-bad-exponent"])
def test_bad_path_or_word_is_one_error_line(tmp_path, capsys, argv, problem):
    assert run([str(a).format(dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if not line.startswith("note: ")]
    assert captured.out == "" and len(errors) == 1, captured.err
    assert errors[0].startswith("error: ") and problem in errors[0]


def test_random_seed_defaults_to_zero_whatever_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FORGE_SEED", "7")
    default, zero = tmp_path / "default.txt", tmp_path / "zero.txt"
    assert run(["random", "--d", 2, "--k", 3, "--n", 30, "--out", default]) == 0
    assert run(["random", "--d", 2, "--k", 3, "--n", 30, "--seed", 0, "--out", zero]) == 0
    assert default.read_text() == zero.read_text()


def test_random_draws_large_transitive_1_2_reps(tmp_path):
    """Two random involutions are seldom transitive; the (1, 2) sampler
    draws a transitive pair directly, so 10^5 points take one draw."""
    rep = tmp_path / "rep.txt"
    assert run(["random", "--d", 1, "--k", 2, "--n", 100_000, "--seed", 1, "--out", rep]) == 0
    assert validate(parse_rep(rep.read_text())).ok


@pytest.mark.parametrize("d, k, n", [(2, 3, 2), (1, 5, 4), (1, 7, 6), (3, 9, 2)])
def test_random_refuses_a_size_with_no_transitive_action(tmp_path, capsys, monkeypatch, d, k, n):
    """No divisor of k lies in 2..n, so every generator is the identity:
    one error line, and no draw is made."""
    monkeypatch.setattr("multiforge.permrep.random_rep", None)
    assert run(["random", "--d", d, "--k", k, "--n", n, "--seed", 1, "--out", tmp_path / "r"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: no transitive action on {n} points: only the identity has cycle lengths "
        f"dividing k={k} (d={d}, k={k}, n={n})\n")


@pytest.mark.parametrize("d, k, n, text", [
    (1, 5, 5, "1 5 5 1\n3 5 4 2 1\n4 5 2 3 1\n"),
    (2, 3, 3, "2 3 3 1\n1 2 3\n2 3 1\n2 3 1\n"),
])
def test_random_still_draws_the_smallest_sizes_that_have_one(tmp_path, d, k, n, text):
    """A divisor l of k in 2..n gives generators of l-cycles on staggered
    blocks that act transitively; these sizes draw the reps they drew
    before the refusal."""
    rep = tmp_path / "rep.txt"
    assert run(["random", "--d", d, "--k", k, "--n", n, "--seed", 1, "--out", rep]) == 0
    assert rep.read_text() == text


def _dangling_simplex():
    doc = to_json_dict(single_simplex(Params(2, 2)))
    triangle = next(cell for cell in doc["cells"] if cell["colors"] == [0, 1, 2])
    triangle["faces"][2] = 5  # the facet that drops color 2 becomes ((0, 1), 5)
    return doc


GLUING_ERRORS = {
    "inconsistent-figure-two": (
        lambda: to_json_dict(figure_two_complex(consistent=False)),
        "error: inconsistent gluing under ((0, 1, 2, 3), 0): face of colors (0, 1) "
        "reached as both ((0, 1), 1) and ((0, 1), 0)",
    ),
    "dangling-facet": (
        _dangling_simplex,
        "error: dangling gluing reference ((0, 1), 5) from ((0, 1, 2), 0)",
    ),
}


@pytest.mark.parametrize("case", sorted(GLUING_ERRORS))
def test_analyze_gluing_error_is_one_line(tmp_path, capsys, case):
    make, expected = GLUING_ERRORS[case]
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(make()))
    for command in ("analyze", "spectra"):
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [expected]


def test_non_coxeter_involutions_are_one_error_line(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("4\n1 2 4 3\n1 3 2 4\n1 4 3 2\n")
    assert run(["gallery", "coxeter", "--gens", gens]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _shorten_first_cycle(doc):
    cycles = doc["ordering"][0]["cycles"]
    cycles[0] = cycles[0][:1]


def _edit_first_cycle(doc):
    doc["ordering"][0]["cycles"][0][1:] = [5, 1]


def _repeat_in_first_cycle(doc):
    doc["ordering"][0]["cycles"][0].insert(0, 0)


LCC_INPUT_ERRORS = {
    "unordered": (_set("ordering", None), "no ordering"),
    "unrooted": (_set("root", None), "no root"),
    "vertex-root": (_set("root", [[0], 0]), "not a top cell"),
    "ordering-record-removed": (
        lambda doc: doc["ordering"].pop(0),
        "the facet ((0, 1), 0) has no ordering cycle",
    ),
    "cycle-lists-one-coface": (
        _shorten_first_cycle,
        "the ordering cycle of the facet ((0, 1), 0) leaves out its coface ((0, 1, 2), 1)",
    ),
    "cycle-lists-a-stranger": (
        _edit_first_cycle,
        "the ordering cycle of the facet ((0, 1), 0) lists ((0, 1, 2), 5), not a coface",
    ),
    "cycle-repeats-a-coface": (
        _repeat_in_first_cycle,
        "the ordering cycle of the facet ((0, 1), 0) lists a coface twice",
    ),
    # faults that only `validate_structure` sees: `lcc` checks its input with it first
    "vertex-of-wrong-color": (
        lambda doc: doc["cells"][0]["vertices"].__setitem__(0, doc["vertex_colors"].index(1)),
        "((0, 1), 0): vertex 2 does not carry color 0",
    ),
    "vertex-in-no-top-cell": (
        lambda doc: doc["vertex_colors"].append(0),
        "((0,), 2): not contained in any top multicell (impure)",
    ),
}


@pytest.mark.parametrize("case", sorted(LCC_INPUT_ERRORS))
def test_lcc_input_error_is_one_line(tmp_path, capsys, case):
    edit, problem = LCC_INPUT_ERRORS[case]
    doc = json.loads(build_m_quotient(tmp_path, 2, 2).read_text())
    edit(doc)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["lcc", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and problem in lines[0], lines


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    x_path = build_m_quotient(tmp_path, 1, 3)
    capsys.readouterr()

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("multiforge.spectral.spectrum", no_memory)
    assert run(["spectra", x_path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines


def test_cli_import_loads_no_numpy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, multiforge, multiforge.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.split() == ["False"]


def loaded_modules(*argv) -> tuple[int | None, set[str]]:
    """The exit code of `cli.main(argv)` in a fresh interpreter (None when
    argv is empty: only `import multiforge.cli`) and the multiforge modules
    it then holds, by short name ("" for the package)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, multiforge.cli\n"
            "rc = multiforge.cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
            "print(rc, *sorted(m for m in sys.modules if m.split('.')[0] == 'multiforge'))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    rc, *names = out.split()
    return None if rc == "None" else int(rc), {name.partition(".")[2] for name in names}


def test_cli_import_loads_only_the_cli():
    assert loaded_modules() == (None, {"", "cli"})


OFF_THE_CHAIN = {"graphs", "universal", "gallery", "spectral", "acceptance"}


@pytest.mark.parametrize("command, absent", [
    ("random", {"complexes", "quotient", "lcc"} | OFF_THE_CHAIN),  # all but words, permrep
    ("build", OFF_THE_CHAIN),
    ("analyze", OFF_THE_CHAIN),
    ("lcc", OFF_THE_CHAIN),
    ("spectra", OFF_THE_CHAIN - {"spectral"} | {"lcc"}),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command, absent):
    rep, x_path = tmp_path / "rep.txt", tmp_path / "x.json"
    assert run(["random", "--d", 2, "--k", 3, "--n", 30, "--seed", 12, "--out", rep]) == 0
    assert run(["build", "--rep", rep, "--out", x_path]) == 0
    argv = {
        "random": ["random", "--d", 2, "--k", 3, "--n", 30, "--seed", 12],
        "build": ["build", "--rep", rep],
        "analyze": ["analyze", x_path],
        "lcc": ["lcc", x_path],
        "spectra": ["spectra", x_path],
    }[command]
    rc, loaded = loaded_modules(*argv, "--out", tmp_path / "out")
    package = {p.stem for p in Path(cli.__file__).parent.glob("*.py")} - {"__init__"}
    assert rc == 0 and absent <= package, (rc, absent - package)
    assert not loaded & absent, loaded & absent


def test_full_spectra_decomposes_once(tmp_path, capsys, monkeypatch):
    """One `spectra --full` run takes one SVD for the rank and one dense
    eigensolve for both the gap and the printed spectrum."""
    x_path = build_m_quotient(tmp_path, 2, 3)
    calls = []

    def counted(name):
        orig = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)

        return wrapper

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    assert run(["spectra", x_path, "--full", "--raw"]) == 0
    assert sorted(calls) == ["eigvalsh", "svd"]


def _m23_rep_text(tmp_path) -> str:
    path = tmp_path / "m23.txt"
    assert run(["gallery", "m", "--d", 2, "--k", 3, "--out", path]) == 0
    return path.read_text()


REP_ERRORS = {
    "non-integer-header": (
        lambda text: "2 3 x 1\n" + text.split("\n", 1)[1],
        "error: the header '2 3 x 1' must be four integers: d k n root",
    ),
    "root-out-of-range": (
        lambda text: "2 3 27 99\n" + text.split("\n", 1)[1],
        "error: root 99 out of range 1..27",
    ),
    "repeated-point": (
        lambda text: "1 2 3 1\n(1 2)(2 3)\n(1 2)\n",
        "error: permutation of generator 0: the cycles repeat point 2",
    ),
    "unclosed-cycle": (
        lambda text: "1 2 3 1\n(1 2\n(2 3)\n",
        "error: permutation of generator 0: cycle notation needs parenthesized groups, "
        "got '(1 2'",
    ),
}


@pytest.mark.parametrize("case", sorted(REP_ERRORS))
def test_rep_file_error_is_one_line(tmp_path, capsys, case):
    edit, expected = REP_ERRORS[case]
    text = _m23_rep_text(tmp_path)
    assert text.startswith("2 3 27 1\n")
    path = tmp_path / "bad.txt"
    path.write_text(edit(text))
    capsys.readouterr()
    assert run(["build", "--rep", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [expected]


BAD_ORDER_REP = "1 2 3 1\n2 3 1\n1 2 3\n"  # generator 0 is a 3-cycle at k = 2


@pytest.mark.parametrize("command", ["build", "line-graph", "common-cover"])
def test_every_rep_command_refuses_a_bad_order(tmp_path, capsys, command):
    """`common-cover` checks its inputs as `build` and `line-graph` do: one
    `invalid rep` line, exit 1 and no output."""
    path, out = tmp_path / "bad.rep", tmp_path / "out.txt"
    path.write_text(BAD_ORDER_REP)
    reps = [path, path] if command == "common-cover" else ["--rep", path]
    capsys.readouterr()
    assert run([command, *reps, "--out", out]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid rep: generator 0 has cycle lengths [3] not dividing k=2"
    ]


EDGE_LINE = "an edge line holds two endpoints in 1..{n} and an optional multiplicity >= 1"

GRAPH_ERRORS = {
    "empty": ("", "error: the graph file is empty: expected the vertex count"),
    "comments-only": ("# nothing\n\n", "error: the graph file is empty: expected the vertex count"),
    "one-endpoint": ("3\n1\n", f"error: line 2: {EDGE_LINE.format(n=3)}, got '1'"),
    "negative-vertex-count": ("-1\n", "error: line 1: the vertex count must be an integer >= 0, got '-1'"),
    "vertex-count-not-integer": ("x\n", "error: line 1: the vertex count must be an integer >= 0, got 'x'"),
    "negative-multiplicity": ("2\n1 2 -1\n", f"error: line 2: {EDGE_LINE.format(n=2)}, got '1 2 -1'"),
    "zero-multiplicity": ("2\n1 2 0\n", f"error: line 2: {EDGE_LINE.format(n=2)}, got '1 2 0'"),
    "endpoint-out-of-range": ("2\n# K2\n1 3\n", f"error: line 3: {EDGE_LINE.format(n=2)}, got '1 3'"),
    "four-fields": ("2\n1 2 1 1\n", f"error: line 2: {EDGE_LINE.format(n=2)}, got '1 2 1 1'"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_ERRORS))
def test_graph_file_error_is_one_line(tmp_path, capsys, case):
    text, expected = GRAPH_ERRORS[case]
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run(["decompose", path, "--k", 1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [expected]


@pytest.mark.parametrize("text", ["0\n", "2\n1 2\n"], ids=["empty-graph", "one-edge"])
def test_decompose_refuses_a_negative_k(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run(["decompose", path, "--k", -1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: k must be >= 0, got -1"]


def _graph_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in edges)


def _k4s_then_block(n: int) -> str:
    """K4s on all but the last two of n vertices, then a block of a loop, an
    edge and a loop.  At k = 3 the first perfect matching takes the two
    loops, which leaves no decomposition, so the search must try a second."""
    edges = [(u, v) for base in range(0, n - 2, 4)
             for u in range(base, base + 4) for v in range(u + 1, base + 4)]
    return _graph_text(n, edges + [(n - 2, n - 2), (n - 2, n - 1), (n - 1, n - 1)])


@pytest.mark.parametrize("n", [EXACT_BOUND, EXACT_BOUND + 4])
def test_decompose_backtracks_up_to_the_bound(tmp_path, capsys, n):
    """Up to the bound the exact search backtracks and decomposes the graph;
    beyond it `decompose` refuses the graph with one line where it would
    backtrack."""
    path = tmp_path / "block.txt"
    path.write_text(_k4s_then_block(n))
    rc = run(["decompose", path, "--k", 3])
    captured = capsys.readouterr()
    if n <= EXACT_BOUND:
        assert rc == 0 and captured.err == ""
        assert captured.out.splitlines()[:2] == ["k: 3", "factors: 2"]
        assert f"{n - 1}-{n}" in captured.out.splitlines()[2]
    else:
        assert rc == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: the graph has {n} vertices: its first candidate factor leaves no "
            f"decomposition, and the exact search backtracks on at most {EXACT_BOUND}"
        ]


def test_decompose_answers_beyond_the_bound_when_no_matching_exists(tmp_path, capsys):
    """11 triangles joined by one edge: 33 vertices, no perfect matching and
    two vertices of degree 3, so no split at k = 2 exists, and the search
    says so without a second candidate to refuse."""
    triangles = [(3 * t + a, 3 * t + b) for t in range(11) for a, b in ((0, 1), (1, 2), (0, 2))]
    path = tmp_path / "triangles.txt"
    path.write_text(_graph_text(33, triangles + [(0, 3)]))
    assert 33 > EXACT_BOUND and run(["decompose", path, "--k", 2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["no decomposition with m + 2f = 2 exists"]


def test_decompose_takes_a_first_candidate_beyond_the_bound(tmp_path, capsys):
    """n loops at k = 1 fit no labelled, bipartite or even-degree strategy,
    but the first perfect matching the search finds is all of them."""
    n = EXACT_BOUND + 1
    path = tmp_path / "loops.txt"
    path.write_text(_graph_text(n, [(v, v) for v in range(n)]))
    assert run(["decompose", path, "--k", 1]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["k: 1", "factors: 1"] and len(lines[2].split()) == 3 + n


def test_decompose_takes_an_odd_degree_line_graph_beyond_the_bound(tmp_path, capsys):
    """The line graph of a (2,2) quotient has no labels in its file and
    degree 3, so only the exact search applies: on 40 vertices its first
    perfect matching leaves a rest that splits into two more."""
    rep, graph = tmp_path / "rep.txt", tmp_path / "lg.txt"
    assert run(["random", "--d", 2, "--k", 2, "--n", 40, "--seed", 2, "--out", rep]) == 0
    assert run(["line-graph", "--rep", rep, "--out", graph]) == 0
    assert int(graph.read_text().split()[0]) == 40 > EXACT_BOUND
    assert run(["decompose", graph, "--k", 3]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["k: 3", "factors: 3"]
    assert all(ln.startswith(f"factor {t}: matching: ") for t, ln in enumerate(lines[2:], 1))


@pytest.mark.parametrize("name, n, edges, k, kind", [
    ("odd-cycle", 41, [(v, (v + 1) % 41) for v in range(41)], 2, "two_factor"),
    ("even-prism", 40, [(v, (v + 1) % 20) for v in range(20)]
     + [(20 + v, 20 + (v + 1) % 20) for v in range(20)] + [(v, v + 20) for v in range(20)],
     3, "matching"),
    ("bipartite-4", 40, [(a, 20 + (a + s) % 20) for a in range(20) for s in (0, 1, 3, 7)],
     4, "matching"),
])
def test_decompose_strategies_take_graphs_beyond_the_exact_bound(tmp_path, capsys, name, n,
                                                                  edges, k, kind):
    """Even degree graphs need no exact search, and on loopless bipartite
    regular graphs it never backtracks (König), so `decompose` takes them
    at any size; a bipartite graph of even degree still splits into
    matchings."""
    path = tmp_path / f"{name}.txt"
    path.write_text(_graph_text(n, edges))
    assert n > EXACT_BOUND and run(["decompose", path, "--k", k]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"k: {k}" and all(f": {kind}: " in ln for ln in lines[2:])


def _factors(g, out: str) -> list:
    """The factors that `decompose` printed, as (kind, edge indices of g),
    parallel edges taken in turn."""
    free: dict[tuple[int, int], list[int]] = {}
    for e, (u, v, _) in enumerate(g.edges):
        free.setdefault((u, v), []).append(e)
    factors = []
    for ln in out.splitlines()[2:]:
        _, kind, edges = ln.split(": ")
        ends = (map(int, tok.split("-")) for tok in edges.split())
        factors.append((kind, {free[(u - 1, v - 1)].pop() for u, v in ends}))
    return factors


def _shuffle_pairs(n: int) -> list[tuple[int, int]]:
    """The edges v-sigma(v) and v-tau(v) of two shuffles of range(n): a
    4-regular multigraph, loops counting two."""
    rng, sigma, tau = random.Random(3), list(range(n)), list(range(n))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    return [(v, sigma[v]) for v in range(n)] + [(v, tau[v]) for v in range(n)]


@pytest.mark.parametrize("name, n, edges, k", [
    ("k33-copies", 2100, [(6 * t + a, 6 * t + 3 + b)
                          for t in range(350) for a in range(3) for b in range(3)], 3),
    ("two-shuffles", 6000, _shuffle_pairs(6000), 4),
])
def test_decompose_searches_deeper_than_the_recursion_limit(tmp_path, capsys, name, n, edges, k):
    """The matching search on 350 disjoint K3,3 goes n/2 vertices deep, and
    the Euler step's augmenting paths on the 4-regular graph run longer than
    the interpreter's recursion limit: both search with explicit stacks."""
    path = tmp_path / f"{name}.txt"
    path.write_text(_graph_text(n, edges))
    assert run(["decompose", path, "--k", k]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    g = parse_multigraph(path.read_text())
    assert check_decomposition(g, _factors(g, captured.out), k)


def _merged_22_quotient(tmp_path) -> Path:
    """A (2,2) quotient with two vertices of color 0 merged, which is not
    link-connected, as a complex file."""
    x = build_quotient(seeded_rep(2, 2, 8, 1)).complex
    v, w = [v for v in range(x.n_vertices) if x.vertex_colors[v] == 0][:2]
    path = tmp_path / "merged.json"
    path.write_text(to_json(merge_vertices(x, v, w)))
    return path


@pytest.mark.parametrize("merged", [False, True], ids=["quotient", "merged"])
def test_lcc_map_writes_the_projection_sorted(tmp_path, merged):
    x_path = _merged_22_quotient(tmp_path) if merged else build_m_quotient(tmp_path, 2, 3)
    cover, map_path = tmp_path / "cover.json", tmp_path / "map.json"
    assert run(["lcc", x_path, "--out", cover, "--map", map_path]) == 0
    pairs = [((tuple(a[0]), a[1]), (tuple(b[0]), b[1]))
             for a, b in ((e["from"], e["to"]) for e in json.loads(map_path.read_text()))]
    assert pairs == sorted(link_connected_cover(from_json(x_path.read_text()))[1].items())
    assert merged == any(a != b for a, b in pairs)
    assert merged == (cover.read_text() != x_path.read_text())


def test_coxeter_out_rep_writes_the_kernel_rep(tmp_path):
    gens, rep = tmp_path / "gens.txt", tmp_path / "rep.txt"
    gens.write_text("4\n2 1 3 4\n1 3 2 4\n1 2 4 3\n")  # S4 by its adjacent transpositions
    assert run(["gallery", "coxeter", "--gens", gens, "--out", tmp_path / "x.json",
                "--out-rep", rep]) == 0
    perms = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    assert rep.read_text() == format_rep(coxeter_kernel_rep(perms)[0])
    assert parse_rep(rep.read_text()).n == 24


def test_ordered_flag_complex_is_rooted_and_valid(tmp_path):
    out = tmp_path / "flag.json"
    assert run(["gallery", "flag", "--dim", 3, "--q", 2, "--ordered", "--out", out]) == 0
    x = from_json(out.read_text())
    assert x.root is not None and x.ordering is not None
    assert validate_structure(x)


def test_line_graph_dot_colors_each_edge_by_generator(tmp_path):
    rep, plain, dot = tmp_path / "rep.txt", tmp_path / "lg.txt", tmp_path / "lg.dot"
    assert run(["random", "--d", 2, "--k", 3, "--n", 30, "--seed", 4, "--out", rep]) == 0
    assert run(["line-graph", "--rep", rep, "--out", plain]) == 0
    assert run(["line-graph", "--rep", rep, "--dot", "--out", dot]) == 0
    g = parse_multigraph(plain.read_text())
    lines = dot.read_text().splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    nodes = [ln for ln in lines if "[label=" in ln and " -- " not in ln]
    assert nodes == [f'  {v} [label="{v + 1}"];' for v in range(g.n)]
    edges = [ln.split(" [")[0].split(" -- ") + [ln.split("color=")[1].split(",")[0]]
             for ln in lines if " -- " in ln]
    assert sorted((int(u), int(v)) for u, v, _ in edges) == [(u, v) for u, v, _ in g.edges]
    betas = dict(zip(["black", "red", "blue"], parse_rep(rep.read_text()).betas))
    assert {c for _, _, c in edges} == set(betas)
    assert all(v in (betas[c][u], betas[c].index(u)) for u, v, c in
               ((int(u), int(v), c) for u, v, c in edges))  # top t is point t of the rep


@pytest.mark.parametrize("d, k", [(1, 2), (2, 3), (3, 2)])
def test_line_graph_prints_the_line_graph_of_the_quotient(tmp_path, capsys, d, k):
    """`line-graph` reads the Schreier graph off the rep, and prints the
    bytes of the line graph of the rep's quotient complex, with and without
    `--dot`."""
    path = tmp_path / "rep.txt"
    for seed in (1, 2, 3):
        rep = seeded_rep(d, k, 24, seed)
        path.write_text(format_rep(rep))
        g = complex_line_graph(build_quotient(rep).complex)
        for flags, expected in (([], format_multigraph(g)), (["--dot"], to_dot(g))):
            capsys.readouterr()
            assert run(["line-graph", "--rep", path, *flags]) == 0
            assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [
    ["build", "--rep"], ["decompose", "--k", 3], ["gallery", "coxeter", "--gens"],
])
def test_a_complex_file_in_the_wrong_place_is_one_short_line(tmp_path, capsys, argv):
    """The first line of a complex file is all of its JSON; the error that
    quotes it quotes a short excerpt."""
    x_path = build_m_quotient(tmp_path, 2, 3)
    assert len(x_path.read_text()) > 1000
    capsys.readouterr()
    assert run([*argv, x_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "..." in captured.err
    assert len(captured.err.encode()) < 200


def test_empty_generator_file_is_one_line(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("# no generators\n")
    assert run(["gallery", "coxeter", "--gens", gens]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the generator file is empty: expected the degree line"
    ]


BAD_BOUNDARY = {
    "no-such-cell": ([[[0, 1], 99]], "boundary ((0, 1), 99): not a 1-multicell"),
    "a-vertex": ([[[0], 0]], "boundary ((0,), 0): not a 1-multicell"),
    "a-top-cell": ([[[0, 1, 2], 0]], "boundary ((0, 1, 2), 0): not a 1-multicell"),
}


@pytest.mark.parametrize("case", sorted(BAD_BOUNDARY))
def test_boundary_entry_must_be_a_codimension_one_cell(tmp_path, capsys, case):
    boundary, message = BAD_BOUNDARY[case]
    path = build_m_quotient(tmp_path, 2, 2)
    doc = json.loads(path.read_text())
    doc["boundary"] = boundary
    path.write_text(json.dumps(doc))
    assert validate_structure(from_json(path.read_text())).messages == [message]
    capsys.readouterr()
    assert run(["analyze", path]) == 0
    assert "structure-valid: false" in capsys.readouterr().out.splitlines()
    assert run(["spectra", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_spectra_refuses_a_vertex_out_of_range(tmp_path, capsys):
    path = build_m_quotient(tmp_path, 2, 2)
    doc = json.loads(path.read_text())
    doc["cells"][0]["vertices"][0] = 999
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["spectra", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: ((0, 1), 0): vertex 999 does not carry color 0"]


GENERATOR_ERRORS = {
    "one-generator": (
        "3\n2 1 3\n",
        "error: line 1: the degree line must be followed by two generator lines or more, got 1",
    ),
    "degree-only": (
        "# S3\n3\n",
        "error: line 2: the degree line must be followed by two generator lines or more, got 0",
    ),
    "degree-not-integer": (
        "x\n2 1 3\n1 3 2\n",
        "error: line 1: the degree must be an integer >= 1, got 'x'",
    ),
    "degree-zero": ("0\n\n\n", "error: line 1: the degree must be an integer >= 1, got '0'"),
    "wrong-length": ("3\n2 1 3\n# s2\n1 3 2 4\n", "error: line 4: expected 3 images, got 4"),
    "not-a-permutation": (
        "3\n2 1 3\n1 1 2\n",
        "error: line 3: not a permutation (images are not a bijection)",
    ),
    "identity-after-a-comment": ("3\n2 1 3\n# identity\n1 2 3\n", "error: line 4: not an involution"),
    "three-cycle": ("3\n2 3 1\n1 3 2\n", "error: line 2: not an involution"),
    "repeated-point": ("3\n(1 2)\n(1 2)(2 3)\n", "error: line 3: the cycles repeat point 2"),
    "unclosed-cycle": (
        "3\n(1 2\n(2 3)\n",
        "error: line 2: cycle notation needs parenthesized groups, got '(1 2'",
    ),
    "group-over-the-cap": (  # the adjacent transpositions of S_8, of order 40,320
        "8\n" + "".join(f"({i} {i + 1})\n" for i in range(1, 8)),
        "error: group exceeds cap 20000",
    ),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_ERRORS))
def test_generator_file_error_names_the_line(tmp_path, capsys, case):
    text, expected = GENERATOR_ERRORS[case]
    gens = tmp_path / "gens.txt"
    gens.write_text(text)
    assert run(["gallery", "coxeter", "--gens", gens]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [expected]


def test_spectra_takes_no_tolerance_option(capsys):
    """The rank and gap tolerance is the fixed `spectral.TOL`."""
    with pytest.raises(SystemExit) as exc:
        run(["spectra", "x.json", "--tol", "1e-6"])
    assert exc.value.code == 2


def test_verify_all_takes_no_suite_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-all", "--suite", "desk"])
    assert exc.value.code == 2


def test_commands_name_every_sub_parser():
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == cli.COMMANDS


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["--", "build"], ["build"], ["build", "-h"], ["build", "--rep"],
    ["build", "--rep", "r.txt", "extra"], ["random", "--d", "x", "--k", "2", "--n", "3"],
    ["spectra", "--help"], ["spectra", "x.json", "--tol", "small"], ["gallery"],
    ["gallery", "-h"], ["gallery", "nope"], ["gallery", "m", "--d", "1"], ["verify-all", "x"],
    ["decompose", "g.txt", "--k"], ["reduce", "--help"],
])
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    """`main` parses with the named command's parser alone; its help and
    its usage errors, exit codes included, are those of the full parser."""
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as one:
        run(argv)
    assert one.value.code == full.value.code and capsys.readouterr() == expected
