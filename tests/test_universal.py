from __future__ import annotations

import hashlib

import pytest

from multiforge.cli import _ball_json
from multiforge.complexes import coface_counts, find_isomorphism, top_faces, validate_structure
from multiforge.quotient import complex_line_graph
from multiforge.universal import (
    PathExitsBall,
    ball_from_cosets,
    build_ball,
    unique_non_backtracking,
)
from multiforge.words import (
    EMPTY_WORD,
    Params,
    enumerate_reduced_words,
    is_reduced,
    multiply,
    word_length,
)
from rigidity_oracles import coset_ball_oracle


def test_radius_zero_is_single_simplex():
    for build in (build_ball, ball_from_cosets):
        ball = build(Params(2, 2), 0)
        assert ball.complex.n_vertices == 3
        assert len(ball.complex.cells[(0, 1, 2)]) == 1
        assert ball.cell_words[ball.complex.root] == EMPTY_WORD


def test_figure_step_counts():
    ball = build_ball(Params(2, 2), 1)
    assert len(ball.complex.cells[(0, 1, 2)]) == 4
    assert ball.complex.n_vertices == 6


def test_tree_ball_closed_form():
    p = Params(1, 3)
    for n in range(5):
        ball = build_ball(p, n)
        assert ball.complex.n_vertices == 2 * sum(2**m for m in range(n + 1))  # 2 sum (k-1)^m
        # tops: 1 + sum 2*(k-1)^m
        assert len(ball.complex.cells[(0, 1)]) == 1 + sum(2 * 2**m for m in range(1, n + 1))


def test_coset_ball_top_count():
    ball = ball_from_cosets(Params(2, 2), 2)
    assert len(ball.complex.cells[(0, 1, 2)]) == 10  # 1 + 3 + 6 reduced words


def test_constructions_isomorphic():
    for d, k in [(1, 2), (2, 3), (3, 2)]:
        for n in (0, 2):
            b1 = build_ball(Params(d, k), n)
            b2 = ball_from_cosets(Params(d, k), n)
            assert find_isomorphism(b1.complex, b2.complex) is not None
            assert validate_structure(b1.complex).ok
            assert validate_structure(b2.complex).ok


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_coset_ball_matches_the_re_reducing_oracle(d, k):
    """Balls built from the letters of reduced words are byte for byte the
    balls built by multiplying and stripping words with re-reduction."""
    for radius in range(4):
        p = Params(d, k)
        assert _ball_json(ball_from_cosets(p, radius)) == _ball_json(coset_ball_oracle(p, radius))


def test_inductive_ball_words_need_no_re_reduction():
    """`build_ball` writes each new top's word as one letter before its
    creator's word, without reducing it: every word is reduced as written,
    and the (2,3) radius-4 ball keeps its bytes."""
    for d, k in [(1, 2), (1, 4), (2, 3), (3, 2), (3, 3)]:
        p = Params(d, k)
        ball = build_ball(p, 3)
        assert all(is_reduced(w, p) for w in ball.cell_words.values()), (d, k)
    text = _ball_json(build_ball(Params(2, 3), 4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d5f194c83bb18d51be01872ce619ccf440eeeab288412f8f7bce8386354faf70")


def test_word_dictionary_is_bijective():
    p = Params(2, 2)
    ball = ball_from_cosets(p, 3)
    words = {w.letters for w in enumerate_reduced_words(p, 3)}
    assert {w.letters for w in ball.cell_words.values()} == words
    assert len(ball.cell_words) == len(ball.complex.cells[(0, 1, 2)])


def test_interior_boundary_degrees():
    p = Params(2, 3)
    ball = build_ball(p, 2)
    counts = coface_counts(ball.complex)
    for J in [(0, 1), (0, 2), (1, 2)]:
        for i, deg in enumerate(counts[J]):
            assert deg == (1 if (J, i) in ball.complex.boundary else 3)


def test_low_dimensional_degrees_grow_with_radius():
    p = Params(2, 2)
    deg_of_root_vertex = []
    for n in range(4):
        ball = build_ball(p, n)
        colors, i = ball.complex.vertex_cell(0)
        deg_of_root_vertex.append(coface_counts(ball.complex)[colors][i])
    assert deg_of_root_vertex == sorted(deg_of_root_vertex)
    assert deg_of_root_vertex[0] < deg_of_root_vertex[-1]


def test_every_top_cell_sees_all_colors():
    ball = build_ball(Params(3, 2), 2)
    for cell in ball.complex.multicells(3):
        assert sorted(ball.complex.vertex_colors[v] for v in cell.vertices) == [0, 1, 2, 3]


def test_line_graph_embeds_in_cayley_graph():
    """Adjacent top cells differ by one generator power applied on the left."""
    p = Params(2, 2)
    ball = ball_from_cosets(p, 2)
    g = complex_line_graph(ball.complex)
    tops = sorted(c.mid for c in ball.complex.multicells(2))
    for u, v, label in g.edges:
        if u == v:
            continue
        i, l = label
        wu, wv = ball.cell_words[tops[u]], ball.cell_words[tops[v]]
        step = {
            multiply(type(wu)(((i, l),)), wu, p).letters,
            multiply(type(wu)(((i, p.k - l),)), wu, p).letters,
        }
        assert wv.letters in step


def test_good_path_trivial_and_short():
    ball = build_ball(Params(2, 2), 3)
    root = ball.complex.root
    assert unique_non_backtracking(ball, root, root) == [root]
    far = next(m for m, w in ball.cell_words.items() if len(w.letters) == 2)
    path = unique_non_backtracking(ball, root, far)
    assert len(path) == 3
    assert path[0] == root and path[-1] == far
    # radius-1 midpoint
    assert len(ball.cell_words[path[1]].letters) == 1


def test_good_path_is_unique_nonbacktracking():
    """DFS oracle: enumerate all non-backtracking line-graph paths up to the
    target length and check exactly one reaches the target."""
    ball = build_ball(Params(2, 2), 3)
    x = ball.complex
    adj: dict = {}
    for J in [(0, 1), (0, 2), (1, 2)]:
        incident: dict = {}
        for t, i in enumerate(top_faces(x, J)):
            incident.setdefault((J, i), []).append(((0, 1, 2), t))
        for cell, inc in incident.items():
            for a in inc:
                for b in inc:
                    if a != b:
                        adj.setdefault(a, set()).add((b, cell))
    target = next(m for m, w in ball.cell_words.items() if len(w.letters) == 3)
    found = []

    def dfs(node, via, path):
        if len(path) > 4:
            return
        if node == target:
            found.append(tuple(path))
            return
        for nxt, shared in adj.get(node, ()):
            if shared != via:
                dfs(nxt, shared, path + [nxt])

    dfs(x.root, None, [x.root])
    shortest = [f for f in found if len(f) == 4]
    assert len(shortest) == 1
    assert list(shortest[0]) == unique_non_backtracking(ball, x.root, target)


def test_good_path_words_compose():
    ball = build_ball(Params(2, 3), 2)
    p = ball.complex.params
    far = next(m for m, w in ball.cell_words.items() if len(w.letters) == 2)
    path = unique_non_backtracking(ball, ball.complex.root, far)
    assert ball.cell_words[path[-1]] == ball.cell_words[far]
    for t in range(len(path) - 1):
        w1, w2 = ball.cell_words[path[t]], ball.cell_words[path[t + 1]]
        step = multiply(w2, w1.inverse(), p)
        assert word_length(step, p) == 1


def test_good_path_never_leaves_endpoint_radius():
    """Good paths descend to the common tail and climb back, so intermediate
    cells never exceed the endpoint radii and stay inside the ball."""
    ball = build_ball(Params(2, 3), 3)
    cells = list(ball.cell_words)
    import random

    rng = random.Random(9)
    for _ in range(60):
        t1, t2 = rng.choice(cells), rng.choice(cells)
        bound = max(len(ball.cell_words[t1].letters), len(ball.cell_words[t2].letters))
        path = unique_non_backtracking(ball, t1, t2)
        assert all(len(ball.cell_words[m].letters) <= bound for m in path)


def test_good_path_reports_missing_cells():
    from multiforge.universal import Ball

    ball = build_ball(Params(2, 2), 2)
    # a truncated dictionary models a cell set that the path must leave
    kept = {m: w for m, w in ball.cell_words.items() if len(w.letters) != 1}
    partial = Ball(ball.complex, ball.radius, kept)
    t1 = ball.complex.root
    t2 = next(m for m, w in kept.items() if len(w.letters) == 2)
    with pytest.raises(PathExitsBall):
        unique_non_backtracking(partial, t1, t2)


def test_distance_equals_word_length_small():
    from multiforge.acceptance import line_graph_distances

    ball = build_ball(Params(1, 3), 3)
    dist = line_graph_distances(ball.complex, ball.complex.root)
    for mid, w in ball.cell_words.items():
        assert dist[mid] == len(w.letters)
