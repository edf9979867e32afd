from __future__ import annotations

import pytest

from conftest import seeded_rep
from multiforge.complexes import (
    EMPTY_CELL,
    MComplex,
    Multicell,
    base_complex,
    check_consistency,
    check_morphism,
    find_isomorphism,
    from_json,
    from_simplicial,
    is_link_connected,
    is_lower_path_connected,
    link_components,
    link_with_map,
    merge_vertices,
    multiplicity,
    nerve,
    single_simplex,
    to_json,
    validate_structure,
)
from multiforge.gallery import m_subgroup_rep
from multiforge.quotient import build_quotient
from multiforge.universal import build_ball
from multiforge.words import Params

WEDGE = from_simplicial(Params(2, 2), [0, 1, 2, 1, 2], [(0, 1, 2), (0, 3, 4)])


def figure_two_complex(consistent: bool) -> MComplex:
    """Full 3-complex on four vertices with a doubled {0,1,3}-triangle and a
    doubled {0,1}-edge; the tetrahedron is glued to triangle copies whose
    edge gluings agree or disagree on the shared edge."""
    p = Params(3, 2)
    e01 = ((0, 1), 0)
    e01b = ((0, 1), 1)

    def edge(colors, verts, idx=0, zero_faces=None):
        faces = {
            colors[0]: ((colors[1],), 0),
            colors[1]: ((colors[0],), 0),
        }
        return Multicell(colors, idx, verts, faces)

    cells = {
        (0, 1): [edge((0, 1), (0, 1)), Multicell((0, 1), 1, (0, 1), {0: ((1,), 0), 1: ((0,), 0)})],
        (0, 2): [edge((0, 2), (0, 2))],
        (0, 3): [edge((0, 3), (0, 3))],
        (1, 2): [edge((1, 2), (1, 2))],
        (1, 3): [edge((1, 3), (1, 3))],
        (2, 3): [edge((2, 3), (2, 3))],
        (0, 1, 2): [
            Multicell((0, 1, 2), 0, (0, 1, 2), {2: e01, 1: ((0, 2), 0), 0: ((1, 2), 0)})
        ],
        (0, 1, 3): [
            Multicell((0, 1, 3), 0, (0, 1, 3), {3: e01, 1: ((0, 3), 0), 0: ((1, 3), 0)}),
            Multicell(
                (0, 1, 3),
                1,
                (0, 1, 3),
                {3: e01 if consistent else e01b, 1: ((0, 3), 0), 0: ((1, 3), 0)},
            ),
        ],
        (0, 2, 3): [
            Multicell((0, 2, 3), 0, (0, 2, 3), {3: ((0, 2), 0), 2: ((0, 3), 0), 0: ((2, 3), 0)})
        ],
        (1, 2, 3): [
            Multicell((1, 2, 3), 0, (1, 2, 3), {3: ((1, 2), 0), 2: ((1, 3), 0), 1: ((2, 3), 0)})
        ],
        (0, 1, 2, 3): [
            Multicell(
                (0, 1, 2, 3),
                0,
                (0, 1, 2, 3),
                {
                    3: ((0, 1, 2), 0),
                    2: ((0, 1, 3), 1),
                    1: ((0, 2, 3), 0),
                    0: ((1, 2, 3), 0),
                },
            )
        ],
    }
    return MComplex(p, [0, 1, 2, 3], cells)


def test_consistency_simplicial_always_passes():
    assert check_consistency(single_simplex(Params(3, 2))).ok
    assert check_consistency(WEDGE).ok


def test_consistency_dim_two_always_passes():
    for seed in range(5):
        rep = seeded_rep(2, 3, 10, seed)
        assert check_consistency(build_quotient(rep).complex).ok


def test_consistency_figure_two_cases():
    assert check_consistency(figure_two_complex(consistent=True)).ok
    bad = check_consistency(figure_two_complex(consistent=False))
    assert not bad.ok
    assert any("inconsistent gluing" in m for m in bad.messages)


def test_degree_examples():
    x = single_simplex(Params(3, 2))
    for cell in x.multicells(2):
        assert x.degree(cell.mid) == 1

    q = build_quotient(m_subgroup_rep(Params(2, 3)))
    for cell in q.complex.multicells(1):
        assert q.complex.degree(cell.mid) == 3

    ball = build_ball(Params(2, 2), 1)
    # 3 interior edges (the root triangle) and 2 fresh edges per new triangle
    degrees = sorted(ball.complex.degree(c.mid) for c in ball.complex.multicells(1))
    assert degrees == [1] * 6 + [2] * 3
    for cell in ball.complex.multicells(1):
        expected = 1 if cell.mid in ball.complex.boundary else 2
        assert ball.complex.degree(cell.mid) == expected


def test_link_of_empty_cell_is_whole_complex():
    x = single_simplex(Params(2, 2))
    lk, back = link_with_map(x, EMPTY_CELL)
    assert to_json(lk) == to_json(x)
    assert all(back[m] == m for m in back)


def test_link_of_vertex_in_simplex():
    x = single_simplex(Params(3, 2))
    lk = link_with_map(x, x.vertex_cell(0))[0]
    assert lk.params.d == 2
    assert lk.n_vertices == 3
    assert len(lk.top_cells()) == 1
    assert validate_structure(lk).ok


def test_link_of_root_vertex_in_ball():
    ball = build_ball(Params(2, 2), 1)
    x = ball.complex
    lk = link_with_map(x, x.vertex_cell(0))[0]
    # the link of a vertex of the universal (2,2)-complex is the 2-regular
    # tree; inside B_1 it shows up as a path on 4 vertices
    assert lk.params.d == 1
    assert lk.n_vertices == 4
    assert len(list(lk.multicells(1))) == 3
    assert is_lower_path_connected(lk, 1)


def test_link_involution_matches_union():
    rep = seeded_rep(3, 2, 8, 33)
    x = build_quotient(rep).complex
    vertex = x.vertex_cell(0)
    lk_a, back_a = link_with_map(x, vertex)
    inner: Multicell = next(lk_a.multicells(0))
    union_mid = back_a[inner.mid]  # a 1-multicell of x containing the vertex
    lk_ab, back_ab = link_with_map(x, union_mid)
    lk_nested, back_nested = link_with_map(lk_a, inner.mid)
    targets = {back_ab[m.mid] for m in lk_ab.multicells()}
    nested_targets = {back_a[back_nested[m.mid]] for m in lk_nested.multicells()}
    assert targets == nested_targets
    counts = lambda z: {cs: len(v) for cs, v in z.cells.items() if v}
    assert sorted(len(cs) for cs in counts(lk_ab)) == sorted(len(cs) for cs in counts(lk_nested))


def test_link_connected_examples():
    assert is_link_connected(single_simplex(Params(2, 2)))
    assert not is_link_connected(WEDGE)
    shared = WEDGE.vertex_cell(0)
    assert len(link_components(WEDGE, shared)) == 2
    for seed in range(5):
        q = build_quotient(seeded_rep(2, 2, 8, 100 + seed))
        assert is_link_connected(q.complex)


def test_link_connected_iff_links_lower_path_connected():
    for seed in range(20):
        d = 2 + seed % 2
        q = build_quotient(seeded_rep(d, 2, 8, 200 + seed))
        x = q.complex
        lhs = is_link_connected(x)
        rhs = True
        for cell in x.multicells():
            if 0 <= cell.dim <= x.d - 2:
                lk = link_with_map(x, cell.mid)[0]
                if not is_lower_path_connected(lk, x.d - cell.dim - 1):
                    rhs = False
        assert lhs == rhs == True  # quotients are always link-connected


def test_lower_path_connected_examples():
    x = single_simplex(Params(2, 2))
    assert is_lower_path_connected(x, 2)
    two = from_simplicial(Params(2, 2), [0, 1, 2, 0, 1, 2], [(0, 1, 2), (3, 4, 5)])
    assert not is_lower_path_connected(two, 2)
    assert not is_lower_path_connected(WEDGE, 2)
    with pytest.raises(ValueError):
        is_lower_path_connected(x, 0)


def test_nerve_examples():
    disjoint = [{0}, {1}, {2}]
    faces = nerve(disjoint)
    assert faces == frozenset({frozenset({0}), frozenset({1}), frozenset({2})})
    same = [{0, 1}, {0, 1}, {0, 1}]
    full = nerve(same)
    assert frozenset({0, 1, 2}) in full and len(full) == 7
    with pytest.raises(ValueError):
        nerve([set()])


def test_nerve_of_quotient_matches_base():
    from multiforge.quotient import nerve_matches_base

    q = build_quotient(seeded_rep(2, 3, 9, 77))
    assert nerve_matches_base(q)
    assert frozenset(next(q.complex.multicells(2)).vertices) in base_complex(q.complex)


def test_check_morphism_identity_and_color_swap():
    x = single_simplex(Params(2, 2))
    ident = {c.mid: c.mid for c in x.multicells()}
    assert check_morphism(ident, x, x).ok

    y = single_simplex(Params(2, 2))
    swap = {}
    for cell in x.multicells():
        swap[cell.mid] = cell.mid
    # color-swapping vertex bijection: remap vertex 0 <-> 1 at the 0-level
    swap[x.vertex_cell(0)] = y.vertex_cell(1)
    swap[x.vertex_cell(1)] = y.vertex_cell(0)
    report = check_morphism(swap, x, y)
    assert not report.ok
    assert any("color" in m for m in report.messages)


def test_multiplicity_and_merge():
    rep = seeded_rep(2, 2, 8, 300)
    x = build_quotient(rep).complex
    vs = [v for v in range(x.n_vertices) if x.vertex_colors[v] == 0]
    assert len(vs) >= 2
    merged = merge_vertices(x, vs[0], vs[1])
    assert validate_structure(merged).ok
    assert merged.n_vertices == x.n_vertices - 1
    with pytest.raises(ValueError):
        merge_vertices(x, vs[0], vs[0])


def test_json_round_trip_stable():
    for seed in (1, 5):
        x = build_quotient(seeded_rep(2, 3, 9, seed)).complex
        text = to_json(x)
        assert to_json(from_json(text)) == text


def test_validate_structure_flags_impurity():
    x = single_simplex(Params(2, 2))
    x.cells[(0, 1)].append(
        Multicell((0, 1), 1, (0, 1), {0: ((1,), 0), 1: ((0,), 0)})
    )
    x.invalidate_caches()
    report = validate_structure(x)
    assert not report.ok
    assert any("impure" in m or "cycle" in m for m in report.messages)


def test_find_isomorphism_detects_difference():
    a = build_quotient(seeded_rep(2, 2, 8, 41)).complex
    b = build_quotient(seeded_rep(2, 2, 8, 42)).complex
    assert find_isomorphism(a, a) is not None
    iso_ab = find_isomorphism(a, b)
    from multiforge.permrep import same_up_to_relabeling
    from multiforge.quotient import associated_subgroup_rep

    expected = same_up_to_relabeling(associated_subgroup_rep(a), associated_subgroup_rep(b))
    assert (iso_ab is not None) == expected


def test_from_simplicial_needs_one_vertex_per_color():
    colors = [0, 1, 2, 1]
    for bad in [(0, 1), (0, 1, 3), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match="one vertex of each color"):
            from_simplicial(Params(2, 2), colors, [(0, 1, 2), bad])


def test_find_isomorphism_needs_rooted_ordered_input():
    x = single_simplex(Params(2, 2))
    unordered = single_simplex(Params(2, 2))
    unordered.ordering = None
    assert find_isomorphism(x, x) is not None
    assert find_isomorphism(x, unordered) is None
    assert find_isomorphism(unordered, x) is None
