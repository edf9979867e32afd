from __future__ import annotations

import json
from itertools import combinations, permutations
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import seeded_rep
from multiforge.acceptance import _merge_fixture
from multiforge.complexes import (
    EMPTY_CELL,
    CellMap,
    Cells,
    Diagnostics,
    MComplex,
    MId,
    Multicell,
    base_complex,
    check_consistency,
    check_morphism,
    coface_counts,
    extend_down,
    find_isomorphism,
    from_json,
    from_json_dict,
    from_simplicial,
    is_link_connected,
    is_lower_path_connected,
    is_surjective,
    link_with_map,
    merge_vertices,
    nerve,
    ordering_faults,
    propagate_from_root,
    single_simplex,
    to_json,
    top_faces,
    validate_structure,
)
from multiforge.gallery import coxeter_complex, flag_complex, m_subgroup_rep
from multiforge.lcc import link_connected_cover, verify_universality
from multiforge.permrep import evaluate
from multiforge.quotient import analyze, associated_subgroup_rep, build_quotient, quotient_map
from multiforge.universal import ball_from_cosets, build_ball
from multiforge.words import Params
from rigidity_oracles import check_morphism_oracle, propagate_oracle, validate_structure_oracle

WEDGE = from_simplicial(Params(2, 2), [0, 1, 2, 1, 2], [(0, 1, 2), (0, 3, 4)])


def figure_two_complex(consistent: bool) -> MComplex:
    """Full 3-complex on four vertices with a doubled {0,1,3}-triangle and a
    doubled {0,1}-edge; the tetrahedron is glued to triangle copies whose
    edge gluings agree or disagree on the shared edge.  Vertex v has color
    v, and every other facet is copy 0."""
    columns = {J: (list(J), [0] * len(J)) for size in (2, 3) for J in combinations(range(4), size)}
    columns[(0, 1)] = ([0, 1, 0, 1], [0, 0, 0, 0])
    # the second {0,1,3}-triangle drops color 3 to edge copy 0 or 1
    columns[(0, 1, 3)] = ([0, 1, 3, 0, 1, 3], [0, 0, 0, 0, 0, 0 if consistent else 1])
    columns[(0, 1, 2, 3)] = ([0, 1, 2, 3], [0, 0, 1, 0])  # drops color 2 to triangle copy 1
    cells = {J: Cells(J, *cols) for J, cols in columns.items()}
    return MComplex(Params(3, 2), [0, 1, 2, 3], cells)


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
    assert all(coface_counts(x)[J] == [1] for J in combinations(range(4), 3))

    q = build_quotient(m_subgroup_rep(Params(2, 3)))
    assert all(set(coface_counts(q.complex)[J]) == {3} for J in combinations(range(3), 2))

    x = build_ball(Params(2, 2), 1).complex
    # 3 interior edges (the root triangle) and 2 fresh edges per new triangle
    counts = coface_counts(x)
    degrees = {(J, i): c for J in combinations(range(3), 2) for i, c in enumerate(counts[J])}
    assert sorted(degrees.values()) == [1] * 6 + [2] * 3
    assert degrees == {mid: 1 if mid in x.boundary else 2 for mid in degrees}


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
    assert len(lk.cells[(0, 1, 2)]) == 1
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


def test_link_of_cell_in_no_top_is_refused():
    x = impure_simplex(Params(3, 2))
    with pytest.raises(ValueError, match=r"\(\(0, 1\), 1\) lies in no top cell"):
        link_with_map(x, ((0, 1), 1))


def test_link_of_a_missing_cell_is_refused():
    x = single_simplex(Params(3, 2))
    for mid in (((0, 1), 1), ((0, 1), -1), ((0, 5), 0)):
        with pytest.raises(KeyError, match="no multicell"):
            link_with_map(x, mid)


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
    assert len(gluing_oracle(WEDGE)[2][shared]) == 2
    assert not is_lower_path_connected(link_with_map(WEDGE, shared)[0], 1)
    for seed in range(5):
        q = build_quotient(seeded_rep(2, 2, 8, 100 + seed))
        assert is_link_connected(q.complex)


def links_lower_path_connected(x: MComplex) -> bool:
    return all(
        is_lower_path_connected(link_with_map(x, cell.mid)[0], x.d - cell.dim - 1)
        for cell in x.multicells()
        if cell.dim <= x.d - 2
    )


def test_link_connected_iff_links_lower_path_connected():
    for seed in range(20):
        d = 2 + seed % 2
        x = build_quotient(seeded_rep(d, 2, 8, 200 + seed)).complex
        # quotients are always link-connected
        assert is_link_connected(x) and links_lower_path_connected(x)
    for x in [WEDGE] + [_merge_fixture(t)[1] for t in range(10)]:
        assert not is_link_connected(x)
        assert not links_lower_path_connected(x)


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


@pytest.mark.parametrize("edit, message", [
    ("cycle", "((1, 2), 0): ordering cycle lists ((0, 1, 2), 99), missing in domain"),
    ("facet", "((0, 1, 2), 5): facet ((1, 2), -1) missing in domain"),
    ("vertex", "((0, 1), 0): image is not induced by the vertex map"),
    ("root", "root ((0, 1, 2), 99) missing in domain"),
], ids=["cycle", "facet", "vertex", "root"])
def test_check_morphism_names_a_cell_missing_in_the_domain(edit, message):
    """A domain whose ordering cycle, faces column, vertex row or root
    names no cell gets a message from `check_morphism`, the oracle's, not
    a KeyError."""
    y = build_quotient(seeded_rep(2, 3, 12, 1)).complex
    x, f = from_json(to_json(y)), {mid: mid for mid in y.mids()}
    if edit == "cycle":
        x.ordering[(1, 2)][0].append(99)
    elif edit == "facet":
        x.cells[(0, 1, 2)].faces[5 * 3] = -1
    elif edit == "vertex":
        x.cells[(0, 1)].vertices[0] = 50
    else:
        x.root = ((0, 1, 2), 99)
    report = check_morphism(f, x, y)
    assert report == check_morphism_oracle(f, x, y) == Diagnostics(False, [message])


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


def test_merge_refuses_vertex_ids_out_of_range():
    """A negative id would index the vertex colors from the end, and so
    merge another vertex; one past the last would raise IndexError."""
    x = build_quotient(seeded_rep(2, 2, 12, 1)).complex
    assert x.vertex_colors == [0, 1, 1, 2, 2, 2]
    for v_keep, v_gone in [(-1, 3), (0, 6)]:
        with pytest.raises(ValueError, match=r"vertex ids must lie in 0\.\.5"):
            merge_vertices(x, v_keep, v_gone)


def test_merge_of_unordered_complex_stays_unordered():
    x = flag_complex(4, 2)
    assert x.ordering is None
    merged = merge_vertices(x, 0, 1)
    assert merged.ordering is None
    assert validate_structure(merged).ok


def test_rotated_boundary_cycle_survives_link_and_merge():
    """A cycle that does not start at its smallest coface, on a facet
    flagged as boundary, is carried over as it stands."""
    x = build_quotient(m_subgroup_rep(Params(2, 3))).complex
    facet = x.cell(((0, 1), 0))
    cycle = x.ordering[(0, 1)][0]
    rotated = cycle[1:] + cycle[:1]
    assert rotated != sorted(rotated)
    x.ordering[(0, 1)][0] = rotated
    x.boundary = frozenset({facet.mid})

    merged = merge_vertices(x, 6, 7)  # two vertices of color 2
    assert merged.cycle(facet.mid) == rotated
    assert merged.boundary == {facet.mid}

    lk, back = link_with_map(x, x.vertex_cell(facet.vertices[0]))
    (lid,) = [m for m, orig in back.items() if orig == facet.mid]
    assert [back[((0, 1), t)] for t in lk.cycle(lid)] == [((0, 1, 2), t) for t in rotated]
    assert lk.boundary == {lid}


def test_json_round_trip_stable():
    for seed in (1, 5):
        x = build_quotient(seeded_rep(2, 3, 9, seed)).complex
        text = to_json(x)
        assert to_json(from_json(text)) == text


def assert_round_trip(x: MComplex) -> None:
    text = to_json(x)
    again = from_json(text)
    assert to_json(again) == text
    assert validate_structure(again).ok


JSON_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@JSON_PROPERTY
@given(
    d=st.integers(1, 3),
    k=st.integers(2, 4),
    m=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    merges=st.lists(st.integers(0, 10**6), max_size=2),
)
def test_json_round_trip_of_quotients(d, k, m, seed, merges):
    """Seeded quotients on m*k points, with 0-2 vertex identifications
    where d >= 2 allows them."""
    x = build_quotient(seeded_rep(d, k, m * k, seed)).complex
    for pick in merges:
        colors = [c for c in range(d + 1) if x.vertex_colors.count(c) >= 2]
        assume(d >= 2 and colors)
        vs = [v for v in range(x.n_vertices) if x.vertex_colors[v] == colors[pick % len(colors)]]
        x = merge_vertices(x, vs[pick % len(vs)], vs[(pick + 1) % len(vs)])
    assert_round_trip(x)


@JSON_PROPERTY
@given(d=st.integers(1, 3), k=st.integers(2, 4), radius=st.integers(0, 2), cosets=st.booleans())
def test_json_round_trip_of_balls(d, k, radius, cosets):
    ball = (ball_from_cosets if cosets else build_ball)(Params(d, k), radius)
    assert ball.complex.boundary  # the cut-off facets are written too
    assert_round_trip(ball.complex)


def impure_simplex(params: Params = Params(2, 2)) -> MComplex:
    """A simplex plus a second copy of its (0,1)-edge with no coface."""
    x = single_simplex(params)
    x.cells[(0, 1)].vertices.extend([0, 1])
    x.cells[(0, 1)].faces.extend([0, 0])
    return x


def test_validate_structure_flags_impurity():
    report = validate_structure(impure_simplex())
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


# -- brute-force oracle for the gluing checks ------------------------------------


def faces_by_every_order(x: MComplex, mid) -> dict[tuple[int, ...], set]:
    """Each nonempty color subset of `mid`, mapped to the set of faces
    reached by dropping the other colors in every order.  A walk stops at
    a facet index that names no cell, which it records."""
    reached = {mid[0]: {mid}}
    for order in permutations(mid[0]):
        face = mid
        for t, l in enumerate(order[:-1]):
            if not x.has_cell(face):
                break
            face = x.cell(face).faces[l]
            reached.setdefault(tuple(sorted(order[t + 1 :])), set()).add(face)
    return reached


def face(x: MComplex, mid, colors):
    """The face of `mid` with the given colors, reached facet by facet by
    dropping the other colors in ascending order."""
    for l in (l for l in mid[0] if l not in colors):
        mid = x.cell(mid).faces[l]
    return mid


def gluing_oracle(x: MComplex):
    """(consistent, up sets, link components) computed from
    `faces_by_every_order`.  The up set of a multicell lists the
    multicells that reach it in some dropping order; a face that names
    no cell has none and makes x inconsistent.  The link components are
    None when x is inconsistent."""
    reached = {mid: faces_by_every_order(x, mid) for mid in x.mids()}
    up: dict = {m: [] for m in reached}
    for big in reached:
        for small in set().union(*reached[big].values()) - {big}:
            if small in up:
                up[small].append(big)
    if any(len(faces) > 1 or not x.has_cell(min(faces))
           for faces_of in reached.values() for faces in faces_of.values()):
        return False, up, None
    down = {m: {colors: min(faces) for colors, faces in faces_of.items()}
            for m, faces_of in reached.items()}
    links = {}
    for mid, above in up.items():
        if len(mid[0]) > x.d - 1:
            continue
        own = set(mid[0])
        comp = {m: {m} for m in above if len(m[0]) == len(mid[0]) + 1}
        for s in above:
            if len(s[0]) == len(mid[0]) + 2:
                a, b = (tuple(sorted(own | {c})) for c in set(s[0]) - own)
                merged = comp[down[s][a]] | comp[down[s][b]]
                for m in merged:
                    comp[m] = merged
        links[mid] = sorted({tuple(sorted(g)) for g in comp.values()})
    return True, up, links


def seeded_quotient(d: int, k: int, n: int, seed: int):
    return lambda: build_quotient(seeded_rep(d, k, n, seed)).complex


ORACLE_CORPUS = {
    **{
        f"quotient-{d}-{k}-{n}-{seed}": seeded_quotient(d, k, n, seed)
        for d, k, n in [(1, 3, 12), (2, 3, 12), (3, 2, 10), (4, 2, 6)]
        for seed in (1, 2, 3)
    },
    **{f"merged-{t}": (lambda t=t: _merge_fixture(t)[1]) for t in range(10)},
    "wedge": lambda: WEDGE,
    "ball-2-3-r2": lambda: build_ball(Params(2, 3), 2).complex,
    "coset-ball-2-3-r2": lambda: ball_from_cosets(Params(2, 3), 2).complex,
    "flag-4-2": lambda: flag_complex(4, 2),
    "coxeter-B2": lambda: coxeter_complex([(1, 0, 3, 2), (0, 2, 1, 3)])[0],
    "figure-two-consistent": lambda: figure_two_complex(consistent=True),
    "figure-two-inconsistent": lambda: figure_two_complex(consistent=False),
    "impure": impure_simplex,
}


def lower_path_oracle(x: MComplex, j: int) -> bool:
    """Breadth-first search over the j-multicells from the first, stepping
    between two that name the same existing facet."""
    cells = list(x.mids(j))
    sharing: dict = {}
    for m in cells:
        for b in filter(x.has_cell, x.facets(m)):
            sharing.setdefault(b, []).append(m)
    seen, queue = set(cells[:1]), cells[:1]
    while queue:
        for b in x.facets(queue.pop()):
            for m in sharing.get(b, ()):
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
    return len(seen) == len(cells)


def assert_gluing_matches_oracle(x: MComplex) -> bool:
    for j in range(1, x.d + 1):
        assert is_lower_path_connected(x, j) == lower_path_oracle(x, j), j
    consistent, up, links = gluing_oracle(x)
    assert check_consistency(x).ok == consistent
    if not consistent:
        return False
    full = tuple(x.params.colors)
    for cell in x.multicells():
        tops = [t for t, f in enumerate(top_faces(x, cell.colors)) if f == cell.index]
        assert [(full, t) for t in tops] == sorted(m for m in [cell.mid, *up[cell.mid]]
                                                   if m[0] == full)
    assert is_link_connected(x) == all(len(c) <= 1 for c in links.values())
    return True


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_gluing_checks_match_brute_force(name):
    x = ORACLE_CORPUS[name]()
    assert assert_gluing_matches_oracle(x) == (name != "figure-two-inconsistent")


@pytest.mark.parametrize("name", ["wedge", "merged-0", "quotient-3-2-10-1", "flag-4-2"])
def test_link_cells_match_brute_force(name):
    """Every link multicell maps back to a cell over the base, and its
    vertices and facets map to that cell's faces by every dropping order."""
    x = ORACLE_CORPUS[name]()
    _, up, _ = gluing_oracle(x)
    for base in x.multicells():
        if base.dim > x.d - 2:
            continue
        own = base.colors
        lk, back = link_with_map(x, base.mid)
        assert sorted(back.values()) == sorted(up[base.mid])
        for cell in lk.multicells():
            orig = back[cell.mid]
            extra = [c for c in orig[0] if c not in own]
            reached = faces_by_every_order(x, orig)
            for t, v in enumerate(cell.vertices):
                assert reached[tuple(sorted(own + (extra[t],)))] == {back[lk.vertex_cell(v)]}
            for l, facet in cell.faces.items():
                dropped = extra[cell.colors.index(l)]
                assert reached[tuple(c for c in orig[0] if c != dropped)] == {back[facet]}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 3), k=st.integers(2, 3), m=st.integers(1, 4),
       seed=st.integers(0, 10**6), data=st.data())
def test_repointed_facet_matches_brute_force(d, k, m, seed, data):
    """Re-point one facet of a small quotient to another multicell of the
    same color set; the checks still agree with the oracle."""
    x = build_quotient(seeded_rep(d, k, m * k, seed)).complex
    repoint_facet(x, data, lambda n: st.integers(0, n - 1))
    assert_gluing_matches_oracle(x)


def repoint_facet(x: MComplex, data, index) -> MId:
    """Point the facet of a drawn multicell that drops a drawn color to the
    cell index drawn from `index(n)`, n the size of the facet's color set,
    by editing the faces column.  Returns the old facet."""
    colors, i = data.draw(st.sampled_from([m for m in x.mids() if len(m[0]) >= 2]))
    p = colors.index(data.draw(st.sampled_from(colors)))
    sub = colors[:p] + colors[p + 1 :]
    old = (sub, x.cells[colors].faces[i * len(colors) + p])
    x.cells[colors].faces[i * len(colors) + p] = data.draw(index(len(x.cells[sub])))
    return old


def extension_oracle(f: dict, x: MComplex, y: MComplex, tops: list) -> dict:
    """Every face reached from a top of `tops` by dropping colors in some
    order, mapped to the set of its images: the face of f[top] reached by
    dropping the same colors in the same order.  On a consistent complex
    this is the face of each color subset S, face(x, top, S) -> face(y, f[top], S)."""
    images: dict = {}
    for top in tops:
        for order in permutations(top[0]):
            a, b = top, f[top]
            for l in order[:-1]:
                a, b = x.cell(a).faces[l], y.cell(b).faces[l]
                images.setdefault(a, set()).add(b)
    return images


EXTENSIONS = ["quotient-map", "cover", "merged-cover", "ball-isomorphism"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 3), seed=st.integers(0, 10**6),
       case=st.sampled_from(EXTENSIONS), repoint=st.sampled_from([None, "domain", "codomain"]),
       data=st.data())
def test_extend_down_matches_brute_force(d, k, m, seed, case, repoint, data):
    """A map fixed on the top cells of a radius-2 ball into a quotient, of a
    cover (of a quotient, or of one with two vertices merged) onto its base,
    or of the coset ball onto the inductive one, maybe with one facet
    re-pointed in either complex.  `extend_down` of the tops' image column
    returns a CellMap iff no face gets two images by `extension_oracle`,
    and then it is f on the tops and the oracle's map below; otherwise the
    cell it names gets two."""
    p, full = Params(d, k), tuple(range(d + 1))
    if case == "quotient-map":
        rep, ball = seeded_rep(d, k, m * k, seed), build_ball(p, 2)
        x, y = ball.complex, build_quotient(rep).complex
        f = {top: (full, evaluate(w, rep.root, rep)) for top, w in ball.cell_words.items()}
    elif case == "ball-isomorphism":
        x, y = ball_from_cosets(p, 2).complex, build_ball(p, 2).complex
        f = {top: img for top, img in find_isomorphism(x, y).items() if len(top[0]) == d + 1}
    else:
        y = build_quotient(seeded_rep(d, k, m * k, seed)).complex
        if case == "merged-cover":
            assume(d >= 2 and len(y.cells[(0,)]) >= 2)
            y = merge_vertices(y, *y.cells[(0,)].vertices[:2])
        x, f = link_connected_cover(y)[0], {top: top for top in y.mids(d)}
    if repoint is not None:
        repoint_facet(x if repoint == "domain" else y, data, lambda n: st.integers(0, n - 1))
    tops = sorted(f)
    assert tops == list(x.mids(d))
    oracle = extension_oracle(f, x, y, tops)
    g = extend_down([f[top][1] for top in tops], x, y)
    doubled = {a for a, images in oracle.items() if len(images) > 1}
    if doubled:
        assert g in doubled
    else:
        assert isinstance(g, CellMap)
        assert g == {**f, **{a: min(images) for a, images in oracle.items()}}


def test_malformed_gluing_is_reported_not_raised():
    """A facet index with no cell behind it.  The columns give every facet
    the other colors, so a miskeyed facet or one of the wrong colors cannot
    be held."""
    x = single_simplex(Params(2, 2))
    x.cells[(0, 1, 2)].faces[2] = 5  # the facet that drops color 2
    message = "dangling gluing reference ((0, 1), 5) from ((0, 1, 2), 0)"
    for report in (check_consistency(x), validate_structure(x)):
        assert not report.ok and message in report.messages


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 3), m=st.integers(1, 4),
       seed=st.integers(0, 10**6), edit=st.sampled_from(["none", "repoint", "dangle"]),
       data=st.data())
def test_coface_index_matches_columns(d, k, m, seed, edit, data):
    """On a small quotient, as built or with one facet re-pointed or left
    dangling: `coface_counts` gives each multicell the size of its brute-
    force up set one dimension up (`gluing_oracle`), a dangling facet index
    left out, not raised; `top_faces` agrees with the facet-by-facet walk
    `face`, and raises KeyError where that walk does; and `cell(mid)` is a
    read-only view that agrees with the columns."""
    x = build_quotient(seeded_rep(d, k, m * k, seed)).complex
    if edit == "repoint":
        repoint_facet(x, data, lambda n: st.integers(0, n - 1))
    if edit == "dangle":
        repoint_facet(x, data, lambda n: st.sampled_from([-1, n, n + 3]))
    _, up, _ = gluing_oracle(x)
    counts = coface_counts(x)
    assert counts == {J: [sum(len(m[0]) == len(J) + 1 for m in up[(J, i)])
                          for i in range(len(x.cells[J]))] for J in x.cells}
    pairs = sum(len(c.faces) for c in x.cells.values())
    assert sum(map(sum, counts.values())) == pairs - (edit == "dangle")
    for mid in x.mids():
        (colors, i), size = mid, len(mid[0])
        column = x.cells[colors]
        cell = x.cell(mid)
        assert cell.mid == mid
        assert cell.vertices == tuple(column.vertices[i * size : (i + 1) * size])
        assert dict(cell.faces) == {
            l: (colors[:p] + colors[p + 1 :], column.faces[i * size + p])
            for p, l in enumerate(colors if size >= 2 else ())
        }
    full = tuple(range(d + 1))
    for J in (J for size in range(1, d + 2) for J in combinations(full, size)):
        try:
            expected = [face(x, (full, t), J)[1] for t in range(len(x.cells[full]))]
        except KeyError:  # the walk goes through the dangling facet
            with pytest.raises(KeyError, match="no multicell"):
                top_faces(x, J)
        else:
            assert top_faces(x, J) == expected
    view = x.cell(x.root)
    with pytest.raises(TypeError):
        view.faces[0] = view.faces[1]
    with pytest.raises(AttributeError):
        view.index = 1


def test_queries_see_a_column_edit_at_once():
    """Cofaces are read off the columns at each query, with nothing cached:
    after `coface_counts`, `top_faces` and `analyze` have run, re-pointing
    one top's facet to another edge on the same vertices (the gluing stays
    consistent) shows in the next answer of each."""
    x = build_quotient(seeded_rep(2, 3, 12, 1)).complex
    full, J = (0, 1, 2), (0, 1)
    rows = list(x.cells[J].rows())
    t, a = 0, x.cells[full].faces[2]  # top 0 drops color 2 to edge a
    b = next(b for b, row in enumerate(rows) if row == rows[a] and b != a)
    counts, report = coface_counts(x)[J], analyze(x)
    assert top_faces(x, J)[t] == a
    x.cells[full].faces[t * 3 + 2] = b
    after = coface_counts(x)[J]
    assert (after[a], after[b]) == (counts[a] - 1, counts[b] + 1)
    assert top_faces(x, J)[t] == b
    assert analyze(x) == analyze(from_json(to_json(x))) != report


def test_cycle_is_none_off_the_cells():
    """`cycle` answers None for an index outside 0..n-1, as `has_cell` says
    no such cell exists; a -1 facet then stops root propagation with a
    reason instead of borrowing the last cell's cycle."""
    x = build_quotient(seeded_rep(2, 3, 12, 1)).complex
    J = (0, 1)
    n = len(x.cells[J])
    assert [x.cycle((J, i)) for i in range(n)] == x.ordering[J]
    for i in (-1, -n, n, n + 3):
        assert not x.has_cell((J, i)) and x.cycle((J, i)) is None
    y = from_json(to_json(x))
    x.cells[(0, 1, 2)].faces[x.root[1] * 3 + 2] = -1
    assert propagate_from_root(x, y) == (None, f"cycle length mismatch at {(J, -1)}")


def test_roots_of_other_colors_or_of_no_cell_are_refused_with_a_reason():
    """Roots of different colors, or a root that names no cell on either
    side, stop root propagation with a one-line reason: `find_isomorphism`
    returns None and `verify_universality` refuses with that reason."""
    q = build_quotient(seeded_rep(2, 3, 12, 1)).complex
    ident, n = {mid: mid for mid in q.mids()}, len(q.cells[(0, 1, 2)])
    for root, rerooted_first, reason in [
        (((0, 1), 0), False, f"roots {q.root} and {((0, 1), 0)} differ in colors"),
        (((0, 1), 0), True, f"roots {((0, 1), 0)} and {q.root} differ in colors"),
        (((0, 1, 2), n), False, f"root {((0, 1, 2), n)} names no multicell"),
        (((0, 1), -1), True, f"root {((0, 1), -1)} names no multicell"),
    ]:
        rerooted = from_json(to_json(q))
        rerooted.root = root
        x, y = (rerooted, q) if rerooted_first else (q, rerooted)
        assert propagate_from_root(x, y) == (None, reason)
        assert find_isomorphism(x, y) is None
        assert verify_universality(x, ident, y, ident) == (False, None, reason)


CYCLE_EDITS = ["none", "rotate", "drop", "stranger", "repeat", "replace", "swap", "no-cycle", "dangle"]


def edit_cycle(x: MComplex, edit: str, data) -> tuple[tuple[int, ...], int | None]:
    """Apply one of CYCLE_EDITS to a drawn ordering cycle of x, or, for
    "dangle", point one top's facet of the drawn color set at no cell.
    Returns the color set and the dangling facet index (None if none)."""
    full = tuple(range(x.d + 1))
    J = data.draw(st.sampled_from(sorted(x.ordering)))
    i = data.draw(st.integers(0, len(x.ordering[J]) - 1))
    cyc, n = x.ordering[J][i], len(x.cells[full])
    if edit == "rotate":
        x.ordering[J][i] = cyc[1:] + cyc[:1]
    elif edit == "drop":
        del cyc[data.draw(st.integers(0, len(cyc) - 1))]
    elif edit == "stranger":
        strangers = [t for t in range(n) if t not in cyc] or [n]
        cyc.insert(data.draw(st.integers(0, len(cyc))), data.draw(st.sampled_from(strangers)))
    elif edit == "repeat":
        cyc.insert(data.draw(st.integers(0, len(cyc))), data.draw(st.sampled_from(cyc)))
    elif edit == "replace":
        t = data.draw(st.integers(0, len(cyc) - 1))
        cyc[t] = data.draw(st.sampled_from([s for s in cyc if s != cyc[t]] + [n]))
    elif edit == "swap":
        j = data.draw(st.sampled_from([j for j in range(len(x.ordering[J])) if j != i] or [i]))
        assume(j != i and cyc and x.ordering[J][j])
        cyc[0], x.ordering[J][j][0] = x.ordering[J][j][0], cyc[0]
    elif edit == "no-cycle":
        x.ordering[J][i] = None
    elif edit == "dangle":
        (missing,) = set(full) - set(J)
        top = data.draw(st.integers(0, n - 1))
        f = data.draw(st.sampled_from([-1, len(x.cells[J]), len(x.cells[J]) + 3]))
        x.cells[full].faces[top * (x.d + 1) + missing] = f
        return J, f
    return J, None


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4),
       seed=st.integers(0, 10**6), edit=st.sampled_from(CYCLE_EDITS), data=st.data())
def test_one_audit_reads_the_generator_action(d, k, m, seed, edit, data):
    """One edit to one ordering cycle of a small quotient, or one top's
    facet left dangling.  A replace trades one entry for a stranger or
    another entry of the cycle, keeping the count; a swap trades an entry
    with another cycle of its color set, so every top is still listed once
    but one is not in its own facet's cycle.  `associated_subgroup_rep`
    raises iff `ordering_faults` reports a fault, with that fault's text,
    and then `validate_structure` fails too; without a fault it builds the
    rep without running the audit, and a rotated cycle gives the same rep;
    and the reader keeps the document's own `cycles` lists."""
    x = build_quotient(seeded_rep(d, k, m * k, seed)).complex
    before = associated_subgroup_rep(x)
    J, f = edit_cycle(x, edit, data)
    faults = list(ordering_faults(x))
    assert bool(faults) == (edit not in ("none", "rotate"))
    if edit == "dangle":
        assert faults[0] == f"the facet {(J, f)} has no ordering cycle"
    if faults:
        with pytest.raises(ValueError) as raised:
            associated_subgroup_rep(x)
        assert str(raised.value) == faults[0]
        assert not validate_structure(x)
    else:
        with patch("multiforge.quotient.ordering_faults", side_effect=AssertionError("audit ran")):
            assert associated_subgroup_rep(x) == before
    doc = json.loads(to_json(x))
    y = from_json_dict(doc)
    assert all(y.ordering[tuple(rec["colors"])] is rec["cycles"] for rec in doc["ordering"])
    assert sorted(y.ordering) == sorted(x.ordering)


def map_or_none(fn, *args):
    """The map fn(*args) returns, or None if it returns none or raises."""
    try:
        return fn(*args)[0]
    except (KeyError, ValueError):
        return None


PROPAGATION_CASES = ["ball-isomorphism", "ball-to-quotient", "rerooted-quotient", "cover-to-merged",
                     "merged", "cycle-edit"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4), seed=st.integers(0, 10**6),
       case=st.sampled_from(PROPAGATION_CASES), edit=st.sampled_from(CYCLE_EDITS),
       side=st.sampled_from(["domain", "codomain", "both"]), data=st.data())
def test_propagation_matches_the_per_cycle_oracle(d, k, m, seed, case, edit, side, data):
    """Root propagation over successor columns gives the map of the
    per-cycle walk, or None where the walk gives None or raises: coset
    balls against inductive ones either way, a ball into a quotient, a
    quotient into a copy rerooted at a drawn top, a cover onto its quotient
    with two vertices merged and the merged complex onto itself, and a
    quotient with one of CYCLE_EDITS in the domain, the codomain or both."""
    p = Params(d, k)
    q = build_quotient(seeded_rep(d, k, m * k, seed)).complex
    if case == "ball-isomorphism":
        x, y = ball_from_cosets(p, data.draw(st.integers(0, 3))).complex, build_ball(p, 3).complex
        x, y = (x, y) if side == "domain" else (y, x)
    elif case == "ball-to-quotient":
        x, y = build_ball(p, data.draw(st.integers(0, 3))).complex, q
    elif case == "rerooted-quotient":
        x, y = q, from_json(to_json(q))
        y.root = (y.root[0], data.draw(st.integers(0, len(y.cells[y.root[0]]) - 1)))
    elif case in ("cover-to-merged", "merged"):
        assume(d >= 2 and len(q.cells[(0,)]) >= 2)
        y = merge_vertices(q, *q.cells[(0,)].vertices[:2])
        x = link_connected_cover(y)[0] if case == "cover-to-merged" else from_json(to_json(y))
    else:
        x, y = q, from_json(to_json(q))
        for z in ([x] if side == "domain" else [y] if side == "codomain" else [x, y]):
            edit_cycle(z, edit, data)
    assert map_or_none(propagate_from_root, x, y) == map_or_none(propagate_oracle, x, y)


MAP_EDITS = ["none", "missing-key", "wrong-colors", "out-of-range", "wrong-facet-image",
             "wrong-root", "rotated-tops"]


def corrupt_map(f: dict, y: MComplex, edit: str, mid: MId, data) -> None:
    """Apply one of MAP_EDITS to the map f into y, at the cell `mid` where
    the edit names a cell."""
    full, colors, n = tuple(range(y.d + 1)), mid[0], len(y.cells[mid[0]])
    if edit == "missing-key":
        del f[mid]
    elif edit == "wrong-colors":
        f[mid] = (data.draw(st.sampled_from(sorted(J for J in y.cells if J != colors))), mid[1])
    elif edit == "out-of-range":
        f[mid] = (colors, data.draw(st.sampled_from([-1, n, n + 2])))
    elif edit == "wrong-facet-image":
        f[mid] = (colors, data.draw(st.integers(0, n - 1)))
    elif edit == "wrong-root":
        y.root = (full, data.draw(st.integers(0, len(y.cells[full]) - 1)))
    elif edit == "rotated-tops":
        tops = [t for t in sorted(f) if t[0] == full]
        shift = data.draw(st.integers(1, len(tops)))
        images = [f[t] for t in tops]
        f.update(zip(tops, images[shift:] + images[:shift]))


def library_map(d: int, k: int, m: int, seed: int, case: str,
                data) -> tuple[MComplex, MComplex, CellMap]:
    """A complex x, a complex y and the library's map from x to y: the
    identity of a quotient (`find_isomorphism` of it and its copy), a ball's
    quotient map, the coset ball onto the inductive one, a cover's
    projection onto a quotient with two vertices merged, or, for "impure",
    the propagation from a quotient with one vertex added into the quotient,
    undefined at that vertex."""
    p = Params(d, k)
    q = build_quotient(seeded_rep(d, k, m * k, seed))
    if case in ("identity", "impure"):
        x, y = from_json(to_json(q.complex)), q.complex
        if case == "impure":
            x.cells[(0,)].vertices.append(x.n_vertices)
            x.vertex_colors.append(0)
            f, _ = propagate_from_root(x, y)
            assert f.columns[(0,)][-1] is None
            return x, y, f
        return x, y, find_isomorphism(x, y)
    if case == "quotient-map":
        ball = build_ball(p, data.draw(st.integers(0, 2)))
        return ball.complex, q.complex, quotient_map(ball, q)
    if case == "ball-isomorphism":
        radius = data.draw(st.integers(0, 2))
        x, y = ball_from_cosets(p, radius).complex, build_ball(p, radius).complex
        return x, y, find_isomorphism(x, y)
    assume(d >= 2 and len(q.complex.cells[(0,)]) >= 2)
    y = merge_vertices(q.complex, *q.complex.cells[(0,)].vertices[:2])
    cover, proj = link_connected_cover(y)
    return cover, y, proj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4), seed=st.integers(0, 10**6),
       case=st.sampled_from(["identity", "quotient-map", "ball-isomorphism", "cover"]),
       edit=st.sampled_from(MAP_EDITS), second=st.sampled_from(MAP_EDITS),
       cycle_edit=st.sampled_from([None, *CYCLE_EDITS]),
       side=st.sampled_from(["domain", "codomain"]), data=st.data())
def test_check_morphism_matches_the_per_cell_oracle(d, k, m, seed, case, edit, second, cycle_edit,
                                                    side, data):
    """A valid map (the identity of a quotient, a ball's quotient map, the
    coset ball onto the inductive one, a cover's projection) with two
    corruptions at two cells, often of one color set, and maybe one of
    CYCLE_EDITS in the domain or codomain: `check_morphism` by columns
    gives the oracle's Diagnostics, the same messages in the same order;
    neither raises."""
    x, y, f = library_map(d, k, m, seed, case, data)
    f = dict(f)  # a copy that corrupt_map can edit
    first = data.draw(st.sampled_from(sorted(f)))
    others = [mid for mid in sorted(f) if mid != first]
    same = [mid for mid in others if mid[0] == first[0]]
    others = same if same and data.draw(st.booleans()) else others
    corrupt_map(f, y, edit, first, data)
    if others:
        corrupt_map(f, y, second, data.draw(st.sampled_from(others)), data)
    if cycle_edit is not None:
        edit_cycle(x if side == "domain" else y, cycle_edit, data)
    assert check_morphism(f, x, y) == check_morphism_oracle(f, x, y)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4), seed=st.integers(0, 10**6),
       case=st.sampled_from(["identity", "quotient-map", "ball-isomorphism", "cover", "impure"]),
       cycle_edit=st.sampled_from(CYCLE_EDITS), side=st.sampled_from(["domain", "codomain"]),
       data=st.data())
def test_cell_map_reads_as_its_dict_copy(d, k, m, seed, case, cycle_edit, side, data):
    """Each map the library returns is a CellMap equal to its dict copy,
    iterated in `mids()` order, and it answers `get`, `in` and `len` as the
    copy does; a cell where it is undefined, an index out of range and a
    color set it has no column for raise KeyError.  `check_morphism` and
    `is_surjective` read it as they read the copy, before and after one of
    CYCLE_EDITS in the domain or codomain."""
    x, y, f = library_map(d, k, m, seed, case, data)
    copy = dict(f)
    assert isinstance(f, CellMap) and f == copy and copy == f and len(f) == len(copy)
    assert list(f) == list(copy) == [mid for mid in x.mids() if mid in copy]
    missing = [mid for mid in x.mids() if mid not in copy]
    assert (case == "impure") == bool(missing)
    wrong = [(J, i) for J, cells in x.cells.items() for i in (-1, len(cells), len(cells) + 2)]
    wrong += [(tuple(range(d + 2)), 0), ((), 0), ((0,), "0"), "not a cell"]
    for mid in [*x.mids(), *wrong]:
        assert f.get(mid) == copy.get(mid) and (mid in f) == (mid in copy)
    for mid in missing + wrong:
        with pytest.raises(KeyError):
            f[mid]
    for edit in (None, cycle_edit):
        if edit is not None:
            edit_cycle(x if side == "domain" else y, edit, data)
        assert check_morphism(f, x, y) == check_morphism(copy, x, y)
        assert is_surjective(f, y) == is_surjective(copy, y)


STRUCTURE_EDITS = ["vertex-id", "facet-index", "vertex-color", "drop-last-cell"]


def edit_structure(x: MComplex, edit: str, data) -> None:
    """Apply one of STRUCTURE_EDITS to x at a drawn place: a vertex id of a
    row set to -1, to n or to another vertex; a facet index set to -1, out
    of range or to another cell; a vertex's color changed, maybe out of
    range; or the last cell of a color set deleted."""
    if edit == "vertex-color":
        v = data.draw(st.integers(0, x.n_vertices - 1))
        x.vertex_colors[v] = data.draw(st.sampled_from(
            [c for c in range(x.d + 2) if c != x.vertex_colors[v]]))
        return
    sets = sorted(J for J, cells in x.cells.items()
                  if cells.vertices and (edit != "facet-index" or len(J) >= 2))
    assume(sets)
    J = data.draw(st.sampled_from(sets))
    cells, size = x.cells[J], len(J)
    if edit == "drop-last-cell":
        del cells.vertices[-size:]
        del cells.faces[len(cells.vertices) :]  # a vertex color set has no faces
        return
    e = data.draw(st.integers(0, len(cells.vertices) - 1))
    if edit == "vertex-id":
        n = x.n_vertices
        cells.vertices[e] = data.draw(st.sampled_from([-1, n]) | st.integers(0, n - 1))
    else:
        p = e % size
        m = len(x.cells.get(J[:p] + J[p + 1 :], ()))
        cells.faces[e] = data.draw(st.sampled_from([-1, m, m + 2]) | st.integers(0, max(m - 1, 0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4), seed=st.integers(0, 10**6),
       case=st.sampled_from(["quotient", "ball"]),
       edits=st.lists(st.sampled_from(STRUCTURE_EDITS), min_size=1, max_size=3), data=st.data())
def test_validate_structure_matches_the_per_cell_oracle(d, k, m, seed, case, edits, data):
    """A small quotient or coset ball with one to three STRUCTURE_EDITS:
    `validate_structure` gives the per-cell oracle's Diagnostics, the same
    messages in the same order."""
    if case == "quotient":
        x = build_quotient(seeded_rep(d, k, m * k, seed)).complex
    else:
        x = ball_from_cosets(Params(d, k), data.draw(st.integers(0, 2))).complex
    for edit in edits:
        edit_structure(x, edit, data)
    assert validate_structure(x) == validate_structure_oracle(x)
