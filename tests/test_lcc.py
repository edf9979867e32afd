from __future__ import annotations

import gc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import seeded_rep
from multiforge import cli
from multiforge.acceptance import _merge_fixture
from multiforge.complexes import (
    check_morphism,
    find_isomorphism,
    from_simplicial,
    is_link_connected,
    merge_vertices,
    to_json,
    validate_structure,
)
from multiforge.gallery import coxeter_complex, flag_complex
from multiforge.lcc import link_connected_cover, verify_universality
from multiforge.permrep import intersect_reps
from multiforge.quotient import (
    associated_subgroup_rep,
    build_quotient,
    complex_line_graph,
    quotient_map,
)
from multiforge.universal import ball_from_cosets, build_ball
from multiforge.words import Params


def wedge():
    return from_simplicial(Params(2, 2), [0, 1, 2, 1, 2], [(0, 1, 2), (0, 3, 4)])


def merged_quotient(seed: int = 3):
    """The first seeded (2,2) quotient from `seed` on with two vertices of
    color 0, and the complex with those two merged; some draws have only one
    vertex per color, as in `acceptance._merge_fixture`."""
    for bump in range(40):
        q = build_quotient(seeded_rep(2, 2, 8, seed + 131 * bump))
        x = q.complex
        vs = [v for v in range(x.n_vertices) if x.vertex_colors[v] == 0]
        if len(vs) >= 2:
            return q, merge_vertices(x, vs[0], vs[1]), (vs[0], vs[1])
    raise AssertionError(f"no mergeable (2,2) quotient from seed {seed}")


def vertex_merge_map(x, merged, v_keep, v_gone):
    """The identification morphism from the original onto the merged complex."""
    relabel = {}
    t = 0
    for v in range(x.n_vertices):
        if v == v_gone:
            continue
        relabel[v] = t
        t += 1
    relabel[v_gone] = relabel[v_keep]
    f = {}
    for cell in x.multicells():
        if cell.dim == 0:
            f[cell.mid] = merged.vertex_cell(relabel[cell.vertices[0]])
        else:
            f[cell.mid] = cell.mid
    return f


def test_fixed_point_on_link_connected_input():
    q = build_quotient(seeded_rep(2, 3, 9, 10))
    cover, proj = link_connected_cover(q.complex)
    assert to_json(cover) == to_json(q.complex)
    assert all(src == dst for src, dst in proj.items())


@pytest.mark.parametrize("k, n, seed", [(2, 8, 1), (3, 12, 1), (3, 9, 5)])
def test_fixed_point_on_ordered_d1_quotient(k, n, seed, tmp_path):
    x = build_quotient(seeded_rep(1, k, n, seed)).complex
    cover, proj = link_connected_cover(x)
    assert to_json(cover) == to_json(x)
    assert all(src == dst for src, dst in proj.items())
    path = tmp_path / "x.json"
    path.write_text(to_json(x))
    assert cli.main(["lcc", str(path), "--out", str(tmp_path / "cover.json")]) == 0
    assert (tmp_path / "cover.json").read_text() == to_json(x)


def test_wedge_splits_into_disjoint_triangles():
    x = wedge()
    cover, proj = link_connected_cover(x)
    assert cover.n_vertices == 6
    assert len(cover.cells[(0, 1, 2)]) == 2
    assert is_link_connected(cover)
    assert validate_structure(cover).ok
    assert check_morphism(proj, cover, x).ok
    # the split vertex is identified by the projection
    split = [src for src, dst in proj.items() if dst == x.vertex_cell(0)]
    assert len(split) == 2


def test_wedge_line_graph_and_idempotence():
    x = wedge()
    cover, _ = link_connected_cover(x)
    assert complex_line_graph(cover).same_as(complex_line_graph(x))
    twice, _ = link_connected_cover(cover)
    assert to_json(twice) == to_json(cover)


def test_identified_quotient_recovered():
    q, merged, (v1, v2) = merged_quotient()
    assert not is_link_connected(merged)
    cover, proj = link_connected_cover(merged)
    assert is_link_connected(cover)
    assert find_isomorphism(cover, q.complex) is not None
    assert check_morphism(proj, cover, merged).ok
    assert complex_line_graph(cover).same_as(complex_line_graph(merged))


def test_cover_equals_quotient_of_associated_subgroup():
    q, merged, _ = merged_quotient(seed=8)
    cases = [(q.complex, merged)] + [_merge_fixture(t) for t in range(10)]
    for t, (original, merged) in enumerate(cases):
        cover, proj = link_connected_cover(merged)
        rebuilt = build_quotient(associated_subgroup_rep(merged))
        assert find_isomorphism(cover, rebuilt.complex) is not None, t
        assert to_json(cover) == to_json(original), t
        assert check_morphism(proj, cover, merged).ok, t


COVER_INPUTS = {
    "ball-2-3-r3": lambda: build_ball(Params(2, 3), 3).complex,
    "coxeter-B2": lambda: coxeter_complex([(1, 0, 3, 2), (0, 2, 1, 3)])[0],
    "flag-3-2-ordered": lambda: flag_complex(3, 2, ordered=True),
}


@pytest.mark.parametrize("name", sorted(COVER_INPUTS))
def test_cover_of_link_connected_input_is_isomorphic(name):
    x = COVER_INPUTS[name]()
    assert is_link_connected(x)
    cover, proj = link_connected_cover(x)
    assert validate_structure(cover).ok
    assert find_isomorphism(cover, x) is not None
    assert check_morphism(proj, cover, x).ok
    assert len(set(proj.values())) == len(proj) == sum(1 for _ in x.multicells())
    assert len(cover.boundary) == len(x.boundary)
    twice, _ = link_connected_cover(cover)
    assert to_json(twice) == to_json(cover)


QUOTIENTS = dict(
    d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4), seed=st.integers(0, 10**6)
)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def quotient_on_multiple_of_k(d, k, m, seed):
    """A seeded quotient on m*k points, where a transitive action exists."""
    return build_quotient(seeded_rep(d, k, m * k, seed)).complex


@PROPERTY
@given(**QUOTIENTS)
def test_cover_of_quotient_is_itself(d, k, m, seed):
    q = quotient_on_multiple_of_k(d, k, m, seed)
    cover, proj = link_connected_cover(q)
    assert to_json(cover) == to_json(q)
    assert all(src == dst for src, dst in proj.items())


@PROPERTY
@given(
    **{**QUOTIENTS, "d": st.integers(2, 3)},
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
)
def test_cover_undoes_vertex_merges(d, k, m, seed, picks):
    """After 1-3 identifications of same-color vertices, the cover is the
    quotient again, byte for byte."""
    q = quotient_on_multiple_of_k(d, k, m, seed)
    x = q
    for pick in picks:
        colors = [c for c in range(d + 1) if x.vertex_colors.count(c) >= 2]
        assume(colors or x is not q)
        if not colors:
            break
        vs = [v for v in range(x.n_vertices) if x.vertex_colors[v] == colors[pick % len(colors)]]
        x = merge_vertices(x, vs[pick % len(vs)], vs[(pick + 1) % len(vs)])
    assert not is_link_connected(x)
    assert to_json(link_connected_cover(x)[0]) == to_json(q)


def test_universality_identity_case():
    q = build_quotient(seeded_rep(2, 2, 6, 20))
    ident = {c.mid: c.mid for c in q.complex.multicells()}
    ok, psi, msg = verify_universality(q.complex, ident, q.complex, ident)
    assert ok, msg
    assert psi == ident


def test_universality_coset_coarsening():
    """The quotient of a smaller subgroup factors through the cover of the
    merged complex (built from the same subgroup)."""
    q, merged, (v1, v2) = merged_quotient(seed=5)
    rep = associated_subgroup_rep(q.complex)
    other = seeded_rep(2, 2, 4, 21)
    meet, pairs = intersect_reps(rep, other)
    z = build_quotient(meet)

    # phi: Z -> merged, through Z -> q -> merged
    to_q = {}
    for colors, part in z.partitions.items():
        target = build_quotient(rep).partitions[colors]
        for orbit_id, rep_point in enumerate(part.reps):
            image_orbit = target.class_ids[pairs[rep_point][0]]
            if len(colors) >= 2:
                to_q[(colors, orbit_id)] = (colors, image_orbit)
            else:
                src = z.complex.vertex_cell(z.complex.cells[colors].vertices[orbit_id])
                dst = q.complex.vertex_cell(q.complex.cells[colors].vertices[image_orbit])
                to_q[src] = dst
    assert check_morphism(to_q, z.complex, q.complex).ok
    merge_map = vertex_merge_map(q.complex, merged, v1, v2)
    phi = {mid: merge_map[img] for mid, img in to_q.items()}
    assert check_morphism(phi, z.complex, merged).ok

    cover, pi = link_connected_cover(merged)
    ok, psi, msg = verify_universality(z.complex, phi, cover, pi)
    assert ok, msg
    for mid, img in psi.items():
        assert pi[img] == phi[mid]


def test_universality_from_ball():
    q, merged, (v1, v2) = merged_quotient(seed=9)
    ball = build_ball(Params(2, 2), 5)
    to_q = quotient_map(ball, q)
    merge_map = vertex_merge_map(q.complex, merged, v1, v2)
    phi = {mid: merge_map[img] for mid, img in to_q.items()}
    assert check_morphism(phi, ball.complex, merged).ok
    cover, pi = link_connected_cover(merged)
    ok, psi, msg = verify_universality(ball.complex, phi, cover, pi)
    assert ok, msg


def test_universality_detects_wrong_root():
    q = build_quotient(seeded_rep(2, 2, 6, 30))
    ident = {c.mid: c.mid for c in q.complex.multicells()}
    rerooted = build_quotient(seeded_rep(2, 2, 6, 30))
    other_top = next(m for m in rerooted.complex.mids(2) if m != rerooted.complex.root)
    rerooted.complex.root = other_top
    ok, _, _ = verify_universality(rerooted.complex, ident, q.complex, ident)
    assert not ok


def test_universality_reports_a_partial_map():
    """A factoring whose phi or pi misses a multicell is refused with that
    multicell, not with a KeyError."""
    p = Params(2, 3)
    q = build_quotient(seeded_rep(2, 3, 12, 3))
    ball = ball_from_cosets(p, 3)
    phi = quotient_map(ball, q)
    ident = {mid: mid for mid in q.complex.mids()}
    assert verify_universality(ball.complex, phi, q.complex, ident)[0]
    missing = ((0,), 0)
    partial = {mid: img for mid, img in ident.items() if mid != missing}
    assert verify_universality(ball.complex, phi, q.complex, partial) == (
        False, None, f"pi is not defined on {missing}"
    )
    partial = {mid: img for mid, img in phi.items() if mid != missing}
    assert verify_universality(ball.complex, partial, q.complex, ident) == (
        False, None, f"phi is not defined on {missing}"
    )


def test_universality_reports_unordered_input():
    q = build_quotient(seeded_rep(2, 2, 6, 20))
    ident = {c.mid: c.mid for c in q.complex.multicells()}
    unordered = build_quotient(seeded_rep(2, 2, 6, 20)).complex
    unordered.ordering = None
    assert verify_universality(q.complex, ident, unordered, ident) == (
        False, None, "both complexes must be ordered"
    )


def test_cover_leaves_few_gc_tracked_objects():
    """The cover of a 3,000-point (2,2) quotient with two vertices merged
    leaves few GC-tracked objects alive: counted as the growth of the
    collector's generation-0 count across the call, with the collector off.
    Its ordering is one pair of flat columns per color set, not one object
    per cell."""
    rep = seeded_rep(2, 2, 3000, 1)
    base = build_quotient(rep).complex
    color0 = [v for v in range(base.n_vertices) if base.vertex_colors[v] == 0]
    merged = merge_vertices(base, color0[0], color0[1])
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        cover = link_connected_cover(merged)
        left = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert cover[0].ordering is not None
    assert left <= 1000, left
