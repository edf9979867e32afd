from __future__ import annotations

import json
from itertools import accumulate, combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import seeded_rep
from multiforge.complexes import (
    check_morphism,
    coface_counts,
    find_isomorphism,
    from_json,
    is_link_connected,
    is_surjective,
    merge_vertices,
    to_json_dict,
    validate_structure,
)
from multiforge.gallery import coxeter_complex, coxeter_kernel_rep, m_subgroup_rep
from multiforge.permrep import PermRep, evaluate, orbit_partitions, same_up_to_relabeling, validate
from multiforge.quotient import (
    analyze,
    associated_subgroup_rep,
    build_quotient,
    complex_has_complete_skeleton,
    complex_is_simplicial,
    complex_is_upper_regular,
    complex_line_graph,
    intersection_property,
    nerve_matches_base,
    orbit_quotient,
    quotient_map,
)
from multiforge.universal import build_ball
from multiforge.words import Params


TRIVIAL = PermRep(Params(2, 2), 1, ((0,), (0,), (0,)), 0)


def test_index_one_gives_single_simplex():
    q = build_quotient(TRIVIAL)
    assert q.complex.n_vertices == 3
    assert len(q.complex.cells[(0, 1, 2)]) == 1
    assert all(coface_counts(q.complex)[J] == [1] for J in [(0, 1), (0, 2), (1, 2)])
    assert complex_is_simplicial(q.complex) and complex_has_complete_skeleton(q.complex)


def test_build_quotient_rejects_invalid():
    bad = PermRep(Params(1, 2), 4, ((1, 0, 2, 3), (0, 1, 3, 2)), 0)
    with pytest.raises(ValueError):
        build_quotient(bad)


def test_m23_complete_partite():
    q = build_quotient(m_subgroup_rep(Params(2, 3)))
    assert q.complex.n_vertices == 9
    assert sum(1 for _ in q.complex.multicells(1)) == 27
    assert sum(1 for _ in q.complex.multicells(2)) == 27
    assert complex_is_simplicial(q.complex)


def test_m_family_counts():
    for k in (2, 3):
        d = 2
        q = build_quotient(m_subgroup_rep(Params(d, k)))
        assert q.complex.n_vertices == (d + 1) * k
        assert sum(1 for _ in q.complex.multicells(1)) == comb(d + 1, 2) * k**2
        assert sum(1 for _ in q.complex.multicells(d)) == k ** (d + 1)


def test_two_triangles_on_shared_vertices():
    rep = PermRep(Params(2, 2), 2, ((1, 0), (1, 0), (1, 0)), 0)
    q = build_quotient(rep)
    assert q.complex.n_vertices == 3
    assert sum(1 for _ in q.complex.multicells(2)) == 2
    for J in [(0, 1), (0, 2), (1, 2)]:
        assert coface_counts(q.complex)[J] == [2]  # multiplicity 1 per edge
    assert not complex_is_simplicial(q.complex)  # the doubled top cell


def multiplicity_two_somewhere(q) -> bool:
    for colors, cells in q.complex.cells.items():
        if len(colors) >= 2 and len(set(cells.rows())) < len(cells):
            return True
    return False


def test_doubled_edge_not_simplicial():
    # swapping points with two generators doubles the {1,2}-colored edge
    rep = PermRep(Params(2, 2), 2, ((0, 1), (1, 0), (1, 0)), 0)
    q = build_quotient(rep)
    assert not complex_is_simplicial(q.complex)
    assert not intersection_property(rep)
    assert multiplicity_two_somewhere(q)
    doubled = q.complex.cells[(1, 2)]
    assert len(doubled) == 2 and doubled.vertices[:2] == doubled.vertices[2:]


def test_single_swap_stays_simplicial():
    # one swapping generator only: two triangles sharing an edge, no doubling
    rep = PermRep(Params(2, 2), 2, ((1, 0), (0, 1), (0, 1)), 0)
    q = build_quotient(rep)
    assert complex_is_simplicial(q.complex)
    assert intersection_property(rep)


SEEDED_REPS = st.tuples(
    st.integers(1, 3), st.integers(2, 4), st.integers(1, 4), st.integers(0, 10**6)
).map(lambda t: seeded_rep(t[0], t[1], t[2] * t[1], t[3]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rep=SEEDED_REPS)
@example(rep=PermRep(Params(2, 2), 2, ((1, 0), (0, 1), (0, 1)), 0))
@example(rep=PermRep(Params(2, 2), 2, ((1, 0), (1, 0), (1, 0)), 0))
@example(rep=PermRep(Params(2, 2), 2, ((0, 1), (1, 0), (1, 0)), 0))
def test_intersection_property_iff_simplicial(rep):
    """Seeded quotients on m*k points (d 1-3, k 2-4) and the two-point reps
    of criterion 6 and of the doubled edge above."""
    assert intersection_property(rep) == complex_is_simplicial(build_quotient(rep).complex)


def test_top_cell_count_is_index():
    for seed in range(5):
        rep = seeded_rep(2, 3, 11, 400 + seed)
        q = build_quotient(rep)
        assert len(q.complex.cells[(0, 1, 2)]) == rep.n


def test_degrees_divide_k():
    for seed in range(5):
        rep = seeded_rep(2, 4, 10, 500 + seed)
        q = build_quotient(rep)
        counts = coface_counts(q.complex)
        assert all(Params(2, 4).k % c == 0 for J in [(0, 1), (0, 2), (1, 2)] for c in counts[J])


def test_left_action_realizes_cosets():
    rep = seeded_rep(2, 2, 8, 600)
    q = build_quotient(rep)
    import random

    rng = random.Random(1)
    from conftest import random_word

    for _ in range(100):
        w = random_word(rep.params, rng)
        assert q.complex.has_cell(((0, 1, 2), evaluate(w, rep.root, rep)))


def test_upper_regular_examples():
    assert complex_is_upper_regular(build_quotient(m_subgroup_rep(Params(2, 3))).complex)
    assert not complex_is_upper_regular(build_quotient(TRIVIAL).complex)
    mixed = PermRep(Params(1, 4), 4, ((1, 2, 3, 0), (1, 0, 3, 2)), 0)
    assert validate(mixed).ok
    assert not complex_is_upper_regular(build_quotient(mixed).complex)


def test_complete_skeleton_examples():
    assert complex_has_complete_skeleton(build_quotient(m_subgroup_rep(Params(2, 2))).complex)
    assert complex_has_complete_skeleton(build_quotient(TRIVIAL).complex)


def test_complete_skeleton_matches_orbit_oracle():
    """Oracle: a color-distinct vertex tuple spans a cell iff the orbit point
    sets of its vertices intersect (the nerve picture)."""
    from itertools import combinations, product

    found_incomplete = False
    for seed in range(12):
        rep = seeded_rep(2, 2, 6 + seed % 5, 800 + seed)
        q = build_quotient(rep)
        parts = orbit_partitions(rep)
        expected = True
        for ca, cb in combinations(range(3), 2):
            for oa, ob in product(parts[(ca,)].members(), parts[(cb,)].members()):
                if not set(oa) & set(ob):
                    expected = False
        assert complex_has_complete_skeleton(q.complex) == expected, seed
        found_incomplete = found_incomplete or not expected
    assert found_incomplete  # the sample must exercise the negative branch


def test_line_graph_of_m12_is_four_cycle():
    q = build_quotient(m_subgroup_rep(Params(1, 2)))
    g = complex_line_graph(q.complex)
    assert g.n == 4
    assert sorted((u, v) for u, v, _ in g.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_quotient_map_trivial_target():
    ball = build_ball(Params(2, 2), 2)
    q = build_quotient(TRIVIAL)
    f = quotient_map(ball, q)
    assert check_morphism(f, ball.complex, q.complex).ok
    assert is_surjective(f, q.complex)
    assert len(set(f.values())) == sum(1 for _ in q.complex.multicells())


def test_quotient_map_m22_radius_three():
    ball = build_ball(Params(2, 2), 3)
    q = build_quotient(m_subgroup_rep(Params(2, 2)))
    f = quotient_map(ball, q)
    assert check_morphism(f, ball.complex, q.complex).ok
    assert is_surjective(f, q.complex)


def test_quotient_map_requires_matching_params():
    ball = build_ball(Params(1, 2), 1)
    q = build_quotient(TRIVIAL)
    with pytest.raises(ValueError):
        quotient_map(ball, q)


def test_round_trip_small_and_merged():
    rep = m_subgroup_rep(Params(2, 2))
    q = build_quotient(rep)
    assert same_up_to_relabeling(associated_subgroup_rep(q.complex), rep)
    again = build_quotient(associated_subgroup_rep(q.complex))
    from multiforge.complexes import find_isomorphism

    assert find_isomorphism(again.complex, q.complex) is not None


def test_analyze_report_shape():
    q = build_quotient(m_subgroup_rep(Params(2, 3)))
    report = dict(line.split(": ", 1) for line in analyze(q.complex).splitlines())
    assert report["simplicial"] == report["upper-regular"] == "true"
    assert [report[f"multicells[{dim}]"] for dim in range(3)] == ["9", "27", "27"]
    assert report["degree-histogram[1]"] == "3:27"
    assert report["link-connected"] == report["skeleton-complete"] == "true"


def test_analyze_flags_are_the_public_predicates():
    """`analyze` counts cofaces once for all its checks; its flags equal the
    public predicates, which count them on their own.  The cases cover each
    flag both ways: balls are not upper regular, the M quotient is, a vertex
    merge is not link connected, and a k = 2 quotient relabeled k = 3 or
    given a vertex in no top cell fails validation."""
    q = build_quotient(seeded_rep(2, 2, 40, 3)).complex
    relabeled = to_json_dict(q)
    relabeled["params"]["k"] = 3
    impure = to_json_dict(q)
    impure["vertex_colors"] = impure["vertex_colors"] + [0]
    same_color = [v for v, c in enumerate(q.vertex_colors) if c == 0][:2]
    xs = [build_ball(Params(2, 3), 2).complex, build_ball(Params(3, 2), 2).complex, q,
          build_quotient(m_subgroup_rep(Params(2, 3))).complex,
          merge_vertices(q, *same_color), from_json(json.dumps(relabeled)),
          from_json(json.dumps(impure))]
    seen = set()
    for x in xs:
        report = dict(line.split(": ", 1) for line in analyze(x).splitlines())
        flags = (validate_structure(x).ok, complex_is_upper_regular(x), is_link_connected(x))
        assert (report["structure-valid"], report["upper-regular"], report["link-connected"]) == (
            tuple(str(f).lower() for f in flags))
        seen.update(enumerate(flags))
    assert seen == {(i, b) for i in range(3) for b in (False, True)}


def test_every_quotient_validates():
    for seed in range(8):
        rep = seeded_rep(1 + seed % 3, 2 + seed % 3, 6 + seed, 700 + seed)
        q = build_quotient(rep)
        assert validate_structure(q.complex).ok
        assert nerve_matches_base(q)


def test_coxeter_chambers_are_the_kernel_quotient():
    """For each of the 20 triples of transpositions of S4, the kernel
    quotient is simplicial exactly when the direct chamber complex is, and
    then the two are isomorphic."""
    transpositions = []
    for a, b in combinations(range(4), 2):
        perm = list(range(4))
        perm[a], perm[b] = b, a
        transpositions.append(tuple(perm))
    simplicial = 0
    for gens in combinations(transpositions, 3):
        kernel = build_quotient(coxeter_kernel_rep(list(gens))[0]).complex
        if complex_is_simplicial(kernel):
            direct, _ = coxeter_complex(list(gens))
            assert find_isomorphism(kernel, direct) is not None, gens
            simplicial += 1
        else:
            with pytest.raises(ValueError, match="not simplicial"):
                coxeter_complex(list(gens))
    assert 0 < simplicial < 20


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_orbit_quotient_matches_an_assembly_from_orbits(d, k, m, seed):
    """`orbit_quotient` against an assembly read straight off
    `orbit_partitions`: vertices numbered by color, then orbit; cell i of J
    has the vertices and facets of its orbit's least point reps[i]; the
    cycle of each (d-1)-cell is the orbit of that point under the missing
    generator, walked from it; the root is the class of the root point."""
    rep = seeded_rep(d, k, m * k, seed)
    x, _ = orbit_quotient(rep)
    full = tuple(range(d + 1))
    parts = {J: part for J, part in orbit_partitions(rep).items() if J}
    first = dict(zip(full, accumulate((parts[(c,)].count for c in full), initial=0)))
    assert x.vertex_colors == [c for c in full for _ in range(parts[(c,)].count)]
    for J in (J for J in parts if len(J) >= 2):
        reps, drops = parts[J].reps, [J[:p] + J[p + 1 :] for p in range(len(J))]
        assert x.cells[J].vertices == [first[c] + parts[(c,)].class_ids[t] for t in reps for c in J]
        assert x.cells[J].faces == [parts[sub].class_ids[t] for t in reps for sub in drops]
    for i in full:
        cycles = []
        for t in parts[full[:i] + full[i + 1 :]].reps:
            cycles.append([t])
            while rep.betas[i][cycles[-1][-1]] != t:
                cycles[-1].append(rep.betas[i][cycles[-1][-1]])
        J = full[:i] + full[i + 1 :]
        assert [x.cycle((J, c)) for c in range(len(x.cells[J]))] == cycles
    assert sorted(x.ordering) == sorted(J for J in parts if len(J) == d)
    assert x.root == (full, parts[full].class_ids[rep.root])
    assert x.boundary == frozenset()
