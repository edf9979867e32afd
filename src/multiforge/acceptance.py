"""Desk-scale acceptance suite: one check per release criterion, each with
its independent oracle.  `run_all` powers both the CLI `verify-all`
subcommand and the pytest acceptance module.
"""

from __future__ import annotations

import itertools
from math import sqrt
from typing import TYPE_CHECKING, Callable, NamedTuple

from .complexes import (
    CellMap,
    MComplex,
    check_morphism,
    coface_counts,
    extend_down,
    find_isomorphism,
    is_link_connected,
    is_surjective,
    merge_vertices,
    to_json,
)
from .gallery import coxeter_complex, flag_complex, flag_count, m_subgroup_rep
from .graphs import (
    Multigraph,
    check_decomposition,
    counterexample_graph,
    decompose_regular,
    is_schreier,
    schreier_multigraph,
)
from .lcc import link_connected_cover
from .permrep import (
    PermRep,
    count_order_dividing,
    intersect_reps,
    random_order_dividing,
    random_rep,
    random_rep_retry,
    same_up_to_relabeling,
)
from .quotient import (
    associated_subgroup_rep,
    build_quotient,
    complex_has_complete_skeleton,
    complex_is_simplicial,
    complex_line_graph,
    intersection_property,
    nerve_matches_base,
)
from .spectral import (
    boundary_matrix,
    lambda_arboreal,
    lambda_building,
    spectral_gap,
    spectrum,
    up_laplacian,
)
from .universal import ball_from_cosets, build_ball
from .words import Params

if TYPE_CHECKING:
    import numpy as np


class Criterion(NamedTuple):
    name: str
    check: Callable[[], str]  # returns a detail string; raises AssertionError on failure


def _rep_specs() -> list[tuple[int, int, int]]:
    return [
        (1, 2, 12), (2, 2, 8), (1, 3, 9), (2, 3, 15), (3, 2, 10),
        (1, 4, 16), (2, 4, 20), (3, 3, 27), (3, 4, 30), (2, 2, 30),
    ]


def seeded_reps(count: int) -> list[PermRep]:
    specs = _rep_specs()
    reps = []
    for t in range(count):
        d, k, n = specs[t % len(specs)]
        rep, _ = random_rep_retry(Params(d, k), n, seed=1000 * t + 17)
        reps.append(rep)
    return reps


# -- independent oracles ------------------------------------------------------------

def up_laplacian_formula(x: MComplex) -> tuple[list[frozenset], np.ndarray]:
    """The displayed-formula route for simplicial complexes: degree on the
    diagonal, signed neighbor counts off it, all from vertex-set scans."""
    import numpy as np

    faces = sorted(
        {frozenset(c.vertices) for c in x.multicells(x.d - 1)}, key=sorted
    )
    pos = {f: t for t, f in enumerate(faces)}
    tops = [tuple(sorted(c.vertices)) for c in x.multicells(x.d)]
    m = np.zeros((len(faces), len(faces)))
    for vs in tops:
        for i in range(len(vs)):
            si = frozenset(v for t, v in enumerate(vs) if t != i)
            m[pos[si], pos[si]] += 1.0
            for j in range(i + 1, len(vs)):
                sj = frozenset(v for t, v in enumerate(vs) if t != j)
                sgn = (-1) ** (i + j)
                m[pos[si], pos[sj]] += sgn
                m[pos[sj], pos[si]] += sgn
    return faces, m


def line_graph_distances(x: MComplex, source) -> dict:
    """BFS distance in the line graph: tops are adjacent when their faces
    column names the same codimension-one multicell."""
    full = tuple(x.params.colors)
    faces, size = x.cells[full].faces, len(full)
    above: dict = {}  # (dropped position, facet index) -> the tops naming it
    for e, f in enumerate(faces):
        above.setdefault((e % size, f), []).append((full, e // size))
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for a in frontier:
            for b in (b for p in range(size) for b in above[(p, faces[a[1] * size + p])]):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


def brute_force_order_dividing(n: int, k: int) -> set[tuple[int, ...]]:
    """Every permutation of range(n) whose k-th power is the identity."""
    identity = tuple(range(n))
    out = set()
    for perm in itertools.permutations(identity):
        power = identity
        for _ in range(k):
            power = tuple(perm[v] for v in power)
        if power == identity:
            out.add(perm)
    return out


# -- criteria -------------------------------------------------------------------------

def crit_1_complete_partite() -> str:
    q = build_quotient(m_subgroup_rep(Params(2, 3)))
    counts = {dim: 0 for dim in range(3)}
    for colors, lst in q.complex.cells.items():
        counts[len(colors) - 1] += len(lst)
    assert q.complex.n_vertices == 9, counts
    per_color = [sum(1 for c in q.complex.vertex_colors if c == i) for i in range(3)]
    assert per_color == [3, 3, 3], per_color
    assert counts == {0: 9, 1: 27, 2: 27}, counts
    assert complex_is_simplicial(q.complex)
    assert {c for J, col in coface_counts(q.complex).items() if len(J) == 2 for c in col} == {3}
    assert complex_has_complete_skeleton(q.complex)
    assert is_link_connected(q.complex)
    return "9 vertices (3 per color), 27 edges, 27 triangles, simplicial, 3-regular, complete, link-connected"


def crit_2_universal_agreement() -> str:
    pairs = 0
    for d, k in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        for n in range(4):
            b1 = build_ball(Params(d, k), n)
            b2 = ball_from_cosets(Params(d, k), n)
            assert find_isomorphism(b1.complex, b2.complex) is not None, (d, k, n)
            pairs += 1
    return f"{pairs} colored rooted ordered isomorphisms"


def crit_3_word_length_distance() -> str:
    ball = build_ball(Params(2, 2), 4)
    dist = line_graph_distances(ball.complex, ball.complex.root)
    checked = 0
    for mid, w in ball.cell_words.items():
        assert dist[mid] == len(w.letters), (mid, w)
        checked += 1
    assert checked == 46, checked  # reduced words of length <= 4 in (2,2)
    return f"{checked} cells: line-graph distance == word length"


def crit_4_line_graph_is_schreier() -> str:
    for rep in seeded_reps(20):
        q = build_quotient(rep)
        assert complex_line_graph(q.complex).same_as(schreier_multigraph(rep)), rep.params
    return "20 reps: labeled line graph == Schreier multigraph"


def crit_5_classification_round_trip() -> str:
    for rep in seeded_reps(20):
        q = build_quotient(rep)
        back = associated_subgroup_rep(q.complex)
        assert same_up_to_relabeling(back, rep), rep.params
    return "20 reps: associated subgroup reproduces the rep up to relabeling"


def crit_6_intersection_iff_simplicial() -> str:
    reps = seeded_reps(50)
    for d, k in [(1, 2), (2, 2), (2, 3)]:
        reps.append(m_subgroup_rep(Params(d, k)))
    reps.append(PermRep(Params(2, 2), 2, ((1, 0), (0, 1), (0, 1)), 0))  # doubled cell
    reps.append(PermRep(Params(2, 2), 2, ((1, 0), (1, 0), (1, 0)), 0))
    for rep in reps:
        q = build_quotient(rep)
        assert intersection_property(rep) == complex_is_simplicial(q.complex), rep
    return f"{len(reps)} reps: intersection property iff multiplicity-free"


def _merge_fixture(seed: int) -> tuple[MComplex, MComplex]:
    specs = [(2, 2, 8), (2, 3, 12), (3, 2, 10), (2, 2, 14), (2, 4, 9)]
    d, k, n = specs[seed % len(specs)]
    for bump in range(40):  # some draws collapse to one vertex per color
        rep, _ = random_rep_retry(Params(d, k), n, seed=7000 + seed + 131 * bump)
        x = build_quotient(rep).complex
        for c in range(d + 1):
            vs = [v for v in range(x.n_vertices) if x.vertex_colors[v] == c]
            if len(vs) >= 2:
                return x, merge_vertices(x, vs[0], vs[1])
    raise AssertionError(f"no mergeable quotient found for spec {(d, k, n)}")


def crit_7_link_connected_cover() -> str:
    from .complexes import from_simplicial

    wedge = from_simplicial(Params(2, 2), [0, 1, 2, 1, 2], [(0, 1, 2), (0, 3, 4)])
    cover, proj = link_connected_cover(wedge)
    assert is_link_connected(cover)
    assert check_morphism(proj, cover, wedge)
    assert complex_line_graph(cover).same_as(complex_line_graph(wedge))
    again, _ = link_connected_cover(cover)
    assert to_json(again) == to_json(cover)

    recovered = 0
    for t in range(10):
        original, merged = _merge_fixture(t)
        cov, pr = link_connected_cover(merged)
        assert is_link_connected(cov), t
        assert check_morphism(pr, cov, merged), t
        assert complex_line_graph(cov).same_as(complex_line_graph(merged)), t
        twice, _ = link_connected_cover(cov)
        assert to_json(twice) == to_json(cov), t
        assert find_isomorphism(cov, original) is not None, t
        rebuilt = build_quotient(associated_subgroup_rep(merged)).complex
        assert find_isomorphism(cov, rebuilt) is not None, t
        recovered += 1
    return f"wedge split + {recovered} identified quotients recovered"


def crit_8_nerve_identity() -> str:
    for rep in seeded_reps(10):
        q = build_quotient(rep)
        assert nerve_matches_base(q), rep.params
    return "10 reps: nerve of the coset family == base complex"


def crit_9_spectral_sanity() -> str:
    import numpy as np

    tol = 1e-9
    fixtures = [build_quotient(m_subgroup_rep(Params(d, k))) for d, k in [(1, 3), (2, 2), (1, 2)]]
    fixtures += [build_quotient(rep) for rep in seeded_reps(6)]
    for q in fixtures:
        x = q.complex
        lap = up_laplacian(x)
        assert np.allclose(lap, lap.T)
        assert spectrum(x)[0] >= -tol
        assert np.linalg.eigvalsh(lap)[0] >= -tol
        for j in range(1, x.d + 1):
            lower = boundary_matrix(x, j - 1).matrix
            upper = boundary_matrix(x, j).matrix
            assert np.allclose(lower @ upper, 0.0), j
        if complex_is_simplicial(q.complex):
            faces, formula = up_laplacian_formula(x)
            own = boundary_matrix(x, x.d)
            order = [sorted(x.cell(m).vertices) for m in own.rows]
            perm = [order.index(sorted(f)) for f in faces]
            assert np.allclose(formula, lap[np.ix_(perm, perm)])
    k33 = build_quotient(m_subgroup_rep(Params(1, 3)))
    lam = spectral_gap(k33.complex)
    lap = up_laplacian(k33.complex)
    cob = boundary_matrix(k33.complex, 0).matrix.T
    qmat, _ = np.linalg.qr(cob)
    proj = np.eye(lap.shape[0]) - qmat @ qmat.T
    oracle_eigs = np.linalg.eigvalsh(proj @ lap @ proj)
    oracle = min(e for e in oracle_eigs if e > 1e-8)
    assert abs(lam - 3.0) < 1e-6, lam
    assert abs(oracle - 3.0) < 1e-6, oracle
    return f"PSD + chain identity + formula match; lambda(K33) = {lam:.9f}"


def crit_10_closed_forms() -> str:
    la = lambda_arboreal(Params(2, 5))
    lb = lambda_building(4)
    assert abs(la - (6 - 4 * sqrt(2))) < 1e-12
    assert abs(lb - (5 - 2 * sqrt(5))) < 1e-12
    assert lb > la
    assert lambda_arboreal(Params(3, 2)) == 0.0
    assert lambda_arboreal(Params(2, 3)) == 0.0
    return f"arboreal(2,5)={la:.12f}, building(4)={lb:.12f}, building > arboreal"


def crit_11_appendix_decompositions() -> str:
    k33 = Multigraph(6)
    for u in range(3):
        for v in range(3, 6):
            k33.add_edge(u, v)
    res = decompose_regular(k33, 3)
    assert res is not None and check_decomposition(k33, res, 3)
    assert sorted(kind for kind, _ in res) == ["matching"] * 3

    g4 = Multigraph(8)
    for t in range(8):
        g4.add_edge(t, (t + 1) % 8)
        g4.add_edge(t, (t + 2) % 8)
    res4 = decompose_regular(g4, 4)
    assert res4 is not None and check_decomposition(g4, res4, 4)
    assert sorted(kind for kind, _ in res4) == ["two_factor"] * 2

    cg = counterexample_graph(3)
    assert cg.n == 22
    assert is_schreier(cg, 3) is False

    for rep in seeded_reps(20):
        sg = schreier_multigraph(rep)
        k_graph = (rep.params.d + 1) * (rep.params.k - 1)
        res = decompose_regular(sg, k_graph)
        assert res is not None and check_decomposition(sg, res, k_graph), rep.params
    return "K33 = 3 matchings, C8(1,2) = 2 two-factors, 22-vertex graph certified non-Schreier, 20 Schreier outputs decomposed"


def crit_12_coxeter() -> str:
    hexagon, rep3 = coxeter_complex([(1, 0, 2), (0, 2, 1)])
    assert len(hexagon.cells[(0, 1)]) == 6 and hexagon.n_vertices == 6
    s4, rep4 = coxeter_complex([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)])
    assert len(s4.cells[(0, 1, 2)]) == 24 and s4.n_vertices == 14
    assert rep3.n == 6 and rep4.n == 24
    for direct, rep in ((hexagon, rep3), (s4, rep4)):
        assert find_isomorphism(build_quotient(rep).complex, direct) is not None
    return "S3 -> hexagon (6 chambers), S4 -> 24 chambers on 14 vertices; both routes agree"


def crit_13_flag_complexes() -> str:
    f32 = flag_complex(3, 2)
    assert f32.n_vertices == 14 and len(f32.cells[(0, 1)]) == 21 == flag_count(3, 2)
    f42 = flag_complex(4, 2)
    assert len(f42.cells[(0, 1, 2)]) == 315 == flag_count(4, 2)
    assert {c for J, col in coface_counts(f42).items() if len(J) == f42.d for c in col} == {3}
    return "S(3,2): 14 vertices / 21 flags; S(4,2): 315 flags, codimension-one degrees 3"


def crit_14_common_cover() -> str:
    specs = [(1, 2, 6), (2, 2, 5), (1, 3, 6), (2, 3, 7), (3, 2, 6)]
    for t, (d, k, n) in enumerate(specs):
        r1, _ = random_rep_retry(Params(d, k), n, seed=4000 + t)
        r2, _ = random_rep_retry(Params(d, k), n, seed=5000 + t)
        r3, pairs = intersect_reps(r1, r2)
        q3 = build_quotient(r3)
        for side, r in ((0, r1), (1, r2)):
            q = build_quotient(r)
            f = extend_down([pair[side] for pair in pairs], q3.complex, q.complex)
            assert isinstance(f, CellMap), (d, k, n, side)
            assert check_morphism(f, q3.complex, q.complex), (d, k, n, side)
            assert is_surjective(f, q.complex), (d, k, n, side)
    return "5 pairs: diagonal intersection covers both factors via checked epimorphisms"


def crit_15_random_model() -> str:
    support = set()
    for seed in range(10_000):
        from random import Random

        support.add(random_order_dividing(4, 2, Random(seed)))
        if len(support) == 10:
            break
    brute = brute_force_order_dividing(4, 2)
    assert support == brute, (len(support), len(brute))
    for n in range(1, 8):
        for k in (2, 3, 4):
            assert count_order_dividing(n, k) == len(brute_force_order_dividing(n, k)), (n, k)
    a = random_rep(Params(2, 3), 30, seed=7)
    b = random_rep(Params(2, 3), 30, seed=7)
    assert a == b and a is not None
    hits = sum(1 for s in range(100) if random_rep(Params(2, 3), 30, seed=s) is not None)
    assert hits >= 90, hits
    return f"support == 10 order-dividing permutations, DP == brute force (n<=7), deterministic, {hits}/100 transitive"


CRITERIA: list[Criterion] = [
    Criterion("1-complete-partite", crit_1_complete_partite),
    Criterion("2-universal-agreement", crit_2_universal_agreement),
    Criterion("3-word-length-distance", crit_3_word_length_distance),
    Criterion("4-line-graph-schreier", crit_4_line_graph_is_schreier),
    Criterion("5-classification-round-trip", crit_5_classification_round_trip),
    Criterion("6-intersection-iff-simplicial", crit_6_intersection_iff_simplicial),
    Criterion("7-link-connected-cover", crit_7_link_connected_cover),
    Criterion("8-nerve-identity", crit_8_nerve_identity),
    Criterion("9-spectral-sanity", crit_9_spectral_sanity),
    Criterion("10-closed-forms", crit_10_closed_forms),
    Criterion("11-appendix-decompositions", crit_11_appendix_decompositions),
    Criterion("12-coxeter", crit_12_coxeter),
    Criterion("13-flag-complexes", crit_13_flag_complexes),
    Criterion("14-common-cover", crit_14_common_cover),
    Criterion("15-random-model", crit_15_random_model),
]


def run_all() -> int:
    failures = 0
    for crit in CRITERIA:
        try:
            detail = crit.check()
            status = "PASS"
        except AssertionError as exc:
            detail = f"assertion failed: {exc}"
            status = "FAIL"
            failures += 1
        except Exception as exc:  # report, never crash the suite
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
            failures += 1
        print(f"{status} {crit.name}: {detail}")
    return failures
