from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import seeded_rep, single_simplex
from multiforge.acceptance import up_laplacian_formula
from multiforge.gallery import m_subgroup_rep
from multiforge.quotient import build_quotient, complex_is_simplicial
from multiforge.spectral import (
    SpectralGapUndefined,
    boundary_matrix,
    coboundary_rank,
    lambda_arboreal,
    lambda_building,
    spectral_gap,
    spectrum,
    up_laplacian,
)
from multiforge.words import Params


def test_triangle_boundary_signs():
    x = single_simplex(Params(2, 2))
    b2 = boundary_matrix(x, 2)
    assert b2.matrix.shape == (3, 1)
    assert sorted(b2.matrix[:, 0]) == [-1.0, 1.0, 1.0]
    b1 = boundary_matrix(x, 1)
    # each edge column: +1 on the kept head, -1 on the dropped tail
    assert np.allclose(np.abs(b1.matrix).sum(axis=0), 2.0)
    assert np.allclose(b1.matrix.sum(axis=0), 0.0)


def _boundary_oracle(x, j: int) -> tuple[list, list, np.ndarray]:
    """The signed incidence read cell by cell off the `multicells` views:
    each facet's sign is (-1)^(rank of the vertex it drops)."""
    cols = [c.mid for c in x.multicells(j)]
    rows = [c.mid for c in x.multicells(j - 1)]
    pos = {m: t for t, m in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)))
    for t, cell in enumerate(x.multicells(j)):
        by_vertex = sorted(zip(cell.vertices, cell.colors))
        for rank, (_, color) in enumerate(by_vertex):
            mat[pos[cell.faces[color]], t] += (-1) ** rank
    return rows, cols, mat


@pytest.mark.parametrize("d, k, n, seed", [(1, 3, 24, 1), (2, 3, 30, 2), (2, 5, 20, 3), (3, 2, 16, 4)])
def test_boundary_matrix_matches_the_per_cell_oracle(d, k, n, seed):
    """Read off the faces columns, every boundary matrix of a quotient and
    of a ball is the per-cell oracle's, entry for entry."""
    from multiforge.universal import build_ball

    for x in (build_quotient(seeded_rep(d, k, n, seed)).complex, build_ball(Params(d, k), 2).complex):
        for j in range(1, x.d + 1):
            b = boundary_matrix(x, j)
            rows, cols, mat = _boundary_oracle(x, j)
            assert (b.rows, b.cols) == (rows, cols)
            assert np.array_equal(b.matrix, mat)


def test_chain_complex_identity():
    for seed in (0, 3):
        x = build_quotient(seeded_rep(3, 2, 8, 900 + seed)).complex
        for j in range(1, x.d + 1):
            lower = boundary_matrix(x, j - 1).matrix
            upper = boundary_matrix(x, j).matrix
            assert np.allclose(lower @ upper, 0.0)
    ball = __import__("multiforge.universal", fromlist=["build_ball"]).build_ball(
        Params(2, 3), 2
    )
    b1 = boundary_matrix(ball.complex, 1).matrix
    b2 = boundary_matrix(ball.complex, 2).matrix
    assert np.allclose(b1 @ b2, 0.0)


def test_graph_case_recovers_standard_laplacian():
    q = build_quotient(m_subgroup_rep(Params(1, 3)))  # K_{3,3}
    x = q.complex
    lap = up_laplacian(x)
    verts = [c.mid for c in x.multicells(0)]
    pos = {m: t for t, m in enumerate(verts)}
    oracle = np.zeros((6, 6))
    for cell in x.multicells(1):
        u = pos[x.cell(cell.mid).faces[cell.colors[1]]]
        v = pos[x.cell(cell.mid).faces[cell.colors[0]]]
        oracle[u, u] += 1
        oracle[v, v] += 1
        oracle[u, v] -= 1
        oracle[v, u] -= 1
    assert np.allclose(lap, oracle)


def test_single_simplex_spectrum():
    for d in (1, 2, 3):
        x = single_simplex(Params(d, 2))
        eigs = spectrum(x)
        assert np.allclose(eigs[:-1], 0.0, atol=1e-9)
        assert abs(eigs[-1] - (d + 1)) < 1e-9


def coboundary_basis(cob: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the column space of a coboundary matrix: its
    left singular vectors whose singular values exceed tol.  The leading
    columns of an unpivoted QR are no such basis, since leading coboundary
    columns can be dependent (on a 3-simplex the coboundaries of the three
    edges at v0 sum to dd(v0) = 0)."""
    u, s, _ = np.linalg.svd(cob, full_matrices=False)
    return u[:, s > tol]


def projected_up_spectrum(lap: np.ndarray, cob: np.ndarray) -> tuple[int, np.ndarray]:
    """Coboundary rank and the ascending spectrum of P lap P, where P
    projects out the column space of `cob`: `rank` zeros, then the
    spectrum on the cycles."""
    basis = coboundary_basis(cob)
    proj = np.eye(lap.shape[0]) - basis @ basis.T
    return basis.shape[1], np.linalg.eigvalsh(proj @ lap @ proj)


def operators(x) -> tuple[np.ndarray, np.ndarray]:
    """The upper Laplacian of x and its codimension-one coboundary matrix."""
    return up_laplacian(x), boundary_matrix(x, x.d - 1).matrix.T


def exact_rank(mat: np.ndarray) -> int:
    """Rank over the rationals of an integer matrix, by Gaussian elimination
    in Fractions on sparse rows: each row is reduced against the stored
    pivot rows, lowest column first, and stored if anything is left."""
    assert np.array_equal(mat, np.round(mat))
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in mat:
        v = {j: Fraction(int(a)) for j, a in enumerate(row) if a}
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = {j: a / v[lead] for j, a in v.items()}
                break
            factor = v[lead]
            for j, a in pivots[lead].items():
                v[j] = v.get(j, 0) - factor * a
                if v[j] == 0:
                    del v[j]
    return len(pivots)


def simplicial_fixtures() -> tuple[list, list]:
    """Deterministic simplicial complexes, then the simplicial ones among 25
    seeded random (d=2) quotients.  The deterministic list alone meets the
    floor of the formula test, so the count does not hang on the sampler's
    stream."""
    from multiforge.gallery import coxeter_complex, flag_complex
    from multiforge.universal import build_ball

    fixed = [single_simplex(Params(d, 2)) for d in (1, 2, 3)]
    for d, k in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3)]:
        fixed.append(build_quotient(m_subgroup_rep(Params(d, k))).complex)
    for gens in [
        [(1, 0, 2), (0, 2, 1)],  # A2
        [(1, 0, 3, 2), (0, 2, 1, 3)],  # B2
        [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)],  # A3
    ]:
        fixed.append(coxeter_complex(gens)[0])
    for dim, q in [(3, 2), (3, 3), (4, 2)]:
        fixed.append(flag_complex(dim, q))
    for d, k, r in [(2, 2, 2), (2, 2, 3), (2, 3, 1), (3, 2, 1), (3, 3, 1)]:
        fixed.append(build_ball(Params(d, k), r).complex)
    drawn = []
    for seed in range(25):
        q = build_quotient(seeded_rep(2, 2 + seed % 2, 7 + seed % 6, 1000 + seed))
        if complex_is_simplicial(q.complex):
            drawn.append(q.complex)
    return fixed, drawn


def test_formula_equals_matrix_on_simplicial_fixtures():
    fixed, drawn = simplicial_fixtures()
    assert len(fixed) >= 20, (
        f"{len(fixed)} deterministic (+ {len(drawn)} random) simplicial fixtures, need 20"
    )
    for x in fixed + drawn:
        assert complex_is_simplicial(x)
        lap = up_laplacian(x)
        faces, formula = up_laplacian_formula(x)
        rows = boundary_matrix(x, x.d).rows
        order = [sorted(x.cell(m).vertices) for m in rows]
        perm = [order.index(sorted(f)) for f in faces]
        assert np.allclose(formula, lap[np.ix_(perm, perm)])


def test_spectrum_meets_trace_identities():
    """Solver-independent facts about the spectrum: it is ascending, sums to
    trace(L_up), and its squares sum to the squared Frobenius norm."""
    fixed, drawn = simplicial_fixtures()
    for x in fixed + drawn:
        lap = up_laplacian(x)
        eigs = spectrum(x)
        assert len(eigs) == lap.shape[0]
        assert np.all(np.diff(eigs) >= 0)
        assert np.isclose(eigs.sum(), np.trace(lap), rtol=1e-12, atol=1e-8)
        assert np.isclose((eigs**2).sum(), (lap**2).sum(), rtol=1e-12, atol=1e-8)
    k33 = build_quotient(m_subgroup_rep(Params(1, 3))).complex
    assert np.allclose(spectrum(k33), [0.0, 3.0, 3.0, 3.0, 3.0, 6.0], atol=1e-9)


def test_psd_and_symmetry():
    for seed in (2, 4):
        x = build_quotient(seeded_rep(2, 3, 9, 1100 + seed)).complex
        lap = up_laplacian(x)
        assert np.allclose(lap, lap.T)
        assert spectrum(x)[0] >= -1e-9


def test_spectral_gap_k33_is_three():
    q = build_quotient(m_subgroup_rep(Params(1, 3)))
    assert abs(spectral_gap(q.complex) - 3.0) < 1e-6
    assert coboundary_rank(q.complex) == 1  # constants


def test_spectral_gap_matches_dense_oracle():
    q = build_quotient(m_subgroup_rep(Params(2, 2)))
    x = q.complex
    lam = spectral_gap(x)
    rank, eigs = projected_up_spectrum(*operators(x))
    assert rank == coboundary_rank(x)
    assert np.allclose(eigs[:rank], 0.0, atol=1e-9)
    assert abs(lam - eigs[rank]) < 1e-6


def test_spectral_gap_orientation_invariant():
    q = build_quotient(m_subgroup_rep(Params(2, 2)))
    x = q.complex
    b_top = boundary_matrix(x, x.d).matrix.copy()
    cob = boundary_matrix(x, x.d - 1).matrix.T.copy()
    reference = spectral_gap(x)
    rng = random.Random(7)
    for _ in range(5):
        signs = np.array([rng.choice([-1.0, 1.0]) for _ in range(b_top.shape[0])])
        flipped_lap = (signs[:, None] * b_top) @ (signs[:, None] * b_top).T
        flipped_cob = signs[:, None] * cob
        rank, eigs = projected_up_spectrum(flipped_lap, flipped_cob)
        assert abs(eigs[rank] - reference) < 1e-8


def test_single_simplex_gap_is_dim_plus_one():
    """One cycle class survives the coboundaries on a lone d-simplex and the
    upper Laplacian acts on it by d+1 (the complete-complex gap)."""
    for d in (1, 2, 3):
        x = single_simplex(Params(d, 2))
        lam = spectral_gap(x)
        assert abs(lam - (d + 1)) < 1e-9
        # dense oracle on the explicitly projected matrix: d of the d+1
        # facets' forms are coboundaries, the one cycle class carries d+1
        assert coboundary_rank(x) == d
        rank, eigs = projected_up_spectrum(*operators(x))
        assert rank == d and len(eigs) == d + 1
        assert np.allclose(eigs[:d], 0.0, atol=1e-9)
        assert abs(eigs[-1] - (d + 1)) < 1e-9  # the projected maximum


def gap_oracle_cases() -> list:
    """The simplicial fixtures, then three seeded quotients of each family
    the `spectra` benchmark draws from."""
    fixed, drawn = simplicial_fixtures()
    sampled = [
        build_quotient(seeded_rep(d, k, n, 1300 + seed)).complex
        for d, k, n in [(1, 3, 72), (1, 5, 120), (2, 5, 80)]
        for seed in range(3)
    ]
    return fixed + drawn + sampled


def test_rank_and_gap_match_exact_oracles():
    """The float coboundary rank equals the rank over Q, and the gap equals
    the eigenvalue after `rank` zeros of the explicitly projected matrix."""
    for x in gap_oracle_cases():
        rank = coboundary_rank(x)
        assert rank == exact_rank(boundary_matrix(x, x.d - 1).matrix)
        oracle_rank, eigs = projected_up_spectrum(*operators(x))
        assert rank == oracle_rank < len(eigs)
        assert abs(spectral_gap(x) - eigs[rank]) < 1e-8


def test_zero_gap_is_not_negative():
    """The (2,3) quotient of seed 7 on 9 points has a zero gap, which the
    eigensolver returns a few ulps below zero (about -8.9e-17 with numpy
    2.4); the gap is reported as exactly +0.0."""
    x = build_quotient(seeded_rep(2, 3, 9, 7)).complex
    rank = coboundary_rank(x)
    raw = spectrum(x)[rank]
    assert -1e-12 < raw < 0.0, raw  # the case this test is about
    gap = spectral_gap(x)
    assert gap == 0.0 and np.copysign(1.0, gap) == 1.0


def test_spectral_gap_undefined_when_no_complement():
    from multiforge.complexes import MComplex

    lone_vertex = MComplex(Params(1, 2), [0], {})
    with pytest.raises(SpectralGapUndefined):
        spectral_gap(lone_vertex)


def test_closed_forms():
    assert lambda_arboreal(Params(2, 3)) == 0.0  # k = d + 1 boundary case
    assert abs(lambda_arboreal(Params(2, 5)) - (6 - 4 * np.sqrt(2))) < 1e-12
    assert lambda_arboreal(Params(3, 2)) == 0.0
    assert abs(lambda_building(4) - (5 - 2 * np.sqrt(5))) < 1e-12
    with pytest.raises(ValueError):
        lambda_building(1)


def test_building_comparison_regimes():
    """The building gap against the arboreal gap at (d, k) = (2, q+1): a
    strict excess, with a positive building gap, shows that a covering can
    increase the gap."""
    for q in (2, 3):
        building, arboreal = lambda_building(q), lambda_arboreal(Params(2, q + 1))
        assert not building > arboreal
        assert not building > 0 or q == 3  # q=2 is negative, q=3 is zero-vs-zero
    for q in (4, 5, 7, 9):
        building, arboreal = lambda_building(q), lambda_arboreal(Params(2, q + 1))
        assert building > arboreal and building > 0


def test_d1_gap_is_algebraic_connectivity():
    for seed in (1, 6):
        q = build_quotient(seeded_rep(1, 3, 8, 1200 + seed))
        lam = spectral_gap(q.complex)
        eigs = np.linalg.eigvalsh(up_laplacian(q.complex))
        assert abs(lam - eigs[1]) < 1e-8  # connected graph: second-smallest
