"""Signed boundary operators, the upper Laplacian on codimension-one forms,
and spectral gaps.

The reference orientation of every multicell is the ascending order of its
vertex ids; the gap is orientation-invariant so any canonical choice works.
Eigenvalues come from numpy's dense symmetric eigensolver (`eigvalsh`) and
the coboundary rank from the singular values of B_{d-1} above the one fixed
tolerance `TOL`; both hold the whole matrix in memory, so the cost grows
with the cube of the number of forms.  numpy is imported by the functions
that use it, so importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

from itertools import accumulate
from math import sqrt
from typing import TYPE_CHECKING, NamedTuple

from .complexes import MComplex, MId
from .words import Params

if TYPE_CHECKING:
    import numpy as np

TOL = 1e-9  # singular values above it count toward a rank; eigenvalues below -TOL are errors


class SignedIncidence(NamedTuple):
    rows: list[MId]  # (j-1)-multicells; [EMPTY] for j = 0
    cols: list[MId]  # j-multicells
    matrix: np.ndarray  # entries in {-1, 0, +1}


class SpectralGapUndefined(ValueError):
    """Every codimension-one form is a coboundary; the gap has no domain."""


def boundary_matrix(x: MComplex, j: int) -> SignedIncidence:
    """Signed incidence between j-multicells and their glued facets, read off
    the faces columns; the sign of the facet dropping the vertex at position
    p is (-1)^(rank of that vertex in the cell's vertex row)."""
    import numpy as np

    if not 0 <= j <= x.d:
        raise ValueError(f"dimension {j} out of range 0..{x.d}")
    cols = list(x.mids(j))
    if j == 0:
        return SignedIncidence([((), 0)], cols, np.ones((1, len(cols))))
    rows = list(x.mids(j - 1))
    below = sorted(J for J in x.cells if len(J) == j)  # the row color sets, in `mids` order
    start = dict(zip(below, accumulate((len(x.cells[J]) for J in below), initial=0)))
    mat, col = np.zeros((len(rows), len(cols))), 0
    for J in sorted(J for J in x.cells if len(J) == j + 1):
        cells, m = x.cells[J], len(x.cells[J])
        ranks = np.argsort(np.argsort(np.reshape(cells.vertices, (m, j + 1)), axis=1), axis=1)
        for p in range(j + 1):
            facets = start[J[:p] + J[p + 1 :]] + np.array(cells.faces[p :: j + 1], dtype=int)
            mat[facets, col + np.arange(m)] = 1 - 2 * (ranks[:, p] % 2)
        col += m
    return SignedIncidence(rows, cols, mat)


def up_laplacian(x: MComplex) -> np.ndarray:
    """B_d B_d^T on the (d-1)-multicells; for a graph this is the standard
    Laplacian D - A."""
    b = boundary_matrix(x, x.d)
    return b.matrix @ b.matrix.T


def spectrum(x: MComplex) -> np.ndarray:
    """Full upper-Laplacian spectrum on codimension-one forms, ascending."""
    import numpy as np

    return np.linalg.eigvalsh(up_laplacian(x))


def coboundary_rank(x: MComplex) -> int:
    """Dimension of the codimension-one coboundaries: the number of singular
    values of B_{d-1} above `TOL`."""
    import numpy as np

    b = boundary_matrix(x, x.d - 1).matrix
    if b.size == 0:
        return 0
    return int((np.linalg.svd(b, compute_uv=False) > TOL).sum())


def spectral_gap(x: MComplex) -> float:
    """Minimum of the upper Laplacian spectrum restricted to the orthogonal
    complement of the codimension-one coboundaries; see `gap_from_spectrum`.

    Raises SpectralGapUndefined when that complement is zero-dimensional."""
    return gap_from_spectrum(spectrum(x), coboundary_rank(x), x.d)


def gap_from_spectrum(eigs: np.ndarray, rank: int, d: int) -> float:
    """The spectral gap of a d-dimensional complex from its ascending
    upper-Laplacian spectrum `eigs` and its coboundary rank.

    L_up = B_d B_d^T is zero on the coboundaries (B_d^T B_{d-1}^T = 0) and
    preserves their orthogonal complement, so its spectrum is `rank` zeros
    from the coboundaries plus the spectrum on the complement, and the gap
    is the eigenvalue right after the first `rank`.  A zero gap can come out
    of the eigensolver a few ulps below zero; it is returned as 0.0.

    Raises SpectralGapUndefined when the complement is zero-dimensional,
    ValueError when an eigenvalue is below -TOL."""
    if rank == len(eigs):
        raise SpectralGapUndefined(
            f"all {d - 1}-forms are coboundaries (rank {rank} of {len(eigs)})"
        )
    if eigs[0] < -TOL:
        raise ValueError(f"upper Laplacian not positive semidefinite: {eigs[0]}")
    return max(0.0, float(eigs[rank]))


def lambda_arboreal(p: Params) -> float:
    """Spectral gap of the infinite k-regular d-dimensional arboreal
    complex: zero for k <= d, else k + d - 1 - 2*sqrt(d(k-1))."""
    if p.k <= p.d:
        return 0.0
    return p.k + p.d - 1 - 2.0 * sqrt(p.d * (p.k - 1))


def lambda_building(q: int) -> float:
    """Spectral gap of the rank-2 affine building with residue count q:
    q + 1 - 2*sqrt(q+1)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return q + 1 - 2.0 * sqrt(q + 1)
