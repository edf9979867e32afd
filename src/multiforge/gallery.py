"""Constructors for the example families: the exponent-sum kernel quotients,
Coxeter chamber complexes, and flag complexes of finite vector spaces."""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from .complexes import MComplex, class_columns, complex_from_classes, from_simplicial
from .permrep import PermRep
from .quotient import complex_is_simplicial
from .words import Params

Permutation = tuple[int, ...]


def m_subgroup_rep(p: Params) -> PermRep:
    """The index-k^(d+1) normal subgroup of words with all exponent sums
    zero: points are (Z/k)^(d+1), generator i adds one to coordinate i,
    rooted at the zero vector.  Its quotient is the complete (d+1)-partite
    complex with parts of size k.  Point q's base-k digits are its
    coordinates, coordinate i in place s = k^(d-i), so generator i adds s
    to q, or subtracts (k-1)*s where that digit is k-1 and wraps to 0."""
    d, k = p.d, p.k
    n = k ** (d + 1)
    betas = []
    for i in range(d + 1):
        s = k ** (d - i)
        betas.append(tuple(q - (k - 1) * s if q // s % k == k - 1 else q + s for q in range(n)))
    return PermRep(p, n, tuple(betas), 0)


# -- Coxeter complexes -------------------------------------------------------------


# The most elements a Coxeter group may have before its closure stops.
GROUP_CAP = 20000


class GroupSizeCapExceeded(ValueError):
    pass


class NotAnInvolution(ValueError):
    """Generator `index` (counted from 0) is the identity or has order > 2."""

    def __init__(self, index: int):
        super().__init__(f"generator {index} is not an involution")
        self.index = index


def _compose(a: Permutation, b: Permutation) -> Permutation:
    return tuple(a[b[t]] for t in range(len(a)))


def _closure(gens: list[Permutation]) -> list[Permutation]:
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                sw = _compose(s, w)
                if sw not in seen:
                    seen.add(sw)
                    order.append(sw)
                    nxt.append(sw)
                    if len(seen) > GROUP_CAP:
                        raise GroupSizeCapExceeded(f"group exceeds cap {GROUP_CAP}")
        frontier = nxt
    return sorted(order)


def coxeter_kernel_rep(gens: list[Permutation]) -> tuple[PermRep, list[Permutation]]:
    """Regular action of the group generated by the involutions on itself by
    left multiplication; the root stabilizer is the kernel of the map from
    the rank-|S| free product of order-2 factors."""
    if not gens:
        raise ValueError("need at least one generator")
    m = len(gens[0])
    identity = tuple(range(m))
    for t, s in enumerate(gens):
        if len(s) != m or sorted(s) != list(range(m)):
            raise ValueError(f"generator {t} is not a permutation")
        if s == identity or _compose(s, s) != identity:
            raise NotAnInvolution(t)
    elems = _closure(gens)
    index = {w: t for t, w in enumerate(elems)}
    betas = tuple(
        tuple(index[_compose(s, w)] for w in elems) for s in gens
    )
    p = Params(len(gens) - 1, 2)
    return PermRep(p, len(elems), betas, index[identity]), elems


def coxeter_complex(gens: list[Permutation]) -> tuple[MComplex, PermRep]:
    """The chamber complex of the involutions, built straight from coset
    enumeration, and the kernel rep of its group: vertices are cosets of
    the maximal standard subgroups, a chamber per group element, and cells
    collect one coset per color.  Raises ValueError when the complex is not
    simplicial; the chamber complex of a Coxeter system always is.  The
    quotient of the kernel rep is the same complex (criterion 12)."""
    rep, elems = coxeter_kernel_rep(gens)
    n_colors = len(gens)
    identity = tuple(range(len(gens[0])))

    @cache
    def subgroup(colors: tuple[int, ...]) -> list[Permutation]:
        hat = [gens[i] for i in range(n_colors) if i not in colors]
        return _closure(hat) if hat else [identity]

    def coset_key(w: Permutation, colors: tuple[int, ...]) -> Permutation:
        return min(_compose(u, w) for u in subgroup(colors))

    classes = class_columns(rep.params, elems, coset_key)
    x = complex_from_classes(rep.params, classes, rep.root, rep.betas)  # betas: w -> s_i·w
    if not complex_is_simplicial(x):
        raise ValueError("the chamber complex of these involutions is not simplicial")
    return x, rep


# -- flag complexes ---------------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def enumerate_subspaces(dim: int, q: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """All r-dimensional subspaces of F_q^dim as reduced-row-echelon bases."""
    out = []
    for pivots in combinations(range(dim), r):
        free_positions = [
            (row, col)
            for row in range(r)
            for col in range(dim)
            if col > pivots[row] and col not in pivots
        ]
        for values in product(range(q), repeat=len(free_positions)):
            mat = [[0] * dim for _ in range(r)]
            for row, piv in enumerate(pivots):
                mat[row][piv] = 1
            for (row, col), val in zip(free_positions, values):
                mat[row][col] = val
            out.append(tuple(tuple(row) for row in mat))
    return out


def _reduce_vector(v: tuple[int, ...], basis: tuple[tuple[int, ...], ...], q: int) -> tuple[int, ...]:
    v = list(v)
    for row in basis:
        piv = next(t for t, x in enumerate(row) if x != 0)
        coef = v[piv]  # leading entries are 1 in RREF
        if coef:
            for t in range(len(v)):
                v[t] = (v[t] - coef * row[t]) % q
    return tuple(v)


def subspace_contains(big: tuple, small: tuple, q: int) -> bool:
    return all(not any(_reduce_vector(row, big, q)) for row in small)


def flag_complex(dim: int, q: int, ordered: bool = False) -> MComplex:
    """Flags of proper nontrivial subspaces of F_q^dim (q prime): a
    (dim-2)-dimensional simplicial complex colored by subspace dimension,
    upper regular of degree q+1.

    No natural ordering exists; `ordered=True` attaches an arbitrary one
    (each codimension-one flag has exactly q+1 completions, so any cyclic
    order is legal)."""
    if dim < 3:
        raise ValueError("dim must be >= 3")
    if not _is_prime(q):
        raise ValueError(f"q must be prime (extension fields not supported), got {q}")
    by_rank = {r: enumerate_subspaces(dim, q, r) for r in range(1, dim)}
    vertex_colors = []
    vid = {}
    for r in range(1, dim):
        for sub in by_rank[r]:
            vid[sub] = len(vertex_colors)
            vertex_colors.append(r - 1)
    # full flags by walking containments upward
    flags: list[tuple] = [(s,) for s in by_rank[1]]
    for r in range(2, dim):
        flags = [
            chain + (big,)
            for chain in flags
            for big in by_rank[r]
            if subspace_contains(big, chain[-1], q)
        ]
    tops = [tuple(vid[s] for s in chain) for chain in flags]
    params = Params(dim - 2, q + 1)
    x = from_simplicial(params, vertex_colors, tops)
    if not ordered:
        x.ordering = None
        x.root = None
    return x


def flag_count(dim: int, q: int) -> int:
    total = 1
    for i in range(2, dim + 1):
        total *= (q**i - 1) // (q - 1)
    return total
