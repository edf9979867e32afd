"""Quotient multicomplexes of the universal arboreal complex.

From a transitive permutation action (a finite-index subgroup H), build the
colored ordered rooted multicomplex whose j-multicells are the orbits of the
generators outside each (j+1)-color set, plus the structural criteria:
multiplicity, regularity, intersection property, complete skeleton, the
line-graph / Schreier identification, and the classification round trip.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import prod
from typing import TYPE_CHECKING, NamedTuple

from .complexes import (
    CellMap,
    MComplex,
    _links_connected,
    _listed,
    _validate_structure,
    base_complex,
    check_consistency,
    coface_counts,
    complex_from_classes,
    extend_down,
    is_lower_path_connected,
    nerve,
    ordering_faults,
)
from .permrep import OrbitPartition, PermRep, orbit_partitions, require_valid
from .permrep import evaluate as rep_evaluate

if TYPE_CHECKING:
    from .graphs import Multigraph
    from .universal import Ball


class QuotientObject(NamedTuple):
    complex: MComplex
    rep: PermRep
    partitions: dict[tuple[int, ...], OrbitPartition]  # color set -> orbits


def build_quotient(rep: PermRep) -> QuotientObject:
    """The quotient object of the subgroup presented by `rep`: `orbit_quotient`
    of a rep that passes `validate`, built from the partitions it read."""
    x, partitions = _orbit_complex(rep, require_valid(rep).partitions)
    return QuotientObject(x, rep, partitions)


def orbit_quotient(rep: PermRep) -> tuple[MComplex, dict[tuple[int, ...], OrbitPartition]]:
    """The complex of the orbits of any action, transitive or not.

    Vertices are the orbits for singleton color sets (colored by that color),
    j-multicells the orbits for (j+1)-color sets, gluing drops one color,
    the coface cycle of a codimension-one multicell follows ascending powers
    of the missing generator from the orbit minimum, and the root is the
    class of the root point.  Point p is the top multicell (all colors, p).
    The class ids of `orbit_partitions` (permrep docstring, Orbits) are the
    columns of `complex_from_classes` and the generators its successor
    maps.  Returns the complex and the partitions of the nonempty color sets.
    """
    return _orbit_complex(rep, orbit_partitions(rep))


def _orbit_complex(rep: PermRep, partitions: dict[tuple[int, ...], OrbitPartition]):
    parts = {J: part for J, part in partitions.items() if J}
    classes = {J: part.class_ids for J, part in parts.items() if len(J) <= rep.params.d}
    return complex_from_classes(rep.params, classes, rep.root, rep.betas), parts


def complex_line_graph(x: MComplex) -> Multigraph:
    """Dual graph on the top multicells (in id order), one edge class per
    generator power pair: each codimension-one coface cycle contributes the
    Schreier multigraph edge rules for its color."""
    from .graphs import Multigraph, cycle_edges
    if x.ordering is None:
        raise ValueError("need an ordered complex")
    full, k = tuple(x.params.colors), x.params.k
    g = Multigraph(len(x.cells.get(full, ())))
    for i in full:
        for cyc in x.ordering.get(full[:i] + full[i + 1 :], []):
            cycle_edges(g, cyc, i, k)
    g.sort_edges()
    return g


def complex_is_simplicial(x: MComplex) -> bool:
    """True iff every multiplicity is one, i.e. multicells of equal color
    set never share their vertex set."""
    return all(len(set(cells.rows())) == len(cells) for cells in x.cells.values())


def intersection_property(rep: PermRep) -> bool:
    """For every color set J and point p, the intersection over i in J of
    the orbits of p under the generators other than i must equal the orbit
    of p under the generators outside J.

    The J-orbits refine each {i}-orbit with i in J, so the property holds
    iff no two J-orbits lie in the same {i}-orbits for every i in J: iff
    the J-orbits are as many as the distinct tuples (class of p under {i},
    i in J) over the points.  Linear in the points per color set."""
    parts = require_valid(rep).partitions
    return all(
        len(set(zip(*(parts[(i,)].class_ids for i in colors)))) == part.count
        for colors, part in parts.items()
        if len(colors) >= 2
    )


def complex_is_upper_regular(x: MComplex) -> bool:
    """Degree-k regularity read off the complex: every codimension-one
    multicell has exactly k cofaces."""
    return all(c == x.params.k for J, col in coface_counts(x).items() if len(J) == x.d for c in col)


def complex_has_complete_skeleton(x: MComplex) -> bool:
    """Every choice of one vertex per color in a proper color set spans at
    least one cell of the base complex (singletons always span)."""
    counts = Counter(x.vertex_colors)
    return all(
        len(set(cells.rows())) == prod(counts[c] for c in colors)
        for colors, cells in x.cells.items()
        if 2 <= len(colors) <= x.d
    )


def quotient_map(ball: Ball, q: QuotientObject) -> CellMap:
    """The unique morphism from the ball into the quotient: the cell of the
    coset of g maps to the orbit class of the point reached by g."""
    if ball.complex.params != q.rep.params:
        raise ValueError("ball and quotient must share (d, k)")
    tops = [rep_evaluate(w, q.rep.root, q.rep) for w in ball.cell_words.values()]
    f = extend_down(tops, ball.complex, q.complex)
    if not isinstance(f, CellMap):
        raise ValueError(f"quotient map ill-defined at {f}")
    return f


def associated_subgroup_rep(x: MComplex) -> PermRep:
    """The left action of the generators on the top multicells, in id
    order, rooted at the complex root: generator i advances each top cell
    one step along the ordering cycle of its facet missing color i, so it is
    the successor map of the cycles of that color set.  For quotient objects
    this recovers the source rep up to a root-fixing relabeling.

    Raises ValueError on an unordered or unrooted complex, on a root that
    is not a top cell, and with `ordering_faults`' first fault, which it
    seeks only when an owner column finds one: each top cell must be listed
    once, in the cycle of its own facet."""
    if x.ordering is None:
        raise ValueError("the complex has no ordering")
    if x.root is None:
        raise ValueError("the complex has no root")
    full = tuple(x.params.colors)
    n = len(x.cells.get(full, ()))
    if x.root[0] != full or not 0 <= x.root[1] < n:
        raise ValueError(f"the root {x.root} is not a top cell")
    faces, betas = x.cells[full].faces, []
    for i in full:
        m = len(x.cells.get(full[:i] + full[i + 1 :], ()))
        cycles = (x.ordering.get(full[:i] + full[i + 1 :]) or [])[:m]
        flat, after, owner = _listed(cycles)
        betas.append(tuple(map(dict(zip(flat, after)).get, range(n))))
        facets = faces[i :: len(full)]  # each top's own facet
        if (len(cycles) != m or None in cycles or len(flat) != n or None in betas[-1]
                or list(map(facets.__getitem__, flat)) != owner):
            raise ValueError(next(ordering_faults(x)))
    return PermRep(x.params, n, tuple(betas), x.root[1])


def nerve_matches_base(q: QuotientObject) -> bool:
    """The nerve of the coset family, the point set of each vertex's orbit
    class keyed by vertex id, is the base complex."""
    fam = {
        q.complex.cells[(c,)].vertices[orbit_id]: pts
        for c in q.rep.params.colors
        for orbit_id, pts in enumerate(q.partitions[(c,)].members())
    }
    return nerve(fam) == base_complex(q.complex)


def analyze(x: MComplex) -> str:
    """The structural report printed by `multiforge analyze`, one
    `name: value` line each: sizes per color and dimension, the structural
    predicates, and the histogram of codimension-one degrees.  Raises
    ValueError with the first gluing fault, since the link and path
    predicates read faces through the gluing."""
    counts = coface_counts(x)  # read by three of the checks below
    valid = _validate_structure(x, counts)
    if not valid and not (glued := check_consistency(x)):
        raise ValueError(glued.messages[0])
    by_dim: Counter = Counter()
    base_by_dim: Counter = Counter()
    for colors, cells in x.cells.items():
        by_dim[len(colors) - 1] += len(cells)
        base_by_dim[len(colors) - 1] += len(set(cells.rows()))
    per_color = [x.vertex_colors.count(c) for c in x.params.colors]
    hist = Counter(chain.from_iterable(c for J, c in counts.items() if len(J) == x.d))
    flags = [
        ("structure-valid", valid.ok),
        ("simplicial", complex_is_simplicial(x)),
        ("upper-regular", set(hist) <= {x.params.k}),  # `complex_is_upper_regular`
        ("link-connected", _links_connected(x, counts)),
        ("lower-path-connected", is_lower_path_connected(x, x.d)),
        ("skeleton-complete", complex_has_complete_skeleton(x)),
    ]
    lines = [
        f"d: {x.params.d}",
        f"k: {x.params.k}",
        f"vertices: {x.n_vertices}",
        "vertices-per-color: " + " ".join(map(str, per_color)),
        *(f"multicells[{dim}]: {by_dim[dim]}" for dim in sorted(by_dim)),
        *(f"cells[{dim}]: {base_by_dim[dim]}" for dim in sorted(base_by_dim)),
        *(f"{name}: {str(value).lower()}" for name, value in flags),
        f"degree-histogram[{x.d - 1}]: "
        + " ".join(f"{deg}:{hist[deg]}" for deg in sorted(hist)),
    ]
    return "\n".join(lines) + "\n"
