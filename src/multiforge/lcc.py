"""Link-connected cover: the orbit quotient of a complex's top-cell action.

The generators act on the top cells of an ordered rooted complex X by
stepping along the ordering cycles (the associated subgroup).  The complex
of the orbits of that action is the link-connected cover of X: it has the
same line graph, and forgetting the orbits' extra vertices and cells is a
morphism onto X.  The cover's top cells are X's top cells in id order.  On
a quotient the cover is the quotient itself, byte for byte; on a quotient
with merged vertices it is the unmerged quotient; on any other
link-connected input it is an isomorphic renumbering.  Applying the cover
twice gives the same complex.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress, count, repeat

from .complexes import (
    CellMap,
    MComplex,
    MId,
    _by_size,
    _differ,
    _image_columns,
    _nones,
    check_morphism,
    extend_down,
    is_surjective,
    propagate_from_root,
)
from .quotient import associated_subgroup_rep, orbit_quotient


def link_connected_cover(x: MComplex) -> tuple[MComplex, CellMap]:
    """The link-connected cover of an ordered complex rooted at a top cell,
    plus the projection onto the input (a surjective morphism).

    The cover is `orbit_quotient` of the action of the generators on x's
    top cells in id order, so cover top t lies over top t of x.  The
    projection sends each cover top to that top and extends to the faces;
    a facet of the cover is on the boundary when its image is.  Raises
    ValueError on an unordered or unrooted input, on a root that is not a
    top cell, with the first fault of x's ordering, and when the projection
    is ill-defined on a lower cell."""
    cover, _ = orbit_quotient(associated_subgroup_rep(x))
    proj = extend_down(range(len(x.cells[tuple(x.params.colors)])), cover, x)
    if not isinstance(proj, CellMap):
        raise ValueError(f"cover projection ill-defined at {proj}")
    cover.boundary = frozenset(
        (J, i) for J, column in proj.columns.items() if len(J) == x.d
        for i in compress(count(), map(x.boundary.__contains__, zip(repeat(J), column))))
    return cover, proj


def verify_universality(z: MComplex, phi: Mapping[MId, MId], y: MComplex,
                        pi: Mapping[MId, MId]) -> tuple[bool, CellMap | None, str]:
    """Factor phi: Z -> X through pi: Y -> X by root propagation.

    Builds psi: Z -> Y with pi . psi = phi when Z is link-connected and both
    maps are epimorphisms onto the same target; reports the offending
    multicell otherwise, the first in `mids()` order, also where phi or pi
    is not defined.  pi . psi and phi are compared as image columns."""
    psi, why = propagate_from_root(z, y)
    if psi is None:
        return False, None, why
    ok = check_morphism(psi, z, y)
    if not ok:
        return False, None, "; ".join(ok.messages[:3])
    if not is_surjective(psi, y):
        return False, None, "factoring map is not surjective"
    over, under, mine = _image_columns(pi, y), _image_columns(phi, z), _image_columns(psi, z)
    for J in sorted(z.cells, key=_by_size):
        composed = list(map(over.get(J, []).__getitem__, mine[J]))
        if (i := min(_differ(composed, under[J]) + _nones(composed), default=None)) is not None:
            return False, None, (f"pi is not defined on {(J, mine[J][i])}" if composed[i] is None
                                 else f"phi is not defined on {(J, i)}" if under[J][i] is None
                                 else f"pi . psi != phi at {(J, i)}")
    return True, psi, "ok"
