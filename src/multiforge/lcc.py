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

from .complexes import (
    MComplex,
    MId,
    check_morphism,
    extend_down,
    is_surjective,
    propagate_from_root,
)
from .quotient import associated_subgroup_rep, orbit_quotient


def link_connected_cover(x: MComplex) -> tuple[MComplex, dict[MId, MId]]:
    """The link-connected cover of an ordered complex rooted at a top cell,
    plus the projection onto the input (a surjective morphism).

    The cover is `orbit_quotient` of the action of the generators on x's
    top cells in id order, so cover top t lies over top t of x.  The
    projection sends each cover top to that top and extends to the faces;
    a facet of the cover is on the boundary when its image is.  Raises
    ValueError on an unordered or unrooted input, on a root that is not a
    top cell, with the first fault of x's ordering, and when the projection
    is ill-defined on a lower cell."""
    proj = {top: top for top in x.mids(x.d)}
    cover, _ = orbit_quotient(associated_subgroup_rep(x))
    bad = extend_down(proj, cover, x, list(proj))
    if bad is not None:
        raise ValueError(f"cover projection ill-defined at {bad}")
    cover.boundary = frozenset(m for m in cover.mids(x.d - 1) if proj[m] in x.boundary)
    return cover, proj


def verify_universality(
    z: MComplex,
    phi: dict[MId, MId],
    y: MComplex,
    pi: dict[MId, MId],
) -> tuple[bool, dict[MId, MId] | None, str]:
    """Factor phi: Z -> X through pi: Y -> X by root propagation.

    Builds psi: Z -> Y with pi . psi = phi when Z is link-connected and both
    maps are epimorphisms onto the same target; reports the offending
    multicell otherwise, also where phi or pi is not defined."""
    psi, why = propagate_from_root(z, y)
    if psi is None:
        return False, None, why
    ok = check_morphism(psi, z, y)
    if not ok:
        return False, None, "; ".join(ok.messages[:3])
    if not is_surjective(psi, y):
        return False, None, "factoring map is not surjective"
    for mid, img in psi.items():
        if img not in pi:
            return False, None, f"pi is not defined on {img}"
        if mid not in phi:
            return False, None, f"phi is not defined on {mid}"
        if pi[img] != phi[mid]:
            return False, None, f"pi . psi != phi at {mid}"
    return True, psi, "ok"
