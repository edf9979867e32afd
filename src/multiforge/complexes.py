"""Colored, ordered, rooted multicomplexes and their structural predicates.

A multicomplex is a simplicial complex plus a multiplicity per cell and a
gluing map choosing which copy of each facet bounds each copy of a cell.
Multicells are keyed by (color set, dense index).  Vertices always have
multiplicity one, so gluing to dimension zero is forced and derivable.

The gluing is consistent when, in every multicell, the facet that drops
color a and the facet that drops color b share the face that drops both.
Any two orders of dropping colors differ by a chain of swaps of two
adjacent colors, so this local identity makes every order reach the same
face: each multicell then contains exactly one face per subset of its
colors, and faces, links and cofaces are read straight from the facets.

Complex files are mcomplex/2 JSON, one object with the keys `format`,
`params` ({d, k}), `vertex_colors`, `cells`, `ordering`, `root` and
`boundary`.  The facet of a cell that drops one of its colors J[p] has
the other colors, so a cell is fixed by its vertices and the indices of
its facets.  `MComplex` stores exactly these columns and no coface index:
the in-memory layout is the file layout.

- `cells` holds one record per color set J with |J| >= 2, in (size,
  colors) order: {"colors": J, "vertices": [...], "faces": [...]}, two
  flat columns of n_J·|J| ints.  Cell i is (J, i); its vertices are
  vertices[i·|J| : (i+1)·|J|] and its facet that drops J[p] is
  (J minus J[p], faces[i·|J| + p]).  Vertices are the 0-cells: vertex v
  is (c,), its rank among the vertices of color c.
- `ordering` is null or holds one record per color set J of size d:
  {"colors": J, "cycles": [...]}, one entry per (d-1)-cell of J in index
  order, the indices of its top cofaces in cycle order (null where a cell
  has no cycle).  `MComplex.ordering` holds these lists, keyed by J.
- `root` is null or a multicell id [colors, index]; `boundary` lists ids.

A morphism is a `CellMap`, read-only behind `Mapping`: one image column of
indices per color set.  The morphism code returns it, and reads any other
Mapping into such columns.
"""

from __future__ import annotations

import json
import reprlib
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Mapping
from functools import cache
from itertools import accumulate, chain, combinations, compress, count, filterfalse, groupby, repeat
from operator import eq, is_, is_not, itemgetter, ne, not_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .records import Record
from .words import Params

MId = tuple[tuple[int, ...], int]  # (sorted color tuple, index dense per color set)


def _by_size(colors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (len(colors), colors)


@cache
def _drops(colors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The color set of the facet that drops colors[p], for each p."""
    if len(colors) < 2:
        return ()
    return tuple(colors[:p] + colors[p + 1 :] for p in range(len(colors)))


class Cells(Record):
    """The multicells of one color set J as two flat columns: cell i has
    the vertices vertices[i·|J| : (i+1)·|J|], and its facet that drops J[p]
    is (J minus J[p], faces[i·|J| + p]).  A vertex color set (c,) lists the
    vertex ids of color c in increasing order and has no facets."""

    __slots__ = _fields = ("colors", "vertices", "faces")

    def __init__(self, colors: tuple[int, ...], vertices: list[int], faces: list[int]):
        self.colors, self.vertices, self.faces = colors, vertices, faces

    def __len__(self) -> int:
        return len(self.vertices) // len(self.colors)

    def rows(self) -> Iterator[tuple[int, ...]]:
        """The vertex tuple of each cell, in index order."""
        return zip(*[iter(self.vertices)] * len(self.colors))


class Multicell(NamedTuple):
    """A read-only view of one multicell, made by `MComplex.cell`."""

    colors: tuple[int, ...]  # strictly increasing
    index: int
    vertices: tuple[int, ...]  # vertex ids, aligned with colors
    faces: Mapping[int, MId]  # dropped color -> glued facet copy; empty in dim 0

    @property
    def mid(self) -> MId:
        return (self.colors, self.index)

    @property
    def dim(self) -> int:
        return len(self.colors) - 1


class Diagnostics(Record):
    __slots__ = _fields = ("ok", "messages")

    def __init__(self, ok: bool, messages: list[str] | None = None):
        self.ok, self.messages = ok, [] if messages is None else messages

    def __bool__(self) -> bool:
        return self.ok


class MComplex:
    """A d-multicomplex with vertex coloring, optional k-ordering and root.

    `cells` maps each color set to its `Cells` columns, the layout of the
    mcomplex/2 file; nothing else stores the multicells or their cofaces
    (`coface_counts` and `top_faces` read the faces columns on each
    call).  The vertex color sets come from `vertex_colors` (index =
    rank among same-color vertices); `cell` and `multicells` are views.
    `ordering` maps each color set J of size d to its file `cycles` list:
    for (d-1)-cell i of J, its top cofaces' indices in the order the
    generator missing from J steps through them, or None.  `boundary`
    flags (d-1)-cells with incomplete cycles (radius cutoffs)."""

    def __init__(
        self,
        params: Params,
        vertex_colors: list[int],
        cells: dict[tuple[int, ...], Cells],
        ordering: dict[tuple[int, ...], list[list[int] | None]] | None = None,
        root: MId | None = None,
        boundary: frozenset[MId] = frozenset(),
    ):
        self.params = params
        self.vertex_colors = list(vertex_colors)
        self.cells = {tuple(k): v for k, v in cells.items() if len(k) >= 2}
        for v, c in enumerate(self.vertex_colors):
            self.cells.setdefault((c,), Cells((c,), [], [])).vertices.append(v)
        self.ordering = dict(ordering) if ordering is not None else None
        self.root = root
        self.boundary = frozenset(boundary)

    # -- basic access --------------------------------------------------------

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_colors)

    def cell(self, mid: MId) -> Multicell:
        """A read-only view of one multicell, read off its columns."""
        colors, index = tuple(mid[0]), mid[1]
        faces = dict(zip(colors, self.facets((colors, index))))
        vertices = self.cells[colors].vertices[index * len(colors) : (index + 1) * len(colors)]
        return Multicell(colors, index, tuple(vertices), MappingProxyType(faces))

    def facets(self, mid: MId) -> list[MId]:
        """The facets of `mid` in the order of the colors they drop (none for
        a vertex), read off the faces column."""
        colors, index = mid
        cells, size = self.cells.get(colors), len(colors)
        if cells is None or not 0 <= index < len(cells.vertices) // size:
            raise KeyError(f"no multicell {mid}")
        return list(zip(_drops(colors), cells.faces[index * size : (index + 1) * size]))

    def has_cell(self, mid: MId) -> bool:
        colors, index = mid
        cells = self.cells.get(tuple(colors))
        return cells is not None and 0 <= index < len(cells.vertices) // len(cells.colors)

    def mids(self, dim: int | None = None) -> Iterator[MId]:
        """The multicell ids, by (size, colors) and then index."""
        for colors in sorted(self.cells, key=_by_size):
            if dim is None or len(colors) == dim + 1:
                yield from ((colors, i) for i in range(len(self.cells[colors])))

    def multicells(self, dim: int | None = None) -> Iterator[Multicell]:
        return map(self.cell, self.mids(dim))

    def vertex_cell(self, v: int) -> MId:
        c = self.vertex_colors[v]
        return ((c,), bisect_left(self.cells[(c,)].vertices, v))

    def cycle(self, mid: MId) -> list[int] | None:
        """The ordering cycle of a (d-1)-multicell as top indices, or None."""
        cycles = self.ordering.get(mid[0]) if self.ordering else None
        return cycles[mid[1]] if cycles and 0 <= mid[1] < len(cycles) else None


# -- cofaces, read off the faces columns ------------------------------------------

def coface_counts(x: MComplex) -> dict[tuple[int, ...], list[int]]:
    """|δ| of every multicell, one count column per color set: how many
    faces entries one dimension up name the cell.  An entry that names no
    cell is left out."""
    named = {J: Counter() for J in x.cells}
    for J, cells in x.cells.items():
        for p, sub in enumerate(_drops(J)):
            named.get(sub, Counter()).update(cells.faces[p :: len(J)])
    return {J: list(map(c.__getitem__, range(len(x.cells[J])))) for J, c in named.items()}


def top_faces(x: MComplex, colors: Iterable[int]) -> list[int]:
    """The index of each top cell's face of the given colors, dropping the
    other colors in ascending order by composing faces columns with `map`
    (on a consistent complex every order reaches it).  A facet index that
    names no cell raises KeyError where the walk would go through it."""
    cur, keep = tuple(x.params.colors), set(colors)
    column = list(range(len(x.cells.get(cur, ()))))
    for l in (l for l in x.params.colors if l not in keep):
        if column and not 0 <= min(column) <= max(column) < len(x.cells[cur]):
            raise KeyError(f"no multicell {(cur, min(column) if min(column) < 0 else max(column))}")
        p = cur.index(l)
        column = list(map(x.cells[cur].faces[p :: len(cur)].__getitem__, column))
        cur = cur[:p] + cur[p + 1 :]
    return column


# -- structural audits --------------------------------------------------------

def check_consistency(x: MComplex) -> Diagnostics:
    """The gluing is well formed and consistent.

    Well formed: the facet of each multicell of dimension >= 1 that drops
    color l exists (the columns give it the other colors).  Consistent: in
    each multicell, the facet that drops a and the facet that drops b share
    the face that drops both.  This local identity suffices: any two orders
    of dropping colors differ by swaps of adjacent colors, and each swap is
    such a square in some face of the multicell, so every order reaches the
    same face and each multicell contains exactly one face per subset of its
    colors."""
    messages = []
    for J in sorted(x.cells, key=_by_size):
        size, subs = len(J), _drops(J)
        counts = [len(x.cells[sub]) if sub in x.cells else 0 for sub in subs]
        for t, f in enumerate(x.cells[J].faces):
            if not 0 <= f < counts[t % size]:
                fid, mid = (subs[t % size], f), (J, t // size)
                messages.append(f"dangling gluing reference {fid} from {mid}")
    if messages:
        return Diagnostics(False, messages)
    for J in sorted(x.cells, key=_by_size):
        size, subs, faces, faults = len(J), _drops(J), x.cells[J].faces, []
        for pa, pb in combinations(range(size) if size >= 3 and faces else (), 2):
            sub = _drops(subs[pa])[pb - 1]  # the face dropping J[pa] and J[pb], read both ways
            via_a = map(x.cells[subs[pa]].faces[pb - 1 :: size - 1].__getitem__, faces[pa::size])
            via_b = map(x.cells[subs[pb]].faces[pa :: size - 1].__getitem__, faces[pb::size])
            faults += [(i, pa, pb, (sub, u), (sub, w))
                       for i, (u, w) in enumerate(zip(via_a, via_b)) if u != w]
        messages += [
            f"inconsistent gluing under {(J, i)}: face of colors {a[0]} reached as both {a} and {b}"
            for i, _, _, a, b in sorted(faults)
        ]
    return Diagnostics(not messages, messages)


def _differ(a: list, b: list) -> list[int]:
    """The positions where the lists a and b differ, none if they are equal
    as wholes, which is tested first."""
    return [] if a == b else list(compress(count(), map(ne, a, b)))


def _take(column: list[int], *tables: list) -> tuple[list[int], list[list]]:
    """The positions where column holds no index of the tables, and for
    each table, table[i] for each i of column (None at those positions)."""
    n = min(map(len, tables))
    if not column or 0 <= min(column) and max(column) < n:
        return [], [list(map(table.__getitem__, column)) for table in tables]
    outside = [e for e, i in enumerate(column) if not 0 <= i < n]
    return outside, [[table[i] if 0 <= i < n else None for i in column] for table in tables]


def validate_structure(x: MComplex) -> Diagnostics:
    """Well-formedness: `check_consistency`'s messages first, then vertex
    colors out of range, then the multicells' faults, then the degree
    bound, the `ordering_faults` audit and cycle lengths, boundary flags
    that name (d-1)-multicells, and the root.  Color order, dense indices
    and arity are the columns' own shape, which the reader checks.

    Each rule on the multicells of a color set is one comparison of whole
    columns that returns the cells breaking it: the colors of each vertex
    column, each vertex column of the facets that drop one color against
    the cells' own (a facet index that names no cell is
    `check_consistency`'s fault), and the coface counts.  Messages are
    written for those cells only, by cell and then rule."""
    return _validate_structure(x, coface_counts(x))


def _validate_structure(x: MComplex, cofaces: dict[tuple[int, ...], list[int]]) -> Diagnostics:
    d, k, vertex_colors = x.params.d, x.params.k, x.vertex_colors
    msgs = check_consistency(x).messages
    msgs += [f"vertex {v} has color {c} out of range" for v, c in enumerate(vertex_colors)
             if not 0 <= c <= d]
    for J, cells in x.cells.items():
        size, vertices, faults = len(J), cells.vertices, []
        _, (carried,) = _take(vertices, vertex_colors)
        for q, c in enumerate(J):
            faults += [(i, q, f"{(J, i)}: vertex {vertices[i * size + q]} does not carry color {c}")
                       for i in _differ(carried[q::size], [c] * len(cells))]
        for p, sub in enumerate(_drops(J)):
            lower = x.cells[sub].vertices if sub in x.cells else []
            column, wrong = cells.faces[p::size], set()
            dangling, facets = _take(column, *(lower[q :: size - 1] for q in range(size - 1)))
            for q, got in enumerate(facets):
                wrong.update(_differ(got, vertices[q + (q >= p) :: size]))
            faults += [(i, size + p, f"{(J, i)}: facet {(sub, column[i])} has wrong vertices")
                       for i in wrong.difference(dangling)]
        if size <= d:
            faults += [(i, 2 * size, f"{(J, i)}: not contained in any top multicell (impure)")
                       for i in compress(count(), map(not_, cofaces[J]))]
        msgs += [message for *_, message in sorted(faults)]
    msgs += [f"{(J, i)}: degree {deg} exceeds k={k}"
             for J in sorted(J for J in x.cells if len(J) == d) if max(cofaces[J], default=0) > k
             for i, deg in enumerate(cofaces[J]) if deg > k]
    if x.ordering is not None:
        msgs += ordering_faults(x)
        for J, cycles in sorted(x.ordering.items()):
            for i, cyc in enumerate(cycles):
                if cyc is not None and (not cyc or k % len(cyc)) and (J, i) not in x.boundary:
                    msgs.append(f"{(J, i)}: cycle length {len(cyc)} does not divide k")
    for mid in sorted(x.boundary):
        if len(mid[0]) != d or not x.has_cell(mid):
            msgs.append(f"boundary {mid}: not a {d - 1}-multicell")
    if x.root is not None and not x.has_cell(x.root):
        msgs.append(f"root {x.root} missing")
    return Diagnostics(not msgs, msgs)


def ordering_faults(x: MComplex) -> Iterator[str]:
    """The one audit of an ordering, by (d-1)-multicell in id order: the
    cycle of each must list each of its top cofaces once and nothing else.
    A top whose facet index names no cell comes first in its color set, as
    a facet with no ordering cycle.  x must be ordered."""
    full = tuple(x.params.colors)
    tops = x.cells[full].faces if full in x.cells else []
    for p in reversed(range(len(full))):  # the color sets of size d, increasing
        J = full[:p] + full[p + 1 :]
        cofaces: list[list[int]] = [[] for _ in range(len(x.cells.get(J, ())))]
        for t, f in enumerate(tops[p :: len(full)]):
            if 0 <= f < len(cofaces):
                cofaces[f].append(t)
            else:
                yield f"the facet {(J, f)} has no ordering cycle"
        cycles = (x.ordering.get(J) or []) + [None] * len(cofaces)
        for i, (mine, cyc) in enumerate(zip(cofaces, cycles)):
            if cyc is None:
                yield f"the facet {(J, i)} has no ordering cycle"
            elif sorted(cyc) != mine:
                extra = [t for t in cyc if t not in mine]
                missing = [t for t in mine if t not in cyc]
                yield f"the ordering cycle of the facet {(J, i)} " + (
                    f"lists {(full, extra[0])}, not a coface" if extra
                    else f"leaves out its coface {(full, missing[0])}" if missing
                    else "lists a coface twice"
                )


def is_lower_path_connected(x: MComplex, j: int) -> bool:
    """True iff any two j-multicells are joined by a chain of j-multicells
    with consecutive ones sharing a (j-1)-multicell via their gluing: one
    partition of the j-cells and then the (j-1)-cells, each j-cell joined
    to its facets."""
    from .permrep import partition

    if not 1 <= j <= x.d:
        raise ValueError(f"j must be in 1..{x.d}")
    sets = sorted((J for J in x.cells if len(J) in (j, j + 1)), key=lambda J: -len(J))
    *offsets, total = accumulate((len(x.cells[J]) for J in sets), initial=0)
    start = dict(zip(sets, offsets))
    pairs = (
        (start[J] + i, start[sub] + f)
        for J in sets if len(J) == j + 1
        for p, sub in enumerate(_drops(J)) if sub in start
        for i, f in enumerate(x.cells[J].faces[p :: j + 1]) if 0 <= f < len(x.cells[sub])
    )
    ids = partition(total, pairs).class_ids
    return not any(ids[: sum(len(x.cells[J]) for J in sets if len(J) == j + 1)])


def is_link_connected(x: MComplex) -> bool:
    """True iff every multicell of dimension 0..d-2 has a connected link.

    The empty multicell is excluded, so a disjoint union of link-connected
    pieces passes; global connectivity is `is_lower_path_connected(x, d)`.
    The links of all j-cells are read at once: faces entry p of a (j+1)-cell
    t is t as a vertex of the link of its facet dropping t's p-th color, and
    a cell two dimensions up joins its facets dropping a and b over the face
    dropping both.  On a consistent complex the links are connected iff
    these classes are as many as the j-cells with cofaces.
    """
    return _links_connected(x, coface_counts(x))


def _links_connected(x: MComplex, counts: dict[tuple[int, ...], list[int]]) -> bool:
    from .permrep import partition

    for j in range(x.d - 1):
        sets = [colors for colors in x.cells if len(colors) == j + 2]
        *offsets, total = accumulate((len(x.cells[c].faces) for c in sets), initial=0)
        start = dict(zip(sets, offsets))
        pairs = (
            (start[drops[pa]] + u * (size - 1) + pb - 1, start[drops[pb]] + w * (size - 1) + pa)
            for colors, cells in x.cells.items()
            if (size := len(colors)) == j + 3 and (drops := _drops(colors))
            for pa, pb in combinations(range(size), 2)
            for u, w in zip(cells.faces[pa::size], cells.faces[pb::size])
        )
        if partition(total, pairs).count != sum(len(c) - c.count(0) for J, c in counts.items()
                                                if len(J) == j + 1):
            return False
    return True


# -- links ---------------------------------------------------------------------

EMPTY_CELL: MId = ((), 0)  # sentinel for the unique (-1)-multicell


def link_with_map(x: MComplex, mid: MId) -> tuple[MComplex, dict[MId, MId]]:
    """The link of a multicell, plus the map link-multicell -> original.

    The link of σ is the class complex of the top cells above σ: a top's
    class under link color set J is its face of colors colors(σ) ∪ rest[J],
    where `rest` lists the colors outside σ in ascending order.  So the
    link vertices are the cofaces of σ one dimension up, and link color t
    is the original color rest[t].  Ordering cycles, boundary flags and the
    root carry over verbatim through the class map.  The link of the empty
    multicell is the complex itself.
    """
    if mid == EMPTY_CELL:
        clone = from_json(to_json(x))
        return clone, {m: m for m in clone.mids()}
    if not x.has_cell(mid):
        raise KeyError(f"no multicell {mid}")
    own = tuple(mid[0])
    rest = [c for c in x.params.colors if c not in own]
    if len(rest) < 2:
        raise ValueError(
            "links are built for multicells of dimension <= d-2; "
            "the cofaces of a (d-1)-multicell are available via top_faces()"
        )
    tops = [t for t, f in enumerate(top_faces(x, own)) if f == mid[1]]
    if not tops:
        raise ValueError(f"{mid} lies in no top cell")
    lk, to_link = _class_complex(x, tops, own, rest)
    return lk, {m: orig for orig, m in to_link.items()}


def _class_complex(
    x: MComplex,
    tops: list[int],
    own: tuple[int, ...],
    colors: Sequence[int],
    relabel: list[int] | None = None,
    vertex_colors: list[int] | None = None,
) -> tuple[MComplex, dict[MId, MId]]:
    """The class complex y of x's tops `tops` (tops[i] is y's top i): a
    top's class under J is its face of colors `own` and colors[J], numbered
    by first appearance, or, for one color with `relabel`, y's vertex id
    relabel[v] of its vertex v (y's vertex colors are `vertex_colors`).
    Returns y and the class map, which zips face and class columns and
    carries x's cycles, boundary flags and root over to y."""
    p, full = Params(len(colors) - 1, x.params.k), tuple(x.params.colors)
    f, classes = {(full, t): (tuple(p.colors), i) for i, t in enumerate(tops)}, {}
    for J in (J for size in range(1, len(colors)) for J in combinations(p.colors, size)):
        face = tuple(sorted(own + tuple(colors[t] for t in J)))
        column = list(map(top_faces(x, face).__getitem__, tops))
        if relabel is not None and len(J) == 1:
            classes[J] = [relabel[x.cells[face].vertices[i]] for i in column]
        else:
            index: dict[int, int] = {}
            classes[J] = [index.setdefault(i, len(index)) for i in column]
            f.update(zip(zip(repeat(face), column), zip(repeat(J), classes[J])))
    y = complex_from_classes(p, classes, 0, vertex_colors=vertex_colors)
    if relabel is not None:
        f.update((x.vertex_cell(v), y.vertex_cell(w)) for v, w in enumerate(relabel))
    if x.ordering is not None:
        y.ordering = {J: [None] * len(y.cells[J]) for J in y.cells if len(J) == p.d}
        for m, (J, i) in f.items():
            if J in y.ordering and (cyc := x.cycle(m)) is not None:
                y.ordering[J][i] = [f[(full, t)][1] for t in cyc]
    y.boundary = frozenset(f[m] for m in x.boundary if m in f)
    y.root = f.get(x.root)
    return y, f


# -- nerve ----------------------------------------------------------------------

def nerve(family: dict[object, frozenset] | list[Iterable]) -> frozenset:
    """Nerve complex of a family of nonempty sets: a subset of the index set
    is a face iff the member sets intersect.  Returned as a frozenset of
    nonempty frozensets (vertices included)."""
    items = family.items() if isinstance(family, dict) else enumerate(family)
    sets = {key: frozenset(val) for key, val in items}
    for key, s in sets.items():
        if not s:
            raise ValueError(f"member {key!r} is empty")
    carriers: dict[object, set] = {}
    for key, s in sets.items():
        for pt in s:
            carriers.setdefault(pt, set()).add(key)
    return frozenset(
        frozenset(face) for keys in carriers.values()
        for size in range(1, len(keys) + 1) for face in combinations(keys, size)
    )


def base_complex(x: MComplex) -> frozenset:
    """Underlying simplicial complex: the set of vertex sets of multicells."""
    return frozenset(frozenset(row) for cells in x.cells.values() for row in cells.rows())


# -- morphisms -------------------------------------------------------------------

class CellMap(Mapping):
    """A map of multicells that keeps their colors, as one image column per
    color set: (J, i) maps to (J, columns[J][i]), and a None entry leaves
    it undefined.  Read-only; iterates in `mids()` order."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[tuple[int, ...], list[int | None]]):
        self.columns = columns

    def __getitem__(self, mid: MId) -> MId:
        colors, i = mid if type(mid) is tuple and len(mid) == 2 else ((), None)
        column = self.columns.get(colors, ())
        if not (isinstance(i, int) and 0 <= i < len(column)) or column[i] is None:
            raise KeyError(mid)
        return colors, column[i]

    def __iter__(self) -> Iterator[MId]:
        for J in sorted(self.columns, key=_by_size):
            yield from zip(repeat(J), compress(count(), map(is_not, self.columns[J], repeat(None))))

    def __len__(self) -> int:
        return sum(len(column) - column.count(None) for column in self.columns.values())

    def __repr__(self) -> str:
        return f"CellMap({self.columns!r})"


def _image_columns(f: Mapping[MId, MId], x: MComplex) -> dict[tuple[int, ...], list]:
    """f over the multicells of x, one column per color set: the image's
    index where it has the cell's colors, the image itself where it has
    others, None where f is undefined; a `CellMap` holds these columns."""
    columns = {}
    for J, n in ((J, len(cells)) for J, cells in x.cells.items()):
        if isinstance(f, CellMap):
            column = f.columns.get(J, [])
            columns[J] = column if len(column) == n else (column + [None] * n)[:n]
        else:
            columns[J] = [img if img is None or img[0] != J else img[1]
                          for img in map(f.get, zip(repeat(J), range(n)))]
    return columns


def check_morphism(f: Mapping[MId, MId], x: MComplex, y: MComplex) -> Diagnostics:
    """Verify f is a simplicial multimap preserving coloring, gluing, the
    root and the ordering.  Ordering equivariance is skipped at multicells
    flagged as boundary in the domain (radius-truncated complexes).

    f is read once, as `_image_columns`; the index columns hold -1 where an
    image has other colors.  Each rule is one comparison of whole columns
    that returns the cells breaking it: the images are cells of y, vertex
    columns map to y's vertex columns of the images, faces columns to the
    images' faces columns, and each ordering cycle steps with its image's.
    Messages are written for those cells only, by color set, then cell,
    then rule, so they are those of a cell-by-cell check, which takes
    nothing from `propagate_from_root`."""
    order = sorted(x.cells, key=_by_size)
    keys = _image_columns(f, x)
    msgs = [f"map not defined on {(J, i)}" for J in order for i in _nones(keys[J])]
    if msgs:
        return Diagnostics(False, msgs)
    index = {J: [-1 if type(j) is tuple else j for j in col] if tuple in set(map(type, col)) else col
             for J, col in keys.items()}
    vmap, faults = {}, []
    for J in (J for J in order if len(J) == 1):
        vertices = x.cells[J].vertices
        outside, (ws,) = _take(index[J], y.cells[J].vertices if J in y.cells else [])
        faults += [(v, f"vertex {v} maps to non-vertex {img}"
                    if not y.has_cell(img) or len(img[0]) != 1
                    else f"vertex {v}: color {x.vertex_colors[v]} not preserved")
                   for i in outside for v, img in [(vertices[i], f[(J, i)])]]
        vmap.update(zip(vertices, ws))
    if faults:
        return Diagnostics(False, [message for _, message in sorted(faults)])
    for J in (J for J in order if len(J) >= 2):
        size, mine = len(J), x.cells[J]
        theirs = y.cells.get(J) or Cells(J, [], [])
        bad, found = _take(index[J], *(theirs.vertices[q::size] for q in range(size)),
                           *(theirs.faces[p::size] for p in range(size)))
        faults = [(i, 0, f"{(J, i)}: image {img} missing in codomain" if not y.has_cell(img)
                   else f"{(J, i)}: image colors {tuple(img[0])} != {J}")
                  for i in bad for img in [f[(J, i)]]]
        rows = set().union(*(_differ(found[q], list(map(vmap.get, mine.vertices[q::size])))
                             for q in range(size)))
        faults += [(i, 1, f"{(J, i)}: image is not induced by the vertex map") for i in rows.difference(bad)]
        for p, sub in enumerate(_drops(J)):
            column = mine.faces[p::size]
            _, (glued,) = _take(column, keys[sub] if sub in keys else [])
            faults += [(i, 2 + p, f"{(J, i)}: " + (f"facet {(sub, column[i])} missing in domain"
                        if glued[i] is None else f"gluing not preserved at dropped color {J[p]}"))
                       for i in _differ(glued, found[size + p]) if i not in bad]
        msgs += [message for *_, message in sorted(faults)]
    if x.root is None or y.root is None:
        msgs.append("root missing on one side")
    elif not x.has_cell(x.root):
        msgs.append(f"root {x.root} missing in domain")
    elif f[x.root] != y.root:
        msgs.append(f"root {x.root} maps to {f[x.root]} != {y.root}")
    if x.ordering is not None and y.ordering is not None:
        tops = keys.get(tuple(x.params.colors), [])
        for J in (J for J in order if len(J) == x.d):
            msgs += [message for _, message in sorted(_cycle_faults(x, y, J, keys[J], index[J], tops))]
    return Diagnostics(not msgs, msgs)


def _nones(column: list) -> list[int]:
    """The positions of None in column."""
    return list(compress(count(), map(is_, column, repeat(None))))


def _cycle_faults(x: MComplex, y: MComplex, J: tuple[int, ...], key: list, index: list[int],
                  tops: list) -> list[tuple[int, str]]:
    """`check_morphism`'s ordering fault of each cell of J off the domain's
    boundary, with its index: the cell has no cycle, its cycle lists a top
    missing in the domain, its image has no cycle, or the image column of
    the tops does not carry a step along its cycle to a step along the
    image's (named at the first top where it fails; in one cycle a top's
    last listing sets its step).  `key` and `index` are J's image and index
    columns, and `tops` is the image column of the top cells."""
    full, mine = tuple(x.params.colors), x.ordering.get(J) or []
    cells = list(map(itemgetter(1), filterfalse(x.boundary.__contains__,
                                                zip(repeat(J), range(len(key))))))
    cycles = list(map((mine + [None] * len(key)).__getitem__, cells))
    flat, after, owner = _listed(cycles)
    (outside, (at,)), (_, (then,)) = _take(flat, tops), _take(after, tops)
    strays: dict[int, int] = {}
    for e in outside:
        strays.setdefault(owner[e], flat[e])
    outside, (theirs,) = _take(list(map(index.__getitem__, cells)), y.ordering.get(J) or [])
    for o in outside:  # an image of other colors, or none
        theirs[o] = y.cycle(img if type(img := key[cells[o]]) is tuple else (J, img))
    owners = list(map(key.__getitem__, cells))  # the image of each cell in `cells`
    distinct = dict(zip(owners, theirs))  # one cycle per image
    their_flat, their_after, their_owner = _listed(list(distinct.values()))
    step = dict(zip(zip(map(list(distinct).__getitem__, their_owner), their_flat), their_after))
    first: dict[int, int] = {}
    for e in _differ(list(map(step.get, zip(map(owners.__getitem__, owner), at))), then):
        if owner[e] not in strays and theirs[owner[e]] is not None:
            first.setdefault(owner[e], flat[e])
    return ([(cells[o], f"{(J, cells[o])}: domain has no ordering cycle") for o in _nones(cycles)]
            + [(cells[o], f"{(J, cells[o])}: ordering cycle lists {(full, t)}, missing in domain")
               for o, t in strays.items()]
            + [(cells[o], f"{(J, cells[o])}: image has no ordering cycle") for o in _nones(theirs)
               if cycles[o] is not None and o not in strays]
            + [(cells[o], f"{(J, cells[o])}: ordering not equivariant at {(full, t)}")
               for o, t in first.items()])


def _listed(cycles: list[list[int] | None]) -> tuple[list[int], list[int], list[int]]:
    """The entries of the cycles that are not None, in order, each with the
    entry after it in its cycle and the position of its cycle in the list."""
    kept = [c for c, cyc in enumerate(cycles) if cyc]
    sizes = list(map(len, map(cycles.__getitem__, kept)))
    flat = list(chain.from_iterable(map(cycles.__getitem__, kept)))
    after = flat[1:] + flat[:1]
    for start, end in zip(accumulate([0] + sizes), accumulate(sizes)):
        after[end - 1] = flat[start]  # the last entry of a cycle steps to its first
    return flat, after, list(chain.from_iterable(map(repeat, kept, sizes)))


def is_surjective(f: Mapping[MId, MId], y: MComplex) -> bool:
    """Whether every multicell of y is an image, read one color set at a time."""
    images = ({J: set(column) for J, column in f.columns.items()} if isinstance(f, CellMap) else
              {J: {j for _, j in group} for J, group in groupby(sorted(f.values()), itemgetter(0))})
    return all(images.get(J, set()).issuperset(range(len(cells))) for J, cells in y.cells.items())


def propagate_from_root(x: MComplex, y: MComplex) -> tuple[CellMap | None, str]:
    """The root-to-root label propagation behind isomorphism and
    universality: generator i moves a top cell to the next top in the
    ordering cycle of its facet that misses color i, and a morphism
    commutes with these moves, so the image of the root top fixes the
    image of every top it reaches.  Facets on the domain's boundary carry
    no data and are skipped.  Lower cells follow from the top cells through
    `extend_down`, which also finds a facet that two tops glue to
    different images.

    Reads, for each generator and each complex, the top cells' faces column
    and the ordering cycles, as one successor column and one cycle-length
    column over the tops (`_moves`); the walk then works on top indices
    alone.  Returns the map on every multicell reached, or None and the
    reason; on a faulty ordering, the first fault of `ordering_faults`."""
    if x.root is None or y.root is None:
        return None, "both complexes must be rooted"
    if x.ordering is None or y.ordering is None:
        return None, "both complexes must be ordered"
    for z in (x, y):
        if not z.has_cell(z.root):
            return None, f"root {z.root} names no multicell"
    if y.root[0] != x.root[0]:
        return None, f"roots {x.root} and {y.root} differ in colors"
    full = tuple(x.params.colors)
    if x.root[0] != full:  # a lower root: its facets have no ordering cycles
        b = next((b for b in x.facets(x.root) if b not in x.boundary), None)
        return None, (f"cycle length mismatch at {b}" if b
                      else "root component does not reach every top cell")
    moves = [(J, {c for K, c in x.boundary if K == J}, *_moves(x, i), *_moves(y, i)[1:])
             for i, J in enumerate(_drops(full))]
    img: list[int | None] = [None] * len(x.cells[full])
    img[x.root[1]] = y.root[1]
    queue = [x.root[1]]
    for a in queue:  # grows as tops are reached
        b = img[a]
        for J, skip, facets, lengths, after, their_lengths, their_after in moves:
            if facets[a] in skip:
                continue  # truncated cycle carries no propagation data
            if not lengths[a] or not their_lengths[b] or lengths[a] % their_lengths[b]:
                return None, f"cycle length mismatch at {(J, facets[a])}"
            t, u = after[a], their_after[b]
            if t is None or u is None:
                return None, next(ordering_faults(x if t is None else y))
            if img[t] is None:
                img[t] = u
                queue.append(t)
            elif img[t] != u:
                return None, f"ordering conflict at {(full, t)}"
    if None in img:
        return None, "root component does not reach every top cell"
    f = extend_down(img, x, y)
    if not isinstance(f, CellMap):
        return None, f"lower cell {f} has ambiguous image"
    return f, "ok"


def _moves(x: MComplex, i: int) -> tuple[list[int], list[int], list[int | None]]:
    """Generator i on the top cells of an ordered x, as three columns over
    the tops: the index of each top's facet that misses color i, the length
    of that facet's cycle (0 if it has none), and the top after it in that
    cycle, from its first listing (None if the cycle does not list it, or
    lists no top after it)."""
    full = tuple(x.params.colors)
    n = len(x.cells.get(full, ()))
    facets = x.cells[full].faces[i :: len(full)] if n else []
    flat, after, owner = _listed(x.ordering.get(full[:i] + full[i + 1 :]) or [])
    listed_in_own = map(eq, map(dict(enumerate(facets)).get, flat), owner)
    steps = dict(reversed(list(compress(zip(flat, after), listed_in_own))))  # first listing wins
    if steps and not 0 <= min(steps.values()) <= max(steps.values()) < n:
        steps = {t: s if 0 <= s < n else None for t, s in steps.items()}
    return facets, list(map(Counter(owner).get, facets, repeat(0))), list(map(steps.get, range(n)))


def extend_down(tops: Sequence[int], x: MComplex, y: MComplex) -> CellMap | MId:
    """The map that sends top t of x to top tops[t] of y, extended to all
    the tops' faces: the facet of a cell that drops color l maps to the
    facet of its image that drops l.  From the top down, each dropped color
    pairs x's faces column at the cells reached with y's at their images;
    these pairs fill the facets' image column, and then each is checked
    against it.  Returns the map, or the first multicell that gets two
    images; a facet index of x or an image that names no cell raises
    KeyError."""
    full, columns = tuple(x.params.colors), {}
    pairs = {full: [(range(len(tops)), list(tops))]}  # J -> its (x, y) index pairs
    for J in (J for size in range(len(full), 0, -1) for J in combinations(full, size) if J in pairs):
        column = columns[J] = [None] * len(x.cells.get(J, ()))
        for us, ws in pairs[J]:
            if us and not 0 <= min(us) <= max(us) < len(column):
                raise KeyError(f"no multicell {next((J, u) for u in us if not x.has_cell((J, u)))}")
            deque(map(column.__setitem__, us, ws), 0)  # the last pair of a cell is kept
        for us, ws in pairs.pop(J):
            if list(map(column.__getitem__, us)) != ws:
                return next((J, u) for u, w in zip(us, ws) if column[u] != w)
        theirs, size = y.cells.get(J), len(J)
        keep = None if None not in column else list(map(is_not, column, repeat(None)))
        images = column if keep is None else list(compress(column, keep))
        if images and (theirs is None or not 0 <= min(images) <= max(images) < len(theirs)):
            raise KeyError(f"no multicell {next((J, j) for j in images if not y.has_cell((J, j)))}")
        for p, sub in enumerate(_drops(J) if images else ()):
            us = x.cells[J].faces[p::size]
            pairs.setdefault(sub, []).append((us if keep is None else list(compress(us, keep)),
                                              list(map(theirs.faces[p::size].__getitem__, images))))
    return CellMap(columns)


def find_isomorphism(x: MComplex, y: MComplex) -> CellMap | None:
    """Root-to-root label propagation.

    Objects of the category are rigid: a morphism is forced by the root
    image and ordering equivariance, so propagating labels and checking the
    result is a complete isomorphism test for rooted ordered complexes.
    """
    if x.params != y.params:
        return None
    f, _ = propagate_from_root(x, y)
    if f is None:
        return None
    counts_x = {k: len(v) for k, v in x.cells.items()}
    counts_y = {k: len(v) for k, v in y.cells.items()}
    if counts_x != counts_y or any(len(set(col)) < len(col) for col in f.columns.values()):
        return None  # not a bijection, read one image column at a time
    return f if check_morphism(f, x, y) else None


# -- constructions -----------------------------------------------------------------

def class_columns(params: Params, tops: Sequence, key: Callable) -> dict:
    """`complex_from_classes`'s columns for tops classed by `key(top, J)`,
    numbered by first appearance, one dict pass per proper color set J."""
    full, classes = tuple(params.colors), {}
    for J in (J for size in range(1, len(full)) for J in combinations(full, size)):
        index: dict = {}
        classes[J] = [index.setdefault(key(top, J), len(index)) for top in tops]
    return classes


def complex_from_classes(
    params: Params,
    classes: Mapping[tuple[int, ...], Sequence[int]],
    root: int,
    successors: Sequence[Sequence[int | None]] | None = None,
    vertex_colors: list[int] | None = None,
) -> MComplex:
    """The complex whose multicells of color set J are the classes of its
    top cells under J: the one construction behind quotients, coset balls,
    Coxeter complexes, simplicial input, links and vertex merges.

    `classes[J][t]` is top t's class under each proper color set J, numbered
    by first appearance; a cell is read off its first top.  Top t is the
    multicell (all colors, t), and top `root` the root.  Vertices are
    numbered by color, then class, unless `vertex_colors` is given: then a
    single color's column holds vertex ids.  `successors[i][t]` is the top
    generator i moves top t to, or None (outside a ball): a (d-1)-cell's
    cycle walks these steps from its first top, and a None step marks it as
    boundary.  Without `successors` the complex is left unordered."""
    full = tuple(params.colors)
    n = len(classes[full[:1]])
    first = {J: dict(zip(reversed(col), range(n - 1, -1, -1)))  # class -> its first top
             for J, col in classes.items() if len(J) >= 2 or len(full) == 2}
    vert, at = {}, {}  # class -> vertex id, unless the columns hold ids: id -> vertex cell
    if vertex_colors is None:
        counts = [max(classes[(c,)], default=-1) + 1 for c in full]
        vertex_colors = [c for c, m in zip(full, counts) for _ in range(m)]
        vert = {c: list(range(o, o + m)) for c, o, m in zip(full, accumulate([0] + counts), counts)}
    x = MComplex(params, vertex_colors, {})
    if not vert:
        at = dict.fromkeys([(c,) for c in full], [x.vertex_cell(v)[1] for v in range(x.n_vertices)])
    for J in sorted((J for J in classes if len(J) >= 2), key=_by_size) + [full]:
        tops = range(n) if J == full else list(map(first[J].__getitem__, range(len(first[J]))))
        size = len(J)
        vertices, faces = [0] * (len(tops) * size), [0] * (len(tops) * size)
        for q, c in enumerate(J):
            column = map(classes[(c,)].__getitem__, tops)
            vertices[q::size] = map(vert[c].__getitem__, column) if vert else column
        for p, sub in enumerate(_drops(J)):
            column = map(classes[sub].__getitem__, tops)
            faces[p::size] = map(at[sub].__getitem__, column) if sub in at else column
        x.cells[J] = Cells(J, vertices, faces)
    x.root = (full, root)
    if successors is None:
        return x
    x.ordering, boundary = {}, set()
    for i in reversed(range(len(full))):
        J, step = full[:i] + full[i + 1 :], successors[i]
        cycles = x.ordering[J] = [None] * len(x.cells[J])
        for cls, t in first[J].items():
            cyc, nxt = [t], step[t]
            while nxt is not None and nxt != t:
                cyc.append(nxt)
                nxt = step[nxt]
            cell = at[J][cls] if J in at else cls
            if nxt is None:
                boundary.add((J, cell))
            cycles[cell] = cyc
    x.boundary = frozenset(boundary)
    return x


def from_simplicial(
    params: Params,
    vertex_colors: list[int],
    top_vertex_sets: list[Iterable[int]],
) -> MComplex:
    """Pure multicomplex with multiplicity one from the distinct vertex sets
    of its top cells, top t being the multicell (all colors, t), rooted at
    top 0.  The ordering cycles the tops around each (d-1)-cell in
    ascending id order, a guarantee that `build_ball` relies on; it is
    valid only when each (d-1)-cell degree divides k."""
    tops = []
    for t in map(set, top_vertex_sets):
        by_color = {vertex_colors[v]: v for v in t}
        if len(t) != params.d + 1 or sorted(by_color) != list(params.colors):
            raise ValueError(f"top cell {sorted(t)} needs one vertex of each color 0..{params.d}")
        tops.append(by_color)
    classes = class_columns(params, tops, lambda by_color, cs: tuple(map(by_color.__getitem__, cs)))
    classes.update({(c,): [by_color[c] for by_color in tops] for c in params.colors})  # vertex ids
    x = complex_from_classes(params, classes, 0, vertex_colors=vertex_colors)
    full = tuple(params.colors)
    x.ordering = {J: [[] for _ in range(len(x.cells[J]))] for J in _drops(full)}
    for e, f in enumerate(x.cells[full].faces):  # top e // |full| joins its facets' cycles
        x.ordering[_drops(full)[e % len(full)]][f].append(e // len(full))
    return x


def single_simplex(params: Params) -> MComplex:
    d = params.d
    return from_simplicial(params, list(range(d + 1)), [tuple(range(d + 1))])


def merge_vertices(x: MComplex, v_keep: int, v_gone: int) -> MComplex:
    """Identify two same-color vertices (the classical way to leave the
    link-connected world without changing the line graph).  d >= 2 only,
    since in dimension one the ordering lives on vertices.

    The merge is the class complex of all top cells in id order, classed
    by their faces, with `v_keep` and `v_gone` in one vertex class; the
    other vertices keep their order.  Ordering cycles, boundary flags and
    the root carry over verbatim through the class map."""
    if x.d < 2:
        raise ValueError("vertex identification requires d >= 2")
    if not (0 <= v_keep < x.n_vertices and 0 <= v_gone < x.n_vertices):
        raise ValueError(f"vertex ids must lie in 0..{x.n_vertices - 1}, got {v_keep} and {v_gone}")
    if x.vertex_colors[v_keep] != x.vertex_colors[v_gone] or v_keep == v_gone:
        raise ValueError("need two distinct vertices of the same color")
    relabel = [v - (v > v_gone) for v in range(x.n_vertices)]
    relabel[v_gone] = relabel[v_keep]
    colors = x.vertex_colors[:v_gone] + x.vertex_colors[v_gone + 1 :]
    tops = list(range(len(x.cells[tuple(x.params.colors)])))
    return _class_complex(x, tops, (), x.params.colors, relabel, colors)[0]


# -- serialization --------------------------------------------------------------

FORMAT = "mcomplex/2"


def _mid_json(mid: MId) -> list:
    return [list(mid[0]), mid[1]]


def _field(rec: dict, key: str, kind: type, where: str):
    """rec[key] if present and of type `kind` (a bool is not an int), else a
    one-line ValueError naming the record and the key."""
    if key not in rec:
        raise ValueError(f"{where}: missing {key!r}")
    if type(rec[key]) is not kind:
        raise ValueError(
            f"{where}: {key!r} must be {kind.__name__}, got {type(rec[key]).__name__}"
        )
    return rec[key]


def _ints(obj, where: str) -> list[int]:
    """obj if it is a list of ints (bools refused), else a one-line ValueError."""
    if type(obj) is not list:
        raise ValueError(f"{where}: must be a list of integers, got {type(obj).__name__}")
    if not set(map(type, obj)) <= {int}:
        bad = next(v for v in obj if type(v) is not int)
        raise ValueError(f"{where}: {reprlib.repr(bad)} is not an integer")
    return obj


def _colors(obj, d: int, where: str) -> tuple[int, ...]:
    colors = tuple(_ints(obj, where))
    if list(colors) != sorted(set(colors)) or not all(0 <= c <= d for c in colors):
        raise ValueError(
            f"{where}: colors {reprlib.repr(list(colors))} must increase strictly within 0..{d}"
        )
    return colors


def _mid_from_json(obj, d: int, where: str) -> MId:
    if not (type(obj) is list and len(obj) == 2 and type(obj[1]) is int):
        raise ValueError(f"{where}: multicell id must be [colors, index], got {reprlib.repr(obj)}")
    return (_colors(obj[0], d, where), obj[1])


def _records(doc: dict, key: str, name: str) -> Iterator[tuple[dict, str]]:
    """The objects listed under doc[key], each with its label for errors."""
    for t, rec in enumerate(_field(doc, key, list, "complex")):
        where = f"{name} record {t}"
        if type(rec) is not dict:
            raise ValueError(f"{where}: must be an object, got {type(rec).__name__}")
        yield rec, where


def _params(doc: dict) -> Params:
    rec = _field(doc, "params", dict, "complex")
    return Params(*(_field(rec, key, int, "params") for key in ("d", "k")))


def to_json_dict(x: MComplex) -> dict:
    """The mcomplex/2 document of x (layout in the module docstring).  The
    `cells` and `ordering` records hold x's own lists, not copies."""
    by_size = sorted(x.cells, key=_by_size)
    cells = [
        {"colors": list(J), "vertices": x.cells[J].vertices, "faces": x.cells[J].faces}
        for J in by_size
        if len(J) >= 2
    ]
    ordering = None
    if x.ordering is not None:
        ordering = [{"colors": list(J), "cycles": x.ordering[J]} for J in sorted(x.ordering)]
    return {
        "format": FORMAT,
        "params": {"d": x.params.d, "k": x.params.k},
        "vertex_colors": list(x.vertex_colors),
        "cells": cells,
        "ordering": ordering,
        "root": None if x.root is None else _mid_json(x.root),
        "boundary": [_mid_json(m) for m in sorted(x.boundary)],
    }


def to_json(x: MComplex) -> str:
    """x as one line of compact mcomplex/2 JSON (layout in the module
    docstring), written without indentation so that `json` runs its C
    encoder."""
    return json.dumps(to_json_dict(x), separators=(",", ":")) + "\n"


def from_json_dict(doc: dict) -> MComplex:
    """Read an mcomplex/2 document, keeping its columns.  A document of
    another format or of the wrong shape raises a one-line ValueError naming
    the format found or the first missing or wrongly typed field; every
    vertex, color, index and facet must be an int."""
    if type(doc) is not dict:
        raise ValueError(f"complex JSON must be an object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise ValueError(f"format {reprlib.repr(doc.get('format'))} is not {FORMAT}")
    params = _params(doc)
    d = params.d
    vertex_colors = _ints(_field(doc, "vertex_colors", list, "complex"), "vertex_colors")
    cells: dict[tuple[int, ...], Cells] = {}
    for rec, where in _records(doc, "cells", "cell"):
        colors = _colors(_field(rec, "colors", list, where), d, where)
        size = len(colors)
        if size < 2:
            raise ValueError(f"{where}: a cell record needs two colors or more, got {list(colors)}")
        if colors in cells:
            raise ValueError(f"{where}: a second record for colors {list(colors)}")
        vertices = _ints(_field(rec, "vertices", list, where), f"{where}: vertices")
        faces = _ints(_field(rec, "faces", list, where), f"{where}: faces")
        if len(vertices) % size or len(faces) != len(vertices):
            raise ValueError(
                f"{where}: vertices and faces need {size} entries per cell, "
                f"got {len(vertices)} and {len(faces)}"
            )
        cells[colors] = Cells(colors, vertices, faces)
    root = None if doc.get("root") is None else _mid_from_json(doc["root"], d, "root")
    boundary = _field(doc, "boundary", list, "complex") if "boundary" in doc else []
    boundary = frozenset(_mid_from_json(m, d, "boundary") for m in boundary)
    x = MComplex(params, vertex_colors, cells, None, root, boundary)
    if doc.get("ordering") is not None:
        x.ordering = {}
        for rec, where in _records(doc, "ordering", "ordering"):
            colors = _colors(_field(rec, "colors", list, where), d, where)
            cycles = _field(rec, "cycles", list, where)
            n = len(x.cells.get(colors, ()))
            if len(colors) != d:
                raise ValueError(f"{where}: ordered cells have {d} colors, got {list(colors)}")
            if colors in x.ordering:
                raise ValueError(f"{where}: a second record for colors {list(colors)}")
            if len(cycles) != n:
                raise ValueError(
                    f"{where}: {len(cycles)} cycles for the {n} cells of colors {list(colors)}"
                )
            for i, cyc in enumerate(cycles):
                if cyc is not None:
                    _ints(cyc, f"{where}: cycle {i}")
            x.ordering[colors] = cycles
    return x


def from_json(text: str) -> MComplex:
    return from_json_dict(json.loads(text))
