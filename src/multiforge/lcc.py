"""Link-connected cover: split every multicell with a disconnected link into
one copy per link component, top-down in dimension, rewiring the gluing of
its cofaces.  The line graph is untouched and the projection that forgets
the copies is a morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    Diagnostics,
    MComplex,
    MId,
    Multicell,
    check_morphism,
    is_surjective,
    propagate_from_root,
)
from .permrep import UnionFind
from .words import Params

PId = MId  # provisional ids during splitting; 0-cells keyed by global vertex id


@dataclass
class _Builder:
    params: Params
    vcolors: list[int | None]
    cells: dict[tuple[int, ...], dict[int, Multicell]]
    ordering: dict[PId, tuple[PId, ...]]
    root: PId
    boundary: set[PId]
    proj: dict[PId, MId]
    next_index: dict[tuple[int, ...], int] = field(default_factory=dict)

    def fresh(self, colors: tuple[int, ...]) -> int:
        idx = self.next_index[colors]
        self.next_index[colors] = idx + 1
        return idx

    def delta(self) -> dict[PId, list[tuple[PId, int]]]:
        out: dict[PId, list[tuple[PId, int]]] = {}
        for colors, recs in self.cells.items():
            for idx, cell in recs.items():
                for l, fid in cell.faces.items():
                    out.setdefault(fid, []).append(((colors, idx), l))
        return out

    def down(self, pid: PId, target: tuple[int, ...]) -> PId:
        colors = pid[0]
        while colors != target:
            drop = next(c for c in colors if c not in target)
            cell = self.cells[colors][pid[1]]
            pid = cell.faces[drop]
            colors = pid[0]
        return pid


def _builder_from(x: MComplex) -> _Builder:
    cells: dict[tuple[int, ...], dict[int, Multicell]] = {}
    proj: dict[PId, MId] = {}
    for v in range(x.n_vertices):
        pid = ((x.vertex_colors[v],), v)
        cells.setdefault((x.vertex_colors[v],), {})[v] = Multicell(
            (x.vertex_colors[v],), v, (v,), {}
        )
        proj[pid] = x.vertex_cell(v)

    def to_pid(mid: MId) -> PId:
        if len(mid[0]) == 1:
            return (mid[0], x._cell_vertex[mid])
        return mid

    for cell in x.multicells():
        if cell.dim == 0:
            continue
        pid = cell.mid
        faces = {l: to_pid(fid) for l, fid in cell.faces.items()}
        cells.setdefault(cell.colors, {})[cell.index] = Multicell(
            cell.colors, cell.index, cell.vertices, faces
        )
        proj[pid] = cell.mid
    ordering = {
        to_pid(mid): tuple(to_pid(m) for m in cyc) for mid, cyc in (x.ordering or {}).items()
    }
    next_index = {colors: max(recs) + 1 for colors, recs in cells.items()}
    return _Builder(
        x.params,
        list(x.vertex_colors),
        cells,
        ordering,
        x.root,
        {to_pid(m) for m in x.boundary},
        proj,
        next_index,
    )


def _link_component_of(b: _Builder, pid: PId, delta_idx) -> list[list[PId]]:
    """Components of the link's 1-skeleton of `pid`, as lists of its direct
    cofaces, via the two-dimension-up cells."""
    cofaces = sorted(m for m, _ in delta_idx.get(pid, []))
    if not cofaces:
        return []
    pos = {m: t for t, m in enumerate(cofaces)}
    uf = UnionFind(len(cofaces))
    own = set(pid[0])
    seen_up: set[PId] = set()
    for c in cofaces:
        for e, _ in delta_idx.get(c, []):
            if e in seen_up:
                continue
            seen_up.add(e)
            extra = [l for l in e[0] if l not in own]
            cell_e = b.cells[e[0]][e[1]]
            c1 = cell_e.faces[extra[0]]
            c2 = cell_e.faces[extra[1]]
            cell_c1 = b.cells[c1[0]][c1[1]]
            drop1 = next(l for l in c1[0] if l not in own)
            if cell_c1.faces[drop1] == pid:
                uf.union(pos[c1], pos[c2])
    groups: dict[int, list[PId]] = {}
    for m, t in pos.items():
        groups.setdefault(uf.find(t), []).append(m)
    return [sorted(g) for _, g in sorted(groups.items())]


def _split_cell(b: _Builder, pid: PId, comps: list[list[PId]], delta_idx) -> None:
    colors = pid[0]
    old = b.cells[colors][pid[1]]
    comp_of: dict[PId, int] = {}
    for t, grp in enumerate(comps):
        for c in grp:
            comp_of[c] = t

    if len(colors) >= 2:
        new_pids = []
        for _ in comps:
            idx = b.fresh(colors)
            b.cells[colors][idx] = Multicell(colors, idx, old.vertices, dict(old.faces))
            new_pids.append((colors, idx))
            b.proj[(colors, idx)] = b.proj[pid]
        for c, l in delta_idx.get(pid, []):
            b.cells[c[0]][c[1]].faces[l] = new_pids[comp_of[c]]
        del b.cells[colors][pid[1]]
        del b.proj[pid]
        return

    # vertex split: new vertex ids, rewrite every containing multicell
    v_old = pid[1]
    color = colors[0]
    new_vids = []
    for _ in comps:
        vid = len(b.vcolors)
        b.vcolors.append(color)
        b.cells[colors][vid] = Multicell(colors, vid, (vid,), {})
        b.proj[(colors, vid)] = b.proj[pid]
        new_vids.append(vid)
    b.vcolors[v_old] = None
    del b.cells[colors][v_old]
    del b.proj[pid]

    for cs, recs in b.cells.items():
        if len(cs) < 2 or color not in cs:
            continue
        for idx, cell in recs.items():
            if v_old not in cell.vertices:
                continue
            other = next(l for l in cs if l != color)
            one_cell = b.down((cs, idx), tuple(sorted((color, other))))
            comp = comp_of[one_cell]
            vid = new_vids[comp]
            cell.vertices = tuple(vid if v == v_old else v for v in cell.vertices)
            if len(cs) == 2:
                cell.faces[other] = (colors, vid)


def link_connected_cover(x: MComplex) -> tuple[MComplex, dict[MId, MId]]:
    """The canonical link-connected object with the same line graph, plus
    the projection onto the input (a surjective morphism).

    Runs dimensions d-2 down to 0; each multicell whose link is disconnected
    becomes one fresh copy per component, and each coface is glued to the
    copy owning its component.  Fixed point exactly on link-connected input.
    """
    b = _builder_from(x)
    for j in range(x.d - 2, -1, -1):
        delta_idx = b.delta()
        level = [
            (colors, idx)
            for colors, recs in sorted(b.cells.items())
            if len(colors) == j + 1
            for idx in sorted(recs)
        ]
        for pid in level:
            comps = _link_component_of(b, pid, delta_idx)
            if len(comps) > 1:
                _split_cell(b, pid, comps, delta_idx)
                delta_idx = b.delta()
    return _finalize(b, x)


def _finalize(b: _Builder, x: MComplex) -> tuple[MComplex, dict[MId, MId]]:
    live_vids = [v for v, c in enumerate(b.vcolors) if c is not None]
    vid_map = {v: t for t, v in enumerate(live_vids)}
    vertex_colors = [b.vcolors[v] for v in live_vids]

    id_map: dict[PId, MId] = {}
    per_color_rank: dict[int, int] = {}
    for v in live_vids:
        c = b.vcolors[v]
        id_map[((c,), v)] = ((c,), per_color_rank.get(c, 0))
        per_color_rank[c] = per_color_rank.get(c, 0) + 1
    cells: dict[tuple[int, ...], list[Multicell]] = {}
    for colors in sorted(b.cells, key=lambda cs: (len(cs), cs)):
        if len(colors) < 2:
            continue
        cells[colors] = []
        for idx in sorted(b.cells[colors]):
            id_map[(colors, idx)] = (colors, len(cells[colors]))
            cells[colors].append(b.cells[colors][idx])  # faces fixed below

    out_cells: dict[tuple[int, ...], list[Multicell]] = {}
    for colors, lst in cells.items():
        out_cells[colors] = []
        for t, cell in enumerate(lst):
            out_cells[colors].append(
                Multicell(
                    colors,
                    t,
                    tuple(vid_map[v] for v in cell.vertices),
                    {l: id_map[fid] for l, fid in cell.faces.items()},
                )
            )
    ordering = {
        id_map[mid]: tuple(id_map[m] for m in cyc) for mid, cyc in b.ordering.items()
    }
    out = MComplex(
        b.params,
        vertex_colors,
        out_cells,
        ordering,
        id_map[b.root],
        frozenset(id_map[m] for m in b.boundary),
    )
    proj = {id_map[pid]: orig for pid, orig in b.proj.items()}
    return out, proj


def projection_is_morphism(cover: MComplex, proj: dict[MId, MId], x: MComplex) -> Diagnostics:
    return check_morphism(proj, cover, x)


def verify_universality(
    z: MComplex,
    phi: dict[MId, MId],
    y: MComplex,
    pi: dict[MId, MId],
) -> tuple[bool, dict[MId, MId] | None, str]:
    """Factor phi: Z -> X through pi: Y -> X by root propagation.

    Builds psi: Z -> Y with pi . psi = phi when Z is link-connected and both
    maps are epimorphisms onto the same target; reports the offending
    multicell otherwise."""
    psi, why = propagate_from_root(z, y)
    if psi is None:
        return False, None, why
    ok = check_morphism(psi, z, y)
    if not ok:
        return False, None, "; ".join(ok.messages[:3])
    if not is_surjective(psi, y):
        return False, None, "factoring map is not surjective"
    for mid, img in psi.items():
        if pi[img] != phi[mid]:
            return False, None, f"pi . psi != phi at {mid}"
    return True, psi, "ok"
