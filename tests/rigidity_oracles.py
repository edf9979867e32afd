"""Cell-by-cell oracles for the column checks and rigidity steps of `multiforge`.

`validate_structure`, `check_morphism`, `propagate_from_root` and
`ball_from_cosets` read whole index columns.  The functions below do the
same work one cell, one cycle and one word at a time, with `MId` tuples,
dict lookups and re-reduced words, and the tests compare the two.
"""

from __future__ import annotations

from collections import deque

from multiforge.complexes import (
    CellMap,
    Diagnostics,
    MComplex,
    MId,
    _by_size,
    _drops,
    check_consistency,
    class_columns,
    coface_counts,
    complex_from_classes,
    extend_down,
    ordering_faults,
)
from multiforge.universal import Ball
from multiforge.words import Params, Word, enumerate_reduced_words, generator, multiply, strip_left


def validate_structure_oracle(x: MComplex) -> Diagnostics:
    """`validate_structure`, cell by cell: `check_consistency`'s messages,
    vertex colors out of range, then each multicell's vertex colors, facet
    vertices and purity, then degrees, the ordering audit, cycle lengths,
    boundary flags and the root."""
    d, k, n, vertex_colors = x.params.d, x.params.k, x.n_vertices, x.vertex_colors
    cofaces = coface_counts(x)
    msgs = check_consistency(x).messages
    msgs += [f"vertex {v} has color {c} out of range" for v, c in enumerate(vertex_colors)
             if not 0 <= c <= d]
    for colors, cells in x.cells.items():
        size, subs, count = len(colors), _drops(colors), cofaces[colors]
        below = [x.cells[sub].vertices if sub in x.cells else [] for sub in subs]
        for i in range(len(cells)):
            mid, row = (colors, i), cells.vertices[i * size : (i + 1) * size]
            for c, v in zip(colors, row):
                if not (0 <= v < n and vertex_colors[v] == c):
                    msgs.append(f"{mid}: vertex {v} does not carry color {c}")
            for p, f in enumerate(cells.faces[i * size : (i + 1) * size]):
                facet = below[p][f * (size - 1) : (f + 1) * (size - 1)]
                if f >= 0 and facet and facet != row[:p] + row[p + 1 :]:
                    msgs.append(f"{mid}: facet {(subs[p], f)} has wrong vertices")
            if size <= d and not count[i]:
                msgs.append(f"{mid}: not contained in any top multicell (impure)")
    for J in sorted(J for J in x.cells if len(J) == d):
        msgs += [f"{(J, i)}: degree {deg} exceeds k={k}"
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


def check_morphism_oracle(f: dict[MId, MId], x: MComplex, y: MComplex) -> Diagnostics:
    """`check_morphism`, cell by cell: every multicell's image, its vertex
    row through the vertex map and each of its facets, then the root, then
    each (d-1)-cell's ordering cycle against its image's."""
    cells = set(x.mids())
    msgs = [f"map not defined on {mid}" for mid in x.mids() if mid not in f]
    if msgs:
        return Diagnostics(False, msgs)
    vmap: dict[int, int] = {}
    for v in range(x.n_vertices):
        img = f[x.vertex_cell(v)]
        if not y.has_cell(img) or len(img[0]) != 1:
            msgs.append(f"vertex {v} maps to non-vertex {img}")
            continue
        w = y.cells[tuple(img[0])].vertices[img[1]]
        vmap[v] = w
        if y.vertex_colors[w] != x.vertex_colors[v]:
            msgs.append(f"vertex {v}: color {x.vertex_colors[v]} not preserved")
    if msgs:
        return Diagnostics(False, msgs)
    for colors in sorted(x.cells, key=_by_size):
        size, mine, theirs = len(colors), x.cells[colors], y.cells.get(colors)
        for i, row in enumerate(mine.rows()):
            mid, img = (colors, i), f[(colors, i)]
            if not y.has_cell(img):
                msgs.append(f"{mid}: image {img} missing in codomain")
                continue
            if tuple(img[0]) != colors:
                msgs.append(f"{mid}: image colors {tuple(img[0])} != {colors}")
                continue
            j = img[1] * size
            if theirs.vertices[j : j + size] != [vmap.get(v) for v in row]:
                msgs.append(f"{mid}: image is not induced by the vertex map")
            for p, sub in enumerate(_drops(colors)):
                facet = (sub, mine.faces[i * size + p])
                if facet not in cells:
                    msgs.append(f"{mid}: facet {facet} missing in domain")
                elif f[facet] != (sub, theirs.faces[j + p]):
                    msgs.append(f"{mid}: gluing not preserved at dropped color {colors[p]}")
    if x.root is None or y.root is None:
        msgs.append("root missing on one side")
    elif x.root not in cells:
        msgs.append(f"root {x.root} missing in domain")
    elif f[x.root] != y.root:
        msgs.append(f"root {x.root} maps to {f[x.root]} != {y.root}")
    if x.ordering is not None and y.ordering is not None:
        full = tuple(x.params.colors)
        for mid in x.mids(x.d - 1):
            if mid in x.boundary:
                continue
            cyc = x.cycle(mid)
            if cyc is None:
                msgs.append(f"{mid}: domain has no ordering cycle")
                continue
            strays = [(full, t) for t in cyc if (full, t) not in cells]
            if strays:
                msgs.append(f"{mid}: ordering cycle lists {strays[0]}, missing in domain")
                continue
            img_cyc = y.cycle(f[mid])
            if img_cyc is None:
                msgs.append(f"{mid}: image has no ordering cycle")
                continue
            step = {(full, a): (full, b) for a, b in zip(img_cyc, img_cyc[1:] + img_cyc[:1])}
            for a, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                if step.get(f[(full, a)]) != f[(full, nxt)]:
                    msgs.append(f"{mid}: ordering not equivariant at {(full, a)}")
                    break
    return Diagnostics(not msgs, msgs)


def propagate_oracle(x: MComplex, y: MComplex) -> tuple[dict[MId, MId] | None, str]:
    """`propagate_from_root`, cycle by cycle: each top reached walks the
    whole ordering cycle of each of its facets, from its own place in it,
    beside its image's cycle.  On a faulty ordering it may raise where the
    column version returns None."""
    if x.root is None or y.root is None:
        return None, "both complexes must be rooted"
    if x.ordering is None or y.ordering is None:
        return None, "both complexes must be ordered"
    if y.root[0] != x.root[0]:
        raise KeyError(f"no multicell {y.root}")
    f: dict[MId, MId] = {x.root: y.root}
    queue, full = deque([x.root]), tuple(x.params.colors)
    while queue:
        a = queue.popleft()
        a_img = f[a]
        for b, b_img in zip(x.facets(a), y.facets(a_img)):
            if b in x.boundary:
                continue  # truncated cycle carries no propagation data
            cyc, img_cyc = x.cycle(b), y.cycle(b_img)
            if not cyc or not img_cyc or len(cyc) % len(img_cyc) != 0:
                return None, f"cycle length mismatch at {b}"
            ta, ti = cyc.index(a[1]), img_cyc.index(a_img[1])
            for off in range(1, len(cyc)):
                nxt = (full, cyc[(ta + off) % len(cyc)])
                nxt_img = (full, img_cyc[(ti + off) % len(img_cyc)])
                prev = f.get(nxt)
                if prev is None:
                    f[nxt] = nxt_img
                    queue.append(nxt)
                elif prev != nxt_img:
                    return None, f"ordering conflict at {nxt}"
    tops = list(x.mids(x.d))
    if any(m not in f for m in tops):
        return None, "root component does not reach every top cell"
    g = extend_down([f[top][1] for top in tops], x, y)
    if not isinstance(g, CellMap):
        return None, f"lower cell {g} has ambiguous image"
    return g, "ok"


def coset_ball_oracle(p: Params, n: int) -> Ball:
    """`ball_from_cosets`, re-reducing every product: generator i moves a
    word w to `multiply(generator(i), w)`, and a coset key is
    `strip_left` of the word, which reduces it again."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    top_words = list(enumerate_reduced_words(p, n))
    index = {w.letters: t for t, w in enumerate(top_words)}
    all_colors = frozenset(p.colors)

    def coset_key(w: Word, colors: tuple[int, ...]) -> tuple:
        return strip_left(w, all_colors.difference(colors), p).letters

    steps = [[index.get(multiply(generator(i), w, p).letters) for w in top_words] for i in p.colors]
    x = complex_from_classes(p, class_columns(p, top_words, coset_key), 0, steps)
    return Ball(x, n, {(tuple(p.colors), t): w for t, w in enumerate(top_words)})
