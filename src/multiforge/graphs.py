"""Multigraphs with loops: Schreier graphs of permutation actions and exact
decomposition into perfect matchings and 2-factors.

Convention throughout: in a perfect matching every vertex lies in a unique
loop or a unique edge; in a 2-factor, in a unique loop or exactly two edge
ends.  A vertex covered by a loop meets no other edge of that factor.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from operator import itemgetter
from typing import Iterator

from .permrep import PermRep, numbered_lines, partition, require_valid
from .records import Record

Edge = tuple[int, int, object]  # (u, v, label) with u <= v; u == v is a loop


class Multigraph(Record):
    __slots__ = _fields = ("n", "edges")

    def __init__(self, n: int, edges: list[Edge] | None = None):
        self.n, self.edges = n, [] if edges is None else edges

    def add_edge(self, u: int, v: int, label: object = None) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u > v:
            u, v = v, u
        self.edges.append((u, v, label))

    def sort_edges(self) -> None:
        """Sort the edges stably by (u, v, repr(label)), with one repr per
        distinct label."""
        text = {label: repr(label) for label in dict.fromkeys(map(itemgetter(2), self.edges))}
        self.edges.sort(key=lambda e: (e[0], e[1], text[e[2]]))

    def edge_multiset(self) -> list:
        return sorted((u, v, repr(l)) for u, v, l in self.edges)

    def same_as(self, other: "Multigraph") -> bool:
        return self.n == other.n and self.edge_multiset() == other.edge_multiset()

    def is_connected(self) -> bool:
        return partition(self.n, ((u, v) for u, v, _ in self.edges)).count <= 1

    def is_bipartite(self) -> bool:
        """No odd cycle, a loop included: in the double cover, with u ~ v+n
        and v ~ u+n for each edge, no vertex u shares a class with u+n."""
        n = self.n
        pairs = ((a, b) for u, v, _ in self.edges for a, b in ((u, v + n), (v, u + n)))
        ids = partition(2 * n, pairs).class_ids
        return all(ids[u] != ids[u + n] for u in range(n))


def generator_classes(k: int) -> list[tuple[int, bool]]:
    """Inverse-closed generator power classes {l, k-l} for l = 1..floor(k/2),
    flagged involutive when 2l == k."""
    return [(l, 2 * l == k) for l in range(1, k // 2 + 1)]


def schreier_multigraph(rep: PermRep) -> Multigraph:
    """Quotient of the Cayley graph by the subgroup: one vertex per point,
    and per generator-power class the matching/2-factor edge rules applied
    along each cycle of the generator image, read off the walks that
    `validate` made to find those cycles."""
    parts, k = require_valid(rep).partitions, rep.params.k
    g, full = Multigraph(rep.n), tuple(range(len(rep.betas)))
    for i in full:
        cycles = parts[full[:i] + full[i + 1 :]]
        for start, end in zip(cycles.offsets, cycles.offsets[1:]):
            cycle_edges(g, cycles.walk[start:end], i, k)
    g.sort_edges()
    return g


def cycle_edges(g: Multigraph, cyc: list[int], color: int, k: int) -> None:
    L = len(cyc)
    for l, involutive in generator_classes(k):
        step = l % L
        label = (color, l)
        if step == 0:
            # the power fixes every point of the cycle: one (single) loop each
            for p in cyc:
                g.add_edge(p, p, label)
        elif involutive:
            # pair points once; 2*step == 0 mod L so this is a fixed-point-free pairing
            for t in range(L):
                u, v = cyc[t], cyc[(t + step) % L]
                if u < v:
                    g.add_edge(u, v, label)
        else:
            # one edge per point; doubles into a 2-cycle when 2l == 0 mod L
            for t in range(L):
                g.add_edge(cyc[t], cyc[(t + step) % L], label)


# -- matchings and 2-factors ------------------------------------------------------

def _cover_counts(g: Multigraph, chosen: set[int]) -> tuple[list[int], list[int]]:
    """Per vertex, the loops at it and the ends of other edges at it."""
    loops, ends = [0] * g.n, [0] * g.n
    for e in chosen:
        u, v, _ = g.edges[e]
        if u == v:
            loops[u] += 1
        else:
            ends[u] += 1
            ends[v] += 1
    return loops, ends


def is_perfect_matching(g: Multigraph, chosen: set[int]) -> bool:
    return all(l + e == 1 for l, e in zip(*_cover_counts(g, chosen)))


def is_two_factor(g: Multigraph, chosen: set[int]) -> bool:
    return all((l, e) in ((1, 0), (0, 2)) for l, e in zip(*_cover_counts(g, chosen)))


def _incident(g: Multigraph, avail: set[int]) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for e in avail:
        u, v, _ = g.edges[e]
        inc[u].append(e)
        if v != u:
            inc[v].append(e)
    return inc


def _other_end(g: Multigraph, v: int, e: int) -> int:
    a, b, _ = g.edges[e]
    return b if a == v else a


def perfect_matchings(g: Multigraph, avail: set[int] | None = None) -> Iterator[set[int]]:
    """All perfect matchings within the available edge set, by backtracking
    on the lowest uncovered vertex with an explicit stack.  Exact; intended
    for desk-scale graphs."""
    inc = _incident(g, set(range(len(g.edges))) if avail is None else set(avail))
    covered = [False] * g.n
    stack: list[tuple[int, int]] = []  # (vertex, position in inc[vertex]) of each chosen edge
    v0, t = 0, 0
    while True:
        while v0 < g.n and covered[v0]:
            v0 += 1
        if v0 == g.n:
            yield {inc[v][s] for v, s in reversed(stack)}
        else:  # an edge at v0 is free when its other end is uncovered
            t = next((s for s in range(t, len(inc[v0]))
                      if not covered[_other_end(g, v0, inc[v0][s])]), None)
            if t is not None:
                covered[v0] = covered[_other_end(g, v0, inc[v0][t])] = True
                stack.append((v0, t))
                v0, t = v0 + 1, 0
                continue
        if not stack:
            return
        v0, t = stack.pop()
        covered[v0] = covered[_other_end(g, v0, inc[v0][t])] = False
        t += 1


def euler_two_factorization(g: Multigraph, avail: set[int]) -> list[set[int]]:
    """Split an edge set into 2-factors via an Euler orientation and
    bipartite edge coloring.  Precondition: every vertex has the same even
    degree 2·half in `avail`, a loop counting two, so the edges number
    n·half; no edges give no factors."""
    half = len(avail) // max(g.n, 1)

    # orient each component along an Euler circuit (Hierholzer): every
    # vertex then has out-degree = in-degree = half
    adj = _incident(g, avail)
    ptr = [0] * g.n
    used: set[int] = set()
    arcs: list[tuple[int, int, int]] = []  # (from, to, edge)
    for start in range(g.n):
        if ptr[start] >= len(adj[start]):
            continue
        stack: list[tuple[int, tuple[int, int, int] | None]] = [(start, None)]
        while stack:
            v, arrival = stack[-1]
            advanced = False
            while ptr[v] < len(adj[v]):
                e = adj[v][ptr[v]]
                ptr[v] += 1
                if e in used:
                    continue
                used.add(e)
                w = _other_end(g, v, e)
                stack.append((w, (v, w, e)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if arrival is not None:
                    arcs.append(arrival)

    # bipartite graph on out/in copies is half-regular; its edge coloring
    # by perfect matchings yields the 2-factors
    factors: list[set[int]] = []
    remaining = list(range(len(arcs)))
    for _ in range(half):
        match = _bipartite_perfect_matching([(arcs[t][0], arcs[t][1]) for t in remaining])
        factors.append({arcs[remaining[t]][2] for t in match})
        chosen_set = set(match)
        remaining = [r for t, r in enumerate(remaining) if t not in chosen_set]
    return factors


def _bipartite_perfect_matching(arcs: list[tuple[int, int]]) -> list[int]:
    """Perfect matching in the bipartite graph on out/in copies induced by
    arcs, which must be regular, so that one exists (König); returns the
    chosen arc positions (one out per vertex, one in per vertex).
    Hungarian augmenting paths."""
    outs: dict[int, list[int]] = {}
    for t, (a, _) in enumerate(arcs):
        outs.setdefault(a, []).append(t)
    match_in: dict[int, int] = {}  # in-vertex -> arc position
    match_out: dict[int, int] = {}

    def augment(root: int) -> None:
        """Match `root` along an augmenting path, searched depth first with
        an explicit stack: each level takes the arcs out of its vertex in
        order, skipping in-vertices already reached."""
        seen: set[int] = set()
        stack = [iter(outs.get(root, []))]
        taken: list[int] = []  # the arc each level but the last went down by
        while stack:
            t = next((t for t in stack[-1] if arcs[t][1] not in seen), None)
            if t is None:
                stack.pop()
                del taken[-1:]
                continue
            b = arcs[t][1]
            seen.add(b)
            if b not in match_in:
                for s in taken + [t]:
                    match_in[arcs[s][1]] = s
                    match_out[arcs[s][0]] = s
                return
            taken.append(t)
            stack.append(iter(outs.get(arcs[match_in[b]][0], [])))

    for v in sorted(outs):
        augment(v)
    return sorted(match_out.values())


# -- decomposition driver -----------------------------------------------------------

Factor = tuple[str, set[int]]  # ("matching" | "two_factor", edge indices)

# The most vertices on which `decompose_regular` backtracks, and on which
# `is_schreier` decides at all: the search's cost grows exponentially with them.
EXACT_BOUND = 30


def check_decomposition(g: Multigraph, factors: list[Factor], k: int) -> bool:
    used: list[int] = []
    m = f = 0
    for kind, chosen in factors:
        used.extend(chosen)
        if kind == "matching":
            if not is_perfect_matching(g, chosen):
                return False
            m += 1
        elif kind == "two_factor":
            if not is_two_factor(g, chosen):
                return False
            f += 1
        else:
            return False
    return sorted(used) == list(range(len(g.edges))) and m + 2 * f == k


def decompose_regular(g: Multigraph, k: int) -> list[Factor] | None:
    """Partition the edges into m perfect matchings and f 2-factors with
    m + 2f = k, or report that none exists.

    Strategies, in the order they run: (1) edge labels (generator
    classes) when present, each class a matching if it is one, else a
    2-factor, kept if `check_decomposition` accepts them; (2) Euler
    2-factorization when every degree is the even k_left and the graph is
    not bipartite (a bipartite graph has no loop, which is an odd cycle);
    (3) exact backtracking over perfect matchings, which by König never
    backtracks on a bipartite graph with every degree k_left: it has a
    perfect matching, and removing one leaves such a graph of degree
    k_left - 1.
    No 2-factor needs searching: a split meets each vertex v once per
    matching and twice per 2-factor, so deg(v) = k + L_v (a loop counting
    two), where L_v counts the matchings with a loop at v.  Once every
    perfect matching has failed, no split holds one, so each degree is the
    even k; by König the graph is then not bipartite, and the Euler step
    (Petersen) would already have found a split.
    On more than `EXACT_BOUND` vertices the search takes the first matching
    at each step and raises a one-line ValueError where it would try a second.
    A negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if g.edges and all(e[2] is not None for e in g.edges):
        by_label: dict[object, set[int]] = {}
        for t, (_, _, label) in enumerate(g.edges):
            by_label.setdefault(repr(label), set()).add(t)
        factors = [("matching" if is_perfect_matching(g, chosen) else "two_factor", chosen)
                   for _, chosen in sorted(by_label.items())]
        if check_decomposition(g, factors, k):
            return factors

    all_edges = set(range(len(g.edges)))
    memo: set[tuple[frozenset[int], int]] = set()
    bipartite = g.is_bipartite()  # of the whole graph, so the same at every step

    def solve(avail: set[int], k_left: int) -> list[Factor] | None:
        if k_left == 0:
            return [] if not avail else None
        key = (frozenset(avail), k_left)
        if key in memo:
            return None
        if (k_left % 2 == 0 and not bipartite
                and all(2 * l + e == k_left for l, e in zip(*_cover_counts(g, avail)))):
            return [("two_factor", f) for f in euler_two_factorization(g, avail)]
        for match in perfect_matchings(g, avail):
            rest = solve(avail - match, k_left - 1)
            if rest is not None:
                return [("matching", match)] + rest
            if g.n > EXACT_BOUND:
                raise ValueError(
                    f"the graph has {g.n} vertices: its first candidate factor leaves no "
                    f"decomposition, and the exact search backtracks on at most {EXACT_BOUND}"
                )
        memo.add(key)
        return None

    result = solve(all_edges, k)
    if result is not None and not check_decomposition(g, result, k):
        raise AssertionError("internal error: invalid decomposition produced")
    return result


def is_schreier(g: Multigraph, k: int) -> bool | None:
    """Exact Schreier-graph test for connected k-regular multigraphs: True or
    False within the search bound, None (unknown) beyond it."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if g.n > EXACT_BOUND:
        return None
    return decompose_regular(g, k) is not None


def counterexample_graph(k: int) -> Multigraph:
    """A connected k-regular graph (odd k >= 3) with neither a perfect
    matching nor a 2-factor: the balanced k-regular depth-3 tree with a
    (k-1)-regular circulant added on each leaf group.  Each subtree below a
    root child has odd cardinality 1 + (k-1) + (k-1)^2."""
    if k < 3 or k % 2 == 0:
        raise ValueError("construction needs odd k >= 3")
    g = Multigraph(1 + k + k * (k - 1) + k * (k - 1) ** 2)
    root = 0
    nxt = 1
    for _ in range(k):
        x = nxt
        nxt += 1
        g.add_edge(root, x)
        mids = []
        for _ in range(k - 1):
            m = nxt
            nxt += 1
            g.add_edge(x, m)
            mids.append(m)
        leaves = []
        for m in mids:
            for _ in range(k - 1):
                leaf = nxt
                nxt += 1
                g.add_edge(m, leaf)
                leaves.append(leaf)
        # (k-1)-regular circulant on the (k-1)^2 leaves: offsets 1..(k-1)/2,
        # each edge {t, t+off} arises from exactly one t since off < size/2
        sz = len(leaves)
        for t in range(sz):
            for off in range(1, (k - 1) // 2 + 1):
                g.add_edge(leaves[t], leaves[(t + off) % sz])
    g.sort_edges()
    return g


# -- text and DOT -----------------------------------------------------------------

def format_multigraph(g: Multigraph) -> str:
    counts = Counter(map(itemgetter(0, 1), g.edges))  # edges per endpoint pair
    lines = [str(g.n)]
    for (u, v), c in sorted(counts.items()):
        lines.append(f"{u + 1} {v + 1}" + (f" {c}" if c > 1 else ""))
    return "\n".join(lines) + "\n"


def parse_multigraph(text: str) -> Multigraph:
    """Read the text of `format_multigraph`: the vertex count n >= 0, then
    one edge per line as two endpoints in 1..n and an optional
    multiplicity >= 1.  Blank lines and `#` comments are skipped.  Raises
    one ValueError naming the first malformed line."""
    lines = numbered_lines(text)
    if not lines:
        raise ValueError("the graph file is empty: expected the vertex count")
    t, head = lines[0]
    if not head.isdecimal():
        raise ValueError(
            f"line {t}: the vertex count must be an integer >= 0, got {reprlib.repr(head)}"
        )
    g = Multigraph(int(head))
    for t, ln in lines[1:]:
        parts = ln.split()
        if 2 <= len(parts) <= 3 and all(p.isdecimal() for p in parts):
            u, v, mult = map(int, (parts + ["1"])[:3])
        else:
            u = v = mult = 0
        if not (1 <= u <= g.n and 1 <= v <= g.n and mult >= 1):
            raise ValueError(
                f"line {t}: an edge line holds two endpoints in 1..{g.n} "
                f"and an optional multiplicity >= 1, got {reprlib.repr(ln)}"
            )
        for _ in range(mult):
            g.add_edge(u - 1, v - 1)
    g.sort_edges()
    return g


def to_dot(g: Multigraph) -> str:
    palette = ["black", "red", "blue", "green", "orange", "purple", "brown", "cyan"]
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f'  {v} [label="{v + 1}"];')
    for u, v, label in g.edges:
        attrs = ""
        if isinstance(label, tuple) and label and isinstance(label[0], int):
            attrs = f' [color={palette[label[0] % len(palette)]}, label="{label[0]},{label[1]}"]'
        lines.append(f"  {u} -- {v}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
