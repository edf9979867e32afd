"""Finite-index subgroups presented by transitive permutation actions.

A subgroup H of the free product is given as d+1 permutations of n points
(one per generator, each of order dividing k) plus a root point; H is the
stabilizer of the root.  Points are 1-based in files and 0-based internally.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from math import comb, factorial
from random import Random

from .words import Params, Word

Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermRep:
    params: Params
    n: int
    betas: tuple[Perm, ...]  # betas[i][p] = image of point p, 0-based
    root: int = 0


@dataclass
class RepDiagnostics:
    ok: bool
    is_permutation: list[bool]
    order_divides_k: list[bool]
    transitive: bool
    messages: list[str] = field(default_factory=list)


@dataclass
class OrbitPartition:
    """Orbits of the points under the generators whose index lies outside
    the color set J.  Orbit ids are dense, ordered by minimal point."""

    color_set: frozenset[int]
    class_ids: list[int]  # point -> orbit id
    reps: list[int]  # orbit id -> minimal point

    @property
    def count(self) -> int:
        return len(self.reps)

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.reps]
        for p, c in enumerate(self.class_ids):
            out[c].append(p)
        return out


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def perm_cycles(perm: Perm) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        q = perm[start]
        while q != start:
            cyc.append(q)
            seen[q] = True
            q = perm[q]
        cycles.append(cyc)
    return cycles


def validate(rep: PermRep) -> RepDiagnostics:
    """Check each generator image is a permutation of order dividing k and
    that the generated group acts transitively."""
    n, k = rep.n, rep.params.k
    is_perm, order_ok, messages = [], [], []
    if len(rep.betas) != rep.params.d + 1:
        messages.append(f"expected {rep.params.d + 1} permutations, got {len(rep.betas)}")
    for i, beta in enumerate(rep.betas):
        good = len(beta) == n and sorted(beta) == list(range(n))
        is_perm.append(good)
        if not good:
            messages.append(f"generator {i} is not a permutation of [{n}]")
            order_ok.append(False)
            continue
        bad = [len(c) for c in perm_cycles(beta) if k % len(c) != 0]
        order_ok.append(not bad)
        if bad:
            messages.append(f"generator {i} has cycle lengths {sorted(set(bad))} not dividing k={k}")
    transitive = False
    if all(is_perm):
        uf = UnionFind(n)
        for beta in rep.betas:
            for p in range(n):
                uf.union(p, beta[p])
        transitive = len({uf.find(p) for p in range(n)}) == 1
        if not transitive:
            messages.append("action is not transitive")
    if not 0 <= rep.root < n:
        messages.append(f"root {rep.root} out of range")
    ok = all(is_perm) and all(order_ok) and transitive and 0 <= rep.root < n
    return RepDiagnostics(ok, is_perm, order_ok, transitive, messages)


def evaluate(w: Word, point: int, rep: PermRep) -> int:
    """Image of a point under the left action of `w` (letters apply
    right-to-left)."""
    if not 0 <= point < rep.n:
        raise ValueError(f"point {point} out of range 0..{rep.n - 1}")
    k = rep.params.k
    for i, l in reversed(w.letters):
        if not 0 <= i <= rep.params.d:
            raise ValueError(f"generator index {i} out of range")
        beta = rep.betas[i]
        for _ in range(l % k):
            point = beta[point]
    return point


def orbits(rep: PermRep, color_set: frozenset[int] | set[int]) -> OrbitPartition:
    """Partition of the points into orbits of the subgroup generated by the
    permutations whose index is NOT in `color_set`.

    With |J| = j+1 these orbits are exactly the j-multicells of the quotient;
    J = all colors gives the discrete partition (points = top cells)."""
    color_set = frozenset(color_set)
    complement = [i for i in range(rep.params.d + 1) if i not in color_set]
    uf = UnionFind(rep.n)
    for i in complement:
        beta = rep.betas[i]
        for p in range(rep.n):
            uf.union(p, beta[p])
    root_to_id: dict[int, int] = {}
    reps: list[int] = []
    class_ids = [0] * rep.n
    for p in range(rep.n):
        r = uf.find(p)  # UnionFind keeps the minimal point as representative
        if r not in root_to_id:
            root_to_id[r] = len(reps)
            reps.append(r)
        class_ids[p] = root_to_id[r]
    return OrbitPartition(color_set, class_ids, reps)


def stabilizer_contains(w: Word, rep: PermRep) -> bool:
    return evaluate(w, rep.root, rep) == rep.root


# -- uniform sampling of permutations with cycle lengths dividing k --------

def allowed_cycle_lengths(k: int) -> list[int]:
    return [l for l in range(1, k + 1) if k % l == 0]


def _cycle_weight(m: int, l: int, a: list[int]) -> int:
    """Permutations of m points whose lowest point lies on an l-cycle."""
    return comb(m - 1, l - 1) * factorial(l - 1) * a[m - l]


def _order_dividing_table(n: int, k: int) -> list[int]:
    """a[m] = number of permutations of [m] with all cycle lengths dividing
    k, for m = 0..n."""
    lengths = allowed_cycle_lengths(k)
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = sum(_cycle_weight(m, l, a) for l in lengths if l <= m)
    return a


def count_order_dividing(n: int, k: int) -> int:
    """Number of permutations of [n] all of whose cycle lengths divide k.
    a(m) = sum over allowed l of C(m-1, l-1) * (l-1)! * a(m-l)."""
    return _order_dividing_table(n, k)[n]


def random_order_dividing(n: int, k: int, rng: Random) -> Perm:
    """Uniform permutation of [n] with cycle lengths dividing k.

    The lowest unplaced point starts a cycle whose length is chosen with the
    exact counting weights, then the remaining members and their cyclic
    arrangement are drawn uniformly."""
    lengths = allowed_cycle_lengths(k)
    a = _order_dividing_table(n, k)
    perm = [-1] * n
    unplaced = list(range(n))
    while unplaced:
        m = len(unplaced)
        u = rng.randrange(a[m])
        for l in lengths:
            if l > m:
                continue
            w = _cycle_weight(m, l, a)
            if u < w:
                break
            u -= w
        head = unplaced[0]
        rest = unplaced[1:]
        others = rng.sample(rest, l - 1)
        rng.shuffle(others)
        cycle = [head] + others
        for t in range(l):
            perm[cycle[t]] = cycle[(t + 1) % l]
        placed = set(cycle)
        unplaced = [p for p in unplaced if p not in placed]
    return tuple(perm)


def random_rep(p: Params, n: int, seed: int) -> PermRep | None:
    """Draw d+1 independent uniform order-dividing-k permutations.

    Returns None when the resulting action is intransitive (a retryable
    failure, never silently accepted).  Deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Random(seed)
    betas = tuple(random_order_dividing(n, p.k, rng) for _ in range(p.d + 1))
    rep = PermRep(p, n, betas, 0)
    return rep if validate(rep).ok else None


def random_rep_retry(p: Params, n: int, seed: int, max_tries: int = 64) -> tuple[PermRep, int]:
    """Retry `random_rep` with derived seeds; returns (rep, tries used)."""
    for t in range(max_tries):
        rep = random_rep(p, n, seed + 10_000 * t)
        if rep is not None:
            return rep, t + 1
    raise ValueError(f"no transitive sample in {max_tries} tries (d={p.d}, k={p.k}, n={n})")


# -- intersections and canonical form ---------------------------------------

def intersect_reps(r1: PermRep, r2: PermRep) -> tuple[PermRep, list[tuple[int, int]]]:
    """Action on the diagonal orbit of (root1, root2); its root stabilizer is
    the intersection of the two subgroups.

    Returns the rep together with the pair carried by each point, which
    projects the result onto either factor."""
    if r1.params != r2.params:
        raise ValueError("reps must share (d, k)")
    d = r1.params.d
    pairs = [(r1.root, r2.root)]
    index = {pairs[0]: 0}
    queue = deque(pairs[:1])
    while queue:
        p, q = queue.popleft()
        for i in range(d + 1):
            nxt = (r1.betas[i][p], r2.betas[i][q])
            if nxt not in index:
                index[nxt] = len(pairs)
                pairs.append(nxt)
                queue.append(nxt)
    betas = []
    for i in range(d + 1):
        betas.append(tuple(index[(r1.betas[i][p], r2.betas[i][q])] for p, q in pairs))
    return PermRep(r1.params, len(pairs), tuple(betas), 0), pairs


def canonical_relabel(rep: PermRep) -> PermRep:
    """Relabel points by BFS discovery order from the root (generators in
    index order, then ascending power).  Two reps are equal up to a
    root-fixing relabeling iff their canonical forms are identical."""
    d, k, n = rep.params.d, rep.params.k, rep.n
    order = [rep.root]
    new_id = {rep.root: 0}
    qi = 0
    while qi < len(order):
        p = order[qi]
        qi += 1
        for i in range(d + 1):
            q = p
            for _ in range(k - 1):
                q = rep.betas[i][q]
                if q not in new_id:
                    new_id[q] = len(order)
                    order.append(q)
    if len(order) != n:
        raise ValueError("rep is not transitive; canonical form undefined")
    betas = []
    for i in range(d + 1):
        betas.append(tuple(new_id[rep.betas[i][order[t]]] for t in range(n)))
    return PermRep(rep.params, n, tuple(betas), 0)


def same_up_to_relabeling(r1: PermRep, r2: PermRep) -> bool:
    return (
        r1.params == r2.params
        and r1.n == r2.n
        and canonical_relabel(r1) == canonical_relabel(r2)
    )


# -- text format -------------------------------------------------------------

def parse_permutation(text: str, n: int) -> Perm:
    """One-line image notation (1-based) or cycle notation like (1 2)(3 4)."""
    text = text.strip()
    if text.startswith("("):
        perm = list(range(n))
        for cyc in re.findall(r"\(([^()]*)\)", text):
            pts = [int(tok) - 1 for tok in cyc.replace(",", " ").split()]
            if any(not 0 <= p < n for p in pts):
                raise ValueError(f"cycle entry out of range in {text!r}")
            for t in range(len(pts)):
                perm[pts[t]] = pts[(t + 1) % len(pts)]
        return tuple(perm)
    images = [int(tok) - 1 for tok in text.split()]
    if len(images) != n:
        raise ValueError(f"expected {n} images, got {len(images)}")
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation (images are not a bijection)")
    return tuple(images)


def format_rep(rep: PermRep) -> str:
    lines = [f"{rep.params.d} {rep.params.k} {rep.n} {rep.root + 1}"]
    for beta in rep.betas:
        lines.append(" ".join(str(q + 1) for q in beta))
    return "\n".join(lines) + "\n"


def parse_rep(text: str) -> PermRep:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty rep file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("header must be: d k n root")
    d, k, n, root = (int(x) for x in head)
    p = Params(d, k)
    if len(lines) != 1 + d + 1:
        raise ValueError(f"expected {d + 1} permutation lines, got {len(lines) - 1}")
    betas = tuple(parse_permutation(ln, n) for ln in lines[1:])
    return PermRep(p, n, betas, root - 1)
