"""Finite-index subgroups presented by transitive permutation actions.

A subgroup H of the free product is given as d+1 permutations of n points
(one per generator, each of order dividing k) plus a root point; H is the
stabilizer of the root.  Points are 1-based in files and 0-based internally.

The random model draws the d+1 permutations independently and uniformly
from the a[n] permutations of [n] whose cycle lengths all divide k, in O(n)
time and memory per permutation:

- Cycle lengths.  With m points unplaced, the lowest of them lies on an
  l-cycle with probability pi_l(m) = C(m-1, l-1) (l-1)! a[m-l] / a[m], and
  m drops by l.  In terms of b[m] = a[m] / m!, which satisfies
  m b[m] = sum over l | k of b[m-l], this is
  pi_l(m) = prod_{i=m-l+1}^{m} q[i] / m with q[m] = b[m-1] / b[m]; the
  table q is built once per `random_rep` in floats.  Its cumulative
  probabilities were measured within 3e-16 of a 50-digit evaluation for
  k in {2, 3, 4, 6} and m up to 10^6.
- Exactness.  A step draws u = `rng.random()`, the first 53 bits of a real
  uniform U, and picks the bucket of the cumulative law that holds u.
  When u is less than _MARGIN = 2^-36 from an end of its bucket, far more
  than the float error, the step is decided again in integers: the weights
  (m-1)!/(m-l)! a[m-l] come from the terms a[m-k..m], built from a[0] by
  `_order_dividing_counts` in about m^2 log m bit operations, and further
  bits of U are drawn until the interval known to hold U lies inside one
  bucket.  Every step therefore follows the exact law.  The integer path
  runs with probability about 2 * _MARGIN per step and boundary.
- Placement.  One `rng.shuffle` of range(n) is cut into consecutive
  cycles of the drawn lengths.  Given the lengths, every permutation of
  that cycle type arises from prod l^c_l c_l! shuffles, the same number
  for each, so the result is uniform.
- Retries.  `random_rep_retry` draws try t from `Random(_try_seed(seed, t))`,
  an injective code of (seed, t), so no two (seed, try) pairs share a
  stream.
- (d, k) = (1, 2).  Two random involutions are seldom transitive (the
  share is 0.0045 at n = 20), so `random_rep` draws a transitive pair
  directly.  Its Schreier graph is one alternating path (n! pairs) or, for
  even n, one alternating cycle ((n-1)! pairs).  A shuffle of the points
  lists the graph's vertices, a cycle is taken with probability 1/(n+1)
  when n is even, and a random color goes to the first edge.  Each graph
  arises from 2 (path) or 2n (cycle) of the (shuffle, color) pairs, so the
  draw is uniform on the transitive pairs, the law that rejection has.

Orbits.  `orbit_partitions` finds the orbits of <beta_i : i not in J> for
every color set J, from all colors (the points) down to the empty set (the
orbits of the group), each as one `partition` of the classes of J + {a},
a the least color missing from J, joined along beta_a.  When J misses one
color a, those classes are the points, and one walk along the cycles of
beta_a labels its orbits instead (`_cycle_classes`); the partition keeps
that walk, which is the ordering of the orbit complex and the cycle list
of the Schreier graph.  Class ids are
ordered by minimal point at every J, so a set's ids are the ids of the
direct union-find, and `complex_from_classes` and the fixture digests
read them as cell indices.  `validate` reads the order and transitivity
checks off these partitions; `random_rep`, whose draws have orders
dividing k by construction, checks only transitivity.
"""

from __future__ import annotations

import math
import re
import reprlib
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, count, islice
from random import Random
from typing import NamedTuple

from .words import Params, Word

Perm = tuple[int, ...]


class PermRep(NamedTuple):
    params: Params
    n: int
    betas: tuple[Perm, ...]  # betas[i][p] = image of point p, 0-based
    root: int = 0


class RepDiagnostics(NamedTuple):
    ok: bool
    is_permutation: list[bool]
    order_divides_k: list[bool]
    transitive: bool
    messages: list[str]
    partitions: dict[tuple[int, ...], OrbitPartition]


class OrbitPartition(NamedTuple):
    """Classes of the points 0..n-1, dense and ordered by minimal point,
    such as the orbits of a color set (module docstring, Orbits).  The
    cycles of one permutation also keep the walk that found them: `walk`
    lists each class's points in cycle order from its minimal point, class
    after class, and class c is walk[offsets[c] : offsets[c + 1]]."""

    class_ids: list[int]  # point -> class id
    reps: list[int]  # class id -> minimal point
    walk: list[int] | None = None
    offsets: list[int] | None = None

    @property
    def count(self) -> int:
        return len(self.reps)

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.reps]
        for p, c in enumerate(self.class_ids):
            out[c].append(p)
        return out


def partition(n: int, pairs: Iterable[tuple[int, int]]) -> OrbitPartition:
    """Classes of 0..n-1 under the equivalence that `pairs` generates, by
    union-find with path halving; the points are then labeled in increasing
    order, so each class id is first met at its minimal point."""
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[b] = a
    ids = [-1] * n
    class_ids, reps = [0] * n, []
    for p in range(n):
        r = p
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        if ids[r] < 0:
            ids[r] = len(reps)
            reps.append(p)
        class_ids[p] = ids[r]
    return OrbitPartition(class_ids, reps)


def _cycle_classes(perm: Perm, points: list[int]) -> OrbitPartition:
    """The cycles of a permutation of `points`, which is range(n) as a list,
    as classes, labeled by one walk along each cycle from its minimal point,
    in increasing point order; the partition keeps that walk.  The reps are
    items of `points`, not new ints."""
    class_ids, reps, walk, offsets = [-1] * len(perm), [], [], []
    for p in points:
        if class_ids[p] < 0:
            q, c = p, len(reps)
            reps.append(p)
            offsets.append(len(walk))
            while class_ids[q] < 0:
                class_ids[q] = c
                walk.append(q)
                q = perm[q]
    offsets.append(len(walk))
    return OrbitPartition(class_ids, reps, walk, offsets)


def orbit_partitions(rep: PermRep) -> dict[tuple[int, ...], OrbitPartition]:
    """The orbits of the generators outside each color set, the empty set
    included, keyed by the sorted color set (module docstring, Orbits)."""
    m, n = len(rep.betas), rep.n
    parts = {(1 << m) - 1: OrbitPartition(list(range(n)), list(range(n)))}  # by color mask
    for mask in reversed(range((1 << m) - 1)):
        a = (~mask & (mask + 1)).bit_length() - 1  # the least color missing from the mask
        if mask | 1 << a == (1 << m) - 1:  # the points, joined along beta_a: its cycles
            parts[mask] = _cycle_classes(rep.betas[a], parts[(1 << m) - 1].reps)
            continue
        fine = parts[mask | 1 << a]
        ids = fine.class_ids
        coarse = partition(fine.count, zip(ids, map(ids.__getitem__, rep.betas[a])))
        parts[mask] = OrbitPartition(list(map(coarse.class_ids.__getitem__, ids)),
                                     list(map(fine.reps.__getitem__, coarse.reps)))
    return {tuple(c for c in range(m) if mask >> c & 1): parts[mask] for mask in range(1 << m)}


def validate(rep: PermRep) -> RepDiagnostics:
    """Check each generator image is a permutation of order dividing k and
    that the generated group acts transitively, reading both off the
    `orbit_partitions` it returns when every image is a permutation."""
    n, k, full = rep.n, rep.params.k, tuple(range(len(rep.betas)))
    messages, order_ok = [], []
    if len(rep.betas) != rep.params.d + 1:
        messages.append(f"expected {rep.params.d + 1} permutations, got {len(rep.betas)}")
    is_perm = [len(beta) == n and sorted(beta) == list(range(n)) for beta in rep.betas]
    parts = orbit_partitions(rep) if all(is_perm) else {}
    for i, beta in enumerate(rep.betas):
        if not is_perm[i]:
            messages.append(f"generator {i} is not a permutation of [{n}]")
            order_ok.append(False)
            continue
        cycles = parts[full[:i] + full[i + 1 :]] if parts else partition(n, enumerate(beta))
        bad = sorted({size for size in Counter(cycles.class_ids).values() if k % size})
        order_ok.append(not bad)
        if bad:
            messages.append(f"generator {i} has cycle lengths {bad} not dividing k={k}")
    transitive = bool(parts) and parts[()].count == 1
    if parts and not transitive:
        messages.append("action is not transitive")
    if not 0 <= rep.root < n:
        messages.append(f"root {rep.root} out of range")
    return RepDiagnostics(not messages, is_perm, order_ok, transitive, messages, parts)


def require_valid(rep: PermRep) -> RepDiagnostics:
    """`validate(rep)`, or ValueError("invalid rep: ...") with its messages."""
    diag = validate(rep)
    if not diag.ok:
        raise ValueError("invalid rep: " + "; ".join(diag.messages))
    return diag


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


# -- uniform sampling of permutations with cycle lengths dividing k --------

# A float decision closer than this to a boundary of the cumulative cycle
# length law is settled in exact integer arithmetic instead.
_MARGIN = 2.0**-36


def allowed_cycle_lengths(k: int) -> list[int]:
    return [l for l in range(1, k + 1) if k % l == 0]


def _order_dividing_counts(k: int) -> Iterator[int]:
    """a[0], a[1], ... where a[m] counts the permutations of [m] whose cycle
    lengths all divide k: a[m] = sum over allowed l <= m of
    (m-1)!/(m-l)! * a[m-l], the lowest point lying on an l-cycle.  Only the
    last k terms are held."""
    lengths = allowed_cycle_lengths(k)
    recent: deque[int] = deque([1], maxlen=k)
    yield 1
    for m in count(1):
        a_m = sum(math.perm(m - 1, l - 1) * recent[-l] for l in lengths if l <= m)
        recent.append(a_m)
        yield a_m


def count_order_dividing(n: int, k: int) -> int:
    """Number of permutations of [n] all of whose cycle lengths divide k."""
    return next(islice(_order_dividing_counts(k), n, None))


def _tail_products(q: list[float], lengths: list[int], m: int) -> list[float]:
    """prod_{i=m-l+1}^{m-1} q[i] = b[m-l] / b[m-1] for each allowed l <= m,
    in the order of `lengths`."""
    out, prod, i = [], 1.0, m
    for l in lengths:
        if l > m:
            break
        while i > m - l + 1:
            i -= 1
            prod *= q[i]
        out.append(prod)
    return out


def _ratio_table(n: int, k: int) -> list[float]:
    """q[m] = b[m-1] / b[m] for m = 1..n, where b[m] = a[m] / m! (q[0] is
    unused).  Dividing the recurrence of a by (m-1)! gives
    m b[m] = sum over allowed l of b[m-l], hence
    q[m] = m / sum over allowed l <= m of prod_{i=m-l+1}^{m-1} q[i]."""
    lengths = allowed_cycle_lengths(k)
    q = [0.0] * (n + 1)
    for m in range(1, n + 1):
        q[m] = m / sum(_tail_products(q, lengths, m))
    return q


def _exact_length(m: int, k: int, lengths: list[int], u: float, rng: Random) -> int:
    """The cycle length chosen by the real uniform U whose first 53 bits
    give `u`, decided in integers: bucket l takes U * a[m] in
    [S_{l-1}, S_l), S_l the partial sums of the weights
    (m-1)!/(m-l)! * a[m-l] read off the last terms a[m-k..m] of the
    recurrence.
    While the dyadic interval [x, x+1) / 2^e known to hold U straddles a
    boundary, 32 more bits of U are drawn."""
    window = deque(islice(_order_dividing_counts(k), m + 1), maxlen=k + 1)
    total = window[-1]
    weights = [math.perm(m - 1, l - 1) * window[-1 - l] for l in lengths]
    x, e = int(u * 2**53), 53
    while True:
        low, upper = x * total, 0
        for l, w in zip(lengths, weights):
            upper += w
            if low < upper << e:
                if low + total <= upper << e:
                    return l
                break
        x, e = (x << 32) | rng.getrandbits(32), e + 32


class _CycleLengthLaw:
    """Uniform permutations of [n] whose order divides k (see the module
    docstring for the law).  The ratio table q is built once and serves
    every draw."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.lengths = allowed_cycle_lengths(k)
        self.q = _ratio_table(n, k)

    def probabilities(self, m: int) -> list[tuple[int, float]]:
        """(l, pi_l(m)) in floats for each allowed l <= m."""
        prods = _tail_products(self.q, self.lengths, m)
        scale = self.q[m] / m
        return [(l, prod * scale) for l, prod in zip(self.lengths, prods)]

    def length(self, m: int, rng: Random) -> int:
        """One step of the chain: the float decision when the uniform is at
        least _MARGIN away from both ends of its bucket, else the exact one."""
        probs = self.probabilities(m)
        if len(probs) == 1:
            return probs[0][0]
        u = rng.random()
        bounds = list(accumulate(p for _, p in probs[:-1]))  # inner boundaries
        if any(abs(u - b) < _MARGIN for b in bounds):
            return _exact_length(m, self.k, [l for l, _ in probs], u, rng)
        return probs[bisect_right(bounds, u)][0]

    def draw(self, rng: Random) -> Perm:
        """Draw the cycle lengths, then cut one shuffle of the points into
        consecutive cycles of those lengths."""
        lengths, m = [], self.n
        while m:
            l = self.length(m, rng)
            lengths.append(l)
            m -= l
        points = list(range(self.n))
        rng.shuffle(points)
        succ = list(range(1, self.n + 1))  # position -> position of the image
        start = 0
        for l in lengths:
            succ[start + l - 1] = start
            start += l
        out = [0] * self.n
        for t, p in enumerate(points):
            out[p] = points[succ[t]]
        return tuple(out)


def random_order_dividing(n: int, k: int, rng: Random) -> Perm:
    """Uniform permutation of [n] with cycle lengths dividing k."""
    return _CycleLengthLaw(n, k).draw(rng)


def _try_seed(seed: int, t: int) -> int:
    """Seed of try t of `random_rep_retry`: the Cantor pairing of t with
    the zigzag code of `seed` (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).  This
    is a bijection from (integer, try) pairs onto the non-negative integers,
    and `Random` seeds from |seed|, so no two pairs share a stream."""
    z = 2 * seed if seed >= 0 else -2 * seed - 1
    return (z + t) * (z + t + 1) // 2 + t


def random_rep(p: Params, n: int, seed: int) -> PermRep | None:
    """Draw d+1 independent permutations, each uniform among the a[n]
    permutations of [n] whose cycle lengths divide k, from one
    `Random(seed)` stream; they share one ratio table.

    Each cycle length is decided in floats unless the uniform lies within
    _MARGIN = 2^-36 of a boundary of the length law, where it is decided in
    integers with more random bits, so the law is exact (module docstring).
    Returns None when the resulting action is intransitive (a retryable
    failure, never silently accepted); `random_rep_retry` then tries the
    seed `_try_seed(seed, t)`, which no other (seed, try) pair shares.
    At (d, k) = (1, 2) the pair is drawn transitive, with rejection's law
    (module docstring).  Deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Random(seed)
    if (p.d, p.k) == (1, 2):
        return _transitive_involutions(p, n, rng)
    law = _CycleLengthLaw(n, p.k)
    betas = tuple(law.draw(rng) for _ in range(p.d + 1))
    transitive = partition(n, chain.from_iterable(map(enumerate, betas))).count == 1
    return PermRep(p, n, betas, 0) if transitive else None


def _transitive_involutions(p: Params, n: int, rng: Random) -> PermRep:
    """A uniform transitive pair of involutions: the points in shuffled
    order joined by one alternating path, or cycle, whose first edge has a
    random color."""
    points = list(range(n))
    rng.shuffle(points)
    closed = n % 2 == 0 and rng.randrange(n + 1) == 0
    first = rng.randrange(2)
    betas = [list(range(n)), list(range(n))]
    for t in range(n if closed else n - 1):
        a, b = points[t], points[(t + 1) % n]
        beta = betas[first ^ (t % 2)]
        beta[a], beta[b] = b, a
    return PermRep(p, n, tuple(map(tuple, betas)), 0)


_TRIES = 64  # draws `random_rep_retry` makes before it gives up


def random_rep_retry(p: Params, n: int, seed: int) -> tuple[PermRep, int]:
    """Call `random_rep` with seed `_try_seed(seed, t)` for t = 0, 1, ...
    until the action is transitive, at most `_TRIES` times; returns (rep,
    tries used).  With n >= 2 and no divisor of k in 2..n, the identity is
    the only permutation with cycle lengths dividing k: refused undrawn."""
    if n >= 2 and all(p.k % l for l in range(2, min(p.k, n) + 1)):
        raise ValueError(f"no transitive action on {n} points: only the identity has cycle "
                         f"lengths dividing k={p.k} (d={p.d}, k={p.k}, n={n})")
    for t in range(_TRIES):
        rep = random_rep(p, n, _try_seed(seed, t))
        if rep is not None:
            return rep, t + 1
    raise ValueError(f"no transitive sample in {_TRIES} tries (d={p.d}, k={p.k}, n={n})")


# -- intersections and isomorphism -----------------------------------------

def intersect_reps(r1: PermRep, r2: PermRep) -> tuple[PermRep, list[tuple[int, int]]]:
    """Action on the diagonal orbit of (root1, root2); its root stabilizer is
    the intersection of the two subgroups.

    Returns the rep together with the pair carried by each point, which
    projects the result onto either factor.  Raises ValueError unless both
    reps pass `require_valid` and share (d, k)."""
    if r1.params != r2.params:
        raise ValueError("reps must share (d, k)")
    require_valid(r1)
    require_valid(r2)
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


def same_up_to_relabeling(r1: PermRep, r2: PermRep) -> bool:
    """Whether a root-fixing relabeling carries one rep onto the other.  The
    diagonal orbit of the two roots (`intersect_reps`) projects onto each
    rep, and has as many points as they do exactly when both projections
    are bijections, which then compose to the relabeling.  Reps of equal
    (d, k) and size must pass `require_valid`, else ValueError."""
    return r1.params == r2.params and r1.n == r2.n == len(intersect_reps(r1, r2)[1])


# -- text format -------------------------------------------------------------

def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped text) of each line that is neither
    blank nor a `#` comment."""
    return [
        (t, ln.strip())
        for t, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]


def _integers(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{what} must be integers, got {reprlib.repr(' '.join(tokens))}") from None


def parse_permutation(text: str, n: int) -> Perm:
    """One-line image notation (1-based) or cycle notation like (1 2)(3 4):
    parenthesized groups, each of points split by spaces or commas, with
    nothing but whitespace between the groups."""
    text = text.strip()
    if text.startswith("("):
        if not re.fullmatch(r"(\([^()]*\)\s*)+", text):
            raise ValueError(f"cycle notation needs parenthesized groups, got {reprlib.repr(text)}")
        perm = list(range(n))
        seen: set[int] = set()
        for cyc in re.findall(r"\(([^()]*)\)", text):
            pts = [p - 1 for p in _integers(cyc.replace(",", " ").split(), "cycle entries")]
            if any(not 0 <= p < n for p in pts):
                raise ValueError(f"cycle entry out of range in {reprlib.repr(text)}")
            for t, p in enumerate(pts):
                if p in seen:
                    raise ValueError(f"the cycles repeat point {p + 1}")
                seen.add(p)
                perm[p] = pts[(t + 1) % len(pts)]
        return tuple(perm)
    images = [p - 1 for p in _integers(text.split(), "images")]
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
    lines = [ln for _, ln in numbered_lines(text)]
    if not lines:
        raise ValueError("empty rep file")
    try:
        d, k, n, root = (int(x) for x in lines[0].split())
    except ValueError:
        header = reprlib.repr(lines[0])
        raise ValueError(f"the header {header} must be four integers: d k n root") from None
    p = Params(d, k)
    if n < 1:
        raise ValueError(f"the point count n must be at least 1, got {n}")
    if not 1 <= root <= n:
        raise ValueError(f"root {root} out of range 1..{n}")
    if len(lines) != 1 + d + 1:
        raise ValueError(f"expected {d + 1} permutation lines, got {len(lines) - 1}")
    betas = []
    for i, ln in enumerate(lines[1:]):
        try:
            betas.append(parse_permutation(ln, n))
        except ValueError as exc:
            raise ValueError(f"permutation of generator {i}: {exc}") from None
    return PermRep(p, n, tuple(betas), root - 1)
