"""Connectivity, bipartiteness, matchings, 2-factors and decompositions of
tiny multigraphs with loops, checked against brute force over all vertex
colorings or edge subsets."""

from __future__ import annotations

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_rep
from multiforge.graphs import (
    Factor,
    Multigraph,
    check_decomposition,
    decompose_regular,
    euler_two_factorization,
    format_multigraph,
    is_perfect_matching,
    is_two_factor,
    parse_multigraph,
    perfect_matchings,
    schreier_multigraph,
)

GRAPH_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def tiny_multigraphs(draw, max_n: int = 4, max_edges: int = 7) -> Multigraph:
    """Up to `max_n` vertices and `max_edges` edges, loops and parallel
    edges included."""
    n = draw(st.integers(1, max_n))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = Multigraph(n)
    for u, v in draw(st.lists(ends, max_size=max_edges)):
        g.add_edge(u, v)
    return g


@st.composite
def planted_multigraphs(draw, max_n: int = 4, max_k: int = 5) -> tuple[Multigraph, int]:
    """A union of random perfect matchings and 2-factors with m + 2f = k,
    loops and parallel edges included, then perhaps one edge dropped or
    added, so that both answers occur often."""
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, max_k))
    g, left = Multigraph(n), k
    while left:
        order = draw(st.permutations(range(n)))
        if left >= 2 and draw(st.booleans()):  # a 2-factor: the cycles of a permutation
            for u, v in zip(range(n), order):
                g.add_edge(u, v)
            left -= 2
        else:  # a matching: pair neighbours in `order`, a loop where none is left
            loops, t = draw(st.lists(st.booleans(), min_size=n, max_size=n)), 0
            while t < n:
                pair = t + 1 < n and not loops[t]
                g.add_edge(order[t], order[t + 1] if pair else order[t])
                t += 2 if pair else 1
            left -= 1
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and g.edges:
        g.edges.pop(draw(st.integers(0, len(g.edges) - 1)))
    elif change == "add":
        g.add_edge(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return g, k


def subsets(items) -> list[frozenset[int]]:
    items = list(items)
    return [frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)]


def degrees(g: Multigraph, edges) -> list[int]:
    """Degrees in `edges`, a loop counting two."""
    deg = [0] * g.n
    for e in edges:
        u, v, _ = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def brute_decomposable(g: Multigraph, avail: frozenset[int], k: int) -> bool:
    """Whether `avail` splits into m perfect matchings and f 2-factors with
    m + 2f = k.  Each factor holds the lowest edge left, so every partition
    is tried once."""
    if not avail:
        return k == 0
    low = min(avail)
    for rest in subsets(avail - {low}):
        part = rest | {low}
        if k >= 1 and is_perfect_matching(g, set(part)) and brute_decomposable(g, avail - part, k - 1):
            return True
        if k >= 2 and is_two_factor(g, set(part)) and brute_decomposable(g, avail - part, k - 2):
            return True
    return False


@GRAPH_PROPERTY
@given(g=tiny_multigraphs())
def test_perfect_matchings_are_exactly_the_accepted_subsets(g):
    found = [frozenset(m) for m in perfect_matchings(g)]
    assert len(found) == len(set(found))
    all_edges = range(len(g.edges))
    assert set(found) == {s for s in subsets(all_edges) if is_perfect_matching(g, set(s))}


@GRAPH_PROPERTY
@given(g=tiny_multigraphs(max_edges=8))
def test_euler_two_factorization_covers_even_regular_edge_sets(g):
    for avail in subsets(range(len(g.edges))):
        deg = degrees(g, avail)
        if deg[0] % 2 or any(d != deg[0] for d in deg):
            continue
        factors = euler_two_factorization(g, set(avail))
        assert len(factors) == deg[0] // 2 and (avail or factors == [])
        assert all(is_two_factor(g, f) for f in factors)
        assert sorted(e for f in factors for e in f) == sorted(avail)


def test_euler_two_factorization_of_no_vertices_is_empty():
    assert euler_two_factorization(Multigraph(0), set()) == []


def assert_decomposition_exact(g: Multigraph, k: int) -> None:
    result: list[Factor] | None = decompose_regular(g, k)
    assert (result is not None) == brute_decomposable(g, frozenset(range(len(g.edges))), k)
    if result is not None:
        assert check_decomposition(g, result, k)


@settings(GRAPH_PROPERTY, max_examples=600)
@given(g=tiny_multigraphs(), k=st.integers(1, 5), planted=planted_multigraphs())
def test_decompose_regular_is_exact(g, k, planted):
    """Brute force splits into matchings and 2-factors alike; the search
    enumerates matchings only and leaves 2-factors to the Euler step."""
    assert_decomposition_exact(g, k)
    assert_decomposition_exact(*planted)


def test_check_decomposition_refuses_wrong_factors():
    square = Multigraph(4)
    for u in range(4):
        square.add_edge(u, (u + 1) % 4)
    matchings = [("matching", {0, 2}), ("matching", {1, 3})]
    assert check_decomposition(square, matchings, 2)
    assert not check_decomposition(square, [("matching", {0, 1}), ("matching", {2, 3})], 2)
    assert not check_decomposition(square, [("two_factor", {0, 2}), ("matching", {1, 3})], 3)
    assert not check_decomposition(square, [("cycle", {0, 1, 2, 3})], 2)
    assert check_decomposition(square, [("two_factor", {0, 1, 2, 3})], 2)
    assert not check_decomposition(square, matchings[:1], 1)  # edges 1 and 3 left over


def test_labelled_strategy_falls_through_a_class_that_is_neither():
    """A label class that is neither a perfect matching nor a 2-factor
    leaves the graph to the other strategies, which still decompose it."""
    square = Multigraph(4)
    for u, label in zip(range(4), "aabb"):
        square.add_edge(u, (u + 1) % 4, label)
    assert not is_perfect_matching(square, {0, 1}) and not is_two_factor(square, {0, 1})
    result = decompose_regular(square, 2)
    assert result is not None and check_decomposition(square, result, 2)
    assert sorted(kind for kind, _ in result) == ["matching", "matching"]


def test_decompose_regular_is_exact_on_labeled_schreier_graphs():
    """Schreier graphs carry generator labels, which `decompose_regular`
    tries first; the answer must still agree with brute force, at the
    graph's own degree and one below it."""
    for d, k, n, seed in [(1, 2, 2, 1), (1, 2, 4, 2), (1, 3, 3, 3), (2, 2, 2, 4), (1, 4, 2, 5)]:
        g = schreier_multigraph(seeded_rep(d, k, n, seed))
        assert all(label is not None for _, _, label in g.edges)
        degree = (d + 1) * (k - 1)
        for target in (degree, degree - 1):
            assert_decomposition_exact(g, target)


@GRAPH_PROPERTY
@given(g=tiny_multigraphs(max_n=6, max_edges=12))
def test_format_parse_round_trip_keeps_edges(g):
    back = parse_multigraph(format_multigraph(g))
    assert back.n == g.n
    assert sorted((u, v) for u, v, _ in back.edges) == sorted((u, v) for u, v, _ in g.edges)


def brute_connected(g: Multigraph) -> bool:
    """Every vertex is reached from vertex 0 by a BFS over the edge list."""
    seen, frontier = {0}, [0]
    while frontier:
        w = frontier.pop()
        for u, v, _ in g.edges:
            for a, b in ((u, v), (v, u)):
                if a == w and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return len(seen) == g.n


def brute_bipartite(g: Multigraph) -> bool:
    """Some 2-coloring of the vertices gives every edge two colors (a loop
    never has two)."""
    return any(
        all(coloring[u] != coloring[v] for u, v, _ in g.edges)
        for coloring in product((0, 1), repeat=g.n)
    )


@GRAPH_PROPERTY
@given(g=tiny_multigraphs(max_n=6, max_edges=9))
def test_connected_and_bipartite_match_brute_force(g):
    assert g.is_connected() == brute_connected(g)
    assert g.is_bipartite() == brute_bipartite(g)


def test_connected_and_bipartite_examples():
    empty, loop = Multigraph(0), Multigraph(2)
    assert empty.is_connected() and empty.is_bipartite()
    loop.add_edge(0, 1)
    assert loop.is_connected() and loop.is_bipartite()
    loop.add_edge(1, 1)
    assert loop.is_connected() and not loop.is_bipartite()
    assert not Multigraph(2).is_connected() and Multigraph(2).is_bipartite()
    for n in range(3, 9):
        cycle = Multigraph(n)
        for u in range(n):
            cycle.add_edge(u, (u + 1) % n)
        assert cycle.is_connected() and cycle.is_bipartite() == (n % 2 == 0)
