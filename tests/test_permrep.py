from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, floor, perm, prod, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word, seeded_rep
from multiforge import permrep
from multiforge.gallery import m_subgroup_rep
from multiforge.permrep import (
    PermRep,
    allowed_cycle_lengths,
    count_order_dividing,
    evaluate,
    format_rep,
    intersect_reps,
    orbit_partitions,
    parse_permutation,
    parse_rep,
    partition,
    random_order_dividing,
    random_rep,
    require_valid,
    same_up_to_relabeling,
    validate,
)
from multiforge.words import EMPTY_WORD, Params, generator, multiply, parse_word, theta


PATH_REP = PermRep(Params(1, 2), 3, ((1, 0, 2), (0, 2, 1)), 0)  # (1 2), (2 3)


def test_validate_examples():
    p = Params(1, 2)
    assert validate(PermRep(p, 1, ((0,), (0,)), 0)).ok
    assert validate(PATH_REP).ok
    two_orbits = PermRep(p, 4, ((1, 0, 2, 3), (0, 1, 3, 2)), 0)
    diag = validate(two_orbits)
    assert not diag.ok and not diag.transitive


def test_validate_rejects_non_permutation_and_bad_order():
    p = Params(1, 2)
    assert not validate(PermRep(p, 3, ((0, 0, 1), (0, 1, 2)), 0)).ok
    three_cycle = PermRep(p, 3, ((1, 2, 0), (0, 1, 2)), 0)
    diag = validate(three_cycle)
    assert not diag.ok and not diag.order_divides_k[0]


P12, P23 = Params(1, 2), Params(2, 3)
INVALID_REPS = {  # case -> (rep, its messages in order)
    "non-permutation": (PermRep(P12, 3, ((0, 0, 1), (0, 1, 2)), 0),
                        ["generator 0 is not a permutation of [3]"]),
    "wrong-length": (PermRep(P12, 3, ((1, 0), (0, 1, 2)), 0),
                     ["generator 0 is not a permutation of [3]"]),
    "order": (PermRep(P12, 3, ((1, 2, 0), (0, 1, 2)), 0),
              ["generator 0 has cycle lengths [3] not dividing k=2"]),
    "intransitive": (PermRep(P12, 4, ((1, 0, 2, 3), (0, 1, 3, 2)), 0),
                     ["action is not transitive"]),
    "too-few-generators": (PermRep(P23, 3, ((1, 2, 0), (0, 1, 2)), 0),
                           ["expected 3 permutations, got 2"]),
    "too-many-generators": (PermRep(P12, 3, ((1, 0, 2), (0, 2, 1), (2, 1, 0)), 0),
                            ["expected 2 permutations, got 3"]),
    "root": (PermRep(P12, 2, ((1, 0), (0, 1)), 2), ["root 2 out of range"]),
    "order-and-intransitive": (PermRep(P12, 4, ((1, 2, 0, 3), (0, 1, 2, 3)), 0),
                               ["generator 0 has cycle lengths [3] not dividing k=2",
                                "action is not transitive"]),
    "non-permutation-order-root": (PermRep(P12, 4, ((0, 0, 1, 2), (1, 2, 0, 3)), -1),
                                   ["generator 0 is not a permutation of [4]",
                                    "generator 1 has cycle lengths [3] not dividing k=2",
                                    "root -1 out of range"]),
}


@pytest.mark.parametrize("case", sorted(INVALID_REPS))
def test_validate_messages_of_invalid_reps(case):
    """`validate` gives one message per fault, in a fixed order, and is `ok`
    only without one: a rep with a wrong generator count is not `ok`, since
    `build_quotient` would index a generator that is not there."""
    rep, messages = INVALID_REPS[case]
    diag = validate(rep)
    assert (diag.ok, diag.messages) == (False, messages)
    with pytest.raises(ValueError, match="^invalid rep: " + re.escape("; ".join(messages)) + "$"):
        require_valid(rep)


@st.composite
def any_actions(draw) -> PermRep:
    """d+1 arbitrary permutations of n points: often intransitive, often
    with cycle lengths that do not divide k."""
    d, k, n = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 9))
    betas = tuple(tuple(draw(st.permutations(range(n)))) for _ in range(d + 1))
    return PermRep(Params(d, k), n, betas, draw(st.integers(0, n - 1)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rep=any_actions())
def test_orbit_partitions_match_one_union_find_per_color_set(rep):
    """Each color set's refined partition, the empty set included, is the
    all-points partition of the pairs p ~ beta_i(p) for i outside it."""
    colors = range(rep.params.d + 1)
    parts = permrep.orbit_partitions(rep)
    assert set(parts) == {J for size in range(len(colors) + 1)
                          for J in itertools.combinations(colors, size)}
    for J, part in parts.items():
        pairs = [(p, rep.betas[i][p]) for i in colors if i not in J for p in range(rep.n)]
        oracle = partition(rep.n, pairs)
        assert (part.class_ids, part.reps) == (oracle.class_ids, oracle.reps), J
    diag = validate(rep)
    assert diag.partitions == parts and diag.transitive == (parts[()].count == 1)


def test_evaluate_examples():
    p = Params(1, 2)
    for point in range(3):
        assert evaluate(EMPTY_WORD, point, PATH_REP) == point
    rep = m_subgroup_rep(p)  # points are (Z/2)^2, coordinates (c0, c1)
    image = evaluate(parse_word("a1^1 a0^1"), 0, rep)
    assert image == 3  # (0,0) -> (1,1) under the exponent-sum action
    with pytest.raises(ValueError):
        evaluate(EMPTY_WORD, 7, PATH_REP)


def test_evaluate_generator_powers(rng):
    rep = seeded_rep(2, 3, 9, 4)
    for i in range(3):
        for l in range(1, 3):
            w = generator(i, l)
            for point in range(rep.n):
                expect = point
                for _ in range(l):
                    expect = rep.betas[i][expect]
                assert evaluate(w, point, rep) == expect


def test_evaluate_respects_multiply(rng):
    rep = seeded_rep(2, 3, 12, 9)
    p = rep.params
    for _ in range(200):
        u, v = random_word(p, rng), random_word(p, rng)
        point = rng.randrange(rep.n)
        assert evaluate(multiply(u, v, p), point, rep) == evaluate(
            u, evaluate(v, point, rep), rep
        )


def test_orbits_full_color_set_is_discrete():
    rep = seeded_rep(2, 2, 8, 1)
    part = orbit_partitions(rep)[(0, 1, 2)]
    assert part.count == rep.n
    assert part.reps == list(range(rep.n))


def test_orbits_m22_single_color():
    rep = m_subgroup_rep(Params(2, 2))  # points (Z/2)^3
    part = orbit_partitions(rep)[(0,)]
    assert part.count == 2
    assert sorted(len(m) for m in part.members()) == [4, 4]
    # orbit id tracks the first coordinate
    for point in range(8):
        assert part.class_ids[point] == point // 4


def test_orbits_trivial_rep():
    rep = PermRep(Params(2, 2), 1, ((0,), (0,), (0,)), 0)
    parts = orbit_partitions(rep)
    for size in (1, 2, 3):
        for colors in itertools.combinations(range(3), size):
            assert parts[colors].count == 1


def test_orbit_refinement(rng):
    rep = seeded_rep(3, 2, 12, 2)
    parts = orbit_partitions(rep)
    for _ in range(30):
        small = frozenset(
            rng.sample(range(4), rng.randint(1, 3))
        )
        big = small | {rng.randrange(4)}
        coarse, fine = parts[tuple(sorted(small))], parts[tuple(sorted(big))]
        for orbit in fine.members():
            assert len({coarse.class_ids[p] for p in orbit}) == 1


@st.composite
def pair_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    point = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(point, point), max_size=20))


def bfs_labels(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Class of each point, numbered by a BFS over the pairs started at each
    unlabeled point in increasing order."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] < 0:
            label[start], queue = count, [start]
            for p in queue:
                for q in nbrs[p]:
                    if label[q] < 0:
                        label[q] = count
                        queue.append(q)
            count += 1
    return label


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=pair_lists())
def test_partition_matches_bfs_labels(case):
    n, pairs = case
    part = partition(n, pairs)
    assert part.class_ids == bfs_labels(n, pairs)
    assert part.reps == [part.class_ids.index(c) for c in range(part.count)]
    members = [[p for p in range(n) if part.class_ids[p] == c] for c in range(part.count)]
    assert part.members() == members


def test_stabilizer_examples(rng):
    assert evaluate(EMPTY_WORD, PATH_REP.root, PATH_REP) == PATH_REP.root
    assert evaluate(generator(0), PATH_REP.root, PATH_REP) != PATH_REP.root
    rep = m_subgroup_rep(Params(2, 3))
    p = rep.params
    for _ in range(500):
        w = random_word(p, rng)
        expected = all(theta(w, i, p) == 0 for i in range(3))
        assert (evaluate(w, rep.root, rep) == rep.root) == expected


def test_stabilizer_closed_under_group_ops(rng):
    rep = seeded_rep(2, 2, 8, 6)
    p = rep.params
    members = []
    for _ in range(600):
        w = random_word(p, rng)
        if evaluate(w, rep.root, rep) == rep.root:
            members.append(w)
    assert len(members) >= 2
    for u, v in zip(members, members[1:]):
        assert evaluate(multiply(u, v, p), rep.root, rep) == rep.root
        assert evaluate(u.inverse(), rep.root, rep) == rep.root


# -- sampler -------------------------------------------------------------------

def brute_order_dividing(n: int, k: int) -> set[tuple[int, ...]]:
    out = set()
    for perm in itertools.permutations(range(n)):
        ok = True
        for start in range(n):
            length, q = 1, perm[start]
            while q != start:
                q = perm[q]
                length += 1
            if k % length:
                ok = False
                break
        if ok:
            out.add(perm)
    return out


def test_count_matches_brute_force():
    for n in range(1, 8):
        for k in (1, 2, 3, 4, 6):
            assert count_order_dividing(n, k) == len(brute_order_dividing(n, k)), (n, k)


def test_sampler_support_n4_k2():
    target = brute_order_dividing(4, 2)
    assert len(target) == 10
    seen = set()
    rng = random.Random(0)
    for _ in range(10_000):
        seen.add(random_order_dividing(4, 2, rng))
        if seen == target:
            break
    assert seen == target


def test_sampler_k1_forces_identity():
    rng = random.Random(3)
    assert random_order_dividing(5, 1, rng) == (0, 1, 2, 3, 4)
    assert count_order_dividing(5, 1) == 1


def test_sampler_uniformity_smoke():
    # chi-square style sanity: each of the 10 supports roughly 1/10 of draws
    rng = random.Random(11)
    counts: dict[tuple, int] = {}
    draws = 20_000
    for _ in range(draws):
        perm = random_order_dividing(4, 2, rng)
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c - draws / 10) < draws / 10 * 0.15


def test_random_rep_determinism_and_validity():
    p = Params(2, 3)
    a = random_rep(p, 30, seed=7)
    b = random_rep(p, 30, seed=7)
    assert a == b and a is not None
    assert validate(a).ok
    hits = sum(1 for s in range(100) if random_rep(p, 30, seed=s) is not None)
    assert hits >= 90


def test_random_rep_order_always_holds():
    p = Params(1, 2)  # drawn transitive directly, never None
    for seed in range(40):
        diag = validate(random_rep(p, 6, seed=seed))
        assert diag.ok and all(diag.order_divides_k)


def test_transitive_involution_pairs_are_uniform():
    """At (1, 2) and n = 4, `random_rep` draws only the 30 transitive pairs
    of involutions, found by brute force, and hits them evenly: Pearson's
    chi-square over the draws of seeds 0..29,999 stays below 58.30, the
    0.999 quantile of 29 degrees of freedom."""
    p, n, draws = Params(1, 2), 4, 30_000
    involutions = [q for q in itertools.permutations(range(n)) if all(q[q[i]] == i for i in q)]
    support = {pair for pair in itertools.product(involutions, repeat=2)
               if validate(PermRep(p, n, pair, 0)).ok}
    counts = Counter(random_rep(p, n, seed).betas for seed in range(draws))
    assert len(support) == factorial(n) + factorial(n - 1) and set(counts) == support
    expected = draws / len(support)
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 58.30


# -- intersections ----------------------------------------------------------------

def test_intersect_with_trivial_and_self():
    rep = seeded_rep(2, 2, 6, 12)
    trivial = PermRep(rep.params, 1, ((0,),) * 3, 0)
    meet, _ = intersect_reps(rep, trivial)
    assert same_up_to_relabeling(meet, rep)
    meet2, _ = intersect_reps(rep, rep)
    assert same_up_to_relabeling(meet2, rep)


def test_intersect_two_index_two_reps():
    p = Params(1, 2)
    r1 = PermRep(p, 2, ((1, 0), (0, 1)), 0)
    r2 = PermRep(p, 2, ((0, 1), (1, 0)), 0)
    meet, pairs = intersect_reps(r1, r2)
    assert meet.n == 4
    assert sorted(pairs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_intersect_projections_commute(rng):
    r1 = seeded_rep(2, 3, 6, 21)
    r2 = seeded_rep(2, 3, 8, 22)
    meet, pairs = intersect_reps(r1, r2)
    assert validate(meet).ok
    for i in range(3):
        for point, (p1, p2) in enumerate(pairs):
            image = meet.betas[i][point]
            assert pairs[image] == (r1.betas[i][p1], r2.betas[i][p2])


def test_intersect_refuses_an_invalid_rep():
    """Either input failing `validate` raises its `invalid rep` message."""
    good = PermRep(Params(1, 2), 1, ((0,), (0,)), 0)
    bad = PermRep(Params(1, 2), 3, ((1, 2, 0), (0, 1, 2)), 0)
    for r1, r2 in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(ValueError, match=r"^invalid rep: generator 0 has cycle lengths \[3\] "
                                             r"not dividing k=2$"):
            intersect_reps(r1, r2)


def test_intersect_requires_same_params():
    with pytest.raises(ValueError):
        intersect_reps(seeded_rep(1, 2, 4, 0), seeded_rep(2, 2, 4, 0))


# -- isomorphism and text ---------------------------------------------------------

def _relabeled(rep: PermRep, sigma: list[int]) -> PermRep:
    """The copy of `rep` whose point t is rep's point sigma[t]."""
    inv = [0] * rep.n
    for t, s in enumerate(sigma):
        inv[s] = t
    betas = tuple(tuple(inv[beta[sigma[t]]] for t in range(rep.n)) for beta in rep.betas)
    return PermRep(rep.params, rep.n, betas, inv[rep.root])


def test_canonical_relabel_fixes_root_and_is_invariant():
    rep = seeded_rep(2, 2, 8, 30)
    # relabeling the points arbitrarily (fixing nothing) yields an isomorphic rep
    rng = random.Random(5)
    sigma = list(range(rep.n))
    rng.shuffle(sigma)
    assert same_up_to_relabeling(rep, _relabeled(rep, sigma))


def _is_relabeling(sigma: tuple[int, ...], r1: PermRep, r2: PermRep) -> bool:
    """Whether the bijection sigma carries r1's root to r2's and commutes
    with every generator."""
    return sigma[r1.root] == r2.root and all(
        sigma[b1[x]] == b2[sigma[x]] for b1, b2 in zip(r1.betas, r2.betas) for x in range(r1.n)
    )


def test_same_up_to_relabeling_matches_brute_force():
    """On transitive reps of at most 5 points, each taken at every root and
    as a shuffled copy, `same_up_to_relabeling` holds exactly when one of
    the n! bijections is a root-fixing isomorphism."""
    rng = random.Random(3)
    reps = []
    for d, k in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for n in range(1, 6):
            for rep in filter(None, (random_rep(Params(d, k), n, seed) for seed in range(3))):
                for root in range(n):
                    sigma = list(range(n))
                    rng.shuffle(sigma)
                    reps += [rep._replace(root=root), _relabeled(rep._replace(root=root), sigma)]
    outcomes = Counter()
    for r1, r2 in itertools.product(reps, repeat=2):
        if r1.params == r2.params and r1.n == r2.n:
            expected = any(_is_relabeling(s, r1, r2) for s in itertools.permutations(range(r1.n)))
            assert same_up_to_relabeling(r1, r2) == expected, (r1, r2)
            outcomes[expected] += 1
    assert outcomes[True] > len(reps) and outcomes[False] > len(reps)


def test_rep_text_round_trip():
    rep = seeded_rep(2, 3, 9, 40)
    text = format_rep(rep)
    assert parse_rep(text) == rep
    assert text.splitlines()[0] == "2 3 9 1"


def test_parse_permutation_cycle_notation():
    """Cycle notation is parenthesized groups with only whitespace between
    them; anything else is refused with one message naming the text."""
    assert parse_permutation("(1 2)(3 4)", 5) == (1, 0, 3, 2, 4)
    assert parse_permutation("3 1 2", 3) == (2, 0, 1)
    with pytest.raises(ValueError):
        parse_permutation("1 1 2", 3)
    assert parse_permutation("()", 4) == (0, 1, 2, 3)
    assert parse_permutation("(1 2) (3 4)", 4) == parse_permutation("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_permutation("(1,2)(3)", 4) == (1, 0, 2, 3)
    for text in ["(1 2", "(1 2) 3 4", "(1 2)x(3)", "((1 2))"]:
        with pytest.raises(ValueError) as exc:
            parse_permutation(text, 4)
        assert str(exc.value) == f"cycle notation needs parenthesized groups, got {text!r}"


# -- exactness of the linear-time sampler ---------------------------------------

def _cycle_lengths(sigma: tuple[int, ...]) -> list[int]:
    """The length of each cycle of sigma, as the sizes of the classes
    that joining each point to its image makes."""
    return list(Counter(partition(len(sigma), enumerate(sigma)).class_ids).values())


def _cycle_type(sigma: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(_cycle_lengths(sigma)))


def _cycle_type_law(n: int, k: int) -> dict[tuple[int, ...], float]:
    """Exact probability of each cycle type of a uniform permutation of [n]
    with cycle lengths dividing k: n! / prod(l^c_l c_l!) / a[n]."""
    a_n = count_order_dividing(n, k)
    law = {}

    def types(rest: int, lengths: list[int]):
        if rest == 0:
            yield ()
            return
        if not lengths:
            return
        l, smaller = lengths[0], lengths[1:]
        for c in range(rest // l, -1, -1):
            for tail in types(rest - c * l, smaller):
                yield (l,) * c + tail

    for parts in types(n, sorted(allowed_cycle_lengths(k), reverse=True)):
        denom = 1
        for l in set(parts):
            c = parts.count(l)
            denom *= l**c * factorial(c)
        law[tuple(sorted(parts))] = factorial(n) // denom / a_n
    return law


def _chi2_999(df: int) -> float:
    """Upper 0.999 quantile of chi-square (Wilson-Hilferty)."""
    z = 3.0902
    return df * (1 - 2 / (9 * df) + z * sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize("n, k, seed", [(30, 3, 1), (45, 4, 2), (40, 6, 3), (60, 6, 4)])
def test_cycle_types_follow_exact_law(n, k, seed):
    draws = 10_000
    rng = random.Random(seed)
    counts = Counter(_cycle_type(random_order_dividing(n, k, rng)) for _ in range(draws))
    law = _cycle_type_law(n, k)
    assert set(counts) <= set(law)
    assert abs(sum(law.values()) - 1.0) < 1e-12
    # types expected fewer than 5 times are pooled into one bin
    bins, pooled_p, pooled_c = [], 0.0, 0
    for t, p in law.items():
        if p * draws >= 5:
            bins.append((p, counts[t]))
        else:
            pooled_p, pooled_c = pooled_p + p, pooled_c + counts[t]
    bins.append((pooled_p, pooled_c))
    chi2 = sum((c - p * draws) ** 2 / (p * draws) for p, c in bins)
    df = len(bins) - 1
    assert df >= 4
    assert chi2 < _chi2_999(df), (chi2, df)


def _expected_cycle_counts(n: int, k: int) -> dict[int, Decimal]:
    """E[c_l] = (1/l) prod_{i=n-l+1}^{n} q[i] for each l dividing k, with
    q[m] = m / sum over l | k, l <= m of prod_{i=m-l+1}^{m-1} q[i] (the
    recurrence of `_ratio_table`) evaluated in 40-digit decimals."""
    lengths = allowed_cycle_lengths(k)
    with localcontext() as ctx:
        ctx.prec = 40
        q = [Decimal(0)] * (n + 1)
        for m in range(1, n + 1):
            q[m] = m / sum(prod(q[m - l + 1 : m], start=Decimal(1)) for l in lengths if l <= m)
        return {l: prod(q[n - l + 1 :], start=Decimal(1)) / l for l in lengths}


def test_cycle_counts_at_1e5_points_match_their_exact_means():
    """Over 20 seeded draws of `_CycleLengthLaw(100000, 6)`, the mean number
    of l-cycles for each l | 6 lies within 4 standard errors of E[c_l]."""
    n, k, draws = 100_000, 6, 20
    law = permrep._CycleLengthLaw(n, k)
    counts = [Counter(_cycle_lengths(law.draw(random.Random(seed)))) for seed in range(draws)]
    for l, expected in _expected_cycle_counts(n, k).items():
        sample = [c[l] for c in counts]
        mean = sum(sample) / draws
        se = sqrt(sum((x - mean) ** 2 for x in sample) / (draws - 1) / draws)
        assert abs(mean - float(expected)) <= 4 * se, (l, mean, float(expected), se)


def test_forced_exact_path_gives_the_same_draws(monkeypatch):
    calls = []
    exact = permrep._exact_length

    def counted(*args):
        calls.append(args[0])
        return exact(*args)

    monkeypatch.setattr(permrep, "_exact_length", counted)
    cases = [(40, 3, 5), (40, 4, 6), (60, 6, 7)]
    default = [[random_order_dividing(n, k, rng) for _ in range(200)]
               for n, k, rng in ((n, k, random.Random(s)) for n, k, s in cases)]
    assert calls == []
    monkeypatch.setattr(permrep, "_MARGIN", 0.5)
    widened = [[random_order_dividing(n, k, rng) for _ in range(200)]
               for n, k, rng in ((n, k, random.Random(s)) for n, k, s in cases)]
    assert len(calls) > 1000
    assert widened == default
    # n = 2000: one law serves three draws, and each exact step builds its
    # terms a[m-k..m] from a[0], at any m from near 2000 down to the last
    # steps of a draw; the sparser margin spaces those steps far apart.
    def three_draws():
        laws = ((permrep._CycleLengthLaw(2000, k), random.Random(s)) for k, s in ((3, 8), (6, 9)))
        return [[law.draw(rng) for _ in range(3)] for law, rng in laws]

    monkeypatch.setattr(permrep, "_MARGIN", 2.0**-36)
    calls.clear()
    default = three_draws()
    assert calls == []
    for margin in (0.5, 0.01):
        monkeypatch.setattr(permrep, "_MARGIN", margin)
        assert three_draws() == default
        assert max(calls) > 1900 and len(calls) > (1000 if margin == 0.5 else 20), len(calls)
        calls.clear()


class _RecordingRandom(random.Random):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.words: list[int] = []

    def getrandbits(self, k: int) -> int:
        word = super().getrandbits(k)
        self.words.append(word)
        return word


@pytest.mark.parametrize("m, k", [(10, 3), (25, 4), (31, 6)])
def test_exact_step_refines_a_straddling_uniform(m, k):
    """A uniform whose 53 bits straddle the first boundary S_1 / a[m] needs
    more bits; the length chosen agrees with the exact comparison of the
    refined interval."""
    a = count_order_dividing(m, k)
    lengths = [l for l in allowed_cycle_lengths(k) if l <= m]
    first = Fraction(count_order_dividing(m - 1, k), a)  # the 1-cycle bucket
    j = floor(first * 2**53)
    assert j < first * 2**53 < j + 1
    rng = _RecordingRandom(m)
    l = permrep._exact_length(m, k, lengths, j / 2**53, rng)
    assert rng.words, "the 53-bit prefix alone cannot decide"
    x, e = j, 53
    for word in rng.words:
        x, e = (x << 32) | word, e + 32
    if l == 1:
        assert Fraction(x + 1, 2**e) <= first
    else:
        assert Fraction(x, 2**e) >= first and l == lengths[1]


def test_ratio_table_matches_exact_probabilities():
    worst = 0.0
    for k in (1, 2, 3, 4, 6):
        a = list(itertools.islice(permrep._order_dividing_counts(k), 2001))
        law = permrep._CycleLengthLaw(2000, k)
        for m in range(1, 2001):
            for l, p in law.probabilities(m):
                exact = perm(m - 1, l - 1) * a[m - l] / a[m]  # correctly rounded
                worst = max(worst, abs(p - exact))
    assert worst < permrep._MARGIN / 1000, worst


def test_retry_seeds_never_share_a_stream():
    pairs = [(seed, t) for seed in range(-300, 300) for t in range(64)]
    seeds = {permrep._try_seed(seed, t) for seed, t in pairs}
    assert len(seeds) == len(pairs) and min(seeds) >= 0
    assert permrep._try_seed(0, 1) != permrep._try_seed(10_000, 0)
    firsts = {random.Random(s).getrandbits(64) for s in seeds}
    assert len(firsts) == len(pairs)


def test_each_retry_calls_random_rep_with_its_own_seed(monkeypatch):
    seen = []
    draw = permrep.random_rep

    def failing_twice(p, n, seed):
        seen.append(seed)
        return None if len(seen) < 3 else draw(p, n, seed)

    monkeypatch.setattr(permrep, "random_rep", failing_twice)
    rep, tries = permrep.random_rep_retry(Params(2, 3), 12, seed=5)
    assert tries == 3
    assert seen == [permrep._try_seed(5, t) for t in range(3)]
    assert rep == draw(Params(2, 3), 12, seen[-1])


def test_random_rep_retry_is_linear_at_1e5_points():
    """One (2,3) draw at n = 1e5 in a fresh interpreter; the quadratic
    sampler it replaced needed 14 s and 6.7 GB here for its count table."""
    code = (
        "import resource, time\n"
        "from multiforge.permrep import random_rep_retry\n"
        "from multiforge.words import Params\n"
        "start = time.perf_counter()\n"
        "rep, tries = random_rep_retry(Params(2, 3), 100_000, seed=1)\n"
        "print(time.perf_counter() - start, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    seconds, rss_mib = (float(v) for v in out.split())
    assert rss_mib < 200, rss_mib
    assert seconds < 10, seconds
