from __future__ import annotations

import pytest

from conftest import random_word, seeded_rep
from multiforge.gallery import m_subgroup_rep
from multiforge.permrep import evaluate
from multiforge.words import (
    EMPTY_WORD,
    Params,
    Word,
    enumerate_reduced_words,
    format_word,
    generator,
    multiply,
    parse_word,
    reduce_word,
    theta,
    word_length,
)
from rigidity_oracles import is_reduced


# -- oracle: closure under the elementary moves -------------------------------

def rewrite_closure_reduced(w: Word, p: Params, cap: int = 200_000) -> Word:
    """Reduce by brute force: saturate the word under single elementary moves
    (exponent mod k, merge adjacent equal indices, drop zero powers) and
    return the unique reduced member of the closure."""
    k = p.k

    def moves(letters):
        for t, (i, l) in enumerate(letters):
            if not 0 <= l <= k - 1:
                yield letters[:t] + ((i, l % k),) + letters[t + 1 :]
            if l % k == 0:
                yield letters[:t] + letters[t + 1 :]
            if t + 1 < len(letters) and letters[t + 1][0] == i:
                yield letters[:t] + ((i, l + letters[t + 1][1]),) + letters[t + 2 :]

    seen = {w.letters}
    frontier = [w.letters]
    while frontier:
        nxt = []
        for letters in frontier:
            for out in moves(letters):
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
                    if len(seen) > cap:
                        raise RuntimeError("closure blew up")
        frontier = nxt
    reduced = [ls for ls in seen if is_reduced(Word(ls), p)]
    assert len(reduced) == 1, reduced
    return Word(reduced[0])


def test_reduce_relation_power():
    p = Params(1, 3)
    w = Word(((0, 2), (0, 1)))
    assert reduce_word(w, p) == EMPTY_WORD


def test_reduce_mixed_moves():
    p = Params(1, 3)
    w = parse_word("a1^1 a0^3 a0^-1")
    assert format_word(reduce_word(w, p)) == "a1^1 a0^2"


def test_reduce_matches_rewrite_closure_example():
    p = Params(2, 2)
    w = parse_word("a0^1 a1^1 a1^1 a2^1")
    oracle = rewrite_closure_reduced(w, p)
    assert format_word(oracle) == "a0^1 a2^1"
    assert reduce_word(w, p) == oracle


def test_reduce_matches_rewrite_closure_random(rng):
    for _ in range(60):
        p = Params(rng.choice([1, 2]), rng.choice([2, 3]))
        w = random_word(p, rng, max_len=4)
        assert reduce_word(w, p) == rewrite_closure_reduced(w, p)


def test_reduce_idempotent_and_confluent(rng):
    p = Params(2, 3)
    for _ in range(200):
        w = random_word(p, rng)
        r = reduce_word(w, p)
        assert is_reduced(r, p)
        assert reduce_word(r, p) == r


def test_reduce_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        reduce_word(Word(((5, 1),)), Params(2, 3))


def test_multiply_identity_and_involution():
    p = Params(1, 2)
    w = parse_word("a0^1 a1^1")
    assert multiply(EMPTY_WORD, w, p) == reduce_word(w, p)
    assert multiply(generator(0), generator(0), p) == EMPTY_WORD


def test_multiply_example_against_action_oracle():
    p = Params(1, 3)
    u = parse_word("a1^2 a0^1")
    v = parse_word("a0^2")
    prod = multiply(u, v, p)
    assert format_word(prod) == "a1^2"
    rep = m_subgroup_rep(p)
    for point in range(rep.n):
        assert evaluate(prod, point, rep) == evaluate(u, evaluate(v, point, rep), rep)


def test_multiply_associative(rng):
    p = Params(2, 3)
    for _ in range(100):
        u, v, w = (random_word(p, rng, 5) for _ in range(3))
        assert multiply(multiply(u, v, p), w, p) == multiply(u, multiply(v, w, p), p)


def test_theta_examples():
    p = Params(1, 3)
    assert theta(EMPTY_WORD, 0, p) == 0
    assert theta(parse_word("a1^1 a0^2 a0^2"), 0, p) == 1


def test_theta_invariant_under_reduce(rng):
    p = Params(2, 3)
    for _ in range(1000):
        w = random_word(p, rng)
        for i in range(p.d + 1):
            assert theta(w, i, p) == theta(reduce_word(w, p), i, p)


def test_theta_homomorphism(rng):
    p = Params(2, 4)
    for _ in range(200):
        u, v = random_word(p, rng), random_word(p, rng)
        for i in range(p.d + 1):
            assert theta(multiply(u, v, p), i, p) == (theta(u, i, p) + theta(v, i, p)) % p.k


def test_word_length():
    p = Params(1, 3)
    assert word_length(EMPTY_WORD, p) == 0
    assert word_length(parse_word("a1^1 a0^1"), p) == 2
    assert word_length(parse_word("a0^1 a0^2"), p) == 0


def test_reduced_word_counts():
    p = Params(1, 3)
    words = [w for w in enumerate_reduced_words(p, 3)]
    by_len = {}
    for w in words:
        by_len[len(w.letters)] = by_len.get(len(w.letters), 0) + 1
    assert by_len == {0: 1, 1: 4, 2: 8, 3: 16}


def test_reduced_words_distinct_as_group_elements():
    """Orbit-separation oracle: reduced words of length <= 3 act pairwise
    differently on a family of transitive actions, so they are 29 distinct
    group elements."""
    p = Params(1, 3)
    words = list(enumerate_reduced_words(p, 3))
    reps = [m_subgroup_rep(p)] + [seeded_rep(1, 3, 9, seed) for seed in (2, 5, 8)]
    signatures = set()
    for w in words:
        sig = tuple(
            tuple(evaluate(w, point, rep) for point in range(rep.n)) for rep in reps
        )
        signatures.add(sig)
    assert len(signatures) == len(words) == 29


def test_word_text_round_trip(rng):
    p = Params(3, 4)
    assert parse_word("e") == EMPTY_WORD
    assert format_word(EMPTY_WORD) == "e"
    for _ in range(50):
        w = reduce_word(random_word(p, rng), p)
        assert parse_word(format_word(w)) == w
    with pytest.raises(ValueError):
        parse_word("b0^1")
