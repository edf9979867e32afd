from __future__ import annotations

import random

import pytest

from multiforge.complexes import MComplex, from_simplicial
from multiforge.permrep import PermRep, random_rep_retry
from multiforge.words import Params, Word


def seeded_rep(d: int, k: int, n: int, seed: int) -> PermRep:
    rep, _ = random_rep_retry(Params(d, k), n, seed=seed)
    return rep


def single_simplex(params: Params) -> MComplex:
    """One top cell on the vertices 0..d, one per color."""
    d = params.d
    return from_simplicial(params, list(range(d + 1)), [tuple(range(d + 1))])


def random_word(p: Params, rng: random.Random, max_len: int = 8) -> Word:
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.randrange(p.d + 1), rng.randint(-2 * p.k, 2 * p.k)))
    return Word(tuple(letters))


@pytest.fixture
def rng():
    return random.Random(20240811)
