"""Finite balls of the universal k-regular d-dimensional arboreal complex.

Two constructions of the radius-n ball around the root cell: the inductive
attachment procedure, and the coset picture where top cells are reduced
words of length <= n.  Both come with the word <-> cell dictionary and the
invariant ordering (cofaces cycled by ascending generator exponent).
"""

from __future__ import annotations

from itertools import combinations, compress, count
from typing import NamedTuple

from .complexes import MComplex, MId, complex_from_classes, from_simplicial
from .words import (
    EMPTY_WORD,
    Params,
    Word,
    enumerate_reduced_words,
    generator,
    multiply,
)


class Ball(NamedTuple):
    """A finite ball of the arboreal complex, with the reduced word of each
    top multicell in `cell_words`, in top order."""

    complex: MComplex
    radius: int
    cell_words: dict[MId, Word]


class PathExitsBall(ValueError):
    """The unique good path between the two cells leaves the ball."""


def build_ball(p: Params, n: int) -> Ball:
    """Inductive construction: start from one top cell and attach, at each
    step, k-1 new top cells along every degree-one codimension-one cell of
    the previous step, each with a fresh vertex of the missing color."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    d, k = p.d, p.k
    vertex_colors = list(range(d + 1))
    tops: list[tuple[int, ...]] = [tuple(range(d + 1))]  # vertex sets
    words: list[Word] = [EMPTY_WORD]
    frontier = [  # ((d-1) vertex set, creator top)
        (tuple(v for v in tops[0] if v != drop), 0) for drop in range(d + 1)
    ]
    for _ in range(n):
        new_frontier = []
        for facet, creator in frontier:
            missing = ({*range(d + 1)} - {vertex_colors[v] for v in facet}).pop()
            for l in range(1, k):
                u = len(vertex_colors)
                vertex_colors.append(missing)
                top = tuple(sorted(facet + (u,)))
                # reduced as it stands: the creator's first letter has the color
                # of its newest vertex, which the facet holds, so not `missing`
                words.append(Word(((missing, l),) + words[creator].letters))
                new_frontier += [(tuple(v for v in top if v != gone), len(tops)) for gone in facet]
                tops.append(top)
        frontier = new_frontier

    # tops[t] is x's top t, rooted at 0.  `from_simplicial` cycles the tops
    # around each (d-1)-cell in id order, and ids follow attachment: first
    # the top that created the cell, then the k-1 tops attached along it,
    # by exponent.  That is the invariant ordering.  A cell with fewer than
    # k tops was never attached along: it lies on the boundary.
    x = from_simplicial(p, vertex_colors, tops)
    x.boundary = frozenset((J, i) for J, cycles in x.ordering.items()
                           for i in compress(count(), map(k.__gt__, cycles.sizes())))
    return Ball(x, n, {(tuple(p.colors), t): w for t, w in enumerate(words)})


def ball_from_cosets(p: Params, n: int) -> Ball:
    """Coset construction: top cells are the reduced words of length <= n,
    shortest first, so the root is the empty word; a cell of color set J is
    the class of words agreeing after the letters outside J are stripped
    from the left.  Generator i moves word w to the reduced word i·w, and a
    step out of the ball marks a boundary cell.

    Reads only the letters of the words that `enumerate_reduced_words`
    builds, already reduced.  i·w changes w's first letter: a new letter
    (i, 1), a raised exponent, or none when the exponent reaches k.  A word
    whose first letter lies outside J is in the class of the word without
    that letter, which comes earlier; any other word opens a new class.
    So the classes are numbered by first appearance, as `class_columns`
    numbers them."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    top_words = list(enumerate_reduced_words(p, n))
    index = {w.letters: t for t, w in enumerate(top_words)}

    def times(i: int, letters: tuple) -> tuple:
        if not letters or letters[0][0] != i:
            return ((i, 1),) + letters
        l = letters[0][1] + 1
        return ((i, l),) + letters[1:] if l < p.k else letters[1:]

    firsts = [w.letters[0][0] for w in top_words[1:]]
    shorter = [index[w.letters[1:]] for w in top_words[1:]]
    classes = {}
    for J in (J for size in range(1, p.d + 1) for J in combinations(p.colors, size)):
        column, fresh = [0], count(1)
        for i, t in zip(firsts, shorter):
            column.append(next(fresh) if i in J else column[t])
        classes[J] = column
    steps = [[index.get(times(i, w.letters)) for w in top_words] for i in p.colors]
    x = complex_from_classes(p, classes, 0, steps)
    return Ball(x, n, {(tuple(p.colors), t): w for t, w in enumerate(top_words)})


def unique_non_backtracking(b: Ball, t1: MId, t2: MId) -> list[MId]:
    """The unique good path of top cells from t1 to t2, as long as it stays
    inside the ball; raises PathExitsBall otherwise.  Consecutive cells share
    a codimension-one cell, and the generator steps spell the reduced word
    taking t1 to t2."""
    p = b.complex.params
    w1, w2 = b.cell_words[t1], b.cell_words[t2]
    u = multiply(w2, w1.inverse(), p)
    by_letters = {w.letters: mid for mid, w in b.cell_words.items()}
    path = [t1]
    acc = w1
    for i, l in reversed(u.letters):
        acc = multiply(generator(i, l), acc, p)
        if acc.letters not in by_letters:
            raise PathExitsBall(
                f"good path needs the cell of word {acc.letters}, outside radius {b.radius}"
            )
        path.append(by_letters[acc.letters])
    return path
