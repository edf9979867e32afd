"""Words in the free product of d+1 cyclic groups of order k.

A group element is a formal product ``a<j_m>^<l_m> ... a<j_1>^<l_1>`` of
generator powers, applied right-to-left.  Every element has a unique reduced
form: all exponents in 1..k-1 and adjacent generator indices distinct.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

Letter = tuple[int, int]  # (generator index, exponent)


class _ParamFields(NamedTuple):
    d: int
    k: int


class Params(_ParamFields):
    """Ambient parameters: dimension d >= 1 and cyclic order k >= 2."""

    __slots__ = ()

    def __new__(cls, d: int, k: int) -> Params:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        return super().__new__(cls, d, k)

    @property
    def colors(self) -> range:
        return range(self.d + 1)


class Word:
    """A formal product of generator powers.

    Letters are stored left-to-right as written, so ``letters[-1]`` is the
    factor applied first.  Exponents may be arbitrary integers; `reduce_word`
    normalizes them into 1..k-1.  Read-only, and equal only to a `Word`.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        self._letters = letters

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self._letters

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Word:
            return NotImplemented
        return self._letters == other._letters

    def __hash__(self) -> int:
        return hash((self._letters,))

    def __repr__(self) -> str:
        return f"Word(letters={self._letters!r})"

    def __len__(self) -> int:
        return len(self._letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self._letters + other._letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -l) for i, l in reversed(self._letters)))


EMPTY_WORD = Word()


def generator(i: int, l: int = 1) -> Word:
    return Word(((i, l),))


def check_indices(w: Word, p: Params) -> None:
    for i, _ in w.letters:
        if not 0 <= i <= p.d:
            raise ValueError(f"generator index {i} out of range 0..{p.d}")


def reduce_word(w: Word, p: Params) -> Word:
    """Unique reduced form of `w` in the free product.

    Single left-to-right stack pass: adjacent equal indices merge, exponents
    are taken mod k, zero powers drop.  Idempotent and confluent.
    """
    check_indices(w, p)
    stack: list[Letter] = []
    for i, l in w.letters:
        if stack and stack[-1][0] == i:
            l += stack.pop()[1]
        l %= p.k
        if l:
            stack.append((i, l))
        # a zero power just drops; the stack never holds two adjacent
        # letters with equal index, so no further merging can be exposed
    return Word(tuple(stack))


def multiply(u: Word, v: Word, p: Params) -> Word:
    """Reduced form of the product u*v (v applied first)."""
    return reduce_word(u * v, p)


def theta(w: Word, i: int, p: Params) -> int:
    """Exponent sum of generator i in `w`, mod k.  A homomorphism to Z/k."""
    if not 0 <= i <= p.d:
        raise ValueError(f"color index {i} out of range 0..{p.d}")
    return sum(l for j, l in w.letters if j == i) % p.k


def word_length(w: Word, p: Params) -> int:
    return len(reduce_word(w, p))


def enumerate_reduced_words(p: Params, max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len, shortest first, lexicographic
    in (index, exponent) within each length."""
    frontier = [EMPTY_WORD]
    yield EMPTY_WORD
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            first = w.letters[0][0] if w.letters else None
            for i in range(p.d + 1):
                if i == first:
                    continue
                for l in range(1, p.k):
                    w2 = Word(((i, l),) + w.letters)
                    nxt.append(w2)
                    yield w2
        frontier = nxt


def format_word(w: Word) -> str:
    """Text form ``a<i>^<l> ...``; the empty word prints as ``e``."""
    if not w.letters:
        return "e"
    return " ".join(f"a{i}^{l}" for i, l in w.letters)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in ("", "e"):
        return EMPTY_WORD
    letters = []
    for tok in text.split():
        head, caret, exp = tok.partition("^")
        try:
            if head[:1] != "a" or not caret:
                raise ValueError
            letters.append((int(head[1:]), int(exp)))
        except ValueError:
            raise ValueError(f"bad word token {tok!r}, expected a<i>^<l>") from None
    return Word(tuple(letters))
