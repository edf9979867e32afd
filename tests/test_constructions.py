"""Byte-identity gate for the constructions.

Each case serializes one fixture complex (or the `analyze` report of one)
and compares its SHA-256 digest with the digest of the same text produced
before the four constructions were rewritten as adapters over one
class-assembly routine.  A mismatch means the JSON changed: cell order,
indices, faces, ordering cycles, root or boundary.  The seeded cases and
`lcc-merge-fixture-1` draw their reps from the sampler, so their digests
were re-recorded when the sampler's random stream changed.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import seeded_rep
from multiforge.acceptance import _merge_fixture
from multiforge.complexes import from_simplicial, to_json
from multiforge.gallery import coxeter_complex, flag_complex, m_subgroup_rep
from multiforge.lcc import link_connected_cover
from multiforge.quotient import analyze, build_quotient
from multiforge.universal import ball_from_cosets, build_ball
from multiforge.words import Params, format_word


def _ball_text(ball) -> str:
    words = "".join(
        f"{mid} {format_word(w)}\n" for mid, w in sorted(ball.cell_words.items())
    )
    return to_json(ball.complex) + words


CASES = {
    "quotient-m23": lambda: to_json(build_quotient(m_subgroup_rep(Params(2, 3))).complex),
    "quotient-m32": lambda: to_json(build_quotient(m_subgroup_rep(Params(3, 2))).complex),
    "quotient-seeded-2-3-15": lambda: to_json(build_quotient(seeded_rep(2, 3, 15, 17)).complex),
    "quotient-seeded-3-2-10": lambda: to_json(build_quotient(seeded_rep(3, 2, 10, 29)).complex),
    "quotient-seeded-1-3-12": lambda: to_json(build_quotient(seeded_rep(1, 3, 12, 1)).complex),
    "ball-2-3-r3": lambda: _ball_text(build_ball(Params(2, 3), 3)),
    "coset-ball-2-3-r3": lambda: _ball_text(ball_from_cosets(Params(2, 3), 3)),
    "coxeter-S3": lambda: to_json(coxeter_complex([(1, 0, 2), (0, 2, 1)])[0]),
    "coxeter-B2": lambda: to_json(coxeter_complex([(1, 0, 3, 2), (0, 2, 1, 3)])[0]),
    "flag-3-2-ordered": lambda: to_json(flag_complex(3, 2, ordered=True)),
    "wedge": lambda: to_json(
        from_simplicial(Params(2, 2), [0, 1, 2, 1, 2], [(0, 1, 2), (0, 3, 4)])
    ),
    "lcc-merge-fixture-1": lambda: to_json(link_connected_cover(_merge_fixture(1)[1])[0]),
    "analyze-seeded-2-3-15": lambda: analyze(build_quotient(seeded_rep(2, 3, 15, 17)).complex),
}

DIGESTS = {
    "analyze-seeded-2-3-15": "8d060e52e5ffec691259cc5cdb994373575fbe80aa5640bbac6c5cddf8424bea",
    "ball-2-3-r3": "69e72d18a804f4154fcd1af1b6d5e1b0446b20dcc887ee76e218f5b58c8be657",
    "coset-ball-2-3-r3": "f41fdf779db9048850d647be593f1a99b684dc601f29130a3f1b78ec886b5c72",
    "coxeter-B2": "47a2b264676216199551105b8d79d152e989813340cb747d2c56a2fcc4105e4f",
    "coxeter-S3": "ffa25644dfa8e9d64eff5d6d71714fcf8a87a91ccd5c77cd404e5b683c86e0bf",
    "flag-3-2-ordered": "3c5d2e7dc98aab749aad22a577c8c12271095a92f57c4772f78c19f18365b81b",
    # the cover of a merged quotient is the unmerged quotient: this is the
    # digest of to_json(_merge_fixture(1)[0]), the quotient before merging
    "lcc-merge-fixture-1": "e37d69f51af25ba0f4bf0631ebb7bdc4356c9669181a95d92800a85cf0bca4e0",
    "quotient-m23": "24f5e65475bdb9ad7eda2d4e645ca895c14e017ff233504e67501343f752f8db",
    "quotient-m32": "a23b701f3cec535cdb4a1e673e38512ed505154dbedf5912ae3af57ffbae24f8",
    "quotient-seeded-1-3-12": "69dd4e3cff82c5b33154cc7f5148072555172ec7934a1f9b52b7db1ba8992d0b",
    "quotient-seeded-2-3-15": "8bd0f889da6abb061e5d13f517066fe7a53e801861a5ddf20bb6fbf9cdb7bd3c",
    "quotient-seeded-3-2-10": "b7e2e4d971817cbd46640e57a787e90a75f8c4b463c87858868467f74270f5c2",
    "wedge": "c980556c871a80a5720f094cb1ba8ef33d8fbb6bb99decfeffdb64e753852981",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_bytes_unchanged(name):
    text = CASES[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
