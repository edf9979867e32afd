"""Byte-identity gate for the constructions.

Each case serializes one fixture complex (or the `analyze` report of one)
and compares its SHA-256 digest with the digest of the same text produced
before the four constructions were rewritten as adapters over one
class-assembly routine.  A mismatch means the JSON changed: cell order,
indices, faces, ordering cycles, root or boundary.  The seeded cases and
`lcc-merge-fixture-1` draw their reps from the sampler, so their digests
were re-recorded when the sampler's random stream changed.  The twelve
JSON digests were re-recorded once more when complex files became the
mcomplex/2 columns: each new text is what the new `to_json` writes for
the complex read back from the old mcomplex/1 text, so the complexes
themselves did not change.
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
    "ball-2-3-r3": "20f096b2fe6e897f9e7e5d1c3319b5b1930d1abaf1c7f6851083a3e9bf8abf1e",
    "coset-ball-2-3-r3": "af7f9326c9576e9adabdedd38367ddeeb0f7fc411aa1ed5ef23afcbd7f7d01bc",
    "coxeter-B2": "d64ebe577d4d7c497f13e095d2ee50fe0bb2f94020ddec665b5fb298f1d74438",
    "coxeter-S3": "d7dff7b328dbf920caa103954700fa141d3b4ecf6a51171643df367406f06819",
    "flag-3-2-ordered": "8d788f12112891abbf51bd2b0a37ff91c4e85ee9dac052c2b8bfc3c7c81c895a",
    # the cover of a merged quotient is the unmerged quotient: this is the
    # digest of to_json(_merge_fixture(1)[0]), the quotient before merging
    "lcc-merge-fixture-1": "33279c0932cc4bb29646345db72b5c5b66d8b883eb6855b61fb3eddddadc3144",
    "quotient-m23": "22b4808776b3ab3adb60e7072344bc9943e1d791b1296b38bd7edb7addbcca59",
    "quotient-m32": "058cc45dce859d214b5a73dab1ec29305d94c0e3273bff03242b4b2d9105363e",
    "quotient-seeded-1-3-12": "8fee3cced64d8507ad8bd0a8eb4f9121c245931256c9562f0d283921df95f3fc",
    "quotient-seeded-2-3-15": "e4195e076482d3f06ec4e892870aa6a8f95de1bba0f8924c920e52b1a4b6f528",
    "quotient-seeded-3-2-10": "1083a3e13697ef0353bac630d65c4e3fc348e6b4e3f419fefa33d433c25df4b7",
    "wedge": "c78a333f3cb17aab32464f1ed50e5f5d20078b0ac26dab47474aa0a8e0b1424e",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_bytes_unchanged(name):
    text = CASES[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
