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
import json

import pytest

from conftest import seeded_rep
from multiforge.acceptance import _merge_fixture
from multiforge.complexes import from_simplicial, link_with_map, merge_vertices, to_json
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


# -- links and vertex merges ----------------------------------------------------
#
# Each fixture contributes two digests: every link of a multicell of
# dimension <= d-2 (in `multicells()` order, each with its map back to the
# complex), and the merges of the first and last vertex of each color.  The
# texts were recorded before links and merges became class complexes of the
# top cells, and must not change, with one intended exception: a merge of an
# unordered complex stays unordered and writes `"ordering":null` where it used
# to write one record per color set with every cycle null.


def _links_text(x) -> str:
    out = []
    for cell in x.multicells():
        if cell.dim <= x.d - 2:
            lk, back = link_with_map(x, cell.mid)
            out.append(to_json(lk) + json.dumps(sorted(back.items())) + "\n")
    return "".join(out)


def _merges_text(x) -> str:
    out = []
    for c in x.params.colors:
        vs = [v for v, col in enumerate(x.vertex_colors) if col == c]
        if len(vs) >= 2:
            out.append(to_json(merge_vertices(x, vs[0], vs[-1])))
    return "".join(out)


def _quotient(rep):
    return lambda: build_quotient(rep()).complex


LINK_MERGE_FIXTURES = {
    "quotient-seeded-2-3-15": _quotient(lambda: seeded_rep(2, 3, 15, 17)),
    "quotient-seeded-3-2-10": _quotient(lambda: seeded_rep(3, 2, 10, 29)),
    "quotient-seeded-2-2-8": _quotient(lambda: seeded_rep(2, 2, 8, 300)),
    "quotient-seeded-2-4-12": _quotient(lambda: seeded_rep(2, 4, 12, 5)),
    "quotient-seeded-3-3-12": _quotient(lambda: seeded_rep(3, 3, 12, 2)),
    "quotient-m23": _quotient(lambda: m_subgroup_rep(Params(2, 3))),
    "quotient-m32": _quotient(lambda: m_subgroup_rep(Params(3, 2))),
    "ball-2-3-r3": lambda: build_ball(Params(2, 3), 3).complex,
    "coset-ball-2-3-r3": lambda: ball_from_cosets(Params(2, 3), 3).complex,
    "ball-3-2-r2": lambda: build_ball(Params(3, 2), 2).complex,
    "coxeter-S4": lambda: coxeter_complex([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)])[0],
    "flag-4-2-ordered": lambda: flag_complex(4, 2, ordered=True),
    "flag-4-2": lambda: flag_complex(4, 2),
    "wedge": lambda: from_simplicial(Params(2, 2), [0, 1, 2, 1, 2], [(0, 1, 2), (0, 3, 4)]),
}

LINK_MERGE_DIGESTS = {
    "links-ball-2-3-r3": "607bfb4f3bfe101e5bdeab4448b32a8f38ff8ee8901593bc816bbbe0e6753e80",
    "links-ball-3-2-r2": "4ea60100af76cf52f2dcb61b0554c5fbbec7653dcc22bba50bb2838047608fda",
    "links-coset-ball-2-3-r3": "187a9e58f25c7cdadc06451cd168c1d32671c8dea026f468d1565e746e6f8bfc",
    "links-coxeter-S4": "6d63536a6a72be9b60f2fab3e1046fc917057a0aff02c1cbe017f526101083e5",
    "links-flag-4-2": "bc87bdf44dd47899e408eba7d6581bc4ecb236dc0009cd5fb5e152fec661f0b9",
    "links-flag-4-2-ordered": "579197af89f5ad827a80deb96c9387c151c3fbb565ef8d9818047689e5505c79",
    "links-quotient-m23": "18120aa579c89a29f96fc750cdbbd89c702857d6f30c48a18c112abc52d4607c",
    "links-quotient-m32": "36f146a8f47fc75b199c9ff65ef9f99f554862e31bc6ab89028d83678f94cf0b",
    "links-quotient-seeded-2-2-8": "bebf7b45afe1b060ec24d56d1be846e90539ce025a10f4dc6ba10d92fd1e43ad",
    "links-quotient-seeded-2-3-15": "c68f6452bfc24464dd3d768b257c517e5003b918c28e7b17ee8a1e219df6c049",
    "links-quotient-seeded-2-4-12": "a486000754f83087eb3a483272747debfcbb011b39280fe67b120f24e5fd5950",
    "links-quotient-seeded-3-2-10": "5d9a8fdf4d69402cfa7a3e0ed6cd6f2c7359224aa495b432f4c427d074003501",
    "links-quotient-seeded-3-3-12": "7773f5c0bfa89e71b35ff358e868bc92f9ee5ca41994e188b6f1e9106ea06cf6",
    "links-wedge": "c7574db901bb55e871c51c20981d2c85c7afcda7d1e2a944d6315cd7028327a6",
    "merges-ball-2-3-r3": "d2e9ff166a925a8315164b0d7312a23f28e18bde874ac223a9dc503457263177",
    "merges-ball-3-2-r2": "bd48bc5ca284ffa6b84079f25c5884bcbee56f5f192ffebe79d13ee9ea85e1d0",
    "merges-coset-ball-2-3-r3": "31ac227890e56204efbb98d554b2afa9c515fb45575387c711b2383e7aeb4173",
    "merges-coxeter-S4": "5a9e615241a8e1673bb4407e8b1f5acc489ec90e31f35b5ad75fffb271c041c8",
    # recorded after the change: the parent text with "ordering" set to null
    "merges-flag-4-2": "106cb8b550831301f8ac8c4f473c7d2d04de09f1f57d541e1f7ad202e722ed5f",
    "merges-flag-4-2-ordered": "78bbcfb8c3b0ceb496d2898e6290234fc38cd4ce46d40635e70a39f0d7c02609",
    "merges-quotient-m23": "f05576d58497a28392fb136b5e0caae3176adea45d252c82e7dd212ff3c3cfbf",
    "merges-quotient-m32": "6ca8c7d02aae567b06cd5423d3851c14499c30d575c89fff1418cda7df9433cd",
    "merges-quotient-seeded-2-2-8": "a0633515cc747f2d7c45619e59d936553b1e7c3c7fdf9b6d05fc69acf75392b9",
    "merges-quotient-seeded-2-3-15": "3c35f254bd48694572afad15887bddd4ad15ccde73305bb13951b5258ad81d83",
    "merges-quotient-seeded-2-4-12": "1d704313e39d3c5ce80287fc40d0af280b8b46b9c81cf1f285709f16b450800a",
    "merges-quotient-seeded-3-2-10": "3ff1bfaaf1ceebef5ff8337f270392e4814d966f6a816d0e7f8d03ba0327927e",
    "merges-quotient-seeded-3-3-12": "e499119f08e6e54d876d33a679616ca2e07e9f07addc4565b681392006be6ea8",
    "merges-wedge": "f0426ad1aa61609ee31ef2bcb61e6aedfc2161a918b19557a0e8202d34d07a88",
}


@pytest.mark.parametrize(
    "name, kind", [(name, kind) for name in sorted(LINK_MERGE_FIXTURES) for kind in ("links", "merges")]
)
def test_link_and_merge_bytes_unchanged(name, kind):
    x = LINK_MERGE_FIXTURES[name]()
    text = (_links_text if kind == "links" else _merges_text)(x)
    assert hashlib.sha256(text.encode()).hexdigest() == LINK_MERGE_DIGESTS[f"{kind}-{name}"]
