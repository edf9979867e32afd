"""Output checks for each workload, run outside the timed region, and the
`rigidity` case, whose library calls and checks share one child process.

Each check returns None when the output is right, else one line saying what
is wrong; run.py counts such an operation as failed.
"""

from __future__ import annotations

import time
from random import Random

import numpy as np

from multiforge.complexes import (
    check_morphism,
    find_isomorphism,
    from_json,
    is_link_connected,
    is_surjective,
    merge_vertices,
)
from multiforge.lcc import link_connected_cover, verify_universality
from multiforge.permrep import parse_rep, random_rep_retry, same_up_to_relabeling
from multiforge.quotient import associated_subgroup_rep, build_quotient, quotient_map
from multiforge.spectral import boundary_matrix, up_laplacian
from multiforge.universal import ball_from_cosets, build_ball
from multiforge.words import Params

GAP_TOL = 1e-6


def _report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def check_pipeline(rep_text: str, complex_bytes: bytes, analyze_text: str,
                   lcc_bytes: bytes) -> str | None:
    """`analyze` says valid and link-connected, `lcc` is a fixed point, and
    the complex's action on its top cells is the source rep."""
    report = _report(analyze_text)
    for key in ("structure-valid", "link-connected"):
        if report.get(key) != "true":
            return f"analyze reports {key}: {report.get(key)}"
    if lcc_bytes != complex_bytes:
        return "lcc output differs from its input on a quotient"
    rebuilt = associated_subgroup_rep(from_json(complex_bytes.decode()))
    if not same_up_to_relabeling(rebuilt, parse_rep(rep_text)):
        return "built complex does not give back the source rep"
    return None


def check_spectra(complex_text: str, spectra_text: str) -> str | None:
    """The printed rank and gap agree with numpy's rank and eigvalsh."""
    x = from_json(complex_text)
    cob = boundary_matrix(x, x.d - 1).matrix.T
    r = int(np.linalg.matrix_rank(cob))
    lap = up_laplacian(x)
    report = _report(spectra_text)
    if report.get("forms") != str(lap.shape[0]):
        return f"forms {report.get('forms')} != {lap.shape[0]}"
    if report.get("coboundary-rank") != str(r):
        return f"coboundary-rank {report.get('coboundary-rank')} != {r}"
    if r >= lap.shape[0]:
        if report.get("lambda", "").startswith("undefined"):
            return None
        return "gap should be undefined"
    expected = float(np.linalg.eigvalsh(lap)[r])
    try:
        printed = float(report.get("lambda", ""))
    except ValueError:
        return f"lambda line unreadable: {report.get('lambda')!r}"
    if abs(printed - expected) > GAP_TOL:
        return f"lambda {printed!r} != eigvalsh {expected!r}"
    return None


def _ball_reaches_all(rep, radius: int) -> bool:
    """Whether reduced words of length <= radius carry the root to every
    point, so that the ball maps onto the quotient: verify_universality
    needs that map to be onto.  Checked on the permutations, not with the
    code under test."""
    seen = {rep.root}
    frontier = [(rep.root, None)]
    for _ in range(radius):
        nxt = []
        for pt, last in frontier:
            for color, beta in enumerate(rep.betas):
                if color == last:
                    continue
                q = pt
                for _ in range(rep.params.k - 1):
                    q = beta[q]
                    seen.add(q)
                    nxt.append((q, color))
        frontier = nxt
    return len(seen) == rep.n


def rigidity_case(seed: int, radius: int, quotient_n: int, cover_n: int, tracer=None) -> dict:
    """Build the radius-`radius` (2,3) ball both ways and match them, map it
    onto a seeded quotient and factor through it, and cover a seeded (2,2)
    quotient with two same-color vertices merged.  Inputs are made before
    timing; `tracer`, if given, is on only while the library calls run."""
    rng = Random(seed)
    p = Params(2, 3)
    for _ in range(100):
        rep, _ = random_rep_retry(p, quotient_n, seed=rng.randrange(10**9))
        if _ball_reaches_all(rep, radius):
            break
    else:
        raise ValueError(f"no (2,3) quotient on {quotient_n} points within radius {radius}")
    q = build_quotient(rep)
    ident = {c.mid: c.mid for c in q.complex.multicells()}
    rep22, _ = random_rep_retry(Params(2, 2), cover_n, seed=rng.randrange(10**9))
    base = build_quotient(rep22).complex
    color0 = [v for v in range(base.n_vertices) if base.vertex_colors[v] == 0]
    v_keep, v_gone = rng.sample(color0, 2)
    merged = merge_vertices(base, v_keep, v_gone)

    if tracer is not None:
        tracer.enabled = True
    marks = [time.perf_counter()]
    b1 = build_ball(p, radius)
    b2 = ball_from_cosets(p, radius)
    marks.append(time.perf_counter())
    iso = find_isomorphism(b1.complex, b2.complex)
    phi = quotient_map(b1, q)
    universal, _, why = verify_universality(b1.complex, phi, q.complex, ident)
    marks.append(time.perf_counter())
    cover, proj = link_connected_cover(merged)
    marks.append(time.perf_counter())
    if tracer is not None:
        tracer.enabled = False
    steps = ["lib.ball_s", "lib.iso_s", "lib.cover_s"]
    times = {name: end - start for name, start, end in zip(steps, marks, marks[1:])}

    def error() -> str | None:
        if iso is None:
            return "the two balls are not found isomorphic"
        if len(set(iso.values())) != len(iso) or not check_morphism(iso, b1.complex, b2.complex):
            return "ball isomorphism is not a bijective morphism"
        if not check_morphism(phi, b1.complex, q.complex):
            return "quotient_map is not a morphism"
        if not is_surjective(phi, q.complex):
            return "quotient_map is not surjective"
        if not universal:
            return f"verify_universality failed: {why}"
        if not is_link_connected(cover):
            return "cover is not link-connected"
        if not check_morphism(proj, cover, merged):
            return "cover projection is not a morphism"
        counts = {cs: len(cells) for cs, cells in cover.cells.items()}
        if counts != {cs: len(cells) for cs, cells in base.cells.items()}:
            return "cover cell counts differ from the unmerged quotient's"
        return None

    return {"times": times, "error": error()}
