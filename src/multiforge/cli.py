"""Command-line surface: build and analyze quotients, covers, balls, spectra,
the example gallery, Schreier line graphs, decompositions, and the
acceptance suite.  Exit codes: 0 success, 1 domain error, 2 usage error.

Each command imports the modules it runs when it runs, so a fresh process
pays only for those.  Along the pipeline:

- `random` loads `words` and `permrep`, and not `json`;
- `build` and `analyze` load `words`, `records`, `permrep`, `complexes`
  and `quotient`;
- `lcc` loads these and `lcc`;
- `spectra` loads `words`, `records`, `complexes`, `spectral` and numpy,
  but not `permrep`.

Beside it, `line-graph` loads `words`, `records`, `permrep` and `graphs`:
it reads the Schreier graph off the rep, without building the quotient.

No command loads `dataclasses`: records are named tuples or `__slots__`
classes (`records`).  `json` is imported by `complexes`, and here only by
the two writers that call `json.dumps` themselves.  `main` builds the
parser of the named command alone, and that of every command only to
print a usage error that lists them.
"""

from __future__ import annotations

import argparse
import reprlib
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .complexes import MComplex
    from .universal import Ball


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _valid_complex(path: str) -> MComplex:
    """The complex in the file, or ValueError with the first message of
    `validate_structure`."""
    from .complexes import from_json, validate_structure
    x = from_json(_read(path))
    diag = validate_structure(x)
    if not diag:
        raise ValueError(diag.messages[0])
    return x


def _fmt(x: float, raw: bool) -> str:
    return repr(x) if raw else f"{x:.6g}"


def _ball_json(ball: Ball) -> str:
    import json
    from .complexes import to_json_dict
    from .words import format_word
    doc = to_json_dict(ball.complex)
    doc["radius"] = ball.radius
    doc["cell_words"] = [
        {"cell": [list(mid[0]), mid[1]], "word": format_word(w)}
        for mid, w in sorted(ball.cell_words.items())
    ]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def cmd_build(args) -> int:
    from .complexes import to_json
    from .permrep import parse_rep
    from .quotient import build_quotient
    rep = parse_rep(_read(args.rep))
    q = build_quotient(rep)
    _write(args.out, to_json(q.complex))
    return 0


def cmd_analyze(args) -> int:
    from .complexes import from_json
    from .quotient import analyze
    _write(args.out, analyze(from_json(_read(args.complex))))
    return 0


def cmd_lcc(args) -> int:
    from .complexes import to_json
    from .lcc import link_connected_cover
    x = _valid_complex(args.complex)
    cover, proj = link_connected_cover(x)
    _write(args.out, to_json(cover))
    if args.map:  # the JSON list of sorted(proj.items()), one color set at a time
        parts = (",".join(f'{{"from":[[{c}],{i}],"to":[[{c}],{j}]}}'
                          for i, j in enumerate(proj.columns[J]) if j is not None)
                 for J in sorted(proj.columns) for c in [",".join(map(str, J))])
        _write(args.map, "[" + ",".join(filter(None, parts)) + "]\n")
    return 0


def cmd_spectra(args) -> int:
    from .spectral import SpectralGapUndefined, coboundary_rank, gap_from_spectrum, spectrum
    x = _valid_complex(args.complex)
    eigs = spectrum(x)
    rank = coboundary_rank(x)
    lines = [f"forms: {len(eigs)}", f"coboundary-rank: {rank}"]
    try:
        lam = gap_from_spectrum(eigs, rank, x.d)
        lines.append(f"lambda: {_fmt(lam, args.raw)}")
    except SpectralGapUndefined as exc:
        lines.append(f"lambda: undefined ({exc})")
    if args.full:
        clusters: list[tuple[float, int]] = []
        for e in eigs:
            e = 0.0 if abs(e) < 5e-4 else float(e)
            if clusters and abs(clusters[-1][0] - e) < 5e-4:
                clusters[-1] = (clusters[-1][0], clusters[-1][1] + 1)
            else:
                clusters.append((e, 1))
        lines.append(
            "spectrum: " + " ".join(f"{val:.3f}x{mult}" for val, mult in clusters)
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


MAX_BALL_TOPS = 4_000_000  # at (2,3) radius 10 has 2,097,151 tops (335 MiB), 11 has 8,388,607


def cmd_ball(args) -> int:
    """Refuses a ball of more than MAX_BALL_TOPS top cells before building:
    radius r has 1 + (d+1)(k-1)·Σ_{i<r} (d(k-1))^i of them."""
    from .universal import ball_from_cosets, build_ball
    from .words import Params
    p = Params(args.d, args.k)
    q, r = p.d * (p.k - 1), max(args.radius, 0)
    # past radius 64 with q >= 2 this is the count of radius 64, a lower bound
    tops = 1 + (p.d + 1) * (p.k - 1) * (r if q == 1 else (q ** min(r, 64) - 1) // (q - 1))
    if tops > MAX_BALL_TOPS:
        at_least = "at least " if q > 1 and r > 64 else ""
        raise ValueError(f"a radius-{r} ball at (d, k) = ({p.d}, {p.k}) has {at_least}{tops:,} "
                         f"top cells, more than the limit of {MAX_BALL_TOPS:,}")
    ball = ball_from_cosets(p, args.radius) if args.via_cosets else build_ball(p, args.radius)
    _write(args.out, _ball_json(ball))
    return 0


def cmd_random(args) -> int:
    from .permrep import format_rep, random_rep_retry
    from .words import Params
    p = Params(args.d, args.k)
    rep, tries = random_rep_retry(p, args.n, seed=args.seed)
    if tries > 1:
        print(f"note: {tries - 1} intransitive draws rejected", file=sys.stderr)
    _write(args.out, format_rep(rep))
    return 0


def cmd_common_cover(args) -> int:
    from .permrep import format_rep, intersect_reps, parse_rep
    r1 = parse_rep(_read(args.rep1))
    r2 = parse_rep(_read(args.rep2))
    rep, _ = intersect_reps(r1, r2)
    _write(args.out, format_rep(rep))
    return 0


def cmd_line_graph(args) -> int:
    from .graphs import format_multigraph, schreier_multigraph, to_dot
    from .permrep import parse_rep
    g = schreier_multigraph(parse_rep(_read(args.rep)))
    _write(args.out, to_dot(g) if args.dot else format_multigraph(g))
    return 0


def cmd_decompose(args) -> int:
    from .graphs import decompose_regular, parse_multigraph
    g = parse_multigraph(_read(args.graph))
    result = decompose_regular(g, args.k)
    if result is None:
        print(f"no decomposition with m + 2f = {args.k} exists", file=sys.stderr)
        return 1
    lines = [f"k: {args.k}", f"factors: {len(result)}"]
    for t, (kind, chosen) in enumerate(result, start=1):
        edges = " ".join(
            f"{g.edges[e][0] + 1}-{g.edges[e][1] + 1}" for e in sorted(chosen)
        )
        lines.append(f"factor {t}: {kind}: {edges}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _parse_generators(text: str) -> tuple[list[tuple[int, ...]], list[int]]:
    """The generator file of `gallery coxeter`: a degree m >= 1, then two
    or more permutations of [m], one a line.  Blank lines and `#` comments
    are skipped; each error names its line.  Returns the generators and the
    line of each."""
    from .permrep import numbered_lines, parse_permutation
    lines = numbered_lines(text)
    if not lines:
        raise ValueError("the generator file is empty: expected the degree line")
    t, head = lines[0]
    if not head.isdecimal() or int(head) < 1:
        raise ValueError(f"line {t}: the degree must be an integer >= 1, got {reprlib.repr(head)}")
    if len(lines) < 3:
        raise ValueError(
            f"line {t}: the degree line must be followed by two generator lines or more, "
            f"got {len(lines) - 1}"
        )
    gens = []
    for t, ln in lines[1:]:
        try:
            gens.append(parse_permutation(ln, int(head)))
        except ValueError as exc:
            raise ValueError(f"line {t}: {exc}") from None
    return gens, [t for t, _ in lines[1:]]


def cmd_gallery(args) -> int:
    from .complexes import to_json
    from .gallery import NotAnInvolution, coxeter_complex, flag_complex, m_subgroup_rep
    from .permrep import format_rep
    from .words import Params
    if args.family == "m":
        rep = m_subgroup_rep(Params(args.d, args.k))
        _write(args.out, format_rep(rep))
        return 0
    if args.family == "coxeter":
        gens, line_of = _parse_generators(_read(args.gens))
        try:
            x, rep = coxeter_complex(gens)
        except NotAnInvolution as exc:
            raise ValueError(f"line {line_of[exc.index]}: not an involution") from None
        if args.out_rep:
            _write(args.out_rep, format_rep(rep))
        _write(args.out, to_json(x))
        return 0
    if args.family == "flag":
        x = flag_complex(args.dim, args.q, ordered=args.ordered)
        _write(args.out, to_json(x))
        return 0
    raise ValueError(f"unknown gallery family {args.family}")


def cmd_verify_all(args) -> int:
    from .acceptance import run_all
    failures = run_all()
    return 1 if failures else 0


def cmd_reduce(args) -> int:
    from .words import Params, format_word, parse_word, reduce_word
    p = Params(args.d, args.k)
    w = parse_word(args.word)
    _write(args.out, format_word(reduce_word(w, p)) + "\n")
    return 0


COMMANDS = (
    "build", "analyze", "lcc", "spectra", "ball", "random", "common-cover",
    "line-graph", "decompose", "gallery", "reduce", "verify-all",
)


class _UsageError(Exception):
    """A usage error met by a parser built for one command."""


class _OneCommandParser(argparse.ArgumentParser):
    """Raises `_UsageError` where `ArgumentParser` prints a usage error, so
    that the parser of every command can print it instead."""

    def error(self, message: str):
        raise _UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `command` the parser of that
    command alone: the same for its arguments and its `--help`, but raising
    `_UsageError` on a usage error, whose message would name the others."""
    top = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="multiforge",
        description="regular multicomplexes from permutation actions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def wanted(name: str) -> bool:
        return command is None or command == name

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    if wanted("build"):
        p = sub.add_parser("build", help="quotient complex from a rep file")
        p.add_argument("--rep", required=True, help="rep file ('-' for stdin)")
        add_out(p)
        p.set_defaults(func=cmd_build)

    if wanted("analyze"):
        p = sub.add_parser("analyze", help="structural report for a complex")
        p.add_argument("complex", help="complex JSON ('-' for stdin)")
        add_out(p)
        p.set_defaults(func=cmd_analyze)

    if wanted("lcc"):
        p = sub.add_parser("lcc", help="link-connected cover")
        p.add_argument("complex")
        p.add_argument("--map", default=None, help="write the projection map JSON here")
        add_out(p)
        p.set_defaults(func=cmd_lcc)

    if wanted("spectra"):
        p = sub.add_parser("spectra", help="upper-Laplacian spectral gap")
        p.add_argument("complex")
        p.add_argument("--full", action="store_true", help="print the full spectrum")
        p.add_argument("--raw", action="store_true", help="full float precision")
        add_out(p)
        p.set_defaults(func=cmd_spectra)

    if wanted("ball"):
        p = sub.add_parser("ball", help="radius-n ball of the universal complex")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--via-cosets", action="store_true", help="use the coset construction")
        add_out(p)
        p.set_defaults(func=cmd_ball)

    if wanted("random"):
        p = sub.add_parser("random", help="random transitive rep (order-dividing-k generators)")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0, help="defaults to 0")
        add_out(p)
        p.set_defaults(func=cmd_random)

    if wanted("common-cover"):
        p = sub.add_parser("common-cover", help="intersection rep covering both inputs")
        p.add_argument("rep1")
        p.add_argument("rep2")
        add_out(p)
        p.set_defaults(func=cmd_common_cover)

    if wanted("line-graph"):
        p = sub.add_parser("line-graph", help="Schreier line graph of a rep's quotient")
        p.add_argument("--rep", required=True)
        p.add_argument("--dot", action="store_true", help="emit DOT with color classes")
        add_out(p)
        p.set_defaults(func=cmd_line_graph)

    if wanted("decompose"):
        p = sub.add_parser("decompose", help="matching/2-factor decomposition of a multigraph")
        p.add_argument("graph", help="multigraph text file")
        p.add_argument("--k", type=int, required=True)
        add_out(p)
        p.set_defaults(func=cmd_decompose)

    if wanted("gallery"):
        p = sub.add_parser("gallery", help="example families")
        gal = p.add_subparsers(dest="family", required=True)
        g = gal.add_parser("m", help="exponent-sum kernel rep")
        g.add_argument("--d", type=int, required=True)
        g.add_argument("--k", type=int, required=True)
        add_out(g)
        g.set_defaults(func=cmd_gallery, family="m")
        g = gal.add_parser("coxeter", help="chamber complex from involution generators")
        g.add_argument("--gens", required=True, help="file: degree line, then permutations")
        g.add_argument("--out-rep", default=None, help="also write the kernel rep here")
        add_out(g)
        g.set_defaults(func=cmd_gallery, family="coxeter")
        g = gal.add_parser("flag", help="flag complex of F_q^dim")
        g.add_argument("--dim", type=int, required=True)
        g.add_argument("--q", type=int, required=True)
        g.add_argument("--ordered", action="store_true", help="attach an arbitrary ordering")
        add_out(g)
        g.set_defaults(func=cmd_gallery, family="flag")

    if wanted("reduce"):
        p = sub.add_parser("reduce", help="reduce a word to normal form")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("word", help="e.g. 'a0^2 a1^-1' (rightmost letter applies first)")
        add_out(p)
        p.set_defaults(func=cmd_reduce)

    if wanted("verify-all"):
        p = sub.add_parser("verify-all", help="run the acceptance suite")
        p.set_defaults(func=cmd_verify_all)

    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's parser alone where it takes `argv`,
    else with every command's, which reports the usage error."""
    if argv and argv[0] in COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _UsageError:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {args.command!r}; the input is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
