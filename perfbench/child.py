"""Child process of the benchmark: one traced CLI command, or one `rigidity`
case (traced or not).

    python3 perfbench/child.py [--spans FILE --op N] cli <multiforge args>
    python3 perfbench/child.py [--spans FILE --op N] rigidity SEED RADIUS QUOTIENT_N COVER_N

With --spans, multiforge's public functions are wrapped (see spans.py) and
the spans are written to FILE when the child ends.  A `rigidity` case
prints its timings and check result as one JSON line.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import multiforge.cli  # noqa: E402

IMPORT_S = time.perf_counter() - START

from spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("kind", choices=["cli", "rigidity"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    if args.kind == "cli":
        if tracer is not None:
            tracer.enabled = True
        rc = multiforge.cli.main(args.rest)
        if tracer is not None:
            tracer.enabled = False
    else:
        from oracles import rigidity_case

        seed, radius, quotient_n, cover_n = (int(a) for a in args.rest)
        print(json.dumps(rigidity_case(seed, radius, quotient_n, cover_n, tracer)))
        rc = 0
    if tracer is not None:
        tracer.dump(args.spans, args.op, import_s=IMPORT_S)
    return rc


if __name__ == "__main__":
    sys.exit(main())
