"""Benchmark of the multiforge command line and library, driven from outside.

    python3 perfbench/run.py --workload {pipeline,spectra,rigidity} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

Closed loop, one client: each operation (one chain of CLI commands, or one
library case) starts after the previous one has finished, and every child
process runs alone under a wall-time cap and an address-space cap, with one
BLAS thread.  A new operation starts only while the loop can still end
within --seconds of wall time, judged by the median time of one pass so far
(at least one operation runs; two when traced).  Each operation's output is
checked outside its timed region; a failed check, a nonzero exit or a cap
hit counts the operation as failed.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
("detail ...") holds every figure of the run, with sample counts.  With
--trace 1, odd operations are traced and even ones are not; the untraced
ones give the per-stage times and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import capped
import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = str(Path(__file__).resolve().parent / "child.py")
CLI_ENTRY = "import sys; from multiforge.cli import main; sys.exit(main())"
BLAS_THREADS = 1
AS_CAP_BYTES = 2 * 2**30
SETUP_SAMPLES = 3  # before the loop; one more follows each operation

# Sizes per workload; "tiny" is for the self-test only.
SIZES = {
    "pipeline": {"full": {"n": 5000, "cap_s": 60}, "tiny": {"n": 200, "cap_s": 60}},
    "spectra": {
        "full": {"families": [(1, 3, 72), (1, 5, 120), (2, 5, 80)], "cap_s": 60},
        "tiny": {"families": [(1, 3, 30), (1, 5, 30), (2, 5, 20)], "cap_s": 60},
    },
    "rigidity": {
        "full": {"radius": 4, "quotient_n": 40, "cover_n": 3000, "cap_s": 90},
        "tiny": {"radius": 3, "quotient_n": 8, "cover_n": 60, "cap_s": 90},
    },
}

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}
STAGES = ["random", "build", "analyze", "lcc", "spectra"]
LIB_STAGES = ["ball", "iso", "cover"]
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{s}.rss_mb": "MiB" for s in STAGES},
    **{f"cmd.{s}_s": "s" for s in STAGES},
    **{f"lib.{s}_s": "s" for s in LIB_STAGES},
    **{metric: "s" for metric in spans.TIMED},
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "permrep.draws_per_rep": "draws/rep",
    "quotient.cells": "count",
    "complexes.json_mb": "MiB",
    "universal.tops": "count",
    "words.calls": "count",
    "lcc.splits": "count",
    "spectral.forms": "count",
    "spectral.dense_mb": "MiB",
    "spectral.boundary_matrix_calls": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class OpFailed(Exception):
    pass


@dataclass
class Step:
    stage: str  # the CLI command or library step it times
    wall_s: float
    rss_mb: float


@dataclass
class Op:
    traced: bool
    steps: list[Step] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def rss_mb(self) -> float:
        return max((s.rss_mb for s in self.steps), default=0.0)


class Bench:
    """Runs the child processes of one benchmark run in a scratch directory
    inside the checkout."""

    def __init__(self, work: str, cap_s: float):
        self.work = work
        self.cap_s = cap_s
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.next_op = 0

    def child(self, argv: list[str]) -> capped.Finished:
        return capped.run([sys.executable, *argv], self.work, self.env, self.cap_s, AS_CAP_BYTES)

    def traced_argv(self, op: Op, kind: str) -> tuple[list[str], str | None]:
        if not op.traced:
            return [], None
        path = os.path.join(self.work, "spans.json")
        return [CHILD, "--spans", path, "--op", str(self.next_op), kind], path

    def collect(self, done: capped.Finished, op: Op, span_path: str | None) -> None:
        if not done.ok:
            raise OpFailed(done.describe())
        if span_path is not None:
            with open(span_path, encoding="utf-8") as fh:
                op.records.append(json.load(fh))

    def cli(self, op: Op, args: list[str]) -> None:
        """Run one multiforge command the way a user does."""
        prefix, span_path = self.traced_argv(op, "cli")
        argv = prefix + args if prefix else ["-c", CLI_ENTRY, *args]
        done = self.child(argv)
        op.steps.append(Step(args[0], done.wall_s, done.rss_mb))
        self.collect(done, op, span_path)

    def read(self, name: str) -> bytes:
        with open(os.path.join(self.work, name), "rb") as fh:
            return fh.read()


def pipeline_op(bench: Bench, op: Op, rng: Random, sizes: dict):
    """random -> build -> analyze -> lcc at (2,3) through the CLI."""
    seed = rng.randrange(10**9)
    bench.cli(op, ["random", "--d", "2", "--k", "3", "--n", str(sizes["n"]),
                   "--seed", str(seed), "--out", "rep.txt"])
    bench.cli(op, ["build", "--rep", "rep.txt", "--out", "x.json"])
    bench.cli(op, ["analyze", "x.json", "--out", "report.txt"])
    bench.cli(op, ["lcc", "x.json", "--out", "cover.json"])
    outputs = [bench.read(f) for f in ("rep.txt", "x.json", "report.txt", "cover.json")]

    def check():
        import oracles  # imports multiforge, which needs the sys.path set by main()

        rep, x, report, cover = outputs
        return oracles.check_pipeline(rep.decode(), x, report.decode(), cover)

    return check


def spectra_op(bench: Bench, op: Op, rng: Random, sizes: dict):
    """random -> build -> spectra through the CLI, once per gap family."""
    complexes = []
    for d, k, n in sizes["families"]:
        seed = rng.randrange(10**9)
        bench.cli(op, ["random", "--d", str(d), "--k", str(k), "--n", str(n),
                       "--seed", str(seed), "--out", "rep.txt"])
        bench.cli(op, ["build", "--rep", "rep.txt", "--out", "x.json"])
        bench.cli(op, ["spectra", "x.json", "--raw", "--out", "gap.txt"])
        complexes.append((bench.read("x.json"), bench.read("gap.txt")))

    def check():
        import oracles

        for x, gap in complexes:
            err = oracles.check_spectra(x.decode(), gap.decode())
            if err is not None:
                return err
        return None

    return check


def rigidity_op(bench: Bench, op: Op, rng: Random, sizes: dict):
    """One library case in a child process: balls, isomorphism, quotient
    map and universality, and the cover of a merged quotient."""
    prefix, span_path = bench.traced_argv(op, "rigidity")
    argv = (prefix or [CHILD, "rigidity"]) + [
        str(rng.randrange(10**9)), str(sizes["radius"]),
        str(sizes["quotient_n"]), str(sizes["cover_n"]),
    ]
    done = bench.child(argv)
    op.steps.append(Step("case", done.wall_s, done.rss_mb))
    bench.collect(done, op, span_path)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    op.steps = [Step(name, t, done.rss_mb) for name, t in result["times"].items()]
    return lambda: result["error"]


OPS = {"pipeline": pipeline_op, "spectra": spectra_op, "rigidity": rigidity_op}


def run_op(bench: Bench, workload: str, rng: Random, sizes: dict, traced: bool) -> Op:
    op = Op(traced)
    try:
        check = OPS[workload](bench, op, rng, sizes)
        op.error = check()
    except OpFailed as exc:
        op.error = str(exc)
    bench.next_op += 1
    for name in os.listdir(bench.work):
        os.remove(os.path.join(bench.work, name))
    return op


def setup_sample(bench: Bench) -> capped.Finished:
    """A fresh interpreter that imports `multiforge.cli` and exits."""
    done = bench.child(["-c", "import multiforge.cli"])
    if not done.ok:
        raise SystemExit(f"cannot import multiforge.cli: {done.describe()}")
    return done


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_metrics(ops: list[Op]) -> dict[str, float]:
    """Median wall time and RSS of each CLI stage and library step."""
    steps = [step for op in ops for step in op.steps]
    out = {}
    for s in STAGES:
        out[f"cmd.{s}_s"] = _median([x.wall_s for x in steps if x.stage == s])
        out[f"cli.{s}.rss_mb"] = _median([x.rss_mb for x in steps if x.stage == s])
    for s in LIB_STAGES:
        out[f"lib.{s}_s"] = _median([x.wall_s for x in steps if x.stage == f"lib.{s}_s"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiforge" / "cli.py").is_file():
        print(f"error: no multiforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # For the children and for numpy in the output checks of this process.
    os.environ.update({v: str(BLAS_THREADS)
                       for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    nproc = os.cpu_count() or 1
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads > {nproc} cores", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the cleanup below runs
    sizes = SIZES[args.workload][args.scale]
    rng = Random(f"{args.workload}:{args.seed}")
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(work, sizes["cap_s"])
        setup_sample(bench)  # unrecorded: writes the bytecode caches
        setup = [setup_sample(bench) for _ in range(SETUP_SAMPLES)]
        ops: list[Op] = []
        laps: list[float] = []  # one operation, its check and one setup sample
        start = time.perf_counter()
        while len(ops) < 1 + args.trace or (
            time.perf_counter() - start + statistics.median(laps) <= args.seconds
        ):
            lap_start = time.perf_counter()
            ops.append(run_op(bench, args.workload, rng, sizes, bool(args.trace and len(ops) % 2)))
            setup.append(setup_sample(bench))
            laps.append(time.perf_counter() - lap_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.error is not None]
    plain = [op for op in ops if not op.traced]
    plain_ok = [op for op in plain if op.error is None] or plain
    traced_ok = [op for op in ops if op.traced and op.error is None]
    metrics = {
        "setup_s": _median([s.wall_s for s in setup]),
        "op_p50_s": _median([op.wall_s for op in plain_ok]),
        "ops_per_s": len(plain) / sum(op.wall_s for op in plain),
        "peak_rss_mb": _median([op.rss_mb for op in plain_ok]),
        **stage_metrics(plain_ok),
    }
    if args.trace:
        records = [rec for op in traced_ok for rec in op.records]
        metrics["cli.import_s"] = _median([rec["import_s"] for rec in records])
        metrics.update(spans.layer_metrics([spans.op_totals(op.records) for op in traced_ok]))
        metrics["trace.overhead_s"] = (
            _median([op.wall_s for op in traced_ok]) - metrics["op_p50_s"] if traced_ok else 0.0
        )
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "attempted": len(ops), "failed": len(failed),
        "fail_ratio": len(failed) / len(ops),
        "samples": {"setup": len(setup), "untraced_ops": len(plain_ok),
                    "traced_ops": len(traced_ok)},
        "errors": sorted({op.error for op in failed}),
        "op_s": [op.wall_s for op in plain_ok],
        "setup_samples_s": [s.wall_s for s in setup],
        "nproc": nproc, "blas_threads": BLAS_THREADS, "as_cap_bytes": AS_CAP_BYTES,
        "cap_s": sizes["cap_s"], "metrics": metrics,
    }
    print("detail " + json.dumps(detail))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
