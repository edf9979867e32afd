"""Run every workload of BENCHMARK.json untraced and traced, print every
metric by name with its unit, and write the results to a stamped file.

    python3 perfbench/report.py [--seed N]

Each run lasts BENCHMARK.json's run_seconds.  The file written,
perfbench/results/<UTC date>-<short sha>.json, records
the machine (CPU model, nproc, BLAS threads), the Python, numpy and scipy
versions, the git SHA and whether src/ had uncommitted changes, and the
full output of each run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version_of(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"workload": workload, "trace": trace, "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2].removeprefix("detail "))}


def show(rec: dict) -> None:
    """Print a run's metrics by name, with their units.  For an untraced run
    this adds fail_ratio and the per-stage times of the detail line that
    apply to the workload."""
    result, detail = rec["result"], rec["detail"]
    print(f"\n== {rec['workload']} --trace {rec['trace']}: {result['attempted']} operations, "
          f"{result['failed']} failed; samples {detail['samples']}")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not rec["trace"]:
        rows.append(("fail_ratio", detail["fail_ratio"], "failed/attempted"))
        rows += [(name, value, PER_LAYER[name]) for name, value in detail["metrics"].items()
                 if name in PER_LAYER and value]
    for name, value, unit in rows:
        print(f"  {name:36s} {value:>14.6g} {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    sha = git("rev-parse", "HEAD")
    src_status = git("status", "--porcelain", "--", "src")
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs.append(run(workload, args.seed, seconds, trace))
            show(runs[-1])

    now = datetime.datetime.now(datetime.timezone.utc)
    doc = {
        "schema": "perfbench-results/1",
        "date_utc": now.isoformat(timespec="seconds"),
        "machine": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "blas_threads": runs[0]["detail"]["blas_threads"],
            "platform": platform.platform(),
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": version_of("numpy"),
            "scipy": version_of("scipy"),
        },
        "git_sha": sha,
        "src_clean": None if src_status is None else src_status == "",
        "seed": args.seed,
        "run_seconds": seconds,
        "runs": runs,
    }
    out = ROOT / "perfbench" / "results" / f"{now:%Y-%m-%d}-{(sha or 'nogit')[:8]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
