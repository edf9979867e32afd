"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
--scale tiny, and checks that each run finishes with no failed operation
and prints exactly the metrics BENCHMARK.json names, each with its unit.
Then checks that run.py refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Last, it reports whether the known `lcc` defect on ordered d=1 complexes
(see README.md) is still present; that probe does not fail the test.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or detail["fail_ratio"] != 0:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} failed: "
                      f"{detail['errors']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(printed) if wanted[n] != printed[n])
        errors.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {name} = {value!r} is not positive")
    return errors


def check_refuses_without_program(spec: dict) -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"run.py without the program: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def probe_lcc_d1_defect() -> str:
    """`multiforge lcc` on an ordered d=1 quotient; it exits 1 at the parent
    commit of the benchmark (lcc._finalize maps per-color 0-cell ids
    through a table keyed by global vertex ids)."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "multiforge.cli"]
    try:
        for args in (["random", "--d", "1", "--k", "3", "--n", "12", "--seed", "1",
                      "--out", "rep.txt"],
                     ["build", "--rep", "rep.txt", "--out", "x.json"]):
            subprocess.run(cli + args, cwd=work, env=env, check=True, capture_output=True,
                           timeout=60)
        done = subprocess.run(cli + ["lcc", "x.json", "--out", "cover.json"], cwd=work,
                              env=env, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        return (f"known defect still present: lcc on d=1 exits {done.returncode}: "
                f"{done.stderr.strip()}")
    return "known defect no longer shows: lcc on d=1 exits 0; update perfbench/README.md"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    found = check_refuses_without_program(spec)
    print(f"refuses without the program: {'ok' if not found else 'FAIL'}")
    errors += found
    print(probe_lcc_d1_defect())
    for err in errors:
        print("FAIL " + err)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
