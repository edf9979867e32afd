"""Run one child process under a wall-time cap and an address-space cap.

The caps are set in the child (before exec) with `setrlimit`, so a
runaway solve or a huge dense allocation fails that one operation instead
of stalling or exhausting the shared machine.  The child's own peak
resident set comes from `wait4`.
"""

from __future__ import annotations

import os
import resource
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Finished:
    returncode: int
    wall_s: float
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    def describe(self) -> str:
        if self.timed_out:
            return f"killed at the wall-time cap after {self.wall_s:.1f} s"
        tail = self.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit {self.returncode}: {tail[0]}"


def run(argv: list[str], cwd: str, env: dict, wall_cap_s: float, as_cap_bytes: int) -> Finished:
    """Start `argv`, wait for it, and return its exit status, wall time and
    peak RSS.  stdout and stderr go to files in `cwd`."""

    def limits() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (as_cap_bytes, as_cap_bytes))
        cpu = int(wall_cap_s) + 1
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))

    out_path = os.path.join(cwd, "child.stdout")
    err_path = os.path.join(cwd, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=limits)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(wall_cap_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024, killed.is_set(),
                    stdout, stderr)
