"""Starts the benchmark's child processes from a small interpreter.

A forked child's peak RSS starts at its parent's size, so children started
by the benchmark itself would report the benchmark's memory, not their own.
The launcher stays small.  It reads one JSON request per line on stdin,
``{"args": [...], "hashseed": n}``, runs the arguments with PYTHONHASHSEED
set to n, and answers with one JSON line: returncode, stdout, stderr,
start and end on ``time.perf_counter`` (the system's monotonic clock, the
same in every process), and the peak RSS in KiB of its children so far.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 170


class Launcher:
    """The benchmark's side: start the launcher, send it commands, stop it."""

    def __init__(self, cwd, env):
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=cwd,
            env=env,
            text=True,
            encoding="utf-8",
        )
        self.children_maxrss_kb = 0

    def run(self, args: list[str], hashseed: int) -> dict:
        self.proc.stdin.write(json.dumps({"args": args, "hashseed": hashseed}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        self.children_maxrss_kb = reply["children_maxrss_kb"]
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        env = {**os.environ, "PYTHONHASHSEED": str(request["hashseed"])}
        start = perf_counter()
        try:
            done = subprocess.run(
                request["args"],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=env,
                timeout=TIMEOUT_S,
            )
            code, out, err = done.returncode, done.stdout, done.stderr
        except subprocess.TimeoutExpired:
            code, out, err = -1, "", f"timed out after {TIMEOUT_S} s"
        end = perf_counter()
        reply = {
            "returncode": code,
            "stdout": out,
            "stderr": err,
            "start": start,
            "end": end,
            "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
