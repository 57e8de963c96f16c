"""Running the program: sessions in-process and as `timebin-qkd` processes.

Every child process runs the checkout's own ``src`` and is waited for
before the call returns.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Called through their modules, so that a traced run sees the wrapped functions.
from timebin_qkd import cli, session

from speed import reference_loop, speed_scale

#: What the `timebin-qkd` console script runs.
ENTRY = "import sys; from timebin_qkd.cli import main; sys.exit(main())"

#: Longest a single child process may take.
CHILD_TIMEOUT_S = 120


class SessionFailed(RuntimeError):
    """A session raised, or its process exited non-zero."""


@dataclass
class CliResult:
    seconds: float
    out: Path
    trace: Path | None


class Runner:
    def __init__(self, src: Path, workdir: Path):
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self._count = 0

    def _paths(self) -> tuple[Path, Path]:
        self._count += 1
        return (
            self.workdir / f"stats-{self._count}.json",
            self.workdir / f"trace-{self._count}.csv",
        )

    def _child(self, args: list[str]) -> tuple[float, object]:
        """Run `python args` to its exit: (wall seconds from spawn, its rusage).

        Waits with a blocking wait4, so the time is not rounded up to a
        polling interval; a timer kills a child that outlives CHILD_TIMEOUT_S.
        """
        with open(self.workdir / "stderr.txt", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:  # interrupted before the child was reaped
                    proc.kill()
                    proc.wait()
            if proc.returncode != 0:
                err.seek(0)
                tail = err.read().decode(errors="replace")[-500:]
                raise SessionFailed(f"exit {proc.returncode}: {tail}")
        return seconds, usage

    def in_process(self, case) -> tuple[float, str]:
        """(wall seconds, stats JSON) of run_session + stats_json, as the study scripts call them."""
        config = session.config_from_dict(case.config_doc())
        t0 = perf_counter()
        stats, records = session.run_session(config)
        text = session.stats_json(stats)
        del records
        return perf_counter() - t0, text

    def cli_in_process(self, case) -> CliResult:
        """`timebin-qkd run ... --out --trace` through cli.main, in this process."""
        out, trace = self._paths()
        t0 = perf_counter()
        code = cli.main(["run", *case.flags(), "--out", str(out), "--trace", str(trace)])
        seconds = perf_counter() - t0
        if code != 0:
            raise SessionFailed(f"cli.main exited {code}")
        return CliResult(seconds, out, trace)

    def cli(self, case, trace: bool) -> tuple[CliResult, float]:
        """One `timebin-qkd run` process, timed from spawn to exit, and its peak resident MB."""
        out, trace_path = self._paths()
        args = ["-c", ENTRY, "run", *case.flags(), "--out", str(out)]
        if trace:
            args += ["--trace", str(trace_path)]
        seconds, usage = self._child(args)
        return CliResult(seconds, out, trace_path if trace else None), usage.ru_maxrss / 1024.0

    def setup_seconds(self, repeats: int) -> tuple[float, float]:
        """Median (reference, wall) seconds of a fresh interpreter running a 1-trial `timebin-qkd run`."""
        out, _ = self._paths()
        args = ["-c", ENTRY, "run", "--protocol", "combined", "--trials", "1",
                "--seed", "1", "--out", str(out)]
        self._child(args)  # compiles bytecode on a fresh checkout; not counted
        wall, ref = [], []
        for _ in range(repeats):
            before = reference_loop()
            seconds, _ = self._child(args)
            wall.append(seconds)
            ref.append(seconds * speed_scale(before, reference_loop()))
        return statistics.median(ref), statistics.median(wall)

    def import_seconds(self, repeats: int) -> float:
        """Median cumulative `python -X importtime` of the timebin_qkd modules the CLI loads."""
        totals = []
        for _ in range(repeats):
            err = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import timebin_qkd.cli"],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S, check=True,
            ).stderr.decode()
            totals.append(sum_top_level_us(err, "timebin_qkd") / 1e6)
        return statistics.median(totals)


def sum_top_level_us(importtime: str, package: str) -> int:
    """Sum of cumulative µs of the top-level imports of `package` in -X importtime output."""
    total = 0
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2][1:]  # one space after the bar, then two per nesting level
        if not name.startswith(" ") and name.split(".")[0] == package:
            total += int(parts[1])
    return total
