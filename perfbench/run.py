#!/usr/bin/env python3
"""Benchmark of timebin-qkd sessions, end to end and per layer.

Run from the root of a checkout (it runs the checkout's own ``src``):

    python3 perfbench/run.py --workload passive-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload passive-sweep --seed 1 --seconds 35 --trace 1

With ``--trace 0`` it runs whole passes of the workload's sessions back to
back, as many as fit in ``--seconds`` and at least one (one client, closed
loop, ``workers=1``), and prints the end-to-end metrics, with times in
reference seconds (see speed.py). With ``--trace 1`` it runs one pass
untraced and then traced, and prints the per-layer metrics. Either way it checks every session's outputs,
and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import layers
from speed import reference_loop, speed_scale
from workloads import WORKLOADS, Case, Workload

END_TO_END = {
    "trials_per_s": "1/s",
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

SETUP_REPEATS = 15
IMPORT_REPEATS = 3

def nearest_rank(values: list[float], pct: int) -> tuple[float, int]:
    """(value, samples beyond it) of the pct-th percentile, nearest rank.

    The p-th percentile of n sorted values is the k-th, k = ceil(p·n/100).
    """
    xs = sorted(values)
    rank = max(1, -(-pct * len(xs) // 100))
    return xs[rank - 1], len(xs) - rank


@dataclass
class Sample:
    case: Case
    seconds: float = 0.0  # wall time
    scale: float = 1.0  # wall -> reference seconds, from the probes around it
    text: str | None = None  # the stats JSON
    trace: Path | None = None
    rss_mb: float = 0.0  # peak resident MB, of a session run as a process
    problems: list[str] = field(default_factory=list)
    doc: dict | None = None


class Bench:
    def __init__(self, workload: Workload, seed: int, runner):
        self.workload = workload
        self.seed = seed
        self.runner = runner
        # How the workload's users run a session: in-process, or as a process.
        self.mode = "cli" if workload.via_cli else "session"

    def run_one(self, case: Case, mode: str) -> Sample:
        """Run one session; never raises.

        mode: "session" (run_session + stats_json), "cli" (a `timebin-qkd run`
        process, with --trace on a CLI workload) or "cli.main" (the same
        command through cli.main in this process).
        """
        sample = Sample(case)
        t0 = perf_counter()
        try:
            if mode == "session":
                sample.seconds, sample.text = self.runner.in_process(case)
                return sample
            if mode == "cli":
                result, sample.rss_mb = self.runner.cli(case, trace=self.workload.via_cli)
            else:
                result = self.runner.cli_in_process(case)
            sample.seconds, sample.trace = result.seconds, result.trace
            sample.text = result.out.read_text(encoding="utf-8")
        except Exception as exc:  # a failed session is counted, and the run goes on
            sample.seconds = perf_counter() - t0
            sample.problems.append(f"raised {exc!r}")
        return sample

    def verify(self, samples: list[Sample]) -> None:
        """Check each session's outputs, then the pooled counts of each config."""
        for s in samples:
            if s.text is None:
                continue
            try:
                if s.trace is not None:
                    trace = s.trace.read_text(encoding="utf-8")
                    s.problems += checks.check_trace(trace, s.case.trials)
                doc = json.loads(s.text)
                s.problems += checks.check_stats(s.case, doc)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                s.problems.append(f"unreadable output: {exc!r}")
                continue
            s.doc = doc
        pooled = checks.check_pooled([(s.case, s.doc) for s in samples if s.doc is not None])
        for s in samples:
            if s.doc is not None:
                s.problems += pooled.get(s.case.physics, [])

    def repeat(self, sample: Sample) -> None:
        """Rerun a session the other way (process <-> in-process); its stats must not change.

        That checks determinism, and that the CLI stats document equals the
        in-process stats_json of the same config.
        """
        again = self.run_one(sample.case, "session" if self.workload.via_cli else "cli")
        sample.problems += [f"rerun {p}" for p in again.problems]
        if None not in (sample.text, again.text) and again.text != sample.text:
            sample.problems.append("stats differ between the CLI and the in-process run")

    def end_to_end(self, seconds: float) -> tuple[dict, list[Sample], list[str]]:
        setup_s, setup_wall = self.runner.setup_seconds(SETUP_REPEATS)
        samples: list[Sample] = []
        start = perf_counter()
        probe = reference_loop()
        for cases in self.workload.passes(self.seed):
            pass_start = perf_counter()
            for case in cases:
                sample = self.run_one(case, self.mode)
                after = reference_loop()
                sample.scale = speed_scale(probe, after)
                probe = after
                samples.append(sample)
            now = perf_counter()
            overrun = now - start + (now - pass_start) > seconds  # if another pass ran
            if overrun and len(samples) >= self.workload.min_sessions:
                break
        self.repeat(samples[0])
        rss = self.run_one(self.workload.rss_case(self.seed), "cli")
        self.verify(samples + [rss])

        times = [s.seconds * s.scale for s in samples]
        wall = [s.seconds for s in samples]
        done_trials = sum(s.case.trials for s in samples if s.text is not None)
        pct = self.workload.tail_pct
        tail, beyond = nearest_rank(times, pct)
        ok = sum(1 for s in samples + [rss] if not s.problems)
        metrics = {
            "trials_per_s": done_trials / sum(times),
            "session_ms_p50": statistics.median(times) * 1e3,
            "session_ms_tail": tail * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": rss.rss_mb,
            "ok_frac": ok / (len(samples) + 1),
        }
        traced = " with --trace" if self.workload.via_cli else ""
        notes = [
            f"session_ms_tail is p{pct} of {len(samples)} sessions, {beyond} beyond it",
            f"setup_s is the median of {SETUP_REPEATS} fresh 1-trial runs",
            f"peak_rss_mb is of one {rss.case.trials}-trial `timebin-qkd run` process{traced}",
            f"times are in reference seconds; wall-clock values: trials_per_s "
            f"{done_trials / sum(wall):.6g}, session_ms_p50 {statistics.median(wall) * 1e3:.6g}, "
            f"setup_s {setup_wall:.6g}; machine speed {statistics.median(s.scale for s in samples):.4g}"
            f" x reference",
        ]
        return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, samples + [rss], notes

    def per_layer(self, spans_path: Path) -> tuple[dict, list[Sample], list[str]]:
        from timebin_qkd import optics

        cases = next(self.workload.passes(self.seed))
        mode = "cli.main" if self.workload.via_cli else "session"
        self.run_one(cases[0], mode)  # fill caches as the traced pass finds them
        untraced = sum(self.run_one(c, mode).seconds for c in cases)

        cache = getattr(getattr(optics, "_mzi_matrices", None), "cache_info", None)
        before = cache() if cache else None
        samples = []
        with layers.Tracer() as tracer:
            for i, case in enumerate(cases):
                with tracer.session_span(i):
                    samples.append(self.run_one(case, mode))
        after = cache() if cache else None
        traced = sum(s.seconds for s in samples)
        tracer.write(spans_path)
        import_s = self.runner.import_seconds(IMPORT_REPEATS)
        self.verify(samples)

        spec = layers.per_layer_spec()
        summary = tracer.summary()
        trials = sum(c.trials for c in cases)
        docs = [s.doc for s in samples if s.doc is not None]
        values: dict[str, float] = {}
        for name in layers.WRAPPED:
            calls, self_s = summary.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        hits = misses = 0
        if before is not None:
            hits, misses = after.hits - before.hits, after.misses - before.misses
        values.update({
            "trace.trials": trials,
            "trace.overhead_frac": traced / untraced,
            "qstate.ModeState.calls_per_trial": values["qstate.ModeState.calls"] / trials,
            "optics.mzi_cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "session.classical_messages": values["session.ChannelEndpoint.send.calls"],
            "session.sifted_frac": sum(d["sifted"] for d in docs) / trials,
            "session.lost_frac": sum(d["histogram"].get("lost", 0) for d in docs) / trials,
            "session.trace_csv.bytes": sum(
                s.trace.stat().st_size for s in samples if s.trace and s.doc is not None
            ),
            "import.timebin_qkd_s": import_s,
        })
        absent = [n for n in layers.WRAPPED if n not in summary]
        notes = [
            f"traced {len(cases)} sessions, {len(tracer.start)} spans -> {spans_path}",
            f"absent (0 calls): {', '.join(absent) or 'none'}",
        ]
        return {k: (values[k], spec[k][0]) for k in spec}, samples, notes


def _report(workload: Workload, metrics: dict, samples: list[Sample], notes: list[str]) -> None:
    failed = [s for s in samples if s.problems]
    for s in failed[:10]:
        print(f"FAILED {s.case}: {'; '.join(s.problems)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<14} {name:<40} {value:>16.6g} {unit}")
    for note in notes:
        print(f"{workload.name:<14} {note}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "timebin_qkd" / "__init__.py").is_file():
        print(f"error: no src/timebin_qkd under {root}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import timebin_qkd
    from execute import Runner

    if not Path(timebin_qkd.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported timebin_qkd from {timebin_qkd.__file__}, not {src}", file=sys.stderr)
        return 2

    # On SIGTERM unwind normally, so that children are stopped and scratch files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        bench = Bench(workload, args.seed, Runner(src, tmp))
        if args.trace:
            spans = work / f"spans-{workload.name}-{args.seed}.npz"
            metrics, samples, notes = bench.per_layer(spans)
        else:
            metrics, samples, notes = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _report(workload, metrics, samples, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
