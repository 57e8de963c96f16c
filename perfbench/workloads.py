"""The benchmark's workloads: session configs generated from the workload seed.

A workload yields passes, each a list of sessions; the timed loop runs
whole passes back to back, so every run sees the same mix of sessions,
and at least as many as its tail percentile needs.
The program sees only the generated configs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator

SCHEMES = ("fig1", "combined", "owa")

#: The interferometer phases of the headline sweep (as in scripts/phase_sweep.py).
PHASE_GRID = tuple(i * math.pi / 8 for i in range(9))

#: Trials per session: the 1e4 of ROADMAP item 1 and the low end of the
#: users' 1e4-1e5, so per-session fixed costs stay small.
SESSION_TRIALS = 10_000
#: Trials per `timebin-qkd run` process: the largest size at which a
#: 35-second run still holds the 20 processes its p50 tail needs.
CLI_TRIALS = 12_000
#: Trials of the session whose peak memory is measured: the size of the
#: study scripts' sessions (scripts/phase_sweep.py, scripts/dephasing_study.py).
RSS_TRIALS = 50_000
#: Sessions a run needs beyond its tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Case:
    """One session as a user would request it."""

    scheme: str
    trials: int
    seed: int
    phase: float | str = 0.0  # or "random"
    channel: str = "none"  # none, collective (random phase per trial), independent, loss
    loss: float = 0.0  # photon loss probability of the "loss" channel
    eve: bool = False

    @property
    def physics(self) -> tuple:
        """What fixes the expected outcome: (scheme, phase, channel, loss, eve)."""
        return self.scheme, self.phase, self.channel, self.loss, self.eve

    def config_doc(self) -> dict:
        """The session in the package's JSON config format (``run --config``)."""
        channel: dict = {"kind": self.channel}
        if self.channel == "collective":
            channel["phi"] = "random"
        elif self.channel == "loss":
            channel["loss"] = self.loss
        return {
            "scheme": self.scheme,
            "trials": self.trials,
            "seed": self.seed,
            "phase": self.phase,
            "channel": channel,
            "eavesdropper": "intercept_resend" if self.eve else "off",
        }

    def flags(self) -> list[str]:
        """The session as ``timebin-qkd run`` flags."""
        channel = {"collective": "collective=random", "loss": f"loss={self.loss!r}"}
        flags = [
            "--protocol", self.scheme,
            "--trials", str(self.trials),
            "--seed", str(self.seed),
            "--phase", str(self.phase),
            "--channel", channel.get(self.channel, self.channel),
        ]
        return flags + (["--eve"] if self.eve else [])


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def passive_sweep(rng: random.Random) -> Iterator[list[Case]]:
    # fig1 traces its cos² detuning over the whole grid; combined, flat by
    # design, takes every other point. Unequal counts keep the median session
    # inside one scheme's cluster of times, not on the gap between the two.
    while True:
        yield [
            Case(scheme, SESSION_TRIALS, _seed(rng), phi)
            for scheme, grid in (("fig1", PHASE_GRID), ("combined", PHASE_GRID[::2]))
            for phi in grid
        ]


def noisy_eve(rng: random.Random) -> Iterator[list[Case]]:
    loss = rng.uniform(0.15, 0.25)
    while True:
        yield [
            Case(scheme, SESSION_TRIALS, _seed(rng), "random", channel,
                 loss if channel == "loss" else 0.0, eve)
            for scheme in SCHEMES
            for channel in ("collective", "independent", "loss")
            for eve in (False, True)
        ]


def cli_trace(rng: random.Random) -> Iterator[list[Case]]:
    # The README's two `run` examples. Two combined runs to one fig1 keep the
    # median process inside the combined cluster of times, not on the gap.
    while True:
        yield [
            Case("combined", CLI_TRIALS, _seed(rng), 0.0, "collective"),
            Case("combined", CLI_TRIALS, _seed(rng), 0.0, "collective"),
            Case("fig1", CLI_TRIALS, _seed(rng), 0.0, eve=True),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool  # sessions run as `timebin-qkd run --trace --out` processes
    generate: Callable[[random.Random], Iterator[list[Case]]]
    #: Percentile reported as session_ms_tail: the highest that a run of this
    #: workload's size has TAIL_BEYOND sessions beyond (100, the slowest
    #: session, where even one pass is fewer than 2·TAIL_BEYOND sessions).
    tail_pct: int

    @property
    def min_sessions(self) -> int:
        """Sessions a run must hold, so that TAIL_BEYOND of them lie beyond its tail."""
        return 1 if self.tail_pct == 100 else math.ceil(TAIL_BEYOND * 100 / (100 - self.tail_pct))

    def passes(self, seed: int) -> Iterator[list[Case]]:
        return self.generate(random.Random(f"{self.name}/{seed}"))

    def rss_case(self, seed: int) -> Case:
        """The session whose peak memory is measured: the first one, at RSS_TRIALS."""
        return replace(next(self.passes(seed))[0], trials=RSS_TRIALS)


WORKLOADS = {
    w.name: w
    for w in (
        # Why each was chosen: perfbench/README.md and BENCHMARK.json.
        Workload("passive-sweep", via_cli=False, generate=passive_sweep, tail_pct=75),
        Workload("noisy-eve", via_cli=False, generate=noisy_eve, tail_pct=100),
        Workload("cli-trace", via_cli=True, generate=cli_trace, tail_pct=50),
    )
}
