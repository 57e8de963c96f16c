"""Monte-Carlo key-distribution sessions.

A session runs `trials` independent rounds: Alice draws a uniform signal
index, the state crosses an optional intercept-resend eavesdropper and an
optional noise channel, Bob's interferometer and detectors sample an
outcome, and matched conclusive rounds enter the sifted key.

The rounds run as a batched kernel over chunks of CHUNK_TRIALS trials. A
chunk makes its random draws, then runs a few array operations on its
scheme's tables (`protocols.scheme_tables`) in small blocks of trials,
and each trial leaves one small integer code
that fixes Alice's index, Bob's modulator setting and the outcome ("lost"
included). The statistics, the records and the trace are derived from the
codes. The scalar ModeState path (signal_state, apply_channel,
intercept_resend, mzi_single/mzi_pair, born_sample, classify_*) stays as
the reference the kernel is tested against.

Determinism contract: chunk k draws from its own Philox counter-based
stream keyed by (seed, k), in the style of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11). One config therefore gives
byte-identical stats and traces, whatever the worker count.
"""
from __future__ import annotations

import csv
import io
import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from .dfs import collective_dephase, dephase_single, dephasing_diagonal, independent_dephase
from .optics import TWO_PI, mzi_pair, mzi_batch, mzi_single, phase_modulator
from .protocols import (
    INDEX_FOR,
    OWA_BETAS,
    ClassifiedOutcome,
    Scheme,
    SchemeId,
    classify_combined,
    classify_fig1,
    classify_owa,
    scheme_tables,
    sift,
    signal_state,
)
from .qstate import ModeState, born_sample, born_sample_batch

#: Trials per chunk; each chunk owns one Philox stream, so this is part of
#: the RNG identity: changing it changes every sampled number.
CHUNK_TRIALS = 4096

#: Detection amplitudes per block of a chunk's arithmetic (72 kB of
#: complex128): a block holds BLOCK_AMPLITUDES // len(outcomes) trials, 128
#: for a pair and 768 for fig1. Blocks change no draw. They keep the kernel's
#: arrays below the C allocator's 128 kB mmap threshold, so that their memory
#: is reused rather than mapped and page-faulted in afresh for every chunk,
#: and its matrix products small enough that BLAS runs them on the calling
#: thread rather than waking its worker threads.
BLOCK_AMPLITUDES = 4608

RNG_IDENTITY = f"numpy-philox4x64 keyed (seed, chunk), {CHUNK_TRIALS}-trial chunks"

#: Seeds are Philox key words: integers in [0, 2**64).
SEED_LIMIT = 2**64

PHASE_RANDOM = "random"


class ConfigError(ValueError):
    """A session configuration failed validation."""


@dataclass(frozen=True)
class ChannelSpec:
    """Quantum-channel noise between Alice and Bob.

    kind: "none" | "collective" | "independent" | "loss".
    phi: fixed collective dephasing phase, or None for uniform per trial.
    loss: per-photon loss probability (kind == "loss" only).
    """

    kind: str = "none"
    phi: float | None = None
    loss: float = 0.0

    def validate(self) -> None:
        if self.kind not in ("none", "collective", "independent", "loss"):
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if self.kind == "loss" and not 0.0 <= self.loss <= 1.0:
            raise ConfigError(f"loss probability must be in [0, 1], got {self.loss}")
        if self.phi is not None and not math.isfinite(self.phi):
            raise ConfigError("channel phi must be finite")

    def describe(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "collective":
            doc["phi"] = "random" if self.phi is None else self.phi
        if self.kind == "loss":
            doc["loss"] = self.loss
        return doc


@dataclass(frozen=True)
class SessionConfig:
    scheme: SchemeId
    trials: int
    seed: int
    phase: float | str = 0.0  # interferometer phase, or "random" per trial
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    eavesdropper: str = "off"  # "off" | "intercept_resend"

    def validate(self) -> None:
        try:
            SchemeId(self.scheme)
        except ValueError:
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if isinstance(self.phase, str):
            if self.phase != PHASE_RANDOM:
                raise ConfigError(f"phase must be a number or 'random', got {self.phase!r}")
        elif not math.isfinite(self.phase):
            raise ConfigError("phase must be finite")
        if self.eavesdropper not in ("off", "intercept_resend"):
            raise ConfigError(f"unknown eavesdropper mode {self.eavesdropper!r}")
        self.channel.validate()

    def describe(self) -> dict:
        return {
            "scheme": SchemeId(self.scheme).value,
            "trials": self.trials,
            "seed": self.seed,
            "phase": self.phase,
            "channel": self.channel.describe(),
            "eavesdropper": self.eavesdropper,
        }


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    alice_index: int
    outcome_label: str  # raw detection pattern, or "lost"
    conclusive: bool
    basis: str  # Bob's announced basis, "" when inconclusive or lost
    bit_alice: int | None
    bit_bob: int | None
    kept: bool

    @property
    def verdict(self) -> str:
        if self.outcome_label == "lost":
            return "lost"
        return "conclusive" if self.conclusive else "inconclusive"


@dataclass
class SessionStats:
    config: SessionConfig
    trials: int
    sifted: int
    errors: int
    histogram: dict  # outcome label -> count
    signal_sent: dict  # index -> count
    signal_kept: dict  # index -> count

    @property
    def sifted_rate(self) -> float:
        return self.sifted / self.trials

    @property
    def qber(self) -> float:
        return self.errors / self.sifted if self.sifted else 0.0


# --- scalar reference path -----------------------------------------------------

def apply_channel(
    state: ModeState, channel: ChannelSpec, rng: np.random.Generator, two_photon: bool
) -> ModeState | None:
    """Pass a state through the configured channel; None means the trial is lost."""
    if channel.kind == "none":
        return state
    if channel.kind == "loss":
        n_photons = 2 if two_photon else 1
        for _ in range(n_photons):
            if rng.random() < channel.loss:
                return None
        return state
    if channel.kind == "collective":
        phi = rng.uniform(0.0, TWO_PI) if channel.phi is None else channel.phi
        return collective_dephase(state, phi) if two_photon else dephase_single(state, phi)
    # independent: a fresh uniform phase per photon
    if two_photon:
        return independent_dephase(state, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
    return dephase_single(state, rng.uniform(0.0, TWO_PI))


def _measure(
    scheme: SchemeId, state: ModeState, phi: float, beta: float | None, rng: np.random.Generator
) -> tuple[ClassifiedOutcome, str]:
    """Bob's (or Eve's) apparatus: optional modulator, MZI, detection, verdict."""
    if scheme is SchemeId.FIG1_SINGLE_PHOTON:
        outcome = born_sample(mzi_single(state, phi), rng)
        return classify_fig1(outcome), outcome.label
    if scheme is SchemeId.OWA_FOUR_PHASE:
        assert beta is not None
        state = phase_modulator(state, beta, photon=1, bin="L")
        outcome = born_sample(mzi_pair(state, phi), rng)
        return classify_owa(outcome, beta), outcome.label
    outcome = born_sample(mzi_pair(state, phi), rng)
    return classify_combined(outcome), outcome.label


def intercept_resend(
    state: ModeState, scheme: SchemeId, rng: np.random.Generator
) -> ModeState:
    """Eve measures with Bob's apparatus (her MZI held at φ=0) and resends.

    On a conclusive verdict she resends the signal state matching it; on an
    inconclusive verdict she resends a uniformly chosen signal state.
    """
    beta = float(rng.choice(OWA_BETAS)) if scheme is SchemeId.OWA_FOUR_PHASE else None
    verdict, _ = _measure(scheme, state, 0.0, beta, rng)
    if verdict.conclusive:
        index = INDEX_FOR[(verdict.basis, verdict.bit)]
    else:
        index = int(rng.integers(1, 5))
    return signal_state(scheme, index).state


# --- batched kernel ------------------------------------------------------------

@dataclass(frozen=True)
class _CodeTable:
    """Lookup tables over a scheme's trial codes.

    code = (alice·S + setting)·(O + 1) + outcome, with alice = index − 1, S
    Bob's modulator settings, O outcomes and outcome O meaning "lost"; so
    code counts reshape to a 4 × S × (O + 1) grid.
    """

    scheme: Scheme
    fields: tuple[tuple, ...]  # per code: the TrialRecord fields after `trial`
    rows: tuple[str, ...]  # per code: its trace CSV row after "trial,"
    kept: np.ndarray  # 4 × S × (O + 1) bool
    error: np.ndarray  # 4 × S × (O + 1) bool: kept with bit_alice != bit_bob


def _trace_fields(r: TrialRecord) -> list:
    return [
        r.trial,
        r.alice_index,
        r.outcome_label,
        r.verdict,
        r.basis,
        "" if r.bit_alice is None else r.bit_alice,
        "" if r.bit_bob is None else r.bit_bob,
        int(r.kept),
    ]


def _csv_line(fields: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


@lru_cache(maxsize=None)
def _code_table(scheme_id: SchemeId) -> _CodeTable:
    """Built once per scheme from its Scheme record and `sift`."""
    scheme = scheme_tables(scheme_id)
    fields = []
    for index in (1, 2, 3, 4):
        alice = signal_state(scheme.id, index)
        for verdicts in scheme.verdicts:
            for outcome, verdict in zip(scheme.outcomes, verdicts):
                result = sift(alice, verdict)
                fields.append((
                    index, outcome.label, verdict.conclusive, verdict.basis or "",
                    result.bit_alice, result.bit_bob, result.kept,
                ))
            fields.append((index, "lost", False, "", None, None, False))
    shape = (4, len(scheme.betas), len(scheme.outcomes) + 1)
    kept = np.array([f[6] for f in fields]).reshape(shape)
    error = np.array([f[6] and f[4] != f[5] for f in fields]).reshape(shape)
    rows = tuple(_csv_line(_trace_fields(TrialRecord(0, *f))[1:]) for f in fields)
    return _CodeTable(scheme, tuple(fields), rows, kept, error)


def detection_amplitudes(
    scheme: Scheme, sent: np.ndarray, setting: np.ndarray, diagonal: np.ndarray | None, phi
) -> np.ndarray:
    """Amplitudes over scheme.outcomes, one column per trial.

    Trial k sends signal sent[k] + 1 through the channel's diagonal[:, k]
    (None: no dephasing) and Bob's modulator at setting[k], into the
    interferometer at phase phi, or phi[k] when phi is an array.
    """
    amps = scheme.signals[sent, setting].T
    if diagonal is not None:
        amps = amps * diagonal
    return mzi_batch(amps, phi)


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))


def _settings(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Uniform modulator settings; no draw when there is only one."""
    return rng.integers(0, count, n) if count > 1 else np.zeros(n, dtype=np.intp)


def _channel_draws(
    channel: ChannelSpec, photons: int, rng: np.random.Generator, n: int
) -> tuple[np.ndarray | None, tuple[np.ndarray, ...] | None]:
    """(lost mask, dephasing phase per photon), each None when the channel has none."""
    if channel.kind == "none":
        return None, None
    if channel.kind == "loss":
        return (rng.random((n, photons)) < channel.loss).any(axis=1), None
    if channel.kind == "collective" and channel.phi is not None:
        phi1 = np.full(n, float(channel.phi))
    else:
        phi1 = rng.uniform(0.0, TWO_PI, n)
    if photons == 1:
        return None, (phi1,)
    phi2 = phi1 if channel.kind == "collective" else rng.uniform(0.0, TWO_PI, n)
    return None, (phi1, phi2)


def _run_chunk(config: SessionConfig, table: _CodeTable, chunk: int) -> np.ndarray:
    """The trial codes of one chunk of the session.

    The chunk's draws are all made first, in a fixed order; the amplitudes
    and samples are then computed a block of trials at a time.
    """
    rng = _chunk_rng(config.seed, chunk)
    n = min(CHUNK_TRIALS, config.trials - chunk * CHUNK_TRIALS)
    scheme = table.scheme
    n_settings, n_outcomes = len(scheme.betas), len(scheme.outcomes)

    alice = rng.integers(0, 4, n)  # signal index - 1
    eve = None
    if config.eavesdropper == "intercept_resend":
        # Her setting and uniform draw, and the index she resends when inconclusive.
        eve = (_settings(rng, n_settings, n), rng.random(n), rng.integers(0, 4, n))
    lost, phases = _channel_draws(config.channel, scheme.photons, rng, n)
    phi = rng.uniform(0.0, TWO_PI, n) if config.phase == PHASE_RANDOM else float(config.phase)
    setting = _settings(rng, n_settings, n)
    u = rng.random(n)

    outcome = np.empty(n, dtype=np.intp)
    block = BLOCK_AMPLITUDES // n_outcomes
    for start in range(0, n, block):
        b = slice(start, start + block)
        sent = alice[b]
        if eve is not None:
            # Bob's apparatus at φ = 0; resend the named state, or a uniform one.
            eve_setting, eve_u, fallback = (a[b] for a in eve)
            amps = detection_amplitudes(scheme, sent, eve_setting, None, 0.0)
            named = scheme.announced[eve_setting, born_sample_batch(amps, eve_u)]
            sent = np.where(named > 0, named - 1, fallback)
        diagonal = None if phases is None else dephasing_diagonal(*(p[b] for p in phases))
        amps = detection_amplitudes(
            scheme, sent, setting[b], diagonal, phi if np.ndim(phi) == 0 else phi[b]
        )
        outcome[b] = born_sample_batch(amps, u[b])
    if lost is not None:
        outcome[lost] = n_outcomes
    return ((alice * n_settings + setting) * (n_outcomes + 1) + outcome).astype(np.uint16)


class TrialRecords(Sequence):
    """A session's trials, one TrialRecord each, built from its code when read."""

    def __init__(self, table: _CodeTable, codes: np.ndarray):
        self._table = table
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[t] for t in range(len(self))[i]]
        trial = range(len(self))[i]  # negative indices, and IndexError past the end
        return TrialRecord(trial, *self._table.fields[self._codes[trial]])

    def __iter__(self):
        fields = self._table.fields
        for trial, code in enumerate(self._codes.tolist()):
            yield TrialRecord(trial, *fields[code])

    def csv_rows(self) -> str:
        """The trace CSV body: one row per trial, without the header."""
        rows = self._table.rows
        return "".join([f"{t},{rows[c]}" for t, c in enumerate(self._codes.tolist())])


def run_session(
    config: SessionConfig, workers: int = 1
) -> tuple[SessionStats, TrialRecords]:
    """Run a full session; deterministic for a given config, any worker count.

    workers > 1 runs the chunks on that many threads; the results do not change.
    """
    config.validate()
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    table = _code_table(SchemeId(config.scheme))
    chunks = range(-(-config.trials // CHUNK_TRIALS))

    def run(chunk: int) -> np.ndarray:
        return _run_chunk(config, table, chunk)

    if workers == 1 or len(chunks) == 1:
        parts = [run(k) for k in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(run, chunks))
    codes = np.concatenate(parts)

    counts = np.bincount(codes, minlength=table.kept.size).reshape(table.kept.shape)
    labels = [o.label for o in table.scheme.outcomes] + ["lost"]
    sent = counts.sum(axis=(1, 2))
    kept = (counts * table.kept).sum(axis=(1, 2))
    stats = SessionStats(
        config=config,
        trials=config.trials,
        sifted=int(kept.sum()),
        errors=int(counts[table.error].sum()),
        histogram={
            labels[o]: int(c) for o, c in enumerate(counts.sum(axis=(0, 1))) if c
        },
        signal_sent={i + 1: int(c) for i, c in enumerate(sent) if c},
        signal_kept={i + 1: int(c) for i, c in enumerate(kept) if c},
    )
    return stats, TrialRecords(table, codes)


# --- serialization -----------------------------------------------------------

def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{x:.12g}")


def stats_document(stats: SessionStats) -> dict:
    per_signal = {
        str(i): {
            "sent": stats.signal_sent.get(i, 0),
            "kept": stats.signal_kept.get(i, 0),
            "success_rate": _sig12(
                stats.signal_kept.get(i, 0) / stats.signal_sent.get(i, 1)
                if stats.signal_sent.get(i, 0)
                else 0.0
            ),
        }
        for i in (1, 2, 3, 4)
    }
    return {
        "scheme": SchemeId(stats.config.scheme).value,
        "config": stats.config.describe(),
        "trials": stats.trials,
        "sifted": stats.sifted,
        "errors": stats.errors,
        "sifted_rate": _sig12(stats.sifted_rate),
        "qber": _sig12(stats.qber),
        "histogram": {k: stats.histogram[k] for k in sorted(stats.histogram)},
        "per_signal": per_signal,
        "rng": RNG_IDENTITY,
        "version": __version__,
    }


def stats_json(stats: SessionStats) -> str:
    return json.dumps(stats_document(stats), indent=2, sort_keys=True)


TRACE_COLUMNS = (
    "trial",
    "alice_index",
    "outcome_label",
    "verdict",
    "basis",
    "bit_alice",
    "bit_bob",
    "kept",
)


def trace_csv(records: TrialRecords) -> str:
    """The per-trial CSV trace of a session: a header, then one row per trial."""
    return _csv_line(list(TRACE_COLUMNS)) + records.csv_rows()


def config_from_dict(doc: dict) -> SessionConfig:
    """Build a SessionConfig from a parsed JSON document (the CLI --config format)."""
    channel_doc = doc.get("channel", {"kind": "none"})
    if isinstance(channel_doc, str):
        channel_doc = {"kind": channel_doc}
    phi = channel_doc.get("phi")
    channel = ChannelSpec(
        kind=channel_doc.get("kind", "none"),
        phi=None if phi in (None, "random") else float(phi),
        loss=float(channel_doc.get("loss", 0.0)),
    )
    phase = doc.get("phase", 0.0)
    return SessionConfig(
        scheme=SchemeId(doc["scheme"]),
        trials=int(doc["trials"]),
        seed=int(doc["seed"]),
        phase=phase if phase == PHASE_RANDOM else float(phase),
        channel=channel,
        eavesdropper=doc.get("eavesdropper", "off"),
    )
