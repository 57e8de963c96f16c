"""Monte-Carlo key-distribution sessions.

A session runs `trials` independent rounds: Alice draws a uniform signal
index, the state crosses an optional intercept-resend eavesdropper and an
optional noise channel, Bob's interferometer and detectors sample an
outcome, and matched conclusive rounds enter the sifted key.

The rounds run as a batched kernel over chunks of CHUNK_TRIALS trials. A
chunk makes its random draws, then runs a few array operations on its
scheme's tables (`_kernel`), and each trial leaves one small integer code
that fixes Alice's index, Bob's modulator setting and the outcome ("lost"
included). The statistics, the records and the trace are derived from the
codes.

Every trial's outcome law depends on one relative phase θ: the phase on
the late bin of the last photon, with the interferometer at 0. Every `owa`
and `combined` signal, and every state Eve resends, lies in
span{|EL⟩, |LE⟩}. In that decoherence-free subspace the interferometer
phase φ and a collective dephasing phase multiply |EL⟩ and |LE⟩ alike, so
they are a global phase and drop out of every outcome probability. So
θ = 0 for a pair behind no channel, loss or collective dephasing, and for
Eve's measurements; θ = φ₂ − φ₁ for a pair behind independent dephasing;
and θ = φ_c − φ, the channel's phase less the interferometer's, for
`fig1`. `_phase_draws` makes the draws that set θ, and no other code
applies this rule.

Each scheme has one record, `_kernel(scheme)`, built from `protocols`
(signal states, classify_*, sift) and `optics`: its signal rows, the
signal index each verdict names, the lookups over its trial codes, and its
phase window, the rows as x·e^{iθ} + y, where θ moves only the outcomes
where x and y interfere. The window lo..hi that holds them is 1..2 (the
middle slot) for `fig1`, and 7..14 for pairs, whose both-middle outcomes
are 7, 8, 13 and 14. Its table is the scheme's only θ = 0 table. A
session that shares one θ is sampled by lookup in `born_table(scheme, θ)`;
a trial with its own θ is looked up in the θ = 0 table, and only one that
lands in the window has the window's CDF computed at its θ
(`qstate.PhaseWindow`).

Both samplers compare u·total with the trial's CDF, as the inverse-CDF
reference of `tests/oracles.py` does on the trial's own detection
amplitudes, and their CDFs differ from that one only by roundoff; the
tests hold them to it. The kernel as a whole is checked against the scalar
ModeState path through the exact session expectations of the same file.

Determinism contract: chunk k draws from its own Philox counter-based
stream keyed by (seed, k), in the style of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11). Each thread holds one Philox
Generator, made on its first session and re-keyed to (seed, k) for every
chunk, which starts it where a new Generator keyed so would start; so
sessions in different threads share no generator. Every chunk takes all of
its draws from the stream in a fixed order, so each draw has a fixed
position. A draw that the trial's path cannot read (φ, and a collective
phase, of a pair scheme) is skipped by advancing the counter, with every
stream position unchanged; small integers are read off raw words where that
gives the values `Generator.integers` gives. One config therefore gives
byte-identical stats and traces.
"""
from __future__ import annotations

import csv
import io
import json
import math
import numbers
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .optics import DETECTION_BASIS, JOINT_BASIS, TWO_PI, _mzi_matrices, phase_modulator, wrap_phase
from .protocols import (
    INDEX_FOR, OWA_BETAS, SchemeId, classify_combined, classify_fig1, classify_owa, sift,
    signal_state,
)
from .qstate import BornTable, PhaseWindow

#: Trials per chunk; each chunk owns one Philox stream, so this is part of
#: the RNG identity: changing it changes every sampled number.
CHUNK_TRIALS = 4096

RNG_IDENTITY = f"numpy-philox4x64 keyed (seed, chunk), {CHUNK_TRIALS}-trial chunks"

#: Seeds are Philox key words: integers in [0, 2**64).
SEED_LIMIT = 2**64

PHASE_RANDOM = "random"
EXPECTED_PHASE = f"a number or {PHASE_RANDOM!r}"


class ConfigError(ValueError):
    """A session configuration failed validation."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, what: str, expected: str = "a number") -> float:
    if not _is_real(value):
        raise ConfigError(f"{what} must be {expected}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is out of range") from None


#: The fields of each channel kind, in its config document and its ChannelSpec.
CHANNEL_FIELDS = {
    "none": ("kind",),
    "collective": ("kind", "phi"),
    "independent": ("kind",),
    "loss": ("kind", "loss"),
}


@dataclass(frozen=True)
class ChannelSpec:
    """Quantum-channel noise between Alice and Bob.

    kind: "none" | "collective" | "independent" | "loss".
    phi: fixed collective dephasing phase, or None for uniform per trial
         (kind == "collective" only).
    loss: per-photon loss probability (kind == "loss" only).
    """

    kind: str = "none"
    phi: float | None = None
    loss: float = 0.0

    def validate(self) -> None:
        fields = CHANNEL_FIELDS.get(self.kind) if isinstance(self.kind, str) else None
        if fields is None:
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if self.phi is not None:
            if "phi" not in fields:
                raise ConfigError(f"channel phi applies to kind 'collective', not {self.kind!r}")
            if not math.isfinite(_number(self.phi, "channel phi")):
                raise ConfigError(f"channel phi must be finite, got {self.phi!r}")
        if not _is_real(self.loss):
            raise ConfigError(f"loss probability must be a number, got {self.loss!r}")
        if "loss" in fields:
            if not 0.0 <= self.loss <= 1.0:
                raise ConfigError(f"loss probability must be in [0, 1], got {self.loss}")
        elif self.loss != 0.0:
            raise ConfigError(f"channel loss applies to kind 'loss', not {self.kind!r}")

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
        except (ValueError, TypeError):
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.phase != PHASE_RANDOM:
            if not math.isfinite(_number(self.phase, "phase", EXPECTED_PHASE)):
                raise ConfigError("phase must be finite")
        if self.eavesdropper not in ("off", "intercept_resend"):
            raise ConfigError(f"unknown eavesdropper mode {self.eavesdropper!r}")
        if not isinstance(self.channel, ChannelSpec):
            raise ConfigError(f"channel must be a ChannelSpec, got {self.channel!r}")
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


# --- batched kernel ------------------------------------------------------------

@dataclass(frozen=True)
class _Kernel:
    """A scheme's one record: its tables, its phase window, and lookups over its trial codes.

    code = (alice·S + setting)·(O + 1) + outcome, with alice = index − 1, S
    Bob's modulator settings, O outcomes and outcome O meaning "lost"; so
    code counts reshape to a 4 × S × (O + 1) grid.
    """

    id: SchemeId
    photons: int
    betas: tuple[float, ...]  # Bob's modulator settings, S of them; (0.0,) for a passive scheme
    outcomes: tuple  # the O outcomes of the detection basis the interferometer maps onto
    signals: np.ndarray  # 4·S × d: row (index − 1)·S + setting, after Bob's (diagonal) modulator
    announced: np.ndarray  # S·O, at setting·O + outcome: the index Bob's verdict names, or 0
    window: PhaseWindow  # over θ; window.table is the scheme's θ = 0 Born table
    labels: tuple[str, ...]  # per outcome, "lost" last
    fields: tuple[tuple, ...]  # per code: the TrialRecord fields after `trial`
    rows: tuple[str, ...]  # per code: its trace CSV row after "trial,"
    tally: np.ndarray  # 0/1 per code: counts @ tally = errors, sent[4], kept[4], histogram[O + 1]


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


def _signal_rows(signals: np.ndarray, late: complex) -> np.ndarray:
    """Detection amplitudes of signal rows at φ = 0, the last photon's late bin times `late`."""
    photons = signals.shape[1] // 2
    diagonal = np.tile([1, late], photons)[:, None]  # over (E, L), or (EE, EL, LE, LL)
    return _mzi_matrices(0.0)[photons - 1] @ (signals.T * diagonal)


@lru_cache(maxsize=None)
def _kernel(scheme: SchemeId | str) -> _Kernel:
    """Built once per scheme from signal_state, phase_modulator, classify_*, INDEX_FOR and sift.

    The window is built at late = ±1.0 exactly (θ = 0 and π), so its bounds
    and still entries carry no roundoff of e^{iπ}.
    """
    scheme_id = SchemeId(scheme)
    if scheme is not scheme_id:  # "owa" is a cache key apart from its SchemeId: share one record
        return _kernel(scheme_id)
    single = scheme_id is SchemeId.FIG1_SINGLE_PHOTON
    alices = [signal_state(scheme_id, index) for index in (1, 2, 3, 4)]
    if scheme_id is SchemeId.OWA_FOUR_PHASE:
        betas, outcomes = OWA_BETAS, JOINT_BASIS
        signals = np.array([
            phase_modulator(a.state, beta, photon=1, bin="L").amplitudes
            for a in alices for beta in betas
        ])
        verdicts = [[classify_owa(o, beta) for o in outcomes] for beta in betas]
    else:
        betas, outcomes = (0.0,), DETECTION_BASIS if single else JOINT_BASIS
        signals = np.array([a.state.amplitudes for a in alices])
        verdicts = [[(classify_fig1 if single else classify_combined)(o) for o in outcomes]]
    announced = np.array([INDEX_FOR[v.basis, v.bit] if v.conclusive else 0
                          for row in verdicts for v in row])
    window = PhaseWindow.from_amplitudes(_signal_rows(signals, 1.0), _signal_rows(signals, -1.0))
    fields = []
    for alice in alices:
        for row in verdicts:
            for outcome, verdict in zip(outcomes, row):
                result = sift(alice, verdict)
                fields.append((
                    alice.index, outcome.label, verdict.conclusive, verdict.basis or "",
                    result.bit_alice, result.bit_bob, result.kept,
                ))
            fields.append((alice.index, "lost", False, "", None, None, False))
    labels = tuple(o.label for o in outcomes) + ("lost",)
    sent = np.array([f[0] for f in fields])[:, None] == np.arange(1, 5)
    kept = sent & np.array([f[6] for f in fields])[:, None]
    outcome = np.arange(len(fields))[:, None] % len(labels) == np.arange(len(labels))
    errors = [f[6] and f[4] != f[5] for f in fields]  # kept, with bit_alice != bit_bob
    tally = np.column_stack([errors, sent, kept, outcome]).astype(np.intp)
    rows = tuple(_csv_line(_trace_fields(TrialRecord(0, *f))[1:]) for f in fields)
    return _Kernel(scheme_id, 1 if single else 2, betas, outcomes, signals, announced, window,
                   labels, tuple(fields), rows, tally)


def born_table(scheme_id: SchemeId, theta: float) -> BornTable:
    """The Born table of a scheme's 4 × S signal rows at relative phase theta.

    theta is the phase on the late bin of the last photon, with the
    interferometer at 0 (`_signal_rows`); the module docstring says which θ
    each trial has. At a wrapped theta of 0 this is the table of the
    scheme's phase window, held once in `_kernel`; other tables are cached
    per (scheme, wrapped theta).
    """
    scheme_id, theta = SchemeId(scheme_id), wrap_phase(float(theta))
    return _kernel(scheme_id).window.table if theta == 0.0 else _born_table(scheme_id, theta)


@lru_cache(maxsize=128)
def _born_table(scheme_id: SchemeId, theta: float) -> BornTable:
    return BornTable.from_amplitudes(_signal_rows(_kernel(scheme_id).signals, np.exp(1j * theta)))


#: 64-bit words in one Philox block: one counter value's output.
_PHILOX_WORDS = 4


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))


_thread = threading.local()  # .rng: the thread's Philox Generator, made on its first session


def _rekey(rng: np.random.Generator, seed: int, chunk: int) -> None:
    """Put a Philox Generator where _chunk_rng(seed, chunk) starts, cheaper than a new one."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0,) * _PHILOX_WORDS, "key": (seed, chunk)},
        "buffer": (0,) * _PHILOX_WORDS,
        "buffer_pos": _PHILOX_WORDS,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _skip(rng: np.random.Generator, k: int) -> None:
    """Move rng past k uniform doubles that nothing reads, as rng.random(k) would.

    Philox is counter-based, and each double takes one 64-bit word. With no
    buffered word left (buffer_pos at the end), no uint32 half held and k a
    whole number of blocks, the k draws are a counter advance; otherwise
    they are drawn. Either way every later draw is the same (advance also
    zeroes the spent buffer words and the stale half, which no draw reads).
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    spent = state["buffer_pos"] == _PHILOX_WORDS and not state["has_uint32"]
    if spent and k % _PHILOX_WORDS == 0:
        bit_generator.advance(k // _PHILOX_WORDS)
    else:
        rng.random(k)


def _integers(rng: np.random.Generator, high: int, n: int) -> np.ndarray:
    """rng.integers(0, high, n), read off raw words when high is a power of two >= 2.

    integers applies Lemire's method to next_uint32, which never rejects
    when high is a power of two: each value is the top log2(high) bits of
    one uint32. Philox's next_uint32 returns a word's low half, then its high
    half, so with no half held and n even the uint32s are random_raw(n // 2)
    read as little-endian pairs. Otherwise the values are drawn by integers.
    """
    bit_generator = rng.bit_generator
    if high > 1 and high & (high - 1) == 0 and n % 2 == 0 and not bit_generator.state["has_uint32"]:
        halves = bit_generator.random_raw(n // 2).astype("<u8", copy=False).view("<u4")
        return halves >> (33 - high.bit_length())
    return rng.integers(0, high, n)


def _settings(rng: np.random.Generator, count: int, n: int) -> np.ndarray | None:
    """Uniform modulator settings; None (setting 0 for every trial, no draw) when there is one."""
    return _integers(rng, count, n) if count > 1 else None


def _flat(major: np.ndarray, minor: np.ndarray | None, width: int) -> np.ndarray:
    """major·width + minor, the flat index into a grid `width` wide; major itself for minor None."""
    return major if minor is None else major * width + minor


def _phase_draws(
    config: SessionConfig, photons: int, rng: np.random.Generator, n: int
) -> tuple[np.ndarray | None, float | np.ndarray]:
    """(lost mask, θ): the channel's draws, then the interferometer's, in that order.

    θ is the one relative phase that reaches the outcome (module docstring):
    a float when the whole session shares it, else one value per trial. The
    mask is None without loss. Loss draws one uniform per photon and trial;
    random dephasing one phase per trial, collective, or per photon,
    independent; a random φ one phase per trial. A pair's φ and collective
    phase are global, so no trial reads them: they are skipped by advancing
    the stream (`_skip`), and every later draw keeps its position.
    """
    pair = photons == 2

    def uniform_phase():
        """One phase per trial, or a pair's global phase: 0.0, with its draw skipped."""
        if pair:
            _skip(rng, n)
            return 0.0
        return rng.uniform(0.0, TWO_PI, n)

    channel = config.channel
    lost, theta = None, 0.0
    if channel.kind == "loss":
        draws = rng.random((n, photons))
        lost = draws[:, 0] < channel.loss
        for photon in range(1, photons):
            lost |= draws[:, photon] < channel.loss
    elif channel.kind == "independent":
        theta = rng.uniform(0.0, TWO_PI, n)
        if pair:
            theta = rng.uniform(0.0, TWO_PI, n) - theta  # φ₂ − φ₁
    elif channel.kind == "collective":
        if channel.phi is None:
            theta = uniform_phase()
        elif not pair:
            theta = float(channel.phi)
    if config.phase == PHASE_RANDOM:
        phi = uniform_phase()
    else:
        phi = 0.0 if pair else float(config.phase)
    return lost, theta if pair else theta - phi


def _session_codes(config: SessionConfig, kernel: _Kernel) -> np.ndarray:
    """The session's trial codes, each chunk's drawn from this thread's Generator re-keyed to it.

    A chunk's draws are all made first, in a fixed order. Every trial is
    then sampled from the Born table at the session's θ, which is the same
    in every chunk, or from the phase window at its own θ (see the module
    docstring).
    """
    if not hasattr(_thread, "rng"):
        _thread.rng = _chunk_rng(0, 0)
    rng, table, parts = _thread.rng, None, []
    n_settings, n_outcomes = len(kernel.betas), len(kernel.outcomes)
    for chunk in range(-(-config.trials // CHUNK_TRIALS)):
        _rekey(rng, config.seed, chunk)
        n = min(CHUNK_TRIALS, config.trials - chunk * CHUNK_TRIALS)
        alice = _integers(rng, 4, n)  # signal index - 1
        eve = None
        if config.eavesdropper == "intercept_resend":
            # Her setting and uniform draw, and the index she resends when inconclusive.
            eve = (_settings(rng, n_settings, n), rng.random(n), _integers(rng, 4, n))
        lost, theta = _phase_draws(config, kernel.photons, rng, n)
        setting = _settings(rng, n_settings, n)
        u = rng.random(n)
        sent = alice
        if eve is not None:
            # Bob's apparatus at θ = 0; resend the named state, or a uniform one.
            eve_setting, eve_u, fallback = eve
            eve_row = _flat(alice, eve_setting, n_settings)
            eve_outcome = kernel.window.table.sample(eve_row, eve_u)
            seen = eve_outcome if eve_setting is None else eve_setting * n_outcomes + eve_outcome
            named = kernel.announced[seen]
            sent = np.where(named > 0, named - 1, fallback)
        row = _flat(sent, setting, n_settings)
        if isinstance(theta, np.ndarray):
            outcome = kernel.window.sample(row, theta, u)
        else:  # the session's one θ, and so its one table
            table = table or born_table(kernel.id, theta)
            outcome = table.sample(row, u)
        if lost is not None:
            outcome[lost] = n_outcomes
        code = _flat(alice, setting, n_settings) * (n_outcomes + 1) + outcome
        parts.append(code.astype(np.uint16))
    return np.concatenate(parts)


class TrialRecords(Sequence):
    """A session's trials, one TrialRecord each, built from its code when read."""

    def __init__(self, kernel: _Kernel, codes: np.ndarray):
        self._kernel = kernel
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[t] for t in range(len(self))[i]]
        trial = range(len(self))[i]  # negative indices, and IndexError past the end
        return TrialRecord(trial, *self._kernel.fields[self._codes[trial]])

    def __iter__(self):
        fields = self._kernel.fields
        for trial, code in enumerate(self._codes.tolist()):
            yield TrialRecord(trial, *fields[code])

    def csv_rows(self) -> str:
        """The trace CSV body: one row per trial, without the header."""
        rows = self._kernel.rows
        return "".join([f"{t},{rows[c]}" for t, c in enumerate(self._codes.tolist())])


def run_session(config: SessionConfig) -> tuple[SessionStats, TrialRecords]:
    """Run a full session; deterministic for a given config."""
    config.validate()
    kernel = _kernel(SchemeId(config.scheme))
    codes = _session_codes(config, kernel)
    sums = (np.bincount(codes, minlength=len(kernel.tally)) @ kernel.tally).tolist()
    errors, sent, kept, histogram = sums[0], sums[1:5], sums[5:9], sums[9:]
    stats = SessionStats(
        config=config,
        trials=config.trials,
        sifted=sum(kept),
        errors=errors,
        histogram={label: c for label, c in zip(kernel.labels, histogram) if c},
        signal_sent={i: c for i, c in enumerate(sent, 1) if c},
        signal_kept={i: c for i, c in enumerate(kept, 1) if c},
    )
    return stats, TrialRecords(kernel, codes)


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


def _json(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) with each "\n" replaced by `newline`.

    Dicts with str keys, strs, ints and finite floats are written as the
    stdlib writes them; any other value is handed to json.dumps.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is dict and value:
        inner = newline + "  "
        try:  # _quote raises on a key that is not a str, and the dict is handed on
            items = [f"{inner}{_quote(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
            return "{" + ",".join(items) + newline + "}"
        except TypeError:
            pass
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def stats_json(stats: SessionStats) -> str:
    """The stats document, byte for byte as json.dumps(doc, indent=2, sort_keys=True) writes it."""
    return _json(stats_document(stats))


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


#: The keys of a config document: the required ones, then the optional ones.
REQUIRED_KEYS = ("scheme", "trials", "seed")
CONFIG_KEYS = REQUIRED_KEYS + ("phase", "channel", "eavesdropper")


def _check_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown {where} key(s) {', '.join(map(repr, unknown))}; expected {', '.join(allowed)}"
        )


def config_from_dict(doc) -> SessionConfig:
    """Build a SessionConfig from a parsed JSON document (the CLI --config format).

    Raises ConfigError for anything but an object with the required keys,
    known keys only, and the fields of its channel's kind, or for a value it
    cannot convert (a scheme, a channel kind, a number); the SessionConfig's
    validate() then checks every value's type and range.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
    _check_keys(doc, CONFIG_KEYS, "config")
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"config is missing {', '.join(missing)}")
    try:
        scheme = SchemeId(doc["scheme"])
    except (ValueError, TypeError):
        raise ConfigError(f"unknown scheme {doc['scheme']!r}") from None

    channel_doc = doc.get("channel", {"kind": "none"})
    if isinstance(channel_doc, str):
        channel_doc = {"kind": channel_doc}
    if not isinstance(channel_doc, dict):
        raise ConfigError(f"channel must be an object or a kind name, got {channel_doc!r}")
    kind = channel_doc.get("kind", "none")
    if not isinstance(kind, str) or kind not in CHANNEL_FIELDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    _check_keys(channel_doc, CHANNEL_FIELDS[kind], f"{kind!r} channel")
    phi = channel_doc.get("phi")
    channel = ChannelSpec(
        kind=kind,
        phi=None if phi in (None, PHASE_RANDOM) else _number(phi, "channel phi", EXPECTED_PHASE),
        loss=_number(channel_doc.get("loss", 0.0), "channel loss"),
    )
    phase = doc.get("phase", 0.0)
    return SessionConfig(
        scheme=scheme,
        trials=doc["trials"],
        seed=doc["seed"],
        phase=phase if phase == PHASE_RANDOM else _number(phase, "phase", EXPECTED_PHASE),
        channel=channel,
        eavesdropper=doc.get("eavesdropper", "off"),
    )
