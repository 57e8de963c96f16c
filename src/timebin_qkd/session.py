"""Monte-Carlo key-distribution sessions.

A session runs `trials` independent rounds: Alice draws a uniform signal
index, the state crosses an optional intercept-resend eavesdropper and an
optional noise channel, Bob's interferometer and detectors sample an
outcome, and matched conclusive rounds enter the sifted key.

The rounds run as a batched kernel. The draws are made per chunk of
CHUNK_TRIALS trials, each chunk from its own stream (below). The sampling
runs once per block of BLOCK_CHUNKS chunks, whatever the config: a few
array operations over the block's trials on its scheme's tables
(`_kernel`). Each trial leaves one small integer code that fixes Alice's
index, Bob's modulator setting and the outcome ("lost" included). The
statistics, the records and the trace are derived from the codes. Every
trial is sampled from its own word alone, so the block size is not part
of the RNG identity: it changes no code, only how many trials each array
operation covers.

Every trial's outcome law depends on one relative phase θ: the phase on
the late bin of the last photon, with the interferometer at 0. Every `owa`
and `combined` signal, and every state Eve resends, lies in
span{|EL⟩, |LE⟩}. In that decoherence-free subspace the interferometer
phase φ and a collective dephasing phase multiply |EL⟩ and |LE⟩ alike, so
they are a global phase and drop out of every outcome probability. So
θ = 0 for a pair behind no channel, loss or collective dephasing, and for
Eve's measurements; θ = φ₂ − φ₁ for a pair behind independent dephasing;
and θ = φ_c − φ, the channel's phase less the interferometer's, for
`fig1`. Only θ mod 2π reaches the law. Where a phase is uniform per trial
(a pair behind independent dephasing, `fig1` at a random φ or behind
random or independent dephasing), so is θ mod 2π, and no output reports
it: each outcome then has its θ-averaged law, the scheme's dephased law.
So a session has one θ, or the dephased law; `_theta` applies this rule,
and no other code does.

No output reports what Eve resent or which photon was lost either, only
each trial's code. So every trial of a session draws its code from one
law per table row (Alice's index and Bob's setting), `_Kernel.law`: Bob's
law at the session's θ, or the dephased law; mixed, with Eve, over the
index she resends after her own θ = 0 measurement; and scaled by the
chance (1 − p)^photons that every photon survives a loss channel, the
rest of the mass on the "lost" outcome.

Each scheme has one record, `_kernel(scheme)`, built from `protocols`
(signal states, classify_*, sift) and `optics`: its signal rows, the
signal index each verdict names, and its tally per trial code, from one
sift call per Alice index and verdict. The rest is built on first use and
kept in the record, so that `_kernel.cache_clear()` drops it all: Eve's
resend law, a table and a code guide per law (θ, Eve, survival), and the
records' fields and trace rows per code, which only a session whose
records or trace are read builds. Each build is array work over its
table, a few calls per row or per verdict, not a call per code or cell.
A session is sampled from the table of its law by one lookup per trial in
its guide as trial codes (`_Kernel.code_guide`), keyed by the trial's
word alone. A float u is made only for the few trials whose guide cell
holds a CDF step.

A trial in such a cell compares u·total with its row's CDF, as the
inverse-CDF reference of `tests/oracles.py` does on the trial's own law
(its Born laws averaged over θ where θ is uniform, mixed over what Eve
resends, and scaled by the survival). The tables' CDFs differ from that
one only by roundoff; the tests hold them to it. The kernel's law as a
whole is checked against the exact law of each trial code on the scalar
ModeState path, in the same file.

Determinism contract: chunk k draws from its own Philox4x64-10
counter-based stream keyed by (seed, k), in the style of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC'11). Each thread holds
one Philox bit generator, made on its first session and re-keyed to
(seed, k) by the state setter for every chunk; so sessions in different
threads share no stream. A chunk of n trials makes one random_raw(n), and
trial k's fields are cut from its own word k: Bob's uniform u, its top 53
bits × 2⁻⁵³ (as numpy's next_double takes them), and from its low bits
Alice's index − 1 (bits 0–1) and Bob's setting (bit 2, `owa`). Every
config draws that one word per trial, Eve and loss included, and no other.
The stream rests only on random_raw and the state setter, whose output
Philox's specification fixes. One config therefore gives byte-identical
stats and traces.
"""
from __future__ import annotations

import cmath
import csv
import io
import json
import math
import numbers
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _quote

import numpy as np
from numpy.random import Philox

from . import __version__
from .optics import DETECTION_BASIS, JOINT_BASIS, _mzi_matrices, phase_modulator, wrap_phase
from .protocols import (
    INDEX_FOR, OWA_BETAS, SchemeId, classify_combined, classify_fig1, classify_owa, sift,
    signal_state,
)
from .qstate import _STEP, GUIDE_BUCKETS, BornTable

#: Trials per chunk; each chunk owns one Philox stream, so this is part of
#: the RNG identity: changing it changes every sampled number.
CHUNK_TRIALS = 4096

#: Chunks sampled together, after each has drawn its trials' words
#: (`_session_codes`). Not part of the RNG identity: every trial's word, and
#: so its code, stays the same.
BLOCK_CHUNKS = 4

RNG_IDENTITY = (
    f"philox4x64-10 keyed (seed, chunk), {CHUNK_TRIALS}-trial chunks, one raw word per trial,"
    " sampled from the session's code law"
)

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
    """value as a float, and -0.0 as 0.0, so that equal numbers are written alike."""
    if not _is_real(value):
        raise ConfigError(f"{what} must be {expected}, got {value!r}")
    try:
        return float(value) + 0.0
    except OverflowError:
        raise ConfigError(f"{what} is out of range") from None


#: The fields of each channel kind, in its config document and its ChannelSpec.
CHANNEL_FIELDS = {
    "none": ("kind",),
    "collective": ("kind", "phi"),
    "independent": ("kind",),
    "loss": ("kind", "loss"),
}


def _channel_fields(kind) -> tuple[str, ...]:
    if not isinstance(kind, str) or kind not in CHANNEL_FIELDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    return CHANNEL_FIELDS[kind]


@dataclass(frozen=True)
class ChannelSpec:
    """Quantum-channel noise between Alice and Bob, checked when built, its numbers as floats.

    kind: "none" | "collective" | "independent" | "loss".
    phi: fixed collective dephasing phase, or None (given as None or "random")
         for uniform per trial (kind == "collective" only).
    loss: per-photon loss probability (kind == "loss" only).
    """

    kind: str = "none"
    phi: float | None = None
    loss: float = 0.0

    def __post_init__(self):
        fields = _channel_fields(self.kind)
        if self.phi is not None:
            if "phi" not in fields:
                raise ConfigError(f"channel phi applies to kind 'collective', not {self.kind!r}")
            phi = (None if self.phi == PHASE_RANDOM
                   else _number(self.phi, "channel phi", EXPECTED_PHASE))
            if phi is not None and not math.isfinite(phi):
                raise ConfigError(f"channel phi must be finite, got {phi!r}")
            object.__setattr__(self, "phi", phi)
        loss = _number(self.loss, "channel loss")
        if "loss" in fields:
            if not 0.0 <= loss <= 1.0:
                raise ConfigError(f"loss probability must be in [0, 1], got {loss}")
        elif loss != 0.0:
            raise ConfigError(f"channel loss applies to kind 'loss', not {self.kind!r}")
        object.__setattr__(self, "loss", loss)

    def describe(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "collective":
            doc["phi"] = "random" if self.phi is None else self.phi
        if self.kind == "loss":
            doc["loss"] = self.loss
        return doc


@dataclass(frozen=True)
class SessionConfig:
    """A session, checked when built: scheme as a SchemeId, trials and seed ints, phase a float."""

    scheme: SchemeId
    trials: int
    seed: int
    phase: float | str = 0.0  # interferometer phase, or "random" per trial
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    eavesdropper: str = "off"  # "off" | "intercept_resend"

    def __post_init__(self):
        try:
            scheme = SchemeId(self.scheme)
        except (ValueError, TypeError):
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        phase = self.phase
        if phase != PHASE_RANDOM:
            phase = _number(phase, "phase", EXPECTED_PHASE)
            if not math.isfinite(phase):
                raise ConfigError("phase must be finite")
        if self.eavesdropper not in ("off", "intercept_resend"):
            raise ConfigError(f"unknown eavesdropper mode {self.eavesdropper!r}")
        if not isinstance(self.channel, ChannelSpec):
            raise ConfigError(f"channel must be a ChannelSpec, got {self.channel!r}")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "phase", phase)

    def describe(self) -> dict:
        return {
            "scheme": self.scheme.value,
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
    def qber(self) -> float | None:
        """errors / sifted; None when nothing is sifted, since no error rate was measured."""
        return self.errors / self.sifted if self.sifted else None


# --- batched kernel ------------------------------------------------------------

#: The verdict slot of a lost trial, past the indices 0..4 Bob's verdict names.
_LOST = 5


@dataclass(frozen=True)
class _Kernel:
    """A scheme's one record: its signal rows, the laws of its codes, and lookups over the codes.

    code = (alice·S + setting)·(O + 1) + outcome, with alice = index − 1, S
    Bob's modulator settings, O outcomes and outcome O meaning "lost"; so
    code counts reshape to a 4 × S × (O + 1) grid, one table row per
    alice·S + setting. A verdict slot is the index Bob's verdict names, 0
    when inconclusive, or _LOST.
    """

    id: SchemeId
    photons: int
    betas: tuple[float, ...]  # Bob's modulator settings, S of them; (0.0,) for a passive scheme
    outcomes: tuple  # the O outcomes of the detection basis the interferometer maps onto
    signals: np.ndarray  # 4·S × d: row (index − 1)·S + setting, after Bob's (diagonal) modulator
    announced: np.ndarray  # S·O, at setting·O + outcome: the index Bob's verdict names, or 0
    labels: tuple[str, ...]  # per outcome, "lost" last
    slots: np.ndarray  # per code: its verdict slot
    sifted: dict  # per (alice, verdict slot): the TrialRecord fields after `outcome_label`
    tally: np.ndarray  # 0/1 per code: counts @ tally = errors, sent[4], kept[4], histogram[O + 1]

    def born(self, late: complex) -> np.ndarray:
        """The Born law of each signal row, 4·S × O, with the last photon's late bin times `late`
        and the interferometer at 0 (`_signal_rows`), each |a|² as a.real**2 + a.imag**2."""
        amps = _signal_rows(self.signals, late)
        return (amps.real**2 + amps.imag**2).T

    @cached_property
    def resend_law(self) -> np.ndarray:
        """Eve's resend matrix, 4 × 4: at [a, r], the chance that she resends index r + 1 when
        Alice sent a + 1.

        She measures at θ = 0 in a uniform one of Bob's settings, and resends
        the index her verdict names, or a uniform one when it is
        inconclusive. Built on first use and kept.
        """
        seen = self.born(1.0).reshape(4, -1) / len(self.betas)  # per alice: P(setting, outcome)
        named = seen @ (self.announced[:, None] == np.arange(5))  # per alice: P(verdict names v)
        return named[:, 1:] + named[:, :1] / 4

    def law(self, theta: float | None, eve: bool, survive: float) -> np.ndarray:
        """Each table row's outcome law, 4·S × (O + 1), "lost" last: the law of a session's codes.

        Bob's Born law at the wrapped theta, or the dephased law when theta
        is None (`_theta`); with eve, mixed over what she resends
        (`resend_law`); then scaled by the chance survive that every photon
        survives, the rest lost. Each outcome probability at θ is
        |x·e^{iθ} + y|², whose mean |x|² + |y|² is the mean of the θ = 0 and
        θ = π laws, so the dephased law is taken from those two exactly, at
        late = ±1.0. Without Eve and loss the first O columns are those Born
        laws bit for bit, and "lost" is 0.
        """
        if theta is None:
            p = (self.born(1.0) + self.born(-1.0)) / 2
        else:
            p = self.born(np.exp(1j * theta))
        if eve:  # row a·S + s: the sum over r of resend_law[a, r] times row r·S + s
            p = (self.resend_law @ p.reshape(4, -1)).reshape(p.shape)
        return np.column_stack([survive * p, np.full(len(p), 1.0 - survive)])

    @cached_property
    def code_guide(self):
        """code_guide(theta, eve, survive) = (table, guide, rows): the table of law(theta, eve,
        survive), its guide as trial codes, and their rows; the 128 last kept.

        A trial word w keys guide cell ((w & 4·S − 1) << _BUCKET_BITS) |
        (w >> _BUCKET_SHIFT): first its raw bits alice + 4·setting, the key of
        table row rows[key] = alice·S + setting, then its u bucket. The cell
        holds the code of every trial of that row and u bucket, uint16, or
        _UNDECIDED where the table's guide holds a CDF step.
        """
        n_settings, n_outcomes = len(self.betas), len(self.outcomes)
        key = np.arange(4 * n_settings)
        rows = (key & 3) * n_settings + (key >> 2)
        rows.setflags(write=False)

        def code_guide(theta: float | None, eve: bool,
                       survive: float) -> tuple[BornTable, np.ndarray, np.ndarray]:
            table = BornTable.from_probabilities(self.law(theta, eve, survive).T)
            cells = table.guide.reshape(-1, GUIDE_BUCKETS)[rows]
            guide = (cells + (rows * (n_outcomes + 1))[:, None]).astype(np.uint16)
            guide[cells == _STEP] = _UNDECIDED
            guide = guide.ravel()
            guide.setflags(write=False)  # shared by every session of the cache
            return table, guide, rows
        return lru_cache(maxsize=128)(code_guide)

    @cached_property
    def fields(self) -> tuple[tuple, ...]:
        """Per code: the TrialRecord fields after `trial`. Built when a record is first read."""
        per_alice = len(self.slots) // 4
        return tuple((code // per_alice + 1, self.labels[code % len(self.labels)],
                      *self.sifted[code // per_alice, slot])
                     for code, slot in enumerate(self.slots.tolist()))

    @cached_property
    def rows(self) -> tuple[str, ...]:
        """Per code: its trace CSV row after "trial,", built when a trace is first read."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            _trace_fields(TrialRecord(0, *f))[1:] for f in self.fields)
        buf.seek(0)
        return tuple(buf.readlines())  # a StringIO ends a line only at "\n"


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
    """Built once per scheme from signal_state, phase_modulator, classify_*, INDEX_FOR and sift."""
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
        verdicts = [classify_owa(o, beta) for beta in betas for o in outcomes]
    else:
        betas, outcomes = (0.0,), DETECTION_BASIS if single else JOINT_BASIS
        signals = np.array([a.state.amplitudes for a in alices])
        verdicts = [(classify_fig1 if single else classify_combined)(o) for o in outcomes]
    announced = np.array([INDEX_FOR[v.basis, v.bit] if v.conclusive else 0 for v in verdicts])
    # sift reads only a verdict's conclusive, basis and bit, which its slot fixes:
    # one call per Alice index and slot
    named = dict(zip(announced.tolist(), verdicts))
    keep, wrong = np.zeros((2, 4, _LOST + 1), dtype=bool)
    sifted = {}
    for alice, signal in enumerate(alices):
        for slot, verdict in named.items():
            result = sift(signal, verdict)
            sifted[alice, slot] = (verdict.conclusive, verdict.basis or "",
                                   result.bit_alice, result.bit_bob, result.kept)
            keep[alice, slot] = result.kept
            wrong[alice, slot] = result.kept and result.bit_alice != result.bit_bob
        sifted[alice, _LOST] = (False, "", None, None, False)
    labels = tuple(o.label for o in outcomes) + ("lost",)
    per_alice = np.column_stack([announced.reshape(len(betas), -1), np.full(len(betas), _LOST)])
    slots = np.tile(per_alice.ravel(), 4)
    code = np.arange(len(slots))
    alice = code // per_alice.size
    sent = alice[:, None] == np.arange(4)
    outcome = code[:, None] % len(labels) == np.arange(len(labels))
    tally = np.column_stack([wrong[alice, slots], sent, sent & keep[alice, slots][:, None], outcome])
    return _Kernel(scheme_id, 1 if single else 2, betas, outcomes, signals, announced, labels,
                   slots, sifted, tally.astype(np.intp))


_thread = threading.local()  # .bits: the thread's Philox bit generator, made on its first session


def _rekey(bits: Philox, seed: int, chunk: int) -> None:
    """Put a Philox bit generator where Philox(key=[seed, chunk]) starts, cheaper than a new one."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, chunk)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffered block spent: the next word is counter 1's first
        "has_uint32": 0,
        "uinteger": 0,
    }


def _theta(config: SessionConfig, photons: int) -> float | None:
    """The session's one θ, wrapped; None when θ is uniform per trial (module docstring).

    A pair has a θ per trial only behind independent dephasing, and else
    θ = 0; fig1 has one when its phase or its channel's is uniform per
    trial, and else θ = φ_c − φ, taken as the angle of e^{iφ_c}·e^{−iφ}:
    the difference itself loses the low bits of a large φ_c.
    """
    channel = config.channel
    if photons == 2:
        return None if channel.kind == "independent" else 0.0
    if config.phase == PHASE_RANDOM or channel.kind == "independent" or (
            channel.kind == "collective" and channel.phi is None):
        return None
    factor = cmath.exp(1j * (channel.phi or 0.0)) * cmath.exp(-1j * config.phase)
    return wrap_phase(cmath.phase(factor))


def _law_key(config: SessionConfig, photons: int) -> tuple[float | None, bool, float]:
    """The arguments of the session's law (`_Kernel.law`): its θ (`_theta`), whether Eve
    intercepts, and the chance that all its photons survive, 1.0 but behind a loss channel."""
    return (_theta(config, photons), config.eavesdropper == "intercept_resend",
            (1.0 - config.channel.loss) ** photons)


#: A raw word's top bits are the bucket of its uniform u = (w >> 11)·2⁻⁵³:
#: w >> _BUCKET_SHIFT is ⌊u·GUIDE_BUCKETS⌋.
_BUCKET_BITS = GUIDE_BUCKETS.bit_length() - 1
_BUCKET_SHIFT = 64 - _BUCKET_BITS

#: A code guide's cell where the trial's code depends on u within the bucket.
_UNDECIDED = np.iinfo(np.uint16).max


def _uniform(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from 64-bit words: their top 53 bits, as numpy's next_double takes them."""
    return (words >> 11) * 2.0**-53


def _session_codes(config: SessionConfig, kernel: _Kernel) -> np.ndarray:
    """The session's trial codes, uint16, sampled per block of BLOCK_CHUNKS chunks.

    Per chunk the thread's bit generator is re-keyed to (seed, chunk) and
    makes one random_raw(n) into the block's buffer, one word per trial (the
    module docstring gives its fields). Each trial's code is then one lookup,
    keyed by its word's low and top bits, in the code guide of the session's
    law (`_Kernel.code_guide`); only the few trials in undecided cells
    compare u with a CDF.

    Each block writes its codes into the session's array in its own call,
    so its arrays are freed before the next block draws: past the codes, a
    session holds one block's arrays at a time.
    """
    if not hasattr(_thread, "bits"):
        _thread.bits = Philox(key=np.zeros(2, dtype=np.uint64))
    bits, seed = _thread.bits, config.seed
    table, guide, rows = kernel.code_guide(*_law_key(config, kernel.photons))
    mask, per_row = 4 * len(kernel.betas) - 1, len(kernel.outcomes) + 1
    codes = np.empty(config.trials, dtype=np.uint16)

    def sample(start: int, stop: int) -> None:
        word = np.empty(stop - start, dtype=np.uint64)
        for chunk in range(start // CHUNK_TRIALS, -(-stop // CHUNK_TRIALS)):
            _rekey(bits, seed, chunk)
            at = chunk * CHUNK_TRIALS - start
            n = min(CHUNK_TRIALS, stop - start - at)
            word[at:at + n] = bits.random_raw(n)
        key = word.view(np.int64) & mask  # alice + 4·setting: the key of the trial's row
        key <<= _BUCKET_BITS
        key |= (word >> _BUCKET_SHIFT).view(np.int64)
        code = guide.take(key, out=codes[start:stop])
        step = (code == _UNDECIDED).nonzero()[0]
        if len(step):
            row = rows[key[step] >> _BUCKET_BITS]
            code[step] = row * per_row + table.search(row, _uniform(word[step]))

    block = BLOCK_CHUNKS * CHUNK_TRIALS
    for start in range(0, config.trials, block):
        sample(start, min(start + block, config.trials))
    return codes


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
    kernel = _kernel(config.scheme)
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
    per_signal = {}
    for i in (1, 2, 3, 4):
        sent, kept = stats.signal_sent.get(i, 0), stats.signal_kept.get(i, 0)
        rate = _sig12(kept / sent if sent else 0.0)
        per_signal[str(i)] = {"sent": sent, "kept": kept, "success_rate": rate}
    return {
        "scheme": stats.config.scheme.value,
        "config": stats.config.describe(),
        "trials": stats.trials,
        "sifted": stats.sifted,
        "errors": stats.errors,
        "sifted_rate": _sig12(stats.sifted_rate),
        "qber": None if stats.qber is None else _sig12(stats.qber),
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

    Raises ConfigError for anything but an object with the required keys, known keys only,
    and a channel object or kind name with the fields of its kind. Every value goes as it
    is to ChannelSpec and SessionConfig, which check it.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
    _check_keys(doc, CONFIG_KEYS, "config")
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"config is missing {', '.join(missing)}")
    channel_doc = doc.get("channel", {"kind": "none"})
    if isinstance(channel_doc, str):
        channel_doc = {"kind": channel_doc}
    if not isinstance(channel_doc, dict):
        raise ConfigError(f"channel must be an object or a kind name, got {channel_doc!r}")
    kind = channel_doc.get("kind", "none")
    _check_keys(channel_doc, _channel_fields(kind), f"{kind!r} channel")
    channel = ChannelSpec(kind, channel_doc.get("phi"), channel_doc.get("loss", 0.0))
    return SessionConfig(
        doc["scheme"], doc["trials"], doc["seed"], doc.get("phase", 0.0), channel,
        doc.get("eavesdropper", "off"),
    )
