"""Signal states, outcome classification, sifting, and consistency charts.

Three four-state schemes share the same skeleton:

* ``fig1``      — one photon per round; two pole states |E⟩, |L⟩ (time basis)
                  and two equatorial states (|E⟩±|L⟩)/√2 (phase basis). The
                  receiver is passive but needs the interferometer held at
                  φ = 0 for the phase basis to read out correctly.
* ``owa``       — two photons, (|EL⟩ + e^{iα}|LE⟩)/√2 with α ∈ {0, π/2, π,
                  3π/2}; the receiver actively applies β ∈ {0, π/2} before
                  measuring. Autocompensating but not passive.
* ``combined``  — two photons; poles |EL⟩, |LE⟩ (time basis) and equatorial
                  states (|EL⟩±|LE⟩)/√2 (phase basis). Passive AND
                  autocompensating; the detection pattern alone fixes the
                  effective basis.

Bit convention throughout: indices 1, 2, 3, 4 carry bits 0, 1, 0, 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .optics import (
    DETECTION_BASIS,
    JOINT_BASIS,
    DetectionOutcome,
    JointOutcome,
    mzi_pair,
    mzi_single,
    outcome_distribution,
    phase_modulator,
    postselect_middle,
)
from .qstate import ModeState
from .timebin import ket, time_bin_qubit, two_photon_state


class SchemeId(str, Enum):
    FIG1_SINGLE_PHOTON = "fig1"
    OWA_FOUR_PHASE = "owa"
    COMBINED = "combined"


TIME = "time"
PHASE = "phase"

BIT_FOR_INDEX = {1: 0, 2: 1, 3: 0, 4: 1}
BASIS_FOR_INDEX = {1: TIME, 2: TIME, 3: PHASE, 4: PHASE}
INDEX_FOR = {(TIME, 0): 1, (TIME, 1): 2, (PHASE, 0): 3, (PHASE, 1): 4}

OWA_ALPHAS = {1: 0.0, 2: math.pi, 3: math.pi / 2, 4: 3 * math.pi / 2}
OWA_BETAS = (0.0, math.pi / 2)


@dataclass(frozen=True)
class SignalState:
    scheme: SchemeId
    index: int
    basis: str
    bit: int
    state: ModeState


@lru_cache(maxsize=None)
def signal_state(scheme: SchemeId, index: int) -> SignalState:
    """One of the four signal states of a scheme, with its basis and bit tags."""
    scheme = SchemeId(scheme)
    if index not in (1, 2, 3, 4):
        raise ValueError(f"signal index must be 1..4, got {index}")
    if scheme is SchemeId.FIG1_SINGLE_PHOTON:
        states = {
            1: ket("E"),
            2: ket("L"),
            3: time_bin_qubit(1, 1),
            4: time_bin_qubit(1, -1),
        }
    elif scheme is SchemeId.COMBINED:
        states = {
            1: ket("EL"),
            2: ket("LE"),
            3: two_photon_state(0, 1, 1, 0),
            4: two_photon_state(0, 1, -1, 0),
        }
    else:
        states = {i: owa_alice_state(OWA_ALPHAS[i]) for i in (1, 2, 3, 4)}
    return SignalState(scheme, index, BASIS_FOR_INDEX[index], BIT_FOR_INDEX[index], states[index])


def owa_alice_state(alpha: float) -> ModeState:
    """(|EL⟩ + e^{iα}|LE⟩)/√2 for α ∈ {0, π/2, π, 3π/2}."""
    if not any(math.isclose(alpha, a, abs_tol=1e-12) for a in OWA_ALPHAS.values()):
        raise ValueError(f"alpha must be one of 0, π/2, π, 3π/2, got {alpha}")
    return two_photon_state(0, 1, complex(math.cos(alpha), math.sin(alpha)), 0)


def owa_round(alpha: float, beta: float, phi: float) -> float:
    """P(both photons on the same detector | both in middle slots).

    Alice sends (|EL⟩ + e^{iα}|LE⟩)/√2, Bob puts phase β on photon 1's late
    bin and measures. Analytically this equals (1 + cos(α+β))/2 for every
    interferometer phase φ.
    """
    if not any(math.isclose(beta, b, abs_tol=1e-12) for b in OWA_BETAS):
        raise ValueError(f"beta must be 0 or π/2, got {beta}")
    state = phase_modulator(owa_alice_state(alpha), beta, photon=1, bin="L")
    conditional, prob = postselect_middle(mzi_pair(state, phi))
    if conditional is None:
        raise ValueError("middle-middle postselection has zero probability")
    same = sum(
        conditional.probability(j)
        for j in conditional.basis
        if j.photon1.detector == j.photon2.detector
    )
    return float(same)


@dataclass(frozen=True)
class ClassifiedOutcome:
    """Receiver-side verdict for one raw detection pattern."""

    conclusive: bool
    basis: str | None
    bit: int | None
    raw: DetectionOutcome | JointOutcome

    @classmethod
    def verdict(cls, basis: str, bit: int, raw) -> "ClassifiedOutcome":
        return cls(True, basis, bit, raw)

    @classmethod
    def inconclusive(cls, raw) -> "ClassifiedOutcome":
        return cls(False, None, None, raw)


def classify_fig1(outcome: DetectionOutcome) -> ClassifiedOutcome:
    """Single-photon passive readout; assumes the interferometer sits at φ=0.

    Early and late slots identify the pole states; in the middle slot the
    detector identifies the equatorial state.
    """
    if outcome.slot == "early":
        return ClassifiedOutcome.verdict(TIME, 0, outcome)
    if outcome.slot == "late":
        return ClassifiedOutcome.verdict(TIME, 1, outcome)
    bit = 0 if outcome.detector == "minus" else 1
    return ClassifiedOutcome.verdict(PHASE, bit, outcome)


def classify_combined(outcome: JointOutcome) -> ClassifiedOutcome:
    """Two-photon passive readout.

    Both photons middle → phase basis, bit from detector parity. The extreme
    slot patterns (photon 1 early & photon 2 late, or vice versa) → time
    basis. Every other pattern is discarded: keeping only the extremes makes
    the success probability the same for every signal state, since the mixed
    early/middle patterns would over-weight the time basis.
    """
    s1, s2 = outcome.photon1.slot, outcome.photon2.slot
    if s1 == "middle" and s2 == "middle":
        bit = 0 if outcome.photon1.detector == outcome.photon2.detector else 1
        return ClassifiedOutcome.verdict(PHASE, bit, outcome)
    if s1 == "early" and s2 == "late":
        return ClassifiedOutcome.verdict(TIME, 0, outcome)
    if s1 == "late" and s2 == "early":
        return ClassifiedOutcome.verdict(TIME, 1, outcome)
    return ClassifiedOutcome.inconclusive(outcome)


def classify_owa(outcome: JointOutcome, beta: float) -> ClassifiedOutcome:
    """Active two-photon readout: conclusive only on both-middle patterns.

    With modulator phase β the same-detector probability is
    (1 + cos(α+β))/2, so β = 0 resolves the α ∈ {0, π} pair and β = π/2 the
    α ∈ {π/2, 3π/2} pair; detector parity then fixes the bit.
    """
    if outcome.photon1.slot != "middle" or outcome.photon2.slot != "middle":
        return ClassifiedOutcome.inconclusive(outcome)
    same = outcome.photon1.detector == outcome.photon2.detector
    if math.isclose(beta, 0.0, abs_tol=1e-12):
        return ClassifiedOutcome.verdict(TIME, 0 if same else 1, outcome)
    return ClassifiedOutcome.verdict(PHASE, 1 if same else 0, outcome)


@dataclass(frozen=True)
class Scheme:
    """One scheme's signal states, receiver settings and verdicts as tables.

    betas:     Bob's modulator settings, one drawn uniformly per trial;
               (0.0,) for the passive schemes, which have no modulator.
    signals:   4 × len(betas) × d amplitudes: signals[i-1, s] is signal i
               after Bob's modulator at setting s, over (E, L) or
               (EE, EL, LE, LL). The modulator is diagonal, so it commutes
               with the dephasing channels in front of it.
    outcomes:  the detection basis the interferometer maps onto.
    verdicts:  verdicts[s][o] is the classify_* verdict on outcome o at setting s.
    announced: len(betas) × len(outcomes): the signal index a conclusive
               verdict names (INDEX_FOR), 0 for an inconclusive one.
    """

    id: SchemeId
    betas: tuple[float, ...]
    signals: np.ndarray
    outcomes: tuple
    verdicts: tuple[tuple[ClassifiedOutcome, ...], ...]
    announced: np.ndarray

    @property
    def photons(self) -> int:
        return 1 if self.id is SchemeId.FIG1_SINGLE_PHOTON else 2


@lru_cache(maxsize=None)
def scheme_tables(scheme: SchemeId) -> Scheme:
    """The Scheme record of a protocol, built from signal_state, phase_modulator and classify_*."""
    scheme = SchemeId(scheme)
    states = [signal_state(scheme, i).state for i in (1, 2, 3, 4)]
    if scheme is SchemeId.OWA_FOUR_PHASE:
        betas = OWA_BETAS
        signals = np.array([
            [phase_modulator(s, beta, photon=1, bin="L").amplitudes for beta in betas]
            for s in states
        ])
        verdicts = tuple(tuple(classify_owa(o, beta) for o in JOINT_BASIS) for beta in betas)
        outcomes = JOINT_BASIS
    else:
        betas = (0.0,)
        signals = np.array([[s.amplitudes] for s in states])
        if scheme is SchemeId.FIG1_SINGLE_PHOTON:
            outcomes, classify = DETECTION_BASIS, classify_fig1
        else:
            outcomes, classify = JOINT_BASIS, classify_combined
        verdicts = (tuple(classify(o) for o in outcomes),)
    announced = np.array(
        [[INDEX_FOR[(v.basis, v.bit)] if v.conclusive else 0 for v in row] for row in verdicts]
    )
    return Scheme(scheme, betas, signals, outcomes, verdicts, announced)


@dataclass(frozen=True)
class ConsistencyChart:
    """Per detection pattern, the signal indices that can produce it."""

    scheme: SchemeId
    phase: float
    entries: dict  # outcome label -> sorted tuple of indices

    def consistent(self, label: str) -> tuple[int, ...]:
        return self.entries[label]

    def to_json(self) -> str:
        doc = {label: list(idx) for label, idx in sorted(self.entries.items())}
        return json.dumps(doc, indent=2, sort_keys=True)

    def render_text(self) -> str:
        if self.scheme is SchemeId.FIG1_SINGLE_PHOTON:
            lines = ["outcome     consistent", "-" * 24]
            for o in DETECTION_BASIS:
                idx = self.entries[o.label]
                lines.append(f"{o.label:<12}{{{','.join(map(str, idx))}}}")
            return "\n".join(lines)
        return self._render_joint_grid()

    def _render_joint_grid(self) -> str:
        # 9 coarse cells (slot pairs) × 4 fine cells (detector pairs),
        # drawn as a 6×6 grid: rows photon 1, columns photon 2.
        slots = ("early", "middle", "late")
        dets = ("minus", "plus")
        width = 10
        sign = {"minus": "-", "plus": "+"}

        def cell(o1: DetectionOutcome, o2: DetectionOutcome) -> str:
            idx = self.entries[JointOutcome(o1, o2).label]
            return ("{" + ",".join(map(str, idx)) + "}").ljust(width)

        header1 = " " * 12 + "".join(f"photon2 {s:<{2 * width + 1 - 8}}" for s in slots)
        header2 = " " * 12 + "".join(
            f"{sign[d]:<{width}}" for _ in slots for d in dets
        )
        rule = " " * 12 + ("+".join(["-" * (2 * width)] * 3))
        lines = [header1, header2, rule]
        for s1 in slots:
            for d1 in dets:
                o1 = DetectionOutcome(s1, d1)
                row = "".join(
                    cell(o1, DetectionOutcome(s2, d2)) + ("|" if d2 == "plus" and s2 != "late" else "")
                    for s2 in slots
                    for d2 in dets
                )
                tag = f"{s1} {sign[d1]}"
                lines.append(f"{tag:<12}{row}")
            if s1 != "late":
                lines.append(rule)
        return "\n".join(lines)


def generate_chart(scheme: SchemeId, phi: float, threshold: float = 1e-12) -> ConsistencyChart:
    """Derive the consistency chart from the signal states' Born statistics."""
    scheme = SchemeId(scheme)
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    outcomes = DETECTION_BASIS if single else JOINT_BASIS
    entries: dict[str, list[int]] = {o.label: [] for o in outcomes}
    for index in (1, 2, 3, 4):
        state = signal_state(scheme, index).state
        out = mzi_single(state, phi) if single else mzi_pair(state, phi)
        probs = outcome_distribution(out)
        for o, p in zip(outcomes, probs):
            if p > threshold:
                entries[o.label].append(index)
    return ConsistencyChart(scheme, phi, {k: tuple(v) for k, v in entries.items()})


@dataclass(frozen=True)
class SiftResult:
    kept: bool
    bit_alice: int | None = None
    bit_bob: int | None = None


def sift(alice: SignalState, bob: ClassifiedOutcome) -> SiftResult:
    """Keep a round iff Bob is conclusive and the announced bases match."""
    if bob.conclusive and bob.basis == alice.basis:
        return SiftResult(True, alice.bit, bob.bit)
    return SiftResult(False)
