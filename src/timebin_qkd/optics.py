"""Mach-Zehnder interferometer model for time-bin qubits.

The unbalanced MZI (delay equal to the E/L separation) maps each time-bin
qubit into three output time slots on two detectors, six outcomes total:

    |E⟩ → ( i|early,−⟩ + i e^{iφ}|middle,−⟩ − e^{iφ}|middle,+⟩ + |early,+⟩ ) / 2
    |L⟩ → ( i|middle,−⟩ + i e^{iφ}|late,−⟩  − e^{iφ}|late,+⟩   + |middle,+⟩ ) / 2

with φ the relative phase of the two arms. Both beamsplitters are balanced,
hence the overall 1/2, which makes the map an exact isometry onto the
six-outcome space. Pair states go through the same interferometer photon by
photon (same φ for both: the two bins are far closer in time than any
interferometer drift).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import SAMPLE_NORM_TOL, ModeState
from .timebin import TIME_BIN_BASIS, TWO_PHOTON_BASIS

SLOTS = ("early", "middle", "late")
DETECTORS = ("minus", "plus")

TWO_PI = 2.0 * math.pi


def wrap_phase(phi: float) -> float:
    """Wrap an interferometer or dephasing phase into [0, 2π)."""
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi!r}")
    wrapped = phi % TWO_PI
    return 0.0 if wrapped == TWO_PI else wrapped  # % rounds 2π − ε, for tiny ε, up to 2π


@dataclass(frozen=True, order=True)
class DetectionOutcome:
    """(time slot, detector) for one photon behind the interferometer."""

    slot: str
    detector: str

    def __post_init__(self):
        if self.slot not in SLOTS or self.detector not in DETECTORS:
            raise ValueError(f"invalid outcome ({self.slot!r}, {self.detector!r})")

    @property
    def label(self) -> str:
        sign = "+" if self.detector == "plus" else "-"
        return f"{self.slot}/{sign}"


@dataclass(frozen=True, order=True)
class JointOutcome:
    """Detection outcomes for both photons of a pair."""

    photon1: DetectionOutcome
    photon2: DetectionOutcome

    @property
    def label(self) -> str:
        return f"{self.photon1.label},{self.photon2.label}"


# Order matches the term order of the single-photon map above:
# (early−, middle−, middle+, early+, late−, late+).
DETECTION_BASIS = (
    DetectionOutcome("early", "minus"),
    DetectionOutcome("middle", "minus"),
    DetectionOutcome("middle", "plus"),
    DetectionOutcome("early", "plus"),
    DetectionOutcome("late", "minus"),
    DetectionOutcome("late", "plus"),
)

JOINT_BASIS = tuple(
    JointOutcome(o1, o2) for o1 in DETECTION_BASIS for o2 in DETECTION_BASIS
)

#: The four both-middle joint outcomes, in JOINT_BASIS restriction order.
MIDDLE_PAIR_BASIS = tuple(
    j for j in JOINT_BASIS
    if j.photon1.slot == "middle" and j.photon2.slot == "middle"
)

_MIDDLE_IDX = np.array([JOINT_BASIS.index(j) for j in MIDDLE_PAIR_BASIS])


@lru_cache(maxsize=128)
def _mzi_matrices(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(6×2 single-photon map, 36×4 pair map) for a given arm phase."""
    e = np.exp(1j * phi)
    m = 0.5 * np.array(
        [
            [1j, 0],        # early−
            [1j * e, 1j],   # middle−
            [-e, 1],        # middle+
            [1, 0],         # early+
            [0, 1j * e],    # late−
            [0, -e],        # late+
        ],
        dtype=complex,
    )
    return m, np.kron(m, m)


def mzi_single(q: ModeState, phi: float) -> ModeState:
    """Send one time-bin qubit through the interferometer."""
    if q.basis != TIME_BIN_BASIS:
        raise ValueError("mzi_single expects a state over (E, L)")
    m, _ = _mzi_matrices(wrap_phase(phi))
    return ModeState(DETECTION_BASIS, m @ q.amplitudes)


def mzi_pair(s: ModeState, phi: float) -> ModeState:
    """Send both photons of a pair state through the same interferometer."""
    if s.basis != TWO_PHOTON_BASIS:
        raise ValueError("mzi_pair expects a state over (EE, EL, LE, LL)")
    _, mm = _mzi_matrices(wrap_phase(phi))
    return ModeState(JOINT_BASIS, mm @ s.amplitudes)


def postselect_middle(joint: ModeState) -> tuple[ModeState | None, float]:
    """Condition on both photons landing in their middle time slots.

    Returns (conditional state over the four detector pairs, probability).
    The conditional state is None when the postselection probability is zero.
    """
    if joint.basis != JOINT_BASIS:
        raise ValueError("postselect_middle expects a state over the 36 joint outcomes")
    sub = joint.amplitudes[_MIDDLE_IDX]
    prob = float(np.vdot(sub, sub).real)
    if prob <= 0.0:
        return None, 0.0
    return ModeState(MIDDLE_PAIR_BASIS, sub / math.sqrt(prob)), prob


def phase_modulator(s: ModeState, beta: float, photon: int, bin: str) -> ModeState:
    """Multiply by e^{iβ} every amplitude whose selected photon sits in `bin`.

    `photon` is 1 or 2; `bin` is "E" or "L".
    """
    if s.basis != TWO_PHOTON_BASIS:
        raise ValueError("phase_modulator expects a state over (EE, EL, LE, LL)")
    if photon not in (1, 2):
        raise ValueError("photon index must be 1 or 2")
    if bin not in TIME_BIN_BASIS:
        raise ValueError("bin must be 'E' or 'L'")
    factor = np.exp(1j * beta)
    amps = np.array(s.amplitudes)
    for i, label in enumerate(s.basis):
        if label[photon - 1] == bin:
            amps[i] *= factor
    return ModeState(s.basis, amps)


def outcome_distribution(state: ModeState) -> np.ndarray:
    """Born probabilities over the state's detection basis (sums to 1)."""
    p = state.probabilities()
    total = float(p.sum())
    if not abs(total - 1.0) <= SAMPLE_NORM_TOL:  # a NaN state fails too
        raise ValueError(f"distribution of an unnormalized state (total={total})")
    return p
