"""Anti-correlated two-photon encoding and dephasing channels.

A logical qubit is carried by two physical time-bin qubits as
|0̄⟩ → |EL⟩, |1̄⟩ → |LE⟩. Dephasing puts a phase e^{iφ} on every late bin;
when both photons see the same φ (collective dephasing, the physically
relevant case for bins separated by much less than the drift time), |EL⟩ and
|LE⟩ pick up one common factor and the encoded qubit is untouched.
`independent_dephase` is the control channel showing what breaks without
that assumption.
"""
from __future__ import annotations

import numpy as np

from .qstate import ModeState
from .timebin import TIME_BIN_BASIS, TWO_PHOTON_BASIS

LOGICAL_BASIS = ("0", "1")


def logical_qubit(a0: complex, a1: complex) -> ModeState:
    return ModeState(LOGICAL_BASIS, np.array([a0, a1], dtype=complex)).normalize()


def encode_logical(q: ModeState) -> ModeState:
    """|0̄⟩ → |EL⟩, |1̄⟩ → |LE⟩, extended linearly."""
    if q.basis != LOGICAL_BASIS:
        raise ValueError("encode_logical expects a state over the logical basis")
    a0, a1 = q.amplitudes
    return ModeState(TWO_PHOTON_BASIS, np.array([0.0, a0, a1, 0.0], dtype=complex))


def dephase_single(s: ModeState, phi: float) -> ModeState:
    """|E⟩ → |E⟩, |L⟩ → e^{iφ}|L⟩ on a single time-bin qubit."""
    if s.basis != TIME_BIN_BASIS:
        raise ValueError("dephase_single expects a state over (E, L)")
    phases = np.array([1.0, np.exp(1j * phi)])
    return ModeState(s.basis, s.amplitudes * phases)


def collective_dephase(s: ModeState, phi: float) -> ModeState:
    """Both photons see the same late-bin phase φ."""
    return independent_dephase(s, phi, phi)


def independent_dephase(s: ModeState, phi1: float, phi2: float) -> ModeState:
    """Photon 1 sees φ₁, photon 2 sees φ₂ (the no-protection control)."""
    if s.basis != TWO_PHOTON_BASIS:
        raise ValueError("dephasing expects a state over (EE, EL, LE, LL)")
    e1, e2 = np.exp(1j * phi1), np.exp(1j * phi2)
    phases = np.array([1.0, e2, e1, e1 * e2])  # (EE, EL, LE, LL)
    return ModeState(s.basis, s.amplitudes * phases)

