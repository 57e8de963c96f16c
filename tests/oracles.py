"""Oracles used to cross-check the library.

The enumeration oracles expand the interferometer action term by term with
plain dicts and loops, independently of the matrix/kron implementation
under test. The session expectations, and the law of each trial code, are
exact, and are built on the library's scalar ModeState path, the reference
for the batched session kernel. The amplitude reference samples each
trial from its own Born law, the reference for the kernel's tables trial by
trial. The per-code lookups at the end are built code by code, with a sift
call and a CSV row per code, the reference for the kernel's record.
"""
from __future__ import annotations

import cmath
import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from timebin_qkd.dfs import collective_dephase, dephase_single, independent_dephase
from timebin_qkd.optics import (
    DETECTION_BASIS,
    JOINT_BASIS,
    _mzi_matrices,
    mzi_pair,
    mzi_single,
    outcome_distribution,
    phase_modulator,
    wrap_phase,
)
from timebin_qkd.protocols import (
    BASIS_FOR_INDEX,
    BIT_FOR_INDEX,
    INDEX_FOR,
    OWA_BETAS,
    SchemeId,
    classify_combined,
    classify_fig1,
    classify_owa,
    sift,
    signal_state,
)
from timebin_qkd.qstate import law_cdf
from timebin_qkd.timebin import TWO_PHOTON_BASIS

MINUS, PLUS = "minus", "plus"


def mzi_terms(phi: float) -> dict:
    """Per-input-bin term lists: (slot, detector) -> amplitude, four each."""
    e = cmath.exp(1j * phi)
    return {
        "E": [
            (("early", MINUS), 0.5j),
            (("middle", MINUS), 0.5j * e),
            (("middle", PLUS), -0.5 * e),
            (("early", PLUS), 0.5),
        ],
        "L": [
            (("middle", MINUS), 0.5j),
            (("late", MINUS), 0.5j * e),
            (("late", PLUS), -0.5 * e),
            (("middle", PLUS), 0.5),
        ],
    }


def expand_pair(components: dict, phi: float) -> dict:
    """Joint amplitudes for a pair state given as {"EL": amp, ...}."""
    terms = mzi_terms(phi)
    joint: dict = defaultdict(complex)
    for label, amp in components.items():
        for out1, a1 in terms[label[0]]:
            for out2, a2 in terms[label[1]]:
                joint[(out1, out2)] += amp * a1 * a2
    return dict(joint)


def postselect_both_middle(joint: dict) -> tuple[dict, float]:
    """Restrict to both-middle outcomes; returns ({detector pair: amp}, prob)."""
    sub = {
        (o1[1], o2[1]): amp
        for (o1, o2), amp in joint.items()
        if o1[0] == "middle" and o2[0] == "middle"
    }
    prob = sum(abs(a) ** 2 for a in sub.values())
    if prob == 0.0:
        return {}, 0.0
    scale = prob ** -0.5
    return {k: a * scale for k, a in sub.items()}, prob


def owa_same_detector_prob(alpha: float, beta: float, phi: float) -> float:
    """Conditional same-detector probability for an OWA round, by enumeration."""
    inv_sqrt2 = 2 ** -0.5
    components = {
        "EL": inv_sqrt2,
        "LE": inv_sqrt2 * cmath.exp(1j * (alpha + beta)),  # modulator hits photon 1's L bin
    }
    conditional, _ = postselect_both_middle(expand_pair(components, phi))
    return sum(abs(a) ** 2 for (d1, d2), a in conditional.items() if d1 == d2)


# --- exact session expectations, on the scalar ModeState path -----------------
#
# The batched session kernel is checked against these. Every outcome
# probability is a trigonometric polynomial of degree ≤ 2 in each random
# phase (interferometer, collective or per-photon dephasing), so its mean
# over a uniform grid of 3 phases equals its mean over the circle exactly.

PHASE_GRID = tuple(2 * cmath.pi * k / 3 for k in range(3))


def bob_betas(scheme: SchemeId) -> tuple:
    """Bob's modulator settings: OWA's two, or None alone for a passive receiver."""
    return OWA_BETAS if scheme is SchemeId.OWA_FOUR_PHASE else (None,)


def modulated(state, beta):
    """A state after Bob's modulator at beta (on photon 1's late bin); beta None: no modulator."""
    return state if beta is None else phase_modulator(state, beta, photon=1, bin="L")


def classify(scheme: SchemeId, outcome, beta):
    """The classify_* verdict of a scheme's receiver at modulator setting beta."""
    if scheme is SchemeId.FIG1_SINGLE_PHOTON:
        return classify_fig1(outcome)
    if scheme is SchemeId.COMBINED:
        return classify_combined(outcome)
    return classify_owa(outcome, beta)


@lru_cache(maxsize=None)
def announced_index(scheme: SchemeId, outcome, beta) -> int:
    """The signal index Bob's verdict names, 0 if inconclusive."""
    verdict = classify(scheme, outcome, beta)
    return INDEX_FOR[(verdict.basis, verdict.bit)] if verdict.conclusive else 0


def channel_states(state, channel, two_photon: bool) -> list:
    """The channel's equally likely phase actions on `state` (loss aside)."""
    if channel.kind in ("none", "loss"):
        return [state]
    if channel.kind == "collective":
        phis = PHASE_GRID if channel.phi is None else (channel.phi,)
        dephase = collective_dephase if two_photon else dephase_single
        return [dephase(state, p) for p in phis]
    if two_photon:
        return [independent_dephase(state, p1, p2) for p1 in PHASE_GRID for p2 in PHASE_GRID]
    return [dephase_single(state, p) for p in PHASE_GRID]


def outcome_law(scheme: SchemeId, states, phases, beta) -> np.ndarray:
    """Mean P(outcome), in the interferometer's outcome order, over states and phases at beta."""
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    total = 0.0
    for state in states:
        for phi in phases:
            s = modulated(state, beta)
            total = total + outcome_distribution(mzi_single(s, phi) if single else mzi_pair(s, phi))
    return total / (len(states) * len(phases))


def announced_distribution(scheme: SchemeId, states, phases) -> np.ndarray:
    """Mean P(Bob announces index v), v = 0 (inconclusive) .. 4, over states, phases and β."""
    betas = bob_betas(scheme)
    outcomes = DETECTION_BASIS if scheme is SchemeId.FIG1_SINGLE_PHOTON else JOINT_BASIS
    total = np.zeros(5)
    for beta in betas:
        for o, p in zip(outcomes, outcome_law(scheme, states, phases, beta)):
            total[announced_index(scheme, o, beta)] += p
    return total / len(betas)


def session_expectation(scheme, phase, channel, eve: bool) -> tuple[float, float]:
    """Exact per-trial (P(sifted), P(sifted with an error)) of a session config.

    Eve measures at φ = 0 with a uniform β and resends the state her verdict
    names, or a uniform one when inconclusive; then the channel acts; then
    Bob measures at `phase` (a number, or "random").
    """
    scheme = SchemeId(scheme)
    two_photon = scheme is not SchemeId.FIG1_SINGLE_PHOTON
    phases = PHASE_GRID if phase == "random" else (phase,)
    survive = (1 - channel.loss) ** (2 if two_photon else 1) if channel.kind == "loss" else 1.0
    bob = {
        r: announced_distribution(
            scheme, channel_states(signal_state(scheme, r).state, channel, two_photon), phases
        )
        for r in (1, 2, 3, 4)
    }
    sifted = errors = 0.0
    for a in (1, 2, 3, 4):
        if eve:
            p = announced_distribution(scheme, [signal_state(scheme, a).state], (0.0,))
            resend = {r: p[r] + p[0] / 4 for r in (1, 2, 3, 4)}
        else:
            resend = {a: 1.0}
        for r, w in resend.items():
            for v in (1, 2, 3, 4):
                if BASIS_FOR_INDEX[v] == BASIS_FOR_INDEX[a]:
                    sifted += w * bob[r][v] / 4
                    if BIT_FOR_INDEX[v] != BIT_FOR_INDEX[a]:
                        errors += w * bob[r][v] / 4
    return sifted * survive, errors * survive


def code_law(config) -> np.ndarray:
    """Exact P(code) of each of a session's 4 × S × (O + 1) trial codes.

    code = (alice·S + setting)·(O + 1) + outcome, with alice = index − 1, S
    Bob's settings and outcome O "lost", as the session kernel numbers them.
    Alice's index and Bob's setting are uniform; Eve resends as in
    session_expectation; every photon survives loss, or the trial is lost.
    """
    scheme = SchemeId(config.scheme)
    two_photon = scheme is not SchemeId.FIG1_SINGLE_PHOTON
    channel, betas = config.channel, bob_betas(scheme)
    phases = PHASE_GRID if config.phase == "random" else (config.phase,)
    survive = (1 - channel.loss) ** (2 if two_photon else 1)
    law = []
    for a in (1, 2, 3, 4):
        resend = {a: 1.0}
        if config.eavesdropper == "intercept_resend":
            p = announced_distribution(scheme, [signal_state(scheme, a).state], (0.0,))
            resend = {r: p[r] + p[0] / 4 for r in (1, 2, 3, 4)}
        for beta in betas:
            bob = sum(
                w * outcome_law(scheme, channel_states(signal_state(scheme, r).state, channel,
                                                       two_photon), phases, beta)
                for r, w in resend.items()
            )
            law.append(np.append(survive * bob, 1 - survive) / (4 * len(betas)))
    return np.concatenate(law)


# --- the trial-by-trial amplitude reference -----------------------------------
#
# Each trial's own detection amplitudes, from a scheme's signal states on the
# scalar path, through its own channel phases and interferometer phase, then
# sampled by inverse CDF. It reads no table of the session kernel. The
# interferometer is `optics._mzi_matrices` at a shared phase, and a
# polynomial in e^{iφ} built from it at a phase per trial; so at φ = 0 its
# amplitudes are the kernel's bit for bit, and draws that land exactly on a
# CDF step compare alike.


@dataclass(frozen=True)
class SchemeTables:
    """A scheme's signal rows and Bob's verdicts, built on the scalar path."""

    photons: int
    betas: tuple  # bob_betas: S settings
    outcomes: tuple  # O outcomes, in the interferometer's order
    signals: np.ndarray  # 4 × S × d: signals[i - 1, s] is signal i after Bob's modulator at s
    announced: np.ndarray  # S × O: announced_index of each setting and outcome


@lru_cache(maxsize=None)
def scheme_tables(scheme) -> SchemeTables:
    scheme = SchemeId(scheme)
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    betas, outcomes = bob_betas(scheme), DETECTION_BASIS if single else JOINT_BASIS
    signals = np.array([
        [modulated(signal_state(scheme, index).state, beta).amplitudes for beta in betas]
        for index in (1, 2, 3, 4)
    ])
    announced = np.array([[announced_index(scheme, o, beta) for o in outcomes] for beta in betas])
    return SchemeTables(1 if single else 2, betas, outcomes, signals, announced)


def dephasing_diagonal(phi1: np.ndarray, phi2: np.ndarray | None = None) -> np.ndarray:
    """Batched dephase_single / independent_dephase, as multipliers on the input kets.

    One phase array gives [1, e^{iφ}] over (E, L); two give [1, e₂, e₁, e₁e₂]
    over (EE, EL, LE, LL), with eⱼ = e^{iφⱼ}. The result is d×n, one column
    per state.
    """
    e1 = np.exp(1j * np.asarray(phi1))
    one = np.ones_like(e1)
    if phi2 is None:
        return np.stack([one, e1])
    e2 = np.exp(1j * np.asarray(phi2))
    return np.stack([one, e2, e1, e1 * e2])


@lru_cache(maxsize=None)
def _mzi_phase_terms(two_photon: bool) -> tuple[np.ndarray, ...]:
    """The map as a polynomial in e = e^{iφ}, lowest power first.

    One photon: m(φ) = M0 + e·M1. A pair: m⊗m = M0⊗M0 + e·(M0⊗M1 + M1⊗M0) + e²·M1⊗M1.
    """
    m0, _ = _mzi_matrices(0.0)
    m_pi, _ = _mzi_matrices(math.pi)
    a, b = (m0 + m_pi) / 2, (m0 - m_pi) / 2
    if not two_photon:
        return a, b
    return np.kron(a, a), np.kron(a, b) + np.kron(b, a), np.kron(b, b)


def mzi_batch(amps: np.ndarray, phi) -> np.ndarray:
    """Batched mzi_single / mzi_pair: each column of `amps` through the interferometer.

    `amps` is 2×n (over E, L) or 4×n (over EE, EL, LE, LL), one column per
    state; the result is 6×n or 36×n, in DETECTION_BASIS / JOINT_BASIS
    order. `phi` is one phase for every column, or an array of n phases.
    """
    two_photon = amps.shape[0] == len(TWO_PHOTON_BASIS)
    if np.ndim(phi) == 0:
        m, mm = _mzi_matrices(wrap_phase(float(phi)))
        return (mm if two_photon else m) @ amps
    e = np.exp(1j * np.asarray(phi))
    *lower, top = _mzi_phase_terms(two_photon)
    out = top @ amps
    for term in reversed(lower):  # Horner's rule in e
        out = out * e + term @ amps
    return out


def detection_amplitudes(
    tables: SchemeTables, sent: np.ndarray, setting: np.ndarray, diagonal: np.ndarray | None, phi
) -> np.ndarray:
    """Amplitudes over tables.outcomes, one column per trial.

    Trial k sends signal sent[k] + 1 through the channel's diagonal[:, k]
    (None: no dephasing) and Bob's modulator at setting[k], into the
    interferometer at phase phi, or phi[k] when phi is an array. The
    modulator is diagonal, so it commutes with the channel in front of it.
    """
    amps = tables.signals[sent, setting].T
    if diagonal is not None:
        amps = amps * diagonal
    return mzi_batch(amps, phi)


def born_sample_batch(amps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Batched born_sample: one basis index per column of the d×n amplitude matrix.

    Column k is sampled by inverse CDF from the uniform draw u[k] ∈ [0, 1),
    after born_sample's normalization check on every column.
    """
    return law_sample_batch(amps.real**2 + amps.imag**2, u)


def law_sample_batch(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """born_sample_batch on a d×n probability matrix: column k's law p[:, k] sampled by u[k]."""
    cdf, total = law_cdf(p)
    # index = how many CDF entries lie at or below u·total (searchsorted, side="right")
    idx = np.count_nonzero(cdf <= u * total, axis=0)
    return np.minimum(idx, len(cdf) - 1)


# --- the kernel's per-code lookups, code by code ------------------------------


@dataclass(frozen=True)
class CodeLookups:
    """Per trial code (numbered as the session kernel numbers them): its record and trace row."""

    announced: np.ndarray  # S·O, at setting·O + outcome: announced_index
    labels: tuple  # per outcome, "lost" last
    fields: tuple  # per code: the TrialRecord fields after `trial`
    rows: tuple  # per code: its trace CSV row after "trial,"
    tally: np.ndarray  # 0/1 per code: counts @ tally = errors, sent[4], kept[4], histogram[O + 1]


def code_lookups(scheme) -> CodeLookups:
    """One sift call, record and csv.writer row per code: Alice's index, then Bob's setting,
    then each outcome and "lost"."""
    scheme = SchemeId(scheme)
    tables = scheme_tables(scheme)
    fields = []
    for index in (1, 2, 3, 4):
        alice = signal_state(scheme, index)
        for beta in tables.betas:
            for outcome in tables.outcomes:
                verdict = classify(scheme, outcome, beta)
                result = sift(alice, verdict)
                fields.append((
                    index, outcome.label, verdict.conclusive, verdict.basis or "",
                    result.bit_alice, result.bit_bob, result.kept,
                ))
            fields.append((index, "lost", False, "", None, None, False))
    labels = tuple(o.label for o in tables.outcomes) + ("lost",)
    rows = []
    for index, label, conclusive, basis, bit_alice, bit_bob, kept in fields:
        buf = io.StringIO()
        verdict = "lost" if label == "lost" else "conclusive" if conclusive else "inconclusive"
        csv.writer(buf, lineterminator="\n").writerow([
            index, label, verdict, basis, "" if bit_alice is None else bit_alice,
            "" if bit_bob is None else bit_bob, int(kept),
        ])
        rows.append(buf.getvalue())
    sent = np.array([f[0] for f in fields])[:, None] == np.arange(1, 5)
    kept = sent & np.array([f[6] for f in fields])[:, None]
    outcome = np.arange(len(fields))[:, None] % len(labels) == np.arange(len(labels))
    errors = [f[6] and f[4] != f[5] for f in fields]  # kept, with bit_alice != bit_bob
    tally = np.column_stack([errors, sent, kept, outcome]).astype(np.intp)
    return CodeLookups(tables.announced.ravel(), labels, tuple(fields), tuple(rows), tally)
