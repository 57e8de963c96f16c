"""Oracles used to cross-check the library.

The enumeration oracles expand the interferometer action term by term with
plain dicts and loops, independently of the matrix/kron implementation
under test. The session expectations at the end are exact, and are built on
the library's scalar ModeState path, the reference for the batched session
kernel.
"""
from __future__ import annotations

import cmath
from collections import defaultdict
from functools import lru_cache

import numpy as np

from timebin_qkd.dfs import collective_dephase, dephase_single, independent_dephase
from timebin_qkd.optics import mzi_pair, mzi_single, outcome_distribution, phase_modulator
from timebin_qkd.protocols import (
    BASIS_FOR_INDEX,
    BIT_FOR_INDEX,
    INDEX_FOR,
    OWA_BETAS,
    SchemeId,
    classify_combined,
    classify_fig1,
    classify_owa,
    signal_state,
)

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


@lru_cache(maxsize=None)
def announced_index(scheme: SchemeId, outcome, beta) -> int:
    """The signal index Bob's verdict names, 0 if inconclusive."""
    if scheme is SchemeId.FIG1_SINGLE_PHOTON:
        verdict = classify_fig1(outcome)
    elif scheme is SchemeId.COMBINED:
        verdict = classify_combined(outcome)
    else:
        verdict = classify_owa(outcome, beta)
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


def announced_distribution(scheme: SchemeId, states, phases) -> np.ndarray:
    """Mean P(Bob announces index v), v = 0 (inconclusive) .. 4, over states, phases and β."""
    betas = OWA_BETAS if scheme is SchemeId.OWA_FOUR_PHASE else (None,)
    total = np.zeros(5)
    for state in states:
        for phi in phases:
            for beta in betas:
                s = state if beta is None else phase_modulator(state, beta, photon=1, bin="L")
                single = scheme is SchemeId.FIG1_SINGLE_PHOTON
                out = mzi_single(s, phi) if single else mzi_pair(s, phi)
                for o, p in zip(out.basis, outcome_distribution(out)):
                    total[announced_index(scheme, o, beta)] += p
    return total / (len(states) * len(phases) * len(betas))


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
