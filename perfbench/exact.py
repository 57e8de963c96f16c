"""Exact expected sifted rate and QBER of a session, for checking the benchmark's outputs.

Built from the physics alone, not from the package: the 6×2 interferometer
map is the one written in the docstring of ``timebin_qkd.optics``

    |E⟩ → ( i|early,−⟩ + i e^{iφ}|middle,−⟩ − e^{iφ}|middle,+⟩ + |early,+⟩ ) / 2
    |L⟩ → ( i|middle,−⟩ + i e^{iφ}|late,−⟩  − e^{iφ}|late,+⟩   + |middle,+⟩ ) / 2

and the verdict rules are restated here from the scheme descriptions.

Random phases (interferometer, collective or independent dephasing) enter
the outcome probabilities only as trigonometric polynomials of degree ≤ 2
in each phase, so the mean over a uniform grid of ``GRID_POINTS`` ≥ 3
points equals the mean over the circle exactly. Photon loss and
intercept-resend are enumerated in closed form.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

SCHEMES = ("fig1", "combined", "owa")
GRID_POINTS = 8
_GRID = tuple(2.0 * math.pi * k / GRID_POINTS for k in range(GRID_POINTS))

# Outcomes in the order of the map above; a verdict is a signal index 1..4
# (time/0, time/1, phase/0, phase/1) or 0 for inconclusive.
OUTCOMES = (
    ("early", "-"), ("middle", "-"), ("middle", "+"),
    ("early", "+"), ("late", "-"), ("late", "+"),
)
PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}  # same basis, other bit
OWA_BETAS = (0.0, math.pi / 2)
_R = 2 ** -0.5


def mzi(phi: float) -> np.ndarray:
    """6×2 single-photon map, columns (E, L)."""
    e = complex(math.cos(phi), math.sin(phi))
    return 0.5 * np.array(
        [[1j, 0], [1j * e, 1j], [-e, 1], [1, 0], [0, 1j * e], [0, -e]], dtype=complex
    )


def outcome_labels(scheme: str) -> tuple[str, ...]:
    """Outcome labels in map order: 'slot/±', or 'slot/±,slot/±' for pairs."""
    single = tuple(f"{s}/{d}" for s, d in OUTCOMES)
    if scheme == "fig1":
        return single
    return tuple(f"{a},{b}" for a in single for b in single)


def signal(scheme: str, index: int) -> np.ndarray:
    """Alice's state: over (E, L) for fig1, else over (EE, EL, LE, LL)."""
    if scheme == "fig1":
        return np.array({1: [1, 0], 2: [0, 1], 3: [_R, _R], 4: [_R, -_R]}[index], dtype=complex)
    if scheme == "combined":
        el, le = {1: (1, 0), 2: (0, 1), 3: (_R, _R), 4: (_R, -_R)}[index]
        return np.array([0, el, le, 0], dtype=complex)
    alpha = {1: 0.0, 2: math.pi, 3: math.pi / 2, 4: 3 * math.pi / 2}[index]
    return np.array([0, _R, _R * complex(math.cos(alpha), math.sin(alpha)), 0], dtype=complex)


def _verdict_fig1(o: int) -> int:
    slot, det = OUTCOMES[o]
    if slot == "early":
        return 1
    if slot == "late":
        return 2
    return 3 if det == "-" else 4


def _verdict_combined(o1: int, o2: int) -> int:
    (s1, d1), (s2, d2) = OUTCOMES[o1], OUTCOMES[o2]
    if s1 == s2 == "middle":
        return 3 if d1 == d2 else 4
    if (s1, s2) == ("early", "late"):
        return 1
    if (s1, s2) == ("late", "early"):
        return 2
    return 0


def _verdict_owa(o1: int, o2: int, beta: float) -> int:
    (s1, d1), (s2, d2) = OUTCOMES[o1], OUTCOMES[o2]
    if not s1 == s2 == "middle":
        return 0
    same = d1 == d2
    if beta == 0.0:
        return 1 if same else 2
    return 4 if same else 3


def _one_hot(verdicts) -> np.ndarray:
    """outcomes × 4 matrix: row o has a 1 in column verdict(o)-1, none if inconclusive."""
    table = np.zeros((len(verdicts), 4))
    for o, v in enumerate(verdicts):
        if v:
            table[o, v - 1] = 1.0
    return table


def _settings(scheme: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Bob's equally likely settings: (diagonal on the input kets, outcome→verdict table)."""
    if scheme == "fig1":
        return [(np.ones(2), _one_hot([_verdict_fig1(o) for o in range(6)]))]
    pairs = list(product(range(6), range(6)))
    if scheme == "combined":
        return [(np.ones(4), _one_hot([_verdict_combined(a, b) for a, b in pairs]))]
    out = []
    for beta in OWA_BETAS:
        b = complex(math.cos(beta), math.sin(beta))
        modulator = np.array([1, 1, b, b])  # e^{iβ} where photon 1 is late: LE, LL
        out.append((modulator, _one_hot([_verdict_owa(a, c, beta) for a, c in pairs])))
    return out


def verdict_probs(scheme: str, states: np.ndarray, phases) -> np.ndarray:
    """Mean P(Bob announces index v), v = 1..4, over states (rows) and Bob's phases."""
    maps = [mzi(p) for p in phases]
    if scheme != "fig1":
        maps = [np.kron(m, m) for m in maps]
    settings = _settings(scheme)
    total = np.zeros(4)
    for m in maps:
        for modulator, table in settings:
            amps = (states * modulator) @ m.T
            total += (np.abs(amps) ** 2 @ table).sum(axis=0)
    return total / (len(maps) * len(settings) * len(states))


def _channel_diagonals(scheme: str, kind: str) -> np.ndarray:
    """Equally likely channel actions, as diagonals on the input kets."""
    single = scheme == "fig1"
    if kind in ("none", "loss"):
        return np.ones((1, 2 if single else 4), dtype=complex)
    if kind == "collective" or single:
        rows = []
        for p in _GRID:
            e = complex(math.cos(p), math.sin(p))
            rows.append([1, e] if single else [1, e, e, e * e])
        return np.array(rows, dtype=complex)
    if kind != "independent":
        raise ValueError(f"unknown channel {kind!r}")
    rows = []
    for p1, p2 in product(_GRID, _GRID):
        e1, e2 = complex(math.cos(p1), math.sin(p1)), complex(math.cos(p2), math.sin(p2))
        rows.append([1, e2, e1, e1 * e2])
    return np.array(rows, dtype=complex)


def resend_matrix(scheme: str) -> np.ndarray:
    """R[a-1, r-1] = P(Eve resends r | Alice sent a), Eve's interferometer at φ = 0.

    A conclusive verdict v makes her resend state v; an inconclusive one a
    uniformly drawn state.
    """
    r = np.zeros((4, 4))
    for a in range(1, 5):
        p = verdict_probs(scheme, signal(scheme, a)[None, :], (0.0,))
        r[a - 1] = p + (1.0 - p.sum()) / 4
    return r


@lru_cache(maxsize=None)
def expected(
    scheme: str, phase: float | str, channel: str, loss: float, eve: bool
) -> tuple[float, float]:
    """Exact (sifted rate, QBER) per trial; QBER is nan when nothing can be sifted.

    `channel` is none, collective (a random phase per trial), independent or
    loss; `loss` is the photon loss probability of the last.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    phases = _GRID if phase == "random" else (float(phase),)
    diagonals = _channel_diagonals(scheme, channel)
    resend = resend_matrix(scheme) if eve else np.eye(4)
    photons = 1 if scheme == "fig1" else 2
    survive = (1.0 - loss) ** photons

    # Bob's verdict distribution for each state that reaches the channel.
    bob = {
        r: verdict_probs(scheme, diagonals * signal(scheme, r), phases) for r in range(1, 5)
    }
    sift = err = 0.0
    for a in range(1, 5):
        for r in range(1, 5):
            w = resend[a - 1, r - 1]
            if w:
                p = bob[r]
                sift += w * (p[a - 1] + p[PARTNER[a] - 1])
                err += w * p[PARTNER[a] - 1]
    sift = _snap(sift * survive / 4)
    err = _snap(err * survive / 4)
    return sift, (err / sift if sift > 0 else math.nan)


def _snap(x: float) -> float:
    """Round-off below 1e-12 is an exact zero: such outcomes are impossible."""
    return 0.0 if abs(x) < 1e-12 else float(x)


def outcome_probs(scheme: str, index: int, phi: float) -> np.ndarray:
    """Born probabilities of Alice's state `index` over the outcomes, no channel."""
    m = mzi(phi)
    if scheme != "fig1":
        m = np.kron(m, m)
    return np.abs(m @ signal(scheme, index)) ** 2
