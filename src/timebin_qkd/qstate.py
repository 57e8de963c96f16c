"""Complex amplitude vectors over labeled, ordered mode bases.

States are immutable values; every operation returns a new state. Labels are
arbitrary hashable objects (strings for time bins, detection-outcome records
for interferometer outputs). Basis order is part of the state's identity and
is preserved by every operation.

States are sampled one at a time by `born_sample`, and fixed columns of
probabilities (Born laws, or laws mixed from them) in batches by a
`BornTable`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

#: Tolerance for analytic checks (normalization, phase equality).
NORM_TOL = 1e-12

#: Looser tolerance used when sampling; guards against caller bugs, not roundoff.
SAMPLE_NORM_TOL = 1e-9

#: Equal intervals of the uniform draw u in a BornTable's guide.
GUIDE_BUCKETS = 1024

#: Guide entry of a bucket that holds a CDF step: its outcome depends on u.
_STEP = 255

#: The lowest and the largest u of each u bucket.
_BUCKET_FIRST = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
_BUCKET_LAST = np.nextafter(_BUCKET_FIRST + 1 / GUIDE_BUCKETS, 0.0)


class BasisMismatchError(ValueError):
    """Raised when two states over different bases are combined."""


class UnnormalizedStateError(ValueError):
    """Raised when an operation requiring a normalized state gets one that is not."""


@dataclass(frozen=True)
class ModeState:
    """A pure state: one complex amplitude per label of an ordered basis."""

    basis: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        basis = tuple(self.basis)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (len(basis),):
            raise ValueError(
                f"amplitude count {amps.shape} does not match basis size {len(basis)}"
            )
        if len(set(basis)) != len(basis):
            raise ValueError("basis labels must be distinct")
        amps.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0) <= tol

    def normalize(self) -> "ModeState":
        n = self.norm()
        if n == 0.0:
            raise UnnormalizedStateError("cannot normalize the zero vector")
        return ModeState(self.basis, self.amplitudes / n)

    def index(self, label: Hashable) -> int:
        try:
            return self.basis.index(label)
        except ValueError:
            raise BasisMismatchError(f"label {label!r} not in basis") from None

    def amplitude(self, label: Hashable) -> complex:
        return complex(self.amplitudes[self.index(label)])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability(self, label: Hashable) -> float:
        return float(abs(self.amplitudes[self.index(label)]) ** 2)

    def inner(self, other: "ModeState") -> complex:
        """⟨self|other⟩ over a shared basis."""
        if self.basis != other.basis:
            raise BasisMismatchError("inner product requires identical bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(basis, label) -> ModeState:
    """The basis ket |label⟩ in the given ordered basis."""
    basis = tuple(basis)
    amps = np.zeros(len(basis), dtype=complex)
    amps[basis.index(label)] = 1.0
    return ModeState(basis, amps)


def superposition(basis, weights: Mapping) -> ModeState:
    """Normalized superposition from a label → amplitude mapping."""
    basis = tuple(basis)
    amps = np.zeros(len(basis), dtype=complex)
    for label, w in weights.items():
        amps[basis.index(label)] = w
    return ModeState(basis, amps).normalize()


def _combine_labels(l1, l2):
    # String labels concatenate ("E" ⊗ "L" → "EL"); anything else pairs up.
    if isinstance(l1, str) and isinstance(l2, str):
        return l1 + l2
    return (l1, l2)


def tensor(s1: ModeState, s2: ModeState) -> ModeState:
    """Tensor product; output basis is the s1-major Cartesian product."""
    basis = tuple(_combine_labels(a, b) for a in s1.basis for b in s2.basis)
    return ModeState(basis, np.kron(s1.amplitudes, s2.amplitudes))


def born_sample(s: ModeState, rng: np.random.Generator):
    """Draw one basis label with probability |amplitude|²."""
    if not s.is_normalized(SAMPLE_NORM_TOL):
        raise UnnormalizedStateError(f"cannot sample an unnormalized state (norm={s.norm()})")
    cdf = np.cumsum(s.probabilities())
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return s.basis[min(idx, s.dim - 1)]


def law_cdf(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(CDF, total) of each column of a d×n probability matrix.

    The CDF is d×n, cumulative down each column; total is its last row, the
    column sums as born_sample takes them, whatever the memory layout of
    `p`. Runs born_sample's normalization check on every column first.
    """
    cdf = np.cumsum(p, axis=0)
    total = cdf[-1]
    off = np.abs(total - 1.0)
    if not off.max(initial=0.0) <= SAMPLE_NORM_TOL:  # a NaN column fails too
        norm = float(np.sqrt(total[np.argmax(off)]))
        raise UnnormalizedStateError(f"cannot sample an unnormalized state (norm={norm})")
    return cdf, total


@dataclass(frozen=True)
class BornTable:
    """The inverse-CDF reference sampler of tests/oracles.py, by lookup in fixed columns.

    Row r holds law_cdf of column r's probabilities. Sampling is Chen &
    Asau's indexed search: [0, 1) is cut into GUIDE_BUCKETS equal intervals
    of u, and guide[r·GUIDE_BUCKETS + b] is the outcome of row r for every u
    in bucket b, or _STEP where a CDF step falls inside the bucket and the
    outcome is found by comparing u·total[r] with the row's CDF (`search`).
    So the lookup returns exactly what the reference returns.
    """

    cdf: np.ndarray  # rows × outcomes
    total: np.ndarray  # rows
    guide: np.ndarray  # rows · GUIDE_BUCKETS, uint8

    @classmethod
    def from_probabilities(cls, p: np.ndarray) -> "BornTable":
        """The table of the columns of a d×rows probability matrix (law_cdf checks them).

        A trial's outcome is the count of CDF entries at or below its
        u·total, which rounds monotonically in u, so a u bucket's trials lie
        between its two ends. A bucket where the counts at both ends agree
        holds that count, the outcome of every trial in it; any other holds
        _STEP. No probability may be negative: then every CDF row is
        non-decreasing (a float sum never falls by adding a non-negative
        term), and a count is a binary search of the row.
        """
        if (p < 0).any():
            raise UnnormalizedStateError("cannot sample a law with a negative probability")
        cdf, total = law_cdf(p)
        cdf = np.ascontiguousarray(cdf.T)
        last = cdf.shape[1] - 1
        if last >= _STEP:
            raise ValueError(f"a guide of uint8 holds at most {_STEP} outcomes, not {last + 1}")
        guide = np.empty((len(cdf), GUIDE_BUCKETS), dtype=np.uint8)
        for row, entries, t in zip(guide, cdf[:, :last], total.tolist()):
            # the total only pushes a count past the last outcome, so it is left out
            sure = entries.searchsorted(_BUCKET_FIRST * t, side="right")
            maybe = entries.searchsorted(_BUCKET_LAST * t, side="right")
            row[:] = np.where(sure == maybe, sure, _STEP)
        guide = guide.ravel()
        arrays = cdf, total.copy(), guide
        for a in arrays:  # shared by every caller of a cache
            a.setflags(write=False)
        return cls(*arrays)

    def search(self, row: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The reference's outcomes of columns row[k] with draws u[k] ∈ [0, 1), without the guide:
        the count of row[k]'s CDF entries at or below u[k]·total."""
        at = (self.cdf[row] <= (u * self.total[row])[:, None]).sum(axis=1)
        return np.minimum(at, self.cdf.shape[1] - 1)


def equal_up_to_global_phase(s1: ModeState, s2: ModeState, tol: float = NORM_TOL) -> bool:
    """True iff s1 = c·s2 for some unit-modulus scalar c, componentwise within tol."""
    if s1.basis != s2.basis:
        raise BasisMismatchError("phase comparison requires identical bases")
    # The phase of the overlap, taken by angle: dividing by a subnormal |overlap|
    # overflows. A zero overlap has angle 0, so c = 1.
    c = np.exp(1j * np.angle(np.vdot(s2.amplitudes, s1.amplitudes)))
    return bool(np.max(np.abs(s1.amplitudes - c * s2.amplitudes)) <= tol)
