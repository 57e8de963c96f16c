"""Complex amplitude vectors over labeled, ordered mode bases.

States are immutable values; every operation returns a new state. Labels are
arbitrary hashable objects (strings for time bins, detection-outcome records
for interferometer outputs). Basis order is part of the state's identity and
is preserved by every operation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

#: Tolerance for analytic checks (normalization, phase equality).
NORM_TOL = 1e-12

#: Looser tolerance used when sampling; guards against caller bugs, not roundoff.
SAMPLE_NORM_TOL = 1e-9


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


def born_sample_batch(amps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Batched born_sample: one basis index per column of the d×n amplitude matrix.

    Column k is sampled by inverse CDF from the uniform draw u[k] ∈ [0, 1),
    after born_sample's normalization check on every column.
    """
    p = amps.real**2 + amps.imag**2
    total = p.sum(axis=0)
    off = np.abs(total - 1.0)
    if not off.max(initial=0.0) <= SAMPLE_NORM_TOL:  # a NaN column fails too
        norm = float(np.sqrt(total[np.argmax(off)]))
        raise UnnormalizedStateError(f"cannot sample an unnormalized state (norm={norm})")
    # index = how many CDF entries lie at or below u·total (searchsorted, side="right")
    idx = np.count_nonzero(np.cumsum(p, axis=0) <= u * total, axis=0)
    return np.minimum(idx, len(p) - 1)


def equal_up_to_global_phase(s1: ModeState, s2: ModeState, tol: float = NORM_TOL) -> bool:
    """True iff s1 = c·s2 for some unit-modulus scalar c, componentwise within tol."""
    if s1.basis != s2.basis:
        raise BasisMismatchError("phase comparison requires identical bases")
    overlap = np.vdot(s2.amplitudes, s1.amplitudes)
    mag = abs(overlap)
    c = overlap / mag if mag > 0.0 else 1.0
    return bool(np.max(np.abs(s1.amplitudes - c * s2.amplitudes)) <= tol)
