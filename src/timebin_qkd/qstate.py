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

#: Equal intervals of the uniform draw u in a BornTable's guide.
GUIDE_BUCKETS = 1024

#: Guide entry of a bucket that holds a CDF step: its outcome depends on u.
_STEP = 255


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


def born_cdf(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(CDF, total) of the Born probabilities of each column of a d×n amplitude matrix.

    The CDF is d×n, cumulative down each column; total is its last row, the
    column sums as born_sample takes them, whatever the memory layout of
    `amps`. Runs born_sample's normalization check on every column first.
    """
    p = amps.real**2 + amps.imag**2
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

    Row r holds born_cdf of column r. Sampling is Chen & Asau's indexed
    search: [0, 1) is cut into GUIDE_BUCKETS equal intervals of u, and
    guide[r·GUIDE_BUCKETS + b] is the outcome of row r for every u in
    bucket b, or _STEP where a CDF step falls inside the bucket and the
    outcome is found by comparing u·total[r] with the row's CDF. Since u·t
    rounds monotonically in u, a bucket whose two ends give one outcome
    gives it for all u between them, so the lookup returns exactly what
    the reference returns.
    """

    cdf: np.ndarray  # rows × outcomes
    total: np.ndarray  # rows
    guide: np.ndarray  # rows · GUIDE_BUCKETS, uint8

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "BornTable":
        """The table of the columns of a d×rows amplitude matrix (born_cdf checks them)."""
        cdf, total = born_cdf(amps)
        cdf = np.ascontiguousarray(cdf.T)
        last = cdf.shape[1] - 1
        if last >= _STEP:
            raise ValueError(f"a guide of uint8 holds at most {_STEP} outcomes, not {last + 1}")
        bucket = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        bucket_end = np.nextafter(bucket + 1 / GUIDE_BUCKETS, 0.0)  # the largest u inside
        guide = []
        for row, t in zip(cdf, total):
            lo = np.minimum(np.searchsorted(row, bucket * t, side="right"), last)
            hi = np.minimum(np.searchsorted(row, bucket_end * t, side="right"), last)
            guide.append(np.where(lo == hi, lo, _STEP))
        arrays = cdf, total.copy(), np.concatenate(guide).astype(np.uint8)
        for a in arrays:  # shared by every caller of a cache
            a.setflags(write=False)
        return cls(*arrays)

    def sample(self, row: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The reference's outcomes of columns row[k] with draws u[k] ∈ [0, 1), without the columns.

        The indices come back as uint8, the guide's own type.
        """
        idx = self.guide[row * GUIDE_BUCKETS + (u * GUIDE_BUCKETS).astype(np.intp)]
        step = (idx == _STEP).nonzero()[0]
        if len(step):
            rows = row[step]
            at = (self.cdf[rows] <= (u[step] * self.total[rows])[:, None]).sum(axis=1)
            idx[step] = np.minimum(at, self.cdf.shape[1] - 1)
        return idx


@dataclass(frozen=True)
class PhaseWindow:
    """The inverse-CDF reference sampler of tests/oracles.py on the columns x·e^{iθ} + y.

    θ is one phase per trial.

    Only the outcomes where x and y both carry amplitude interfere, so only
    they move with θ; lo..hi is the contiguous window that holds them. A
    trial is first looked up in the table of the columns at θ = 0. Outside
    the window its CDF is that table's row, so a trial the table places
    outside lo..hi keeps the table's outcome. For one it places inside, the
    window's own CDF steps lo..hi−1 are computed at its θ, as
    a + b·cos θ + c·sin θ, and compared with u·total; an entry whose b and
    c are 0 in every row (`still`) is a alone, and only a is compared. The
    window's ends are the table's own CDF entries, so the table decides
    exactly which trials enter it. The steps differ from a CDF summed from
    the amplitudes at θ only by roundoff. Every array it makes holds one
    entry per trial.
    """

    table: BornTable  # the columns at θ = 0
    lo: int  # first outcome of the window
    hi: int  # last outcome of the window
    steps: np.ndarray  # 3 × (hi − lo) × rows: a, b, c of CDF entries lo..hi−1
    still: tuple[bool, ...]  # per CDF entry lo..hi−1: b = c = 0 in every row

    @classmethod
    def from_amplitudes(cls, at_zero: np.ndarray, at_pi: np.ndarray) -> "PhaseWindow":
        """The window of the d×rows columns x + y (at_zero) and −x + y (at_pi).

        born_cdf checks the columns at θ = 0. A column's total at θ is
        Σ |x|² + |y|² + 2·Re(e^{iθ}·Σ x·ȳ), so one whose Σ x·ȳ is not 0
        would leave normalization at some θ (π included): it raises
        UnnormalizedStateError, and so does one with a NaN.
        """
        table = BornTable.from_amplitudes(at_zero)
        x, y = (at_zero - at_pi) / 2, (at_zero + at_pi) / 2
        cross = x * y.conj()  # p(θ) = |x|² + |y|² + 2·Re(e^{iθ}·x·ȳ)
        drift = 2 * np.abs(cross.sum(axis=0))
        if not drift.max(initial=0.0) <= SAMPLE_NORM_TOL:
            raise UnnormalizedStateError(
                f"a column's norm² moves with θ by up to {float(drift.max()):.3g}"
            )
        moving = np.flatnonzero(np.abs(cross).max(axis=1, initial=0.0) > 0.0)
        lo, hi = (int(moving[0]), int(moving[-1])) if len(moving) else (0, 0)
        before = table.cdf[:, lo - 1] if lo else np.zeros(len(table.cdf))
        mean = np.cumsum(np.abs(x[lo:hi]) ** 2 + np.abs(y[lo:hi]) ** 2, axis=0)
        swing = 2 * np.cumsum(cross[lo:hi], axis=0)
        steps = np.stack([before + mean, swing.real, -swing.imag])
        steps.setflags(write=False)
        still = tuple(bool(s) for s in np.all(steps[1:] == 0.0, axis=(0, 2)))
        return cls(table, lo, hi, steps, still)

    def sample(self, row: np.ndarray, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The reference's outcomes of columns row[k] at phase theta[k], draws u[k] ∈ [0, 1)."""
        idx = self.table.sample(row, u)
        inside = ((idx >= self.lo) & (idx <= self.hi)).nonzero()[0]
        if len(inside):
            r, t = row[inside], theta[inside]
            cos, sin = np.cos(t), np.sin(t)
            at = u[inside] * self.table.total[r]
            count = np.full(len(inside), self.lo)
            for a, b, c, still in zip(*self.steps, self.still):  # one CDF entry at a time
                count += (a[r] <= at) if still else (a[r] + b[r] * cos + c[r] * sin <= at)
            idx[inside] = count
        return idx


def equal_up_to_global_phase(s1: ModeState, s2: ModeState, tol: float = NORM_TOL) -> bool:
    """True iff s1 = c·s2 for some unit-modulus scalar c, componentwise within tol."""
    if s1.basis != s2.basis:
        raise BasisMismatchError("phase comparison requires identical bases")
    # The phase of the overlap, taken by angle: dividing by a subnormal |overlap|
    # overflows. A zero overlap has angle 0, so c = 1.
    c = np.exp(1j * np.angle(np.vdot(s2.amplitudes, s1.amplitudes)))
    return bool(np.max(np.abs(s1.amplitudes - c * s2.amplitudes)) <= tol)
