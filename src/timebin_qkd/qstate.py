"""Complex amplitude vectors over labeled, ordered mode bases.

States are immutable values; every operation returns a new state. Labels are
arbitrary hashable objects (strings for time bins, detection-outcome records
for interferometer outputs). Basis order is part of the state's identity and
is preserved by every operation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

import numpy as np

#: Tolerance for analytic checks (normalization, phase equality).
NORM_TOL = 1e-12

#: Looser tolerance used when sampling; guards against caller bugs, not roundoff.
SAMPLE_NORM_TOL = 1e-9

#: Equal intervals of the uniform draw u in a BornTable's guide.
GUIDE_BUCKETS = 1024

#: Equal intervals of the relative phase θ over one turn in a PhaseWindow's guide.
PHASE_BUCKETS = 32

#: Guide entry of a bucket that holds a CDF step: its outcome depends on u (and θ).
_STEP = 255

#: The lowest and the largest u of each u bucket.
_BUCKET_FIRST = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
_BUCKET_LAST = np.nextafter(_BUCKET_FIRST + 1 / GUIDE_BUCKETS, 0.0)

#: A PhaseWindow's guide is looked up at the θ bucket of a θ with
#: |θ| ≤ _GUIDED_THETA. There the roundoff of θ, and of the bucket found for
#: it, is under 2e-9 of a bucket, so a bucket widened by _THETA_SLACK
#: (radians) to either side holds θ mod 2π.
_GUIDED_THETA = 2.0**20
_THETA_SLACK = 1e-8

#: What a guide's bound on a CDF step a + b·cos θ + c·sin θ allows for the
#: roundoff of the sampler's own sum, and of the bound (each about 1e-15).
_STEP_MARGIN = 1e-12


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


def _guide_cells(low, high, first, last, base: int) -> np.ndarray:
    """The guide entries of a block of cells, uint8, by Chen & Asau's rule.

    A trial's outcome is base plus the count of CDF entries at or below its
    u·total, which rounds monotonically in u, so a u bucket's trials lie
    between its two ends. `low` and `high` bound each entry (entries first,
    then the cells' leading axes) and `first` and `last` are the u·total at
    the ends of each cell's u bucket (u buckets last). An entry is surely
    counted in a cell where high ≤ first, and possibly counted where
    low ≤ last. A cell where the two counts agree holds base plus that
    count, the outcome of every trial in it; any other holds _STEP.
    """
    sure = (high[..., None] <= first).sum(axis=0, dtype=np.uint8)
    maybe = (low[..., None] <= last).sum(axis=0, dtype=np.uint8)
    return np.where(sure == maybe, sure + base, _STEP)


@dataclass(frozen=True)
class BornTable:
    """The inverse-CDF reference sampler of tests/oracles.py, by lookup in fixed columns.

    Row r holds born_cdf of column r. Sampling is Chen & Asau's indexed
    search: [0, 1) is cut into GUIDE_BUCKETS equal intervals of u, and
    guide[r·GUIDE_BUCKETS + b] is the outcome of row r for every u in
    bucket b (`_guide_cells`, with each CDF entry its own bounds), or _STEP
    where a CDF step falls inside the bucket and the outcome is found by
    comparing u·total[r] with the row's CDF. So the lookup returns exactly
    what the reference returns.
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
        ends = _BUCKET_FIRST * total[:, None], _BUCKET_LAST * total[:, None]
        entries = cdf[:, :last].T  # the total only pushes a count past the last outcome
        guide = _guide_cells(entries, entries, *ends, 0).ravel()
        arrays = cdf, total.copy(), guide
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
            idx[step] = self.search(row[step], u[step])
        return idx

    def search(self, row: np.ndarray, u: np.ndarray) -> np.ndarray:
        """`sample` without the guide: the count of row[k]'s CDF entries at or below u[k]·total."""
        at = (self.cdf[row] <= (u * self.total[row])[:, None]).sum(axis=1)
        return np.minimum(at, self.cdf.shape[1] - 1)


@dataclass(frozen=True)
class PhaseWindow:
    """The inverse-CDF reference sampler of tests/oracles.py on the columns x·e^{iθ} + y.

    θ is one phase per trial.

    Only the outcomes where x and y both carry amplitude interfere, so only
    they move with θ; lo..hi is the contiguous window that holds them. The
    exact computation (`_sample_exact`) first looks a trial up in the table
    of the columns at θ = 0. Outside the window its CDF is that table's row,
    so a trial the table places outside lo..hi keeps the table's outcome.
    For one it places inside, the window's own CDF steps lo..hi−1 are
    computed at its θ, as a + b·cos θ + c·sin θ, and compared with u·total.
    The window's ends are the table's own CDF entries, so the table decides
    exactly which trials enter it. The steps differ from a CDF summed from
    the amplitudes at θ only by roundoff.

    `guide` extends the table's indexed search to θ: it has a cell per
    (row, θ bucket, u bucket), PHASE_BUCKETS θ buckets over a turn and
    GUIDE_BUCKETS u buckets. A cell holds an outcome only where the exact
    computation provably gives it for every θ and u of the cell, the θ
    bucket widened by _THETA_SLACK to either side, and _STEP elsewhere. So a
    sampler that finds each trial's cell to within that slack, and computes
    a trial in a _STEP cell exactly, returns what `_sample_exact` returns,
    with no cos or sin for most trials (`session._window_outcomes` finds the
    cell from the bits of the trial's words). The guide is built on first
    use and kept: sessions whose trials share one θ never build it.
    """

    table: BornTable  # the columns at θ = 0
    lo: int  # first outcome of the window
    hi: int  # last outcome of the window
    steps: np.ndarray  # 3 × (hi − lo) × rows: a, b, c of CDF entries lo..hi−1

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
        return cls(table, lo, hi, steps)

    @cached_property
    def guide(self) -> np.ndarray:
        """The outcome, or _STEP, of each (row, θ bucket, u bucket) cell, flat, uint8.

        A u bucket whose lowest u·total reaches the table's CDF entry lo − 1
        and whose largest stays below entry hi sends every trial into the
        window (`inside`); any other keeps the table's own guide entry. In
        the window, a trial's outcome is lo plus the count of steps at or
        below u·total. Over θ bucket k, widened by _THETA_SLACK, a step
        a + ρ·cos(θ − ψ) lies between `low` and `high`, the extremes of cos
        over the bucket, widened by _STEP_MARGIN; `_guide_cells` turns those
        bounds into cells, over each row's own run of u buckets inside (one
        run, since both ends of a bucket grow with its index).
        """
        table, lo, hi = self.table, self.lo, self.hi
        rows, outcomes = table.cdf.shape
        half = np.pi / PHASE_BUCKETS + _THETA_SLACK  # half a θ bucket, widened
        middle = (np.arange(PHASE_BUCKETS) + 0.5) * (2 * np.pi / PHASE_BUCKETS)
        a, b, c = (s[..., None] for s in self.steps)  # steps × rows × 1
        # b·cos θ + c·sin θ = ρ·cos(θ − ψ). At a bucket's middle m it is
        # ρ·cos δ = b·cos m + c·sin m, and its slope is ±ρ·sin δ, δ ∈ [0, π] the
        # angle from m to ψ. Over m ± half it peaks at ρ where δ ≤ half, else
        # at ρ·cos(δ − half), and dips to −ρ where δ ≥ π − half, else to
        # ρ·cos(δ + half). Steps × rows × θ buckets:
        cos_half, sin_half = np.cos(half), np.sin(half)
        rho = np.sqrt(b * b + c * c)
        mid = b * np.cos(middle) + c * np.sin(middle)
        slope = np.abs(c * np.cos(middle) - b * np.sin(middle))
        high = np.where(mid >= rho * cos_half, rho, mid * cos_half + slope * sin_half)
        low = np.where(mid <= -rho * cos_half, -rho, mid * cos_half - slope * sin_half)
        high, low = a + high + _STEP_MARGIN, a + low - _STEP_MARGIN
        enter = table.cdf[:, lo - 1] if lo else np.full(rows, -np.inf)
        leave = table.cdf[:, hi] if hi < outcomes - 1 else np.full(rows, np.inf)
        first, last = _BUCKET_FIRST * table.total[:, None], _BUCKET_LAST * table.total[:, None]
        inside = (first >= enter[:, None]) & (last < leave[:, None])  # rows × u buckets
        starts, stops = inside.argmax(axis=1), GUIDE_BUCKETS - inside[:, ::-1].argmax(axis=1)
        guide = np.repeat(table.guide.reshape(rows, 1, GUIDE_BUCKETS), PHASE_BUCKETS, axis=1)
        for r in inside.any(axis=1).nonzero()[0]:
            span = slice(starts[r], stops[r])
            guide[r, :, span] = _guide_cells(low[:, r], high[:, r], first[r, span], last[r, span], lo)
        guide = guide.ravel()
        guide.setflags(write=False)
        return guide

    def _sample_exact(self, row: np.ndarray, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The reference's outcomes of columns row[k] at phase theta[k], draws u[k] ∈ [0, 1).

        The table at θ = 0, then the window's steps computed at θ.
        """
        idx = self.table.sample(row, u)
        inside = ((idx >= self.lo) & (idx <= self.hi)).nonzero()[0]
        if len(inside):
            r, t = row[inside], theta[inside]
            cos, sin = np.cos(t), np.sin(t)
            a, b, c = self.steps[:, :, r]  # steps × trials
            count = (a + b * cos + c * sin <= u[inside] * self.table.total[r]).sum(axis=0)
            idx[inside] = self.lo + count
        return idx


def equal_up_to_global_phase(s1: ModeState, s2: ModeState, tol: float = NORM_TOL) -> bool:
    """True iff s1 = c·s2 for some unit-modulus scalar c, componentwise within tol."""
    if s1.basis != s2.basis:
        raise BasisMismatchError("phase comparison requires identical bases")
    # The phase of the overlap, taken by angle: dividing by a subnormal |overlap|
    # overflows. A zero overlap has angle 0, so c = 1.
    c = np.exp(1j * np.angle(np.vdot(s2.amplitudes, s1.amplitudes)))
    return bool(np.max(np.abs(s1.amplitudes - c * s2.amplitudes)) <= tol)
