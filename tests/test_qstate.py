import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import normalized_states
from timebin_qkd.optics import DETECTION_BASIS, mzi_single
from timebin_qkd.qstate import (
    BasisMismatchError,
    ModeState,
    UnnormalizedStateError,
    basis_state,
    born_sample,
    equal_up_to_global_phase,
    superposition,
    tensor,
)
from timebin_qkd.timebin import TIME_BIN_BASIS, ket, time_bin_qubit

SQRT2_INV = 1 / math.sqrt(2)


class TestModeState:
    def test_amplitude_count_must_match_basis(self):
        with pytest.raises(ValueError):
            ModeState(("a", "b"), np.array([1.0]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ModeState(("a", "a"), np.array([1.0, 0.0]))

    def test_normalize(self):
        s = ModeState(("a", "b"), np.array([3.0, 4.0])).normalize()
        assert abs(s.norm() - 1.0) <= 1e-12
        assert s.probability("b") == pytest.approx(0.64, abs=1e-12)

    def test_amplitudes_read_only(self):
        s = ket("E")
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestTensor:
    def test_basis_kets(self):
        prod = tensor(ket("E"), ket("L"))
        assert prod.amplitude("EL") == 1.0
        assert prod.probability("EE") == 0.0

    def test_distributes_over_superposition(self):
        prod = tensor(time_bin_qubit(1, 1), ket("E"))
        assert prod.amplitude("EE") == pytest.approx(SQRT2_INV)
        assert prod.amplitude("LE") == pytest.approx(SQRT2_INV)
        assert prod.amplitude("EL") == 0.0

    @given(normalized_states(TIME_BIN_BASIS), normalized_states(TIME_BIN_BASIS))
    def test_norm_multiplicative(self, s1, s2):
        assert abs(tensor(s1, s2).norm() - 1.0) <= 1e-12

    def test_basis_is_s1_major_product(self):
        prod = tensor(ket("L"), ket("E"))
        assert prod.basis == ("EE", "EL", "LE", "LL")


class TestBornSample:
    def test_deterministic_state(self, rng):
        s = basis_state(DETECTION_BASIS, DETECTION_BASIS[2])
        assert all(born_sample(s, rng) == DETECTION_BASIS[2] for _ in range(50))

    def test_equal_superposition_frequencies(self, rng):
        n = 100_000
        s = time_bin_qubit(1, 1)
        hits = sum(born_sample(s, rng) == "E" for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(hits - n / 2) <= 5 * sigma

    def test_mzi_outcome_frequencies(self, rng):
        # |E⟩ at φ=0 feeds the four early/middle outcomes equally, never late.
        n = 100_000
        s = mzi_single(ket("E"), 0.0)
        counts = {o: 0 for o in DETECTION_BASIS}
        for _ in range(n):
            counts[born_sample(s, rng)] += 1
        expected = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
        for o, p in zip(DETECTION_BASIS, expected):
            sigma = math.sqrt(n * p * (1 - p)) if p else 0.0
            assert abs(counts[o] - n * p) <= max(5 * sigma, 0)

    def test_rejects_unnormalized(self, rng):
        s = ModeState(("a", "b"), np.array([1.0, 1.0]))
        with pytest.raises(UnnormalizedStateError):
            born_sample(s, rng)


class TestEqualUpToGlobalPhase:
    def test_global_minus_sign(self):
        s = time_bin_qubit(1, 1j)
        t = ModeState(s.basis, -s.amplitudes)
        assert equal_up_to_global_phase(s, t)

    def test_orthogonal_states_differ(self):
        assert not equal_up_to_global_phase(ket("E"), ket("L"))

    def test_basis_mismatch_raises(self):
        with pytest.raises(BasisMismatchError):
            equal_up_to_global_phase(ket("E"), ket("EL"))

    @given(normalized_states(TIME_BIN_BASIS))
    def test_reflexive(self, s):
        assert equal_up_to_global_phase(s, s)

    def test_subnormal_overlap_compares_without_overflow(self):
        # <t|s> = 1.1125369292536007e-308 / 2, a subnormal: dividing by its modulus overflowed.
        s = ModeState(TIME_BIN_BASIS, np.array([1, 1j]) * SQRT2_INV)
        t = ModeState(TIME_BIN_BASIS, np.array([1.1125369292536007e-308 + 1j, 1]) * SQRT2_INV)
        assert not equal_up_to_global_phase(s, t, tol=1e-9)
        assert not equal_up_to_global_phase(t, s, tol=1e-9)

    @given(normalized_states(TIME_BIN_BASIS), normalized_states(TIME_BIN_BASIS))
    def test_symmetric(self, s, t):
        assert equal_up_to_global_phase(s, t, tol=1e-9) == equal_up_to_global_phase(
            t, s, tol=1e-9
        )

    @given(normalized_states(("EE", "EL", "LE", "LL")))
    def test_transitive_through_two_phases(self, s):
        t = ModeState(s.basis, s.amplitudes * np.exp(0.7j))
        u = ModeState(t.basis, t.amplitudes * np.exp(1.9j))
        assert equal_up_to_global_phase(s, t)
        assert equal_up_to_global_phase(t, u)
        assert equal_up_to_global_phase(s, u)


def test_superposition_normalizes():
    s = superposition(("x", "y", "z"), {"x": 2.0, "z": 2.0})
    assert s.amplitude("x") == pytest.approx(SQRT2_INV)
    assert abs(s.norm() - 1.0) <= 1e-12
