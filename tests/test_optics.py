import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import normalized_states, phases
from timebin_qkd.optics import (
    DETECTION_BASIS,
    JOINT_BASIS,
    MIDDLE_PAIR_BASIS,
    DetectionOutcome,
    JointOutcome,
    mzi_pair,
    mzi_single,
    outcome_distribution,
    phase_modulator,
    postselect_middle,
    wrap_phase,
)
from timebin_qkd.qstate import ModeState, basis_state, equal_up_to_global_phase
from timebin_qkd.timebin import TWO_PHOTON_BASIS, ket, two_photon_state

SQRT2_INV = 1 / math.sqrt(2)

PAIR_STATES = normalized_states(TWO_PHOTON_BASIS)


def anti_correlated(el, le):
    return two_photon_state(0, el, le, 0)


class TestMziSingle:
    def test_early_input_at_zero_phase(self):
        out = mzi_single(ket("E"), 0.0)
        np.testing.assert_allclose(
            out.amplitudes, [0.5j, 0.5j, -0.5, 0.5, 0.0, 0.0], atol=1e-15
        )

    def test_late_input_at_pi(self):
        out = mzi_single(ket("L"), math.pi)
        np.testing.assert_allclose(
            out.amplitudes, [0.0, 0.5j, 0.5, 0.0, -0.5j, 0.5], atol=1e-12
        )

    @given(normalized_states(("E", "L")), phases)
    def test_unitary(self, q, phi):
        assert abs(mzi_single(q, phi).norm() - 1.0) <= 1e-12

    def test_matches_enumeration_oracle(self):
        phi = 1.234
        out = mzi_single(ket("L"), phi)
        for (slot, det), amp in oracles.mzi_terms(phi)["L"]:
            assert out.amplitude(DetectionOutcome(slot, det)) == pytest.approx(amp)


class TestMziPair:
    def test_sixteen_equal_magnitude_amplitudes(self):
        for phi in (0.0, 0.9, 2.7):
            out = mzi_pair(ket("EL"), phi)
            mags = np.abs(out.amplitudes)
            assert np.count_nonzero(mags > 1e-12) == 16
            np.testing.assert_allclose(mags[mags > 1e-12], 0.25, atol=1e-12)

    @given(phases)
    def test_both_middle_probability_is_quarter(self, phi):
        out = mzi_pair(ket("EL"), phi)
        p = sum(out.probability(j) for j in MIDDLE_PAIR_BASIS)
        assert p == pytest.approx(0.25, abs=1e-12)

    @given(PAIR_STATES, phases)
    def test_norm_preserved(self, s, phi):
        assert abs(mzi_pair(s, phi).norm() - 1.0) <= 1e-12

    @given(PAIR_STATES, PAIR_STATES, phases)
    def test_linearity(self, s1, s2, phi):
        a, b = 0.6, 0.8j
        mixed = ModeState(TWO_PHOTON_BASIS, a * s1.amplitudes + b * s2.amplitudes)
        direct = mzi_pair(mixed, phi)
        combined = a * mzi_pair(s1, phi).amplitudes + b * mzi_pair(s2, phi).amplitudes
        np.testing.assert_allclose(direct.amplitudes, combined, atol=1e-12)


class TestPostselectMiddle:
    # Conditional states after both-middle postselection, detector-pair order
    # (−−, −+, +−, ++); derived global phase relative to mzi_pair is −e^{iφ}.
    EL_CONDITIONAL = np.array([1.0, -1j, 1j, 1.0]) / 2
    LE_CONDITIONAL = np.array([1.0, 1j, -1j, 1.0]) / 2

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.1, math.pi])
    def test_el_line(self, phi):
        cond, prob = postselect_middle(mzi_pair(ket("EL"), phi))
        assert prob == pytest.approx(0.25, abs=1e-12)
        expected = ModeState(MIDDLE_PAIR_BASIS, self.EL_CONDITIONAL)
        assert equal_up_to_global_phase(cond, expected)

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.1, math.pi])
    def test_le_line(self, phi):
        cond, prob = postselect_middle(mzi_pair(ket("LE"), phi))
        assert prob == pytest.approx(0.25, abs=1e-12)
        expected = ModeState(MIDDLE_PAIR_BASIS, self.LE_CONDITIONAL)
        assert equal_up_to_global_phase(cond, expected)

    def test_symmetric_superposition_cancels_cross_terms(self):
        cond, prob = postselect_middle(mzi_pair(anti_correlated(1, 1), 1.1))
        assert prob == pytest.approx(0.25, abs=1e-12)
        expected = ModeState(
            MIDDLE_PAIR_BASIS, np.array([SQRT2_INV, 0, 0, SQRT2_INV])
        )
        assert equal_up_to_global_phase(cond, expected)

    def test_zero_probability_reported_not_raised(self):
        joint = basis_state(
            JOINT_BASIS,
            JointOutcome(DetectionOutcome("early", "minus"), DetectionOutcome("early", "minus")),
        )
        cond, prob = postselect_middle(joint)
        assert cond is None
        assert prob == 0.0

    def test_matches_enumeration_oracle(self):
        phi = 2.345
        cond, prob = postselect_middle(mzi_pair(ket("EL"), phi))
        oracle_cond, oracle_prob = oracles.postselect_both_middle(
            oracles.expand_pair({"EL": 1.0}, phi)
        )
        assert prob == pytest.approx(oracle_prob, abs=1e-12)
        for j in MIDDLE_PAIR_BASIS:
            key = (j.photon1.detector, j.photon2.detector)
            assert cond.amplitude(j) == pytest.approx(oracle_cond[key], abs=1e-12)


class TestPhaseModulator:
    def test_zero_beta_is_identity(self):
        s = anti_correlated(1, 1j)
        np.testing.assert_array_equal(phase_modulator(s, 0.0, 1, "L").amplitudes, s.amplitudes)

    def test_targets_photon1_late_bin(self):
        alpha, beta = 0.4, 1.3
        s = anti_correlated(1, np.exp(1j * alpha))
        out = phase_modulator(s, beta, 1, "L")
        expected = anti_correlated(1, np.exp(1j * (alpha + beta)))
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-12)

    @given(PAIR_STATES, phases)
    def test_inverse_phases_cancel(self, s, beta):
        back = phase_modulator(phase_modulator(s, beta, 2, "E"), -beta, 2, "E")
        np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-12)

    def test_rejects_bad_photon_index(self):
        with pytest.raises(ValueError):
            phase_modulator(anti_correlated(1, 1), 0.1, 3, "L")


class TestOutcomeDistribution:
    def test_deterministic_state(self):
        joint = basis_state(JOINT_BASIS, JOINT_BASIS[7])
        p = outcome_distribution(joint)
        assert p[7] == 1.0 and p.sum() == 1.0

    def test_sixteen_sixteenths_at_zero_phase(self):
        p = outcome_distribution(mzi_pair(ket("EL"), 0.0))
        assert np.count_nonzero(p > 1e-12) == 16
        np.testing.assert_allclose(p[p > 1e-12], 1 / 16, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_middle_entries_phase_invariant(self):
        idx = [JOINT_BASIS.index(j) for j in MIDDLE_PAIR_BASIS]
        grid = [0.0, math.pi / 5, 1.0, math.pi / 2, 3.0]
        tables = [outcome_distribution(mzi_pair(anti_correlated(1, 1j), phi))[idx] for phi in grid]
        for t in tables[1:]:
            np.testing.assert_allclose(t, tables[0], atol=1e-12)

    def test_rejects_a_nan_state(self):
        # A NaN total fails the normalization check instead of passing it.
        with pytest.raises(ValueError):
            outcome_distribution(ModeState(DETECTION_BASIS, [np.nan] * 6))


class TestAutocompensation:
    @given(normalized_states(("EL", "LE")), phases, phases)
    def test_middle_probabilities_phase_independent(self, sub, phi1, phi2):
        s = two_photon_state(0, sub.amplitude("EL"), sub.amplitude("LE"), 0)
        p1 = [mzi_pair(s, phi1).probability(j) for j in MIDDLE_PAIR_BASIS]
        p2 = [mzi_pair(s, phi2).probability(j) for j in MIDDLE_PAIR_BASIS]
        np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_wrap_phase():
    assert wrap_phase(2 * math.pi + 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        wrap_phase(float("nan"))
    # % rounds 2π − ε up to 2π for these; the θ = 0 law is wrapped to 0.
    for tiny in (-1e-20, -1e-16, -4e-16, -1e-300, -5e-324):
        assert wrap_phase(tiny) == 0.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_phase_is_in_zero_to_two_pi(phi):
    assert 0.0 <= wrap_phase(phi) < 2 * math.pi


def test_joint_basis_has_36_distinct_outcomes():
    assert len(JOINT_BASIS) == len(set(JOINT_BASIS)) == 36
    assert len(DETECTION_BASIS) == len(set(DETECTION_BASIS)) == 6
