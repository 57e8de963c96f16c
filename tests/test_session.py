import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timebin_qkd.optics import JOINT_BASIS, mzi_pair, outcome_distribution
from timebin_qkd.protocols import INDEX_FOR, SchemeId, classify_combined, signal_state
from timebin_qkd import session
from timebin_qkd.session import (
    CHUNK_TRIALS,
    ChannelSpec,
    ConfigError,
    SessionConfig,
    config_from_dict,
    run_session,
    stats_document,
    stats_json,
    trace_csv,
)


def make_config(**kw):
    base = dict(scheme=SchemeId.COMBINED, trials=1000, seed=42, phase=1.3)
    base.update(kw)
    return SessionConfig(**base)


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            make_config(trials=0)

    def test_bad_phase_string(self):
        with pytest.raises(ConfigError):
            make_config(phase="sometimes")

    def test_bad_channel_kind(self):
        with pytest.raises(ConfigError):
            make_config(channel=ChannelSpec("fog"))

    def test_bad_loss_probability(self):
        with pytest.raises(ConfigError):
            make_config(channel=ChannelSpec("loss", loss=1.5))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.5, "7"])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            make_config(seed=seed)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            stats, _ = run_session(make_config(seed=seed, trials=10))
            assert stats.config.seed == seed

    def test_round_trip_through_dict(self):
        cfg = make_config(channel=ChannelSpec("collective", phi=None), phase="random")
        doc = {
            "scheme": "combined",
            "trials": 1000,
            "seed": 42,
            "phase": "random",
            "channel": {"kind": "collective", "phi": "random"},
        }
        assert config_from_dict(doc) == cfg


class TestDeterminism:
    def test_identical_configs_identical_outputs(self):
        cfg = make_config(trials=3000)
        s1, r1 = run_session(cfg)
        s2, r2 = run_session(cfg)
        assert stats_json(s1) == stats_json(s2)
        assert trace_csv(r1) == trace_csv(r2)

    def test_random_dephasing_runs_twice_identically(self):
        cfg = make_config(trials=3000, channel=ChannelSpec("collective", phi=None))
        s1, r1 = run_session(cfg)
        s2, r2 = run_session(cfg)
        assert stats_json(s1) == stats_json(s2)
        assert trace_csv(r1) == trace_csv(r2)

    def test_many_chunks_run_twice_identically(self):
        cfg = make_config(
            scheme=SchemeId.OWA_FOUR_PHASE, trials=5 * CHUNK_TRIALS + 17, phase="random",
            channel=ChannelSpec("independent"), eavesdropper="intercept_resend",
        )
        outputs = set()
        for _ in range(2):
            stats, records = run_session(cfg)
            outputs.add((stats_json(stats), trace_csv(records)))
        assert len(outputs) == 1

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_table_path_runs_twice_identically(self, scheme):
        # Fixed φ behind a fixed collective phase, with Eve: every trial is
        # sampled from Born tables, over several chunks.
        cfg = make_config(
            scheme=scheme, trials=3 * CHUNK_TRIALS + 5, phase=0.7,
            channel=ChannelSpec("collective", phi=1.1), eavesdropper="intercept_resend",
        )
        outputs = set()
        for _ in range(2):
            stats, records = run_session(cfg)
            outputs.add((stats_json(stats), trace_csv(records)))
        assert len(outputs) == 1

    def test_different_seeds_differ(self):
        s1, _ = run_session(make_config(seed=1, trials=2000))
        s2, _ = run_session(make_config(seed=2, trials=2000))
        assert stats_json(s1) != stats_json(s2)


class TestChannels:
    def test_full_loss_drops_every_trial(self):
        cfg = make_config(trials=500, channel=ChannelSpec("loss", loss=1.0))
        stats, records = run_session(cfg)
        assert stats.sifted == 0
        assert all(r.outcome_label == "lost" for r in records)

    def test_partial_loss_reduces_rate(self):
        cfg = make_config(trials=20_000, channel=ChannelSpec("loss", loss=0.5))
        stats, _ = run_session(cfg)
        # both photons must survive: rate = 0.25 * 0.25
        assert stats.sifted_rate == pytest.approx(0.0625, abs=0.01)
        assert stats.qber == 0.0

    def test_collective_random_keeps_key_clean(self):
        cfg = make_config(trials=20_000, channel=ChannelSpec("collective", phi=None))
        stats, _ = run_session(cfg)
        assert stats.qber == 0.0
        assert stats.sifted_rate == pytest.approx(0.25, abs=0.02)

    def test_independent_dephasing_scrambles_phase_bits(self):
        cfg = SessionConfig(
            SchemeId.COMBINED, trials=100_000, seed=11, phase=1.3,
            channel=ChannelSpec("independent"),
        )
        stats, records = run_session(cfg)
        assert stats.qber == pytest.approx(0.25, abs=0.02)
        time_kept = [r for r in records if r.kept and r.basis == "time"]
        assert all(r.bit_alice == r.bit_bob for r in time_kept)


class TestNoiselessCorrectness:
    @pytest.mark.parametrize(
        "scheme,phase", [(SchemeId.COMBINED, 2.2), (SchemeId.OWA_FOUR_PHASE, 0.9),
                         (SchemeId.FIG1_SINGLE_PHOTON, 0.0)]
    )
    def test_every_kept_bit_agrees(self, scheme, phase):
        cfg = SessionConfig(scheme, trials=20_000, seed=5, phase=phase)
        stats, records = run_session(cfg)
        assert stats.errors == 0
        assert all(r.bit_alice == r.bit_bob for r in records if r.kept)


class TestFig1Calibration:
    def test_pi_detuning_flips_phase_basis_bits(self):
        cfg = SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, trials=100_000, seed=9, phase=math.pi)
        stats, records = run_session(cfg)
        # π detuning flips the equatorial readout deterministically: every
        # phase-basis bit is wrong, time-basis bits stay clean, so the overall
        # QBER sits at the phase-basis share of the sifted key, about 1/2.
        phase_kept = [r for r in records if r.kept and r.basis == "phase"]
        assert all(r.bit_alice != r.bit_bob for r in phase_kept)
        time_kept = [r for r in records if r.kept and r.basis == "time"]
        assert all(r.bit_alice == r.bit_bob for r in time_kept)
        assert stats.qber == pytest.approx(0.5, abs=0.02)


def combined_eve_qber_oracle(phi_bob: float) -> float:
    """Exact intercept-resend QBER by enumerating the 4×36×36 outcome lattice."""
    kept = err = 0.0
    resend_cache = {
        i: outcome_distribution(mzi_pair(signal_state(SchemeId.COMBINED, i).state, phi_bob))
        for i in (1, 2, 3, 4)
    }
    for alice_index in (1, 2, 3, 4):
        alice = signal_state(SchemeId.COMBINED, alice_index)
        eve_dist = outcome_distribution(mzi_pair(alice.state, 0.0))
        for eve_outcome, p_eve in zip(JOINT_BASIS, eve_dist):
            if p_eve == 0.0:
                continue
            eve_verdict = classify_combined(eve_outcome)
            if eve_verdict.conclusive:
                resend_indices = [(INDEX_FOR[(eve_verdict.basis, eve_verdict.bit)], 1.0)]
            else:
                resend_indices = [(i, 0.25) for i in (1, 2, 3, 4)]
            for resend_index, p_resend in resend_indices:
                bob_dist = resend_cache[resend_index]
                for bob_outcome, p_bob in zip(JOINT_BASIS, bob_dist):
                    if p_bob == 0.0:
                        continue
                    bob_verdict = classify_combined(bob_outcome)
                    if not bob_verdict.conclusive or bob_verdict.basis != alice.basis:
                        continue
                    w = 0.25 * p_eve * p_resend * p_bob
                    kept += w
                    if bob_verdict.bit != alice.bit:
                        err += w
    return err / kept


class TestInterceptResend:
    def test_eve_off_key_is_clean(self):
        stats, _ = run_session(make_config(trials=20_000))
        assert stats.qber == 0.0

    def test_fig1_eve_quarter_error_rate(self):
        cfg = SessionConfig(
            SchemeId.FIG1_SINGLE_PHOTON, trials=100_000, seed=13, phase=0.0,
            eavesdropper="intercept_resend",
        )
        stats, _ = run_session(cfg)
        assert stats.qber == pytest.approx(0.25, abs=0.02)

    def test_combined_eve_matches_enumeration_oracle(self):
        phi = 1.3
        target = combined_eve_qber_oracle(phi)
        assert target > 0.1
        cfg = SessionConfig(
            SchemeId.COMBINED, trials=100_000, seed=13, phase=phi,
            eavesdropper="intercept_resend",
        )
        stats, _ = run_session(cfg)
        sigma = math.sqrt(target * (1 - target) / stats.sifted)
        assert abs(stats.qber - target) <= 5 * sigma


class TestStats:
    def test_histogram_sums_to_trials(self):
        stats, _ = run_session(make_config(trials=5000))
        assert sum(stats.histogram.values()) == 5000

    def test_per_signal_counts_consistent(self):
        stats, _ = run_session(make_config(trials=5000))
        assert sum(stats.signal_sent.values()) == 5000
        assert sum(stats.signal_kept.values()) == stats.sifted

    def test_document_round_trips_through_json(self):
        stats, _ = run_session(make_config(trials=500))
        assert json.loads(stats_json(stats)) == stats_document(stats)

    def test_trace_matches_stats(self):
        stats, records = run_session(make_config(trials=2000))
        assert sum(r.kept for r in records) == stats.sifted
        assert len(records) == 2000


# Keys and strings: any text, and some that surely hold quotes, backslashes,
# control characters and non-ASCII characters.
_text = st.text() | st.sampled_from(['"', 'a"b\\', "\x00\x1f\x7f\n\t", "é\u2028\U0001f600", "ключ"])
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**63, 2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e-300, 1e16, 5e-324, -1e16, 1.5e300])
    | st.sampled_from([math.nan, math.inf, -math.inf])  # beyond a stats document, still equal
    | _text,
    lambda children: st.dictionaries(_text, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(_text, _json_values, max_size=6))
def test_stats_writer_equals_json_dumps(doc):
    assert session._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {}, {"a": {}}, {1: 2, 3: {"a": 1}}, {"a": {True: None, False: 1.5}}, {"x": {"y": {2.5: "z"}}},
    {"a": [{"b": 1}, [], 2]}, {"a": np.float64(0.1), "c": ["x", None]},
])
def test_stats_writer_hands_other_values_to_json_dumps(doc):
    assert session._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{"a": 1, 2: 3}, {"a": {"b": 1, 2: 3}}, {"a": np.int64(3)}])
def test_stats_writer_raises_where_json_dumps_raises(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        session._json(doc)
