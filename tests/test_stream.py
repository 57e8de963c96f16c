"""The session's random stream: its raw words against Philox's specification,
and every config's trial codes against their exact law.

The raw words of a chunk's stream are fixed by the Philox4x64-10
specification (Salmon, Moraes, Dror & Shaw, SC'11), written out below in
plain Python; so they do not depend on the numpy version.

Each trial of a config is i.i.d. over the 4 × S × (O + 1) code cells, with
the law `oracles.code_law` computes on the scalar path. A G-test of each
config's code counts against that law checks the whole stream at once:
which word a trial takes, how its fields are cut from it, and how the
kernel samples. To print each config's G and its bound, run from the
repository root:

    PYTHONPATH=src python tests/test_stream.py
"""
import math
from statistics import NormalDist

import numpy as np
import pytest

import oracles
from timebin_qkd import session
from timebin_qkd.protocols import SchemeId
from timebin_qkd.session import PHASE_RANDOM, ChannelSpec, SessionConfig, run_session

TRIALS = 200_000
SEED = 4242
FIXED_PHASE = {
    SchemeId.FIG1_SINGLE_PHOTON: 0.7, SchemeId.COMBINED: 1.3, SchemeId.OWA_FOUR_PHASE: 2.2,
}
CHANNELS = {
    "none": ChannelSpec("none"),
    "collective=1.1": ChannelSpec("collective", phi=1.1),
    "collective=random": ChannelSpec("collective", phi=None),
    "independent": ChannelSpec("independent"),
    "loss=0.2": ChannelSpec("loss", loss=0.2),
}
#: A cell whose law is below this is 0 up to the roundoff of the scalar path.
LAW_ZERO = 1e-12
#: The chance that a G-test of a right stream fails, per config.
P_FALSE_ALARM = 1e-6


MASK = 2**64 - 1
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # the Weyl sequence's increments


def philox4x64_10(counter: tuple, key: tuple) -> tuple:
    """One Philox4x64-10 block: 10 rounds on four 64-bit counter words, the key bumped between."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for step in range(10):
        if step:
            k0, k1 = (k0 + PHILOX_KEY_STEPS[0]) & MASK, (k1 + PHILOX_KEY_STEPS[1]) & MASK
        p0, p1 = PHILOX_MULTIPLIERS[0] * c0, PHILOX_MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
    return c0, c1, c2, c3


def philox_words(key: tuple, n: int) -> list:
    """The first n words of the stream at key: the blocks of counter 1, 2, … in order.

    The counter is incremented before each block, so the first block is counter 1's.
    """
    words = []
    for counter in range(1, n // 4 + 2):
        words += philox4x64_10((counter, 0, 0, 0), key)
    return words[:n]


@pytest.mark.parametrize("key", [(0, 0), (31337, 5), (2**64 - 1, 123456)])
def test_rekeyed_raw_words_follow_the_philox_spec(key):
    bits = np.random.Philox(key=np.array([7, 7], dtype=np.uint64))
    bits.random_raw(5)  # a block partly spent, which the re-key must drop
    session._rekey(bits, *key)
    assert bits.random_raw(4 * 3 + 1).tolist() == philox_words(key, 4 * 3 + 1)


def gate_configs() -> dict[str, SessionConfig]:
    return {
        f"{scheme.value}/phase={phase}/{channel}/eve={eve}": SessionConfig(
            scheme, TRIALS, SEED, phase=FIXED_PHASE[scheme] if phase == "fixed" else PHASE_RANDOM,
            channel=CHANNELS[channel], eavesdropper=eve,
        )
        for scheme in SchemeId
        for phase in ("fixed", "random")
        for channel in CHANNELS
        for eve in ("off", "intercept_resend")
    }


def chi2_quantile(p: float, dof: int) -> float:
    """The χ² quantile with upper tail p, by Wilson and Hilferty's cube-root normal fit."""
    z = NormalDist().inv_cdf(1 - p)
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


def g_test(counts: np.ndarray, law: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(G, its χ² bound at P_FALSE_ALARM, counts in cells whose law is 0)."""
    live = law > LAW_ZERO
    observed, expected = counts[live], counts.sum() * law[live]
    seen = observed > 0
    g = 2 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    return g, chi2_quantile(P_FALSE_ALARM, int(live.sum()) - 1), counts[~live]


def code_counts(config: SessionConfig, n_cells: int) -> np.ndarray:
    _, records = run_session(config)
    return np.bincount(records._codes, minlength=n_cells)


CONFIGS = gate_configs()


def test_the_law_sums_to_one_and_gives_the_exact_expectation():
    # Summed over the sifted codes, the law is session_expectation's.
    for config in CONFIGS.values():
        law = oracles.code_law(config)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        sifted, errors = oracles.session_expectation(
            config.scheme, config.phase, config.channel, config.eavesdropper != "off"
        )
        tally = session._kernel(config.scheme).tally  # columns: errors, sent[4], kept[4], …
        assert law @ tally[:, 5:9].sum(axis=1) == pytest.approx(sifted, abs=1e-12)
        assert law @ tally[:, 0] == pytest.approx(errors, abs=1e-12)


def session_law(config: SessionConfig) -> np.ndarray:
    """P(code) of each of the session's codes, as its kernel's law (`_Kernel.law`) gives it:
    the row's law over the 4·S equally likely rows."""
    kernel = session._kernel(config.scheme)
    law = kernel.law(*session._law_key(config, kernel.photons))
    return law.ravel() / len(law)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_kernel_law_is_the_exact_law(name):
    # The law the session samples is the scalar path's, Eve and loss included.
    np.testing.assert_allclose(session_law(CONFIGS[name]), oracles.code_law(CONFIGS[name]),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_code_counts_fit_the_exact_law(name):
    law = oracles.code_law(CONFIGS[name])
    g, bound, impossible = g_test(code_counts(CONFIGS[name], len(law)), law)
    assert not impossible.any(), "a code whose law is 0 occurred"
    assert g <= bound, (g, bound)


def test_the_g_test_sees_a_phase_off_by_a_tenth():
    # fig1's codes at φ = 0.7 against its law at φ = 0.8: the gate has power.
    config = SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, TRIALS, SEED, phase=0.7)
    law = oracles.code_law(SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, TRIALS, SEED, phase=0.8))
    g, bound, impossible = g_test(code_counts(config, len(law)), law)
    assert not impossible.any()
    assert g > bound


def no_eve(kernel) -> np.ndarray:
    """A resend law under which Eve resends what Alice sent: the law keeps the no-Eve table."""
    return np.eye(4)


def no_spread(kernel) -> np.ndarray:
    """A resend law under which Eve, when inconclusive, resends Alice's own signal."""
    seen = kernel.born(1.0).reshape(4, -1) / len(kernel.betas)
    named = seen @ (kernel.announced[:, None] == np.arange(5))
    return named[:, 1:] + np.diag(named[:, 0])


def blind(wrong, config: SessionConfig) -> bool:
    """Whether a wrong resend law leaves an Eve config's law as it is. Behind
    independent dephasing every owa signal has one law, whatever Eve resends;
    and fig1's verdicts are all conclusive, so no_spread changes none of its laws."""
    return (config.scheme is SchemeId.OWA_FOUR_PHASE and config.channel.kind == "independent"
            or wrong is no_spread and config.scheme is SchemeId.FIG1_SINGLE_PHOTON)


@pytest.fixture
def fresh_kernels():
    session._kernel.cache_clear()
    yield
    session._kernel.cache_clear()


@pytest.mark.parametrize("wrong, fails", [(no_eve, 28), (no_spread, 18)],
                         ids=["no_eve", "no_spread"])
def test_the_g_test_sees_a_wrong_resend_law(wrong, fails, monkeypatch, fresh_kernels):
    # Sampled with a wrong resend law, the codes fail the G-test against the
    # exact law on every Eve config whose law it changes: 28 and 18 of 30.
    monkeypatch.setattr(session._Kernel, "resend_law", property(wrong))
    eve = {name: config for name, config in CONFIGS.items() if config.eavesdropper != "off"}
    failed = []
    for name, config in eve.items():
        law = oracles.code_law(config)
        g, bound, impossible = g_test(code_counts(config, len(law)), law)
        if impossible.any() or g > bound:
            failed.append(name)
    assert len(eve) == 30 and len(failed) == fails
    assert failed == [name for name, config in eve.items() if not blind(wrong, config)]


if __name__ == "__main__":
    worst = 0.0
    for name, config in CONFIGS.items():
        law = oracles.code_law(config)
        g, bound, impossible = g_test(code_counts(config, len(law)), law)
        worst = max(worst, g / bound)
        print(f"{name:<50} G {g:9.1f}  bound {bound:7.1f}  G/bound {g / bound:.3f}"
              f"  impossible {int(impossible.sum())}")
    print(f"worst G/bound {worst:.3f}")
