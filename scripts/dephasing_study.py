#!/usr/bin/env python3
"""Compare collective vs independent dephasing, with and without Eve.

The anti-correlated encoding rides out collective dephasing entirely (QBER
stays at zero for any per-trial phase), while independent per-photon phases
scramble the phase-basis half of the key. An intercept-resend attacker is
visible in either scheme.
"""
import gc

from timebin_qkd.protocols import SchemeId
from timebin_qkd.session import ChannelSpec, SessionConfig, run_session

TRIALS = 50_000
SEED = 2026

CASES = [
    ("clean", ChannelSpec("none"), "off"),
    ("collective dephasing (random phi)", ChannelSpec("collective", phi=None), "off"),
    ("independent dephasing", ChannelSpec("independent"), "off"),
    ("photon loss p=0.2", ChannelSpec("loss", loss=0.2), "off"),
    ("intercept-resend eavesdropper", ChannelSpec("none"), "intercept_resend"),
]


def main():
    for scheme in (SchemeId.COMBINED, SchemeId.FIG1_SINGLE_PHOTON):
        phase = 1.3 if scheme is SchemeId.COMBINED else 0.0
        print(f"\n{scheme.value}: {TRIALS} trials, interferometer phase {phase}")
        print(f"{'case':<36}  {'sifted_rate':>12}  {'qber':>8}")
        for name, channel, eve in CASES:
            cfg = SessionConfig(
                scheme, TRIALS, SEED, phase=phase, channel=channel, eavesdropper=eve
            )
            stats, _ = run_session(cfg)
            print(f"{name:<36}  {stats.sifted_rate:12.4f}  {stats.qber:8.4f}")


if __name__ == "__main__":
    main()
    # As timebin_qkd.cli.main does: the interpreter's final collections then
    # skip the objects that the imports left tracked, tens of ms at exit.
    gc.freeze()
