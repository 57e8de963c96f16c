#!/usr/bin/env python3
"""Sweep the receiver's interferometer phase for each scheme.

The combined scheme's sifted rate and QBER should be flat across the sweep
(autocompensation); the single-photon scheme's QBER should follow the cos²
detuning of its phase basis.
"""
import gc
import math

from timebin_qkd.protocols import SchemeId
from timebin_qkd.session import SessionConfig, run_session

TRIALS = 50_000
SEED = 2026
GRID = [i * math.pi / 8 for i in range(9)]


def main():
    for scheme in (SchemeId.COMBINED, SchemeId.FIG1_SINGLE_PHOTON):
        print(f"\n{scheme.value}: {TRIALS} trials per point")
        print(f"{'phi':>8}  {'sifted_rate':>12}  {'qber':>8}")
        for phi in GRID:
            stats, _ = run_session(SessionConfig(scheme, TRIALS, SEED, phase=phi))
            print(f"{phi:8.4f}  {stats.sifted_rate:12.4f}  {stats.qber:8.4f}")


if __name__ == "__main__":
    main()
    # As timebin_qkd.cli.main does: the interpreter's final collections then
    # skip the objects that the imports left tracked, tens of ms at exit.
    gc.freeze()
