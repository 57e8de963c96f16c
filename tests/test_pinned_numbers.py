"""Sampled numbers pinned: sha256 of stats and trace on a grid of configs.

The digests in pinned_digests.json pin every sampled number of the stream
that RNG_IDENTITY names: each trial's fields cut from its own Philox raw
words (session.py's docstring gives the layout). Every sampler must
reproduce them byte for byte; they change only with the RNG identity, and
are re-recorded only after tests/test_stream.py has checked the new stream
against every config's exact law. To re-record them after a deliberate
change of RNG_IDENTITY, run from the repository root:

    PYTHONPATH=src python tests/test_pinned_numbers.py > tests/pinned_digests.json
"""
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from timebin_qkd.protocols import SchemeId
from timebin_qkd.session import (
    ChannelSpec,
    SessionConfig,
    run_session,
    stats_document,
    stats_json,
    trace_csv,
)

DIGESTS = Path(__file__).with_name("pinned_digests.json")

PHASES = {"0": 0.0, "0.7": 0.7, "random": "random"}
CHANNELS = {
    "none": ChannelSpec("none"),
    "collective=1.1": ChannelSpec("collective", phi=1.1),
    "collective=random": ChannelSpec("collective", phi=None),
    "independent": ChannelSpec("independent"),
    "loss=0.2": ChannelSpec("loss", loss=0.2),
}
EVE = {"off": "off", "on": "intercept_resend"}
TRIALS = (1, 4097)  # one trial, and a full chunk with one trial in a second


def pinned_configs() -> dict[str, SessionConfig]:
    return {
        f"{scheme.value}/phase={p}/{c}/eve={e}/trials={n}": SessionConfig(
            scheme, trials=n, seed=31337, phase=PHASES[p], channel=CHANNELS[c],
            eavesdropper=EVE[e],
        )
        for scheme in SchemeId
        for p in PHASES
        for c in CHANNELS
        for e in EVE
        for n in TRIALS
    }


def digest(config: SessionConfig) -> str:
    stats, records = run_session(config)
    return hashlib.sha256((stats_json(stats) + trace_csv(records)).encode()).hexdigest()


CONFIGS = pinned_configs()


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_pinned_set_covers_every_config(pinned):
    assert sorted(pinned) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_stats_and_trace_match_pinned_digest(name, pinned):
    assert digest(CONFIGS[name]) == pinned[name]


def test_stats_json_equals_json_dumps():
    for config in CONFIGS.values():
        stats, _ = run_session(config)
        assert stats_json(stats) == json.dumps(stats_document(stats), indent=2, sort_keys=True)


def test_two_threads_give_the_serial_digests(pinned):
    # Two threads at once, switching as often as the interpreter allows: a
    # generator shared between them would mix their streams.
    serial = {name: digest(config) for name, config in CONFIGS.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = dict(zip(CONFIGS, pool.map(digest, CONFIGS.values(), timeout=300)))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial == pinned


def test_a_session_after_one_of_another_seed_is_unaffected(pinned):
    # The 3-trial session leaves the thread's bit generator at another key,
    # part of its last block unread.
    for name, config in CONFIGS.items():
        run_session(replace(config, seed=config.seed + 1, trials=3))
        assert digest(config) == pinned[name]


if __name__ == "__main__":
    json.dump({name: digest(c) for name, c in CONFIGS.items()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
