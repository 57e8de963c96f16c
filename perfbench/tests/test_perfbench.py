"""Self-tests of the benchmark. Not part of the package's test suite; run with

    python3 -m pytest -q perfbench/tests
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import exact
import layers
import run
import workloads
from execute import Runner, sum_top_level_us
from speed import REFERENCE_LOOP_S, reference_loop, speed_scale
from timebin_qkd.optics import DETECTION_BASIS, JOINT_BASIS, mzi_pair, mzi_single
from timebin_qkd.protocols import SchemeId, generate_chart, signal_state

ROOT = Path(__file__).resolve().parents[2]
PHASES = (0.0, 0.7, math.pi / 2, 2.9, 5.5)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("phi", PHASES)
@pytest.mark.parametrize("scheme", exact.SCHEMES)
def test_oracle_matches_package_born_tables(scheme, phi):
    single = scheme == "fig1"
    labels = [o.label for o in (DETECTION_BASIS if single else JOINT_BASIS)]
    assert list(exact.outcome_labels(scheme)) == labels
    chart = generate_chart(SchemeId(scheme), phi)
    support = {label: [] for label in labels}
    for index in (1, 2, 3, 4):
        state = signal_state(SchemeId(scheme), index).state
        out = mzi_single(state, phi) if single else mzi_pair(state, phi)
        probs = exact.outcome_probs(scheme, index, phi)
        np.testing.assert_allclose(probs, out.probabilities(), atol=1e-12)
        for label, p in zip(labels, probs):
            if p > 1e-12:
                support[label].append(index)
    assert {k: tuple(v) for k, v in support.items()} == chart.entries


@pytest.mark.parametrize(
    "scheme, clean_rate, eve_qber",
    [("fig1", 1 / 2, 1 / 4), ("combined", 1 / 4, 3 / 8), ("owa", 1 / 8, 7 / 16)],
)
def test_oracle_spot_values(scheme, clean_rate, eve_qber):
    assert exact.expected(scheme, 0.0, "none", 0.0, False) == pytest.approx((clean_rate, 0.0))
    assert exact.expected(scheme, 0.0, "none", 0.0, True) == pytest.approx((clean_rate, eve_qber))
    photons = 1 if scheme == "fig1" else 2
    rate, qber = exact.expected(scheme, 0.0, "loss", 0.3, False)
    assert (rate, qber) == pytest.approx((clean_rate * 0.7**photons, 0.0))
    if scheme != "fig1":  # autocompensating: no phase or collective dephasing shows
        for phase, channel in [(1.3, "none"), ("random", "collective")]:
            assert exact.expected(scheme, phase, channel, 0.0, False) == (pytest.approx(clean_rate), 0.0)


def test_oracle_fig1_follows_detuning():
    for phi in PHASES:
        _, qber = exact.expected("fig1", phi, "none", 0.0, False)
        assert qber == pytest.approx(math.sin(phi / 2) ** 2 / 2)


def test_binomial_check():
    assert checks.binomial_ok(0, 100, 0.0) and not checks.binomial_ok(1, 100, 0.0)
    assert checks.binomial_ok(250, 1000, 0.25)
    assert not checks.binomial_ok(125, 1000, 0.25)


def test_pooled_check_catches_a_bias_each_session_hides():
    # combined with Eve: rate 1/4, QBER 3/8. Each session's errors sit 5 standard
    # errors low (inside Z = 6), as if Eve caused a QBER nearer 1/4 than 3/8.
    case = workloads.Case("combined", 1800, 1, 0.0, eve=True)
    sifted = 450
    errors = round(sifted * 3 / 8 - 5 * math.sqrt(sifted * 3 / 8 * 5 / 8))
    doc = {"trials": 1800, "sifted": sifted, "errors": errors}
    assert checks.rate_problems(case.physics, 1800, sifted, errors) == []
    assert checks.check_pooled([(case, doc)]) == {}
    failed = checks.check_pooled([(case, doc)] * 4)
    assert list(failed) == [case.physics]
    assert "pooled over 4 sessions" in failed[case.physics][0]
    other = workloads.Case("combined", 1800, 2, 0.0, eve=False)
    fair = {"trials": 1800, "sifted": 450, "errors": 0}
    assert checks.check_pooled([(other, fair)] * 4) == {}


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "n, pct, rank",
    [(40, 75, 30), (42, 75, 32), (20, 50, 10), (21, 50, 11), (18, 100, 18), (1, 50, 1)],
)
def test_nearest_rank(n, pct, rank):
    values = list(range(n, 0, -1))  # order must not matter
    assert run.nearest_rank(values, pct) == (rank, n - rank)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_min_sessions_leave_ten_beyond_the_tail(name):
    w = workloads.WORKLOADS[name]
    n = w.min_sessions
    if w.tail_pct == 100:  # the slowest session: one pass is fewer than 20
        assert n == 1 and len(next(w.passes(1))) < 2 * workloads.TAIL_BEYOND
        return
    assert run.nearest_rank(range(n), w.tail_pct)[1] == workloads.TAIL_BEYOND
    assert run.nearest_rank(range(n - 1), w.tail_pct)[1] < workloads.TAIL_BEYOND


def test_importtime_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:        50 |        900 | numpy\n"
        "import time:        10 |         10 | timebin_qkd\n"
        "import time:        20 |        400 |   timebin_qkd.qstate\n"
        "import time:        30 |       1500 | timebin_qkd.cli\n"
    )
    assert sum_top_level_us(text, "timebin_qkd") == 1510


def test_tracer_survives_missing_layers(monkeypatch):
    assert layers._resolve("session.no_such_function") is None
    assert layers._resolve("no_such_module.f") is None
    monkeypatch.setattr(layers, "WRAPPED", layers.WRAPPED + ("session.no_such_function",))
    from timebin_qkd import session

    original = session.run_session
    config = session.config_from_dict({"scheme": "combined", "trials": 5, "seed": 1})
    with layers.Tracer() as tracer:
        with tracer.session_span(0):
            session.run_session(config)
    assert session.run_session is original
    summary = tracer.summary()
    assert "session.no_such_function" not in summary
    assert summary["session.run_session"][0] == 1
    assert summary["qstate.born_sample"][0] == 5
    assert summary[layers.SESSION][0] == 1


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name in ("SESSION_TRIALS", "CLI_TRIALS", "RSS_TRIALS"):
        monkeypatch.setattr(workloads, name, 40)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    return Runner(ROOT / "src", tmp_path)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(tiny, name):
    bench = run.Bench(workloads.WORKLOADS[name], 5, tiny)
    metrics, samples, _ = bench.end_to_end(seconds=0)
    assert [s.problems for s in samples if s.problems] == []
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["ok_frac"][0] == 1.0
    for value, _ in metrics.values():
        assert value > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(tiny, tmp_path, name):
    bench = run.Bench(workloads.WORKLOADS[name], 5, tiny)
    first, samples, _ = bench.per_layer(tmp_path / "a.npz")
    second, _, _ = bench.per_layer(tmp_path / "b.npz")
    assert [s.problems for s in samples if s.problems] == []
    assert list(first) == list(layers.per_layer_spec())
    counts = [k for k in first if k.endswith(".calls")]
    assert [first[k] for k in counts] == [second[k] for k in counts]
    assert first["session.run_session.calls"][0] == len(samples)
    with np.load(tmp_path / "a.npz") as spans:
        assert len(spans["fid"]) == len(spans["end_ns"]) > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scale():
    assert speed_scale(REFERENCE_LOOP_S, REFERENCE_LOOP_S) == pytest.approx(1.0)
    assert speed_scale(2 * REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S) == pytest.approx(0.5)
    assert reference_loop() > 0
