import errno
import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import timebin_qkd
from timebin_qkd import cli, session
from timebin_qkd.cli import main


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Each `timebin-qkd …` line of README's sh blocks, its `\\` continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("timebin-qkd ")]


#: Each --channel form, and the "channel" of its config document.
CHANNEL_FORMS = [
    ("none", {"kind": "none"}),
    ("independent", {"kind": "independent"}),
    ("collective=1.1", {"kind": "collective", "phi": 1.1}),
    ("collective=random", {"kind": "collective", "phi": "random"}),
    ("loss=0.2", {"kind": "loss", "loss": 0.2}),
]


def python(*args: str) -> subprocess.CompletedProcess:
    """Run `python args` on this checkout's package to its exit; its stdout and stderr as bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(timebin_qkd.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counted(monkeypatch, module, name: str) -> list:
    """Count the calls `cli` makes to `module`'s function `name`; the list gets one entry per
    call. `cli` imports `session`'s functions when a command runs, so they are counted there."""
    calls, function = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestRun:
    def test_combined_rate_in_band(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "20000",
            "--seed", "7", "--phase", "1.3",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.24 <= doc["sifted_rate"] <= 0.26
        assert doc["qber"] == 0.0

    def test_fig1_rate_in_band(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "fig1", "--trials", "20000",
            "--seed", "7", "--phase", "0",
        )
        assert code == 0
        assert 0.49 <= json.loads(out)["sifted_rate"] <= 0.51

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["run", "--protocol", "combined", "--trials", "200", "--seed", "1"]
        outputs = []
        for name in ("a", "b"):
            out_path = tmp_path / f"{name}.json"
            trace_path = tmp_path / f"{name}.csv"
            code = main(args + ["--out", str(out_path), "--trace", str(trace_path)])
            assert code == 0
            outputs.append((out_path.read_bytes(), trace_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_missing_required_flags(self, capsys):
        code, out, err = run_cli(capsys, "run", "--protocol", "combined")
        assert code == 2
        assert out == "" and err == "error: missing required flags: --trials, --seed\n"

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--protocol", "combined", "--trials", "10", "--seed", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_channel_and_eve_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "fig1", "--trials", "20000", "--seed", "3",
            "--phase", "0", "--channel", "none", "--eve",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["eavesdropper"] == "intercept_resend"
        assert doc["qber"] == pytest.approx(0.25, abs=0.03)

    @pytest.mark.parametrize("channel, doc", CHANNEL_FORMS, ids=[f for f, _ in CHANNEL_FORMS])
    @pytest.mark.parametrize("eve", [False, True], ids=["no-eve", "eve"])
    def test_channel_flag_equals_its_config_document(self, capsys, tmp_path, channel, doc, eve):
        flags = ["--protocol", "fig1", "--trials", "3000", "--seed", "5", "--phase", "0.4"]
        code, by_flags, err = run_cli(
            capsys, "run", *flags, "--channel", channel, *(["--eve"] if eve else []),
        )
        assert code == 0, err
        cfg = tmp_path / "session.json"
        cfg.write_text(json.dumps({
            "scheme": "fig1", "trials": 3000, "seed": 5, "phase": 0.4, "channel": doc,
            "eavesdropper": "intercept_resend" if eve else "off",
        }))
        code, by_config, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0, err
        assert by_flags == by_config

    def test_bad_channel_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--protocol", "fig1", "--trials", "10", "--seed", "1",
                  "--channel", "foggy"])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "session.json"
        cfg.write_text(json.dumps({
            "scheme": "combined", "trials": 500, "seed": 9, "phase": 0.4,
            "channel": {"kind": "collective", "phi": "random"},
        }))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--trials", "800")
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 800
        assert doc["config"]["channel"] == {"kind": "collective", "phi": "random"}

    def test_flags_complete_a_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "session.json"
        cfg.write_text(json.dumps({"scheme": "fig1", "seed": 1}))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--trials", "10")
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["scheme"], doc["trials"], doc["config"]["seed"]) == ("fig1", 10, 1)
        # Every flag overrides its key, and the merged document is checked once.
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--trials", "10", "--protocol", "owa",
            "--seed", "3", "--phase", "random", "--channel", "loss=0.5", "--eve",
        )
        assert code == 0
        assert json.loads(out)["config"] == {
            "scheme": "owa", "trials": 10, "seed": 3, "phase": "random",
            "channel": {"kind": "loss", "loss": 0.5}, "eavesdropper": "intercept_resend",
        }
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == "" and "missing trials" in err

    def test_flags_do_not_rescue_a_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "session.json"
        cfg.write_text("[1, 2]")
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg), "--protocol", "fig1", "--trials", "10",
            "--seed", "1",
        )
        assert code == 2 and out == "" and "JSON object" in err

    def test_csv_stats_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "100", "--seed", "2",
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("key,value\n")
        assert "sifted_rate," in out

    def test_qber_is_null_when_nothing_is_sifted(self, capsys):
        # With every photon lost nothing is sifted, and no error rate was
        # measured: a QBER of 0 would read as a perfect key.
        args = ["run", "--protocol", "fig1", "--trials", "5", "--seed", "1", "--channel", "loss=1"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["sifted"] == 0 and doc["qber"] is None
        assert '"qber": null' in out
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        assert "\nsifted,0\n" in out and "\nqber,\n" in out

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
    def test_seed_outside_philox_key_range_exits_2(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "10", "--seed", seed,
        )
        assert code == 2
        assert out == "" and "seed" in err and "Traceback" not in err

    def test_seed_range_in_config_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "session.json"
        cfg.write_text(json.dumps({"scheme": "owa", "trials": 10, "seed": -5}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_workers_flag_is_unknown_and_exits_2(self, capsys, command):
        args = {
            "run": ["run", "--protocol", "fig1", "--trials", "10", "--seed", "1"],
            "sweep": ["sweep", "--protocol", "fig1", "--phase-grid", "0,1", "--trials", "10"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--workers", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --workers 1" in captured.err

    def test_sweep_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--protocol", "fig1", "--phase-grid", "0,1", "--seed", "-1",
        )
        assert code == 2 and out == "" and "seed" in err

    def test_trace_file_has_a_row_per_trial(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", "--protocol", "owa", "--trials", "5000", "--seed", "4",
            "--channel", "loss=0.1", "--eve", "--trace", str(trace),
        )
        assert code == 0
        assert len(trace.read_text().splitlines()) == 5001

    def test_unwritable_out_path(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "10", "--seed", "1",
            "--out", "/nonexistent-dir/stats.json",
        )
        assert code == 1
        assert "I/O" in err

    @pytest.mark.parametrize("bad", ["--out", "--trace"])
    def test_unwritable_path_writes_no_output(self, capsys, tmp_path, bad):
        # One output path is a directory: exit 1 with no file made or changed.
        good = "--trace" if bad == "--out" else "--out"
        kept = tmp_path / "kept.json"
        kept.write_text("old")
        for path in (tmp_path / "new.json", kept):
            code, out, err = run_cli(
                capsys, "run", "--protocol", "combined", "--trials", "10", "--seed", "1",
                bad, str(tmp_path), good, str(path),
            )
            assert code == 1 and out == "" and "I/O" in err
        assert not (tmp_path / "new.json").exists()
        assert kept.read_text() == "old"

    @pytest.mark.parametrize("trace,exists", [
        ("stats.json", False), ("stats.json", True), ("./stats.json", False),
        ("./stats.json", True), ("link.json", False), ("link.json", True),
        ("hard.json", True),
    ])
    def test_out_and_trace_on_one_file_exit_2_and_write_nothing(
        self, capsys, tmp_path, monkeypatch, trace, exists
    ):
        # The trace would overwrite the stats: exit 2, with no file made or changed.
        monkeypatch.chdir(tmp_path)
        stats = tmp_path / "stats.json"
        if exists:
            stats.write_text("old")
        if trace == "link.json":
            (tmp_path / trace).symlink_to(stats)
        if trace == "hard.json":
            os.link(stats, tmp_path / trace)
        sessions = counted(monkeypatch, session, "run_session")
        code, out, err = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "10", "--seed", "1",
            "--out", "stats.json", "--trace", trace,
        )
        assert code == 2 and out == "" and "same file" in err and sessions == []
        assert stats.read_text() == "old" if exists else not stats.exists()

    def test_unwritable_trace_prints_no_stats(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "10", "--seed", "1",
            "--trace", str(tmp_path),
        )
        assert code == 1 and out == ""



# --- the streamed trace ----------------------------------------------------------

#: Trial counts at the edges of a chunk (4096 trials) and of a block (16 384),
#: and five blocks with a trial over.
TRACE_TRIALS = [1, 4095, 4096, 4097, 16_383, 16_384, 16_385, 70_001]


def assert_trace_file_is_trace_csv(tmp_path, *argv):
    """`run argv --trace` writes the bytes of trace_csv of the same config's records."""
    trace = tmp_path / "t.csv"
    assert main(["run", *argv, "--out", str(tmp_path / "s.json"), "--trace", str(trace)]) == 0
    config = cli._run_config(cli.build_parser().parse_args(["run", *argv]))
    assert trace.read_bytes() == session.trace_csv(session.run_session(config)[1]).encode()


@pytest.mark.parametrize("trials", TRACE_TRIALS)
@pytest.mark.parametrize("scheme", cli.SCHEME_CHOICES)
def test_trace_file_equals_trace_csv(tmp_path, scheme, trials):
    assert_trace_file_is_trace_csv(
        tmp_path, "--protocol", scheme, "--trials", str(trials), "--seed", "11", "--phase", "0.7")


@pytest.mark.parametrize("eve", [False, True], ids=["eve-off", "eve-on"])
@pytest.mark.parametrize("channel", [form for form, _ in CHANNEL_FORMS])
@pytest.mark.parametrize("scheme", cli.SCHEME_CHOICES)
def test_trace_file_equals_trace_csv_behind_each_channel(tmp_path, scheme, channel, eve):
    assert_trace_file_is_trace_csv(
        tmp_path, "--protocol", scheme, "--trials", "16385", "--seed", "11", "--phase", "random",
        "--channel", channel, *(["--eve"] if eve else []))


def test_a_trace_write_that_fails_exits_1_and_removes_the_files_made(capsys, tmp_path, monkeypatch):
    # The disk fills as the second chunk of rows is written, after the stats
    # and the first chunk: exit 1, and neither file the run made is left.
    trace, written = tmp_path / "t.csv", []

    class Full:
        """The trace file, whose write fails from the second chunk's first row on."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if text.startswith(f"{session.CHUNK_TRIALS},"):
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(text)
            return self.fh.write(text)

    def opening(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return Full(fh) if path == str(trace) and mode == "w" else fh

    monkeypatch.setattr(cli, "open", opening, raising=False)
    code, out, err = run_cli(
        capsys, "run", "--protocol", "combined", "--trials", "10000", "--seed", "1",
        "--out", str(tmp_path / "s.json"), "--trace", str(trace),
    )
    assert code == 1 and out == "" and "No space left on device" in err
    assert list(tmp_path.iterdir()) == []
    assert written[0] == session.TRACE_HEADER
    assert sum(text.count("\n") for text in written[1:]) == session.CHUNK_TRIALS


def test_a_trace_is_written_one_chunk_of_rows_at_a_time(tmp_path):
    # numpy reports its buffers to tracemalloc, and Python its strings. A
    # 200 000-trial run whose trace goes to a discarding sink holds its
    # 2 B/trial codes and one chunk of rows: measured 180-218 B per trial of
    # a chunk (the rows, their join, the chunk's codes as ints), bounded here
    # by 256 B. The sampling's block arrays stay under that. The whole trace
    # rendered as one string held ≈150 B per trial of the session.
    trials = 200_000
    argv = ["run", "--protocol", "owa", "--channel", "independent", "--eve", "--seed", "5",
            "--out", str(tmp_path / "s.json"), "--trace", os.devnull]
    assert main(argv + ["--trials", "10"]) == 0  # builds the kernel's guide and rows
    tracemalloc.start()
    try:
        assert main(argv + ["--trials", str(trials)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * trials + 256 * session.CHUNK_TRIALS

class TestChart:
    def test_json_chart_phase_invariant_for_combined(self, capsys):
        _, out0, _ = run_cli(capsys, "chart", "--protocol", "combined", "--phase", "0")
        _, out2, _ = run_cli(capsys, "chart", "--protocol", "combined", "--phase", "2.0")
        assert out0 == out2
        doc = json.loads(out0)
        assert doc["early/-,early/-"] == []
        assert doc["middle/+,middle/+"] == [1, 2, 3]

    def test_text_chart(self, capsys):
        code, out, _ = run_cli(capsys, "chart", "--protocol", "combined", "--format", "text")
        assert code == 0
        assert "{1,2,3}" in out and "{1,2,4}" in out

    def test_fig1_chart(self, capsys):
        code, out, _ = run_cli(capsys, "chart", "--protocol", "fig1", "--phase", "0")
        assert code == 0
        assert json.loads(out)["middle/-"] == [1, 2, 3]

    def test_invalid_scheme_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["chart", "--protocol", "bb84"])
        assert exc.value.code == 2

    def test_unwritable_out_exits_1_before_the_chart_is_made(self, capsys, tmp_path, monkeypatch):
        charts = counted(monkeypatch, cli, "generate_chart")
        code, out, err = run_cli(capsys, "chart", "--protocol", "fig1", "--out", str(tmp_path))
        assert code == 1 and out == "" and "I/O" in err and charts == []

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_phase_not_finite_exits_2_with_no_file(self, capsys, tmp_path, phase):
        path = tmp_path / "chart.json"
        code, out, err = run_cli(
            capsys, "chart", "--protocol", "fig1", "--phase", phase, "--out", str(path))
        assert code == 2 and err.startswith("error: ") and not path.exists()


class TestStates:
    def test_combined_listing(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--protocol", "combined")
        assert code == 0
        assert "0.707106781187" in out
        assert "(EE, EL, LE, LL)" in out

    def test_fig1_pole_state(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--protocol", "fig1")
        assert code == 0
        lines = out.splitlines()
        assert "state 2  basis=time  bit=1" in lines
        assert "  amplitudes: (0, 1)" in lines

    def test_owa_listing_prints_no_roundoff(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--protocol", "owa")
        assert code == 0
        amplitudes = [line for line in out.splitlines() if "amplitudes:" in line]
        assert amplitudes == [
            "  amplitudes: (0, 0.707106781187, 0.707106781187, 0)",
            "  amplitudes: (0, 0.707106781187, -0.707106781187, 0)",
            "  amplitudes: (0, 0.707106781187, 0.707106781187i, 0)",
            "  amplitudes: (0, 0.707106781187, -0.707106781187i, 0)",
        ]


#: A child process that runs cli.main on its arguments, then writes to stderr whether
#: numpy.random and timebin_qkd.session were imported.
IMPORTS_PROBE = """
import sys
from timebin_qkd.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stderr.write(repr([m in sys.modules for m in ("numpy.random", "timebin_qkd.session")]))
"""


@pytest.mark.parametrize("argv, imported", [
    (["chart", "--protocol", "combined"], False),
    (["states", "--protocol", "owa"], False),
    (["--help"], False),
    (["run", "--protocol", "fig1", "--trials", "10", "--seed", "1"], True),
], ids=["chart", "states", "help", "run"])
def test_only_commands_that_run_sessions_import_numpy_random(argv, imported):
    # session imports numpy.random, ~15 ms of a process that draws nothing.
    proc = python("-c", IMPORTS_PROBE, *argv)
    assert proc.stdout and proc.stderr == repr([imported, imported]).encode()


#: The two ways a process runs the program: the code of the `timebin-qkd`
#: console script, and `python -m`.
PROGRAM = {
    "script": ["-c", "import sys; from timebin_qkd.cli import main; sys.exit(main())"],
    "module": ["-m", "timebin_qkd.cli"],
}

RUN_ARGV = ["run", "--protocol", "fig1", "--trials", "5000", "--seed", "3", "--phase", "0.4",
            "--channel", "loss=0.1", "--eve"]


@pytest.mark.parametrize("how", PROGRAM)
def test_program_writes_the_bytes_of_main(how, tmp_path, capsys):
    # The process, which freezes the collector before it ends, writes what main(argv) writes.
    paths = {side: (tmp_path / f"{side}.json", tmp_path / f"{side}.csv") for side in "ab"}
    code, out, err = run_cli(capsys, *RUN_ARGV, "--out", str(paths["a"][0]),
                             "--trace", str(paths["a"][1]))
    proc = python(*PROGRAM[how], *RUN_ARGV, "--out", str(paths["b"][0]),
                  "--trace", str(paths["b"][1]))
    assert code == proc.returncode == 0 and out == err == "" and proc.stdout == proc.stderr == b""
    for a, b in zip(paths["a"], paths["b"]):
        assert a.read_bytes() == b.read_bytes()
    code, out, _ = run_cli(capsys, *RUN_ARGV)
    proc = python(*PROGRAM[how], *RUN_ARGV)
    assert code == proc.returncode == 0 and proc.stdout == out.encode() and proc.stderr == b""


@pytest.mark.parametrize("how", PROGRAM)
@pytest.mark.parametrize("argv, code, message", [
    (["run", "--protocol", "fig1", "--trials", "10", "--seed", "-1"], 2, "error: "),
    (["run", "--protocol", "fig1", "--trials", "10", "--frobnicate"], 2, "unrecognized"),
    (["run", "--protocol", "fig1", "--trials", "10", "--seed", "1",
      "--out", "{tmp}/missing/stats.json"], 1, "I/O error: "),
    # 2^48 trials need 2^49 bytes of codes, more than a 48-bit address space
    # can map, so the allocation fails at once and touches no memory.
    (["run", "--protocol", "combined", "--trials", str(2**48), "--seed", "1"], 2,
     "error: Unable to allocate"),
], ids=["config-error", "argparse-error", "unwritable-out", "out-of-memory"])
def test_program_exit_codes(how, argv, code, message, tmp_path):
    proc = python(*PROGRAM[how], *(arg.format(tmp=tmp_path) for arg in argv))
    err = proc.stderr.decode()
    assert proc.returncode == code and proc.stdout == b""
    assert message in err and "Traceback" not in err


#: Each command's argv with a session too large to allocate (2^48 trials, as in
#: test_program_exit_codes), and the output paths it names.
UNALLOCATABLE = {
    "run": (["run", "--protocol", "combined", "--trials", str(2**48), "--seed", "1",
             "--out", "s.json", "--trace", "t.csv"], ["s.json", "t.csv"]),
    "sweep": (["sweep", "--protocol", "combined", "--phase-grid", "0,1", "--trials", str(2**48),
               "--out", "w.csv"], ["w.csv"]),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new-files", "existing-out"])
@pytest.mark.parametrize("command", list(UNALLOCATABLE))
def test_a_failed_session_removes_the_files_it_made(command, existing, tmp_path):
    # The paths are opened before the session, which then fails: the files
    # made for them are removed, and a file that was there keeps its bytes.
    argv, paths = UNALLOCATABLE[command]
    argv = [str(tmp_path / arg) if arg in paths else arg for arg in argv]
    kept = tmp_path / paths[0]
    if existing:
        kept.write_bytes(b"written before\n")
    proc = python(*PROGRAM["script"], *argv)
    assert proc.returncode == 2 and b"error: Unable to allocate" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ([paths[0]] if existing else [])
    if existing:
        assert kept.read_bytes() == b"written before\n"


#: A child process that runs main() on its own arguments, then writes to stderr
#: the exit code and whether the collector was frozen before and after.
FREEZE_PROBE = """
import gc, sys
from timebin_qkd.cli import main
frozen = gc.get_freeze_count() > 0
try:
    code = main()
except SystemExit as exc:
    code = exc.code
sys.stderr.write(repr((code, frozen, gc.get_freeze_count() > 0)))
"""


@pytest.mark.parametrize("argv, code", [
    (["states", "--protocol", "owa"], 0),
    (["run", "--protocol", "fig1", "--trials", "10", "--seed", "-1"], 2),
    (["--help"], 0),
], ids=["returns", "config-error", "help-exits"])
def test_the_program_freezes_the_collector_as_it_ends(argv, code):
    proc = python("-c", FREEZE_PROBE, *argv)
    assert proc.stderr.endswith(repr((code, False, True)).encode())


def test_main_with_argv_leaves_the_collector_as_it_was(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, *RUN_ARGV)[0] == 0
    assert run_cli(capsys, "run", "--protocol", "fig1", "--trials", "10", "--seed", "-1")[0] == 2
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == before


class TestSweep:
    def test_combined_sweep_flat(self, capsys):
        grid = "0,0.5,1.0,1.5,2.0,2.5,3.0"
        code, out, _ = run_cli(
            capsys, "sweep", "--protocol", "combined", "--phase-grid", grid,
            "--trials", "20000", "--seed", "4",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        rates = [float(r[1]) for r in rows]
        assert max(rates) - min(rates) < 0.01
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_fig1_sweep_qber_varies(self, capsys):
        grid = "0,0.5,1.0,1.5,2.0,2.5,3.0"
        code, out, _ = run_cli(
            capsys, "sweep", "--protocol", "fig1", "--phase-grid", grid,
            "--trials", "20000", "--seed", "4",
        )
        assert code == 0
        qbers = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert max(qbers) - min(qbers) > 0.2

    def test_qber_cell_is_empty_when_nothing_is_sifted(self, capsys):
        # One trial per phase: a session sifts it or not, and one that sifts
        # nothing has no QBER.
        rows = []
        for seed in range(1, 9):
            code, out, _ = run_cli(
                capsys, "sweep", "--protocol", "fig1", "--phase-grid", "0,1.5,3",
                "--trials", "1", "--seed", str(seed),
            )
            assert code == 0
            rows += [line.split(",") for line in out.splitlines()[1:]]
        assert {rate for _, rate, _ in rows} == {"0", "1"}  # both kinds of row occur
        for _, rate, qber in rows:
            assert (qber == "") == (rate == "0")

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--protocol", "combined", "--phase-grid", ",")
        assert code == 2
        assert "empty" in err

    def test_unwritable_out_exits_1_before_any_session(self, capsys, tmp_path, monkeypatch):
        sessions = counted(monkeypatch, session, "run_session")
        code, out, err = run_cli(
            capsys, "sweep", "--protocol", "combined", "--phase-grid", "0,1,2",
            "--trials", "10", "--out", str(tmp_path / "missing" / "sweep.csv"),
        )
        assert code == 1 and out == "" and "I/O" in err and sessions == []

    @pytest.mark.parametrize("argv", [
        ["--phase-grid", "0,1,inf"], ["--phase-grid", "0,nan"], ["--phase-grid", "0,x"],
        ["--phase-grid", "0,1", "--trials", "0"], ["--phase-grid", "0,1", "--seed", "-1"],
    ])
    def test_bad_grid_exits_2_with_no_session_and_no_file(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        sessions = counted(monkeypatch, session, "run_session")
        path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--protocol", "combined", *argv, "--out", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert sessions == [] and not path.exists()

    def test_malformed_grid_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--protocol", "combined", "--phase-grid", "0,abc")
        assert code == 2
        assert out == "" and err.startswith("error: malformed phase grid")


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_0(command, tmp_path, monkeypatch, capsys):
    # The documented commands must parse and run as written.
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)[1:]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_readme_lists_the_cli_commands():
    commands = {shlex.split(c)[1] for c in readme_commands()}
    assert commands == {"run", "chart", "states", "sweep"}
