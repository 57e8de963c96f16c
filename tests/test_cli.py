import json
import math
import re
import shlex
from pathlib import Path

import pytest

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unwritable_trace_prints_no_stats(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "combined", "--trials", "10", "--seed", "1",
            "--trace", str(tmp_path),
        )
        assert code == 1 and out == ""


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

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--protocol", "combined", "--phase-grid", ",")
        assert code == 2
        assert "empty" in err

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
