"""The study scripts run, and print what their docstrings claim."""
import gc
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, capsys) -> dict[str, dict[str, tuple[float, str]]]:
    """Run a script as __main__; per scheme, each printed row as {first column: (rate, qber)}.

    The QBER is kept as printed, so that a zero reads "0.0000". The script
    must freeze the collector as it ends; this process's is then unfrozen.
    """
    assert gc.get_freeze_count() == 0
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    tables: dict = {}
    for line in capsys.readouterr().out.splitlines():
        if ":" in line:  # "combined: 50000 trials ..." opens a scheme's table
            table = tables.setdefault(line.split(":")[0], {})
        elif line.strip() and line.split()[0] not in ("phi", "case"):
            key, rate, qber = line.rsplit(None, 2)
            table[key.strip()] = (float(rate), qber)
    return tables


def test_phase_sweep(capsys):
    tables = run_script("phase_sweep.py", capsys)
    assert set(tables) == {"combined", "fig1"}
    combined = [qber for _, qber in tables["combined"].values()]
    assert combined == ["0.0000"] * 9  # autocompensating at every phase
    fig1 = [float(qber) for _, qber in tables["fig1"].values()]
    assert len(fig1) == 9 and fig1[0] == 0.0
    assert all(a < b for a, b in zip(fig1, fig1[1:]))  # the cos² detuning, rising to φ = π


def test_dephasing_study(capsys):
    tables = run_script("dephasing_study.py", capsys)
    assert set(tables) == {"combined", "fig1"}
    combined = tables["combined"]
    assert combined["clean"][1] == "0.0000"
    assert combined["collective dephasing (random phi)"][1] == "0.0000"
    for table in tables.values():
        assert len(table) == 5
        assert float(table["independent dephasing"][1]) > 0.0
        assert float(table["intercept-resend eavesdropper"][1]) > 0.0
