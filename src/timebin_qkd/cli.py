"""Command-line front end: run sessions, derive charts, list states, sweep phases.

Exit codes: 0 success, 1 I/O failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .protocols import SchemeId, generate_chart, signal_state
from .session import (
    ConfigError,
    PHASE_RANDOM,
    SessionConfig,
    config_from_dict,
    run_session,
    stats_document,
    stats_json,
    trace_csv,
)

SCHEME_CHOICES = [s.value for s in SchemeId]


def _parse_phase(text: str):
    if text == PHASE_RANDOM:
        return PHASE_RANDOM
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"phase must be a number or 'random': {text!r}")


def _parse_channel(text: str) -> str | dict:
    """A --channel flag as its config document's "channel" value."""
    if text in ("none", "independent"):
        return text
    if text.startswith("collective="):
        arg = text.split("=", 1)[1]
        return {"kind": "collective", "phi": PHASE_RANDOM if arg == PHASE_RANDOM else float(arg)}
    if text.startswith("loss="):
        return {"kind": "loss", "loss": float(text.split("=", 1)[1])}
    raise argparse.ArgumentTypeError(
        f"channel must be none, collective=PHI, collective=random, independent, or loss=P: {text!r}"
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    re, im = _fmt(z.real), _fmt(z.imag)
    if z.imag == 0:
        return re
    if z.real == 0:
        return f"{im}i"
    sign = "+" if z.imag >= 0 else ""
    return f"{re}{sign}{im}i"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _stats_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    flat = {
        "scheme": doc["scheme"],
        "trials": doc["trials"],
        "sifted": doc["sifted"],
        "errors": doc["errors"],
        "sifted_rate": doc["sifted_rate"],
        "qber": doc["qber"],
    }
    for k, v in flat.items():
        writer.writerow([k, v])
    return buf.getvalue()


def _run_config(args: argparse.Namespace) -> SessionConfig:
    """The session of `run`: the given flags, merged over the --config document if there is one."""
    doc = {}
    if args.config is None:
        required = {"--protocol": args.protocol, "--trials": args.trials, "--seed": args.seed}
        missing = [flag for flag, value in required.items() if value is None]
        if missing:
            raise ConfigError(f"missing required flags: {', '.join(missing)}")
    else:
        with open(args.config, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ConfigError(f"{args.config}: JSON nested too deeply") from None
    flags = {
        "scheme": args.protocol,
        "trials": args.trials,
        "seed": args.seed,
        "phase": args.phase,
        "channel": args.channel,
        "eavesdropper": "intercept_resend" if args.eve else None,
    }
    if isinstance(doc, dict):  # anything else is rejected by config_from_dict
        doc = {**doc, **{k: v for k, v in flags.items() if v is not None}}
    return config_from_dict(doc)


def _check_writable(paths: list[str]) -> None:
    """Open each path to append, so that an unwritable one fails before any output is
    written; the files made here for the paths before it are then removed."""
    made = []
    try:
        for path in paths:
            new = not os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            made += [path] if new else []
    except OSError:
        for path in made:
            os.remove(path)
        raise


def cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    config.validate()
    _check_writable([path for path in (args.out, args.trace) if path is not None])
    stats, records = run_session(config)
    out = _stats_csv(stats_document(stats)) if args.format == "csv" else stats_json(stats)
    _write_output(out, args.out)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace_csv(records))
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    chart = generate_chart(SchemeId(args.protocol), args.phase)
    out = chart.render_text() if args.format == "text" else chart.to_json()
    _write_output(out, args.out)
    return 0


def cmd_states(args: argparse.Namespace) -> int:
    lines = []
    for index in (1, 2, 3, 4):
        sig = signal_state(SchemeId(args.protocol), index)
        basis_order = ", ".join(str(b) for b in sig.state.basis)
        amps = ", ".join(_fmt_complex(complex(a)) for a in sig.state.amplitudes)
        lines.append(f"state {index}  basis={sig.basis}  bit={sig.bit}")
        lines.append(f"  order:      ({basis_order})")
        lines.append(f"  amplitudes: ({amps})")
    _write_output("\n".join(lines), None)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        grid = [float(x) for x in args.phase_grid.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"malformed phase grid {args.phase_grid!r}") from None
    if not grid:
        raise ConfigError("empty phase grid")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi", "sifted_rate", "qber"])
    for phi in grid:
        config = config_from_dict(
            {"scheme": args.protocol, "trials": args.trials, "seed": args.seed, "phase": phi}
        )
        stats, _ = run_session(config)
        writer.writerow([_fmt(phi), _fmt(stats.sifted_rate), _fmt(stats.qber)])
    _write_output(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebin-qkd",
        description="Simulate time-bin QKD schemes with passive detection and autocompensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo session")
    run.add_argument("--protocol", choices=SCHEME_CHOICES)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--phase", type=_parse_phase)
    run.add_argument("--channel", type=_parse_channel)
    run.add_argument("--eve", action="store_true")
    run.add_argument("--config", metavar="PATH", help="JSON config; flags override it")
    run.add_argument("--out", metavar="PATH")
    run.add_argument("--trace", metavar="PATH", help="write per-trial CSV trace")
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.set_defaults(func=cmd_run)

    chart = sub.add_parser("chart", help="emit the derived consistency chart")
    chart.add_argument("--protocol", choices=SCHEME_CHOICES, required=True)
    chart.add_argument("--phase", type=float, default=0.0)
    chart.add_argument("--format", choices=["json", "text"], default="json")
    chart.add_argument("--out", metavar="PATH")
    chart.set_defaults(func=cmd_chart)

    states = sub.add_parser("states", help="list the four signal states")
    states.add_argument("--protocol", choices=SCHEME_CHOICES, required=True)
    states.set_defaults(func=cmd_states)

    sweep = sub.add_parser("sweep", help="sweep the interferometer phase")
    sweep.add_argument("--protocol", choices=SCHEME_CHOICES, required=True)
    sweep.add_argument("--phase-grid", required=True, help="comma-separated phases")
    sweep.add_argument("--trials", type=int, default=10000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", metavar="PATH")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
