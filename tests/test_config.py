"""Config documents and argv: strict parsing, exit code 2 on bad input, and fuzz guards."""
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timebin_qkd.cli import main
from timebin_qkd.protocols import SchemeId
from timebin_qkd.session import (
    ChannelSpec,
    ConfigError,
    SessionConfig,
    config_from_dict,
    run_session,
    stats_json,
)

VALID = {"scheme": "fig1", "trials": 10, "seed": 1}

BAD_DOCUMENTS = {
    "missing scheme": {"trials": 10, "seed": 1},
    "missing trials": {"scheme": "fig1", "seed": 1},
    "missing seed": {"scheme": "fig1", "trials": 10},
    "a list": [1, 2],
    "a number": 5,
    "a string": "fig1",
    "null": None,
    "unknown scheme": {**VALID, "scheme": "bb84"},
    "scheme a list": {**VALID, "scheme": ["fig1"]},
    "fractional trials": {**VALID, "trials": 10.7},
    "float trials": {**VALID, "trials": 10.0},
    "string trials": {**VALID, "trials": "10"},
    "bool trials": {**VALID, "trials": True},
    "zero trials": {**VALID, "trials": 0},
    "fractional seed": {**VALID, "seed": 1.9},
    "bool seed": {**VALID, "seed": False},
    "negative seed": {**VALID, "seed": -1},
    "phase a list": {**VALID, "phase": [1]},
    "phase a bool": {**VALID, "phase": True},
    "phase an unknown word": {**VALID, "phase": "sometimes"},
    "phase beyond a float": {**VALID, "phase": 10**400},
    "phase infinite": {**VALID, "phase": float("inf")},
    "unknown key trails": {**VALID, "trails": 10},
    "unknown key chanel": {**VALID, "chanel": "none"},
    "channel a number": {**VALID, "channel": 5},
    "channel a list": {**VALID, "channel": ["none"]},
    "channel null": {**VALID, "channel": None},
    "unknown channel kind": {**VALID, "channel": "fog"},
    "channel kind a list": {**VALID, "channel": {"kind": ["none"]}},
    "unknown channel key": {**VALID, "channel": {"kind": "loss", "loss": 0.1, "chanel": 1}},
    "phi on none": {**VALID, "channel": {"kind": "none", "phi": 3}},
    "phi on independent": {**VALID, "channel": {"kind": "independent", "phi": "random"}},
    "phi on loss": {**VALID, "channel": {"kind": "loss", "loss": 0.1, "phi": 1}},
    "loss on none": {**VALID, "channel": {"kind": "none", "loss": 0.0}},
    "loss on collective": {**VALID, "channel": {"kind": "collective", "loss": 0.2}},
    "phi a word": {**VALID, "channel": {"kind": "collective", "phi": "fast"}},
    "phi a bool": {**VALID, "channel": {"kind": "collective", "phi": False}},
    "phi infinite": {**VALID, "channel": {"kind": "collective", "phi": float("nan")}},
    "loss a string": {**VALID, "channel": {"kind": "loss", "loss": "0.1"}},
    "loss above one": {**VALID, "channel": {"kind": "loss", "loss": 1.5}},
    "unknown eavesdropper": {**VALID, "eavesdropper": "passive"},
    "eavesdropper a bool": {**VALID, "eavesdropper": True},
}


@pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
def test_bad_document_raises_config_error(name):
    with pytest.raises(ConfigError):
        config_from_dict(BAD_DOCUMENTS[name])


def run_config(path, doc) -> tuple[int, str, str]:
    """`timebin-qkd run --config` on a document; (exit code, stdout, stderr)."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
def test_bad_document_exits_2_with_a_message(name, tmp_path):
    code, out, err = run_config(tmp_path / "session.json", BAD_DOCUMENTS[name])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "[" * 100_000, '{"scheme": ', "\ufeff{}",
    '{"scheme": "fig1", "trials": 5, "trials": 7, "seed": 1}',
    '{"scheme": "fig1", "trials": 5, "seed": 1, "channel": {"kind": "loss", "loss": 0, "loss": 1}}',
])
def test_unparsable_config_file_exits_2_with_a_message(text, tmp_path):
    path = tmp_path / "session.json"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    assert code == 2 and err.getvalue().startswith("error: ")


@pytest.mark.parametrize("spec", [  # each the (args, kwargs) of one ChannelSpec
    (("none",), {"phi": 3.0}),
    (("independent",), {"phi": 0.5}),
    (("loss",), {"loss": 0.1, "phi": 1.0}),
    (("independent",), {"loss": 0.5}),
    (("collective",), {"phi": 1.0, "loss": 0.1}),
    (("collective",), {"phi": "1.0"}),
    (("loss",), {"loss": "0.1"}),
    ((["none"],), {}),
])
def test_channel_spec_rejects_fields_of_another_kind_or_type(spec):
    args, kwargs = spec
    with pytest.raises(ConfigError):
        ChannelSpec(*args, **kwargs)


@pytest.mark.parametrize("field,value", [
    ("trials", True), ("trials", 10.0), ("trials", "10"),
    ("seed", True), ("phase", [1]), ("phase", False), ("channel", "none"),
])
def test_session_config_rejects_wrong_types(field, value):
    fields = {"scheme": SchemeId.COMBINED, "trials": 10, "seed": 1, field: value}
    with pytest.raises(ConfigError):
        SessionConfig(**fields)


@pytest.mark.parametrize("build", [
    lambda: SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 10, 1, phase=10**400),
    lambda: SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 10, 1,
                          channel=ChannelSpec("collective", phi=10**400)),
], ids=["phase", "channel phi"])
def test_config_rejects_a_phase_beyond_a_float(build):
    # An int too large for a float is a ConfigError, not float()'s OverflowError.
    with pytest.raises(ConfigError, match="out of range"):
        build()


# --- round trip ------------------------------------------------------------------

CHANNELS = [
    ChannelSpec("none"),
    ChannelSpec("collective", phi=None),
    ChannelSpec("collective", phi=1.1),
    ChannelSpec("collective", phi=-7.5),
    ChannelSpec("independent"),
    ChannelSpec("loss", loss=0.0),
    ChannelSpec("loss", loss=0.2),
    ChannelSpec("loss", loss=1.0),
]


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: json.dumps(c.describe()))
def test_describe_round_trips_every_config_kind(channel):
    for scheme in SchemeId:
        for phase in (0.0, 1.3, -20.0, "random"):
            for eve in ("off", "intercept_resend"):
                config = SessionConfig(scheme, 17, 2**64 - 1, phase, channel, eve)
                doc = json.loads(json.dumps(config.describe()))
                assert config_from_dict(doc) == config


def round_trip(config: SessionConfig) -> SessionConfig:
    return config_from_dict(json.loads(json.dumps(config.describe())))


def session_bytes(config: SessionConfig) -> str:
    return stats_json(run_session(config)[0])


FIG1 = SchemeId.FIG1_SINGLE_PHOTON


@pytest.mark.parametrize("config,twin", [
    (SessionConfig("owa", 10, 1), SessionConfig(SchemeId.OWA_FOUR_PHASE, 10, 1)),
    (SessionConfig(FIG1, 10, 1, phase=1), SessionConfig(FIG1, 10, 1, phase=1.0)),
    (SessionConfig(FIG1, 10, 1, phase=-0.0), SessionConfig(FIG1, 10, 1, phase=0.0)),
    (SessionConfig(FIG1, 10, 1, channel=ChannelSpec("collective", phi=1)),
     SessionConfig(FIG1, 10, 1, channel=ChannelSpec("collective", phi=1.0))),
    (SessionConfig(FIG1, 10, 1, channel=ChannelSpec("collective", phi="random")),
     SessionConfig(FIG1, 10, 1, channel=ChannelSpec("collective", phi=None))),
    (SessionConfig(SchemeId.COMBINED, 10, 1, channel=ChannelSpec("loss", loss=0)),
     SessionConfig(SchemeId.COMBINED, 10, 1, channel=ChannelSpec("loss", loss=0.0))),
], ids=["scheme owa", "phase 1", "phase -0.0", "phi 1", "phi random", "loss 0"])
def test_equal_configs_give_equal_bytes(config, twin):
    assert config == twin == round_trip(config)
    assert session_bytes(config) == session_bytes(twin) == session_bytes(round_trip(config))


def test_numpy_integers_give_the_bytes_of_python_ints():
    plain = SessionConfig(SchemeId.COMBINED, 10, 2**64 - 1)
    config = SessionConfig(SchemeId.COMBINED, np.int64(10), np.uint64(2**64 - 1))
    assert config == plain and type(config.trials) is int and type(config.seed) is int
    assert session_bytes(config) == session_bytes(plain)


def test_shorthand_and_minimal_documents():
    assert config_from_dict(VALID) == SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 10, 1)
    for kind in ("none", "independent", "collective"):
        doc = {**VALID, "channel": kind}
        assert config_from_dict(doc).channel == ChannelSpec(kind)
    assert config_from_dict({**VALID, "channel": {}}).channel == ChannelSpec("none")


# --- fuzz guard ------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)

# Valid configs draw every field as the types a caller may pass: a scheme as
# its SchemeId or its name, numbers as ints, floats or numpy scalars.
channel_specs = st.one_of(
    st.builds(ChannelSpec, st.sampled_from(["none", "independent"]),
              loss=st.sampled_from([0, 0.0, -0.0])),
    st.builds(
        ChannelSpec, st.just("collective"),
        phi=st.none() | st.integers(-100, 100) | st.floats(-100, 100, allow_nan=False),
    ),
    st.builds(ChannelSpec, st.just("loss"), loss=st.sampled_from([0, 1]) | st.floats(0.0, 1.0)),
)

valid_configs = st.builds(
    SessionConfig,
    scheme=st.sampled_from(list(SchemeId) + [s.value for s in SchemeId]),
    trials=st.integers(1, 40) | st.integers(1, 40).map(np.int64),
    seed=st.integers(0, 2**64 - 1) | st.integers(0, 2**64 - 1).map(np.uint64),
    phase=st.just("random") | st.integers(-100, 100) | st.floats(-100, 100, allow_nan=False)
    | st.floats(-100, 100, allow_nan=False).map(np.float64),
    channel=channel_specs,
    eavesdropper=st.sampled_from(["off", "intercept_resend"]),
)

KEYS = ["scheme", "trials", "seed", "phase", "channel", "eavesdropper", "kind", "phi", "loss"]


@st.composite
def mutated_documents(draw):
    """A valid config's document with one key deleted, replaced or added."""
    doc = draw(valid_configs).describe()
    target = draw(st.sampled_from([doc, doc["channel"]]))
    op = draw(st.sampled_from(["delete", "replace", "add", "channel shorthand"]))
    if op == "delete":
        del target[draw(st.sampled_from(sorted(target)))]
    elif op == "replace":
        target[draw(st.sampled_from(sorted(target)))] = draw(json_values)
    elif op == "add":
        target[draw(st.sampled_from(KEYS) | st.text(max_size=8))] = draw(json_values)
    else:
        doc["channel"] = draw(st.sampled_from(KEYS) | json_values)
    return doc


documents = json_values | mutated_documents()


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_config_from_dict_raises_only_config_error(doc):
    try:
        config_from_dict(doc)
    except ConfigError:
        pass


@settings(deadline=None)
@given(config=valid_configs)
def test_valid_configs_round_trip(config):
    twin = round_trip(config)
    assert twin == config
    assert session_bytes(twin) == session_bytes(config)


#: Trials of a fuzzed document that is actually run, at most.
RUN_TRIALS = 40


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "session.json"


@settings(max_examples=150, deadline=None)
@given(doc=documents)
def test_cli_run_config_exits_0_or_2_without_traceback(doc, config_path):
    if isinstance(doc, dict) and type(doc.get("trials")) is int and doc["trials"] > RUN_TRIALS:
        doc["trials"] = RUN_TRIALS
    code, out, err = run_config(config_path, doc)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["trials"] == doc["trials"]
    else:
        assert code == 2 and err.startswith("error: ") and out == ""


# --- argv fuzz: flags, their values, and their mixes with --config ----------------

_reals = st.floats(-10.0, 10.0).map(repr)
_numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr)
#: Per flag: (values a user means, values that are wrong).
FLAG_VALUES = {
    "--protocol": (st.sampled_from([s.value for s in SchemeId]), st.sampled_from(["bb84", ""])),
    "--trials": (st.integers(1, RUN_TRIALS).map(str),
                 st.integers(-2, 0).map(str) | st.sampled_from(["x", "1e3", "", "4.0"])),
    "--seed": (st.integers(0, 2**64 - 1).map(str),
               st.sampled_from(["-1", str(2**64), "x", "1.5", ""])),
    "--phase": (_reals | st.just("random"), _numbers | st.sampled_from(["x", "1e400", "rand"])),
    "--channel": (
        st.sampled_from(["none", "independent", "collective=random", "collective=1.1",
                         "loss=0.2", "loss=1"]),
        st.sampled_from(["collective=nan", "collective=x", "loss=1.5", "loss=nan", "loss=",
                         "bogus"]) | _numbers.map(lambda x: f"loss={x}"),
    ),
    "--format": (st.sampled_from(["json", "csv", "text"]), st.sampled_from(["xml", ""])),
    "--phase-grid": (st.lists(_reals, min_size=1, max_size=4).map(",".join),
                     st.lists(_numbers, max_size=3).map(",".join)
                     | st.sampled_from(["0,random", "x,1", ",", " "])),
}
#: Placeholders of the file arguments, replaced by paths under the test's directory.
PATH_ARGS = {"--config": "<config>", "--out": "<out>", "--trace": "<trace>"}
#: The flags each command declares, and which of them it needs.
COMMAND_FLAGS = {
    "run": ["--protocol", "--trials", "--seed", "--phase", "--channel", "--eve", "--config",
            "--out", "--trace", "--format"],
    "sweep": ["--protocol", "--phase-grid", "--trials", "--seed", "--out"],
    "chart": ["--protocol", "--phase", "--format", "--out"],
    "states": ["--protocol"],
}
NEEDED = {"--protocol", "--trials", "--seed", "--phase-grid"}
#: Every declared flag, and two that no command declares.
ALL_FLAGS = sorted(
    {f for flags in COMMAND_FLAGS.values() for f in flags} | {"--frobnicate", "--workers"}
)


@st.composite
def argv_lists(draw):
    """(argv, config document or None): a command and its flags, each left out, given a
    value a user means or a wrong one; sometimes a flag of another command, or a flag
    whose value is missing."""
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    flags = draw(st.permutations(COMMAND_FLAGS[command]))
    if draw(st.integers(0, 3)) == 0:
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(ALL_FLAGS)))
    argv, doc = [command], None
    for name in flags:
        choice = draw(st.integers(0, 9))  # 0: wrong value, 1: value missing, high: left out
        if choice >= (9 if name in NEEDED else 6):
            continue
        argv.append(name)
        if name == "--config":
            doc = draw(documents)
            if isinstance(doc, dict) and type(doc.get("trials")) is int and doc["trials"] > RUN_TRIALS:
                doc["trials"] = RUN_TRIALS
        if name in PATH_ARGS:
            argv.append(PATH_ARGS[name])
        elif name in FLAG_VALUES and choice != 1:
            argv.append(draw(FLAG_VALUES[name][choice == 0]))
    return argv, doc


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=300, deadline=None)
@given(case=argv_lists())
def test_cli_argv_exits_0_or_2_without_traceback(case, argv_dir):
    argv, doc = case
    paths = {arg: str(argv_dir / f"{arg[1:-1]}.file") for arg in PATH_ARGS.values()}
    with open(paths["<config>"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [paths.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue()
