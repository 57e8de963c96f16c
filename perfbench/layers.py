"""Per-layer spans, recorded from outside the package by wrapping its public functions.

Each wrapped call appends one span (name, parent span, session, start, end)
to in-memory arrays; nothing is aggregated or written while the traced run
is going. A layer's self time is its spans' duration minus the part covered
by its wrapped children.

A name that no longer exists in the package is left unwrapped and reported
with zero calls, so the traced run outlives refactors that delete layers.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PACKAGE = "timebin_qkd"

#: "<module>.<function>" or "<module>.<Class>.<method>"; a bare class name
#: ("qstate.ModeState") times the class's __post_init__, run once per instance.
WRAPPED = (
    "session.run_session",
    "session.apply_channel",
    "session.intercept_resend",
    "session.stats_json",
    "session.trace_csv",
    "session.ChannelEndpoint.send",
    "protocols.signal_state",
    "protocols.classify_fig1",
    "protocols.classify_combined",
    "protocols.classify_owa",
    "protocols.sift",
    "optics.mzi_single",
    "optics.mzi_pair",
    "optics.phase_modulator",
    "dfs.collective_dephase",
    "dfs.independent_dephase",
    "dfs.dephase_single",
    "qstate.born_sample",
    "qstate.ModeState",
    "cli.main",
)

#: Root span the benchmark opens around each session it runs.
SESSION = "bench.session"

#: Metrics derived from the trace and the run, beside each wrapped name's
#: ".calls" and ".self_s": name -> (unit, better).
DERIVED = {
    "trace.trials": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "qstate.ModeState.calls_per_trial": ("count/trial", "lower"),
    "optics.mzi_cache.hit_frac": ("fraction", "higher"),
    "session.classical_messages": ("count", "lower"),
    "session.sifted_frac": ("fraction", "higher"),
    "session.lost_frac": ("fraction", "lower"),
    "session.trace_csv.bytes": ("bytes", "lower"),
    "import.timebin_qkd_s": ("s", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    spec = {}
    for name in WRAPPED:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    spec.update(DERIVED)
    return spec


def _resolve(name: str):
    """(owner, attribute, function) to patch for a WRAPPED name, or None if absent."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    target = getattr(owner, path[-1], None)
    if isinstance(target, type):
        hook = target.__dict__.get("__post_init__")
        return None if hook is None else (target, "__post_init__", hook)
    return None if target is None else (owner, path[-1], target)


class Tracer:
    """Context manager that wraps the package's layers and records spans."""

    def __init__(self):
        self.names = list(WRAPPED) + [SESSION]
        self.fid = array("q")
        self.parent = array("q")
        self.session = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._session_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.session.append(self._session_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fid: int, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def __enter__(self) -> "Tracer":
        targets = [(fid, _resolve(name)) for fid, name in enumerate(WRAPPED)]
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(f"{PACKAGE}.")]
        for fid, found in targets:
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fid, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function: rebind it wherever the package imported it.
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is fn]:
                    self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def session_span(self, session_id: int):
        """Root span of one session; every span inside it carries session_id."""
        self._session_id = session_id
        idx = self._open(len(WRAPPED))
        try:
            yield
        finally:
            self._close(idx)
            self._session_id = -1

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) for every name that was called."""
        fid = np.frombuffer(self.fid, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = np.bincount(fid, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(fid, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_ns[i]) / 1e9)
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path) -> None:
        """Write every span, once, as a compressed .npz of parallel arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            session=np.frombuffer(self.session, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
