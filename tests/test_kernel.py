"""The batched session kernel against the scalar ModeState reference path."""
import cmath
import csv
import dataclasses
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    born_sample_batch, dephasing_diagonal, detection_amplitudes, law_sample_batch, scheme_tables,
)
from timebin_qkd import qstate, session
from timebin_qkd.dfs import collective_dephase, dephase_single, independent_dephase
from timebin_qkd.optics import (
    JOINT_BASIS,
    mzi_pair,
    mzi_single,
    outcome_distribution,
    phase_modulator,
)
from timebin_qkd.protocols import INDEX_FOR, SchemeId, sift, signal_state
from timebin_qkd.optics import TWO_PI, wrap_phase
from timebin_qkd.qstate import (
    GUIDE_BUCKETS,
    BornTable,
    ModeState,
    UnnormalizedStateError,
    born_sample,
    law_cdf,
)
from timebin_qkd.session import (
    BLOCK_CHUNKS,
    CHUNK_TRIALS,
    PHASE_RANDOM,
    TRACE_COLUMNS,
    ChannelSpec,
    SessionConfig,
    run_session,
    trace_csv,
)

PHI_GRID = [0.0, 0.7, math.pi / 2, 2.1, math.pi]
# (photon 1, photon 2) late-bin phases; None is the noiseless channel.
CHANNEL_PHASES = [None, (0.0, 0.0), (0.9, 0.9), (0.4, 2.3), (3.0, 5.5)]
SCHEMES = list(SchemeId)


def scalar_distribution(scheme, index, channel, beta, phi):
    """outcome_distribution on the ModeState path: signal, channel, modulator, MZI."""
    state = signal_state(scheme, index).state
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    if channel is not None:
        phi1, phi2 = channel
        if single:
            state = dephase_single(state, phi1)
        elif phi1 == phi2:
            state = collective_dephase(state, phi1)
        else:
            state = independent_dephase(state, phi1, phi2)
    if scheme is SchemeId.OWA_FOUR_PHASE:
        state = phase_modulator(state, beta, photon=1, bin="L")
    return outcome_distribution(mzi_single(state, phi) if single else mzi_pair(state, phi))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_born_tables_equal_scalar_path(scheme):
    table = scheme_tables(scheme)
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    cases = [
        (index, channel, setting, phi)
        for index in (1, 2, 3, 4)
        for channel in CHANNEL_PHASES
        for setting in range(len(table.betas))
        for phi in PHI_GRID
    ]
    expected = np.array([
        scalar_distribution(scheme, i, ch, table.betas[s], phi) for i, ch, s, phi in cases
    ]).T
    sent = np.array([i - 1 for i, _, _, _ in cases])
    setting = np.array([s for _, _, s, _ in cases])
    phases = np.array([ch or (0.0, 0.0) for _, ch, _, _ in cases]).T
    diagonal = dephasing_diagonal(phases[0]) if single else dephasing_diagonal(*phases)
    phi = np.array([p for _, _, _, p in cases])

    # A phase per trial: the interferometer as a polynomial in e^{iφ}.
    amps = detection_amplitudes(table, sent, setting, diagonal, phi)
    np.testing.assert_allclose(np.abs(amps) ** 2, expected, rtol=0, atol=1e-12)
    # One phase for the whole batch: the cached matrix, and no channel at all.
    for p in PHI_GRID:
        at = phi == p
        amps = detection_amplitudes(table, sent[at], setting[at], diagonal[:, at], p)
        np.testing.assert_allclose(np.abs(amps) ** 2, expected[:, at], rtol=0, atol=1e-12)
        clean = np.array([ch is None for _, ch, _, _ in cases]) & at
        amps = detection_amplitudes(table, sent[clean], setting[clean], None, p)
        np.testing.assert_allclose(np.abs(amps) ** 2, expected[:, clean], rtol=0, atol=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_kernel_tables_equal_scalar_path(scheme):
    # The kernel's signal rows are the scalar path's states after the
    # modulator, bit for bit; what each verdict names and each code's record
    # are classify_*, INDEX_FOR and sift, for every setting and outcome.
    kernel, reference = session._kernel(scheme), scheme_tables(scheme)
    n_settings, n_outcomes = len(reference.betas), len(reference.outcomes)
    assert (kernel.id, kernel.photons) == (scheme, reference.photons)
    assert len(kernel.betas) == n_settings and kernel.outcomes == reference.outcomes
    np.testing.assert_array_equal(kernel.signals, reference.signals.reshape(4 * n_settings, -1))
    assert len(kernel.fields) == 4 * n_settings * (n_outcomes + 1)
    for index in (1, 2, 3, 4):
        alice = signal_state(scheme, index)
        for s, beta in enumerate(reference.betas):
            row = ((index - 1) * n_settings + s) * (n_outcomes + 1)
            for o, outcome in enumerate(reference.outcomes):
                verdict = oracles.classify(scheme, outcome, beta)
                named = INDEX_FOR[(verdict.basis, verdict.bit)] if verdict.conclusive else 0
                assert kernel.announced[s * n_outcomes + o] == named
                result = sift(alice, verdict)
                assert kernel.fields[row + o] == (
                    index, outcome.label, verdict.conclusive, verdict.basis or "",
                    result.bit_alice, result.bit_bob, result.kept,
                )
            assert kernel.fields[row + n_outcomes] == (index, "lost", False, "", None, None, False)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_kernel_lookups_equal_the_code_by_code_oracle(scheme):
    # The record's lookups, built from one sift call per Alice index and
    # verdict and one CSV pass, are those of a sift call and a csv.writer
    # row per code.
    kernel, expected = session._kernel(scheme), oracles.code_lookups(scheme)
    np.testing.assert_array_equal(kernel.announced, expected.announced)
    assert kernel.labels == expected.labels
    assert kernel.fields == expected.fields
    assert kernel.rows == expected.rows
    assert kernel.tally.dtype == expected.tally.dtype
    np.testing.assert_array_equal(kernel.tally, expected.tally)


def test_kernel_build_sifts_per_verdict_and_renders_rows_when_read(monkeypatch):
    # Building owa's record calls sift at most once per Alice index and
    # verdict Bob can announce, and makes no record or trace row: a session
    # whose stats alone are read makes none either, and the first trace does.
    calls = {"sift": 0, "_trace_fields": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(session, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(session, name, counted)
    session._kernel.cache_clear()
    kernel = session._kernel("owa")
    verdicts = len(set(kernel.announced.tolist()))
    assert verdicts == 5 and 0 < calls["sift"] <= 4 * verdicts
    _, records = run_session(SessionConfig(SchemeId.OWA_FOUR_PHASE, 5000, 3, PHASE_RANDOM))
    assert "fields" not in vars(kernel) and "rows" not in vars(kernel)
    assert calls["_trace_fields"] == 0
    trace_csv(records)
    assert "rows" in vars(kernel) and calls["_trace_fields"] == len(kernel.fields)
    assert calls["sift"] <= 4 * verdicts


@pytest.mark.parametrize("name", ["owa", "fig1"])
def test_kernel_of_a_scheme_name_is_its_enum_record(name):
    # A str and its SchemeId are two cache keys; a first call with the str
    # must not cache a record built for another scheme under either.
    session._kernel.cache_clear()
    by_name = session._kernel(name)
    record = session._kernel(SchemeId(name))
    assert by_name is record and record.id is SchemeId(name)
    owa = name == "owa"
    assert len(record.betas) == (2 if owa else 1) and record.photons == (2 if owa else 1)
    assert len(record.outcomes) == (36 if owa else 6)


def test_born_sample_batch_equals_born_sample(rng):
    for k in range(200):
        amps = rng.normal(size=36) + 1j * rng.normal(size=36)
        amps[rng.random(36) < 0.3] = 0.0  # zero-probability outcomes too
        amps /= np.linalg.norm(amps)
        u = np.random.default_rng(k).random(1)
        label = born_sample(ModeState(JOINT_BASIS, amps), np.random.default_rng(k))
        assert born_sample_batch(amps[:, None], u)[0] == JOINT_BASIS.index(label)
    # u = 0 must still skip leading zero-probability outcomes, as side="right" does.
    edge = np.array([[0.0, 0.0], [1.0, 0.6], [0.0, 0.8]], dtype=complex)
    assert born_sample_batch(edge, np.array([0.0, 0.0])).tolist() == [1, 1]


def test_born_sample_batch_ignores_memory_layout(rng):
    # The totals are the CDF's last row, so a column's sample does not depend
    # on whether its sums run down a contiguous or a strided axis.
    amps = rng.normal(size=(36, 500)) + 1j * rng.normal(size=(36, 500))
    amps /= np.linalg.norm(amps, axis=0)
    u = rng.random(500)
    c_order = born_sample_batch(np.ascontiguousarray(amps), u)
    np.testing.assert_array_equal(born_sample_batch(np.asfortranarray(amps), u), c_order)
    for k in range(0, 500, 50):
        cdf = np.cumsum(amps[:, k].real ** 2 + amps[:, k].imag ** 2)
        assert c_order[k] == min(np.searchsorted(cdf, u[k] * cdf[-1], side="right"), 35)


def test_born_sample_batch_rejects_unnormalized_columns():
    amps = np.array([[1.0, 0.6], [0.0, 0.6]], dtype=complex)  # second column has norm² 0.72
    with pytest.raises(UnnormalizedStateError):
        born_sample_batch(amps, np.array([0.5, 0.5]))
    with pytest.raises(UnnormalizedStateError):
        born_sample_batch(np.array([[np.nan], [0.0]], dtype=complex), np.array([0.5]))


# --- Born tables: the fixed-amplitude sampling path -----------------------------


def born_table(scheme, theta) -> BornTable:
    """The table a session without Eve and loss samples at relative phase theta: the Born law
    of the scheme's 4 × S signal rows at wrapped theta, and a "lost" outcome of 0 last."""
    return session._kernel(scheme).code_guide(wrap_phase(float(theta)), False, 1.0)[0]


def dephased_table(scheme) -> BornTable:
    """The table a session without Eve and loss samples where θ is uniform per trial."""
    return session._kernel(scheme).code_guide(None, False, 1.0)[0]


TABLE_CHANNEL_PHASES = [None, 0.0, 0.9, 3.0, 5.5]  # fixed collective phase; None: no channel
# θ = φ_c − φ over both grids: every relative phase a fig1 table is keyed by above.
TABLE_THETAS = [(c or 0.0) - phi for phi in PHI_GRID for c in TABLE_CHANNEL_PHASES]


def table_columns(scheme, theta):
    """The table's rows as detection amplitude columns, built trial-style: the
    late phase θ on the last photon (dephasing (0, θ) for a pair), and the
    interferometer at φ = 0."""
    table = scheme_tables(scheme)
    n_settings = len(table.betas)
    rows = np.arange(4 * n_settings)
    late = np.full(len(rows), wrap_phase(theta))
    phases = [late] if table.photons == 1 else [np.zeros_like(late), late]
    diagonal = dephasing_diagonal(*phases)
    return detection_amplitudes(table, rows // n_settings, rows % n_settings, diagonal, 0.0)


def assert_rows_equal_scalar_path(born, scheme, channel, phi):
    """Each row of born is scalar_distribution's CDF of its signal through
    channel and the interferometer at phi, then "lost", which adds nothing."""
    table = scheme_tables(scheme)
    n_settings = len(table.betas)
    assert born.cdf.shape == (4 * n_settings, len(table.outcomes) + 1)
    for index in (1, 2, 3, 4):
        for setting, beta in enumerate(table.betas):
            p = scalar_distribution(scheme, index, channel, beta, phi)
            row = (index - 1) * n_settings + setting
            np.testing.assert_allclose(born.cdf[row, :-1], np.cumsum(p), rtol=0, atol=1e-12)
            assert born.cdf[row, -1] == born.total[row] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_born_table_rows_are_scalar_cdfs(scheme):
    # The θ reduction: behind a collective phase φ_c and the interferometer at
    # φ, fig1's law is the table at θ = φ_c − φ, and a pair's the table at 0.
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    for phi in PHI_GRID:
        for channel_phi in TABLE_CHANNEL_PHASES:
            born = born_table(scheme, (channel_phi or 0.0) - phi if single else 0.0)
            channel = None if channel_phi is None else (channel_phi, channel_phi)
            assert_rows_equal_scalar_path(born, scheme, channel, phi)
    if not single:  # a pair's table at θ is independent dephasing (0, θ)
        for theta in (0.4, 2.3, math.pi, 5.5):
            assert_rows_equal_scalar_path(born_table(scheme, theta), scheme, (0.0, theta), 0.0)


def table_sample(table: BornTable, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The table's outcomes of rows row[k] at draws u[k] ∈ [0, 1): its guide cell at u's
    bucket, and its search where that cell holds _STEP; uint8, the guide's own type."""
    idx = table.guide[row * GUIDE_BUCKETS + (u * GUIDE_BUCKETS).astype(np.intp)]
    step = (idx == qstate._STEP).nonzero()[0]
    idx[step] = table.search(row[step], u[step])
    return idx


def step_draws(table: BornTable) -> tuple[np.ndarray, np.ndarray]:
    """(row, u) pairs with u on every CDF step of every row, and one float either side."""
    rows, draws = [], []
    for r, (cdf, total) in enumerate(zip(table.cdf, table.total)):
        on_step = cdf / total
        for u in np.concatenate([on_step, np.nextafter(on_step, 0.0), np.nextafter(on_step, 1.0)]):
            if 0.0 <= u < 1.0:
                rows.append(r)
                draws.append(u)
    return np.array(rows), np.array(draws)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_born_table_sampler_equals_born_sample_batch(scheme, rng):
    for theta in TABLE_THETAS:
        born = born_table(scheme, theta)
        columns = table_columns(scheme, theta)
        n_rows = len(born.cdf)
        random_rows = rng.integers(0, n_rows, 3000)
        step_rows, step_u = step_draws(born)
        for row, u in [
            (random_rows, rng.random(3000)),  # random draws
            (np.arange(n_rows), np.zeros(n_rows)),  # u = 0
            (step_rows, step_u),  # u exactly on, and either side of, each CDF step
        ]:
            expected = born_sample_batch(columns[:, row], u)
            np.testing.assert_array_equal(table_sample(born, row, u), expected)


def test_born_table_sampler_on_arbitrary_columns(rng):
    # Zero-probability outcomes make repeated CDF values, and many steps fall
    # inside one guide bucket; the lookup must still match the inverse CDF.
    for outcomes in (2, 6, 36):
        amps = rng.normal(size=(outcomes, 9)) + 1j * rng.normal(size=(outcomes, 9))
        amps[rng.random(amps.shape) < 0.3] = 0.0
        amps[:, 0] = 0.0
        amps[0, 0] = 1.0  # a deterministic column
        amps[:, 1] = 0.0
        amps[-1, 1] = 1.0  # a column whose only outcome is the last
        amps /= np.linalg.norm(amps, axis=0)
        table = BornTable.from_probabilities(amps.real**2 + amps.imag**2)
        rows = np.concatenate([rng.integers(0, 9, 5000), step_draws(table)[0]])
        u = np.concatenate([rng.random(5000), step_draws(table)[1]])
        np.testing.assert_array_equal(table_sample(table, rows, u), born_sample_batch(amps[:, rows], u))


def test_born_table_sampler_on_arbitrary_laws(rng):
    # from_probabilities samples any law as law_sample_batch does: zero
    # outcomes, a sure outcome, and a column short of 1 by roundoff.
    for outcomes in (2, 6, 36):
        p = rng.random((outcomes, 9))
        p[rng.random(p.shape) < 0.3] = 0.0
        p[rng.integers(0, outcomes, 9), np.arange(9)] += 0.5  # no column all zero
        p[:, 0] = 0.0
        p[0, 0] = 1.0  # a deterministic column
        p[:, 1] = 0.0
        p[-1, 1] = 1.0  # a column whose only outcome is the last
        p[:, 2:] /= p[:, 2:].sum(axis=0)
        p[:, 2] *= 1 - 1e-15
        table = BornTable.from_probabilities(p)
        rows = np.concatenate([rng.integers(0, 9, 5000), step_draws(table)[0]])
        u = np.concatenate([rng.random(5000), step_draws(table)[1]])
        np.testing.assert_array_equal(table_sample(table, rows, u), law_sample_batch(p[:, rows], u))


def test_born_table_rejects_unnormalized_rows():
    p = np.array([[1.0, 0.36], [0.0, 0.36]])  # second column sums to 0.72
    with pytest.raises(UnnormalizedStateError):
        BornTable.from_probabilities(p)
    with pytest.raises(UnnormalizedStateError):
        BornTable.from_probabilities(np.array([[np.nan], [0.0]]))
    with pytest.raises(UnnormalizedStateError):  # a law that sums to 1.2
        BornTable.from_probabilities(np.array([[0.6], [0.6]]))
    with pytest.raises(UnnormalizedStateError):  # a law that sums to 1, with a negative entry
        BornTable.from_probabilities(np.array([[1.2, 0.5], [-0.2, 0.5]]))
    BornTable.from_probabilities(np.array([[-0.0], [1.0]]))  # -0.0 is no negative probability


def counted_guide(table: BornTable) -> np.ndarray:
    """The table's guide by counting every CDF entry but the last against every bucket edge."""
    entries = table.cdf[:, :-1].T[..., None]
    sure = (entries <= qstate._BUCKET_FIRST * table.total[:, None]).sum(axis=0)
    maybe = (entries <= qstate._BUCKET_LAST * table.total[:, None]).sum(axis=0)
    return np.where(sure == maybe, sure, qstate._STEP).ravel()


@st.composite
def edge_laws(draw):
    """An outcomes × rows law whose CDF entries lie on, and a float either side of, bucket
    edges b/GUIDE_BUCKETS, with zero outcomes, sure outcomes and totals short of 1."""
    outcomes, n_rows = draw(st.integers(2, 36)), draw(st.integers(1, 4))
    columns = []
    for _ in range(n_rows):
        edge = st.integers(0, GUIDE_BUCKETS).map(lambda b: b / GUIDE_BUCKETS)
        entry = st.one_of(edge, edge.map(lambda x: np.nextafter(x, 0.0)),
                          edge.map(lambda x: np.nextafter(x, 2.0)), st.floats(0.0, 1.0))
        cdf = np.clip(sorted(draw(st.lists(entry, min_size=outcomes - 1, max_size=outcomes - 1))),
                      0.0, 1.0)
        p = np.diff(cdf, prepend=0.0, append=1.0)
        columns.append(p * draw(st.sampled_from([1.0, 1 - 2.0**-52, 1 - 1e-12, 1 + 1e-12])))
    return np.array(columns).T


@settings(max_examples=300, deadline=None)
@given(edge_laws())
def test_guide_equals_counted_guide_on_edge_laws(p):
    table = BornTable.from_probabilities(p)
    assert table.guide.dtype == np.uint8
    np.testing.assert_array_equal(table.guide, counted_guide(table))


def test_theta_and_theta_plus_two_pi_share_one_table():
    theta = 0.5  # 0.5 + 2π is exact in binary, so it wraps back to 0.5 itself
    assert wrap_phase(theta + TWO_PI) == theta
    for scheme in SCHEMES:
        first = born_table(scheme, theta)
        cache = session._kernel(scheme).code_guide
        size = cache.cache_info().currsize
        assert born_table(scheme, theta + TWO_PI) is first
        assert born_table(scheme, theta - TWO_PI) is first
        assert cache.cache_info().currsize == size
        assert born_table(scheme, theta + 1.1) is not first


def test_thetas_that_wrap_to_zero_share_one_table():
    # A θ that wraps to 0, tiny negatives included, is one cache entry.
    for scheme in SCHEMES:
        cache = session._kernel(scheme).code_guide
        zero = born_table(scheme, 0.0)
        misses = cache.cache_info().misses
        for theta in (-0.0, TWO_PI, -TWO_PI, -1e-20, -5e-324):
            assert born_table(scheme, theta) is zero
        assert cache.cache_info().misses == misses


# --- the decoherence-free subspace, and the dephased table -----------------------

PAIRS = [SchemeId.COMBINED, SchemeId.OWA_FOUR_PHASE]
DFS_PHASES = [k * TWO_PI / 13 + 0.05 for k in range(13)]


@pytest.mark.parametrize("scheme", PAIRS, ids=[s.value for s in PAIRS])
def test_pair_rows_do_not_depend_on_phi_or_collective_phase(scheme):
    # Every pair signal lies in span{|EL⟩, |LE⟩}, where φ and a collective
    # phase are a global phase: the rows' outcome CDFs at (φ, φ_c) are the
    # rows of the table at θ = 0.
    table = scheme_tables(scheme)
    n_settings = len(table.betas)
    rows = np.arange(4 * n_settings)
    base = born_table(scheme, 0.0)
    for phi in DFS_PHASES:
        for channel_phi in [None] + DFS_PHASES[::3]:
            diagonal = None
            if channel_phi is not None:
                diagonal = dephasing_diagonal(*[np.full(len(rows), channel_phi)] * 2)
            amps = detection_amplitudes(table, rows // n_settings, rows % n_settings, diagonal, phi)
            cdf, total = law_cdf(amps.real**2 + amps.imag**2)
            np.testing.assert_allclose(cdf.T, base.cdf[:, :-1], rtol=0, atol=1e-15)
            np.testing.assert_allclose(total, base.total, rtol=0, atol=1e-15)


def test_fig1_rows_depend_on_phi():
    drift = np.abs(born_table(SchemeId.FIG1_SINGLE_PHOTON, math.pi).cdf
                   - born_table(SchemeId.FIG1_SINGLE_PHOTON, 0.0).cdf).max()
    assert drift == pytest.approx(0.5)


@pytest.mark.parametrize("scheme", PAIRS, ids=[s.value for s in PAIRS])
def test_pair_session_trace_does_not_depend_on_phi_or_collective_phase(scheme):
    # Fixed phases make no draws, so these sessions draw alike, and the
    # φ-free table gives them identical trials.
    traces = {
        trace_csv(run_session(SessionConfig(scheme, 5000, 77, phase=phi, channel=channel))[1])
        for phi in (0.0, 0.3, 2.0)
        for channel in (ChannelSpec("none"), ChannelSpec("collective", phi=1.1))
    }
    assert len(traces) == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_kernel_tables_are_built_from_the_signal_rows(scheme):
    # Without Eve and loss a session's table is the Born table of the signal
    # rows at late = e^{iθ}, bit for bit, and the dephased one that of the
    # mean of the laws at late = ±1.0; the "lost" outcome appended to each,
    # of law 0, adds nothing to the CDF and leaves the guide as it was.
    kernel = session._kernel(scheme)
    for theta in (0.0, 0.7, None):
        table = kernel.code_guide(theta, False, 1.0)[0]
        if theta is None:
            fresh = BornTable.from_probabilities(dephased_law(scheme))
        else:
            amps = session._signal_rows(kernel.signals, np.exp(1j * theta))
            fresh = BornTable.from_probabilities(amps.real**2 + amps.imag**2)
        np.testing.assert_array_equal(table.cdf[:, :-1], fresh.cdf)
        np.testing.assert_array_equal(table.cdf[:, -1], fresh.total)
        np.testing.assert_array_equal(table.total, fresh.total)
        np.testing.assert_array_equal(table.guide, fresh.guide)
        np.testing.assert_array_equal(kernel.law(theta, False, 1.0)[:, -1], 0.0)


def dephased_law(scheme) -> np.ndarray:
    """The dephased law as _Kernel.law takes it: the mean of the signal rows'
    θ = 0 and θ = π Born laws, outcomes × rows."""
    rows = [session._signal_rows(session._kernel(scheme).signals, late) for late in (1.0, -1.0)]
    return sum(a.real**2 + a.imag**2 for a in rows) / 2


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dephased_table_sampler_equals_law_sample_batch(scheme, rng):
    # Its guide and search sample, at every draw, what inverse CDF samples
    # from its law: at random, at u = 0, and on and either side of each step.
    table = dephased_table(scheme)
    p = dephased_law(scheme)
    n_rows = len(table.cdf)
    random_rows = rng.integers(0, n_rows, 5000)
    step_rows, step_u = step_draws(table)
    for row, u in [
        (random_rows, rng.random(5000)),
        (np.arange(n_rows), np.zeros(n_rows)),
        (step_rows, step_u),
    ]:
        np.testing.assert_array_equal(table_sample(table, row, u), law_sample_batch(p[:, row], u))


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(SCHEMES),
       draws=st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**53 - 1)),
                      min_size=1, max_size=64))
def test_dephased_table_sampler_on_any_draws(scheme, draws):
    table = dephased_table(scheme)
    row = np.array([r % len(table.cdf) for r, _ in draws])
    u = np.array([x * 2.0**-53 for _, x in draws])
    np.testing.assert_array_equal(table_sample(table, row, u),
                                  law_sample_batch(dephased_law(scheme)[:, row], u))


OPPOSITE_THETAS = [0.0, 0.7, -2.2, math.pi / 2, 2.0**20 - 7, 3e6]


@pytest.mark.parametrize("theta", OPPOSITE_THETAS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_dephased_law_is_the_mean_of_any_two_opposite_phases(scheme, theta):
    # Each outcome's probability at θ is a + b·cos θ + c·sin θ, so the laws at
    # θ and θ + π average to a, the law averaged over a uniform θ, wherever
    # θ is: the dephased table's rows, built at θ = 0 and π.
    theta = wrap_phase(theta)
    near, far = born_table(scheme, theta), born_table(scheme, theta + math.pi)
    dephased = dephased_table(scheme)
    np.testing.assert_allclose(dephased.cdf, (near.cdf + far.cdf) / 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dephased.total, (near.total + far.total) / 2, rtol=0, atol=1e-12)


# sha256 of each scheme's θ = 0 table guide, recorded before it was built by
# counting, and of its dephased table guide; a session's table without Eve
# and loss, whose "lost" outcome has law 0, keeps them. A build that turns a
# decided cell into _STEP, or the reverse, samples the same outcomes and
# fails only here.
GUIDE_DIGESTS = {
    SchemeId.FIG1_SINGLE_PHOTON: (
        "6413bb08229beff6b293543dcb4589b94034d23933ae6f559d9cc57df76a18e0",
        "c541d5e987705a2e40ca0d394007b3ffefe0459221da03a0d6f4c98288454217",
    ),
    SchemeId.OWA_FOUR_PHASE: (
        "13e2e90462be876f0b1bda8e77d83ef1e61c878299eea67af64b155d46f9b451",
        "1c061fcd907b93488a6d720c63db86ffb864c7f2e87ca084aebe01a5c0bb0b63",
    ),
    SchemeId.COMBINED: (
        "ec73d25d7929c6cd994e1663a3ce280017258536b379a5466f6e0b76d6f2c032",
        "ea496d4f21017317c941ecb21656d7a1c3b4f943a5a84c6d3cd44290f92cbdfa",
    ),
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_guides_keep_their_digests(scheme):
    guides = born_table(scheme, 0.0).guide, dephased_table(scheme).guide
    assert tuple(hashlib.sha256(g.tobytes()).hexdigest() for g in guides) == GUIDE_DIGESTS[scheme]


# --- the stream: the re-key, the θ rule, and the trial-by-trial reference -------

REFERENCE_CHANNELS = {
    "none": ChannelSpec("none"),
    "collective=1.1": ChannelSpec("collective", phi=1.1),
    "collective=1e12": ChannelSpec("collective", phi=1e12),  # fig1's θ from e^{iφ_c}·e^{−iφ}
    "collective=random": ChannelSpec("collective", phi=None),
    "independent": ChannelSpec("independent"),
    "loss=0.2": ChannelSpec("loss", loss=0.2),
}


@pytest.mark.parametrize("prior", [0, 1, 3, 4, 5, 8, "uint32"])
def test_rekey_equals_a_new_chunk_generator(prior):
    # Whatever the bit generator drew before (part of a block, or a held
    # uint32 half), the re-key starts it where a new one keyed so starts.
    bits = np.random.Philox(key=np.array([9, 0], dtype=np.uint64))
    if prior == "uint32":
        np.random.Generator(bits).integers(0, 4, 1)
    else:
        bits.random_raw(prior)
    for chunk in (0, 1, 2**64 - 1):
        session._rekey(bits, 2**64 - 1, chunk)
        fresh = np.random.Philox(key=np.array([2**64 - 1, chunk], dtype=np.uint64))
        assert repr(bits.state) == repr(fresh.state)
        np.testing.assert_array_equal(bits.random_raw(9), fresh.random_raw(9))


@pytest.mark.parametrize("channel", list(REFERENCE_CHANNELS))
@pytest.mark.parametrize("phase", [0.7, PHASE_RANDOM])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_theta_rule_gives_the_one_relative_phase(scheme, phase, channel):
    # A pair has a θ per trial only behind independent dephasing, and else
    # θ = 0: its φ and a collective phase are global. fig1 has one when φ or
    # the channel's phase is uniform per trial, and else θ = φ_c − φ, taken
    # as the angle of e^{iφ_c}·e^{−iφ}. The session's table at its θ has the
    # scalar path's law, whatever the size of φ_c; the dephased table has the
    # law averaged over the config's random phases.
    spec = REFERENCE_CHANNELS[channel]
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    theta = session._theta(SessionConfig(scheme, 1, 0, phase, spec), 1 if single else 2)
    random_channel = spec.kind == "independent" or spec.kind == "collective" and spec.phi is None
    if not single:
        assert theta == (None if spec.kind == "independent" else 0.0)
    elif random_channel or phase == PHASE_RANDOM:
        assert theta is None
    else:
        assert theta == fig1_theta(spec.phi or 0.0, phase)
    if (scheme, phase, channel) == (SchemeId.FIG1_SINGLE_PHOTON, 0.7, "collective=1.1"):
        assert theta == pytest.approx(0.4, abs=1e-15)
    assert_table_is_the_scalar_law(scheme, theta, phase, spec)


def fig1_theta(channel_phi: float, phi: float) -> float:
    """fig1's θ behind a fixed collective phase: the wrapped angle of e^{iφ_c}·e^{−iφ}."""
    return wrap_phase(cmath.phase(cmath.exp(1j * channel_phi) * cmath.exp(-1j * phi)))


def assert_table_is_the_scalar_law(scheme, theta, phase, spec):
    """The table of the session's law at theta, without Eve and loss, has per row the CDF of
    the scalar path's law behind spec at phase (averaged over the config's random phases)."""
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    table = session._kernel(scheme).code_guide(theta, False, 1.0)[0]
    phases = oracles.PHASE_GRID if phase == PHASE_RANDOM else (phase,)
    betas = oracles.bob_betas(scheme)
    for index in (1, 2, 3, 4):
        states = oracles.channel_states(signal_state(scheme, index).state, spec, not single)
        for s, beta in enumerate(betas):
            expected = oracles.outcome_law(scheme, states, phases, beta)
            np.testing.assert_allclose(table.cdf[(index - 1) * len(betas) + s, :-1],
                                       np.cumsum(expected), rtol=0, atol=1e-12)


@pytest.mark.parametrize("channel_phi", [1e6, 1e12, 1e15, -1e15])
def test_fig1_theta_keeps_a_large_collective_phase(channel_phi):
    # φ_c − φ in floats loses φ_c's low bits: 1.1e-2 of e^{iθ} at 1e15. The
    # angle of e^{iφ_c}·e^{−iφ} holds e^{iθ} to roundoff, and the table at it
    # is the scalar path's law.
    spec = ChannelSpec("collective", phi=channel_phi)
    theta = session._theta(SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 1, 0, 0.7, spec), 1)
    assert abs(cmath.exp(1j * theta) - cmath.exp(1j * channel_phi) * cmath.exp(-0.7j)) <= 1e-15
    assert_table_is_the_scalar_law(SchemeId.FIG1_SINGLE_PHOTON, theta, 0.7, spec)


def reference_codes(config: SessionConfig) -> np.ndarray:
    """A session's trial codes from the documented layout of its raw words, with
    every outcome sampled by inverse CDF from the trial's own law.

    Chunk k's words come from a new Philox keyed (seed, k), one per trial. Word
    w gives Alice's index − 1 (w % 4), Bob's setting ((w >> 2) % 2, owa) and
    Bob's uniform ((w >> 11) / 2**53). A trial's law is the Born law of the
    signal Bob receives; where θ is uniform, its mean over θ ∈ PHASE_GRID. With
    Eve it is the mixture over the signal she resends, weighed by her resend
    law on the scalar path (`oracles.announced_distribution`: the index her
    verdict names, or a uniform one when inconclusive). It is then scaled by
    the chance that every photon survives the channel, with the lost mass
    last. No session helper is used.
    """
    scheme = scheme_tables(config.scheme)
    n_settings, n_outcomes = len(scheme.betas), len(scheme.outcomes)
    channel, single = config.channel, scheme.photons == 1
    random_phase = config.phase == PHASE_RANDOM
    # A random phase reaches a pair's outcome only as independent dephasing;
    # any reaches fig1's, and there θ = φ_c − φ is uniform mod 2π.
    per_trial = channel.kind == "independent" or single and (
        random_phase or channel.kind == "collective" and channel.phi is None)
    fixed_channel = channel.phi if channel.kind == "collective" and channel.phi is not None else 0.0
    phi = 0.0 if random_phase else config.phase
    survive = (1 - channel.loss) ** scheme.photons
    resend = None  # [a, r]: the chance that Eve resends r + 1 when Alice sent a + 1
    if config.eavesdropper == "intercept_resend":
        eve = [oracles.announced_distribution(config.scheme, [signal_state(config.scheme, a).state],
                                              (0.0,)) for a in (1, 2, 3, 4)]
        resend = np.array([[p[r] + p[0] / 4 for r in (1, 2, 3, 4)] for p in eve])

    def field(w, shift, values):
        return ((w >> shift) % values).astype(np.intp)

    parts = []
    for chunk in range(-(-config.trials // CHUNK_TRIALS)):
        n = min(CHUNK_TRIALS, config.trials - chunk * CHUNK_TRIALS)
        philox = np.random.Philox(key=np.array([config.seed, chunk], dtype=np.uint64))
        w = philox.random_raw(n)
        alice, setting, u = field(w, 0, 4), field(w, 2, n_settings), (w >> 11) / 2**53

        def law(sent, *late):
            """Each trial's Born law behind late-bin phases: fig1's θ with the interferometer
            at 0, or a pair's (φ₁, φ₂) on its photons with φ as it is."""
            diagonal = dephasing_diagonal(*(np.full(n, p) for p in late))
            amps = detection_amplitudes(scheme, sent, setting, diagonal, 0.0 if single else phi)
            return amps.real**2 + amps.imag**2

        def bob(sent):
            """The Born law of each trial whose signal sent + 1 reaches Bob."""
            if per_trial:  # θ on fig1's photon, or on a pair's second
                return np.mean([law(sent, t) if single else law(sent, 0.0, t)
                                for t in oracles.PHASE_GRID], axis=0)
            # the one θ, or the collective phase on both photons
            return law(sent, fig1_theta(fixed_channel, phi)) if single else law(
                sent, fixed_channel, fixed_channel)

        if resend is None:
            p = bob(alice)
        else:
            p = sum(resend[alice, r] * bob(np.full(n, r)) for r in range(4))
        outcome = law_sample_batch(np.vstack([survive * p, np.full(n, 1 - survive)]), u)
        parts.append((alice * n_settings + setting) * (n_outcomes + 1) + outcome)
    return np.concatenate(parts)


@pytest.mark.parametrize("channel", list(REFERENCE_CHANNELS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_kernel_equals_amplitude_reference(scheme, channel):
    # Every config, trial by trial: the table of the session's law gives what
    # each trial's own law gives, with Eve and loss too, and the kernel cuts
    # each trial's fields from the word the documented layout names. Two
    # chunks, the second odd-sized; and one short odd chunk.
    for trials in (CHUNK_TRIALS + 300, CHUNK_TRIALS + 301, 7):
        for phase in (0.7, PHASE_RANDOM):
            for eve in ("off", "intercept_resend"):
                cfg = SessionConfig(
                    scheme, trials=trials, seed=5, phase=phase,
                    channel=REFERENCE_CHANNELS[channel], eavesdropper=eve,
                )
                _, records = run_session(cfg)
                np.testing.assert_array_equal(records._codes, reference_codes(cfg))


@pytest.mark.parametrize("eve", ["off", "intercept_resend"])
def test_fig1_at_a_random_phase_has_one_trace_behind_any_dephasing(eve):
    # At a random φ, fig1's θ = φ_c − φ is uniform mod 2π whatever the
    # channel's phase, a large one too: every session samples the dephased
    # table from the same words.
    trials = BLOCK_CHUNKS * CHUNK_TRIALS + 7
    traces = {
        trace_csv(run_session(SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, trials, 2026, PHASE_RANDOM,
                                            REFERENCE_CHANNELS[channel], eve))[1])
        for channel in ("none", "collective=1.1", "collective=1e12", "collective=random",
                        "independent")
    }
    assert len(traces) == 1


@pytest.mark.parametrize("phi", [1e6, 1e12, 1e20, -1e15])
def test_fig1_at_a_large_collective_phase_keeps_the_dephased_trace(phi):
    # However large the channel's fixed phase, θ = φ_c − φ at a random φ is
    # uniform: no arithmetic on φ_c reaches the trial, and the session has
    # the trace and the tallies of one behind no channel.
    trials = BLOCK_CHUNKS * CHUNK_TRIALS + 7
    stats, records = run_session(SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, trials, 2026, PHASE_RANDOM,
                                               ChannelSpec("collective", phi=phi), "intercept_resend"))
    plain_stats, plain_records = run_session(SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, trials, 2026,
                                                           PHASE_RANDOM, ChannelSpec("none"),
                                                           "intercept_resend"))
    assert trace_csv(records) == trace_csv(plain_records)
    assert dataclasses.replace(stats, config=plain_stats.config) == plain_stats


@pytest.mark.parametrize("scheme", PAIRS, ids=[s.value for s in PAIRS])
def test_pair_behind_independent_dephasing_does_not_depend_on_phi(scheme):
    # θ = φ₂ − φ₁ is uniform whatever φ: both sessions sample the dephased
    # table from the same words.
    trials = BLOCK_CHUNKS * CHUNK_TRIALS + 7
    traces = {
        trace_csv(run_session(SessionConfig(scheme, trials, 2026, phase,
                                            ChannelSpec("independent"), "intercept_resend"))[1])
        for phase in (0.7, PHASE_RANDOM)
    }
    assert len(traces) == 1


LAZY_SESSIONS = {
    "passive-sweep fig1": [SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 3000, 4, phase=k * math.pi / 8)
                           for k in range(9)],
    "passive-sweep combined": [SessionConfig(SchemeId.COMBINED, 3000, 4, phase=k * math.pi / 4)
                               for k in range(5)],
    "combined collective=random": [SessionConfig(SchemeId.COMBINED, 3000, 4, phase=PHASE_RANDOM,
                                                 channel=ChannelSpec("collective", phi=None))],
    "fig1 phase 0 with Eve": [SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 3000, 4, phase=0.0,
                                            eavesdropper="intercept_resend")],
}


def law_calls(monkeypatch) -> list:
    """The (scheme, theta, eve, survive) of each _Kernel.law call from here on, the record
    cache cleared first so that every session builds the tables it samples."""
    calls, law = [], session._Kernel.law

    def spy(kernel, *args):
        calls.append((kernel.id, *args))
        return law(kernel, *args)

    monkeypatch.setattr(session._Kernel, "law", spy)
    session._kernel.cache_clear()
    return calls


@pytest.mark.parametrize("name", list(LAZY_SESSIONS))
def test_sessions_sharing_one_theta_build_no_dephased_table(name, monkeypatch):
    calls = law_calls(monkeypatch)
    for config in LAZY_SESSIONS[name]:
        run_session(config)
    assert calls and all(theta is not None for _, theta, _, _ in calls)
    # A trial-by-trial θ builds its scheme's dephased table, and only that one.
    del calls[:]
    run_session(SessionConfig(SchemeId.OWA_FOUR_PHASE, 10, 4, channel=ChannelSpec("independent")))
    assert calls == [(SchemeId.OWA_FOUR_PHASE, None, False, 1.0)]


PER_TRIAL_SESSIONS = {
    "fig1 at a random phase": SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 3000, 4, PHASE_RANDOM),
    "fig1 collective=random": SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 3000, 4, 0.7,
                                            ChannelSpec("collective", phi=None)),
    "fig1 independent": SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 3000, 4, 0.7,
                                      ChannelSpec("independent")),
    "owa independent": SessionConfig(SchemeId.OWA_FOUR_PHASE, 3000, 4, 0.7, ChannelSpec("independent")),
    "combined independent with Eve": SessionConfig(SchemeId.COMBINED, 3000, 4, PHASE_RANDOM,
                                                   ChannelSpec("independent"), "intercept_resend"),
}


@pytest.mark.parametrize("name", list(PER_TRIAL_SESSIONS))
def test_sessions_with_a_theta_per_trial_sample_the_dephased_table(name, monkeypatch):
    # θ uniform per trial: no one θ, and the session samples its scheme's
    # dephased law (with Eve where she intercepts), the only one it builds.
    config = PER_TRIAL_SESSIONS[name]
    assert session._theta(config, session._kernel(config.scheme).photons) is None
    calls = law_calls(monkeypatch)
    run_session(config)
    assert calls == [(config.scheme, None, config.eavesdropper != "off", 1.0)]


# --- blocks: draws per chunk, sampling per block of chunks ----------------------

BLOCK_TRIALS = BLOCK_CHUNKS * CHUNK_TRIALS


@pytest.mark.parametrize("trials", [1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 10_001,
                                    BLOCK_TRIALS - 1, BLOCK_TRIALS + 1])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_kernel_equals_amplitude_reference_at_block_edges(scheme, trials):
    # A session one short of, or one past, a chunk or a block samples each
    # trial as its own amplitudes do.
    for channel in REFERENCE_CHANNELS.values():
        for phase in (0.7, PHASE_RANDOM):
            for eve in ("off", "intercept_resend"):
                cfg = SessionConfig(scheme, trials, 6, phase, channel, eve)
                np.testing.assert_array_equal(run_session(cfg)[1]._codes, reference_codes(cfg))


@pytest.mark.parametrize("channel", list(REFERENCE_CHANNELS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_block_size_changes_no_code(scheme, channel, monkeypatch):
    # Nine chunks, in blocks of 1, 4 and 7 chunks: 9 blocks, 4 + 4 + 1 and 7 + 2,
    # for every config, with Eve or not.
    trials = 8 * CHUNK_TRIALS + 1
    for phase in (0.7, PHASE_RANDOM):
        for eve in ("off", "intercept_resend"):
            cfg = SessionConfig(scheme, trials, 9, phase, REFERENCE_CHANNELS[channel], eve)
            codes = []
            for chunks in (1, 4, 7):
                monkeypatch.setattr(session, "BLOCK_CHUNKS", chunks)
                codes.append(run_session(cfg)[1]._codes)
            for other in codes[1:]:
                np.testing.assert_array_equal(other, codes[0])


def assert_top_bits_are_the_u_bucket(words: list[int]) -> None:
    """w >> 54 is ⌊u·GUIDE_BUCKETS⌋ of u = (w >> 11)·2⁻⁵³, in Python floats and as
    table_sample takes it from the double u."""
    w = np.array(words, dtype=np.uint64)
    bucket = w >> session._BUCKET_SHIFT
    assert bucket.tolist() == [math.floor((x >> 11) * 2.0**-53 * GUIDE_BUCKETS) for x in words]
    np.testing.assert_array_equal(bucket, (session._uniform(w) * GUIDE_BUCKETS).astype(np.intp))


def test_word_top_bits_are_the_u_bucket_at_edges():
    assert session._BUCKET_SHIFT == 54
    assert_top_bits_are_the_u_bucket([0, 2**54 - 1, 2**54, 2**64 - 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_word_top_bits_are_the_u_bucket(words):
    assert_top_bits_are_the_u_bucket(words)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_code_guide_is_the_table_guide_as_codes(scheme):
    # Cell (alice + 4·setting, u bucket) holds the code of the table's outcome
    # for row alice·S + setting, and _UNDECIDED exactly where it holds _STEP:
    # for the law at each θ and the dephased law (θ None), with Eve and loss
    # or not; the table is the law's.
    kernel = session._kernel(scheme)
    n_settings, n_outcomes = len(kernel.betas), len(kernel.outcomes)
    for theta in [wrap_phase(t) for t in TABLE_THETAS] + [None]:
        for eve, survive in [(False, 1.0), (True, 1.0), (False, 0.64), (True, 0.8)]:
            table, guide, rows = kernel.code_guide(theta, eve, survive)
            expected = BornTable.from_probabilities(kernel.law(theta, eve, survive).T)
            np.testing.assert_array_equal(table.cdf, expected.cdf)
            np.testing.assert_array_equal(table.guide, expected.guide)
            assert guide.dtype == np.uint16 and not guide.flags.writeable
            assert guide.shape == (4 * n_settings * GUIDE_BUCKETS,)
            cells = guide.reshape(4 * n_settings, GUIDE_BUCKETS)
            steps = table.guide.reshape(4 * n_settings, GUIDE_BUCKETS).astype(np.intp)
            for key in range(4 * n_settings):
                row = (key % 4) * n_settings + key // 4
                assert rows[key] == row
                undecided = cells[key] == session._UNDECIDED
                np.testing.assert_array_equal(undecided, steps[row] == qstate._STEP)
                np.testing.assert_array_equal(cells[key][~undecided],
                                              row * (n_outcomes + 1) + steps[row][~undecided])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_resend_law_is_eves_rule_on_the_scalar_path(scheme):
    # Row a: what Eve resends when Alice sent a + 1, from her θ = 0 law in a
    # uniform setting: the index her verdict names, or a uniform one when it
    # is inconclusive.
    resend = session._kernel(scheme).resend_law
    for a in (1, 2, 3, 4):
        p = oracles.announced_distribution(scheme, [signal_state(scheme, a).state], (0.0,))
        np.testing.assert_allclose(resend[a - 1], p[1:] + p[0] / 4, rtol=0, atol=1e-15)
    np.testing.assert_allclose(resend.sum(axis=1), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.7, None])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_law_is_bobs_law_mixed_over_eve_and_scaled_by_survival(scheme, theta):
    # With Eve, row a·S + s is the sum of resend_law[a, r] times Bob's row
    # r·S + s; then every photon survives, or the trial is lost. Loss 0 gives
    # a "lost" of 0 and leaves the law; loss 1 gives only "lost".
    kernel = session._kernel(scheme)
    n_settings = len(kernel.betas)
    bob = kernel.law(theta, False, 1.0)
    mixed = np.einsum("ar,rso->aso", kernel.resend_law, bob.reshape(4, n_settings, -1))
    for eve, expected in [(False, bob), (True, mixed.reshape(bob.shape))]:
        law = kernel.law(theta, eve, 1.0)
        np.testing.assert_allclose(law, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(law[:, -1], 0.0)
        for survive in (0.8, 0.64):
            scaled = kernel.law(theta, eve, survive)
            np.testing.assert_array_equal(scaled[:, :-1], survive * law[:, :-1])
            np.testing.assert_array_equal(scaled[:, -1], 1.0 - survive)
        lost = np.zeros_like(law)
        lost[:, -1] = 1.0
        np.testing.assert_array_equal(kernel.law(theta, eve, 0.0), lost)


@pytest.mark.parametrize("eve", ["off", "intercept_resend"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_no_loss_leaves_no_lost(scheme, eve):
    # A loss channel at p = 0: every trial survives, and the session has the
    # codes of one behind no channel.
    lossless = SessionConfig(scheme, trials=20_000, seed=3, phase="random",
                             channel=ChannelSpec("loss", loss=0.0), eavesdropper=eve)
    stats, records = run_session(lossless)
    assert "lost" not in stats.histogram
    plain = dataclasses.replace(lossless, channel=ChannelSpec("none"))
    np.testing.assert_array_equal(records._codes, run_session(plain)[1]._codes)


@pytest.mark.parametrize("config", [
    # Measured: 3.1 arrays (owa + independent + Eve; 5.0 when Eve drew a word of her own).
    SessionConfig(SchemeId.OWA_FOUR_PHASE, 1_000_000, 12, PHASE_RANDOM, ChannelSpec("independent"),
                  "intercept_resend"),
    # Measured: 3.0 arrays (owa at a fixed θ, as before).
    SessionConfig(SchemeId.OWA_FOUR_PHASE, 1_000_000, 12, 0.7),
    # Measured: 3.0 arrays (fig1 at a random φ + collective=random + Eve; 5.0 with her word).
    SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 1_000_000, 12, PHASE_RANDOM,
                  ChannelSpec("collective", phi=None), "intercept_resend"),
    # Measured: 3.0 arrays (fig1 at a random φ + loss=0.2 + Eve; 6.0 with hers and a loss word).
    SessionConfig(SchemeId.FIG1_SINGLE_PHOTON, 1_000_000, 12, PHASE_RANDOM,
                  ChannelSpec("loss", loss=0.2), "intercept_resend"),
    # Measured: 3.9 arrays (combined + loss=0.2 + Eve, the law with the most undecided cells).
    SessionConfig(SchemeId.COMBINED, 1_000_000, 12, PHASE_RANDOM, ChannelSpec("loss", loss=0.2),
                  "intercept_resend"),
], ids=["independent-eve", "one-word", "fig1-collective-eve", "fig1-loss-eve", "combined-loss-eve"])
def test_session_working_set_is_bounded_by_a_block(config):
    # numpy reports its buffers to tracemalloc. Past the 2 B/trial of the codes
    # a session, its stats counted per block, holds one block's arrays at a
    # time, whatever its length: here
    # under 8 arrays of 8 B per trial of a 4-chunk block (1 MiB), stated apart
    # from BLOCK_CHUNKS so that a larger block fails. The words alone take one
    # array, the guide's keys another; each case's measured count is above them.
    # The whole of run_session is measured, so that a copy of the codes made
    # to count them (an intp bincount, 8 B/trial) fails; each count above is
    # the same for run_session as for _session_codes alone.
    run_session(dataclasses.replace(config, trials=10))  # builds the guides
    block_bytes = 8 * 4 * CHUNK_TRIALS
    tracemalloc.start()
    try:
        _, records = run_session(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records._codes.nbytes == 2 * config.trials
    assert peak < records._codes.nbytes + 8 * block_bytes


# --- sampled sessions against the exact expectation ----------------------------

TRIALS = 100_000
FIXED_PHASE = {SchemeId.FIG1_SINGLE_PHOTON: 0.7, SchemeId.COMBINED: 1.3, SchemeId.OWA_FOUR_PHASE: 2.2}
CHANNELS = {
    "none": ChannelSpec("none"),
    "collective=random": ChannelSpec("collective", phi=None),
    "independent": ChannelSpec("independent"),
    "loss=0.2": ChannelSpec("loss", loss=0.2),
}


def within_5se(count: int, n: int, p: float) -> bool:
    if p < 1e-12:
        return count == 0
    return abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p))


def test_expectation_oracle_spot_values():
    clean = {SchemeId.FIG1_SINGLE_PHOTON: 0.5, SchemeId.COMBINED: 0.25, SchemeId.OWA_FOUR_PHASE: 0.125}
    eve_qber = {SchemeId.FIG1_SINGLE_PHOTON: 1 / 4, SchemeId.COMBINED: 3 / 8, SchemeId.OWA_FOUR_PHASE: 7 / 16}
    for scheme in SCHEMES:
        sifted, errors = oracles.session_expectation(scheme, 0.0, ChannelSpec(), False)
        assert sifted == pytest.approx(clean[scheme]) and errors == pytest.approx(0.0)
        sifted, errors = oracles.session_expectation(scheme, 0.0, ChannelSpec(), True)
        assert errors / sifted == pytest.approx(eve_qber[scheme])
    _, errors = oracles.session_expectation(SchemeId.FIG1_SINGLE_PHOTON, 0.7, ChannelSpec(), False)
    assert errors == pytest.approx(math.sin(0.35) ** 2 / 4)


@pytest.mark.parametrize("eve", [False, True], ids=["eve-off", "eve-on"])
@pytest.mark.parametrize("channel", list(CHANNELS))
@pytest.mark.parametrize("phase", ["fixed", "random"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_sampled_session_matches_exact_expectation(scheme, phase, channel, eve):
    phase = FIXED_PHASE[scheme] if phase == "fixed" else "random"
    spec = CHANNELS[channel]
    cfg = SessionConfig(
        scheme, trials=TRIALS, seed=2024, phase=phase, channel=spec,
        eavesdropper="intercept_resend" if eve else "off",
    )
    stats, _ = run_session(cfg)
    p_sifted, p_error = oracles.session_expectation(scheme, phase, spec, eve)
    assert within_5se(stats.sifted, TRIALS, p_sifted), (stats.sifted, TRIALS * p_sifted)
    assert within_5se(stats.errors, TRIALS, p_error), (stats.errors, TRIALS * p_error)


@pytest.mark.parametrize("eve", ["off", "intercept_resend"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_total_loss_leaves_only_lost(scheme, eve):
    cfg = SessionConfig(
        scheme, trials=3000, seed=3, phase="random", channel=ChannelSpec("loss", loss=1.0),
        eavesdropper=eve,
    )
    stats, _ = run_session(cfg)
    assert stats.sifted == stats.errors == 0
    assert stats.histogram == {"lost": 3000}


# --- records and trace ----------------------------------------------------------

def reference_trace_csv(records) -> str:
    """The trace as csv.writer rendered a list of TrialRecords, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for r in records:
        writer.writerow([
            r.trial, r.alice_index, r.outcome_label, r.verdict, r.basis,
            "" if r.bit_alice is None else r.bit_alice,
            "" if r.bit_bob is None else r.bit_bob,
            int(r.kept),
        ])
    return buf.getvalue()


TRACE_CONFIGS = {
    "fig1-eve-loss": SessionConfig(
        SchemeId.FIG1_SINGLE_PHOTON, trials=9000, seed=8, phase=0.3,
        channel=ChannelSpec("loss", loss=0.3), eavesdropper="intercept_resend",
    ),
    "owa": SessionConfig(SchemeId.OWA_FOUR_PHASE, trials=9000, seed=8, phase="random"),
}


@pytest.mark.parametrize("name", list(TRACE_CONFIGS))
def test_trace_equals_csv_writer_rendering(name):
    cfg = TRACE_CONFIGS[name]
    stats, records = run_session(cfg)
    listed = list(records)
    assert trace_csv(records) == reference_trace_csv(listed)
    assert len(records) == len(listed) == cfg.trials
    assert sum(r.kept for r in listed) == stats.sifted
    verdicts = {r.verdict for r in listed}
    assert verdicts == ({"lost", "conclusive"} if name == "fig1-eve-loss" else {"conclusive", "inconclusive"})


def test_records_index_like_a_list():
    _, records = run_session(TRACE_CONFIGS["owa"])
    listed = list(records)
    for i in (0, 1, 4095, 4096, len(listed) - 1, -1, -len(listed)):
        assert records[i] == listed[i]
    assert records[10:20] == listed[10:20]
    assert records[::-997] == listed[::-997]
    with pytest.raises(IndexError):
        records[len(listed)]
    with pytest.raises(IndexError):
        records[-len(listed) - 1]

