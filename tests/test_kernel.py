"""The batched session kernel against the scalar ModeState reference path."""
import csv
import dataclasses
import io
import math

import numpy as np
import pytest

import oracles
from oracles import born_sample_batch, dephasing_diagonal, detection_amplitudes, scheme_tables
from timebin_qkd import session
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
    BornTable,
    ModeState,
    PhaseWindow,
    UnnormalizedStateError,
    born_sample,
    born_cdf,
)
from timebin_qkd.session import (
    CHUNK_TRIALS,
    PHASE_RANDOM,
    TRACE_COLUMNS,
    ChannelSpec,
    SessionConfig,
    _born_table,
    born_table,
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
    channel and the interferometer at phi."""
    table = scheme_tables(scheme)
    n_settings = len(table.betas)
    assert born.cdf.shape == (4 * n_settings, len(table.outcomes))
    for index in (1, 2, 3, 4):
        for setting, beta in enumerate(table.betas):
            p = scalar_distribution(scheme, index, channel, beta, phi)
            row = (index - 1) * n_settings + setting
            np.testing.assert_allclose(born.cdf[row], np.cumsum(p), rtol=0, atol=1e-12)
            assert born.total[row] == pytest.approx(1.0, abs=1e-12)


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
            np.testing.assert_array_equal(born.sample(row, u), expected)


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
        table = BornTable.from_amplitudes(amps)
        rows = np.concatenate([rng.integers(0, 9, 5000), step_draws(table)[0]])
        u = np.concatenate([rng.random(5000), step_draws(table)[1]])
        np.testing.assert_array_equal(table.sample(rows, u), born_sample_batch(amps[:, rows], u))


def test_born_table_rejects_unnormalized_rows():
    amps = np.array([[1.0, 0.6], [0.0, 0.6]], dtype=complex)  # second column has norm² 0.72
    with pytest.raises(UnnormalizedStateError):
        BornTable.from_amplitudes(amps)
    with pytest.raises(UnnormalizedStateError):
        BornTable.from_amplitudes(np.array([[np.nan], [0.0]], dtype=complex))


def test_theta_and_theta_plus_two_pi_share_one_table():
    theta = 0.5  # 0.5 + 2π is exact in binary, so it wraps back to 0.5 itself
    assert wrap_phase(theta + TWO_PI) == theta
    for scheme in SCHEMES:
        first = born_table(scheme, theta)
        size = _born_table.cache_info().currsize
        assert born_table(scheme, theta + TWO_PI) is first
        assert born_table(scheme, theta - TWO_PI) is first
        assert _born_table.cache_info().currsize == size
        assert born_table(scheme, theta + 1.1) is not first


def test_theta_zero_is_the_window_table_and_never_cached_apart():
    # A θ that wraps to 0 (tiny negatives included) gets the window's own
    # table; _born_table holds only θ ≠ 0.
    for scheme in SCHEMES:
        misses = _born_table.cache_info().misses
        zero = born_table(scheme, 0.0)
        for theta in (-0.0, TWO_PI, -TWO_PI, -1e-20, -5e-324):
            assert born_table(scheme, theta) is zero
        assert _born_table.cache_info().misses == misses


# --- the decoherence-free subspace, and the phase window --------------------------

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
            cdf, total = born_cdf(amps)
            np.testing.assert_allclose(cdf.T, base.cdf, rtol=0, atol=1e-15)
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
def test_phase_window_bounds_the_interfering_outcomes(scheme):
    window = session._kernel(scheme).window
    single = scheme is SchemeId.FIG1_SINGLE_PHOTON
    assert (window.lo, window.hi) == ((1, 2) if single else (7, 14))
    assert window.table is born_table(scheme, 0.0)
    # ... and that one table is the one summed at late = e^{i·0}.
    signals = session._kernel(scheme).signals
    fresh = BornTable.from_amplitudes(session._signal_rows(signals, np.exp(0j)))
    np.testing.assert_array_equal(window.table.cdf, fresh.cdf)
    np.testing.assert_array_equal(window.table.total, fresh.total)
    np.testing.assert_array_equal(window.table.guide, fresh.guide)


def window_trials(scheme, rng, n):
    """n random trials of a phase window: (row, θ, reference columns at their own phases).

    A pair passes independent dephasing (φ₁, φ₂) and the interferometer at φ,
    and θ = φ₂ − φ₁; fig1 passes a channel phase φ_c, and θ = φ_c − φ.
    """
    table = scheme_tables(scheme)
    n_settings = len(table.betas)
    row = rng.integers(0, 4 * n_settings, n)
    phases = [rng.uniform(0.0, TWO_PI, n) for _ in range(table.photons)]
    phi = rng.uniform(0.0, TWO_PI, n)
    theta = phases[1] - phases[0] if table.photons == 2 else phases[0] - phi
    columns = detection_amplitudes(
        table, row // n_settings, row % n_settings, dephasing_diagonal(*phases), phi
    )
    return row, theta, columns


@pytest.mark.parametrize("scheme", SCHEMES)
def test_phase_window_sampler_equals_born_sample_batch(scheme, rng):
    window = session._kernel(scheme).window
    row, theta, columns = window_trials(scheme, rng, 20_000)
    for u in (rng.random(len(row)), np.zeros(len(row))):
        np.testing.assert_array_equal(window.sample(row, theta, u), born_sample_batch(columns, u))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_phase_window_sampler_at_window_steps(scheme, rng):
    # u on each CDF step of the window, and on both of its edges (entries
    # lo − 1 and hi), of each trial's own columns. The window's CDF differs
    # from those columns' only by roundoff, so 1e-12 to either side of a step
    # the two samplers agree exactly, and on the step the window returns one
    # of the two outcomes that meet there.
    window = session._kernel(scheme).window
    row, theta, columns = window_trials(scheme, rng, 300)
    cdf, total = born_cdf(columns)
    for entry in range(max(window.lo - 1, 0), window.hi + 1):
        on_step = cdf[entry] / total
        below, above = on_step * (1 - 1e-12), np.minimum(on_step * (1 + 1e-12), 1 - 1e-16)
        sides = []
        for u in (below, above):
            expected = born_sample_batch(columns, u)
            np.testing.assert_array_equal(window.sample(row, theta, u), expected)
            sides.append(expected)
        on = on_step < 1.0
        got = window.sample(row[on], theta[on], on_step[on])
        assert np.all((got == sides[0][on]) | (got == sides[1][on]))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_phase_window_still_entries_equal_the_full_formula(scheme, rng):
    # An entry flagged still is compared as a alone; a + 0·cos θ + 0·sin θ is
    # a exactly, so the samples equal those of the unflagged window, with
    # u·total landing exactly on each still entry too.
    window = session._kernel(scheme).window
    assert sum(window.still) == (0 if scheme is SchemeId.FIG1_SINGLE_PHOTON else 5)
    full = dataclasses.replace(window, still=(False,) * len(window.still))
    rows, draws = [], []
    for j in np.flatnonzero(window.still):
        for r, (a, total) in enumerate(zip(window.steps[0, j], window.table.total)):
            for u in (np.nextafter(a / total, 0.0), a / total, np.nextafter(a / total, 1.0)):
                if u * total == a:
                    rows.append(r)
                    draws.append(u)
    assert len(draws) >= len(window.table.total) * sum(window.still)
    random_rows = rng.integers(0, len(window.table.total), 5000)
    row = np.concatenate([np.array(rows, dtype=np.intp), random_rows])
    u = np.concatenate([draws, rng.random(5000)])
    theta = rng.uniform(0.0, TWO_PI, len(row))
    np.testing.assert_array_equal(window.sample(row, theta, u), full.sample(row, theta, u))


def test_phase_window_rejects_unnormalized_columns():
    # Normalized at θ = 0 and θ = π, but the norm² at θ is 1 + sin θ.
    x = np.array([[0.5], [0.5]], dtype=complex)
    y = 1j * x
    with pytest.raises(UnnormalizedStateError):
        PhaseWindow.from_amplitudes(x + y, y - x)
    with pytest.raises(UnnormalizedStateError):  # unnormalized at θ = π
        PhaseWindow.from_amplitudes(np.array([[1.0], [0.0]], dtype=complex),
                                    np.array([[0.6], [0.6]], dtype=complex))
    with pytest.raises(UnnormalizedStateError):
        PhaseWindow.from_amplitudes(np.array([[1.0], [0.0]], dtype=complex),
                                    np.array([[np.nan], [0.0]], dtype=complex))
    # The window coefficients of a column that stays normalized are accepted.
    ok = PhaseWindow.from_amplitudes(np.array([[0.6], [0.8]], dtype=complex),
                                     np.array([[0.6], [-0.8]], dtype=complex))
    assert (ok.lo, ok.hi) == (0, 0)


# --- draw helpers: each equals the plain Generator call it stands for -----------

def philox(key: int = 11) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([key, 3], dtype=np.uint64)))


def live_state(rng: np.random.Generator) -> tuple:
    """The part of a Philox state that later draws read: counter, key, the
    unread buffer words, and the held uint32 half when one is held.
    (A counter advance zeroes the spent words and a stale half; no draw
    reads those.)"""
    state = rng.bit_generator.state
    pos, held = state["buffer_pos"], state["has_uint32"]
    return (
        tuple(state["state"]["counter"]), tuple(state["state"]["key"]), pos,
        tuple(state["buffer"][pos:]), held, state["uinteger"] if held else None,
    )


# Draws that leave (buffer_pos, has_uint32) at each of (1..4) × (0, 1).
PRIOR_DRAWS = {
    "fresh": (lambda rng: None, (4, 0)),
    "1 double": (lambda rng: rng.random(1), (1, 0)),
    "2 doubles": (lambda rng: rng.random(2), (2, 0)),
    "3 doubles": (lambda rng: rng.random(3), (3, 0)),
    "8 doubles": (lambda rng: rng.random(8), (4, 0)),
    "1 uint32": (lambda rng: rng.integers(0, 4, 1), (1, 1)),
    "1 uint32, 1 double": (lambda rng: (rng.integers(0, 4, 1), rng.random(1)), (2, 1)),
    "1 uint32, 2 doubles": (lambda rng: (rng.integers(0, 4, 1), rng.random(2)), (3, 1)),
    "1 uint32, 7 doubles": (lambda rng: (rng.integers(0, 4, 1), rng.random(7)), (4, 1)),
}
DRAW_COUNTS = [0, 1, 2, 3, 4, 5, 7, 8, 4095, 4096]


def assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    """The same live state, and the same next 8 draws of each kind."""
    assert live_state(a) == live_state(b)
    np.testing.assert_array_equal(a.random(8), b.random(8))
    np.testing.assert_array_equal(a.integers(0, 4, 8), b.integers(0, 4, 8))
    np.testing.assert_array_equal(a.integers(0, 3, 7), b.integers(0, 3, 7))
    np.testing.assert_array_equal(a.uniform(0.0, TWO_PI, 8), b.uniform(0.0, TWO_PI, 8))
    np.testing.assert_array_equal(a.bit_generator.random_raw(8), b.bit_generator.random_raw(8))
    assert live_state(a) == live_state(b)


@pytest.mark.parametrize("prior", list(PRIOR_DRAWS))
def test_prior_draws_reach_each_buffer_state(prior):
    draw, expected = PRIOR_DRAWS[prior]
    rng = philox()
    draw(rng)
    state = rng.bit_generator.state
    assert (state["buffer_pos"], state["has_uint32"]) == expected


@pytest.mark.parametrize("prior", list(PRIOR_DRAWS))
def test_skip_equals_drawing(prior):
    draw, _ = PRIOR_DRAWS[prior]
    for k in DRAW_COUNTS:
        skipped, drawn = philox(), philox()
        draw(skipped)
        draw(drawn)
        session._skip(skipped, k)
        drawn.random(k)
        assert_same_stream(skipped, drawn)


@pytest.mark.parametrize("prior", list(PRIOR_DRAWS))
def test_integers_helper_equals_generator_integers(prior):
    draw, _ = PRIOR_DRAWS[prior]
    for high in (2, 3, 4, 8):
        for n in DRAW_COUNTS:
            fast, plain = philox(), philox()
            draw(fast)
            draw(plain)
            np.testing.assert_array_equal(session._integers(fast, high, n), plain.integers(0, high, n))
            assert_same_stream(fast, plain)


@pytest.mark.parametrize("photons", [1, 2])
def test_loss_mask_equals_any_over_photons(photons):
    scheme = SchemeId.FIG1_SINGLE_PHOTON if photons == 1 else SchemeId.COMBINED
    config = SessionConfig(scheme, 1, 0, phase=0.0, channel=ChannelSpec("loss", loss=0.3))
    for n in DRAW_COUNTS:
        fast, plain = philox(), philox()
        lost, theta = session._phase_draws(config, photons, fast, n)
        assert theta == 0.0
        np.testing.assert_array_equal(lost, (plain.random((n, photons)) < 0.3).any(axis=1))
        assert_same_stream(fast, plain)


def test_rekey_equals_a_new_chunk_generator():
    rng = session._chunk_rng(9, 0)
    for chunk, (draw, _) in enumerate(PRIOR_DRAWS.values()):
        draw(rng)
        session._rekey(rng, 2**64 - 1, chunk)
        fresh = session._chunk_rng(2**64 - 1, chunk)
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        assert_same_stream(rng, fresh)


def reference_codes(config: SessionConfig) -> np.ndarray:
    """A session's trial codes from its own draw schedule of plain Generator
    calls, with every outcome sampled by born_sample_batch from the trial's
    own detection amplitudes.

    Each chunk draws, in order: Alice's index; with Eve, her setting, her
    uniform and her fallback index; the channel's loss uniforms or dephasing
    phases; the interferometer phase when random; Bob's setting; his uniform.
    Every draw is made, read or not, and none goes through session helpers.
    """
    scheme = scheme_tables(config.scheme)
    n_settings, n_outcomes = len(scheme.betas), len(scheme.outcomes)
    channel = config.channel

    def settings(rng, n):
        return rng.integers(0, n_settings, n) if n_settings > 1 else np.zeros(n, dtype=np.intp)

    parts = []
    for chunk in range(-(-config.trials // CHUNK_TRIALS)):
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, chunk], dtype=np.uint64)))
        n = min(CHUNK_TRIALS, config.trials - chunk * CHUNK_TRIALS)
        alice = rng.integers(0, 4, n)
        eve = None
        if config.eavesdropper == "intercept_resend":
            eve = (settings(rng, n), rng.random(n), rng.integers(0, 4, n))
        lost, phases = None, None
        if channel.kind == "loss":
            lost = (rng.random((n, scheme.photons)) < channel.loss).any(axis=1)
        elif channel.kind == "collective" and channel.phi is None:
            phases = [rng.uniform(0.0, TWO_PI, n)] * scheme.photons
        elif channel.kind == "independent":
            phases = [rng.uniform(0.0, TWO_PI, n) for _ in range(scheme.photons)]
        elif channel.phi is not None:
            phases = [np.full(n, channel.phi)] * scheme.photons
        phi = rng.uniform(0.0, TWO_PI, n) if config.phase == PHASE_RANDOM else config.phase
        setting = settings(rng, n)
        u = rng.random(n)
        sent = alice
        if eve is not None:
            eve_setting, eve_u, fallback = eve
            seen = born_sample_batch(
                detection_amplitudes(scheme, alice, eve_setting, None, 0.0), eve_u
            )
            named = scheme.announced[eve_setting, seen]
            sent = np.where(named > 0, named - 1, fallback)
        diagonal = None if phases is None else dephasing_diagonal(*phases)
        outcome = born_sample_batch(detection_amplitudes(scheme, sent, setting, diagonal, phi), u)
        if lost is not None:
            outcome[lost] = n_outcomes
        parts.append((alice * n_settings + setting) * (n_outcomes + 1) + outcome)
    return np.concatenate(parts)


REFERENCE_CHANNELS = {
    "none": ChannelSpec("none"),
    "collective=1.1": ChannelSpec("collective", phi=1.1),
    "collective=random": ChannelSpec("collective", phi=None),
    "independent": ChannelSpec("independent"),
    "loss=0.2": ChannelSpec("loss", loss=0.2),
}


@pytest.mark.parametrize("channel", list(REFERENCE_CHANNELS))
@pytest.mark.parametrize("phase", [0.7, PHASE_RANDOM])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_phase_draws_give_the_one_relative_phase(scheme, phase, channel):
    # θ is a float when no draw reaches the outcome, else one value per
    # trial: a pair's is 0 outside independent dephasing, where it is
    # φ₂ − φ₁; fig1's is φ_c − φ. The expected per-trial values come from
    # plain draws in the kernel's order, the channel's then φ's, and the
    # skipped draws leave the stream where the plain ones do.
    spec = REFERENCE_CHANNELS[channel]
    photons = scheme_tables(scheme).photons
    n = 256
    fast = philox()
    lost, theta = session._phase_draws(SessionConfig(scheme, 1, 0, phase, spec), photons, fast, n)
    assert (lost is None) == (spec.kind != "loss")

    plain = philox()
    if spec.kind == "loss":
        plain.random((n, photons))
    phases = [spec.phi or 0.0] * photons  # late-bin phases, one per photon
    if spec.kind == "independent":
        phases = [plain.uniform(0.0, TWO_PI, n) for _ in range(photons)]
    elif spec.kind == "collective" and spec.phi is None:
        phases = [plain.uniform(0.0, TWO_PI, n)] * photons
    phi = plain.uniform(0.0, TWO_PI, n) if phase == PHASE_RANDOM else phase
    assert_same_stream(fast, plain)

    if photons == 2:
        per_trial = spec.kind == "independent"
        expected = phases[1] - phases[0] if per_trial else 0.0
    else:
        per_trial = np.ndim(phases[0]) == 1 or phase == PHASE_RANDOM
        expected = phases[0] - phi
    assert np.ndim(theta) == per_trial
    np.testing.assert_array_equal(theta, expected)
    if (scheme, phase, channel) == (SchemeId.FIG1_SINGLE_PHOTON, 0.7, "collective=1.1"):
        assert theta == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("channel", list(REFERENCE_CHANNELS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_kernel_equals_amplitude_reference(scheme, channel):
    # Both sampling paths, trial by trial: the Born tables and phase windows
    # give what each trial's own amplitudes give, and the kernel's draws,
    # skipped or read off raw words, land where the plain calls put them.
    # Two chunks, the second odd-sized; and one short odd chunk.
    for trials in (CHUNK_TRIALS + 300, CHUNK_TRIALS + 301, 7):
        for phase in (0.7, PHASE_RANDOM):
            for eve in ("off", "intercept_resend"):
                cfg = SessionConfig(
                    scheme, trials=trials, seed=5, phase=phase,
                    channel=REFERENCE_CHANNELS[channel], eavesdropper=eve,
                )
                _, records = run_session(cfg)
                np.testing.assert_array_equal(records._codes, reference_codes(cfg))


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
