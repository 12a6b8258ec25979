import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import voigt_profile

from lumiphon import units
from lumiphon.errors import CapTooSmallWarning, InputError
from lumiphon.fcoracle import (
    MAX_LINE_POINTS,
    MAX_LINES,
    PRUNE_WEIGHT,
    FCLadder,
    broadened_oracle_spectrum,
    enumerate_fc,
)
from lumiphon.model import HRDecomposition
from lumiphon.vibronic import emission, partial_hr

from helpers import examples, first_moment_mev, poisson_weight


def _hr(omegas, sks):
    omegas = np.asarray(omegas, dtype=float)
    sks = np.asarray(sks, dtype=float)
    qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas))
    return partial_hr(qk, omegas)


def test_single_mode_poisson_weights():
    hr = _hr([150.0], [2.0])
    ladder = enumerate_fc(hr, cap=20)
    by_quanta = {int(q[0]): w for q, w in zip(ladder.quanta, ladder.weights)}
    expected = [0.13534, 0.27067, 0.27067, 0.18045]
    for n, ref in enumerate(expected):
        assert by_quanta[n] == pytest.approx(ref, abs=5e-6)
        assert by_quanta[n] == pytest.approx(poisson_weight(2.0, n), rel=1e-12)


def test_two_mode_zpl_weight():
    hr = _hr([100.0, 150.0], [0.5, 0.3])
    ladder = enumerate_fc(hr, cap=16)
    zpl_rows = np.all(ladder.quanta == 0, axis=1)
    assert float(ladder.weights[zpl_rows][0]) == pytest.approx(0.44933, abs=5e-6)
    assert float(ladder.weights[zpl_rows][0]) == pytest.approx(
        math.exp(-0.8), rel=1e-12
    )


def test_zero_coupling_single_line():
    hr = partial_hr(np.zeros(3), np.array([50.0, 100.0, 150.0]))
    ladder = enumerate_fc(hr, cap=5)
    assert ladder.nlines == 1
    assert ladder.weights[0] == 1.0
    assert ladder.energies_mev[0] == 0.0
    assert ladder.tail == 0.0


def test_cap_zero_reports_tail():
    hr = _hr([120.0, 150.0], [1.7, 1.3])
    with pytest.warns(CapTooSmallWarning):
        ladder = enumerate_fc(hr, cap=0)
    assert ladder.nlines == 1
    assert ladder.weights[0] == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert ladder.tail == pytest.approx(1.0 - math.exp(-3.0), rel=1e-10)


def test_weight_conservation():
    hr = _hr([60.0, 91.0, 117.0, 151.0, 178.0], [0.9, 0.7, 0.6, 0.5, 0.3])
    ladder = enumerate_fc(hr, cap=20)
    assert abs(math.fsum(ladder.weights.tolist()) + ladder.tail - 1.0) < 1e-10
    assert ladder.tail < 1e-9


def test_guards():
    hr9 = _hr(np.linspace(50, 180, 9), np.full(9, 0.1))
    with pytest.raises(InputError, match="coupled modes exceed the enumeration limit"):
        enumerate_fc(hr9, cap=10)
    hr1 = _hr([100.0], [0.5])
    with pytest.raises(InputError):
        enumerate_fc(hr1, cap=25)
    with pytest.raises(InputError):
        enumerate_fc(hr1, cap=-1)


@pytest.mark.parametrize(
    "omegas, sks, cap",
    [([100.0], [80.0], 16), ([100.0], [50.0], 4), ([100.0, 150.0], [40.0, 40.0], 16)],
    ids=["one-mode", "one-mode-cap-4", "lines-pruned-at-the-second-mode"],
)
def test_ladder_without_a_line_refused(omegas, sks, cap):
    # every weight of at most cap quanta is below PRUNE_WEIGHT; in the last
    # case the first mode alone still keeps lines
    with pytest.raises(InputError, match="--max-quanta") as err:
        enumerate_fc(_hr(omegas, sks), cap=cap)
    assert "total S" in str(err.value)


def test_zero_sk_modes_dropped_from_vectors():
    hr = HRDecomposition(
        np.array([10.0, 100.0]),
        np.array([0.0, 0.05]),
        np.array([0.0, 0.0922]),
        0.0922,
    )
    ladder = enumerate_fc(hr, cap=8)
    assert ladder.quanta.shape[1] == 1


def test_first_moment_identity():
    # Poisson mean: <sum m_k w_k> = sum S_k w_k
    omegas = [60.0, 91.0, 117.0, 151.0, 178.0]
    sks = [0.9, 0.7, 0.6, 0.5, 0.3]
    hr = _hr(omegas, sks)
    ladder = enumerate_fc(hr, cap=22)
    expected = float(np.dot(sks, omegas))
    assert first_moment_mev(ladder) == pytest.approx(expected, rel=1e-6)


def _window_mass(ladder, gamma_mev, grid, zpl_ev):
    """Analytic in-window mass of the ladder's Lorentzians on grid: each
    line's weight times the arctan share of its Lorentzian between the
    grid's ends."""
    gamma_ev = gamma_mev / 1000.0
    lines_ev = zpl_ev - ladder.energies_mev / 1000.0
    share = (
        np.arctan((grid[-1] - lines_ev) / gamma_ev) - np.arctan((grid[0] - lines_ev) / gamma_ev)
    ) / math.pi
    return float(np.dot(ladder.weights, share))


def test_broadened_single_line_lorentzian():
    hr = partial_hr(np.zeros(1), np.array([100.0]))
    ladder = enumerate_fc(hr, cap=4)
    zpl, gamma = 2.0, 1.0
    grid = np.arange(1.8, 2.2 + 1e-12, 0.0001)
    spec = broadened_oracle_spectrum(ladder, gamma, grid, zpl)
    g_ev = gamma / 1000.0
    peak = float(spec.max())
    assert peak == pytest.approx(1.0 / (math.pi * g_ev), rel=1e-6)
    # half maximum at zpl +- gamma: full width 2 gamma
    at_half = spec >= peak / 2.0
    width_mev = (grid[at_half][-1] - grid[at_half][0]) * 1000.0
    assert width_mev == pytest.approx(2.0 * gamma, abs=0.25)
    assert float(np.trapezoid(spec, grid)) == pytest.approx(
        _window_mass(ladder, gamma, grid, zpl), abs=1e-6
    )


def test_broadened_integral_tracks_window_mass():
    hr = _hr([80.0, 150.0], [0.8, 0.5])
    ladder = enumerate_fc(hr, cap=12)
    grid = np.arange(0.3, 2.2 + 1e-12, 0.0002)
    spec = broadened_oracle_spectrum(ladder, 1.0, grid, 2.0)
    assert float(np.trapezoid(spec, grid)) == pytest.approx(
        _window_mass(ladder, 1.0, grid, 2.0), abs=1e-6
    )
    # the total_weight oracle writes: the ladder's weights, never the tail
    assert math.fsum(ladder.weights.tolist()) == pytest.approx(1.0 - ladder.tail, abs=1e-12)


def test_broadened_grid_too_narrow():
    hr = _hr([150.0], [1.0])
    ladder = enumerate_fc(hr, cap=10)
    with pytest.raises(InputError, match="cuts off lines carrying weight"):
        broadened_oracle_spectrum(ladder, 1.0, np.arange(1.9, 2.1, 0.0005), 2.0)


def test_voigt_smearing_matches_direct_sum():
    # group convolution vs direct Voigt evaluation
    hr = _hr([90.0, 160.0], [0.4, 0.3])
    with pytest.warns(CapTooSmallWarning):
        ladder = enumerate_fc(hr, cap=6)
    zpl, gamma, sigma = 2.0, 1.5, 2.0
    grid = np.arange(0.9, 2.3 + 1e-12, 0.0001)
    spec = broadened_oracle_spectrum(ladder, gamma, grid, zpl, sigma_mev=sigma)
    direct = np.zeros_like(grid)
    for quanta, w, e in zip(ladder.quanta, ladder.weights, ladder.energies_mev):
        n = int(quanta.sum())
        center = zpl - e / 1000.0
        sg = sigma / 1000.0 * math.sqrt(n) if n else 1e-13
        direct += w * voigt_profile(grid - center, sg, gamma / 1000.0)
    assert np.max(np.abs(spec - direct)) < 1e-6 * direct.max()


def _chunk_expression_reference(ladder, gamma_mev, grid, zpl_ev, sigma_mev):
    """The broadened intensity as summed before the column tiles: one fresh
    (chunk, points) expression per row chunk, same step, padding and smearing."""
    step_ev = float((grid[-1] - grid[0]) / (grid.size - 1))
    gamma_ev, sigma_ev = gamma_mev / 1000.0, sigma_mev / 1000.0
    lines_ev = zpl_ev - ladder.energies_mev / 1000.0
    totals = ladder.quanta.sum(axis=1)
    pad_ev = 10.0 * gamma_ev + (
        8.0 * sigma_ev * math.sqrt(max(int(totals.max()), 1)) if sigma_mev > 0 else 0.0
    )
    npad = int(math.ceil(pad_ev / step_ev)) + 1
    padded = np.concatenate(
        [
            grid[0] - step_ev * np.arange(npad, 0, -1),
            grid,
            grid[-1] + step_ev * np.arange(1, npad + 1),
        ]
    )
    out = np.zeros(padded.size)
    for q in np.unique(totals):
        sel = totals == q
        wts, ens = ladder.weights[sel], lines_ev[sel]
        sub = np.zeros(padded.size)
        chunk = max(1, 4_000_000 // padded.size)
        for i in range(0, wts.size, chunk):
            sub += (
                wts[i : i + chunk, None]
                * (gamma_ev / math.pi)
                / ((padded[None, :] - ens[i : i + chunk, None]) ** 2 + gamma_ev**2)
            ).sum(axis=0)
        if sigma_mev > 0 and q > 0:
            sg = sigma_ev * math.sqrt(float(q))
            nk = int(math.ceil(8.0 * sg / step_ev))
            kernel = np.exp(-0.5 * ((np.arange(-nk, nk + 1) * step_ev) / sg) ** 2)
            kernel /= kernel.sum()
            nfft = 1 << (sub.size + 2 * nk - 1).bit_length()
            full = np.fft.irfft(np.fft.rfft(sub, nfft) * np.fft.rfft(kernel, nfft), nfft)
            sub = full[nk : nk + sub.size]
        out += sub
    return out[npad : npad + grid.size]


# groups of about 1000 lines against a 666-row chunk on 5998 padded points
# (two row chunks, four column tiles, the last one ragged); seventeen
# groups on 24,272 points; a single line (a chunk far above the line count)
@example(nmodes=2, cap=2, nlines=3000, gamma=0.05, sigma=4.0, step_fraction=0.5, seed=1)
@example(nmodes=8, cap=16, nlines=1500, gamma=0.05, sigma=4.0, step_fraction=0.5, seed=1)
@example(nmodes=1, cap=0, nlines=1, gamma=3.0, sigma=0.0, step_fraction=1.0, seed=2)
@settings(max_examples=examples(30), deadline=None)
@given(
    nmodes=st.integers(1, 8),
    cap=st.integers(0, 16),
    nlines=st.integers(1, 3000),
    gamma=st.floats(0.05, 3.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.5, 4.0)),
    step_fraction=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadening_bit_identical_to_chunk_expression(
    nmodes, cap, nlines, gamma, sigma, step_fraction, seed
):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(1.0, 30.0, size=nmodes)
    quanta = rng.multinomial(
        rng.integers(0, cap + 1, size=nlines), np.full(nmodes, 1.0 / nmodes)
    ).astype(np.uint8)
    weights = 10.0 ** rng.uniform(-16.0, 0.0, size=nlines)
    weights /= weights.sum()
    energies = quanta @ omegas
    ladder = FCLadder(quanta, weights, energies, max(0.0, 1.0 - math.fsum(weights.tolist())))
    zpl, step_ev = 2.0, step_fraction * gamma / 1000.0
    lo = zpl - (float(energies.max()) + 12.0 * gamma) / 1000.0
    npts = int((zpl + 12.0 * gamma / 1000.0 - lo) / step_ev) + 1
    grid = lo + step_ev * np.arange(npts)
    spec = broadened_oracle_spectrum(ladder, gamma, grid, zpl, sigma)
    ref = _chunk_expression_reference(ladder, gamma, grid, zpl, sigma)
    assert np.array_equal(spec, ref)


def test_broadening_memory_stays_below_one_parent_chunk():
    # the six strongest-coupled modes of the demo at seed 1, capped at 14
    # quanta on its oracle window: about 6,600 lines on 24,041 padded points
    hr = _hr(
        [60.3, 64.8, 68.1, 75.5, 121.6, 129.5],
        [0.040, 0.079, 0.067, 0.023, 0.025, 0.095],
    )
    ladder = enumerate_fc(hr, cap=14)
    assert 6000 < ladder.nlines < 7000
    grid = 0.4 + 1e-4 * np.arange(22601)
    tracemalloc.start()
    try:
        broadened_oracle_spectrum(ladder, 1.0, grid, 2.6, sigma_mev=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row chunk of the former expression alone held 4e6 float64
    assert peak < 4_000_000 * 8


def _walk_reference(hr, cap):
    """The ladder as the former recursive walk enumerated it: depth first
    over the coupled modes, q ascending, a branch cut once its weight falls
    below PRUNE_WEIGHT at q >= S_k.  Returns quanta, weights, energies, tail."""
    live = hr.sk > 0.0
    omegas, sks = hr.omegas_mev[live], hr.sk[live]
    m = omegas.size
    pois = [
        np.array([math.exp(-s) * s**q / math.factorial(q) for q in range(cap + 1)])
        for s in sks
    ]
    quanta, weights, energies = [], [], []
    vec = np.zeros(m, dtype=int)

    def walk(k, weight, energy, used):
        if k == m:
            quanta.append(vec.copy())
            weights.append(weight)
            energies.append(energy)
            return
        for q in range(cap + 1 - used):
            w = weight * pois[k][q]
            if w < PRUNE_WEIGHT:
                if q >= sks[k]:
                    break
                continue
            vec[k] = q
            walk(k + 1, w, energy + q * omegas[k], used + q)
        vec[k] = 0

    if m == 0:
        quanta.append(np.zeros(0, dtype=int))
        weights.append(1.0)
        energies.append(0.0)
    else:
        walk(0, 1.0, 0.0, 0)
    weights = np.array(weights)
    tail = max(1.0 - math.fsum(weights.tolist()), 0.0)
    return np.array(quanta, dtype=int).reshape(len(weights), m), weights, np.array(energies), tail


def _ladder_size_bound(sks, cap):
    """Lines a ladder can hold: the product of each coupled mode's quanta
    with a factor above PRUNE_WEIGHT, and at most C(cap + m, m)."""
    admissible = [
        sum(math.exp(-s) * s**q / math.factorial(q) >= PRUNE_WEIGHT for q in range(cap + 1))
        for s in sks
        if s > 0.0
    ]
    return min(math.prod(admissible), math.comb(cap + len(admissible), len(admissible)))


# exp(-S) S^3 / 3! is exactly PRUNE_WEIGHT at this S, so the three-quanta
# line sits on the prune boundary; the walk keeps it
@example(m=1, omegas=[50.0] * 8, sks=[8.434350365739523e-06] * 8, cap=5)
@example(m=2, omegas=[20.0, 90.0] * 4, sks=[0.0002213486324054305, 1.0] * 4, cap=24)
@example(m=0, omegas=[0.0] * 8, sks=[1.0] * 8, cap=3)
@example(m=3, omegas=[0.0, 40.0, 40.0] * 3, sks=[5.0, 0.0, 1e-17] * 3, cap=0)
@settings(max_examples=examples(300), deadline=None)
@given(
    m=st.integers(0, 8),
    omegas=st.lists(st.floats(0.0, 200.0), min_size=8, max_size=8),
    sks=st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8),
    cap=st.integers(0, 24),
)
def test_enumeration_bit_identical_to_recursive_walk(m, omegas, sks, cap):
    omegas, sks = np.sort(np.array(omegas[:m])), np.array(sks[:m])
    # lower the cap until the ladder is small enough for the Python walk
    while _ladder_size_bound(sks, cap) > 20_000:
        cap -= 1
    hr = HRDecomposition(omegas, np.zeros(m), sks, math.fsum(sks.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        ladder = enumerate_fc(hr, cap)
    quanta, weights, energies, tail = _walk_reference(hr, cap)
    assert ladder.quanta.dtype == np.uint8
    assert ladder.quanta.shape == quanta.shape
    assert np.array_equal(ladder.quanta, quanta)
    assert np.array_equal(ladder.weights, weights)
    assert np.array_equal(ladder.energies_mev, energies)
    assert ladder.tail == tail


@pytest.mark.parametrize("sk", [1.0, 3.0])
def test_eight_mode_cap_24_ladder_refused_before_it_grows(sk):
    # the walk took 24.8 s and 638 MB on this document at S_k = 1 and ran
    # out of memory at S_k = 3
    omegas = np.linspace(20.0, 160.0, 8)
    hr = HRDecomposition(omegas, np.zeros(8), np.full(8, sk), 8.0 * sk)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InputError, match=f"limit of {MAX_LINES}; lower --max-quanta"):
            enumerate_fc(hr, 24)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 256e6


def test_broadening_refuses_work_above_the_limit_before_allocating():
    nlines, npoints = 200_000, 50_000
    assert nlines * npoints > MAX_LINE_POINTS
    quanta = np.zeros((nlines, 1), dtype=np.uint8)
    weights = np.full(nlines, 1.0 / nlines)
    ladder = FCLadder(quanta, weights, np.zeros(nlines), 0.0)
    grid = 1.5 + 1e-5 * np.arange(npoints)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="--max-quanta.*--window.*--step"):
            broadened_oracle_spectrum(ladder, 1.0, grid, 1.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per-line arrays only: below the 8 MB scratch buffer of the chunk loop
    assert peak < 2**20 * 8


@settings(max_examples=examples(30), deadline=None)
@given(
    omegas=st.lists(st.floats(30.0, 180.0), min_size=1, max_size=5),
    shares=st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
    s_total=st.floats(0.3, 3.3),
    gamma=st.sampled_from([0.1, 0.3, 1.0, 3.0]),
    sigma=st.sampled_from([0.5, 2.0, 4.0]),
)
@example(omegas=[31.0, 180.0], shares=[1.0] * 5, s_total=3.3, gamma=0.1, sigma=0.5)
def test_oracle_contract_on_generated_documents(omegas, shares, s_total, gamma, sigma):
    """FFT lineshape vs broadened ladder, L1 < 1e-4 on a grid at step
    min(0.1 meV, gamma/2); on the same ladder the first moment is
    sum S_k omega_k and the zero-quanta weight is exp(-S)."""
    omegas = np.sort(np.array(omegas))
    shares = np.array(shares[: omegas.size])
    hr = _hr(omegas, s_total * shares / shares.sum())
    s = hr.total
    # the smallest cap whose Poisson tail is below 1e-10
    cap = next(
        n
        for n in range(25)
        if 1.0 - math.fsum(math.exp(-s) * s**q / math.factorial(q) for q in range(n + 1))
        < 1e-10
    )
    ladder = enumerate_fc(hr, cap)
    assert abs(math.fsum(ladder.weights.tolist()) + ladder.tail - 1.0) <= 1e-10
    assert first_moment_mev(ladder) == pytest.approx(
        float(np.dot(hr.sk, hr.omegas_mev)), rel=1e-6
    )
    zero_quanta = np.all(ladder.quanta == 0, axis=1)
    assert float(ladder.weights[zero_quanta][0]) == pytest.approx(math.exp(-s), rel=1e-12)
    # the window holds every line above 1e-14, its Lorentzian and its smearing
    zpl = 4.0
    far = float(ladder.energies_mev[ladder.weights >= 1e-14].max())
    window = (zpl - (far + 10.0 * gamma + 8.0 * sigma * math.sqrt(cap) + 5.0) / 1000.0, zpl + 0.1)
    ls = emission(hr, zpl, gamma, sigma, window, min(0.1, gamma / 2.0), False)
    oracle = broadened_oracle_spectrum(
        ladder, gamma, ls.energy_ev, zpl, sigma_mev=sigma
    )
    a = ls.intensity / np.trapezoid(ls.intensity, ls.energy_ev)
    b = oracle / np.trapezoid(oracle, ls.energy_ev)
    assert float(np.trapezoid(np.abs(a - b), ls.energy_ev)) < 1e-4


def test_oracle_takes_its_step_over_the_whole_printed_grid():
    # the first two printed energies, 0.999990151 and 1.00009015 eV, are
    # 0.099999 meV apart on a 0.1 meV grid: a padded grid stepped by that
    # one difference drifts, and the L1 below reads 4.0e-6 instead of 8.8e-7
    hr = _hr([60.0, 90.0], [0.6, 0.4])
    zpl, gamma, sigma = 2.0, 1.0, 2.0
    ls = emission(hr, zpl, gamma, sigma, (0.99999015141426, 2.06), 0.1, False)
    oracle = broadened_oracle_spectrum(enumerate_fc(hr, 20), gamma, ls.energy_ev, zpl, sigma)
    a = ls.intensity / np.trapezoid(ls.intensity, ls.energy_ev)
    b = oracle / np.trapezoid(oracle, ls.energy_ev)
    assert float(np.trapezoid(np.abs(a - b), ls.energy_ev)) <= 1e-6
