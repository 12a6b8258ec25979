import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumiphon import units, vibronic
from lumiphon.errors import (
    AliasedGrid,
    DimensionMismatch,
    GridTooNarrow,
    ImaginaryModePresent,
    InputError,
    NegativeFrequency,
    NumericalError,
)
from lumiphon.fcoracle import broadened_oracle_spectrum, enumerate_fc
from lumiphon.model import (
    CrystalStructure,
    ForceDelta,
    GeneratingFunction,
    GeometryPair,
    Hessian,
    HRDecomposition,
    Lineshape,
    LineshapeConfig,
    PhononBasis,
    TimeGrid,
)
from lumiphon.phonons import apply_asr, diagonalize, symmetrize
from lumiphon.vibronic import (
    LABEL_SK_FLOOR,
    PeakLabel,
    _chirp_z,
    _periodic_spline,
    effective_mode_report,
    emission,
    generating_function,
    lineshape,
    make_time_grid,
    partial_hr,
    qk_from_displacement,
    qk_from_forces,
    spectral_density,
)

from helpers import extract_peak_weights, lorentzian_ev, poisson_weight, random_cluster_structure


def _single_mode_hr(s, omega_mev, mass=12.0):
    q = math.sqrt(2.0 * units.HBAR_AMU_A2_FS * s / units.omega_radfs(omega_mev))
    return partial_hr(np.array([q]), np.array([omega_mev]))


def _single_mode_lineshape(s, omega_mev, zpl_ev, gamma_mev, sigma_mev, window_ev, step_mev=0.1):
    hr = _single_mode_hr(s, omega_mev)
    config = LineshapeConfig(
        zpl_ev=zpl_ev,
        gamma_mev=gamma_mev,
        sigma_mev=sigma_mev,
        window_ev=window_ev,
        step_mev=step_mev,
        omega_cubed=False,
    )
    return hr, emission(hr, config)


# --------------------------------------------------------------- q_k routes

def test_qk_zero_displacement(diatomic):
    structure, hessian = diatomic
    basis = diagonalize(hessian, structure)
    pair = GeometryPair(structure.positions, structure.positions)
    qk = qk_from_displacement(basis, pair, structure.masses)
    assert np.array_equal(qk, np.zeros(6))


def test_qk_recovers_single_mode(diatomic):
    # displacement along the plain-coordinate image of one mode projects
    # onto exactly that mode for a single-species system
    structure, hessian = diatomic
    basis = diagonalize(hessian, structure)
    c = 0.013
    j = 5
    disp = c * basis.vectors[j].reshape(-1, 3)
    pair = GeometryPair(structure.positions, structure.positions + disp)
    qk = qk_from_displacement(basis, pair, structure.masses)
    expected = np.zeros(6)
    expected[j] = math.sqrt(12.011) * c
    np.testing.assert_allclose(qk, expected, rtol=1e-10, atol=1e-14)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qk_parseval_identity(seed):
    # completeness: sum q_k^2 equals the mass-weighted displacement norm
    rng = np.random.default_rng(seed)
    structure, hessian = random_cluster_structure(5, seed=2)
    basis = diagonalize(symmetrize(hessian), structure)
    delta = rng.normal(scale=0.02, size=(5, 3))
    pair = GeometryPair(structure.positions, structure.positions + delta)
    qk = qk_from_displacement(basis, pair, structure.masses)
    lhs = float(np.sum(qk * qk))
    rhs = float(np.sum(structure.mass_vector_3n() * delta.reshape(-1) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_force_route_matches_displacement_route():
    structure, hessian = random_cluster_structure(6, seed=21)
    hessian = symmetrize(hessian)
    hessian, _ = apply_asr(hessian, structure.masses)
    basis = diagonalize(hessian, structure)
    rng = np.random.default_rng(4)
    delta = rng.normal(scale=0.01, size=(6, 3))
    pair = GeometryPair(structure.positions, structure.positions + delta)
    force = ForceDelta(hessian.matrix @ delta.reshape(-1))
    qd = qk_from_displacement(basis, pair, structure.masses)
    qf = qk_from_forces(basis, force, structure.masses)
    live = basis.omegas_mev > 0.01
    np.testing.assert_allclose(qf[live], qd[live], rtol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_pair_and_force_routes_report_one_total(seed):
    # the rigid rotations of a free cluster sit below ZERO_MODE_MEV: the
    # force route cannot see them, so neither route may give them S_k
    structure, hessian = random_cluster_structure(6, seed=seed)
    hessian = symmetrize(hessian)
    hessian, _ = apply_asr(hessian, structure.masses)
    basis = diagonalize(hessian, structure)
    rng = np.random.default_rng(seed)
    delta = rng.normal(scale=0.02, size=(6, 3))
    pair = GeometryPair(structure.positions, structure.positions + delta)
    force = ForceDelta(hessian.matrix @ delta.reshape(-1))
    by_pair = partial_hr(qk_from_displacement(basis, pair, structure.masses), basis.omegas_mev)
    by_force = partial_hr(qk_from_forces(basis, force, structure.masses), basis.omegas_mev)
    assert by_pair.total == pytest.approx(by_force.total, rel=1e-12)


def test_force_route_zero_forces(diatomic):
    structure, hessian = diatomic
    basis = diagonalize(hessian, structure)
    qk = qk_from_forces(basis, ForceDelta(np.zeros(6)), structure.masses)
    assert np.array_equal(qk, np.zeros(6))


def test_force_route_1d_oscillator():
    # hand algebra: k = m omega^2, dF = k dx -> q = sqrt(m) dx
    mass, omega_mev, dx = 12.0, 100.0, 0.04
    lam = units.eigenvalue_from_hbar_omega(omega_mev)  # eV/(amu A^2)
    k = mass * lam
    structure = CrystalStructure(np.eye(3) * 8, ("C",), [mass], [[0, 0, 0]])
    basis = diagonalize(Hessian(np.eye(3) * k), structure)
    force = ForceDelta(np.array([k * dx, 0.0, 0.0]))
    qk = qk_from_forces(basis, force, structure.masses)
    # the x-polarized mode is degenerate with y,z; compare the projection norm
    assert np.linalg.norm(qk) == pytest.approx(math.sqrt(mass) * dx, rel=1e-10)


def test_force_on_rigid_translations_warns(diatomic):
    import warnings as _warnings

    from lumiphon.errors import ZeroFrequencyModeWarning

    structure, hessian = diatomic
    clean, _ = apply_asr(hessian, structure.masses)
    basis = diagonalize(clean, structure)
    # a net force pushes on the translation modes, which cannot carry a
    # finite displacement; they are dropped with a warning
    net = np.tile([0.3, 0.0, 0.0], 2)
    with pytest.warns(ZeroFrequencyModeWarning):
        qk = qk_from_forces(basis, ForceDelta(net), structure.masses)
    dead = basis.omegas_mev <= 0.01
    assert np.all(qk[dead] == 0.0)
    # a force with no rigid component stays silent
    delta = np.random.default_rng(0).normal(scale=0.01, size=6)
    clean_force = clean.matrix @ delta
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ZeroFrequencyModeWarning)
        qk_from_forces(basis, ForceDelta(clean_force), structure.masses)


def test_imaginary_modes_rejected(diatomic):
    structure, hessian = diatomic
    unstable = diagonalize(Hessian(-hessian.matrix), structure)
    pair = GeometryPair(structure.positions, structure.positions)
    with pytest.raises(ImaginaryModePresent):
        qk_from_displacement(unstable, pair, structure.masses)
    with pytest.raises(ImaginaryModePresent):
        qk_from_forces(unstable, ForceDelta(np.zeros(6)), structure.masses)


# --------------------------------------------------------------- partial HR

def test_partial_hr_zero_q():
    hr = partial_hr(np.zeros(3), np.array([10.0, 20.0, 30.0]))
    assert hr.total == 0.0


def test_partial_hr_unit_s():
    # dx = sqrt(2 hbar / omega) / sqrt(m) makes S exactly 1
    mass, omega_mev = 12.0, 100.0
    w = units.omega_radfs(omega_mev)
    dx = math.sqrt(2.0 * units.HBAR_AMU_A2_FS / w) / math.sqrt(mass)
    hr = partial_hr(np.array([math.sqrt(mass) * dx]), np.array([omega_mev]))
    assert hr.total == pytest.approx(1.0, rel=1e-12)


def test_partial_hr_quadratic_scaling():
    w = np.array([100.0])
    s1 = partial_hr(np.array([0.2]), w).total
    s2 = partial_hr(np.array([0.4]), w).total
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


def test_partial_hr_negative_frequency():
    with pytest.raises(NegativeFrequency):
        partial_hr(np.array([0.1]), np.array([-5.0]))


# ---------------------------------------------------------- spectral density

def test_spectral_density_integral_single_mode():
    sd = spectral_density(_single_mode_hr(2.0, 150.0), sigma_mev=2.0)
    assert float(np.trapezoid(sd.values, sd.grid_mev)) == pytest.approx(2.0, abs=2e-6)


def test_spectral_density_linearity():
    hr = partial_hr(np.array([0.02, 0.03]), np.array([80.0, 160.0]))
    sd = spectral_density(hr, sigma_mev=2.0)
    assert float(np.trapezoid(sd.values, sd.grid_mev)) == pytest.approx(
        hr.total, rel=1e-6
    )


def test_spectral_density_peak_value():
    # resolved-sigma limit: the peak reaches S / (sigma sqrt(2 pi))
    sigma = 2.0
    sd = spectral_density(_single_mode_hr(2.0, 150.0), sigma)
    peak = float(sd.values.max())
    assert peak == pytest.approx(2.0 / (sigma * math.sqrt(2 * math.pi)), rel=1e-9)


def test_spectral_density_grid_too_narrow():
    hr = _single_mode_hr(1.0, 150.0)
    with pytest.raises(GridTooNarrow):
        spectral_density(hr, 2.0, grid_mev=np.arange(140.0, 160.0, 0.4))


def _mode_by_mode_density(hr, sigma_mev, grid):
    """The former sum: one Gaussian per coupled mode, added in mode order."""
    vals = np.zeros_like(grid)
    live = hr.sk > 0.0
    for w0, s in zip(hr.omegas_mev[live], hr.sk[live]):
        gauss = np.exp(-0.5 * ((grid - w0) / sigma_mev) ** 2)
        vals += s * (gauss / (sigma_mev * math.sqrt(2.0 * math.pi)))
    return vals


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 600),
    st.floats(0.05, 5.0),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.tuples(st.sampled_from([5, 7, 10]), st.floats(0.0, 30.0))),
)
def test_spectral_density_is_the_mode_by_mode_sum(nmodes, sigma, seed, own_grid):
    # at sigma = 0.05 meV a block holds about 20 modes, so many blocks chain
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(10.0, 120.0, size=nmodes)
    sks = rng.exponential(size=nmodes) * (rng.random(nmodes) > 0.2)
    hr = partial_hr(np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas)
    grid = None
    if own_grid is not None:
        per_sigma, pad = own_grid
        grid = np.arange(10.0 - 7.0 * sigma - pad, 120.0 + 7.0 * sigma + pad, sigma / per_sigma)
    sd = spectral_density(hr, sigma, grid)
    assert np.array_equal(sd.values, _mode_by_mode_density(hr, sigma, sd.grid_mev))


# ------------------------------------------------------- generating function

def _unchecked_grid(n, dt):
    """t_j = (j - n // 2) dt, built directly: make_time_grid's checks skipped."""
    return TimeGrid(n, dt, gamma_mev=1.0, reach_mev=0.0)


def test_generating_function_no_coupling():
    hr = partial_hr(np.zeros(2), np.array([50.0, 150.0]))
    sd = spectral_density(hr, 2.0)
    gf = generating_function(sd, _unchecked_grid(64, 1.0))
    assert np.array_equal(gf.values, np.ones(64, dtype=complex))


def test_generating_function_single_mode_closed_form():
    s, omega = 1.3, 150.0
    sigma = 0.005  # essentially a stick on the 150 fs window below
    hr = _single_mode_hr(s, omega)
    sd = spectral_density(hr, sigma)
    t = (np.arange(301) - 150) * 1.0
    gf = generating_function(sd, _unchecked_grid(301, 1.0))
    exact = np.exp(s * (np.exp(-1j * units.omega_radfs(omega) * t) - 1.0))
    assert np.max(np.abs(gf.values - exact)) < 1e-6


def test_generating_function_time_reversal():
    hr = partial_hr(np.array([0.05, 0.02]), np.array([60.0, 140.0]))
    sd = spectral_density(hr, 2.0)
    gf = generating_function(sd, _unchecked_grid(257, 0.5))
    np.testing.assert_allclose(
        gf.values[::-1], np.conj(gf.values), rtol=0, atol=1e-14
    )


def test_make_time_grid_refuses_aliasing_step():
    # 20 fs resolves 103 meV, below the 150 meV mode itself
    sd = spectral_density(_single_mode_hr(1.0, 150.0), 2.0)
    with pytest.raises(AliasedGrid, match="--time-step"):
        make_time_grid(sd, 1.0, time_step_fs=20.0)
    with pytest.raises(InputError, match="time step must be positive"):
        make_time_grid(sd, 1.0, time_step_fs=0.0)


@pytest.mark.parametrize(
    "n, m, theta, block",
    [
        (50, 300, 0.0137, 1 << 16),
        (300, 50, 0.0137, 1 << 16),
        (1, 7, 0.0137, 1 << 16),
        (50, 300, 0.0137, 64),  # two overlap-save blocks
        (120, 900, 0.005, 64),  # three blocks of 512, sized by 4 n
    ],
)
def test_chirp_z_matches_direct_sum(n, m, theta, block, monkeypatch):
    monkeypatch.setattr(vibronic, "_CZT_BLOCK", block)
    rng = np.random.default_rng(n + m)
    x = rng.normal(size=n)
    w = complex(math.cos(theta), -math.sin(theta))
    k = np.arange(m)
    direct = sum(x[j] * np.exp(-1j * theta * j * k) for j in range(n))
    got = _chirp_z(x, m, w)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_chirp_z_blocks_match_one_long_convolution():
    # at m ~ 1e5 the chirp w^(k^2/2) itself rounds by ~1e-9 against a
    # direct sum; the blocked convolution must add nothing to that, so it
    # is held against the single-FFT chirp-z with the same chirp
    from scipy.signal import czt

    x = np.random.default_rng(3).random(1000)
    theta = 2.3e-5
    w = complex(math.cos(theta), -math.sin(theta))
    ref = czt(x, m=150_001, w=w, a=1.0 + 0.0j)
    got = _chirp_z(x, 150_001, w)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _periodic_samples(n):
    rng = np.random.default_rng(n)
    phase = 2.0 * math.pi * np.arange(n) / n
    return np.sin(3.0 * phase) + 0.5 * np.cos(17.0 * phase) + 0.1 * rng.normal(size=n)


def test_periodic_spline_matches_cubic_spline_interior():
    from scipy.interpolate import CubicSpline

    n, step = 400, 0.37
    y = _periodic_samples(n)
    # 100 samples from either end the not-a-knot ends weigh in below 1e-50
    x = np.random.default_rng(1).uniform(100 * step, 300 * step, 500)
    x[:2] = 100 * step, 300 * step  # exactly on nodes too
    ref = CubicSpline(step * np.arange(n), y)(x)
    got = _periodic_spline(y, step, x)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(y))


def test_periodic_spline_wrapping_window_matches_periodic_cubic_spline():
    from scipy.interpolate import CubicSpline

    n, step = 400, 0.37
    y = _periodic_samples(n)
    period = n * step
    ref_spline = CubicSpline(step * np.arange(n + 1), np.append(y, y[0]), bc_type="periodic")
    x = np.linspace(-30.5 * step, 40.25 * step, 700)  # straddles the wrap at 0
    got = _periodic_spline(y, step, x)
    ref = ref_spline(np.mod(x, period))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(y))


# ---------------------------------------------------------------- lineshape

def test_lineshape_no_coupling_is_lorentzian():
    hr = partial_hr(np.zeros(1), np.array([100.0]))
    sd = spectral_density(hr, 2.0)
    zpl, gamma = 2.0, 1.0
    gf = generating_function(sd, make_time_grid(sd, gamma, reach_mev=600.0))
    config = LineshapeConfig(
        zpl_ev=zpl,
        gamma_mev=gamma,
        window_ev=(zpl - 0.5, zpl + 0.1),
        step_mev=0.1,
        omega_cubed=False,
    )
    ls = lineshape(gf, config)
    ref = lorentzian_ev(ls.energy_ev, zpl, gamma)
    ref /= np.trapezoid(ref, ls.energy_ev)
    l1 = float(np.trapezoid(np.abs(ls.intensity - ref), ls.energy_ev))
    assert l1 < 1e-5
    # full width at half maximum is 2 gamma
    half = ls.intensity.max() / 2.0
    above = ls.energy_ev[ls.intensity >= half]
    assert (above[-1] - above[0]) * 1000.0 == pytest.approx(2.0 * gamma, abs=0.25)


def test_lineshape_poisson_ladder_small():
    s, omega, zpl, gamma, sigma = 1.1, 150.0, 2.0, 1.0, 0.1
    hr, ls = _single_mode_lineshape(
        s, omega, zpl, gamma, sigma, window_ev=(zpl - 2.0, zpl + 0.08)
    )
    weights = extract_peak_weights(
        ls.energy_ev, ls.intensity, zpl, omega, gamma, sigma, nmax=10
    )
    for n in range(5):
        assert weights[n] == pytest.approx(poisson_weight(s, n), abs=1e-4)


def test_lineshape_zpl_weight_reference():
    # ZPL carries e^{-S}; for S = 2 that is 0.13534
    s, omega, zpl, gamma, sigma = 2.0, 150.0, 2.0, 1.0, 0.1
    hr, ls = _single_mode_lineshape(
        s, omega, zpl, gamma, sigma, window_ev=(zpl - 2.4, zpl + 0.08)
    )
    weights = extract_peak_weights(
        ls.energy_ev, ls.intensity, zpl, omega, gamma, sigma, nmax=12
    )
    assert weights[0] == pytest.approx(0.13534, abs=1e-4)


def test_lineshape_support_is_red_shifted():
    s, omega, zpl, gamma, sigma = 1.0, 150.0, 2.0, 1.0, 2.0
    hr, ls = _single_mode_lineshape(
        s, omega, zpl, gamma, sigma, window_ev=(zpl - 1.5, zpl + 0.1)
    )
    # only Lorentzian tails reach past the ZPL: one-sided mass beyond a
    # distance d is at most (1/pi) * gamma/d of the total
    d_mev = 20.0
    above = ls.energy_ev > zpl + d_mev / 1000.0
    tail = float(np.trapezoid(ls.intensity[above], ls.energy_ev[above]))
    assert tail < 2.0 * (gamma / d_mev) / math.pi
    assert tail < 0.02


def test_lineshape_window_excluding_support():
    hr = partial_hr(np.zeros(1), np.array([100.0]))
    sd = spectral_density(hr, 2.0)
    gf = generating_function(sd, make_time_grid(sd, 1.0, reach_mev=3000.0))
    config = LineshapeConfig(
        zpl_ev=2.0, gamma_mev=1.0, window_ev=(0.2, 0.5), step_mev=0.5
    )
    with pytest.raises(GridTooNarrow):
        lineshape(gf, config)


def test_lineshape_time_span_floor():
    sd = spectral_density(_single_mode_hr(0.5, 100.0), 2.0)
    # under 1 ps: far below 10 hbar/gamma
    gf = generating_function(sd, make_time_grid(sd, 1.0, 100.0, time_span_fs=600.0))
    with pytest.raises(AliasedGrid, match="--time-span"):
        lineshape(gf, LineshapeConfig(zpl_ev=2.0, gamma_mev=1.0, window_ev=(1.9, 2.01)))
    # the default window is emission's to resolve
    with pytest.raises(InputError, match="window"):
        lineshape(gf, LineshapeConfig(zpl_ev=2.0, gamma_mev=1.0))


def test_make_time_grid_refuses_span_reaching_quadrature_recurrence():
    # sigma = 2 meV: S(t) on the sigma/5 spectral grid recurs at 10.3 ps,
    # where damping by gamma = 0.1 meV has only reached e^-1.6; a span of
    # 25 hbar/gamma (165 ps) reaches it, the default sigma-bounded one not
    hr = _single_mode_hr(0.5, 20.0)
    sd = spectral_density(hr, 2.0)
    with pytest.raises(AliasedGrid, match="recurrence.*gamma = 0.1 meV"):
        make_time_grid(sd, 0.1, 100.0, time_span_fs=25.0 * units.HBAR_MEV_FS / 0.1)
    grid = make_time_grid(sd, 0.1, 100.0)
    config = LineshapeConfig(zpl_ev=2.0, gamma_mev=0.1, window_ev=(1.9, 2.01))
    lineshape(generating_function(sd, grid), config)


def test_lineshape_refuses_grid_built_for_another_gamma_or_reach():
    sd = spectral_density(_single_mode_hr(0.5, 100.0), 2.0)
    gf = generating_function(sd, make_time_grid(sd, 1.0, reach_mev=150.0))
    config = LineshapeConfig(zpl_ev=2.0, gamma_mev=1.0, window_ev=(1.85, 2.01))
    lineshape(gf, config)
    with pytest.raises(AliasedGrid, match="gamma"):
        lineshape(gf, dataclasses.replace(config, gamma_mev=0.5, step_mev=0.05))
    with pytest.raises(AliasedGrid, match="reach"):
        lineshape(gf, dataclasses.replace(config, window_ev=(1.8, 2.01)))


# generated HR documents: modes, total S, gamma and sigma (meV), seed
_GENERATED_DOCUMENTS = given(
    st.integers(1, 64),
    st.floats(1e-3, 20.0),
    st.floats(0.01, 1.0),
    st.floats(0.5, 4.0),
    st.integers(0, 2**32 - 1),
)


def _generated_hr(nmodes, s_total, seed):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(10.0, 120.0, size=nmodes)
    weights = rng.exponential(size=nmodes)
    sks = s_total * weights / weights.sum()
    return partial_hr(np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas)


@settings(max_examples=20, deadline=None)
@_GENERATED_DOCUMENTS
# S = 1: a time step covering 10 quanta folds the 12-phonon replica back
# across the Nyquist energy and moves the first moment by -2.1e-8
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_split_sideband_contracts_on_generated_documents(nmodes, s_total, gamma, sigma, seed):
    hr = _generated_hr(nmodes, s_total, seed)
    sd = spectral_density(hr, sigma)
    tgrid = make_time_grid(sd, gamma)
    gf = generating_function(sd, tgrid)
    assert gf.values[len(tgrid) // 2] == 1.0
    # by the end of the grid the sideband has died: G is down to the ZPL weight
    zpl = math.exp(-hr.total)
    assert abs(gf.values[0] - zpl) <= 1e-8 * hr.total
    resolution = max(sigma, gamma) / 16.0
    step, sideband, zpl_weight = vibronic._fft_spectral_function(gf, gamma, resolution)
    assert step <= resolution
    assert zpl_weight == pytest.approx(zpl, rel=1e-12)
    assert step * math.fsum(sideband.tolist()) == pytest.approx(1.0 - zpl, abs=1e-9)
    # undamped, the sideband has a first moment: sum S_k hbar w_k
    step, sideband, _ = vibronic._fft_spectral_function(gf, 1e-12, resolution)
    released = np.fft.fftfreq(sideband.size, 1.0 / sideband.size) * step
    released[sideband.size // 2] = 0.0  # the unpaired Nyquist bin
    first = step * math.fsum((released * sideband).tolist())
    assert first == pytest.approx(float(np.dot(hr.sk, hr.omegas_mev)), rel=1e-8)


@settings(max_examples=25, deadline=None)
@_GENERATED_DOCUMENTS
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_time_grid_contracts_on_generated_documents(nmodes, s_total, gamma, sigma, seed):
    hr = _generated_hr(nmodes, s_total, seed)
    sd = spectral_density(hr, sigma)
    config = LineshapeConfig(zpl_ev=3.0, gamma_mev=gamma, sigma_mev=sigma, step_mev=gamma)
    reach = vibronic._reach_mev(config.zpl_ev, vibronic.spectrum_window(hr, config))
    grid = make_time_grid(sd, gamma, reach)
    n, dt = len(grid), grid.dt
    assert (grid.gamma_mev, grid.reach_mev) == (gamma, max(reach, 10.0 * gamma))
    # the Nyquist energy covers the multi-phonon support and the reach
    need = vibronic._nyquist_need_mev(sd.omega_max_mev, sd.total, reach)
    assert math.pi * units.HBAR_MEV_FS / dt >= need * (1.0 - 1e-12)
    # the smallest power of two (at least 16, at most the limit) covering
    # the sigma-bounded span; even, so every t > 0 has its -t
    span = min(25.0 / gamma, vibronic._SIDEBAND_SPAN / sigma) * units.HBAR_MEV_FS
    assert n & (n - 1) == 0 and 16 <= n <= vibronic.MAX_TIME_POINTS
    assert n >= 2.0 * span / dt * (1.0 - 1e-9)
    assert n == 16 or n < 4.0 * span / dt * (1.0 + 1e-9)
    # dt is the whole-grid step of the points the requested step builds
    step = dt * (0.3 + 0.7 * (seed % 1000) / 1000.0)
    fine = make_time_grid(sd, gamma, reach, time_step_fs=step)
    t = (np.arange(len(fine)) - len(fine) // 2) * step
    assert fine.dt == float(t[-1] - t[0]) / (t.size - 1)
    # a span past the recurrence of S(t) on the spectral grid is refused
    # exactly when gamma leaves more than e^-10 there
    onset = units.HBAR_MEV_FS * (2.0 * math.pi / sd.step_mev - vibronic._SIDEBAND_SPAN / sigma)
    if gamma * onset / units.HBAR_MEV_FS < 10.0:
        with pytest.raises(AliasedGrid, match="recurrence"):
            make_time_grid(sd, gamma, reach, time_span_fs=1.01 * onset)
    else:
        past = make_time_grid(sd, gamma, reach, time_span_fs=1.01 * onset)
        assert (len(past) // 2) * past.dt > onset


def test_make_time_grid_builds_no_array():
    # 2^24 points, the limit: a grid of scalars, not 128 MB of times
    sd = spectral_density(_single_mode_hr(1.0, 100.0), 2.0)
    span = make_time_grid(sd, 1.0).dt * (1 << 23) * 0.999
    tracemalloc.start()
    try:
        grid = make_time_grid(sd, 1.0, time_span_fs=span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == vibronic.MAX_TIME_POINTS
    assert peak < 1 << 16


def _complex_padded_sideband(gf, gamma_mev, resolution_mev):
    """The former transform: the whole damped bracket, zero-padded, through
    a complex inverse FFT.  Returns the energy step and the complex result."""
    n, dt = len(gf.grid), gf.grid.dt
    i0 = n // 2
    zpl_weight = math.exp(-gf.s_total)
    damping = np.exp(-gamma_mev * dt / units.HBAR_MEV_FS * np.abs(np.arange(n) - i0))
    bracket = (gf.values - zpl_weight) * damping
    period_fs = 2.0 * math.pi * units.HBAR_MEV_FS / resolution_mev
    size = max(n, 1 << max(0, math.ceil(math.log2(period_fs / dt))))
    padded = np.zeros(size, dtype=complex)
    padded[: n - i0] = bracket[i0:]
    padded[size - i0 :] = bracket[:i0]
    a = np.fft.ifft(padded) * (size * dt / (2.0 * math.pi * units.HBAR_MEV_FS))
    return 2.0 * math.pi * units.HBAR_MEV_FS / (size * dt), a


@settings(max_examples=20, deadline=None)
@_GENERATED_DOCUMENTS
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_real_half_transform_matches_complex_padded_transform(
    nmodes, s_total, gamma, sigma, seed
):
    hr = _generated_hr(nmodes, s_total, seed)
    sd = spectral_density(hr, sigma)
    gf = generating_function(sd, make_time_grid(sd, gamma))
    resolution = max(sigma, gamma) / 16.0
    step, sideband, _ = vibronic._fft_spectral_function(gf, gamma, resolution)
    ref_step, ref = _complex_padded_sideband(gf, gamma, resolution)
    assert step == ref_step
    # the real transform drops the unpaired sample at t = -(n/2) dt, which
    # shifts each bin by at most its damped bracket times dt / (2 pi hbar)
    n, dt = len(gf.grid), gf.grid.dt
    unpaired = (
        abs(gf.values[0] - math.exp(-hr.total))
        * math.exp(-gamma * dt / units.HBAR_MEV_FS * (n // 2))
        * dt
        / (2.0 * math.pi * units.HBAR_MEV_FS)
    )
    peak = float(np.max(np.abs(ref.real)))
    assert float(np.max(np.abs(sideband - ref.real))) <= unpaired + 1e-12 * peak


def _stage_chain(hr, config):
    """The spectrum pipeline as the command line once assembled it, stage by
    stage: the default window from the largest coupled mode, S(hw), the
    sigma-bounded time grid, G(t) and the lineshape."""
    zpl_mev = config.zpl_ev * 1000.0
    live = hr.sk > 0.0
    omega_max = float(hr.omegas_mev[live].max()) if np.any(live) else 0.0
    lo_mev, hi_mev = vibronic.default_window_mev(
        zpl_mev, omega_max, hr.total, config.gamma_mev, config.sigma_mev
    )
    window = (lo_mev / 1000.0, hi_mev / 1000.0)
    sd = spectral_density(hr, config.sigma_mev)
    reach = max(zpl_mev - window[0] * 1000.0, abs(window[1] * 1000.0 - zpl_mev))
    gf = generating_function(sd, make_time_grid(sd, config.gamma_mev, reach))
    return window, lineshape(gf, dataclasses.replace(config, window_ev=window))


@settings(max_examples=20, deadline=None)
@_GENERATED_DOCUMENTS
def test_emission_is_the_stage_chain_on_generated_documents(nmodes, s_total, gamma, sigma, seed):
    hr = _generated_hr(nmodes, s_total, seed)
    config = LineshapeConfig(zpl_ev=3.0, gamma_mev=gamma, sigma_mev=sigma, step_mev=gamma)
    window, ref = _stage_chain(hr, config)
    assert vibronic.spectrum_window(hr, config) == window
    ls = emission(hr, config)
    assert np.array_equal(ls.energy_ev, ref.energy_ev)
    assert np.array_equal(ls.intensity, ref.intensity)
    assert (ls.zpl_ev, ls.gamma_mev, ls.omega_cubed) == (ref.zpl_ev, ref.gamma_mev, ref.omega_cubed)
    # Lineshape accepted it: unit integral within 1e-6
    assert abs(float(np.trapezoid(ls.intensity, ls.energy_ev)) - 1.0) <= 1e-6


def test_lineshape_transform_memory_below_two_padded_complex_arrays():
    # S = 10 at 200 meV, gamma = 1 meV: a 2^16-point time grid padded to
    # 2^19 points for the 0.125 meV energy step
    hr = _single_mode_hr(10.0, 200.0)
    sd = spectral_density(hr, 2.0)
    # the ladder reaches below 1 meV, where the default window stops
    config = LineshapeConfig(zpl_ev=2.0, gamma_mev=1.0, sigma_mev=2.0, window_ev=(0.001, 2.062))
    gf = generating_function(sd, make_time_grid(sd, 1.0, vibronic._reach_mev(2.0, config.window_ev)))
    step, _, _ = vibronic._fft_spectral_function(gf, 1.0, 2.0 / 16.0)
    size = round(2.0 * math.pi * units.HBAR_MEV_FS / (step * gf.grid.dt))
    assert size == 1 << 19
    tracemalloc.start()
    try:
        lineshape(gf, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * size


def test_non_hermitian_generating_function_refused():
    grid = _unchecked_grid(16, 1.0)
    g = np.ones(16, dtype=complex)
    g[0] = 0.3 + 0.2j  # t = -8 has no partner on the grid
    g[10] = g[6] = 0.5 + 0.1j
    with pytest.raises(NumericalError, match="Hermitian"):
        GeneratingFunction(grid, g, 1.0)
    g[6] = 0.5 - 0.1j
    GeneratingFunction(grid, g, 1.0)
    # t = 0 is sample n // 2 of every TimeGrid: G shifted off it is refused
    with pytest.raises(InputError, match="G\\(0\\)"):
        GeneratingFunction(grid, np.roll(g, 2), 1.0)
    with pytest.raises(DimensionMismatch):
        GeneratingFunction(grid, g[1:], 1.0)


def test_degenerate_mode_mixing_invariance():
    # rotating a degenerate pair must leave total S and the spectrum alone
    structure = CrystalStructure(np.eye(3) * 8, ("C",), [12.0], [[0, 0, 0]])
    basis = diagonalize(Hessian(np.eye(3) * 5.0), structure)
    delta = np.array([[0.02, -0.013, 0.007]])
    pair = GeometryPair(structure.positions, structure.positions + delta)

    theta = 0.37
    rot = np.eye(3)
    rot[:2, :2] = [
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ]
    mixed = PhononBasis(basis.omegas_mev, rot @ basis.vectors, basis.cutoff_bulk_mev)

    out = []
    for b in (basis, mixed):
        qk = qk_from_displacement(b, pair, structure.masses)
        hr = partial_hr(qk, b.omegas_mev)
        sd = spectral_density(hr, 2.0)
        gf = generating_function(sd, make_time_grid(sd, 1.0, reach_mev=800.0))
        ls = lineshape(
            gf,
            LineshapeConfig(
                zpl_ev=2.0, gamma_mev=1.0, window_ev=(1.4, 2.05), step_mev=0.2
            ),
        )
        out.append((hr.total, ls.intensity))
    assert out[0][0] == pytest.approx(out[1][0], rel=1e-12)
    assert np.max(np.abs(out[0][1] - out[1][1])) < 1e-8 * np.max(out[0][1])


# ----------------------------------------------------------- peak labelling

def test_effective_mode_report_single_mode():
    s, omega, zpl, gamma, sigma = 0.6, 150.0, 2.0, 1.0, 2.0
    hr, ls = _single_mode_lineshape(
        s, omega, zpl, gamma, sigma, window_ev=(zpl - 1.2, zpl + 0.08)
    )
    labels = effective_mode_report(hr, ls)
    assert labels and labels[0].mode_index == 0
    assert labels[0].offset_mev == pytest.approx(omega, abs=1.0)


def test_effective_mode_report_ordering_and_floor():
    omegas = np.array([52.0, 78.0, 115.0, 139.0, 176.0])
    sks = np.array([0.5, 0.35, 6e-5, 0.22, 0.12])
    w_radfs = units.omega_radfs(omegas)
    qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / w_radfs)
    hr = partial_hr(qk, omegas)
    zpl, gamma, sigma = 2.2, 1.0, 0.5
    sd = spectral_density(hr, sigma)
    gf = generating_function(sd, make_time_grid(sd, gamma, reach_mev=1600.0))
    ls = lineshape(
        gf,
        LineshapeConfig(
            zpl_ev=zpl,
            gamma_mev=gamma,
            sigma_mev=sigma,
            window_ev=(zpl - 1.4, zpl + 0.05),
            step_mev=0.05,
            omega_cubed=False,
        ),
    )
    labels = effective_mode_report(hr, ls)
    assert [p.mode_index for p in labels] == [0, 1, 3, 4]  # S_k floor drops mode 2
    assert labels[0].sk >= labels[-1].sk
    for p in labels:
        assert p.offset_mev == pytest.approx(hr.omegas_mev[p.mode_index], abs=1.5)

    # oracle cross-check: every labelled offset is a maximum of the
    # independently broadened ladder as well
    ladder = enumerate_fc(hr, cap=12)
    grid = ls.energy_ev
    oracle = broadened_oracle_spectrum(ladder, gamma, grid, zpl, sigma)
    y = oracle.intensity
    peak_idx = np.nonzero((y[1:-1] >= y[2:]) & (y[1:-1] > y[:-2]))[0] + 1
    peak_offsets = (zpl - grid[peak_idx]) * 1000.0
    for p in labels:
        assert np.min(np.abs(peak_offsets - p.offset_mev)) < 1.0

    lvm_only = effective_mode_report(hr, ls, lvm_indices=[2, 3, 4])
    assert [p.mode_index for p in lvm_only] == [3, 4]


def _reference_mode_report(hr, ls, lvm_indices=None, match_tol_mev=None):
    """The labelling loop as first written: one Python pass per peak and mode."""
    candidates = (
        np.arange(hr.nmodes) if lvm_indices is None else np.asarray(lvm_indices, int)
    )
    candidates = candidates[hr.sk[candidates] >= LABEL_SK_FLOOR]
    if match_tol_mev is None:
        match_tol_mev = max(3.0 * ls.gamma_mev, 5.0)
    e = ls.energy_ev
    y = ls.intensity
    below = e < ls.zpl_ev - 2.0 * ls.gamma_mev / 1000.0
    interior = np.zeros(e.size, dtype=bool)
    interior[1:-1] = (y[1:-1] >= y[2:]) & (y[1:-1] > y[:-2])
    peaks = np.nonzero(interior & below)[0]
    peaks = peaks[np.argsort(y[peaks], kind="stable")[::-1]]

    labels = []
    used = set()
    for p in peaks:
        offset = (ls.zpl_ev - e[p]) * 1000.0
        near = [
            int(k)
            for k in candidates
            if abs(hr.omegas_mev[k] - offset) <= match_tol_mev and int(k) not in used
        ]
        if not near:
            continue
        best = max(near, key=lambda k: (hr.sk[k], -k))
        used.add(best)
        labels.append(PeakLabel(offset, float(hr.sk[best]), best, float(e[p])))
    labels.sort(key=lambda pl: -pl.sk)
    return labels


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=14),
    st.lists(st.sampled_from([0.0, 5e-5, 0.01, 0.1, 0.1, 0.3, 0.3]), min_size=14, max_size=14),
    st.lists(st.integers(0, 6), min_size=4, max_size=60),
    st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    st.sampled_from([None, 0.5, 1.0, 2.5]),
    st.one_of(st.none(), st.lists(st.integers(0, 13), max_size=8)),
)
def test_effective_mode_report_matches_reference_loop(
    mode_mev, sk_pool, heights, gamma, tol, lvm
):
    # integer mode energies and intensities on a 1 meV grid give exact ties
    # in S_k, in peak height and in the distance of modes from a peak
    omegas = np.sort(np.array(mode_mev, dtype=float))
    sks = np.array(sk_pool[: omegas.size])
    hr = HRDecomposition(omegas, np.zeros_like(omegas), sks, math.fsum(sks.tolist()))
    energy = 2.0 - 0.001 * np.arange(len(heights), 0, -1)
    raw = np.array(heights, dtype=float) + 0.5
    ls = Lineshape(energy, raw / np.trapezoid(raw, energy), 2.0, gamma)
    lvm = None if lvm is None else [k for k in lvm if k < hr.nmodes]
    assert effective_mode_report(hr, ls, lvm, tol) == _reference_mode_report(
        hr, ls, lvm, tol
    )
