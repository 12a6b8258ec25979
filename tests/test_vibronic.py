import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumiphon import units, vibronic
from lumiphon.errors import InputError, NumericalError
from lumiphon.fcoracle import broadened_oracle_spectrum, enumerate_fc
from lumiphon.model import (
    CrystalStructure,
    HRDecomposition,
    Lineshape,
    PhononBasis,
    TimeGrid,
    tsv_printed,
)
from lumiphon.phonons import apply_asr, diagonalize, dynamical_matrix
from lumiphon.vibronic import (
    LABEL_SK_FLOOR,
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

from helpers import (
    examples,
    extract_peak_weights,
    hessian_of,
    lorentzian_ev,
    poisson_weight,
    random_cluster_structure,
    spring_hessian,
)


def _single_mode_hr(s, omega_mev, mass=12.0):
    q = math.sqrt(2.0 * units.HBAR_AMU_A2_FS * s / units.omega_radfs(omega_mev))
    return partial_hr(np.array([q]), np.array([omega_mev]))


def _single_mode_lineshape(s, omega_mev, zpl_ev, gamma_mev, sigma_mev, window_ev, step_mev=0.1):
    hr = _single_mode_hr(s, omega_mev)
    return hr, emission(hr, zpl_ev, gamma_mev, sigma_mev, window_ev, step_mev, False)


# --------------------------------------------------------------- q_k routes

def test_qk_zero_displacement(diatomic):
    structure, hessian = diatomic
    basis = diagonalize(dynamical_matrix(hessian, structure))
    qk = qk_from_displacement(basis, np.zeros((2, 3)), structure)
    assert np.array_equal(qk, np.zeros(6))


def test_qk_recovers_single_mode(diatomic):
    # displacement along the plain-coordinate image of one mode projects
    # onto exactly that mode for a single-species system
    structure, hessian = diatomic
    basis = diagonalize(dynamical_matrix(hessian, structure))
    c = 0.013
    j = 5
    disp = c * basis.vectors[j].reshape(-1, 3)
    qk = qk_from_displacement(basis, disp, structure)
    expected = np.zeros(6)
    expected[j] = math.sqrt(12.011) * c
    np.testing.assert_allclose(qk, expected, rtol=1e-10, atol=1e-14)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qk_parseval_identity(seed):
    # completeness: sum q_k^2 equals the mass-weighted displacement norm
    rng = np.random.default_rng(seed)
    structure, hessian = random_cluster_structure(5, seed=2)
    basis = diagonalize(dynamical_matrix(hessian, structure))
    delta = rng.normal(scale=0.02, size=(5, 3))
    qk = qk_from_displacement(basis, delta, structure)
    lhs = float(np.sum(qk * qk))
    rhs = float(np.sum(structure.mass_vector_3n() * delta.reshape(-1) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_force_route_matches_displacement_route():
    structure, hessian = random_cluster_structure(6, seed=21)
    d, _, _ = apply_asr(dynamical_matrix(hessian, structure), structure)
    basis = diagonalize(d)
    rng = np.random.default_rng(4)
    delta = rng.normal(scale=0.01, size=(6, 3))
    force = hessian_of(d, structure) @ delta.reshape(-1)
    qd = qk_from_displacement(basis, delta, structure)
    qf = qk_from_forces(basis, force, structure)
    live = basis.omegas_mev > 0.01
    np.testing.assert_allclose(qf[live], qd[live], rtol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_pair_and_force_routes_report_one_total(seed):
    # the rigid rotations of a free cluster sit below ZERO_MODE_MEV: the
    # force route cannot see them, so neither route may give them S_k
    structure, hessian = random_cluster_structure(6, seed=seed)
    d, _, _ = apply_asr(dynamical_matrix(hessian, structure), structure)
    basis = diagonalize(d)
    rng = np.random.default_rng(seed)
    delta = rng.normal(scale=0.02, size=(6, 3))
    force = hessian_of(d, structure) @ delta.reshape(-1)
    by_pair = partial_hr(qk_from_displacement(basis, delta, structure), basis.omegas_mev)
    by_force = partial_hr(qk_from_forces(basis, force, structure), basis.omegas_mev)
    assert by_pair.total == pytest.approx(by_force.total, rel=1e-12)


def _jittered_spring_network(natoms, seed):
    """The first `natoms` points of a jittered cubic grid, 2.1 A apart, with
    springs between first and second neighbours (as the benchmark's supercell)."""
    rng = np.random.default_rng(seed)
    side = math.ceil(natoms ** (1.0 / 3.0) - 1e-9)
    grid = np.indices((side, side, side)).reshape(3, -1).T[:natoms]
    positions = 2.1 * grid + rng.uniform(-0.2, 0.2, size=grid.shape)
    species = tuple("Si" if s % 2 else "C" for s in grid.sum(axis=1))
    masses = [12.011 if s == "C" else 28.085 for s in species]
    structure = CrystalStructure(np.eye(3) * (2.1 * side + 10.0), species, masses, positions)
    dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    a, b = np.nonzero(np.triu(dist < 3.3, k=1))
    springs = zip(a.tolist(), b.tolist(), rng.uniform(2.0, 9.0, size=a.size).tolist())
    return structure, spring_hessian(positions, springs)


@settings(max_examples=examples(60), deadline=None)
@given(natoms=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
# S = 8.7e-9: the totals differ by 2.47e-19, more than the rounding part
# of the bound (2.16e-19) but well within what the q_k bound allows
@example(natoms=2, seed=4000)
def test_routes_agree_on_generated_spring_networks(natoms, seed):
    structure, hessian = _jittered_spring_network(natoms, seed)
    d, _, _ = apply_asr(dynamical_matrix(hessian, structure), structure)
    basis = diagonalize(d)
    delta = np.random.default_rng(seed + 1).normal(scale=0.01, size=(natoms, 3))
    force = hessian_of(d, structure) @ delta.reshape(-1)
    qd = qk_from_displacement(basis, delta, structure)
    qf = qk_from_forces(basis, force, structure)
    live = basis.omegas_mev > units.ZERO_MODE_MEV
    # the force route divides by lambda_k, so its rounding in q_k grows with
    # lambda_max / lambda_k (up to 1e8 for the near-floppy modes of some
    # networks) times |q|; 32 eps of it is about 15 times the worst excess
    # over rtol 1e-8 seen in 8,190 draws
    lam = units.eigenvalue_from_hbar_omega(basis.omegas_mev[live])
    rounding = 32 * np.finfo(float).eps * lam.max() / lam * np.linalg.norm(qd)
    err = np.abs(qf - qd)[live]
    assert np.all(err <= 1e-8 * np.abs(qd[live]) + rounding)
    by_pair = partial_hr(qd, basis.omegas_mev)
    by_force = partial_hr(qf, basis.omegas_mev)
    # S_k = omega_k q_k^2 / 2 hbar moves by 2 S_k dq_k / q_k, and dq_k is
    # what the assertion above allows: 1e-8 |q_k| plus the rounding
    slack = 2.0 * by_pair.sk[live] * (1e-8 + rounding / np.abs(qd[live]))
    assert abs(by_force.total - by_pair.total) <= float(np.sum(slack))


def test_force_route_zero_forces(diatomic):
    structure, hessian = diatomic
    basis = diagonalize(dynamical_matrix(hessian, structure))
    qk = qk_from_forces(basis, np.zeros(6), structure)
    assert np.array_equal(qk, np.zeros(6))


def test_force_route_1d_oscillator():
    # hand algebra: k = m omega^2, dF = k dx -> q = sqrt(m) dx
    mass, omega_mev, dx = 12.0, 100.0, 0.04
    lam = units.eigenvalue_from_hbar_omega(omega_mev)  # eV/(amu A^2)
    k = mass * lam
    structure = CrystalStructure(np.eye(3) * 8, ("C",), [mass], [[0, 0, 0]])
    basis = diagonalize(dynamical_matrix(np.eye(3) * k, structure))
    force = np.array([k * dx, 0.0, 0.0])
    qk = qk_from_forces(basis, force, structure)
    # the x-polarized mode is degenerate with y,z; compare the projection norm
    assert np.linalg.norm(qk) == pytest.approx(math.sqrt(mass) * dx, rel=1e-10)


def test_force_on_rigid_translations_warns(diatomic):
    import warnings as _warnings

    from lumiphon.errors import ZeroFrequencyModeWarning

    structure, hessian = diatomic
    clean, _, _ = apply_asr(dynamical_matrix(hessian, structure), structure)
    basis = diagonalize(clean)
    # a net force pushes on the translation modes, which cannot carry a
    # finite displacement; they are dropped with a warning
    net = np.tile([0.3, 0.0, 0.0], 2)
    with pytest.warns(ZeroFrequencyModeWarning):
        qk = qk_from_forces(basis, net, structure)
    dead = basis.omegas_mev <= 0.01
    assert np.all(qk[dead] == 0.0)
    # a force with no rigid component stays silent
    delta = np.random.default_rng(0).normal(scale=0.01, size=6)
    clean_force = hessian_of(clean, structure) @ delta
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ZeroFrequencyModeWarning)
        qk_from_forces(basis, clean_force, structure)


def test_imaginary_modes_rejected(diatomic):
    structure, hessian = diatomic
    unstable = diagonalize(dynamical_matrix(-hessian, structure))
    with pytest.raises(NumericalError, match=r"imaginary mode\(s\), first at index 0"):
        qk_from_displacement(unstable, np.zeros((2, 3)), structure)
    with pytest.raises(NumericalError, match=r"imaginary mode\(s\), first at index 0"):
        qk_from_forces(unstable, np.zeros(6), structure)


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


# ---------------------------------------------------------- spectral density

def test_spectral_density_integral_single_mode():
    _, step, values = spectral_density(_single_mode_hr(2.0, 150.0), sigma_mev=2.0, step_mev=0.4)
    assert float(np.trapezoid(values, dx=step)) == pytest.approx(2.0, abs=2e-6)


def test_spectral_density_linearity():
    hr = partial_hr(np.array([0.02, 0.03]), np.array([80.0, 160.0]))
    _, step, values = spectral_density(hr, sigma_mev=2.0, step_mev=0.4)
    assert float(np.trapezoid(values, dx=step)) == pytest.approx(
        hr.total, rel=1e-6
    )


def test_spectral_density_peak_value():
    # resolved-sigma limit: the peak reaches S / (sigma sqrt(2 pi))
    sigma = 2.0
    _, _, values = spectral_density(_single_mode_hr(2.0, 150.0), sigma, sigma / 5.0)
    peak = float(values.max())
    assert peak == pytest.approx(2.0 / (sigma * math.sqrt(2 * math.pi)), rel=1e-9)



def _mode_by_mode_density(hr, sigma_mev, grid):
    """The former sum: one Gaussian per coupled mode, added in mode order."""
    vals = np.zeros_like(grid)
    live = hr.sk > 0.0
    for w0, s in zip(hr.omegas_mev[live], hr.sk[live]):
        gauss = np.exp(-0.5 * ((grid - w0) / sigma_mev) ** 2)
        vals += s * (gauss / (sigma_mev * math.sqrt(2.0 * math.pi)))
    return vals


@settings(max_examples=examples(40), deadline=None)
@given(
    st.integers(1, 600),
    st.floats(0.05, 5.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([5, 7, 10]),
)
def test_spectral_density_is_the_mode_by_mode_sum(nmodes, sigma, seed, per_sigma):
    # at sigma = 0.05 meV a block holds about 20 modes, so many blocks chain
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(10.0, 120.0, size=nmodes)
    sks = rng.exponential(size=nmodes) * (rng.random(nmodes) > 0.2)
    hr = partial_hr(np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas)
    step = sigma / per_sigma
    first, first_step, values = spectral_density(hr, sigma, step)
    # the grid it samples: 6 sigma beyond the outermost coupled modes (12
    # sigma from 0 when none is), of which it returns the first energy and
    # the first step
    live = hr.omegas_mev[hr.sk > 0.0]
    if live.size:
        lo = float(live.min() - 6.0 * sigma)
        grid = lo + step * np.arange(math.ceil((float(live.max() + 6.0 * sigma) - lo) / step) + 1)
    else:
        grid = np.arange(0.0, 12.0 * sigma, step)
    assert (first, first_step) == (grid[0], grid[1] - grid[0])
    assert np.array_equal(values, _mode_by_mode_density(hr, sigma, grid))
    # its integral is the total S: each Gaussian is summed over +-6 sigma
    integral = float(np.trapezoid(values, dx=first_step))
    assert abs(integral - hr.total) <= 1e-6 * hr.total


# ------------------------------------------------------- generating function

def _unchecked_grid(n, dt, sigma_mev):
    """t_j = (j - n // 2) dt, built directly: make_time_grid's checks skipped.
    The FFT length is the smallest power of two whose spectral step is at
    most sigma/5."""
    cells = 2.0 * math.pi * units.HBAR_MEV_FS / (dt * sigma_mev / 5.0)
    return TimeGrid(n, dt, 1 << (math.ceil(cells) - 1).bit_length())


def _generating_function(hr, sigma_mev, gamma_mev, reach_mev=0.0):
    """The emission chain up to G(t): time grid, S(hw) at its step, G(t).
    Returns (G, time grid, total S), the first arguments of lineshape."""
    grid = make_time_grid(hr, sigma_mev, gamma_mev, reach_mev)
    density = spectral_density(hr, sigma_mev, grid.spectral_step_mev)
    return generating_function(density, grid), grid, hr.total


def _output_grid(flags):
    """The output grid emission builds for flags, its keyword arguments."""
    return vibronic.energy_grid(flags["window_ev"], flags["step_mev"], flags["gamma_mev"])


def _lineshape(gf, flags, energy=None):
    """lineshape of gf, a (G, time grid, total S) triple, for emission's
    keyword arguments flags, on their output grid unless energy is given."""
    read = {k: v for k, v in flags.items() if k != "step_mev"}
    return lineshape(*gf, **read, energy_ev=_output_grid(flags) if energy is None else energy)


def test_generating_function_no_coupling():
    hr = partial_hr(np.zeros(2), np.array([50.0, 150.0]))
    g, grid, _ = _generating_function(hr, 2.0, 1.0)
    assert np.array_equal(g, np.ones(len(grid) // 2, dtype=complex))


def test_generating_function_single_mode_closed_form():
    s, omega = 1.3, 150.0
    sigma = 0.005  # essentially a stick on the 150 fs window below
    hr = _single_mode_hr(s, omega)
    grid = _unchecked_grid(301, 1.0, sigma)
    density = spectral_density(hr, sigma, grid.spectral_step_mev)
    t = np.arange(151) * 1.0  # the grid's times t >= 0
    g = generating_function(density, grid)
    exact = np.exp(s * (np.exp(-1j * units.omega_radfs(omega) * t) - 1.0))
    assert np.max(np.abs(g - exact)) < 1e-6


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
    zpl, gamma = 2.0, 1.0
    gf = _generating_function(hr, 2.0, gamma, reach_mev=600.0)
    flags = dict(
        zpl_ev=zpl,
        gamma_mev=gamma,
        sigma_mev=2.0,
        window_ev=(zpl - 0.5, zpl + 0.1),
        step_mev=0.1,
        omega_cubed=False,
    )
    ls = _lineshape(gf, flags)
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
    gf = _generating_function(hr, 2.0, 1.0, reach_mev=3000.0)
    flags = dict(
        zpl_ev=2.0, gamma_mev=1.0, sigma_mev=2.0, window_ev=(0.2, 0.5), step_mev=0.5,
        omega_cubed=True,
    )
    with pytest.raises(InputError, match="captures less than 0.1% of the emission"):
        _lineshape(gf, flags)


def test_lineshape_time_span_floor():
    # a hand-built grid 256 fs long, far below 10 hbar/gamma: the damped
    # sideband has not died at its ends
    hr = _single_mode_hr(0.5, 100.0)
    grid = _unchecked_grid(512, 1.0, 2.0)
    g = generating_function(spectral_density(hr, 2.0, grid.spectral_step_mev), grid)
    flags = dict(
        zpl_ev=2.0, gamma_mev=1.0, sigma_mev=2.0, window_ev=(1.9, 2.01), step_mev=0.1,
        omega_cubed=True,
    )
    with pytest.raises(NumericalError, match="damped sideband"):
        _lineshape((g, grid, hr.total), flags)


def test_lineshape_refuses_a_negative_dip():
    # a hand-built G whose bracket is a difference of Gaussians in t, the
    # narrower one (250 fs) broader in energy: from about 5 meV below the
    # ZPL its sideband is negative by more than the gamma = 0.1 meV
    # Lorentzian adds there
    n, s = 4096, 1.0
    grid = _unchecked_grid(n, 1.0, 2.0)
    t = np.arange(n // 2) * grid.dt
    bracket = 2.0 * np.exp(-0.5 * (t / 300.0) ** 2) - np.exp(-0.5 * (t / 250.0) ** 2)
    g = (math.exp(-s) + (1.0 - math.exp(-s)) * bracket).astype(complex)
    flags = dict(
        zpl_ev=2.0, gamma_mev=0.1, sigma_mev=2.0, window_ev=(1.95, 2.01), step_mev=0.1,
        omega_cubed=True,
    )
    with pytest.raises(NumericalError, match="dips"):
        _lineshape((g, grid, s), flags)


# generated HR documents: modes, total S, gamma and sigma (meV), seed
_DOCUMENT_STRATEGIES = (
    st.integers(1, 64),
    st.floats(1e-3, 20.0),
    st.floats(0.01, 1.0),
    st.floats(0.5, 4.0),
    st.integers(0, 2**32 - 1),
)
_GENERATED_DOCUMENTS = given(*_DOCUMENT_STRATEGIES)


def _generated_hr(nmodes, s_total, seed):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(10.0, 120.0, size=nmodes)
    weights = rng.exponential(size=nmodes)
    sks = s_total * weights / weights.sum()
    return partial_hr(np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas)


@settings(max_examples=examples(20), deadline=None)
@_GENERATED_DOCUMENTS
# S = 1: a time step covering 10 quanta folds the 12-phonon replica back
# across the Nyquist energy and moves the first moment by -2.1e-8
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_split_sideband_contracts_on_generated_documents(nmodes, s_total, gamma, sigma, seed):
    hr = _generated_hr(nmodes, s_total, seed)
    gf = _generating_function(hr, sigma, gamma)
    g = gf[0]
    # G(0) = 1 exactly, and |G| <= 1: S(hw) >= 0 bounds |S(t)| by S(0)
    assert g[0] == 1.0
    assert float(np.max(np.abs(g))) <= 1.0
    # by the end of the grid the sideband has died: G is down to the ZPL weight
    zpl = math.exp(-hr.total)
    assert abs(g[-1] - zpl) <= 1e-8 * hr.total
    resolution = max(sigma, gamma) / 16.0
    step, sideband, zpl_weight = vibronic._fft_spectral_function(*gf, gamma, resolution)
    assert step <= resolution
    assert zpl_weight == pytest.approx(zpl, rel=1e-12)
    assert step * math.fsum(sideband.tolist()) == pytest.approx(1.0 - zpl, abs=1e-12)
    # undamped, the sideband has a first moment: sum S_k hbar w_k
    step, sideband, _ = vibronic._fft_spectral_function(*gf, 1e-12, resolution)
    released = np.fft.fftfreq(sideband.size, 1.0 / sideband.size) * step
    released[sideband.size // 2] = 0.0  # the unpaired Nyquist bin
    first = step * math.fsum((released * sideband).tolist())
    assert first == pytest.approx(float(np.dot(hr.sk, hr.omegas_mev)), rel=1e-8)


@settings(max_examples=examples(25), deadline=None)
@_GENERATED_DOCUMENTS
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_time_grid_contracts_on_generated_documents(nmodes, s_total, gamma, sigma, seed):
    hr = _generated_hr(nmodes, s_total, seed)
    reach = vibronic._reach_mev(3.0, vibronic.resolve_window(hr, 3.0, gamma, sigma))
    grid = make_time_grid(hr, sigma, gamma, reach)
    n, dt = len(grid), grid.dt
    # the Nyquist energy covers the multi-phonon support, up to 6 sigma
    # above the highest mode, and the reach; so does every sample of S(hw)
    top = float(hr.omegas_mev.max()) + 6.0 * sigma
    need = vibronic._nyquist_need_mev(top, hr.total, reach)
    assert math.pi * units.HBAR_MEV_FS / dt >= need * (1.0 - 1e-12)
    lo, step, values = spectral_density(hr, sigma, grid.spectral_step_mev)
    assert lo + (values.size - 1) * step <= top + grid.spectral_step_mev
    # the FFT of S(t): the smallest power of two whose spectral step is at
    # most sigma/5, so the step lies in (sigma/10, sigma/5]
    fft, spectral = grid.fft_size, grid.spectral_step_mev
    assert fft & (fft - 1) == 0 and fft <= vibronic.MAX_TIME_POINTS
    assert sigma / 10.0 < spectral <= sigma / 5.0 * (1.0 + 1e-12)
    # the smallest power of two (at least 16, at most the limit) covering
    # the sigma-bounded span; even, so every t > 0 has its -t
    span = min(25.0 / gamma, vibronic._SIDEBAND_SPAN / sigma) * units.HBAR_MEV_FS
    assert n & (n - 1) == 0 and 16 <= n <= vibronic.MAX_TIME_POINTS
    assert n >= 2.0 * span / dt * (1.0 - 1e-9)
    assert n == 16 or n < 4.0 * span / dt * (1.0 + 1e-9)
    # dt is the whole-grid step of the points the Nyquist step builds, the
    # Nyquist energy covering also the Lorentzian tails folding back into
    # the window, whose reach make_time_grid takes as at least 10 gamma,
    # and 4 times the top
    grid_reach = max(reach, 10.0 * gamma)
    tails = math.sqrt(2.0 * grid_reach * gamma / (math.pi * 2e-6))
    nyquist = math.pi * units.HBAR_MEV_FS / max(need, tails, 4.0 * top)
    t = (np.arange(n) - n // 2) * nyquist
    assert dt == float(t[-1] - t[0]) / (n - 1)
    # S(t) is read from the first half of its FFT alone, and the grid ends
    # before S(t) on the spectral grid recurs
    assert n // 2 <= fft // 2
    onset = units.HBAR_MEV_FS * (2.0 * math.pi / spectral - vibronic._SIDEBAND_SPAN / sigma)
    assert (n // 2) * dt < onset


def _assert_s_is_the_direct_quadrature_sum(density, g, grid):
    """S(t) - S(0) from G(t) on grid matches sum_i c_i exp(-i w_i t) - S(0)
    within 1e-12 S(0) at 200 times from t = 0 to the end of the grid."""
    lo_mev, step_mev, values = density
    n, dt, fft = len(grid), grid.dt, grid.fft_size
    coeff = np.full(values.size, step_mev) * values
    coeff[[0, -1]] *= 0.5
    s0 = math.fsum(coeff.tolist())
    # at w_i = w_lo + i D / hbar with D dt N = 2 pi hbar the phase of sample
    # i at t_j is w_lo t_j + 2 pi (i j mod N) / N, reduced in integers so
    # that it does not round with t
    j = np.unique(np.linspace(0, n // 2 - 1, 200).astype(np.int64))
    phase = 2.0 * math.pi * (np.outer(j, np.arange(coeff.size)) % fft) / fft
    omega_lo = lo_mev / units.HBAR_MEV_FS
    direct = np.exp(-1j * omega_lo * dt * j) * (np.exp(-1j * phase) @ coeff)
    # G(t) = exp(S(t) - S(0)): its log gives S(t) - S(0) up to 2 pi i
    diff = np.log(g[j]) - (direct - s0)
    diff.imag = (diff.imag + math.pi) % (2.0 * math.pi) - math.pi
    assert float(np.max(np.abs(diff))) <= 1e-12 * s0


@settings(max_examples=examples(20), deadline=None)
@_GENERATED_DOCUMENTS
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_fft_of_s_matches_the_direct_quadrature_sum(nmodes, s_total, gamma, sigma, seed):
    hr = _generated_hr(nmodes, s_total, seed)
    grid = make_time_grid(hr, sigma, gamma)
    density = spectral_density(hr, sigma, grid.spectral_step_mev)
    _assert_s_is_the_direct_quadrature_sum(density, generating_function(density, grid), grid)


def test_make_time_grid_builds_no_array():
    # at gamma = 1 meV the Lorentzian tails set the Nyquist energy, 1784 meV,
    # for any sigma below 4 meV, and N grows as 1/sigma: sigma = 1.5e-3 meV
    # needs an FFT of 1.19e7 points, 2^24 at the limit, and 1e-3 meV one of
    # 1.78e7, refused.  Grids of scalars, not 128 MB arrays
    hr = _single_mode_hr(1.0, 100.0)
    limit = vibronic.MAX_TIME_POINTS
    tracemalloc.start()
    try:
        at_limit = make_time_grid(hr, 1.5e-3, 1.0)
        with pytest.raises(InputError, match="--sigma"):
            make_time_grid(hr, 1e-3, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert at_limit.fft_size == limit and len(at_limit) <= limit // 2
    assert peak < 1 << 16
    with pytest.raises(InputError, match=f"--sigma.*{limit}"):
        make_time_grid(hr, 1e-6, 1.0)


def _complex_padded_sideband(g, grid, s_total, gamma_mev, resolution_mev):
    """The former transform: the damped bracket at t >= 0 and its mirror
    b(-t) = conj b(t), zero-padded, through a complex inverse FFT.  Returns
    the energy step and the complex result."""
    n, dt = len(grid), grid.dt
    zpl_weight = math.exp(-s_total)
    damping = np.exp(-gamma_mev * dt / units.HBAR_MEV_FS * np.arange(g.size))
    bracket = (g - zpl_weight) * damping
    period_fs = 2.0 * math.pi * units.HBAR_MEV_FS / resolution_mev
    size = max(n, 1 << max(0, math.ceil(math.log2(period_fs / dt))))
    padded = np.zeros(size, dtype=complex)
    last = bracket.size - 1
    padded[: last + 1] = bracket
    padded[size - last :] = np.conj(bracket[last:0:-1])
    a = np.fft.ifft(padded) * (size * dt / (2.0 * math.pi * units.HBAR_MEV_FS))
    return 2.0 * math.pi * units.HBAR_MEV_FS / (size * dt), a


@settings(max_examples=examples(20), deadline=None)
@_GENERATED_DOCUMENTS
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0)
def test_real_half_transform_matches_complex_padded_transform(
    nmodes, s_total, gamma, sigma, seed
):
    hr = _generated_hr(nmodes, s_total, seed)
    gf = _generating_function(hr, sigma, gamma)
    resolution = max(sigma, gamma) / 16.0
    step, sideband, _ = vibronic._fft_spectral_function(*gf, gamma, resolution)
    ref_step, ref = _complex_padded_sideband(*gf, gamma, resolution)
    assert step == ref_step
    peak = float(np.max(np.abs(ref.real)))
    assert float(np.max(np.abs(ref.imag))) <= 1e-12 * peak
    assert float(np.max(np.abs(sideband - ref.real))) <= 1e-12 * peak


def _default_window(hr, zpl_ev, gamma_mev, sigma_mev):
    """The default window: S + 6 sqrt(S) + 4 quanta of the largest coupled
    mode plus 50 gamma + 6 sigma below the ZPL, 50 gamma + 6 sigma above,
    at least 1 meV."""
    zpl_mev = zpl_ev * 1000.0
    live = hr.sk > 0.0
    omega_max = float(hr.omegas_mev[live].max()) if np.any(live) else 0.0
    cover = hr.total + 6.0 * math.sqrt(hr.total) + 4.0
    below = omega_max * cover + 50.0 * gamma_mev + 6.0 * sigma_mev
    above = 50.0 * gamma_mev + 6.0 * sigma_mev
    return max(zpl_mev - below, 1.0) / 1000.0, (zpl_mev + above) / 1000.0


def _stage_chain(hr, flags):
    """The spectrum pipeline assembled stage by stage: the output grid, the
    sigma-bounded time grid, S(hw) at its spectral step, G(t) and the
    lineshape."""
    zpl_mev, window = flags["zpl_ev"] * 1000.0, flags["window_ev"]
    reach = max(zpl_mev - window[0] * 1000.0, abs(window[1] * 1000.0 - zpl_mev))
    grid = make_time_grid(hr, flags["sigma_mev"], flags["gamma_mev"], reach)
    density = spectral_density(hr, flags["sigma_mev"], grid.spectral_step_mev)
    return _lineshape((generating_function(density, grid), grid, hr.total), flags)


@settings(max_examples=examples(20), deadline=None)
@given(*_DOCUMENT_STRATEGIES, st.booleans())
@example(nmodes=1, s_total=1.0, gamma=0.5, sigma=1.0, seed=0, omega_cubed=False)
# a step of 17 digits, whose printed energies move the integral by 1.2e-6
@example(nmodes=1, s_total=1.0, gamma=0.7404708839070748, sigma=0.7421875, seed=1,
         omega_cubed=False)
def test_emission_is_the_stage_chain_on_generated_documents(
    nmodes, s_total, gamma, sigma, seed, omega_cubed
):
    hr = _generated_hr(nmodes, s_total, seed)
    window = _default_window(hr, 3.0, gamma, sigma)
    assert vibronic.resolve_window(hr, 3.0, gamma, sigma) == window
    flags = dict(
        zpl_ev=3.0, window_ev=window, gamma_mev=gamma, sigma_mev=sigma, step_mev=gamma,
        omega_cubed=omega_cubed,
    )
    ref = _stage_chain(hr, flags)
    ls = emission(hr, **flags)
    assert np.array_equal(ls.energy_ev, ref.energy_ev)
    assert np.array_equal(ls.intensity, ref.intensity)
    # lineshape computes on the energies as printed and divides by its
    # integral over them: unit there within 1e-12, with omega_cubed on and off
    assert np.array_equal(tsv_printed(ls.energy_ev), ls.energy_ev)
    assert abs(float(np.trapezoid(ls.intensity, ls.energy_ev)) - 1.0) <= 1e-12


def _recording(fn, calls):
    """fn, appending the arguments and result of every call to calls."""

    def record(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    return record


@settings(max_examples=examples(25), deadline=None)
@given(
    nmodes=st.integers(1, 64),
    s_total=st.floats(0.1, 30.0),
    gamma=st.floats(0.01, 1.0),
    sigma=st.floats(0.5, 4.0),
    zpl=st.floats(1.0, 4.0),
    # an explicit window: from a fraction of the ZPL to some eV above it
    explicit=st.none() | st.tuples(st.floats(0.001, 0.999), st.floats(0.005, 0.2)),
    seed=st.integers(0, 2**32 - 1),
)
@example(nmodes=1, s_total=30.0, gamma=0.01, sigma=0.5, zpl=1.0, explicit=None, seed=0)
@example(nmodes=3, s_total=1.0, gamma=0.1, sigma=2.0, zpl=2.6, explicit=(0.8, 0.05), seed=1)
def test_spectrum_and_oracle_share_window_and_grid_on_generated_documents(
    nmodes, s_total, gamma, sigma, zpl, explicit, seed
):
    hr = _generated_hr(nmodes, s_total, seed)
    flag = None if explicit is None else (explicit[0] * zpl, zpl + explicit[1])
    # spectrum resolves the window from its flags, a given one as it is
    window = vibronic.resolve_window(hr, zpl, gamma, sigma, flag)
    assert flag is None or window == flag
    flags = dict(
        zpl_ev=zpl, gamma_mev=gamma, sigma_mev=sigma, window_ev=window, step_mev=gamma,
        omega_cubed=True,
    )
    grids = []
    with mock.patch.object(vibronic, "energy_grid", _recording(vibronic.energy_grid, grids)):
        try:
            ls = emission(hr, **flags)
        except InputError as exc:
            # the window's share of the emission is measured on the built
            # grid; at S = 30 most of the sideband can lie below 0 eV
            if "captures less than 0.1%" not in str(exc):
                raise
            ls = None
    # emission evaluates on the one grid the builder makes of it
    ((args, spectrum_grid),) = grids
    assert args == (window, gamma, gamma)
    if ls is not None:
        assert ls.energy_ev.tobytes() == spectrum_grid.tobytes()
    # oracle for the same flags: the resolver, then the builder
    oracle_window = vibronic.resolve_window(hr, zpl, gamma, sigma, flag)
    assert oracle_window == window
    oracle_grid = vibronic.energy_grid(oracle_window, gamma, gamma)
    assert oracle_grid.tobytes() == spectrum_grid.tobytes()
    # at sigma = 0 (oracle's pure Lorentzians) the default loses its 6 sigma margins
    lo, hi = vibronic.resolve_window(hr, zpl, gamma, sigma)
    lo0, hi0 = vibronic.resolve_window(hr, zpl, gamma, 0.0)
    assert hi0 * 1000.0 == pytest.approx(hi * 1000.0 - 6.0 * sigma, rel=1e-12)
    assert lo <= lo0 < hi0


def test_resolve_window_and_energy_grid_check_every_flag():
    # spectrum and oracle call these two first; they alone check the flags
    hr = _single_mode_hr(1.0, 100.0)
    given = (1.0, 2.1)
    with pytest.raises(InputError, match="--zpl"):
        vibronic.resolve_window(hr, -1.0, 1.0, 2.0, given)
    with pytest.raises(InputError, match=r"gamma 0 meV \(--gamma\) must be positive"):
        vibronic.resolve_window(hr, 2.0, 0.0, 2.0, given)
    with pytest.raises(InputError, match="--sigma"):
        vibronic.resolve_window(hr, 2.0, 1.0, -1.0, given)
    assert vibronic.resolve_window(hr, 2.0, 1.0, 0.0, given) == given
    with pytest.raises(InputError, match="--window"):
        vibronic.energy_grid((2.0, 1.0), 0.1, 1.0)
    with pytest.raises(InputError, match="--step"):
        vibronic.energy_grid(given, 0.0, 1.0)
    # the step may exceed gamma by 1e-9 of it, no more
    vibronic.energy_grid(given, 0.1 * (1.0 + 1e-10), 0.1)
    with pytest.raises(InputError, match="--step.*--gamma"):
        vibronic.energy_grid(given, 0.1 * (1.0 + 1e-8), 0.1)
    with pytest.raises(InputError, match="--window.*--step"):
        vibronic.energy_grid((1.5, 1.50005), 0.1, 1.0)
    energy_ev = vibronic.energy_grid((1.5, 1.5001), 0.1, 1.0)
    assert energy_ev.tolist() == [1.5, 1.5001]


def test_emission_refuses_what_the_generating_function_route_adds():
    # only what the generating-function route adds: vibronic.resolve_window
    # checks zpl and gamma, vibronic.energy_grid the window and step
    hr = _single_mode_hr(1.0, 100.0)

    def run(**fields):
        flags = dict(zpl_ev=2.0, window_ev=(1.0, 2.1), gamma_mev=1.0, sigma_mev=2.0,
                     step_mev=0.1, omega_cubed=True)
        return emission(hr, **dict(flags, **fields))

    run()
    # no parameter has a default: the spectrum parser holds the flag defaults
    with pytest.raises(TypeError):
        emission(hr, zpl_ev=2.0, window_ev=(1.0, 2.1))
    with pytest.raises(InputError, match="--sigma"):
        run(sigma_mev=0.0)
    with pytest.raises(InputError, match="--window"):
        run(window_ev=(0.0, 2.1))
    run(window_ev=(-1.0, 2.1), omega_cubed=False)


def test_lineshape_transform_memory_below_two_padded_complex_arrays():
    # S = 10 at 200 meV, gamma = 1 meV: a 2^16-point time grid padded to
    # 2^19 points for the 0.125 meV energy step
    hr = _single_mode_hr(10.0, 200.0)
    # the ladder reaches below 1 meV, where the default window stops
    flags = dict(
        zpl_ev=2.0, gamma_mev=1.0, sigma_mev=2.0, window_ev=(0.001, 2.062), step_mev=0.1,
        omega_cubed=True,
    )
    gf = _generating_function(hr, 2.0, 1.0, vibronic._reach_mev(2.0, flags["window_ev"]))
    step, _, _ = vibronic._fft_spectral_function(*gf, 1.0, 2.0 / 16.0)
    size = round(2.0 * math.pi * units.HBAR_MEV_FS / (step * gf[1].dt))
    assert size == 1 << 19
    energy = _output_grid(flags)
    tracemalloc.start()
    try:
        _lineshape(gf, flags, energy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * size


def test_generating_function_holds_g_at_t_from_zero_only():
    # G at the 8 times t >= 0 of a 16-point grid, t = 0 first
    grid = _unchecked_grid(16, 1.0, 2.0)
    density = spectral_density(_single_mode_hr(0.5, 100.0), 2.0, grid.spectral_step_mev)
    assert generating_function(density, grid).shape == (8,)


def test_generating_function_refuses_magnitude_above_one():
    # a negative S(hw) lifts Re S(t) above S(0): the one place G is made
    # refuses it
    grid = _unchecked_grid(16, 1.0, 2.0)
    lo, step, values = spectral_density(_single_mode_hr(0.5, 100.0), 2.0, grid.spectral_step_mev)
    with pytest.raises(InputError, match="magnitude exceeds 1"):
        generating_function((lo, step, -values), grid)


def test_degenerate_mode_mixing_invariance():
    # rotating a degenerate pair must leave total S and the spectrum alone
    structure = CrystalStructure(np.eye(3) * 8, ("C",), [12.0], [[0, 0, 0]])
    basis = diagonalize(dynamical_matrix(np.eye(3) * 5.0, structure))
    delta = np.array([[0.02, -0.013, 0.007]])

    theta = 0.37
    rot = np.eye(3)
    rot[:2, :2] = [
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ]
    mixed = PhononBasis(basis.omegas_mev, rot @ basis.vectors)

    out = []
    for b in (basis, mixed):
        qk = qk_from_displacement(b, delta, structure)
        hr = partial_hr(qk, b.omegas_mev)
        gf = _generating_function(hr, 2.0, 1.0, reach_mev=800.0)
        ls = _lineshape(
            gf,
            dict(
                zpl_ev=2.0, gamma_mev=1.0, sigma_mev=2.0, window_ev=(1.4, 2.05),
                step_mev=0.2, omega_cubed=True,
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
    labels = effective_mode_report(hr, ls, zpl, gamma, 115.0)
    assert labels and labels[0][0] == 0
    assert labels[0][1] == omega
    assert labels[0][3] == pytest.approx(omega, abs=1.0)


def test_effective_mode_report_ordering_and_floor():
    omegas = np.array([52.0, 78.0, 115.0, 139.0, 176.0])
    sks = np.array([0.5, 0.35, 6e-5, 0.22, 0.12])
    w_radfs = units.omega_radfs(omegas)
    qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / w_radfs)
    hr = partial_hr(qk, omegas)
    zpl, gamma, sigma = 2.2, 1.0, 0.5
    gf = _generating_function(hr, sigma, gamma, reach_mev=1600.0)
    ls = _lineshape(
        gf,
        dict(
            zpl_ev=zpl,
            gamma_mev=gamma,
            sigma_mev=sigma,
            window_ev=(zpl - 1.4, zpl + 0.05),
            step_mev=0.05,
            omega_cubed=False,
        ),
    )
    labels = effective_mode_report(hr, ls, zpl, gamma, 0.0)  # every mode is above 0 meV
    assert [mode for mode, *_ in labels] == [0, 1, 3, 4]  # S_k floor drops mode 2
    assert labels[0][2] >= labels[-1][2]
    for mode, _, _, offset, _ in labels:
        assert offset == pytest.approx(hr.omegas_mev[mode], abs=1.5)
    # with no mode above the cutoff, every mode is a candidate
    assert effective_mode_report(hr, ls, zpl, gamma, 200.0) == labels

    # oracle cross-check: every labelled offset is a maximum of the
    # independently broadened ladder as well
    ladder = enumerate_fc(hr, cap=12)
    grid = ls.energy_ev
    y = broadened_oracle_spectrum(ladder, gamma, grid, zpl, sigma)
    peak_idx = np.nonzero((y[1:-1] >= y[2:]) & (y[1:-1] > y[:-2]))[0] + 1
    peak_offsets = (zpl - grid[peak_idx]) * 1000.0
    for _, _, _, offset, _ in labels:
        assert np.min(np.abs(peak_offsets - offset)) < 1.0

    lvm_only = effective_mode_report(hr, ls, zpl, gamma, 100.0)  # modes 2, 3 and 4
    assert [mode for mode, *_ in lvm_only] == [3, 4]


def _reference_mode_report(hr, ls, zpl_ev, gamma_mev, cutoff_mev):
    """The labelling loop as first written: one Python pass per peak and mode."""
    above = [k for k in range(hr.nmodes) if hr.omegas_mev[k] > cutoff_mev]
    candidates = np.array(above or range(hr.nmodes), dtype=int)
    candidates = candidates[hr.sk[candidates] >= LABEL_SK_FLOOR]
    match_tol_mev = max(3.0 * gamma_mev, 5.0)
    e = ls.energy_ev
    y = ls.intensity
    below = e < zpl_ev - 2.0 * gamma_mev / 1000.0
    interior = np.zeros(e.size, dtype=bool)
    interior[1:-1] = (y[1:-1] >= y[2:]) & (y[1:-1] > y[:-2])
    peaks = np.nonzero(interior & below)[0]
    peaks = peaks[np.argsort(y[peaks], kind="stable")[::-1]]

    labels = []
    used = set()
    for p in peaks:
        offset = (zpl_ev - e[p]) * 1000.0
        near = [
            int(k)
            for k in candidates
            if abs(hr.omegas_mev[k] - offset) <= match_tol_mev and int(k) not in used
        ]
        if not near:
            continue
        best = max(near, key=lambda k: (hr.sk[k], -k))
        used.add(best)
        labels.append((best, hr.omegas_mev[best], hr.sk[best], offset, e[p]))
    labels.sort(key=lambda row: -row[2])
    return labels


@settings(max_examples=examples(150), deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=14),
    st.lists(st.sampled_from([0.0, 5e-5, 0.01, 0.1, 0.1, 0.3, 0.3]), min_size=14, max_size=14),
    st.lists(st.integers(0, 6), min_size=4, max_size=60),
    # the match tolerance max(3 gamma, 5 meV) is 5 meV up to gamma = 5/3 meV
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0]),
    # cutoffs on and between the modes, below all of them and above all of them
    st.integers(-2, 82).map(lambda half: half / 2.0),
)
def test_effective_mode_report_matches_reference_loop(mode_mev, sk_pool, heights, gamma, cutoff):
    # integer mode energies and intensities on a 1 meV grid give exact ties
    # in S_k, in peak height and in the distance of modes from a peak
    omegas = np.sort(np.array(mode_mev, dtype=float))
    sks = np.array(sk_pool[: omegas.size])
    hr = HRDecomposition(omegas, np.zeros_like(omegas), sks, math.fsum(sks.tolist()))
    energy = 2.0 - 0.001 * np.arange(len(heights), 0, -1)
    raw = np.array(heights, dtype=float) + 0.5
    ls = Lineshape(energy, raw / np.trapezoid(raw, energy))
    assert effective_mode_report(hr, ls, 2.0, gamma, cutoff) == _reference_mode_report(
        hr, ls, 2.0, gamma, cutoff
    )
