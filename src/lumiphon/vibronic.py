"""Electron-phonon coupling and the emission lineshape.

The chain implemented here: project the excited-minus-ground geometry
change (or force change) onto the phonon modes to get per-mode
displacements q_k, form partial factors S_k = omega_k q_k^2 / (2 hbar),
smear them into a spectral density S(hw), Fourier it into S(t), build the
generating function G(t) = exp(S(t) - S(0)) and split it as
G(t) = e^{-S} + [G(t) - e^{-S}] (Huang and Rhys, Proc. R. Soc. A 204, 406
(1950)).  The constant term is the zero-phonon line: damped by
e^{-gamma|t|/hbar} it is a Lorentzian of weight e^{-S}, written in closed
form.  The bracket is the phonon sideband; S(t) is Gaussian-smeared, so the
bracket dies within a few hbar/sigma, and only it goes through the FFT, on
a time grid whose span follows sigma rather than gamma.

Conventions: q_k in amu^1/2 * A against unit-norm mass-weighted mode
vectors; the force route divides the force change by sqrt(mass) and by the
mode eigenvalue, which reproduces the displacement route exactly on a
harmonic system.  Zero-temperature emission only: the excited state sits
in its vibrational ground state, so every phonon replica is red-shifted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import units
from .errors import InputError, NumericalError, ZeroFrequencyModeWarning
from .model import (
    CrystalStructure,
    ForceDelta,
    GeometryPair,
    HRDecomposition,
    Lineshape,
    PhononBasis,
    TimeGrid,
    _require_finite,
    output_grid,
    sum_sk,
    tsv_rounding,
)
from .units import ZERO_MODE_MEV

#: Modes with S_k below this are left out of peak labelling.
LABEL_SK_FLOOR = 1e-4

#: |G(t) - e^{-S}| <= |S(t)| <= S exp(-sigma^2 t^2 / 2 hbar^2), which falls
#: below 1e-13 S past this many hbar/sigma.
_SIDEBAND_SPAN = math.sqrt(2.0 * math.log(1e13))

#: The multi-phonon support of the time step covers every replica until
#: the Poisson weight beyond it is below this.
_REPLICA_TAIL = 1e-12

#: Largest block of Gaussian rows spectral_density sums at once, in float64.
_DENSITY_BLOCK = 1 << 18

#: Largest FFT of S(t) that make_time_grid accepts, 128 MB per float array
#: over it; the time grid is at most half as long.
MAX_TIME_POINTS = 1 << 24

#: The damped sideband must be below e^{-_DAMPING_FLOOR} where the time
#: grid ends.
_DAMPING_FLOOR = 10.0

# Cubic B-spline interpolation: the coefficients are the samples filtered
# by the inverse of (1, 4, 1)/6, whose taps are sqrt(3) z1^|j| with
# z1 = sqrt(3) - 2; past 28 taps they fall below 1e-16.
_SPLINE_TAPS = 28
_SPLINE_PREFILTER = math.sqrt(3.0) * (math.sqrt(3.0) - 2.0) ** np.abs(
    np.arange(-_SPLINE_TAPS, _SPLINE_TAPS + 1)
)


def _masses_3n(basis: PhononBasis, structure: CrystalStructure, change) -> np.ndarray:
    """The structure's per-coordinate masses, once the basis and the geometry
    or force change both span its 3N coordinates (InputError otherwise)."""
    n3 = 3 * structure.natoms
    if basis.nmodes != n3 or change.size != n3:
        raise InputError(
            f"basis has {basis.nmodes} modes and the change {change.size} coordinates, "
            f"but structure has {structure.natoms} atoms (3N = {n3})"
        )
    return structure.mass_vector_3n()


def _reject_imaginary(basis: PhononBasis):
    bad = np.nonzero(basis.omegas_mev < -ZERO_MODE_MEV)[0]
    if bad.size:
        raise NumericalError(
            f"basis has {bad.size} imaginary mode(s), first at index {int(bad[0])} "
            f"({basis.omegas_mev[bad[0]]:.3f} meV)"
        )


def qk_from_displacement(
    basis: PhononBasis, pair: GeometryPair, structure: CrystalStructure
) -> np.ndarray:
    """Per-mode displacements q_k = sum sqrt(m) * dR . e_k, in amu^1/2 A."""
    _reject_imaginary(basis)
    delta = pair.delta.reshape(-1)
    return basis.vectors @ (np.sqrt(_masses_3n(basis, structure, delta)) * delta)


def qk_from_forces(
    basis: PhononBasis, force_delta: ForceDelta, structure: CrystalStructure
) -> np.ndarray:
    """q_k from the force change at fixed geometry.

    q_k = (1/lambda_k) * sum (F_e - F_g) / sqrt(m) . e_k with lambda_k the
    mass-weighted Hessian eigenvalue, so a harmonic force change H*dR gives
    exactly the displacement-route q_k.  Rigid-translation modes cannot
    carry a finite displacement this way; they are excluded, with a warning
    if their projection is not negligible.
    """
    _reject_imaginary(basis)
    f = force_delta.values
    proj = basis.vectors @ (f / np.sqrt(_masses_3n(basis, structure, f)))
    lam = units.eigenvalue_from_hbar_omega(basis.omegas_mev)
    qk = np.zeros_like(proj)
    live = basis.omegas_mev > ZERO_MODE_MEV
    qk[live] = proj[live] / lam[live]
    dead = ~live
    if np.any(dead) and np.max(np.abs(proj[dead])) > 1e-8 * max(
        1.0, float(np.max(np.abs(proj)))
    ):
        warnings.warn(
            f"{int(np.sum(dead))} near-zero mode(s) carried a force projection "
            "and were excluded",
            ZeroFrequencyModeWarning,
            stacklevel=2,
        )
    return qk


def partial_hr(qk, omegas_mev) -> HRDecomposition:
    """S_k = omega_k q_k^2 / (2 hbar), dimensionless, plus the total.

    Modes at or below ZERO_MODE_MEV (the rigid translations and rotations)
    get S_k = 0, as on the force route, so both routes report one total;
    their q_k is kept.  qk and omegas_mev are the equal 1-d arrays of a
    qk_from_* route, which has refused modes below -ZERO_MODE_MEV.
    NonFiniteValue names the first non-finite q_k or S_k in ascending order.
    """
    q = np.asarray(qk, dtype=float)
    w = np.asarray(omegas_mev, dtype=float)
    w_clamped = np.clip(w, 0.0, None)
    with np.errstate(over="ignore"):  # an infinite S_k is refused below
        sk = units.omega_radfs(w_clamped) * q * q / (2.0 * units.HBAR_AMU_A2_FS)
    sk[w_clamped <= ZERO_MODE_MEV] = 0.0
    order = np.argsort(w_clamped, kind="stable")
    q_sorted, sk_sorted = q[order], sk[order]
    _require_finite(q_sorted, "qk")
    _require_finite(sk_sorted, "sk")
    return HRDecomposition(w_clamped[order], q_sorted, sk_sorted, sum_sk(sk_sorted))


def spectral_density(hr: HRDecomposition, sigma_mev: float, step_mev: float) -> tuple:
    """Smear the stick decomposition with Gaussians of width sigma, sampled
    at step_mev (a time grid's spectral_step_mev) from 6 sigma below every
    contributing mode to 6 sigma above: (lo_mev, step, values), S(hw) in
    1/meV with values[i] at lo_mev + i * step, the grid's first energy and
    its step grid[1] - grid[0] being all generating_function reads of it.
    Each Gaussian is summed over +-6 sigma at a step <= sigma/5, so the
    trapezoid integral is hr's total within 2 Phi(-6) = 2e-9 of it; that is
    not re-checked.  sigma > 0 is emission's to check.
    """
    live = hr.sk > 0.0
    omegas = hr.omegas_mev[live]
    sks = hr.sk[live]
    if omegas.size == 0:
        cells = math.ceil(12.0 * sigma_mev / step_mev)
        return 0.0, step_mev, np.zeros(cells)
    lo_req = float(omegas.min() - 6.0 * sigma_mev)
    hi_req = float(omegas.max() + 6.0 * sigma_mev)
    n = int(math.ceil((hi_req - lo_req) / step_mev)) + 1
    grid = lo_req + step_mev * np.arange(n)
    # one row of s_k * Gaussian per mode, a block of rows at a time; row 0
    # of each block carries the running sum, and a reduction over axis 0
    # adds the rows in order, so the sum is the mode-by-mode one bit for bit
    rows = max(1, _DENSITY_BLOCK // grid.size - 1)
    norm = sigma_mev * math.sqrt(2.0 * math.pi)
    vals = np.zeros_like(grid)
    for start in range(0, omegas.size, rows):
        w0 = omegas[start : start + rows, None]
        block = np.empty((w0.shape[0] + 1, grid.size))
        block[0] = vals
        g = block[1:]
        np.subtract(grid, w0, out=g)
        g /= sigma_mev
        np.square(g, out=g)
        g *= -0.5
        np.exp(g, out=g)
        g /= norm
        g *= sks[start : start + rows, None]
        vals = np.add.reduce(block, axis=0)
    return float(grid[0]), float(grid[1] - grid[0]), vals


def _nyquist_need_mev(omega_max_mev, s_total, reach_mev):
    """Nyquist energy a lineshape needs: the output reach and the
    multi-phonon support omega_max * max(10 S, 10, n), with n the replica
    count past which the Poisson tail of weight is below _REPLICA_TAIL.

    n exceeds 10 S only for S below about 1.7 (n = 14 at S = 1); without
    it the first replica beyond 10 quanta folds back across the Nyquist
    energy.  make_time_grid alone applies this rule, from the top of the
    spectral content and the document's total S.
    """
    term = math.exp(-s_total)  # Poisson weight of n replicas, from n = 0
    left = 1.0 - term
    n = 0
    # e^{-S} underflows past S = 745, where 10 S covers the tail anyway
    while left >= _REPLICA_TAIL and term > 0.0:
        n += 1
        term *= s_total / n
        left -= term
    return max(reach_mev, omega_max_mev * max(10.0 * s_total, 10.0, float(n)))


def _top_coupled_mev(hr: HRDecomposition) -> float:
    """Energy of the highest mode with S_k > 0 (0 when none is coupled)."""
    live = hr.sk > 0.0
    return float(hr.omegas_mev[live].max()) if np.any(live) else 0.0


def make_time_grid(
    hr: HRDecomposition,
    sigma_mev: float,
    gamma_mev: float,
    reach_mev: float = 0.0,
) -> TimeGrid:
    """Symmetric power-of-two time grid for hr's sideband, smeared by sigma
    and damped by gamma, with the length N of the FFT of S(t) on it.

    The one place the time grid's contracts are checked; no array is built.
    The spectral content tops out at the highest coupled mode + 6 sigma.
    - Step: the Nyquist step of an energy that covers the multi-phonon
      support (_nyquist_need_mev, from that top and hr's total S), the
      reach (largest |E - E_zpl| of the output window, at least 10 gamma),
      the Lorentzian tails that would fold back into that window, and 4
      times the top.  A step of 0, from a Nyquist energy past the float
      range, is refused (InputError).
    - N: the smallest power of two with D = 2 pi hbar / (N dt) <= sigma/5.
      An FFT over more than MAX_TIME_POINTS is refused (InputError).
    - Span: min(25 hbar/gamma, _SIDEBAND_SPAN hbar/sigma), past which
      G(t) - e^{-S} is below 1e-13 S; n is the smallest power of two, at
      least 16, covering twice it.  N dt >= 10 pi hbar/sigma is over twice
      2 _SIDEBAND_SPAN hbar/sigma, so n <= N/2, and the grid ends before
      S(t) sampled at step D recurs, from hbar (2 pi/D - _SIDEBAND_SPAN/sigma).
    The grid records N but not gamma or the reach: emission builds it from
    the flags whose window and gamma lineshape then evaluates, so the two
    cannot differ.  gamma > 0 is resolve_window's to check.
    """
    top = _top_coupled_mev(hr) + 6.0 * sigma_mev
    reach = max(reach_mev, 10.0 * gamma_mev)
    need = _nyquist_need_mev(top, hr.total, reach)
    # Lorentzian tails beyond the Nyquist energy fold back into the output
    # window; push the Nyquist energy out until the folded weight over the
    # window stays below ~2e-6 in L1
    need = max(need, math.sqrt(2.0 * reach * gamma_mev / (math.pi * 2e-6)))
    need = max(need, 4.0 * top)
    dt = math.pi * units.HBAR_MEV_FS / need
    if not dt > 0:
        raise InputError(
            f"a reach of {reach:.4g} meV (--window from --zpl, or 10 --gamma) "
            "has no finite time step"
        )
    # N >= fft_cells keeps the spectral step D = 2 pi hbar / (N dt) <= sigma/5
    fft_cells = 2.0 * math.pi * units.HBAR_MEV_FS / (dt * sigma_mev / 5.0)
    if not fft_cells <= MAX_TIME_POINTS:
        raise InputError(
            f"sigma {sigma_mev:.4g} meV (--sigma) at time step {dt:.4g} fs "
            f"needs an FFT of S(t) over more than the {MAX_TIME_POINTS} points allowed"
        )
    fft_size = 1 << (math.ceil(fft_cells) - 1).bit_length()
    span = min(
        25.0 * units.HBAR_MEV_FS / gamma_mev,
        _SIDEBAND_SPAN * units.HBAR_MEV_FS / sigma_mev,
    )
    n = 1 << max(4, int(math.ceil(math.log2(2.0 * span / dt))))
    # -t[0] and t[-1] of the points (arange(n) - n // 2) * dt, rounded alike
    half_span, last = (n // 2) * dt, (n - 1 - n // 2) * dt
    return TimeGrid(n, (last + half_span) / (n - 1), fft_size)


def generating_function(density, grid: TimeGrid) -> np.ndarray:
    """G(t) = exp(S(t) - S(0)) on grid, S(t) the quadrature Fourier transform.

    density is spectral_density's (lo_mev, step, values) at the grid's
    spectral step D, as emission samples it (not re-checked here): then
    D dt N = 2 pi hbar, and S(t_j) = sum_i c_i e^{-i w_i t_j} at
    w_i = w_0 + i D / hbar is e^{-i w_0 t_j} times entry j of one real FFT
    of the quadrature weights c_i, w_0 = lo_mev / hbar.  Returns the complex
    G at the grid's times t = j dt >= 0 alone, j < n - n // 2 <= N / 2 as
    make_time_grid sizes N; G(-t) = conj G(t) needs no samples.  The
    identically-zero S(0) - S(0) is pinned, keeping G(0) = 1 exact; the one
    place G is made checks |G| <= 1 within 1e-9 (InputError).
    """
    lo_mev, step_mev, values = density
    coeff = step_mev * values  # trapezoid weights: halved at both ends
    coeff[[0, -1]] *= 0.5
    s0 = float(np.sum(coeff))

    n, dt = len(grid), grid.dt
    times = n - n // 2  # t = 0, dt, ..., the grid's last time
    # N D >= 8 times the top of the density, which spans at most twice it:
    # the FFT pads coeff
    s_t = np.fft.rfft(coeff, grid.fft_size)[:times]
    omega_lo = lo_mev / units.HBAR_MEV_FS
    s_t *= np.exp(-1j * omega_lo * (dt * np.arange(times)))
    diff = s_t - s0
    diff[0] = 0.0  # S(0) - S(0) is identically zero
    g = np.exp(diff)
    if np.max(np.abs(g)) > 1.0 + 1e-9:
        raise InputError("generating function magnitude exceeds 1")
    return g


def _fft_spectral_function(g, grid: TimeGrid, s_total, gamma_mev, resolution_mev):
    """Phonon sideband: the FFT of the damped bracket [G(t) - e^{-S}].

    G(-t) = conj G(t) and the damping is even in t, so the bracket is
    Hermitian and its transform real: one inverse real FFT of the bracket
    at t >= 0, generating_function's samples of G on grid, zero-padded by
    numpy to the transform size; s_total is the S of e^{-S}.  The tails
    beyond the grid are dropped, which the e^-10 check on the outer 1/16 of
    the grid bounds.

    Returns the energy step (meV, at most resolution_mev), the real
    sideband density per meV in FFT order (entry k at the released energy
    k * step, periodic in its size * step) and the zero-phonon weight e^{-S}.
    """
    n, dt = len(grid), grid.dt
    zpl_weight = math.exp(-s_total)
    # t_j = j dt on the step G was evaluated with
    bracket = g - zpl_weight
    bracket *= np.exp(-gamma_mev * dt / units.HBAR_MEV_FS * np.arange(bracket.size))
    edge = max(1, n // 16)
    tail = float(np.max(np.abs(bracket[-edge:])))
    if tail > math.exp(-_DAMPING_FLOOR):
        raise NumericalError(
            f"damped sideband still reaches {tail:.2e} at the ends of the time grid "
            f"({(n // 2) * dt:.0f} fs), above e^-{_DAMPING_FLOOR:g}"
        )
    period_fs = 2.0 * math.pi * units.HBAR_MEV_FS / resolution_mev
    size = max(n, 1 << max(0, math.ceil(math.log2(period_fs / dt))))
    # sum_j b_j exp(+i E_k t_j / hbar) with E_k = k * step, b_{-j} = conj b_j
    a = np.fft.irfft(bracket, size)
    a *= size * dt / (2.0 * math.pi * units.HBAR_MEV_FS)
    step = 2.0 * math.pi * units.HBAR_MEV_FS / (size * dt)
    integral = step * float(np.sum(a)) + zpl_weight
    if abs(integral - 1.0) > 1e-6:
        raise NumericalError(
            f"spectral function integral {integral!r} deviates from 1 by > 1e-6"
        )
    return step, a, zpl_weight


def _periodic_spline(y, step, x):
    """Interpolating cubic spline through y[j] at j * step, evaluated at x.

    y is one period of periodic samples, so node indices wrap.  Only the
    B-spline coefficients of the nodes next to x are formed, at a cost
    that follows the span of x, not the size of y.
    """
    u = np.asarray(x, dtype=float) / step
    i = np.floor(u)
    t = u - i
    i = i.astype(np.int64)
    lo, hi = int(i.min()), int(i.max())
    # coef[j] is the coefficient of node lo - 1 + j
    nodes = np.arange(lo - 1 - _SPLINE_TAPS, hi + 3 + _SPLINE_TAPS) % y.size
    coef = np.convolve(y[nodes], _SPLINE_PREFILTER, mode="valid")
    j = i - lo
    s = 1.0 - t
    return (
        coef[j] * (s * s * s)
        + coef[j + 1] * (4.0 - 3.0 * t * t * (1.0 + s))
        + coef[j + 2] * (4.0 - 3.0 * s * s * (1.0 + t))
        + coef[j + 3] * (t * t * t)
    ) / 6.0


def resolve_window(
    hr: HRDecomposition, zpl_ev, gamma_mev, sigma_mev, window_ev=None
) -> Tuple[float, float]:
    """Output window (lo, hi) in eV of spectrum and oracle: window_ev when
    given, otherwise S + 6 sqrt(S) + 4 quanta of the top coupled mode plus
    50 gamma + 6 sigma below the ZPL, 50 gamma + 6 sigma above it, with the
    low end clamped at 1 meV.  sigma may be 0, as for oracle's pure
    Lorentzians.

    Both subcommands call it first, and it alone checks their flags zpl > 0,
    gamma > 0 and sigma >= 0 (InputError naming the flag), a given window
    too.
    """
    if not zpl_ev > 0:
        raise InputError(f"zpl {zpl_ev:g} eV (--zpl) must be positive")
    if not gamma_mev > 0:
        raise InputError(f"gamma {gamma_mev:g} meV (--gamma) must be positive")
    if not sigma_mev >= 0:
        raise InputError(f"sigma {sigma_mev:g} meV (--sigma) must not be negative")
    if window_ev is not None:
        return window_ev
    zpl_mev = zpl_ev * 1000.0
    cover = hr.total + 6.0 * math.sqrt(max(hr.total, 0.0)) + 4.0
    below = _top_coupled_mev(hr) * cover + 50.0 * gamma_mev + 6.0 * sigma_mev
    above = 50.0 * gamma_mev + 6.0 * sigma_mev
    return max(zpl_mev - below, 1.0) / 1000.0, (zpl_mev + above) / 1000.0


def energy_grid(window_ev, step_mev, gamma_mev):
    """(meV, eV) output energies on window_ev at step_mev: output_grid of
    the window's ends in meV, and it over 1000, the grid that lineshape and
    oracle both evaluate on.

    The one check of the output grid, InputError naming the flag: a step
    above 0, a non-empty window and at most MAX_OUTPUT_POINTS points
    (output_grid), a step of at most gamma within 1e-9, and at least two
    points, which print apart at %.9g.  Sampled at a step above its
    half-width gamma, the zero-phonon line's area depends on where the
    samples fall.
    """
    if step_mev > gamma_mev * (1.0 + 1e-9):
        raise InputError(
            f"output step {step_mev:g} meV (--step) exceeds gamma {gamma_mev:g} meV "
            "(--gamma) and would undersample the zero-phonon line"
        )
    lo_mev, hi_mev = window_ev[0] * 1000.0, window_ev[1] * 1000.0
    energy_mev = output_grid(lo_mev, hi_mev, step_mev, "--step", "--window")
    if energy_mev.size < 2:
        raise InputError(
            f"range {lo_mev:g} to {hi_mev:g} meV (--window) at step {step_mev:g} meV "
            "(--step) holds one output point; at least 2 are needed"
        )
    energy_ev = energy_mev / 1000.0
    lo, hi = energy_ev[[0, -2]], energy_ev[[1, -1]]  # neighbours where %.9g is coarsest
    if np.any(hi - lo <= tsv_rounding(lo) + tsv_rounding(hi)):
        raise InputError(
            f"range {lo_mev:g} to {hi_mev:g} meV (--window) at step {step_mev:g} meV "
            "(--step) prints neighbouring energies alike at 9 significant digits"
        )
    return energy_mev, energy_ev


def _reach_mev(zpl_ev, window_ev):
    """Largest |E - E_zpl| of the window, in meV."""
    zpl_mev = zpl_ev * 1000.0
    return max(zpl_mev - window_ev[0] * 1000.0, abs(window_ev[1] * 1000.0 - zpl_mev))


def emission(
    hr: HRDecomposition, zpl_ev, gamma_mev, sigma_mev, window_ev, step_mev, omega_cubed
) -> Lineshape:
    """Emission lineshape of a coupling document: the whole spectrum pipeline.

    Refuses what the generating-function route adds to resolve_window's
    checks: sigma <= 0, and with omega_cubed a window reaching 0 eV.  Then
    builds, and so checks, the output grid (energy_grid) before any FFT
    work, then the sigma-bounded time grid whose Nyquist energy covers the
    multi-phonon support and the window's reach from the ZPL, smears the
    sticks into S(hw) at the grid's spectral step, then G(t) and the
    lineshape on the output grid.
    """
    if not sigma_mev > 0:
        raise InputError(f"sigma {sigma_mev:g} meV (--sigma) must be positive")
    if omega_cubed and not window_ev[0] > 0:
        raise InputError(
            f"window {window_ev[0]:g}:{window_ev[1]:g} eV (--window) must "
            "stay above 0 eV unless --no-omega-cubed is given"
        )
    energy = energy_grid(window_ev, step_mev, gamma_mev)
    reach = _reach_mev(zpl_ev, window_ev)
    grid = make_time_grid(hr, sigma_mev, gamma_mev, reach)
    density = spectral_density(hr, sigma_mev, grid.spectral_step_mev)
    g = generating_function(density, grid)
    return lineshape(
        g, grid, hr.total, zpl_ev, gamma_mev, sigma_mev, omega_cubed, window_ev, energy
    )


def lineshape(
    g, grid: TimeGrid, s_total, zpl_ev, gamma_mev, sigma_mev, omega_cubed, window_ev, energy
) -> Lineshape:
    """Normalized emission lineshape from generating_function's G(t) on
    grid and the total S of the zero-phonon weight e^{-S}.

    A(E_zpl - hw) is the transform of G(t) e^{-gamma|t|/hbar}: the
    zero-phonon Lorentzian e^{-S} (gamma/pi) / (hw^2 + gamma^2) in closed
    form plus the real inverse FFT of the t >= 0 half of the damped bracket
    [G(t) - e^{-S}] (the bracket is Hermitian), zero-padded to an energy
    step of max(sigma, gamma)/16 and splined onto the output grid energy,
    the (meV, eV) pair that energy_grid built and checked from window_ev,
    the step and gamma; window_ev is only named in an InputError.  emission,
    the one caller, has checked sigma and the omega_cubed window and built
    grid for gamma and a reach covering the window; neither is re-checked.
    A window that captures less than 0.1% of A is an InputError.  The
    emission intensity E^3 * A (or A with omega_cubed off) is divided by its
    trapezoid integral, positive since E > 0.
    """
    zpl_mev = zpl_ev * 1000.0
    energy_mev, energy_ev = energy

    fft_step, sideband, zpl_weight = _fft_spectral_function(
        g, grid, s_total, gamma_mev, max(sigma_mev, gamma_mev) / 16.0
    )
    released = zpl_mev - energy_mev
    a_win = _periodic_spline(sideband, fft_step, released) + zpl_weight * (
        gamma_mev / math.pi
    ) / (released * released + gamma_mev * gamma_mev)
    low = float(np.min(a_win))
    if low < -1e-9:
        raise NumericalError(
            f"windowed intensity dips to {low:.3e}, below the floor -1e-9"
        )
    a_win = np.clip(a_win, 0.0, None)
    if float(np.trapezoid(a_win, energy_mev)) < 1e-3:
        raise InputError(
            f"window [{window_ev[0]}, {window_ev[1]}] eV captures less than 0.1% of the emission"
        )
    weighted = a_win * (energy_ev**3 if omega_cubed else 1.0)
    norm = float(np.trapezoid(weighted, energy_ev))
    return Lineshape(energy_ev, weighted / norm)


@dataclass(frozen=True)
class PeakLabel:
    """One labelled sideband replica: offset below the ZPL and its mode."""

    offset_mev: float
    sk: float
    mode_index: int
    energy_ev: float


def effective_mode_report(
    hr: HRDecomposition,
    ls: Lineshape,
    zpl_ev: float,
    gamma_mev: float,
    lvm_indices: Optional[Sequence[int]] = None,
) -> List[PeakLabel]:
    """Label sideband maxima with the strongest-coupling matching modes.

    zpl_ev and gamma_mev are those ls was computed for.  Local maxima of
    the intensity below the ZPL are matched against modes (optionally
    restricted to a list of indices, e.g. the LVMs) whose energy lies
    within max(3 gamma, 5 meV) of the peak offset; among the candidates
    the largest S_k wins.  Modes with S_k < 1e-4 never label a
    peak.  Returned sorted by S_k, strongest first.
    """
    eligible = hr.sk >= LABEL_SK_FLOOR
    if lvm_indices is not None:
        listed = np.zeros(hr.nmodes, dtype=bool)
        listed[np.asarray(lvm_indices, int)] = True
        eligible &= listed
    candidates = np.flatnonzero(eligible)
    omegas = hr.omegas_mev[candidates]
    sks = hr.sk[candidates]
    free = np.ones(candidates.size, dtype=bool)
    match_tol_mev = max(3.0 * gamma_mev, 5.0)
    e = ls.energy_ev
    y = ls.intensity
    below = e < zpl_ev - 2.0 * gamma_mev / 1000.0
    interior = np.zeros(e.size, dtype=bool)
    interior[1:-1] = (y[1:-1] >= y[2:]) & (y[1:-1] > y[:-2])
    peaks = np.nonzero(interior & below)[0]
    peaks = peaks[np.argsort(y[peaks], kind="stable")[::-1]]

    labels: List[PeakLabel] = []
    for p in peaks:
        offset = (zpl_ev - e[p]) * 1000.0
        near = free & (np.abs(omegas - offset) <= match_tol_mev)
        if not near.any():
            continue
        # candidates ascend by index, so argmax breaks S_k ties to the lowest
        best = int(np.argmax(np.where(near, sks, -np.inf)))
        free[best] = False
        k = int(candidates[best])
        labels.append(PeakLabel(offset, float(hr.sk[k]), k, float(e[p])))
    labels.sort(key=lambda pl: -pl.sk)
    return labels
