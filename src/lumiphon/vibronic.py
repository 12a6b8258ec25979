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
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import units
from .errors import (
    AliasedGrid,
    DimensionMismatch,
    GridTooNarrow,
    ImaginaryModePresent,
    InputError,
    NegativeFrequency,
    NonPositiveGamma,
    NumericalError,
    ZeroFrequencyModeWarning,
)
from .model import (
    ForceDelta,
    GeneratingFunction,
    GeometryPair,
    HRDecomposition,
    Lineshape,
    LineshapeConfig,
    PhononBasis,
    SpectralDensity,
    TimeGrid,
    _require_step_within_gamma,
)
from .units import ZERO_MODE_MEV

#: Modes with S_k below this are left out of peak labelling.
LABEL_SK_FLOOR = 1e-4

#: Smallest FFT block of the chirp-z convolution.
_CZT_BLOCK = 1 << 16

#: |G(t) - e^{-S}| <= |S(t)| <= S exp(-sigma^2 t^2 / 2 hbar^2), which falls
#: below 1e-13 S past this many hbar/sigma.
_SIDEBAND_SPAN = math.sqrt(2.0 * math.log(1e13))

#: The multi-phonon support of the time step covers every replica until
#: the Poisson weight beyond it is below this.
_REPLICA_TAIL = 1e-12

#: Largest block of Gaussian rows spectral_density sums at once, in float64.
_DENSITY_BLOCK = 1 << 18

#: Largest time grid make_time_grid accepts: 128 MB per float array over it.
MAX_TIME_POINTS = 1 << 24

#: The damped sideband must be below e^{-_DAMPING_FLOOR} where the time
#: grid ends and where a recurrence of the spectral quadrature begins.
_DAMPING_FLOOR = 10.0

# Cubic B-spline interpolation: the coefficients are the samples filtered
# by the inverse of (1, 4, 1)/6, whose taps are sqrt(3) z1^|j| with
# z1 = sqrt(3) - 2; past 28 taps they fall below 1e-16.
_SPLINE_TAPS = 28
_SPLINE_PREFILTER = math.sqrt(3.0) * (math.sqrt(3.0) - 2.0) ** np.abs(
    np.arange(-_SPLINE_TAPS, _SPLINE_TAPS + 1)
)


def _masses_3n(masses, dim):
    m = np.asarray(masses, dtype=float)
    if m.size * 3 == dim:
        m = np.repeat(m, 3)
    if m.shape != (dim,):
        raise DimensionMismatch(f"got {np.asarray(masses).size} masses for 3N = {dim}")
    if np.any(m <= 0):
        raise InputError("masses must be positive")
    return m


def _reject_imaginary(basis: PhononBasis):
    bad = np.nonzero(basis.omegas_mev < -ZERO_MODE_MEV)[0]
    if bad.size:
        raise ImaginaryModePresent(
            f"basis has {bad.size} imaginary mode(s), first at index {int(bad[0])} "
            f"({basis.omegas_mev[bad[0]]:.3f} meV)"
        )


def qk_from_displacement(basis: PhononBasis, pair: GeometryPair, masses) -> np.ndarray:
    """Per-mode displacements q_k = sum sqrt(m) * dR . e_k, in amu^1/2 A."""
    _reject_imaginary(basis)
    m3 = _masses_3n(masses, basis.nmodes)
    if pair.natoms * 3 != basis.nmodes:
        raise DimensionMismatch(
            f"pair has {pair.natoms} atoms but basis expects {basis.natoms}"
        )
    weighted = np.sqrt(m3) * pair.delta.reshape(-1)
    return basis.vectors @ weighted


def qk_from_forces(basis: PhononBasis, force_delta: ForceDelta, masses) -> np.ndarray:
    """q_k from the force change at fixed geometry.

    q_k = (1/lambda_k) * sum (F_e - F_g) / sqrt(m) . e_k with lambda_k the
    mass-weighted Hessian eigenvalue, so a harmonic force change H*dR gives
    exactly the displacement-route q_k.  Rigid-translation modes cannot
    carry a finite displacement this way; they are excluded, with a warning
    if their projection is not negligible.
    """
    _reject_imaginary(basis)
    m3 = _masses_3n(masses, basis.nmodes)
    if force_delta.values.shape[0] != basis.nmodes:
        raise DimensionMismatch(
            f"force delta has {force_delta.natoms} atoms but basis expects {basis.natoms}"
        )
    proj = basis.vectors @ (force_delta.values / np.sqrt(m3))
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
    their q_k is kept.
    """
    q = np.asarray(qk, dtype=float)
    w = np.asarray(omegas_mev, dtype=float)
    if q.shape != w.shape or q.ndim != 1:
        raise DimensionMismatch("qk and omegas must be matching 1-d arrays")
    if np.any(w < -ZERO_MODE_MEV):
        i = int(np.argwhere(w < -ZERO_MODE_MEV)[0][0])
        raise NegativeFrequency(f"omega[{i}] = {w[i]:.4f} meV is negative")
    w_clamped = np.clip(w, 0.0, None)
    sk = units.omega_radfs(w_clamped) * q * q / (2.0 * units.HBAR_AMU_A2_FS)
    sk[w_clamped <= ZERO_MODE_MEV] = 0.0
    order = np.argsort(w_clamped, kind="stable")
    sk_sorted = sk[order]
    return HRDecomposition(
        w_clamped[order], q[order], sk_sorted, math.fsum(sk_sorted.tolist())
    )


def spectral_density(
    hr: HRDecomposition, sigma_mev: float, grid_mev: Optional[np.ndarray] = None
) -> SpectralDensity:
    """Smear the stick decomposition with Gaussians of width sigma.

    The grid (auto-built if omitted) must span every contributing mode by
    at least 6 sigma on each side so the integral reproduces the total.
    """
    if sigma_mev <= 0:
        raise InputError(f"sigma must be positive, got {sigma_mev}")
    live = hr.sk > 0.0
    omegas = hr.omegas_mev[live]
    sks = hr.sk[live]
    if omegas.size == 0:
        grid = np.arange(0.0, 12.0 * sigma_mev, sigma_mev / 5.0)
        return SpectralDensity(grid, np.zeros_like(grid), sigma_mev, 0.0)
    lo_req = float(omegas.min() - 6.0 * sigma_mev)
    hi_req = float(omegas.max() + 6.0 * sigma_mev)
    if grid_mev is None:
        step = sigma_mev / 5.0
        n = int(math.ceil((hi_req - lo_req) / step)) + 1
        grid = lo_req + step * np.arange(n)
    else:
        grid = np.asarray(grid_mev, dtype=float)
        if grid[0] > lo_req or grid[-1] < hi_req:
            raise GridTooNarrow(
                f"grid [{grid[0]}, {grid[-1]}] must span [{lo_req}, {hi_req}] meV"
            )
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
    return SpectralDensity(grid, vals, sigma_mev, float(math.fsum(sks.tolist())))


def _nyquist_need_mev(omega_max_mev, s_total, reach_mev):
    """Nyquist energy a lineshape needs: the output reach and the
    multi-phonon support omega_max * max(10 S, 10, n), with n the replica
    count past which the Poisson tail of weight is below _REPLICA_TAIL.

    n exceeds 10 S only for S below about 1.7 (n = 14 at S = 1); without
    it the first replica beyond 10 quanta folds back across the Nyquist
    energy.  make_time_grid alone applies this rule, from the top of the
    spectral-density grid and its total S.
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


def make_time_grid(
    sd: SpectralDensity,
    gamma_mev: float,
    reach_mev: float = 0.0,
    time_step_fs: Optional[float] = None,
    time_span_fs: Optional[float] = None,
) -> TimeGrid:
    """Symmetric power-of-two time grid for the sideband of sd damped by gamma.

    The one place the time grid's contracts are checked; no array is built.
    - Step: the Nyquist energy covers the multi-phonon support of sd
      (_nyquist_need_mev, from sd's top energy and total S), the reach
      (largest |E - E_zpl| of the output window, at least 10 gamma), the
      Lorentzian tails that would fold back into that window, and 4 times
      sd's top energy.  A coarser time_step_fs is refused (AliasedGrid).
    - Span: min(25 hbar/gamma, _SIDEBAND_SPAN hbar/sigma), past which
      G(t) - e^{-S} is below 1e-13 S; time_span_fs overrides it.  More than
      MAX_TIME_POINTS points are refused (InputError).
    - Recurrence: on sd's spectral grid of step D, S(t) recurs from
      hbar (2 pi / D - _SIDEBAND_SPAN / sigma); a grid reaching past that
      onset is refused (AliasedGrid) unless gamma damps it below
      e^-_DAMPING_FLOOR there.
    The grid records gamma and the reach it was built for; lineshape
    refuses a config with another gamma or a window reaching further.
    """
    if gamma_mev <= 0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma_mev}")
    reach = max(reach_mev, 10.0 * gamma_mev)
    need = _nyquist_need_mev(sd.omega_max_mev, sd.total, reach)
    # Lorentzian tails beyond the Nyquist energy fold back into the output
    # window; push the Nyquist energy out until the folded weight over the
    # window stays below ~2e-6 in L1
    need = max(need, math.sqrt(2.0 * reach * gamma_mev / (math.pi * 2e-6)))
    need = max(need, 4.0 * sd.omega_max_mev)
    dt_nyquist = math.pi * units.HBAR_MEV_FS / need
    dt = time_step_fs if time_step_fs is not None else dt_nyquist
    if dt <= 0:
        raise InputError(f"time step must be positive, got {dt}")
    if dt > dt_nyquist * (1.0 + 1e-12):
        raise AliasedGrid(
            f"time step {dt:.4f} fs (--time-step) too coarse; need <= {dt_nyquist:.4f} fs"
        )
    span = min(
        25.0 * units.HBAR_MEV_FS / gamma_mev,
        _SIDEBAND_SPAN * units.HBAR_MEV_FS / sd.sigma_mev,
    )
    if time_span_fs is not None:
        span = time_span_fs
    if span <= 0:
        raise InputError(f"time span must be positive, got {span}")
    cells = 2.0 * span / dt
    if not cells <= MAX_TIME_POINTS:  # NaN and inf fail too
        raise InputError(
            f"time span {span:.6g} fs (--time-span) at step {dt:.4g} fs (--time-step) "
            f"needs more than the {MAX_TIME_POINTS} time points allowed"
        )
    n = 1 << max(4, int(math.ceil(math.log2(cells))))
    # -t[0] and t[-1] of the points (arange(n) - n // 2) * dt, rounded alike
    half_span, last = (n // 2) * dt, (n - 1 - n // 2) * dt
    onset = units.HBAR_MEV_FS * (2.0 * math.pi / sd.step_mev - _SIDEBAND_SPAN / sd.sigma_mev)
    if half_span > onset and gamma_mev * onset / units.HBAR_MEV_FS < _DAMPING_FLOOR:
        raise AliasedGrid(
            f"time span {half_span:.0f} fs (--time-span) reaches the recurrence of the "
            f"spectral quadrature at {onset:.0f} fs, where damping by gamma = "
            f"{gamma_mev:g} meV leaves more than e^-{_DAMPING_FLOOR:g}"
        )
    return TimeGrid(n, (last + half_span) / (n - 1), gamma_mev, reach)


def _chirp_z(x, m, w):
    """sum_j x[j] w^(j k) for k = 0 .. m-1, by Bluestein's algorithm.

    The chirp w^(k^2/2) turns the sum into a convolution with 1/chirp
    (Rabiner, Schafer and Rader, Bell Syst. Tech. J. 48, 1249 (1969)).  The
    convolution runs overlap-save in FFT blocks of at least _CZT_BLOCK
    points, which stay in cache where one FFT over all m points does not.
    """
    n = x.size
    k = np.arange(max(m, n))
    chirp = w ** (k**2 / 2.0)
    size = 1 << (min(max(_CZT_BLOCK, 4 * n), n + m - 1) - 1).bit_length()
    step = size - n + 1  # outputs per block
    blocks = -(-m // step)
    kernel = np.zeros(blocks * step + n - 1, dtype=complex)
    kernel[: n + m - 1] = 1.0 / np.concatenate((chirp[n - 1 : 0 : -1], chirp[:m]))
    segments = np.lib.stride_tricks.sliding_window_view(kernel, size)[::step]
    y = np.fft.ifft(np.fft.fft(segments) * np.fft.fft(x * chirp[:n], size))
    return y[:, n - 1 :].reshape(-1)[:m] * chirp[:m]


def generating_function(sd: SpectralDensity, grid: TimeGrid) -> GeneratingFunction:
    """G(t) = exp(S(t) - S(0)) on grid, S(t) the quadrature Fourier transform.

    S(t) is evaluated at t = j dt for j = 0 .. n // 2 with a chirp-z
    transform and mirrored through S(-t) = conj(S(t)), so time reversal
    holds exactly; the identically-zero difference at t = 0 is pinned,
    keeping G(0) = 1 exact.  make_time_grid(sd, ...) has checked the grid
    against sd: its step resolves sd's top energy, and its span stays clear
    of the quadrature's recurrence unless the damping covers it.
    """
    weights = np.full(sd.grid_mev.size, sd.step_mev)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    coeff = weights * sd.values
    s0 = float(np.sum(coeff))

    n, dt = len(grid), grid.dt
    i0 = n // 2
    half = i0 + 1  # t = 0, dt, ..., i0 dt covers both wings
    omega_lo = float(sd.grid_mev[0]) / units.HBAR_MEV_FS
    dw = sd.step_mev / units.HBAR_MEV_FS
    t_half = dt * np.arange(half)
    # sum_i coeff_i exp(-i w_i t_j): chirp-z over the uniform spectral grid
    s_half = np.exp(-1j * omega_lo * t_half) * _chirp_z(
        coeff, half, complex(math.cos(dw * dt), -math.sin(dw * dt))
    )
    diff_half = s_half - s0
    diff_half[0] = 0.0  # S(0) - S(0) is identically zero
    g_half = np.exp(diff_half)

    vals = np.empty(n, dtype=complex)
    vals[i0:] = g_half[: n - i0]
    np.conjugate(g_half[i0::-1], out=vals[: i0 + 1])
    return GeneratingFunction(grid, vals, sd.total)


def _fft_spectral_function(gf: GeneratingFunction, gamma_mev: float, resolution_mev: float):
    """Phonon sideband: the FFT of the damped bracket [G(t) - e^{-S}].

    G is Hermitian and the damping even in t, so the bracket is too and its
    transform is real: one inverse real FFT of the t >= 0 half, zero-padded
    by numpy to the transform size, gives it without the negative-time
    samples.  The one unpaired sample at the grid's negative end,
    t = -(n/2) dt, is dropped like the tails beyond the grid, which the
    e^-10 check on the outer 1/16 of the grid bounds.

    Returns the energy step (meV, at most resolution_mev), the real
    sideband density per meV in FFT order (entry k at the released energy
    k * step, periodic in its size * step) and the zero-phonon weight e^{-S}.
    """
    n, dt = len(gf.grid), gf.grid.dt
    zpl_weight = math.exp(-gf.s_total)
    # t = 0 sits at n // 2; t_j = j dt on the step G was evaluated with
    bracket = gf.values[n // 2 :] - zpl_weight
    bracket *= np.exp(-gamma_mev * dt / units.HBAR_MEV_FS * np.arange(bracket.size))
    edge = max(1, n // 16)
    tail = float(np.max(np.abs(bracket[-edge:])))
    if tail > math.exp(-_DAMPING_FLOOR):
        raise AliasedGrid(
            f"damped sideband still reaches {tail:.2e} at the ends of the time grid "
            f"({(n // 2) * dt:.0f} fs); lengthen it with --time-span"
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


def default_window_mev(zpl_mev, omega_max_mev, s_total, gamma_mev, sigma_mev):
    """Window wide enough for the replica ladder plus broadening tails."""
    cover = s_total + 6.0 * math.sqrt(max(s_total, 0.0)) + 4.0
    below = omega_max_mev * cover + 50.0 * gamma_mev + 6.0 * sigma_mev
    above = 50.0 * gamma_mev + 6.0 * sigma_mev
    lo = max(zpl_mev - below, 1.0)
    return lo, zpl_mev + above


def spectrum_window(hr: HRDecomposition, config: LineshapeConfig) -> Tuple[float, float]:
    """Output window (lo, hi) in eV: config.window_ev, or by default the
    default_window_mev of the largest coupled mode."""
    if config.window_ev is not None:
        return config.window_ev
    live = hr.sk > 0.0
    omega_max = float(hr.omegas_mev[live].max()) if np.any(live) else 0.0
    lo_mev, hi_mev = default_window_mev(
        config.zpl_ev * 1000.0, omega_max, hr.total, config.gamma_mev, config.sigma_mev
    )
    return lo_mev / 1000.0, hi_mev / 1000.0


def _reach_mev(zpl_ev, window_ev):
    """Largest |E - E_zpl| of the window, in meV."""
    zpl_mev = zpl_ev * 1000.0
    return max(zpl_mev - window_ev[0] * 1000.0, abs(window_ev[1] * 1000.0 - zpl_mev))


def emission(
    hr: HRDecomposition,
    config: LineshapeConfig,
    time_step_fs: Optional[float] = None,
    time_span_fs: Optional[float] = None,
) -> Lineshape:
    """Emission lineshape of a coupling document: the whole spectrum pipeline.

    Resolves the window (spectrum_window), smears the sticks into S(hw),
    builds the sigma-bounded time grid whose Nyquist energy covers the
    multi-phonon support and the window's reach from the ZPL, then G(t) and
    the lineshape.  time_step_fs and time_span_fs override the time grid,
    which make_time_grid checks.
    """
    window = spectrum_window(hr, config)
    sd = spectral_density(hr, config.sigma_mev)
    grid = make_time_grid(
        sd, config.gamma_mev, _reach_mev(config.zpl_ev, window), time_step_fs, time_span_fs
    )
    gf = generating_function(sd, grid)
    return lineshape(gf, replace(config, window_ev=window))


def lineshape(gf: GeneratingFunction, config: LineshapeConfig) -> Lineshape:
    """Normalized emission lineshape from the generating function.

    A(E_zpl - hw) is the transform of G(t) e^{-gamma|t|/hbar}: the
    zero-phonon Lorentzian e^{-S} (gamma/pi) / (hw^2 + gamma^2) in closed
    form plus the real inverse FFT of the t >= 0 half of the damped bracket
    [G(t) - e^{-S}] (the bracket is Hermitian), zero-padded to an energy
    step of max(sigma, gamma)/16 and splined onto the output grid, which
    config.window_ev must give (emission resolves a default).  gf's time
    grid must have been built (make_time_grid) for config's gamma and a
    reach covering the window, or AliasedGrid.  The output step must not
    exceed gamma, or the Lorentzian is undersampled.  The emission
    intensity E^3 * A (or A with omega_cubed off) is normalized to unit
    integral over the output window.
    """
    if config.window_ev is None:
        raise InputError("lineshape needs an output window; emission resolves the default")
    gamma = config.gamma_mev
    grid = gf.grid
    reach = _reach_mev(config.zpl_ev, config.window_ev)
    if gamma != grid.gamma_mev or reach > grid.reach_mev:
        raise AliasedGrid(
            f"time grid built for gamma {grid.gamma_mev:g} meV and reach "
            f"{grid.reach_mev:g} meV cannot give gamma {gamma:g} meV over reach "
            f"{reach:g} meV"
        )
    _require_step_within_gamma(config.step_mev, gamma)
    zpl_mev = config.zpl_ev * 1000.0
    lo_mev, hi_mev = config.window_ev[0] * 1000.0, config.window_ev[1] * 1000.0
    if config.omega_cubed and lo_mev <= 0:
        raise InputError(
            "window must stay at positive emission energies when omega_cubed is on"
        )

    fft_step, sideband, zpl_weight = _fft_spectral_function(
        gf, gamma, max(config.sigma_mev, gamma) / 16.0
    )
    npts = int(math.floor((hi_mev - lo_mev) / config.step_mev + 1e-9)) + 1
    energy_mev = lo_mev + config.step_mev * np.arange(npts)
    released = zpl_mev - energy_mev
    a_win = _periodic_spline(sideband, fft_step, released) + zpl_weight * (
        gamma / math.pi
    ) / (released * released + gamma * gamma)
    low = float(np.min(a_win))
    if low < -1e-9:
        raise NumericalError(
            f"windowed intensity dips to {low:.3e}; lengthen the time grid with --time-span"
        )
    a_win = np.clip(a_win, 0.0, None)
    if float(np.trapezoid(a_win, energy_mev)) < 1e-3:
        raise GridTooNarrow(
            f"window [{lo_mev / 1000.0}, {hi_mev / 1000.0}] eV captures less than "
            "0.1% of the emission"
        )
    energy_ev = energy_mev / 1000.0
    weighted = a_win * (energy_ev**3 if config.omega_cubed else 1.0)
    norm = float(np.trapezoid(weighted, energy_ev))
    return Lineshape(energy_ev, weighted / norm, config.zpl_ev, gamma, config.omega_cubed)


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
    lvm_indices: Optional[Sequence[int]] = None,
    match_tol_mev: Optional[float] = None,
) -> List[PeakLabel]:
    """Label sideband maxima with the strongest-coupling matching modes.

    Local maxima of the intensity below the ZPL are matched against modes
    (optionally restricted to a list of indices, e.g. the LVMs) whose
    energy lies within the match tolerance of the peak offset; among the
    candidates the largest S_k wins.  Modes with S_k < 1e-4 never label a
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
    if match_tol_mev is None:
        match_tol_mev = max(3.0 * ls.gamma_mev, 5.0)
    e = ls.energy_ev
    y = ls.intensity
    below = e < ls.zpl_ev - 2.0 * ls.gamma_mev / 1000.0
    interior = np.zeros(e.size, dtype=bool)
    interior[1:-1] = (y[1:-1] >= y[2:]) & (y[1:-1] > y[:-2])
    peaks = np.nonzero(interior & below)[0]
    peaks = peaks[np.argsort(y[peaks], kind="stable")[::-1]]

    labels: List[PeakLabel] = []
    for p in peaks:
        offset = (ls.zpl_ev - e[p]) * 1000.0
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
