"""Shared synthetic systems and independent oracles used across the suite.

Everything here is deliberately built from first principles (springs,
Poisson factors, window integrals) so the tests never reuse the code paths
they are checking.
"""

import importlib.util
import math
import os
import pathlib

import numpy as np
from scipy.special import voigt_profile

from lumiphon.model import CrystalStructure


def examples(n):
    """max_examples of a generated test that draws n examples in tier-1:
    ten times n under HYPOTHESIS_PROFILE=explore (tests/conftest.py)."""
    return 10 * n if os.environ.get("HYPOTHESIS_PROFILE") == "explore" else n


def _load_demo_inputs_script():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_demo_inputs.py"
    spec = importlib.util.spec_from_file_location("make_demo_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# spring_hessian(positions, springs): the demo inputs' spring network, which
# the benchmark's supercells use too
spring_hessian = _load_demo_inputs_script().spring_network


def isotropic_pair_hessian(k):
    """Two atoms coupled by an isotropic spring: 3 zero + 3 stretch modes."""
    eye = np.eye(3)
    h = np.zeros((6, 6))
    h[:3, :3] = k * eye
    h[3:, 3:] = k * eye
    h[:3, 3:] = -k * eye
    h[3:, :3] = -k * eye
    return h


def random_cluster_structure(natoms, seed, species=("C", "Si")):
    """Random jittered-grid cluster with all-pairs springs."""
    rng = np.random.default_rng(seed)
    side = int(math.ceil(natoms ** (1.0 / 3.0)))
    grid = np.array(
        [[i, j, k] for i in range(side) for j in range(side) for k in range(side)],
        dtype=float,
    )[:natoms]
    positions = 2.2 * grid + rng.uniform(-0.25, 0.25, size=(natoms, 3))
    names = [species[i % len(species)] for i in range(natoms)]
    masses = [12.011 if s == "C" else 28.085 for s in names]
    lattice = np.eye(3) * (2.2 * side + 10.0)
    structure = CrystalStructure(lattice, tuple(names), masses, positions)
    springs = [
        (a, b, float(rng.uniform(1.0, 8.0)))
        for a in range(natoms)
        for b in range(a + 1, natoms)
    ]
    return structure, spring_hessian(positions, springs)


def hessian_of(d, structure):
    """The Hessian M^1/2 D M^1/2 of the dynamical matrix d: forces of a
    displacement on the system d describes."""
    sq = np.sqrt(structure.mass_vector_3n())
    return d * np.outer(sq, sq)


def poisson_weight(s, n):
    return math.exp(-s) * s**n / math.factorial(n)


def extract_peak_weights(
    energy_ev, intensity, zpl_ev, omega_mev, gamma_mev, sigma_mev, nmax
):
    """Recover replica weights from a broadened single-mode spectrum.

    Window integrals of the computed spectrum are matched against the
    analytic window integrals of unit-mass Voigt profiles (Gaussian width
    sqrt(n)*sigma, Lorentzian half-width gamma), which undoes both the
    finite window overlap between neighbouring Lorentzians and the output
    renormalization.  Returned weights sum to one.
    """
    energy_mev = np.asarray(energy_ev) * 1000.0
    zpl_mev = zpl_ev * 1000.0
    centers = zpl_mev - omega_mev * np.arange(nmax + 1)
    half = omega_mev / 2.0
    b = np.zeros(nmax + 1)
    m = np.zeros((nmax + 1, nmax + 1))
    for j, c in enumerate(centers):
        sel = (energy_mev >= c - half) & (energy_mev <= c + half)
        b[j] = np.trapezoid(np.asarray(intensity)[sel] / 1000.0, energy_mev[sel])
        x = np.arange(c - half, c + half + 1e-9, 0.01)
        for n, cn in enumerate(centers):
            width = sigma_mev * math.sqrt(n) if n > 0 else 1e-12
            m[j, n] = np.trapezoid(voigt_profile(x - cn, width, gamma_mev), x)
    weights = np.linalg.solve(m, b)
    return weights / weights.sum()


def first_moment_mev(ladder):
    """Mean phonon energy released per emission event of an fcoracle ladder
    (the Stokes shift): the reference of first moment = sum S_k omega_k."""
    wsum = math.fsum(ladder.weights.tolist())
    return float(np.dot(ladder.weights, ladder.energies_mev) / wsum)


def lorentzian_ev(x_ev, center_ev, gamma_mev):
    g = gamma_mev / 1000.0
    return (g / math.pi) / ((x_ev - center_ev) ** 2 + g * g)


HBAR_MEV_FS = 658.2119569  # hbar in meV fs (CODATA 2018), kept apart from lumiphon.units


def recurrence_free_spectrum(
    omegas_mev, sks, zpl_ev, gamma_mev, sigma_mev, energy_ev, bin_mev, size=1 << 18
):
    """Zero-temperature A(E) per meV at energy_ev, with no quadrature in S(t).

    S(t) = exp(-sigma^2 t^2 / 2 hbar^2) sum_k S_k exp(-i w_k t / hbar) is the
    exact transform of the Gaussian-smeared sticks, so it never recurs.  The
    damped G(t) = exp(S(t) - S) e^{-gamma|t|/hbar}, zero-phonon line included,
    goes through one FFT of `size` points on energy bins bin_mev apart;
    every released energy zpl - E must be a whole number of bins.
    """
    sks = np.asarray(sks, dtype=float)
    dt = 2.0 * math.pi * HBAR_MEV_FS / (size * bin_mev)
    t = dt * np.arange(size // 2 + 1)
    s_t = np.zeros(t.size, dtype=complex)
    for w, s in zip(omegas_mev, sks):
        s_t += s * np.exp(-1j * w * t / HBAR_MEV_FS)
    s_t *= np.exp(-0.5 * (sigma_mev * t / HBAR_MEV_FS) ** 2)
    g = np.exp(s_t - sks.sum() - gamma_mev * t / HBAR_MEV_FS)
    g = np.concatenate((g, np.conj(g[-2:0:-1])))  # G(-t) = conj G(t)
    a = np.fft.ifft(g).real * size * dt / (2.0 * math.pi * HBAR_MEV_FS)
    bins = (zpl_ev - np.asarray(energy_ev)) * 1000.0 / bin_mev
    k = np.rint(bins).astype(int)
    assert np.max(np.abs(bins - k)) < 1e-3, "energies must fall on the bins"
    return a[k % size]
