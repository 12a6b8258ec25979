"""Unit conventions and physical constants.

Internal units everywhere: energies in eV (totals) or meV (phonons),
lengths in Angstrom, masses in amu, times in fs.  Every module pulls its
constants from this table; nothing else in the package hardcodes a
conversion factor.
"""

from __future__ import annotations

import numpy as np

# hbar in meV*fs (CODATA 6.582119569e-16 eV*s)
HBAR_MEV_FS = 658.2119569

# 1 eV/(amu*A^2) expressed in (rad/fs)^2; converts mass-weighted Hessian
# eigenvalues to squared angular frequencies.
EV_PER_AMU_A2 = 9.64853322e-3

# hbar in amu*A^2/fs (action units matching q_k in amu^1/2 * A)
HBAR_AMU_A2_FS = HBAR_MEV_FS * 1e-3 * EV_PER_AMU_A2

#: Modes with |omega| at or below this (meV) are treated as rigid
#: translations and rotations.
ZERO_MODE_MEV = 0.01

# e^2/(4 pi eps0) in eV*A
COULOMB_EV_A = 14.399645478

# Madelung constant of a simple-cubic point-charge lattice with
# neutralizing background (leading-order image-charge correction).
MADELUNG_SC = 2.8373

# Isotope-averaged atomic masses in amu, used when an input document
# omits explicit masses.
ATOMIC_MASS_AMU = {
    "H": 1.008,
    "He": 4.0026,
    "B": 10.81,
    "C": 12.011,
    "N": 14.007,
    "O": 15.999,
    "F": 18.998,
    "Al": 26.982,
    "Si": 28.085,
    "P": 30.974,
    "S": 32.06,
    "Ge": 72.63,
}


def omega_radfs(hbar_omega_mev):
    """Angular frequency in rad/fs from a phonon energy in meV."""
    return np.asarray(hbar_omega_mev, dtype=float) / HBAR_MEV_FS


def hbar_omega_from_eigenvalue(lam_ev_amu_a2):
    """Signed phonon energy in meV from a mass-weighted Hessian eigenvalue.

    Negative eigenvalues (imaginary modes) map to negative meV.
    """
    lam = np.asarray(lam_ev_amu_a2, dtype=float)
    return np.sign(lam) * HBAR_MEV_FS * np.sqrt(np.abs(lam) * EV_PER_AMU_A2)


def eigenvalue_from_hbar_omega(hbar_omega_mev):
    """Inverse of :func:`hbar_omega_from_eigenvalue` (eV/(amu*A^2))."""
    w = np.asarray(hbar_omega_mev, dtype=float)
    return np.sign(w) * (w / HBAR_MEV_FS) ** 2 / EV_PER_AMU_A2
