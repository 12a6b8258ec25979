"""Lattice dynamics: Hessian -> phonon basis.

Pipeline: form the dynamical matrix D once, optionally project the rigid
translations out of it (acoustic sum rule), then diagonalize it.  Only
`dynamical_matrix` sees the Hessian and the masses; the later stages work
on D alone.
"""

from __future__ import annotations

import numpy as np

from . import units
from .errors import NumericalError
from .model import CrystalStructure, PhononBasis, _require_finite

#: Residual contract of the eigendecomposition, relative to ||D||.
RESIDUAL_TOL = 1e-8
#: Modes per block of diagonalize's residual check and sign orientation.
_BLOCK = 256


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """(H + H^T)/2 as a new array; idempotent, bitwise symmetric output."""
    # a+b == b+a in IEEE754, so both mirror entries come out identical;
    # an entry past the float range is refused by diagonalize
    with np.errstate(over="ignore"):
        return 0.5 * (matrix + matrix.T)


def dynamical_matrix(hessian: np.ndarray, structure: CrystalStructure) -> np.ndarray:
    """D = M^-1/2 (H + H^T)/2 M^-1/2 in eV/(amu A^2), bitwise symmetric.

    The structure alone supplies the masses; the Hessian must be its
    3N x 3N, which io.parse_hessian guarantees and is not re-checked here.
    """
    inv = 1.0 / np.sqrt(structure.mass_vector_3n())
    # a bitwise-symmetric H times outer(m^-1/2, m^-1/2) stays bitwise symmetric
    d = symmetrize(hessian)
    return np.multiply(d, np.outer(inv, inv), out=d)


def _translation_basis(masses_3n):
    """Mass-weighted rigid translations, orthonormal, shape (3, 3N)."""
    n3 = masses_3n.shape[0]
    t = np.zeros((3, n3))
    sq = np.sqrt(masses_3n)
    for j in range(3):
        t[j, j::3] = sq[j::3]
        t[j] /= np.linalg.norm(t[j])
    return t


def _orient_rows(vecs):
    """Negate, in place, each row whose first entry above 1e-12 max|row| is
    negative, _BLOCK rows at a time."""
    for s in range(0, vecs.shape[0], _BLOCK):
        v = vecs[s : s + _BLOCK]
        mag = np.abs(v)
        first = np.argmax(mag > 1e-12 * np.max(mag, axis=1, keepdims=True), axis=1)
        flip = v[np.arange(v.shape[0]), first] < 0
        np.negative(v, out=v, where=flip[:, None])


def apply_asr(d: np.ndarray, structure: CrystalStructure) -> tuple:
    """Project the rigid translations out of the dynamical matrix d.

    The three mass-weighted translation vectors become exact null vectors;
    an already translation-invariant d passes through unchanged.  Returns
    (D, pre, post): D a new, bitwise symmetric array, d left as it is, and
    the three translational residuals before and after, expressed as
    equivalent mode energies in meV.
    """
    t = _translation_basis(structure.mass_vector_3n())

    def _residuals(dt):
        res = np.linalg.norm(dt, axis=0)
        # a column whose squares pass the float range is normed scaled by its
        # largest entry; finite norms keep their unscaled bits
        for j in np.flatnonzero(~np.isfinite(res)):
            scale = np.max(np.abs(dt[:, j]))
            res[j] = scale * np.linalg.norm(dt[:, j] / scale)
        return units.HBAR_MEV_FS * np.sqrt(res * units.EV_PER_AMU_A2)

    # an infinite entry of d makes NaN here, which diagonalize refuses; a
    # residual past the float range is refused where the basis is written
    with np.errstate(over="ignore", invalid="ignore"):
        dt = d @ t.T
        pre = _residuals(dt)
        # (I - T^T T) D (I - T^T T) expanded, with T D = (D T^T)^T as D is
        # symmetric: the rank-3 projection costs O(N^2) instead of O(N^3)
        d_clean = d - dt @ t - t.T @ dt.T + t.T @ ((t @ dt) @ t)
        d_clean = 0.5 * (d_clean + d_clean.T)
        # the projection cannot increase a residual; clamp matmul noise
        post = np.minimum(_residuals(d_clean @ t.T), pre)
    return d_clean, pre, post


def diagonalize(d: np.ndarray) -> PhononBasis:
    """Eigendecompose the symmetric dynamical matrix d into a PhononBasis.

    Eigenvalues lambda (eV/(amu A^2)) map to hbar*omega = hbar*sqrt(lambda)
    in meV, with lambda < 0 stored as negative meV.  Modes come out
    ascending, as eigh returns lambda and the map is monotone, with a
    deterministic sign (first significant component of each vector is
    positive).  The basis is checked here, where it is made: NonFiniteValue
    for a non-finite eigenvalue (a D past the float range), NumericalError
    unless ||D v - lambda v|| <= 1e-8 ||D|| for every mode, a NaN residual
    included.  eigh's vectors are orthonormal; tests assert it.  The
    residuals are formed _BLOCK modes at a time, so the check holds no
    N x N temporary.
    """
    try:
        lam, vecs = np.linalg.eigh(d)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failed: {exc}") from None
    vecs = vecs.T  # rows are modes: a transposed view, which the basis keeps
    omegas = units.hbar_omega_from_eigenvalue(lam)
    _require_finite(omegas, "omegas_mev")

    norm_d = float(np.max(np.abs(lam))) if lam.size else 0.0
    if norm_d > 0:
        peaks = []
        for s in range(0, lam.size, _BLOCK):
            v = vecs[s : s + _BLOCK].T
            # relative to ||D||, so that the norm squares no entry past the float range
            resid = np.linalg.norm((d @ v - v * lam[s : s + _BLOCK]) / norm_d, axis=0)
            peaks.append(np.max(resid))
        # np.max, unlike max(), keeps a NaN block maximum
        worst = float(np.max(peaks))
        if not worst <= RESIDUAL_TOL:
            raise NumericalError(
                f"eigenvector residual {worst * norm_d:.3e} exceeds {RESIDUAL_TOL:.0e}*||D||"
            )

    _orient_rows(vecs)
    return PhononBasis(omegas, vecs)


def localization_table(basis: PhononBasis) -> np.ndarray:
    """Inverse participation ratio of every mode, each in [1/N, 1].

    Computed from per-atom weights p_a = sum_i v_ai^2 as sum_a p_a^2;
    a mode living on a single atom scores 1, a uniform mode scores 1/N.
    """
    v = basis.vectors.reshape(basis.nmodes, -1, 3)
    weights = np.sum(v * v, axis=2)
    weights /= np.sum(weights, axis=1, keepdims=True)
    return np.sum(weights * weights, axis=1)
