import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumiphon import phonons, units
from lumiphon.errors import NonFiniteValue, NumericalError
from lumiphon.io import ORTHONORMALITY_TOL
from lumiphon.model import CrystalStructure, Hessian, PhononBasis, classify_lvm
from lumiphon.phonons import (
    _orient_rows,
    apply_asr,
    diagonalize,
    dynamical_matrix,
    localization_table,
    symmetrize,
)

from helpers import random_cluster_structure

# LVM frequencies of a di-interstitial reference system, meV
LVM_FIXTURE = [119.9, 126.2, 127.6, 159.9, 161.8]


# ------------------------------------------------------------- symmetrize

def test_symmetrize_fixed_point():
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    m = np.kron(np.eye(3), m)  # 6x6 symmetric
    assert np.array_equal(symmetrize(m), m)


def test_symmetrize_averages_mirror_entries():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[1, 0] = 3.0
    out = symmetrize(m)
    assert out[0, 1] == 2.0 and out[1, 0] == 2.0


@given(st.integers(0, 2**32 - 1))
def test_symmetrize_idempotent(seed):
    rng = np.random.default_rng(seed)
    once = symmetrize(rng.normal(size=(6, 6)))
    assert np.array_equal(once, once.T)
    assert np.array_equal(once, symmetrize(once))


# ---------------------------------------------------------------- ASR

def test_asr_leaves_invariant_hessian_alone(small_cluster):
    structure, hessian = small_cluster
    d = dynamical_matrix(hessian, structure)
    clean, pre, post = apply_asr(d, structure)
    # |dH| <= |dD| max(m), so this bounds the Hessian's change by 1e-12
    assert np.max(np.abs(clean - d)) < 1e-12 / np.max(structure.masses)
    assert np.all(post <= pre)


def test_asr_removes_diagonal_noise(small_cluster):
    structure, hessian = small_cluster
    noisy = Hessian(hessian.matrix + 1e-3 * np.eye(3 * structure.natoms))
    clean, _, post = apply_asr(dynamical_matrix(noisy, structure), structure)
    basis = diagonalize(clean)
    lowest = np.sort(np.abs(basis.omegas_mev))[:3]
    assert np.all(lowest < 0.01)
    assert np.all(post < 0.01)


def _mass_weighted_translations(masses_3n):
    t = np.zeros((3, masses_3n.size))
    for axis in range(3):
        t[axis, axis::3] = np.sqrt(masses_3n[axis::3] / np.sum(masses_3n[axis::3]))
    return t


def _dense_projector_asr(d, masses_3n):
    """Reference ASR: (I - T^T T) D (I - T^T T) with the dense projector."""
    t = _mass_weighted_translations(masses_3n)
    proj = np.eye(d.shape[0]) - t.T @ t
    d_clean = proj @ d @ proj
    return 0.5 * (d_clean + d_clean.T)


@settings(max_examples=40, deadline=None)
@given(
    natoms=st.integers(2, 100),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
)
def test_asr_rank3_update_matches_dense_projector(natoms, seed, log_scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3 * natoms, 3 * natoms)) * 10.0**log_scale
    h = 0.5 * (a + a.T)
    masses = rng.uniform(1.0, 240.0, size=natoms)
    structure = CrystalStructure(np.eye(3) * 8, ("C",) * natoms, masses, np.zeros((natoms, 3)))
    masses_3n = np.repeat(masses, 3)
    inv = 1.0 / np.sqrt(masses_3n)
    d = h * np.outer(inv, inv)
    clean, pre, post = apply_asr(d, structure)
    scale = np.max(np.abs(d))
    assert np.max(np.abs(clean - _dense_projector_asr(d, masses_3n))) <= 1e-13 * scale
    assert np.all(post <= pre)
    # the mass-weighted translations are null vectors of the result
    null = clean @ _mass_weighted_translations(masses_3n).T
    assert np.max(np.abs(null)) <= 1e-13 * scale


# ------------------------------------------------------------ diagonalize

def _gram_defect(vectors):
    """max |V V^T - I|: the contract io.parse_phonon_basis checks on a read
    basis and these tests assert on the bases diagonalize computes."""
    return np.max(np.abs(vectors @ vectors.T - np.eye(vectors.shape[0])))


def test_single_atom_isotropic_mode():
    # independent oracle: hbar*sqrt(k/m) evaluated with the unit table
    k, mass = 5.805, 12.0
    expected = units.HBAR_MEV_FS * math.sqrt(k / mass * units.EV_PER_AMU_A2)
    structure = CrystalStructure(np.eye(3) * 8, ("C",), [mass], [[0, 0, 0]])
    basis = diagonalize(dynamical_matrix(Hessian(np.eye(3) * k), structure))
    np.testing.assert_allclose(basis.omegas_mev, expected, rtol=1e-12)
    assert abs(expected - 44.96834503307843) < 1e-10


def test_diatomic_against_analytic(diatomic):
    structure, hessian = diatomic
    basis = diagonalize(dynamical_matrix(hessian, structure))
    k, mass = 4.2, 12.011
    analytic = units.HBAR_MEV_FS * math.sqrt(2 * k / mass * units.EV_PER_AMU_A2)
    np.testing.assert_allclose(basis.omegas_mev[:3], 0.0, atol=1e-6)
    np.testing.assert_allclose(basis.omegas_mev[3:], analytic, rtol=1e-10)


def test_zero_hessian_all_zero_modes(diatomic):
    structure, _ = diatomic
    basis = diagonalize(dynamical_matrix(Hessian(np.zeros((6, 6))), structure))
    assert np.array_equal(basis.omegas_mev, np.zeros(6))


@settings(max_examples=20, deadline=None)
@given(natoms=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_dynamical_matrix_symmetrizes_what_it_is_given(natoms, seed):
    # an asymmetric H gives, bit for bit, what (H + H^T)/2 gives
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(3 * natoms, 3 * natoms))
    structure = CrystalStructure(
        np.eye(3) * 8, ("C",) * natoms, rng.uniform(1.0, 240.0, natoms), np.zeros((natoms, 3))
    )

    def stages(hessian):
        d = dynamical_matrix(hessian, structure)
        arrays = apply_asr(d, structure)
        basis = diagonalize(d)
        assert _gram_defect(basis.vectors) < ORTHONORMALITY_TOL
        return [a.tobytes() for a in arrays + (basis.omegas_mev, basis.vectors)]

    assert stages(Hessian(h)) == stages(Hessian(0.5 * (h + h.T)))


def test_diagonalize_refuses_a_non_finite_eigendecomposition(monkeypatch):
    # a D past the float range gives NaN eigenvalues, which the residual
    # check's comparison alone would let through
    d = np.eye(6)
    d[0, 1] = d[1, 0] = np.inf
    with pytest.raises(NonFiniteValue, match=r"omegas_mev\[0\] is not finite"):
        diagonalize(d)
    # finite eigenvalues with a NaN vector: the residual is NaN, not small
    vecs = np.eye(6)
    vecs[2, 3] = np.nan
    monkeypatch.setattr(phonons.np.linalg, "eigh", lambda d: (np.arange(6.0), vecs))
    with pytest.raises(NumericalError, match="eigenvector residual nan exceeds"):
        diagonalize(np.diag(np.arange(6.0)))


def test_orthonormality_and_completeness(small_cluster):
    structure, hessian = small_cluster
    basis = diagonalize(dynamical_matrix(hessian, structure))
    v = basis.vectors
    assert _gram_defect(v) < ORTHONORMALITY_TOL
    # completeness: resolution of identity, spot-check a few rows
    recon = v.T @ v
    rng = np.random.default_rng(0)
    for i in rng.integers(0, v.shape[0], 5):
        row = np.zeros(v.shape[0])
        row[i] = 1.0
        assert np.max(np.abs(recon[i] - row)) < 1e-6


def test_residuals_within_contract(small_cluster):
    structure, hessian = small_cluster
    basis = diagonalize(dynamical_matrix(hessian, structure))
    inv_sqrt_m = 1.0 / np.sqrt(structure.mass_vector_3n())
    d = hessian.matrix * np.outer(inv_sqrt_m, inv_sqrt_m)
    lam = units.eigenvalue_from_hbar_omega(basis.omegas_mev)
    norm = np.max(np.abs(lam))
    resid = np.linalg.norm(d @ basis.vectors.T - basis.vectors.T * lam[None, :], axis=0)
    assert np.max(resid) < 1e-8 * norm


def test_spectrum_invariant_under_atom_permutation():
    structure, hessian = random_cluster_structure(6, seed=5)
    basis = diagonalize(dynamical_matrix(hessian, structure))

    rng = np.random.default_rng(7)
    perm = rng.permutation(structure.natoms)
    scatter = np.zeros((3 * structure.natoms,), dtype=int)
    for new, old in enumerate(perm):
        scatter[3 * new : 3 * new + 3] = [3 * old, 3 * old + 1, 3 * old + 2]
    permuted = CrystalStructure(
        structure.lattice,
        tuple(structure.species[i] for i in perm),
        structure.masses[perm],
        structure.positions[perm],
    )
    h2 = Hessian(hessian.matrix[np.ix_(scatter, scatter)])
    basis2 = diagonalize(dynamical_matrix(h2, permuted))
    np.testing.assert_allclose(
        basis2.omegas_mev, basis.omegas_mev, rtol=1e-9, atol=1e-4
    )


def _orient_rows_loop(vecs):
    """Reference sign convention: the per-row loop diagonalize used to run."""
    for k in range(vecs.shape[0]):
        v = vecs[k]
        nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        if nz.size and v[nz[0]] < 0:
            vecs[k] = -v


# rows past two blocks of _BLOCK
@example(rows=600, cols=3, seed=1, zeros=0.3)
@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 0.9),
)
def test_vectorized_sign_convention_matches_loop(rows, cols, seed, zeros):
    rng = np.random.default_rng(seed)
    # leading zeros, signed zeros and entries below 1e-12 of the row maximum
    v = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-15, 3, size=(rows, cols))
    v[rng.random((rows, cols)) < zeros] = 0.0
    v[rng.random((rows, cols)) < 0.1] = -0.0
    ref = v.copy()
    _orient_rows_loop(ref)
    _orient_rows(v)
    assert v.tobytes() == ref.tobytes()


@settings(max_examples=30, deadline=None)
@given(natoms=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_mass_weighting_keeps_bitwise_symmetry(natoms, seed):
    # apply_asr's T D = (D T^T)^T and eigh's one triangle rely on it
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3 * natoms, 3 * natoms))
    structure = CrystalStructure(
        np.eye(3) * 8, ("C",) * natoms, rng.uniform(1.0, 240.0, natoms), np.zeros((natoms, 3))
    )
    d = dynamical_matrix(Hessian(a), structure)
    assert d.tobytes() == np.ascontiguousarray(d.T).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    natoms=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    repeats=st.integers(1, 4),
    shift=st.floats(-2.0, 2.0),
)
def test_modes_ascend_without_a_sort(natoms, seed, repeats, shift):
    # eigh returns lambda ascending and hbar*omega(lambda) is monotone, so
    # the modes ascend with repeated, zero and negative eigenvalues alike
    n = 3 * natoms
    rng = np.random.default_rng(seed)
    lam = np.repeat(np.round(rng.normal(size=n) + shift, 1), repeats)[:n]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    basis = diagonalize(symmetrize((q * lam) @ q.T))
    assert np.all(np.diff(basis.omegas_mev) >= 0.0)
    # eigh's vectors stay orthonormal within a repeated eigenvalue's space
    assert _gram_defect(basis.vectors) < ORTHONORMALITY_TOL
    back = units.eigenvalue_from_hbar_omega(basis.omegas_mev)
    np.testing.assert_allclose(back, np.sort(lam), rtol=0.0, atol=1e-12)


def test_modes_memory_stays_below_the_hessian_round_trip():
    # dynamical_matrix -> apply_asr -> diagonalize at 3N = 384 peaks at
    # about 4.1 times the matrix's bytes; un-weighting D into a Hessian
    # after the ASR and weighting it again took 6.0
    natoms = 128
    rng = np.random.default_rng(5)
    structure = CrystalStructure(
        np.eye(3) * 8, ("C",) * natoms, rng.uniform(1.0, 240.0, natoms), np.zeros((natoms, 3))
    )
    hessian = Hessian(rng.normal(size=(3 * natoms, 3 * natoms)))
    tracemalloc.start()
    try:
        d, _, _ = apply_asr(dynamical_matrix(hessian, structure), structure)
        diagonalize(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * hessian.matrix.nbytes


def test_diagonalize_holds_no_full_temporary_beyond_its_basis():
    # eigh's vectors, which the basis keeps, and one block of residuals,
    # D v and v lambda of 256 modes (2/3 of the matrix at n = 768): 1.7
    # times the matrix.  A copy of the vectors into the basis read 2.0, and
    # the residual check formed as whole N x N arrays 3.0
    n = 768
    a = np.random.default_rng(0).normal(size=(n, n))
    d = 0.5 * (a + a.T) + n * np.eye(n)
    tracemalloc.start()
    try:
        diagonalize(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * d.nbytes


def test_deterministic_sign_convention(small_cluster):
    structure, hessian = small_cluster
    basis = diagonalize(dynamical_matrix(hessian, structure))
    for v in basis.vectors:
        nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        assert v[nz[0]] > 0


# ---------------------------------------------------------------- LVMs

def _basis_with_omegas(omegas):
    n = len(omegas)
    return PhononBasis(np.array(omegas, dtype=float), np.eye(n))


def test_lvm_classification_reference_frequencies():
    omegas = sorted([0.0, 0.0, 0.0, 30.0, 40.0, 70.0, 100.0] + LVM_FIXTURE)
    basis = _basis_with_omegas(omegas)
    idx = classify_lvm(basis.omegas_mev, 115.0)
    assert len(idx) == 5
    assert [round(float(basis.omegas_mev[i]), 1) for i in idx] == LVM_FIXTURE


def test_lvm_empty_and_boundary():
    basis = _basis_with_omegas([10.0, 50.0, 115.0])
    assert classify_lvm(basis.omegas_mev, 115.0) == []  # strict inequality at the cutoff
    assert classify_lvm(basis.omegas_mev, 49.0) == [1, 2]


# ------------------------------------------------------------ localization

def test_ipr_single_atom():
    vec = np.zeros(6)
    vec[0] = 1.0
    basis = PhononBasis(np.zeros(6), np.vstack([vec, np.eye(6)[1:]]))
    assert localization_table(basis)[0] == pytest.approx(1.0)


def test_ipr_uniform_and_pair():
    n = 4
    v0 = np.zeros(3 * n)
    v0[0::3] = 0.5  # uniform over 4 atoms, x polarized
    v1 = np.zeros(3 * n)
    v1[1] = math.sqrt(0.5)
    v1[4] = math.sqrt(0.5)  # two equal atoms
    # Householder QR keeps the leading independent columns in place (up to
    # sign), giving an orthonormal completion of v0, v1
    q, _ = np.linalg.qr(np.column_stack([v0, v1, np.eye(3 * n)]))
    basis = PhononBasis(np.zeros(3 * n), q.T)
    table = localization_table(basis)
    assert table[0] == pytest.approx(1.0 / n)
    assert table[1] == pytest.approx(0.5)


def test_ipr_bounds_and_table(small_cluster):
    structure, hessian = small_cluster
    basis = diagonalize(dynamical_matrix(hessian, structure))
    table = localization_table(basis)
    assert table.shape == (basis.nmodes,)
    assert np.all(table >= 1.0 / (basis.nmodes // 3) - 1e-12)
    assert np.all(table <= 1.0 + 1e-12)
