import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lumiphon import units
from lumiphon.errors import InputError
from lumiphon.model import (
    CrystalStructure,
    GeometryPair,
    HRDecomposition,
    MAX_OUTPUT_POINTS,
    output_grid,
)


def test_unit_table_consistency():
    # hbar in action units must follow from the two primary constants
    assert units.HBAR_AMU_A2_FS == units.HBAR_MEV_FS * 1e-3 * units.EV_PER_AMU_A2
    # round trip meV <-> eigenvalue
    w = np.array([-40.0, 0.0, 115.0, 180.0])
    back = units.hbar_omega_from_eigenvalue(units.eigenvalue_from_hbar_omega(w))
    np.testing.assert_allclose(back, w, rtol=1e-12, atol=1e-15)


def test_structure_invariants():
    with pytest.raises(InputError):
        CrystalStructure(-np.eye(3), ("C",), [12.0], [[0, 0, 0]])
    with pytest.raises(InputError):
        CrystalStructure(np.eye(3), ("C",), [-1.0], [[0, 0, 0]])


def test_types_are_immutable(diatomic):
    structure, hessian = diatomic
    with pytest.raises(ValueError):
        structure.positions[0, 0] = 5.0
    with pytest.raises(ValueError):
        hessian.matrix[0, 0] = 5.0


def test_construction_copies_input_arrays():
    src = np.zeros((2, 3))
    pair = GeometryPair(src, src)
    src[0, 0] = 7.0  # caller's array stays writable and detached
    assert pair.ground[0, 0] == 0.0


def test_pair_delta_is_exact_difference():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 3))
    e = rng.normal(size=(4, 3))
    pair = GeometryPair(g, e)
    assert np.array_equal(pair.delta, e - g)


def test_output_grid_rule_and_refusals():
    grid = output_grid(1.0, 2.0, 0.1, "--step", "--window")
    assert grid.size == 11 and grid[0] == 1.0 and grid[-1] == pytest.approx(2.0)
    assert output_grid(0.0, 0.25, 0.1, "--step", "--window").size == 3
    for lo, hi, step, flag in [
        (1.0, 2.0, 0.0, "--step"),
        (1.0, 2.0, -0.1, "--step"),
        (2.0, 1.0, 0.1, "--window"),
        (1.0, 1.0, 0.1, "--window"),
        (0.0, 1.0, 1.0 / MAX_OUTPUT_POINTS, "--step"),
        (0.0, 1.0, 1e-300, "--step"),
    ]:
        with pytest.raises(InputError, match=flag):
            output_grid(lo, hi, step, "--step", "--window")
    assert output_grid(0.0, 1.0, 1.0 / (MAX_OUTPUT_POINTS - 2), "--step", "--window").size == (
        MAX_OUTPUT_POINTS - 1
    )


def test_hr_decomposition_invariants():
    with pytest.raises(InputError):  # not sorted
        HRDecomposition(np.array([2.0, 1.0]), np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(InputError):  # negative sk
        HRDecomposition(np.array([1.0, 2.0]), np.zeros(2), np.array([0.1, -0.1]), 0.0)
    with pytest.raises(InputError):  # total out of tolerance
        HRDecomposition(np.array([1.0, 2.0]), np.zeros(2), np.array([0.1, 0.2]), 0.4)


@given(st.integers(0, 2**32 - 1))
def test_hr_total_matches_fsum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    w = np.sort(rng.uniform(1.0, 200.0, n))
    q = rng.normal(size=n)
    s = rng.uniform(0.0, 1.0, n)
    import math

    hr = HRDecomposition(w, q, s, math.fsum(s.tolist()))
    assert hr.nmodes == n

