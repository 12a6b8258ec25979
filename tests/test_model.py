import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lumiphon import io as lio
from lumiphon import units
from lumiphon.errors import InputError, ParseError
from lumiphon.model import GeometryPair, MAX_OUTPUT_POINTS, output_grid


def test_unit_table_consistency():
    # hbar in action units must follow from the two primary constants
    assert units.HBAR_AMU_A2_FS == units.HBAR_MEV_FS * 1e-3 * units.EV_PER_AMU_A2
    # round trip meV <-> eigenvalue
    w = np.array([-40.0, 0.0, 115.0, 180.0])
    back = units.hbar_omega_from_eigenvalue(units.eigenvalue_from_hbar_omega(w))
    np.testing.assert_allclose(back, w, rtol=1e-12, atol=1e-15)


def _structure_doc(lattice, masses):
    return {
        "schema": "structure/1",
        "lattice": lattice,
        "sites": [{"species": "C", "position": [i, 0, 0], "mass": m} for i, m in enumerate(masses)],
    }


def test_structure_invariants():
    eye = np.eye(3).tolist()
    assert lio.parse_structure(_structure_doc(eye, [12.0, 13.0])).natoms == 2
    for lattice, masses, locus in [
        ((-np.eye(3)).tolist(), [12.0], "/lattice"),
        (np.diag([1.0, 1.0, 0.0]).tolist(), [12.0], "/lattice"),
        (eye, [12.0, -1.0], "/sites/1/mass"),
        (eye, [0.0], "/sites/0/mass"),
    ]:
        with pytest.raises(ParseError) as info:
            lio.parse_structure(_structure_doc(lattice, masses))
        assert info.value.locus == locus


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


def _hr_doc(omegas, sks, total):
    entries = [{"omega_mev": w, "qk": 0.0, "sk": s} for w, s in zip(omegas, sks)]
    return {"schema": "hr/1", "total": total, "entries": entries}


def test_hr_decomposition_invariants():
    for omegas, sks, total, locus in [
        ([2.0, 1.0], [0.0, 0.0], 0.0, "/entries/1/omega_mev"),  # not sorted
        ([1.0, 2.0], [0.1, -0.1], 0.0, "/entries/1/sk"),  # negative sk
        ([1.0, 2.0], [0.1, 0.2], 0.4, "/total"),  # total out of tolerance
    ]:
        with pytest.raises(ParseError) as info:
            lio.parse_hr(_hr_doc(omegas, sks, total))
        assert info.value.locus == locus


@given(st.integers(0, 2**32 - 1))
def test_hr_total_matches_fsum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    w = np.sort(rng.uniform(1.0, 200.0, n))
    s = rng.uniform(0.0, 1.0, n)
    import math

    hr = lio.parse_hr(_hr_doc(w.tolist(), s.tolist(), math.fsum(s.tolist())))
    assert hr.nmodes == n

