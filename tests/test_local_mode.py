"""An analytic local mode for `modes`: a light atom on a ring of springs.

N atoms of mass M on a ring, each joined to its two neighbours by a spring
K on each Cartesian component alone, so the Hessian is K times the ring
Laplacian times the identity in xyz.  One atom of mass M(1 - eps) lifts one
mode per component above the band top hbar sqrt(4K/M), to hbar
sqrt(4K / (M(1 - eps^2))) (Montroll and Potts, Phys. Rev. 100, 525 (1955)).
Its displacements fall off as r^|n| with r = (1 - eps)/(1 + eps), so its
per-atom weights are (1 - eps) on the light atom and r^(2|n|) at distance n;
on 200 atoms the ring's finite size changes neither by more than r^200.
"""

import math

import numpy as np
import pytest

from lumiphon import io as lio
from lumiphon.cli import main
from lumiphon.model import CrystalStructure, Hessian, structure_checksum

from helpers import EV_PER_AMU_A2, HBAR_MEV_FS

N, K, M = 200, 5.0, 28.085  # atoms, eV/A^2, amu


def _ring_files(tmp_path, eps):
    masses = [M * (1.0 - eps)] + [M] * (N - 1)
    positions = [[2.0 * i, 0.0, 0.0] for i in range(N)]
    structure = CrystalStructure(np.eye(3) * 2.0 * N, ("Si",) * N, masses, positions)
    laplacian = 2.0 * np.eye(N) - np.roll(np.eye(N), 1, axis=1) - np.roll(np.eye(N), -1, axis=1)
    matrix = np.kron(K * laplacian, np.eye(3))
    spath, hpath = tmp_path / "structure.json", tmp_path / "hessian.json"
    lio.write_structure(structure, spath)
    lio.write_hessian(Hessian(matrix, structure_checksum(structure)), hpath)
    return spath, hpath


def _mev(eigenvalue):
    """hbar omega in meV of an eigenvalue of D in eV/(amu A^2)."""
    return HBAR_MEV_FS * math.sqrt(eigenvalue * EV_PER_AMU_A2)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.8])
def test_light_atom_on_a_ring_has_the_analytic_local_mode(tmp_path, capsys, eps):
    band_top = _mev(4.0 * K / M)
    local = _mev(4.0 * K / (M * (1.0 - eps * eps)))
    r = (1.0 - eps) / (1.0 + eps)
    ipr = ((1.0 - eps) ** 2 + 2.0 * r**4 / (1.0 - r**4)) / (
        (1.0 - eps) + 2.0 * r**2 / (1.0 - r**2)
    ) ** 2
    spath, hpath = _ring_files(tmp_path, eps)
    cutoff = 0.5 * (band_top + local)
    for asr in ([], ["--asr"]):
        out, table = tmp_path / "modes.json", tmp_path / "modes.tsv"
        argv = ["modes", "--structure", str(spath), "--hessian", str(hpath), *asr,
                "--cutoff", repr(cutoff), "--out", str(out), "--table", str(table)]
        assert main(argv) == 0, capsys.readouterr().err
        basis = lio.parse_phonon_basis(lio.load_document(out), out)
        top = basis.omegas_mev[-3:]
        np.testing.assert_allclose(top, local, rtol=1e-10, atol=0)
        assert basis.omegas_mev[-4] < band_top
        # per-atom weights: the same whichever mix of the three modes eigh returns
        weights = np.sum(basis.vectors[-3:].reshape(3, N, 3) ** 2, axis=2)
        np.testing.assert_allclose(
            np.sum(weights**2, axis=1) / np.sum(weights, axis=1) ** 2, ipr, rtol=1e-10, atol=0
        )
        rows = [ln.split("\t") for ln in table.read_text().splitlines() if ln[:1] != "#"]
        flagged = [int(row[0]) for row in rows if row[3] == "true"]
        assert flagged == [3 * N - 3, 3 * N - 2, 3 * N - 1]
        # the table prints nine digits of the same energies and IPRs
        printed = np.array([[float(row[1]), float(row[2])] for row in rows[-3:]])
        np.testing.assert_allclose(printed, [[local, ipr]] * 3, rtol=5e-9, atol=0)
