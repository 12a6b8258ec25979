#!/usr/bin/env python3
"""Generate a self-contained synthetic input set under demo/.

A 12-atom spring-network cluster stands in for a first-principles defect
calculation: its Hessian, an excited-state geometry displaced along a few
stiff modes, the matching harmonic force change, a small charged-defect
table and a dissociation table.  Everything is seeded, so the demo inputs
are reproducible byte for byte.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lumiphon import io as lio
from lumiphon.model import (
    CrystalStructure,
    DefectEntry,
    ForceDelta,
    GeometryPair,
    Hessian,
    HostReference,
    structure_checksum,
)
from lumiphon.energetics import carbon_rich_potentials


def spring_network(positions, springs):
    """Central-force spring network Hessian (eV/A^2), translation invariant.

    positions: (N, 3) array; springs: iterable of (a, b, k) index pairs with
    spring constant k; blocks are k * outer(nhat, nhat) along the bond.
    """
    n = positions.shape[0]
    h = np.zeros((3 * n, 3 * n))
    for a, b, k in springs:
        d = positions[b] - positions[a]
        nhat = d / np.linalg.norm(d)
        block = k * np.outer(nhat, nhat)
        h[3 * a : 3 * a + 3, 3 * b : 3 * b + 3] -= block
        h[3 * b : 3 * b + 3, 3 * a : 3 * a + 3] -= block
        h[3 * a : 3 * a + 3, 3 * a : 3 * a + 3] += block
        h[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] += block
    return h


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    natoms = 12
    grid = np.array(
        [[i, j, k] for i in range(3) for j in range(2) for k in range(2)], dtype=float
    )
    positions = 2.1 * grid + rng.uniform(-0.2, 0.2, size=(natoms, 3))
    species = tuple("C" if i % 3 else "Si" for i in range(natoms))
    masses = [12.011 if s == "C" else 28.085 for s in species]
    structure = CrystalStructure(np.eye(3) * 20.0, species, masses, positions)

    springs = [
        (a, b, float(rng.uniform(2.0, 9.0)))
        for a in range(natoms)
        for b in range(a + 1, natoms)
        if np.linalg.norm(positions[b] - positions[a]) < 4.5
    ]
    hessian = Hessian(spring_network(positions, springs), structure_checksum(structure))

    # excited-state geometry: a localized distortion around atom 0
    delta = np.zeros((natoms, 3))
    envelope = np.exp(-np.linalg.norm(positions - positions[0], axis=1) / 1.8)
    delta += envelope[:, None] * rng.normal(scale=0.035, size=(natoms, 3))
    pair = GeometryPair(positions, positions + delta, species)
    force = ForceDelta(hessian.matrix @ delta.reshape(-1))

    host = HostReference(
        host_energy_ev=-112.0,
        vbm_ev=0.0,
        gap_ev=3.17,
        chemical_potentials=carbon_rich_potentials(-9.1, -5.4, -15.2),
        dielectric_constant=9.7,
        cell_volume_a3=float(np.linalg.det(structure.lattice)),
    )
    entries = [
        DefectEntry("cluster_a", 1, -110.1, {"Si": 1, "C": -2}, "analytic"),
        DefectEntry("cluster_a", 0, -109.4, {"Si": 1, "C": -2}, 0.0),
        DefectEntry("cluster_a", -1, -107.6, {"Si": 1, "C": -2}, "analytic"),
        DefectEntry("cluster_b", 0, -108.2, {"Si": 1, "C": -3}, 0.0),
        DefectEntry("cluster_b", -1, -106.1, {"Si": 1, "C": -3}, "analytic"),
    ]
    dissoc_rows = [
        {
            "label": "cluster_a",
            "cluster_energy_ev": -109.4,
            "fragment_energy_ev": -97.9,
            "released_energy_ev": -8.3,
        },
        {
            "label": "cluster_b",
            "cluster_energy_ev": -108.2,
            "fragment_energy_ev": -99.9,
            "released_energy_ev": -8.3,
        },
    ]

    lio.write_structure(structure, out / "structure.json", overwrite=True)
    lio.write_hessian(hessian, out / "hessian.json", overwrite=True)
    lio.write_geometry_pair(pair, out / "pair.json", overwrite=True)
    lio.write_force_delta(force, out / "forces.json", overwrite=True)
    lio.write_defect_table(host, entries, out / "defects.json", overwrite=True)
    lio.write_dissociation_table(dissoc_rows, out / "dissociation.json", overwrite=True)
    print(f"wrote 6 documents to {out}/ ({natoms} atoms, {len(springs)} springs)")


if __name__ == "__main__":
    main()
