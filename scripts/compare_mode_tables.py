#!/usr/bin/env python3
"""Per-mode frequency deltas between two phonon-basis documents.

Supercell-size convergence aid: give it the basis from a smaller and a
larger cell and it tabulates |d omega| per matched mode above a cutoff.
Modes are matched greedily by frequency; no convergence norm is chosen
for you, the table is the product.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lumiphon import io as lio
from lumiphon.cli import LVM_CUTOFF_MEV
from lumiphon.model import classify_lvm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("basis_a")
    parser.add_argument("basis_b")
    parser.add_argument("--cutoff", type=float, default=LVM_CUTOFF_MEV, help="meV")
    args = parser.parse_args()

    omegas = []
    for path in (args.basis_a, args.basis_b):
        basis = lio.parse_phonon_basis(lio.load_document(path), path)
        omegas.append(basis.omegas_mev[classify_lvm(basis.omegas_mev, args.cutoff)])
    a, b = omegas
    if a.size == 0 or b.size == 0:
        print(f"no modes above {args.cutoff} meV in one of the inputs")
        return
    print(f"# modes above {args.cutoff} meV: {a.size} vs {b.size}")
    print("# omega_a_mev\tomega_b_mev\tdelta_mev")
    used = np.zeros(b.size, dtype=bool)
    for wa in a:
        free = np.nonzero(~used)[0]
        if free.size == 0:
            print(f"{wa:.3f}\t-\t-")
            continue
        j = free[np.argmin(np.abs(b[free] - wa))]
        used[j] = True
        print(f"{wa:.3f}\t{b[j]:.3f}\t{abs(b[j] - wa):.3f}")
    for wb in b[~used]:
        print(f"-\t{wb:.3f}\t-")


if __name__ == "__main__":
    main()
