"""The benchmark's workloads.

Each workload builds its seeded input documents through lumiphon's io
writers (`build`), lists the subcommand calls of one pass (`ops`) and
checks every output against a computation made apart from lumiphon
(`checks.py`).  lumiphon only ever sees the generated files.

* demo: the 12-atom system of scripts/make_demo_inputs.py through the
  sequence of scripts/run_demo.py.  Start-up and imports dominate; the only
  workload that reaches fcoracle and energetics.
* supercell: a 512-atom (1536-mode) neighbour spring network through
  modes, both hr routes and spectrum.  JSON io and the eigensolve dominate.
* lineshape: 1536-mode HR documents through spectrum at falling gamma.
  The time grid grows to 4.2M points; the vibronic chain dominates.
"""

import contextlib
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
ZPL_EV = 2.6


@dataclass
class Op:
    """One subcommand call: `python -m lumiphon *argv`."""

    argv: List[str]
    check: Optional[Callable[[], None]] = None  # raises checks.CheckFailed
    prepare: Optional[Callable[[], None]] = None  # untimed glue before the call


def _demo_script():
    path = ROOT / "scripts" / "make_demo_inputs.py"
    spec = importlib.util.spec_from_file_location("make_demo_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Demo:
    name = "demo"
    setup_reps = 50
    min_passes = 2

    def __init__(self):
        self.script = _demo_script()

    def build(self, inputs: Path, seed: int):
        argv = ["make_demo_inputs.py", "--out", str(inputs), "--seed", str(seed)]
        saved = sys.argv
        sys.argv = argv
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                self.script.main()
        finally:
            sys.argv = saved

    def reference(self, inputs: Path):
        self.omegas = checks.hessian_frequencies_mev(
            checks.load_json(inputs / "hessian.json"),
            checks.load_json(inputs / "structure.json"),
        )
        self.dissociation = checks.load_json(inputs / "dissociation.json")

    def ops(self, inputs: Path, out: Path) -> List[Op]:
        s = str(inputs / "structure.json")
        top6 = inputs / "hr_top6.json"
        # scripts/run_demo.py uses ZPL - 1.0 eV, which cuts off ladder lines on
        # some seeds; 2.2 eV holds all 14 quanta of modes up to 156 meV (the
        # demo's highest mode stays below 142 meV over seeds 1-1000)
        window = f"{ZPL_EV - 2.2:g}:{ZPL_EV + 0.06:g}"

        def top_six():
            # the six strongest-coupled modes, as scripts/run_demo.py picks them
            from lumiphon import io as lio
            from lumiphon.model import HRDecomposition

            hr = lio.parse_hr(lio.load_document(out / "hr_pair.json"))
            top = np.sort(np.argsort(hr.sk)[-6:])
            reduced = HRDecomposition(
                hr.omegas_mev[top], hr.qk[top], hr.sk[top], math.fsum(hr.sk[top].tolist())
            )
            lio.write_hr(reduced, top6, overwrite=True)

        return [
            Op(
                ["modes", "--structure", s, "--hessian", str(inputs / "hessian.json"),
                 "--asr", "--out", str(out / "modes.json"), "--table", str(out / "modes.tsv"),
                 "--manifest", str(out / "modes.manifest.json")],
                lambda: checks.frequencies_match(
                    checks.load_json(out / "modes.json"), self.omegas, zero_modes=3
                ),
            ),
            Op(["hr", "--structure", s, "--modes", str(out / "modes.json"),
                "--pair", str(inputs / "pair.json"), "--out", str(out / "hr_pair.json"),
                "--stem", str(out / "hr_pair_stem.tsv")]),
            Op(
                ["hr", "--structure", s, "--modes", str(out / "modes.json"),
                 "--forces", str(inputs / "forces.json"), "--out", str(out / "hr_forces.json"),
                 "--stem", str(out / "hr_forces_stem.tsv")],
                lambda: checks.routes_agree(
                    checks.load_json(out / "hr_pair.json"),
                    checks.load_json(out / "hr_forces.json"),
                ),
            ),
            Op(
                # the fixed window keeps the work the same from seed to seed
                ["spectrum", "--hr", str(out / "hr_pair.json"), "--zpl", str(ZPL_EV),
                 "--window", window, "--out", str(out / "spectrum.tsv"),
                 "--peaks", str(out / "peaks.tsv")],
                lambda: checks.unit_integral(*checks.read_spectrum(out / "spectrum.tsv")),
            ),
            Op(
                ["spectrum", "--hr", str(top6), "--zpl", str(ZPL_EV), "--no-omega-cubed",
                 "--window", window, "--out", str(out / "spectrum_top6.tsv")],
                lambda: checks.unit_integral(*checks.read_spectrum(out / "spectrum_top6.tsv")),
                prepare=top_six,
            ),
            Op(
                # no --sticks: one row per ladder line, a count that grows
                # steeply with the seeded S of the six modes
                ["oracle", "--hr", str(top6), "--zpl", str(ZPL_EV), "--max-quanta", "14",
                 "--window", window, "--out", str(out / "oracle.tsv"),
                 "--compare", str(out / "spectrum_top6.tsv")],
                lambda: checks.oracle_l1(
                    checks.read_spectrum(out / "oracle.tsv"),
                    checks.read_spectrum(out / "spectrum_top6.tsv"),
                ),
            ),
            Op(
                ["thermo", "--defects", str(inputs / "defects.json"),
                 "--envelope", str(out / "envelope.tsv"),
                 "--transitions", str(out / "transitions.tsv"),
                 "--windows", str(out / "windows.tsv")],
                lambda: checks.envelope_slopes(
                    checks.read_rows(out / "envelope.tsv"),
                    checks.read_rows(out / "transitions.tsv"),
                ),
            ),
            Op(
                ["dissoc", "--energies", str(inputs / "dissociation.json"),
                 "--out", str(out / "dissociation.tsv")],
                lambda: checks.dissociation_energies(
                    self.dissociation, checks.read_rows(out / "dissociation.tsv")
                ),
            ),
        ]


class Supercell:
    name = "supercell"
    setup_reps = 5
    min_passes = 2
    side = 8  # atoms per edge of the jittered cubic grid
    spacing_a = 2.1
    cutoff_a = 3.3  # first and second neighbours

    def __init__(self):
        self.script = _demo_script()

    def build(self, inputs: Path, seed: int):
        from lumiphon import io as lio
        from lumiphon.model import (
            CrystalStructure,
            ForceDelta,
            GeometryPair,
            Hessian,
            structure_checksum,
        )

        rng = np.random.default_rng(seed)
        n = self.side
        grid = np.indices((n, n, n)).reshape(3, -1).T
        positions = self.spacing_a * grid + rng.uniform(-0.2, 0.2, size=grid.shape)
        species = tuple("Si" if s % 2 else "C" for s in grid.sum(axis=1))
        masses = [12.011 if s == "C" else 28.085 for s in species]
        structure = CrystalStructure(
            np.eye(3) * (self.spacing_a * n + 10.0), species, masses, positions
        )
        dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
        a, b = np.nonzero(np.triu(dist < self.cutoff_a, k=1))
        k = rng.uniform(2.0, 9.0, size=a.size)
        springs = list(zip(a.tolist(), b.tolist(), k.tolist()))
        hessian = Hessian(
            self.script.spring_network(positions, springs), structure_checksum(structure)
        )
        # excited state: a localized distortion around the central atom
        centre = int(np.argmin(np.linalg.norm(positions - positions.mean(axis=0), axis=1)))
        envelope = np.exp(-np.linalg.norm(positions - positions[centre], axis=1) / 1.8)
        delta = envelope[:, None] * rng.normal(scale=0.035, size=positions.shape)
        pair = GeometryPair(positions, positions + delta, species)
        force = ForceDelta(hessian.matrix @ delta.reshape(-1))

        lio.write_structure(structure, inputs / "structure.json", overwrite=True)
        lio.write_hessian(hessian, inputs / "hessian.json", overwrite=True)
        lio.write_geometry_pair(pair, inputs / "pair.json", overwrite=True)
        lio.write_force_delta(force, inputs / "forces.json", overwrite=True)

    def reference(self, inputs: Path):
        self.omegas = checks.hessian_frequencies_mev(
            checks.load_json(inputs / "hessian.json"),
            checks.load_json(inputs / "structure.json"),
        )

    def ops(self, inputs: Path, out: Path) -> List[Op]:
        s = str(inputs / "structure.json")
        return [
            Op(
                ["modes", "--structure", s, "--hessian", str(inputs / "hessian.json"),
                 "--asr", "--out", str(out / "modes.json"), "--table", str(out / "modes.tsv")],
                lambda: checks.frequencies_match(
                    checks.load_json(out / "modes.json"), self.omegas, zero_modes=3
                ),
            ),
            Op(["hr", "--structure", s, "--modes", str(out / "modes.json"),
                "--pair", str(inputs / "pair.json"), "--out", str(out / "hr_pair.json"),
                "--stem", str(out / "hr_pair_stem.tsv")]),
            Op(
                ["hr", "--structure", s, "--modes", str(out / "modes.json"),
                 "--forces", str(inputs / "forces.json"), "--out", str(out / "hr_forces.json")],
                lambda: checks.routes_agree(
                    checks.load_json(out / "hr_pair.json"),
                    checks.load_json(out / "hr_forces.json"),
                ),
            ),
            Op(
                ["spectrum", "--hr", str(out / "hr_pair.json"), "--zpl", str(ZPL_EV),
                 "--gamma", "1", "--out", str(out / "spectrum.tsv"),
                 "--peaks", str(out / "peaks.tsv")],
                lambda: checks.unit_integral(*checks.read_spectrum(out / "spectrum.tsv")),
            ),
        ]


class Lineshape:
    name = "lineshape"
    setup_reps = 40
    min_passes = 1
    nmodes = 1536
    band_mev = (5.0, 180.0)
    # (S, gamma meV, output step meV): the cases `spectrum` completes today
    cases = (
        (0.1, 1.0, None), (1.0, 1.0, None), (3.0, 1.0, None), (10.0, 1.0, None),
        (0.1, 0.1, None), (1.0, 0.1, None), (3.0, 0.1, None),
        (1.0, 0.01, 0.01),
    )

    def build(self, inputs: Path, seed: int):
        from lumiphon import io as lio
        from lumiphon import units, vibronic

        rng = np.random.default_rng(seed)
        lo, hi = self.band_mev
        omegas = np.sort(rng.uniform(lo, hi, size=self.nmodes))
        omegas[0], omegas[-1] = lo, hi  # pin the band, and with it the grid sizes
        # coupling grows with mode energy, so the lowest modes leave the ZPL clear
        weights = rng.exponential(size=self.nmodes) * (omegas / hi) ** 2
        weights /= weights.sum()
        for s_total in sorted({case[0] for case in self.cases}):
            sk = s_total * weights
            qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sk / units.omega_radfs(omegas))
            hr = vibronic.partial_hr(qk, omegas)
            lio.write_hr(hr, inputs / f"hr_s{s_total:g}.json", overwrite=True)

    def reference(self, inputs: Path):
        self.totals = {
            s: checks.load_json(inputs / f"hr_s{s:g}.json")["total"]
            for s in {case[0] for case in self.cases}
        }

    def ops(self, inputs: Path, out: Path) -> List[Op]:
        result = []
        for s_total, gamma, step in self.cases:
            tag = f"s{s_total:g}_g{gamma:g}"
            spectrum = out / f"spectrum_{tag}.tsv"
            argv = ["spectrum", "--hr", str(inputs / f"hr_s{s_total:g}.json"),
                    "--zpl", str(ZPL_EV), "--gamma", f"{gamma:g}",
                    "--out", str(spectrum), "--peaks", str(out / f"peaks_{tag}.tsv")]
            if step is not None:
                argv += ["--step", f"{step:g}"]
            result.append(Op(argv, self._checker(spectrum, s_total, gamma)))
        return result

    def _checker(self, spectrum, s_total, gamma):
        def check():
            energy, intensity = checks.read_spectrum(spectrum)
            checks.unit_integral(energy, intensity)
            if gamma <= 0.1:
                checks.zpl_area(energy, intensity, ZPL_EV, gamma, self.totals[s_total])

        return check


WORKLOADS = {w.name: w for w in (Demo, Supercell, Lineshape)}
