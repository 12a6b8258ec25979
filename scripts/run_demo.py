#!/usr/bin/env python3
"""Drive the full pipeline over the demo inputs.

Runs modes -> hr (both routes) -> spectrum -> oracle -> thermo -> dissoc
through the command-line interface and leaves plot-ready tables in
demo_out/.  Expects demo/ from make_demo_inputs.py (run it first).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lumiphon.cli import main as cli


def run(args):
    code = cli([str(a) for a in args])
    if code != 0:
        raise SystemExit(f"step {args[0]} failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--demo", default="demo")
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--zpl", type=float, default=2.6, help="demo ZPL in eV")
    args = parser.parse_args()
    demo = pathlib.Path(args.demo)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    run(
        [
            "modes",
            "--structure", demo / "structure.json",
            "--hessian", demo / "hessian.json",
            "--asr",
            "--out", out / "modes.json",
            "--table", out / "modes.tsv",
            "--manifest", out / "modes.manifest.json",
        ]
    )
    for route, flag, src in (
        ("hr_pair", "--pair", demo / "pair.json"),
        ("hr_forces", "--forces", demo / "forces.json"),
    ):
        run(
            [
                "hr",
                "--structure", demo / "structure.json",
                "--modes", out / "modes.json",
                flag, src,
                "--out", out / f"{route}.json",
                "--stem", out / f"{route}_stem.tsv",
            ]
        )
    run(
        [
            "spectrum",
            "--hr", out / "hr_pair.json",
            "--zpl", args.zpl,
            "--out", out / "spectrum.tsv",
            "--peaks", out / "peaks.tsv",
        ]
    )
    # the brute-force ladder handles few modes: cross-validate the FFT
    # route on the six strongest-coupled modes of the demo system
    import numpy as np

    from lumiphon import io as lio
    from lumiphon.model import HRDecomposition

    hr = lio.parse_hr(lio.load_document(out / "hr_pair.json"))
    top = np.sort(np.argsort(hr.sk)[-6:])
    import math

    reduced = HRDecomposition(
        hr.omegas_mev[top],
        hr.qk[top],
        hr.sk[top],
        math.fsum(hr.sk[top].tolist()),
    )
    lio.write_hr(reduced, out / "hr_top6.json", overwrite=True)

    # the ladder reaches 14 quanta of the highest of the six modes; oracle
    # wants every line 10 gamma inside the window and smears the 14-quanta
    # lines over 8 sigma sqrt(14) (gamma = 1 meV, sigma = 2 meV by default)
    reach_mev = 14.0 * float(reduced.omegas_mev.max()) + 10.0 + 16.0 * math.sqrt(14.0)
    window = f"{args.zpl - reach_mev / 1000.0}:{args.zpl + 0.06}"
    run(
        [
            "spectrum",
            "--hr", out / "hr_top6.json",
            "--zpl", args.zpl,
            "--no-omega-cubed",
            "--window", window,
            "--out", out / "spectrum_top6.tsv",
        ]
    )
    run(
        [
            "oracle",
            "--hr", out / "hr_top6.json",
            "--zpl", args.zpl,
            "--max-quanta", "14",
            "--window", window,
            "--out", out / "oracle.tsv",
            "--sticks", out / "sticks.tsv",
            "--compare", out / "spectrum_top6.tsv",
        ]
    )
    run(
        [
            "thermo",
            "--defects", demo / "defects.json",
            "--envelope", out / "envelope.tsv",
            "--transitions", out / "transitions.tsv",
            "--windows", out / "windows.tsv",
        ]
    )
    run(["dissoc", "--energies", demo / "dissociation.json", "--out", out / "dissociation.tsv"])
    print(f"pipeline complete; tables in {out}/")


if __name__ == "__main__":
    main()
