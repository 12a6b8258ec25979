"""Batch command-line front end.

Subcommands: modes, hr, spectrum, oracle, thermo, dissoc.  Exit codes:
0 success, 2 invalid input or flags, 3 numerical failure.  Outputs are
written atomically and are byte-identical across reruns with the same
inputs and flags, as BLAS runs on one thread.  Before a call runs, main
refuses outputs that name one file, an input, a directory or a place no
file can be created; after it, --manifest records the checksum of every
input file, the version and the command line.

numpy is imported lazily so that main's thread pinning takes effect before
any BLAS library loads.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import shlex
import sys
import warnings

from . import __version__
from .errors import InputError, NumericalError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Flags naming a file a call reads, in the order its manifest lists them.
READS = ("structure", "hessian", "modes", "pair", "forces", "hr", "compare", "defects", "energies")
#: Flags naming a file a call writes.
WRITES = (
    "out", "table", "stem", "peaks", "sticks", "envelope", "transitions", "windows", "manifest"
)
#: The flag of each subcommand that names a phonon basis document, whose
#: vectors file beside it (io.PAYLOAD_SUFFIX) is read or written with it.
BASIS_FLAG = {"modes": "--out", "hr": "--modes"}

#: Bulk phonon cutoff in meV, the --cutoff default of modes and spectrum:
#: modes strictly above it are local vibrational modes.
LVM_CUTOFF_MEV = 115.0


def _finite_float(text: str) -> float:
    """argparse type of every float flag: text io.plain_number refuses, nan
    and inf exit 2 naming the flag."""
    from .io import plain_number

    try:
        value = plain_number(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of --max-quanta: an integer as io.plain_number reads it."""
    from .io import plain_number

    try:
        return plain_number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _parse_window(text: str):
    try:
        lo, hi = text.split(":")
        return _finite_float(lo), _finite_float(hi)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"window must look like LO:HI in eV with finite LO and HI, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumiphon",
        description="Phonon sidebands and defect energetics from first-principles inputs.",
    )
    parser.add_argument("--version", action="version", version=f"lumiphon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags two subcommands share, each declared once
    cutoff = argparse.ArgumentParser(add_help=False)
    cutoff.add_argument(
        "--cutoff",
        type=_finite_float,
        default=LVM_CUTOFF_MEV,
        help="bulk phonon cutoff in meV: modes strictly above it are local vibrational modes",
    )
    line = argparse.ArgumentParser(add_help=False)
    line.add_argument("--hr", required=True, help="coupling JSON")
    line.add_argument("--zpl", type=_finite_float, required=True, help="zero-phonon line in eV")
    line.add_argument(
        "--gamma", type=_finite_float, default=1.0, help="Lorentzian damping in meV"
    )
    line.add_argument(
        "--sigma",
        type=_finite_float,
        default=2.0,
        help="Gaussian smearing in meV: of each mode in spectrum, whose S(hw) is sampled "
        "at a step of sigma/10 to sigma/5 and which refuses a sigma needing an FFT of "
        "S(t) over 2^24 points; of each oracle line, scaled by the root of its quanta, "
        "0 for pure Lorentzians",
    )
    line.add_argument(
        "--window",
        type=_parse_window,
        metavar="LO:HI",
        help="output window in eV, written --window=LO:HI (the = is needed when LO "
        "is negative)",
    )
    line.add_argument("--step", type=_finite_float, default=0.1, help="output step in meV")
    line.add_argument("--out", required=True, help="spectrum TSV")

    p = sub.add_parser(
        "modes", parents=[cutoff], help="diagonalize a Hessian into phonon modes"
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--hessian", required=True)
    p.add_argument("--asr", action="store_true", help="enforce the acoustic sum rule")
    p.add_argument("--out", required=True, help="phonon basis JSON")
    p.add_argument("--table", help="per-mode TSV (energy, localization, LVM flag)")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("hr", help="per-mode coupling from a geometry or force change")
    p.add_argument("--structure", required=True)
    p.add_argument("--modes", required=True, help="phonon basis JSON")
    p.add_argument("--pair", help="geometry pair JSON")
    p.add_argument("--forces", help="force delta JSON")
    p.add_argument("--out", required=True, help="coupling JSON")
    p.add_argument("--stem", help="stem TSV (energy, S_k, cumulative)")
    p.set_defaults(func=cmd_hr)

    p = sub.add_parser(
        "spectrum",
        parents=[line, cutoff],
        help="emission lineshape from a coupling document",
    )
    p.add_argument("--no-omega-cubed", action="store_true")
    p.add_argument("--peaks", help="labelled sideband peaks TSV")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "oracle", parents=[line], help="brute-force ladder spectrum for few modes"
    )
    p.add_argument("--max-quanta", type=_count, default=16)
    p.add_argument("--sticks", help="stick list TSV with quanta labels")
    p.add_argument("--compare", help="spectrum TSV to measure an L1 distance against")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("thermo", help="formation-energy envelopes and transition levels")
    p.add_argument("--defects", required=True, help="defect table JSON")
    p.add_argument("--envelope", required=True, help="envelope samples TSV")
    p.add_argument("--transitions", required=True, help="transition levels TSV")
    p.add_argument("--windows", help="stability windows TSV")
    p.add_argument("--fermi-step", type=_finite_float, default=1.0, help="sampling step in meV")
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("dissoc", help="single-atom removal energies")
    p.add_argument("--energies", required=True, help="dissociation table JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dissoc)

    for sp in sub.choices.values():
        sp.add_argument("--manifest", help="write an input-checksum manifest here")
    return parser


def cmd_modes(args) -> int:
    import numpy as np

    from . import io as lio
    from . import phonons
    from .model import classify_lvm

    structure = lio.parse_structure(lio.load_document(args.structure))
    # the Hessian lives only until D is formed
    d = phonons.dynamical_matrix(lio.load_hessian(args.hessian, structure), structure)
    provenance = {  # input_checksums follows READS: --structure, then --hessian
        "hessian_sha256": args.input_checksums()[1]["sha256"],
        "asr_applied": bool(args.asr),
        "cutoff_bulk_mev": args.cutoff,
        "tool_version": __version__,
    }
    if args.asr:
        d, pre, post = phonons.apply_asr(d, structure)
        provenance["pre_asr_norms_mev"] = pre.tolist()
        provenance["post_asr_norms_mev"] = post.tolist()
    basis = phonons.diagonalize(d)
    del d  # not alive while the basis document is written
    lvm = classify_lvm(basis.omegas_mev, args.cutoff)
    provenance["lvm_indices"] = lvm
    lio.write_phonon_basis(basis, args.out, provenance, overwrite=True)
    if args.table:
        mode = np.arange(basis.nmodes)
        lio.write_table_tsv(
            args.table,
            (
                f"lumiphon modes v{__version__}",
                f"cutoff_mev = {args.cutoff} ; asr = {str(bool(args.asr)).lower()}",
            ),
            ("mode", "omega_mev", "ipr", "lvm"),
            (mode, basis.omegas_mev, phonons.localization_table(basis), np.isin(mode, lvm)),
            overwrite=True,
        )
    print(f"modes: {basis.nmodes}  lvm: {len(lvm)}")
    return 0


def cmd_hr(args) -> int:
    from . import io as lio
    from . import vibronic

    if bool(args.pair) == bool(args.forces):
        raise InputError("give exactly one of --pair or --forces")
    structure = lio.parse_structure(lio.load_document(args.structure))
    basis = lio.parse_phonon_basis(lio.load_document(args.modes), args.modes)
    if args.pair:
        delta = lio.parse_geometry_pair(lio.load_document(args.pair), structure)
        qk = vibronic.qk_from_displacement(basis, delta, structure)
    else:
        forces = lio.parse_force_delta(lio.load_document(args.forces), structure)
        qk = vibronic.qk_from_forces(basis, forces, structure)
    hr = vibronic.partial_hr(qk, basis.omegas_mev)
    lio.write_hr(hr, args.out, overwrite=True)
    if args.stem:
        lio.write_stem_tsv(
            args.stem,
            hr,
            (
                f"lumiphon hr v{__version__}",
                f"route = {'pair' if args.pair else 'forces'} ; total_s = {hr.total:.9g}",
            ),
            overwrite=True,
        )
    print(f"total_s = {hr.total:.9g}")
    return 0


def cmd_spectrum(args) -> int:
    from . import io as lio
    from . import vibronic

    hr = lio.parse_hr(lio.load_document(args.hr))
    window = vibronic.resolve_window(hr, args.zpl, args.gamma, args.sigma, args.window)
    ls = vibronic.emission(
        hr, args.zpl, args.gamma, args.sigma, window, args.step, not args.no_omega_cubed
    )
    peaks = vibronic.effective_mode_report(hr, ls, args.zpl, args.gamma, args.cutoff)
    header = (
        f"lumiphon spectrum v{__version__}",
        f"zpl_ev = {args.zpl:.9g} ; gamma_mev = {args.gamma:.9g} ; "
        f"sigma_mev = {args.sigma:.9g} ; cutoff_mev = {args.cutoff:.9g}",
        f"window_ev = {window[0]:.9g}:{window[1]:.9g} ; step_mev = {args.step:.9g} ; "
        f"omega_cubed = {str(not args.no_omega_cubed).lower()}",
        f"total_s = {hr.total:.9g}",
    )
    lio.write_spectrum_tsv(args.out, ls.energy_ev, ls.intensity, header, overwrite=True)
    if args.peaks:
        lio.write_table_tsv(
            args.peaks,
            header,
            ("rank", "mode", "omega_mev", "sk", "offset_mev", "energy_ev"),
            zip(*((rank, *row) for rank, row in enumerate(peaks, start=1))),
            overwrite=True,
        )
    print(f"spectrum points: {ls.energy_ev.size}  labelled peaks: {len(peaks)}")
    return 0


def cmd_oracle(args) -> int:
    import numpy as np

    from . import fcoracle
    from . import io as lio
    from . import vibronic
    from .model import tsv_printed

    hr = lio.parse_hr(lio.load_document(args.hr))
    window = vibronic.resolve_window(hr, args.zpl, args.gamma, args.sigma, args.window)
    grid = vibronic.energy_grid(window, args.step, args.gamma)
    if args.compare:
        # check the comparison spectrum before any output is written
        other_e, other_i = lio.read_spectrum_tsv(args.compare)
        if not np.array_equal(tsv_printed(other_e), grid):
            raise InputError(
                f"{args.compare} is sampled on a different grid; "
                "regenerate both spectra with the same window and step"
            )
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            other_mass = float(np.trapezoid(other_i, other_e))
        if not (math.isfinite(other_mass) and other_mass > 0):
            raise InputError(
                f"{args.compare} (--compare) integrates to {other_mass:g}; "
                "a spectrum to compare against must have a positive finite integral"
            )
    ladder = fcoracle.enumerate_fc(hr, args.max_quanta)
    intensity = fcoracle.broadened_oracle_spectrum(
        ladder, args.gamma, grid, args.zpl, args.sigma
    )
    header = (
        f"lumiphon oracle v{__version__}",
        f"zpl_ev = {args.zpl:.9g} ; gamma_mev = {args.gamma:.9g} ; "
        f"sigma_mev = {args.sigma:.9g} ; max_quanta = {args.max_quanta}",
        f"lines = {ladder.nlines} ; "
        f"total_weight = {math.fsum(ladder.weights.tolist()):.9g} ; "
        f"tail = {ladder.tail:.9g}",
    )
    lio.write_spectrum_tsv(args.out, grid, intensity, header, overwrite=True)
    if args.sticks:
        lio.write_table_tsv(
            args.sticks,
            header,
            ("energy_ev", "weight", "quanta"),
            (
                args.zpl - ladder.energies_mev / 1000.0,
                ladder.weights,
                [",".join(map(str, quanta)) or "0" for quanta in ladder.quanta.tolist()],
            ),
            overwrite=True,
        )
    print(f"lines = {ladder.nlines}  tail = {ladder.tail:.9g}")
    if args.compare:
        a = intensity / np.trapezoid(intensity, grid)
        b = other_i / other_mass
        l1 = float(np.trapezoid(np.abs(a - b), grid))
        print(f"l1_distance = {l1:.9g}")
    return 0


def cmd_thermo(args) -> int:
    import numpy as np

    from . import energetics
    from . import io as lio
    from .model import MAX_OUTPUT_POINTS, output_grid

    host, entries = lio.parse_defect_table(lio.load_document(args.defects))
    groups = {}  # label -> its entries, labels in first-seen order
    for e in entries:
        groups.setdefault(e.label, []).append(e)
    fermi_mev = output_grid(0.0, host.gap_ev * 1000.0, args.fermi_step, "--fermi-step", "gap")
    if len(groups) * fermi_mev.size > MAX_OUTPUT_POINTS:
        raise InputError(
            f"{len(groups)} labels times {fermi_mev.size} Fermi levels at step "
            f"{args.fermi_step:g} meV (--fermi-step) need more than the "
            f"{MAX_OUTPUT_POINTS} envelope rows allowed"
        )
    fermi = np.minimum(fermi_mev / 1000.0, host.gap_ev)
    header = (
        f"lumiphon thermo v{__version__}",
        f"gap_ev = {host.gap_ev:.9g} ; vbm_ev = {host.vbm_ev:.9g} ; "
        f"fermi_step_mev = {args.fermi_step:.9g}",
    )

    values, trans_rows, window_rows, notes = [], [], [], []
    for label, group in groups.items():
        segments, triples = energetics.stability_diagram(group, host)
        values.append(energetics.envelope(segments, fermi))
        # each boundary between adjacent segments is a transition level
        for (q, _, _, level), (q2, _, _, _) in zip(segments, segments[1:]):
            trans_rows.append((label, q, q2, level, host.gap_ev - level))
        window_rows.extend((label, q, lo, hi) for q, _, lo, hi in segments)
        for q_high, q_mid, q_low, upper, lower in triples:
            notes.append(
                f"negative_u {label} {q_high}/{q_mid}/{q_low} "
                f"eps({q_high}/{q_mid}) = {upper:.9g} >= "
                f"eps({q_mid}/{q_low}) = {lower:.9g}"
            )
    lio.write_table_tsv(
        args.envelope,
        header,
        ("label", "fermi_ev", "formation_ev"),
        (
            np.repeat(np.array(list(groups), dtype=object), fermi.size),
            np.tile(fermi, len(groups)),
            np.concatenate(values),
        ),
        overwrite=True,
    )
    lio.write_table_tsv(
        args.transitions,
        header,
        ("label", "q_from", "q_to", "fermi_ev_above_vbm", "fermi_ev_below_cbm"),
        zip(*trans_rows),
        overwrite=True,
    )
    if args.windows:
        lio.write_table_tsv(
            args.windows,
            header,
            ("label", "charge", "fermi_lo_ev", "fermi_hi_ev"),
            zip(*window_rows),
            overwrite=True,
        )
    for note in notes:
        print(note)
    print(f"labels: {len(groups)}  transitions: {len(trans_rows)}")
    return 0


def cmd_dissoc(args) -> int:
    from . import energetics
    from . import io as lio

    rows = lio.parse_dissociation_table(lio.load_document(args.energies))
    e_d = [
        energetics.dissociation_energy(
            row["fragment_energy_ev"], row["released_energy_ev"], row["cluster_energy_ev"]
        )
        for row in rows
    ]
    stable = [ed >= 0.0 for ed in e_d]
    lio.write_table_tsv(
        args.out,
        (f"lumiphon dissoc v{__version__}",),
        ("label", "e_d_ev", "stable"),
        ([row["label"] for row in rows], e_d, stable),
        overwrite=True,
    )
    print(f"entries: {len(rows)}  unstable: {stable.count(False)}")
    return 0


def _named_files(args, flags):
    """(flag, path) of each file that one of flags names in args, in flags' order."""
    given = [flag for flag in flags if getattr(args, flag, None) is not None]
    return [(f"--{flag}", getattr(args, flag)) for flag in given]


def _same_file(a, b) -> bool:
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


def _unwritable(path):
    """Why no file can be renamed into place at path, or None."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        return os.strerror(errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT)
    if not os.access(directory, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    return None


def _refuse_clashing_outputs(command, reads, writes):
    """InputError, before any file is read or written, for an output that
    is another output or an input, or that cannot be written; the vectors
    file beside a basis document counts as one of the call's files."""
    from .io import PAYLOAD_SUFFIX

    def described(files, role):
        for flag, path in files:
            yield f"{role}{flag} {path}", path
            if BASIS_FLAG.get(command) == flag:
                yield f"the vectors file of {role}{flag} {path}", path + PAYLOAD_SUFFIX

    reads, writes = list(described(reads, "the input ")), list(described(writes, ""))
    for i, (name, path) in enumerate(writes):
        for other, other_path in writes[:i]:
            if _same_file(path, other_path):
                raise InputError(f"{name} is {other}; give each output its own file")
        for other, other_path in reads:
            if _same_file(path, other_path):
                raise InputError(f"{name} is {other}; an output may not replace an input")
    for name, path in writes:
        reason = _unwritable(path)
        if reason:
            raise InputError(f"cannot write {name}: {reason}")


def main(argv=None) -> int:
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    command_line = shlex.join(argv if argv is not None else sys.argv[1:])
    try:
        reads, writes = _named_files(args, READS), _named_files(args, WRITES)
        _refuse_clashing_outputs(args.command, reads, writes)
        from . import io as lio

        # the checksums of the reads, taken once, when first asked for: by
        # modes for its provenance, and for the manifest
        args.input_checksums = functools.cache(
            lambda: lio.input_checksums([path for _, path in reads])
        )
        # a fresh filter state per call: warnings shown once per location
        # in a process are shown again by the next call in the same process
        with warnings.catch_warnings():
            code = args.func(args)
        if code == 0 and args.manifest:
            lio.write_manifest(
                args.input_checksums(), __version__, command_line, args.manifest, overwrite=True
            )
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
