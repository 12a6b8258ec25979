import argparse
import ast
import base64
import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lumiphon import __version__
from lumiphon import io as lio
from lumiphon import units
from lumiphon.cli import BASIS_FLAG, READS, WRITES, build_parser, main
from lumiphon.model import (
    ChemicalPotential,
    CrystalStructure,
    DefectEntry,
    ForceDelta,
    GeometryPair,
    Hessian,
    HostReference,
    PhononBasis,
    structure_checksum,
)
from lumiphon.phonons import diagonalize, dynamical_matrix
from lumiphon.vibronic import partial_hr

from helpers import (
    isotropic_pair_hessian,
    lorentzian_ev,
    random_cluster_structure,
    recurrence_free_spectrum,
)


def _write_diatomic(tmp_path, spring=4.2):
    structure = CrystalStructure(
        np.eye(3) * 10.0,
        ("C", "C"),
        [12.011, 12.011],
        [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
    )
    hessian = Hessian(isotropic_pair_hessian(spring), structure_checksum(structure))
    spath = tmp_path / "structure.json"
    hpath = tmp_path / "hessian.json"
    lio.write_structure(structure, spath)
    lio.write_hessian(hessian, hpath)
    return structure, spath, hpath


def _write_single_mode_hr(tmp_path, s, omega_mev, name="hr.json"):
    q = math.sqrt(2.0 * units.HBAR_AMU_A2_FS * s / units.omega_radfs(omega_mev))
    hr = partial_hr(np.array([q]), np.array([omega_mev]))
    path = tmp_path / name
    lio.write_hr(hr, path)
    return path


def test_modes_diatomic_asr(tmp_path, capsys):
    _, spath, hpath = _write_diatomic(tmp_path)
    out = tmp_path / "modes.json"
    table = tmp_path / "modes.tsv"
    code = main(
        [
            "modes",
            "--structure",
            str(spath),
            "--hessian",
            str(hpath),
            "--asr",
            "--out",
            str(out),
            "--table",
            str(table),
        ]
    )
    assert code == 0
    doc = lio.load_document(out)
    basis, provenance = lio.parse_phonon_basis(doc, out), doc["provenance"]
    assert basis.nmodes == 6
    assert np.sum(np.abs(basis.omegas_mev) < 0.01) == 3
    assert provenance["asr_applied"] is True
    assert table.exists()


def test_modes_asr_on_an_entry_whose_square_passes_the_float_range(tmp_path, capsys):
    # the translational residual of a 1e156 entry squares past the float
    # range; its norm is taken scaled, so the basis and its provenance are
    # written, as they are without --asr
    structure, spath, hpath = _write_diatomic(tmp_path)
    matrix = isotropic_pair_hessian(4.2)
    matrix[0, 0] = 1e156
    lio.write_hessian(Hessian(matrix, structure_checksum(structure)), hpath, overwrite=True)
    out = tmp_path / "modes.json"
    code = main(["modes", "--structure", str(spath), "--hessian", str(hpath), "--asr",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    provenance = lio.load_document(out)["provenance"]
    pre, post = provenance["pre_asr_norms_mev"], provenance["post_asr_norms_mev"]
    assert all(math.isfinite(x) for x in pre + post)
    assert pre[0] > 1e78 and all(b <= a for a, b in zip(pre, post))


def test_modes_builds_the_basis_once(tmp_path, monkeypatch):
    # modes builds one basis and forms no Gram matrix (diagonalize checks
    # what it computes); each hr call forms one, on the basis it reads
    built, grams = [], []
    init, check = PhononBasis.__post_init__, lio._check_orthonormal
    monkeypatch.setattr(PhononBasis, "__post_init__", lambda self: built.append(init(self)))
    monkeypatch.setattr(lio, "_check_orthonormal", lambda v: grams.append(check(v)))
    structure, spath, hpath = _write_diatomic(tmp_path)
    out = tmp_path / "modes.json"
    args = ["modes", "--structure", str(spath), "--hessian", str(hpath), "--cutoff", "50"]
    assert main([*args, "--asr", "--out", str(out)]) == 0
    assert (len(built), len(grams)) == (1, 0)
    assert lio.load_document(out)["provenance"]["cutoff_bulk_mev"] == 50.0
    pair, forces = tmp_path / "pair.json", tmp_path / "forces.json"
    lio.write_geometry_pair(GeometryPair(structure.positions, structure.positions), pair)
    lio.write_force_delta(ForceDelta(np.zeros((2, 3))), forces)
    for calls, route in enumerate([["--pair", str(pair)], ["--forces", str(forces)]], start=2):
        hr = ["hr", "--structure", str(spath), "--modes", str(out), *route]
        assert main([*hr, "--out", str(tmp_path / "hr.json")]) == 0
        assert (len(built), len(grams)) == (calls, calls - 1)


def test_modes_lvm_table_fixture(tmp_path):
    omegas = sorted([0.0, 0.0, 0.0, 30.0, 40.0, 70.0, 100.0, 119.9, 126.2, 127.6, 159.9, 161.8])
    lam = units.eigenvalue_from_hbar_omega(np.array(omegas))
    structure = CrystalStructure(
        np.eye(3) * 10.0,
        ("C",) * 4,
        [1.0] * 4,
        [[i * 2.0, 0.0, 0.0] for i in range(4)],
    )
    spath = tmp_path / "s.json"
    hpath = tmp_path / "h.json"
    lio.write_structure(structure, spath)
    lio.write_hessian(
        Hessian(np.diag(lam), structure_checksum(structure)), hpath
    )
    out = tmp_path / "modes.json"
    code = main(
        [
            "modes",
            "--structure", str(spath),
            "--hessian", str(hpath),
            "--cutoff", "115.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = lio.load_document(out)
    lio.parse_phonon_basis(doc, out)
    assert len(doc["provenance"]["lvm_indices"]) == 5


def test_modes_missing_file_exit_2(tmp_path, capsys):
    out = tmp_path / "modes.json"
    code = main(
        [
            "modes",
            "--structure", str(tmp_path / "absent.json"),
            "--hessian", str(tmp_path / "absent2.json"),
            "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "digits,message",
    [
        (401, "non-finite number at /matrix/1/4"),  # past the float range
        (4301, "hessian.json"),  # past Python's integer digit limit
    ],
)
def test_modes_huge_integer_exit_2(tmp_path, capsys, digits, message):
    _, spath, hpath = _write_diatomic(tmp_path)
    doc = json.loads(hpath.read_text())
    doc["matrix"][1][4] = "@huge@"
    hpath.write_text(json.dumps(doc).replace('"@huge@"', "1" + "0" * (digits - 1)))
    out = tmp_path / "modes.json"
    code = main(
        ["modes", "--structure", str(spath), "--hessian", str(hpath), "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def _set(path, value, add=False):
    """Edit of a loaded document: the entry at key path set to value, or
    increased by it."""

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = node[path[-1]] + value if add else value

    return edit


_HUGE_SK = [_set(("entries", k, "sk"), 1e308) for k in (-2, -1)] + [_set(("total",), 1e308)]


_HUGE_H = [_set(("matrix", 0, 1), 1e308), _set(("matrix", 1, 0), 1e308)]


# demo documents with one input past what a float holds once computed on:
# each call exits 2 naming what overflowed, and prints nothing but that
# error line.  diagonalize's finite-omega and partial_hr's finite-sk checks
# look redundant beside the parsers' but are reached here.
@pytest.mark.parametrize(
    "document, edits, command, named",
    [
        # (H + H^T)/2 overflows in symmetrize
        ("hessian.json", _HUGE_H, "modes", "omegas_mev[0] is not finite"),
        # and the ASR projection of that D is NaN
        ("hessian.json", _HUGE_H, "modes --asr", "omegas_mev[0] is not finite"),
        ("pair.json", [_set(("excited", 0, 0), 1e200, add=True)], "hr", "sk[6] is not finite"),
        # every S_k finite, their sum past the float range
        ("pair.json", [_set(("excited", 0, 0), 2e153, add=True)], "hr", "total S"),
        ("hr.json", _HUGE_SK, "spectrum", "total S"),
        ("hr.json", _HUGE_SK, "oracle", "total S"),
        ("defects.json", [_set(("entries", 0, "charge"), 10**400)], "thermo",
         "/entries/0/charge"),
        ("defects.json", [_set(("entries", 0, "stoichiometry", "Si"), 10**400)], "thermo",
         "/entries/0/stoichiometry/Si"),
        # a charge within the float range whose analytic correction is not
        ("defects.json", [_set(("entries", 0, "charge"), 10**200)], "thermo",
         "formation energy of cluster_a"),
        # each energy finite, one formation line at +inf or -inf
        ("defects.json", [_set(("host", "host_energy_ev"), -1.7e308),
                          _set(("entries", 0, "total_energy_ev"), 1.7e308)], "thermo",
         "formation energy of"),
        ("defects.json", [_set(("host", "host_energy_ev"), 1.7e308),
                          _set(("entries", 0, "total_energy_ev"), -1.7e308)], "thermo",
         "formation energy of"),
    ],
    ids=["modes-hessian", "modes-asr-hessian", "hr-move-1e200", "hr-move-2e153", "spectrum-sk", "oracle-sk",
         "thermo-charge", "thermo-stoichiometry", "thermo-analytic-charge", "thermo-line-above",
         "thermo-line-below"],
)
def test_demo_input_past_float_range_exit_2(
    tmp_path, monkeypatch, capsys, document, edits, command, named
):
    from helpers import _load_demo_inputs_script

    monkeypatch.setattr(sys, "argv", ["make_demo_inputs.py", "--out", str(tmp_path)])
    _load_demo_inputs_script().main()
    s, modes, hr = (str(tmp_path / name) for name in ("structure.json", "modes.json", "hr.json"))
    assert main(["modes", "--structure", s, "--hessian", str(tmp_path / "hessian.json"),
                 "--asr", "--out", modes]) == 0
    assert main(["hr", "--structure", s, "--modes", modes, "--pair",
                 str(tmp_path / "pair.json"), "--out", hr]) == 0
    doc = lio.load_document(tmp_path / document)
    for edit in edits:
        edit(doc)
    (tmp_path / document).write_text(json.dumps(doc))
    out = tmp_path / "out"
    command, *flags = command.split()
    argv = {
        "modes": ["--structure", s, "--hessian", str(tmp_path / "hessian.json")],
        "hr": ["--structure", s, "--modes", modes, "--pair", str(tmp_path / "pair.json")],
        "spectrum": ["--hr", hr, "--zpl", "2.0"],
        "oracle": ["--hr", hr, "--zpl", "2.0"],
        "thermo": ["--defects", str(tmp_path / "defects.json"), "--envelope", str(out),
                   "--transitions", str(tmp_path / "t.tsv")],
    }[command]
    if command != "thermo":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main([command, *flags, *argv]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def _write_chain(tmp_path, natoms):
    """A structure of `natoms` carbon atoms on a line."""
    positions = [[0.1 * i, 0.0, 0.0] for i in range(natoms)]
    structure = CrystalStructure(
        np.eye(3) * (0.1 * natoms + 10.0), ("C",) * natoms, [12.011] * natoms, positions
    )
    spath = tmp_path / "structure.json"
    lio.write_structure(structure, spath)
    return structure, spath


def test_modes_hessian_above_size_limit_exit_2(tmp_path, capsys):
    natoms = lio.MAX_HESSIAN_DIM // 3 + 1
    _, spath = _write_chain(tmp_path, natoms)
    hpath = tmp_path / "hessian.json"
    out = tmp_path / "modes.json"
    # refused before the Hessian file is read: one that is not JSON too
    for text in (json.dumps({"schema": "hessian/1", "dim": 3 * natoms, "triplets": []}),
                 "not a JSON document"):
        hpath.write_text(text)
        code = main(
            ["modes", "--structure", str(spath), "--hessian", str(hpath), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "exceeds the limit MAX_HESSIAN_DIM = 6144" in capsys.readouterr().err


def _prepare_modes(tmp_path, spring=4.2):
    structure, spath, hpath = _write_diatomic(tmp_path, spring)
    modes = tmp_path / "modes.json"
    assert (
        main(
            [
                "modes",
                "--structure", str(spath),
                "--hessian", str(hpath),
                "--asr",
                "--out", str(modes),
            ]
        )
        == 0
    )
    return structure, spath, modes


def test_hr_zero_displacement(tmp_path, capsys):
    structure, spath, modes = _prepare_modes(tmp_path)
    pair = GeometryPair(structure.positions, structure.positions, structure.species)
    ppath = tmp_path / "pair.json"
    lio.write_geometry_pair(pair, ppath)
    out = tmp_path / "hr.json"
    code = main(
        [
            "hr",
            "--structure", str(spath),
            "--modes", str(modes),
            "--pair", str(ppath),
            "--out", str(out),
            "--stem", str(tmp_path / "stem.tsv"),
        ]
    )
    assert code == 0
    hr = lio.parse_hr(lio.load_document(out))
    assert hr.total == 0.0


def test_hr_pair_and_forces_agree(tmp_path):
    structure, spath, modes = _prepare_modes(tmp_path)
    hessian = lio.load_hessian(tmp_path / "hessian.json", structure)
    rng = np.random.default_rng(8)
    delta = rng.normal(scale=0.02, size=(2, 3))
    pair = GeometryPair(
        structure.positions, structure.positions + delta, structure.species
    )
    ppath = tmp_path / "pair.json"
    lio.write_geometry_pair(pair, ppath)
    fpath = tmp_path / "forces.json"
    lio.write_force_delta(ForceDelta(hessian @ delta.reshape(-1)), fpath)

    out1, out2 = tmp_path / "hr1.json", tmp_path / "hr2.json"
    base = ["hr", "--structure", str(spath), "--modes", str(modes)]
    assert main(base + ["--pair", str(ppath), "--out", str(out1)]) == 0
    assert main(base + ["--forces", str(fpath), "--out", str(out2)]) == 0
    hr1 = lio.parse_hr(lio.load_document(out1))
    hr2 = lio.parse_hr(lio.load_document(out2))
    live = hr1.omegas_mev > 0.01
    np.testing.assert_allclose(hr2.qk[live], hr1.qk[live], rtol=1e-8)


def test_hr_requires_exactly_one_route(tmp_path, capsys):
    structure, spath, modes = _prepare_modes(tmp_path)
    assert (
        main(
            [
                "hr",
                "--structure", str(spath),
                "--modes", str(modes),
                "--out", str(tmp_path / "hr.json"),
            ]
        )
        == 2
    )


def test_hr_imaginary_basis_exit_3(tmp_path, capsys):
    structure, spath, hpath = _write_diatomic(tmp_path, spring=-4.2)
    modes = tmp_path / "modes.json"
    assert (
        main(
            [
                "modes",
                "--structure", str(spath),
                "--hessian", str(hpath),
                "--out", str(modes),
            ]
        )
        == 0
    )
    pair = GeometryPair(structure.positions, structure.positions, structure.species)
    ppath = tmp_path / "pair.json"
    lio.write_geometry_pair(pair, ppath)
    code = main(
        [
            "hr",
            "--structure", str(spath),
            "--modes", str(modes),
            "--pair", str(ppath),
            "--out", str(tmp_path / "hr.json"),
        ]
    )
    assert code == 3
    assert "imaginary" in capsys.readouterr().err.lower()


def test_hr_basis_with_a_repeated_mode_exit_2(tmp_path, capsys):
    # 1536 modes: each row has unit norm and row 2 repeats row 1, which a
    # sample of the Gram matrix's rows can miss; hr would count S_1 twice
    n = 1536
    structure, spath = _write_chain(tmp_path, n // 3)
    u = np.random.default_rng(5).normal(size=n)
    u /= np.linalg.norm(u)
    vectors = np.eye(n) - 2.0 * np.outer(u, u)
    vectors[2] = vectors[1]
    payload = vectors.astype("<f8").tobytes()
    (tmp_path / "modes.json.f8").write_bytes(payload)
    doc = {
        "schema": "phonon_basis/4",
        "omegas_mev": np.linspace(20.0, 160.0, n).tolist(),
        "vectors_sha256": hashlib.sha256(payload).hexdigest(),
    }
    modes = tmp_path / "modes.json"
    modes.write_text(json.dumps(doc))
    pair = GeometryPair(structure.positions, structure.positions, structure.species)
    ppath = tmp_path / "pair.json"
    lio.write_geometry_pair(pair, ppath)
    out = tmp_path / "hr.json"
    code = main(
        ["hr", "--structure", str(spath), "--modes", str(modes), "--pair", str(ppath),
         "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert "not orthonormal" in capsys.readouterr().err


def test_hr_qk_are_the_row_major_basis_times_the_mass_weighted_move(tmp_path):
    # the payload is the row-major copy of diagonalize's vectors, so hr's
    # q_k are bit-identical to that copy times sqrt(m) dR (the transposed
    # layout diagonalize returns is summed in another order by BLAS)
    structure, hessian = random_cluster_structure(20, seed=4)
    spath, hpath = tmp_path / "s.json", tmp_path / "h.json"
    lio.write_structure(structure, spath)
    lio.write_hessian(Hessian(hessian, structure_checksum(structure)), hpath)
    modes = tmp_path / "modes.json"
    assert main(["modes", "--structure", str(spath), "--hessian", str(hpath),
                 "--out", str(modes)]) == 0
    move = np.random.default_rng(9).normal(scale=0.01, size=(20, 3))
    ppath = tmp_path / "pair.json"
    lio.write_geometry_pair(
        GeometryPair(structure.positions, structure.positions + move), ppath
    )
    out = tmp_path / "hr.json"
    assert main(["hr", "--structure", str(spath), "--modes", str(modes), "--pair", str(ppath),
                 "--out", str(out)]) == 0
    qk = [entry["qk"] for entry in lio.load_document(out)["entries"]]
    vectors = diagonalize(dynamical_matrix(hessian, structure)).vectors
    delta = (structure.positions + move - structure.positions).reshape(-1)
    y = np.sqrt(structure.mass_vector_3n()) * delta
    assert qk == (np.ascontiguousarray(vectors) @ y).tolist()


def _hr_on_rewritten_basis(tmp_path, rewrite):
    """Exit code of hr --pair on the diatomic's basis document after
    rewrite(doc, vectors) edits it in place."""
    structure, spath, modes = _prepare_modes(tmp_path)
    doc = lio.load_document(modes)
    rewrite(doc, lio.parse_phonon_basis(doc, modes).vectors)
    modes.write_text(json.dumps(doc))
    pair = tmp_path / "pair.json"
    lio.write_geometry_pair(GeometryPair(structure.positions, structure.positions), pair)
    out = tmp_path / "hr.json"
    code = main(
        ["hr", "--structure", str(spath), "--modes", str(modes), "--pair", str(pair),
         "--out", str(out)]
    )
    assert not out.exists()
    return code


def _as_v3(doc, vectors):
    """Rewrite a basis document as phonon_basis/3, as the previous writer
    laid it out: the payload's dtype, shape, file name and hash nested."""
    old = dict(doc)
    doc.clear()
    doc.update(
        schema="phonon_basis/3",
        omegas_mev=old["omegas_mev"],
        vectors={"dtype": "<f8", "shape": list(vectors.shape), "file": "modes.json.f8",
                 "sha256": old["vectors_sha256"]},
        provenance=old["provenance"],
    )


def _refuses_v3_basis(tmp_path, capsys):
    tmp_path.mkdir()
    assert _hr_on_rewritten_basis(tmp_path, _as_v3) == 2
    assert (
        "expected schema 'phonon_basis/4', got 'phonon_basis/3' [at /schema]"
        in capsys.readouterr().err
    )


def test_hr_refuses_v1_basis_exit_2(tmp_path, capsys):
    # phonon_basis/4 is the one basis format read; the nested-list /1 is
    # refused, and so is /3, which named its payload
    def rewrite(doc, vectors):
        doc.update(schema="phonon_basis/1", vectors=vectors.tolist())

    assert _hr_on_rewritten_basis(tmp_path, rewrite) == 2
    assert (
        "expected schema 'phonon_basis/4', got 'phonon_basis/1' [at /schema]"
        in capsys.readouterr().err
    )
    _refuses_v3_basis(tmp_path / "v3", capsys)


def test_hr_refuses_v2_basis_exit_2(tmp_path, capsys):
    # /2 held the same payload as base64 text inside the document, /3 beside it
    def rewrite(doc, vectors):
        text = base64.b64encode(vectors.astype("<f8").tobytes()).decode("ascii")
        doc.update(schema="phonon_basis/2", vectors={"dtype": "<f8", "shape": [6, 6], "base64": text})

    assert _hr_on_rewritten_basis(tmp_path, rewrite) == 2
    assert (
        "expected schema 'phonon_basis/4', got 'phonon_basis/2' [at /schema]"
        in capsys.readouterr().err
    )
    _refuses_v3_basis(tmp_path / "v3", capsys)


def test_hr_basis_from_another_structure_exit_2(tmp_path, capsys):
    # the 6-mode diatomic basis against a 3-atom structure, by both routes
    _, _, modes = _prepare_modes(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    structure, spath = _write_chain(other, 3)
    pair = GeometryPair(structure.positions, structure.positions + 0.01, structure.species)
    ppath, fpath = other / "pair.json", other / "forces.json"
    lio.write_geometry_pair(pair, ppath)
    lio.write_force_delta(ForceDelta(np.full(9, 0.01)), fpath)
    out = other / "hr.json"
    for route in (["--pair", str(ppath)], ["--forces", str(fpath)]):
        code = main(
            ["hr", "--structure", str(spath), "--modes", str(modes), *route, "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "basis has 6 modes" in err and "structure has 3 atoms" in err


def test_spectrum_no_coupling_lorentzian(tmp_path):
    hr_path = _write_single_mode_hr(tmp_path, 0.0, 100.0)
    out = tmp_path / "spec.tsv"
    code = main(
        [
            "spectrum",
            "--hr", str(hr_path),
            "--zpl", "2.0",
            "--window", "1.8:2.1",
            "--no-omega-cubed",
            "--out", str(out),
        ]
    )
    assert code == 0
    e, y = lio.read_spectrum_tsv(out)
    assert e[np.argmax(y)] == pytest.approx(2.0, abs=2e-4)
    ref = lorentzian_ev(e, 2.0, 1.0)
    ref /= np.trapezoid(ref, e)
    assert float(np.trapezoid(np.abs(y - ref), e)) < 1e-4


def test_spectrum_subnormal_total_writes_the_bare_zpl(tmp_path, capsys):
    # S = 1e-320 is subnormal: the trapezoid sum of S(hw) rounds to
    # 9.97e-321, and a check of that integral against the total refused
    # this valid document, which oracle accepts
    hr_path = tmp_path / "hr.json"
    hr_path.write_text(
        '{"schema":"hr/1","total":1e-320,'
        '"entries":[{"omega_mev":100.0,"qk":0.0,"sk":1e-320}]}'
    )
    out = tmp_path / "spec.tsv"
    argv = ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    assert main(["oracle", *argv[1:-1], str(tmp_path / "oracle.tsv")]) == 0
    assert main([*argv, "--window", "1.8:2.1", "--no-omega-cubed"]) == 0
    e, y = lio.read_spectrum_tsv(out)
    ref = lorentzian_ev(e, 2.0, 1.0)
    ref /= np.trapezoid(ref, e)
    assert float(np.trapezoid(np.abs(y - ref), e)) < 1e-4


def test_spectrum_window_excluding_support_exit_2(tmp_path, capsys):
    hr_path = _write_single_mode_hr(tmp_path, 0.5, 150.0)
    code = main(
        [
            "spectrum",
            "--hr", str(hr_path),
            "--zpl", "2.0",
            "--window", "0.2:0.4",
            "--out", str(tmp_path / "spec.tsv"),
        ]
    )
    assert code == 2
    assert not (tmp_path / "spec.tsv").exists()


def test_spectrum_window_with_a_negative_low_end(tmp_path, capsys):
    # argparse reads a spaced "-0.5:2.06" as an option; the --window= form,
    # which the help and the README give, passes it
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    out = tmp_path / "spec.tsv"
    code = main(["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--window=-0.5:2.06",
                 "--no-omega-cubed", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    e, y = lio.read_spectrum_tsv(out)
    assert e[0] == -0.5 and abs(np.trapezoid(y, e) - 1.0) < 1e-6


def test_spectrum_default_grid_at_large_s(tmp_path, capsys):
    # at S = 30 the multi-phonon support, not the window, sets the Nyquist
    # energy; the time grid must be sized from the same omega_max that
    # lineshape checks it against
    omegas = np.linspace(5.0, 180.0, 24)
    sks = 30.0 * omegas**2 / np.sum(omegas**2)
    qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas))
    hr_path = tmp_path / "hr.json"
    lio.write_hr(partial_hr(qk, omegas), hr_path)
    code = main(
        ["spectrum", "--hr", str(hr_path), "--zpl", "2.6", "--out", str(tmp_path / "s.tsv")]
    )
    assert code == 0, capsys.readouterr().err


def _write_generated_hr(tmp_path, nmodes, s_total, seed, band, pin_band=False):
    # couplings grow with mode energy, as in a defect's local distortion
    rng = np.random.default_rng(seed)
    omegas = np.sort(rng.uniform(*band, size=nmodes))
    if pin_band:
        omegas[0], omegas[-1] = band
    weights = rng.exponential(size=nmodes) * (omegas / band[1]) ** 2
    sks = s_total * weights / weights.sum()
    qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas))
    path = tmp_path / "hr.json"
    lio.write_hr(partial_hr(qk, omegas), path)
    return omegas, sks, path


def test_spectrum_small_gamma_sideband_has_no_comb(tmp_path, capsys):
    # at gamma = 0.1 meV a transform over 25 hbar/gamma reaches the
    # recurrences of S(t) on the sigma/5 spectral grid (10.3 ps at
    # sigma = 2 meV) and writes the sideband as a comb 0.4 meV apart
    omegas, sks, hr_path = _write_generated_hr(tmp_path, 64, 1.0, 5, (10.0, 100.0))
    out = tmp_path / "s.tsv"
    code = main(
        ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--gamma", "0.1",
         "--window", "1.4:2.03", "--no-omega-cubed", "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    e, y = lio.read_spectrum_tsv(out)
    ref = recurrence_free_spectrum(omegas, sks, 2.0, 0.1, 2.0, e, bin_mev=0.025)
    ref /= np.trapezoid(ref, e)
    assert float(np.trapezoid(np.abs(y - ref), e)) < 1e-5


@pytest.mark.parametrize("s_total,gamma", [(20.0, 1.0), (3.0, 0.01)])
def test_spectrum_where_a_recurrence_lifted_g_above_one(tmp_path, capsys, s_total, gamma):
    # on these documents a transform reaching the first recurrence of S(t)
    # gave |G| > 1 and exit 2
    _, _, hr_path = _write_generated_hr(tmp_path, 64, s_total, 1, (5.0, 180.0), True)
    out = tmp_path / "s.tsv"
    code = main(
        ["spectrum", "--hr", str(hr_path), "--zpl", "2.6", "--gamma", f"{gamma:g}",
         "--step", f"{min(gamma, 0.1):g}", "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    e, y = lio.read_spectrum_tsv(out)
    assert float(np.trapezoid(y, e)) == pytest.approx(1.0, abs=1e-6)


def test_spectrum_step_above_gamma_exit_2(tmp_path, capsys):
    hr_path = _write_single_mode_hr(tmp_path, 0.5, 100.0)
    argv = ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--gamma", "0.01",
            "--window", "1.85:2.01", "--out", str(tmp_path / "s.tsv")]
    assert main(argv + ["--step", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "--step" in err and "--gamma" in err
    assert not (tmp_path / "s.tsv").exists()
    assert main(argv + ["--step", "0.01"]) == 0


def _write_one_line_hr(tmp_path, total, omega_mev):
    path = tmp_path / "hr.json"
    path.write_text(json.dumps({"schema": "hr/1", "total": total, "entries": [
        {"omega_mev": omega_mev, "qk": 0.0, "sk": total}]}))
    return path


@pytest.mark.parametrize(
    "flags", [["--zpl", "1e300"], ["--zpl", "2.6", "--gamma", "1e160", "--step", "1"]],
    ids=["zpl", "gamma"],
)
def test_spectrum_window_past_any_time_step_exit_2(tmp_path, capsys, flags):
    # a reach of 1e303 or 1e161 meV: the folded-tail Nyquist energy
    # overflowed and its time step of 0 divided by zero
    hr_path = _write_one_line_hr(tmp_path, 0.8, 140.0)
    out = tmp_path / "a.tsv"
    assert main(["spectrum", "--hr", str(hr_path), *flags, "--window", "2.55:2.65",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--zpl" in err and "--window" in err and "--gamma" in err
    assert not out.exists()


def test_spectrum_step_below_the_printed_resolution_exit_2(tmp_path, capsys):
    # at 1e6 eV, %.9g keeps 10 meV: a 0.1 meV step printed 15,474 rows with
    # 1,492 distinct energies
    hr_path = _write_one_line_hr(tmp_path, 0.8, 140.0)
    out = tmp_path / "s.tsv"
    argv = ["spectrum", "--hr", str(hr_path), "--zpl", "1e6", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--step" in err and "--window" in err
    assert not out.exists()
    assert main([*argv, "--gamma", "100", "--step", "100"]) == 0
    energy, intensity = lio.read_spectrum_tsv(out)
    assert np.all(np.diff(energy) > 0)
    assert abs(np.trapezoid(intensity, energy) - 1.0) < 0.01


_REQUIRED_FLAGS = {
    "modes": ["--structure", "s.json", "--hessian", "h.json", "--out", "m.json"],
    "spectrum": ["--hr", "hr.json", "--zpl", "2.0", "--out", "s.tsv"],
    "oracle": ["--hr", "hr.json", "--zpl", "2.0", "--out", "o.tsv"],
    "thermo": ["--defects", "d.json", "--envelope", "e.tsv", "--transitions", "t.tsv"],
}


# a number flag reads its text as written: float() would read each of the
# last four (as 20, 2, 2 and 2), int() the first and the third
@pytest.mark.parametrize(
    "value",
    ["nan", "inf", pytest.param("2_0", id="underscore"),
     pytest.param(" 2.0", id="leading-space"), pytest.param("\u0662", id="arabic-indic-two"),
     pytest.param("\uff12.0", id="fullwidth-two")],
)
@pytest.mark.parametrize(
    "command, flag",
    [("modes", "--cutoff")]
    + [("spectrum", f) for f in ("--zpl", "--gamma", "--sigma", "--window", "--step",
                                 "--cutoff")]
    + [("oracle", f) for f in ("--zpl", "--gamma", "--sigma", "--window", "--step",
                               "--max-quanta")]
    + [("thermo", "--fermi-step")],
)
def test_non_finite_float_flag_exit_2(tmp_path, monkeypatch, capsys, command, flag, value):
    monkeypatch.chdir(tmp_path)
    text = f"{value}:2.0" if flag == "--window" else value
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED_FLAGS[command], flag, text])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hr_spectrum_oracle_import_no_scipy(tmp_path):
    # hr, spectrum and oracle run on numpy alone: scipy serves the tests only
    root = pathlib.Path(__file__).resolve().parent.parent
    demo, out = tmp_path / "demo", tmp_path / "out"
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_demo_inputs.py"), "--out", str(demo)],
        check=True,
        capture_output=True,
    )
    out.mkdir()
    s = str(demo / "structure.json")
    assert main(
        ["modes", "--structure", s, "--hessian", str(demo / "hessian.json"),
         "--asr", "--out", str(out / "modes.json")]
    ) == 0
    script = f"""
import json, math, sys
import numpy as np
from lumiphon import io as lio
from lumiphon.cli import main
from lumiphon.model import HRDecomposition
out = {str(out)!r}
assert main(["hr", "--structure", {s!r}, "--modes", out + "/modes.json",
             "--pair", {str(demo / "pair.json")!r}, "--out", out + "/hr.json"]) == 0
assert main(["spectrum", "--hr", out + "/hr.json", "--zpl", "2.6",
             "--out", out + "/spectrum.tsv", "--peaks", out + "/peaks.tsv"]) == 0
hr = lio.parse_hr(lio.load_document(out + "/hr.json"))
top = np.sort(np.argsort(hr.sk)[-4:])
lio.write_hr(HRDecomposition(hr.omegas_mev[top], hr.qk[top], hr.sk[top],
                             math.fsum(hr.sk[top].tolist())), out + "/top.json")
assert main(["oracle", "--hr", out + "/top.json", "--zpl", "2.6", "--max-quanta", "8",
             "--window", "1.0:2.66", "--out", out + "/oracle.tsv"]) == 0
with open(out + "/modules.json", "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.startswith("scipy")), fh)
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "modules.json").read_text()) == []


def test_spectrum_import_path_skips_phonons_and_hashlib():
    # the modules spectrum and oracle import load neither the lattice
    # dynamics nor hashlib, which only modes' provenance and manifests use
    root = pathlib.Path(__file__).resolve().parent.parent
    script = """
import sys
import lumiphon.cli, lumiphon.fcoracle, lumiphon.io, lumiphon.vibronic
print(sorted(m for m in ("lumiphon.phonons", "hashlib") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_oracle_two_mode_tail(tmp_path, capsys):
    hr = partial_hr(
        np.sqrt(
            2.0
            * units.HBAR_AMU_A2_FS
            * np.array([0.5, 0.3])
            / units.omega_radfs(np.array([100.0, 150.0]))
        ),
        np.array([100.0, 150.0]),
    )
    hr_path = tmp_path / "hr.json"
    lio.write_hr(hr, hr_path)
    out = tmp_path / "oracle.tsv"
    sticks = tmp_path / "sticks.tsv"
    code = main(
        [
            "oracle",
            "--hr", str(hr_path),
            "--zpl", "2.0",
            "--max-quanta", "12",
            "--out", str(out),
            "--sticks", str(sticks),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    tail = float(stdout.split("tail = ")[1].split()[0])
    assert tail < 1e-8
    assert sticks.exists()


def test_oracle_step_above_gamma_exit_2(tmp_path, capsys):
    omegas, sks = np.array([60.0, 90.0]), np.array([0.6, 0.4])
    hr_path = tmp_path / "hr.json"
    lio.write_hr(
        partial_hr(np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas),
        hr_path,
    )
    out = tmp_path / "oracle.tsv"
    argv = ["oracle", "--hr", str(hr_path), "--zpl", "2.0", "--gamma", "0.01",
            "--window", "1.0:2.01", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--step" in err and "--gamma" in err
    assert not out.exists()
    assert main(argv + ["--step", "0.01"]) == 0
    e, y = lio.read_spectrum_tsv(out)
    near = np.abs(e - 2.0) <= 20 * 0.01e-3
    area = float(np.trapezoid(y[near], e[near]))
    assert area == pytest.approx(math.exp(-1.0) * 2.0 / math.pi * math.atan(20.0), rel=0.01)


def test_oracle_cap_zero_single_stick(tmp_path, capsys):
    hr_path = _write_single_mode_hr(tmp_path, 1.3, 150.0)
    sticks = tmp_path / "sticks.tsv"
    with pytest.warns(UserWarning):
        code = main(
            [
                "oracle",
                "--hr", str(hr_path),
                "--zpl", "2.0",
                "--max-quanta", "0",
                "--out", str(tmp_path / "o.tsv"),
                "--sticks", str(sticks),
            ]
        )
    assert code == 0
    rows = [
        ln.split("\t")
        for ln in sticks.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(math.exp(-1.3), rel=1e-9)
    tail = float(capsys.readouterr().out.split("tail = ")[1].split()[0])
    assert tail == pytest.approx(1.0 - math.exp(-1.3), rel=1e-9)


def test_each_in_process_call_warns_as_if_run_alone(tmp_path):
    # under the default filter a warning is shown once per code location per
    # process; three oracle calls in one process each show their cap warning
    from lumiphon.errors import CapTooSmallWarning

    hr_path = _write_single_mode_hr(tmp_path, 1.3, 150.0)
    argv = ["oracle", "--hr", str(hr_path), "--zpl", "2.0", "--max-quanta", "3",
            "--out", str(tmp_path / "o.tsv")]
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        assert [main(argv) for _ in range(3)] == [0, 0, 0]
    assert [w.category for w in shown] == [CapTooSmallWarning] * 3


def test_oracle_compare_against_spectrum(tmp_path, capsys):
    # on a window given, and on the default window at a sigma below 1 meV,
    # which both subcommands work out by one rule
    spec = tmp_path / "spec.tsv"
    for omega, extra in ((140.0, ["--window", "0.3:2.06"]), (40.0, ["--sigma", "0.5"])):
        hr_path = _write_single_mode_hr(tmp_path, 0.8, omega, f"hr_{omega:g}.json")
        common = ["--hr", str(hr_path), "--zpl", "2.0", "--step", "0.2", *extra]
        assert main(["spectrum", *common, "--no-omega-cubed", "--out", str(spec)]) == 0
        capsys.readouterr()
        code = main(
            ["oracle", *common, "--max-quanta", "14", "--out", str(tmp_path / "oracle.tsv"),
             "--compare", str(spec)]
        )
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "oracle.tsv").exists()
        l1 = float(capsys.readouterr().out.split("l1_distance = ")[1].split()[0])
        assert l1 < 1e-4


def test_oracle_compare_grid_mismatch_exit_2(tmp_path, capsys):
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    spec = tmp_path / "spec.tsv"
    assert (
        main(
            [
                "spectrum",
                "--hr", str(hr_path),
                "--zpl", "2.0",
                "--no-omega-cubed",
                "--window", "1.7:2.06",
                "--step", "0.5",
                "--out", str(spec),
            ]
        )
        == 0
    )
    code = main(
        [
            "oracle",
            "--hr", str(hr_path),
            "--zpl", "2.0",
            "--window", "1.7:2.06",
            "--step", "0.2",
            "--out", str(tmp_path / "oracle.tsv"),
            "--compare", str(spec),
        ]
    )
    assert code == 2
    assert not (tmp_path / "oracle.tsv").exists()


def test_oracle_compare_non_finite_spectrum_exit_2(tmp_path, capsys):
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    window, step = "0.3:2.06", "0.2"
    spec = tmp_path / "spec.tsv"
    common = ["--hr", str(hr_path), "--zpl", "2.0", "--window", window, "--step", step]
    assert main(["spectrum", *common, "--no-omega-cubed", "--out", str(spec)]) == 0
    lines = spec.read_text().splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 3
    lines[row] = lines[row].split("\t")[0] + "\tnan\n"
    spec.write_text("".join(lines))
    capsys.readouterr()
    code = main(
        ["oracle", *common, "--max-quanta", "14", "--out", str(tmp_path / "oracle.tsv"),
         "--compare", str(spec)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert str(spec) in captured.err and f"line {row + 1}" in captured.err
    assert "l1_distance" not in captured.out
    assert not (tmp_path / "oracle.tsv").exists()


@pytest.mark.parametrize(
    "intensity",
    [lambda y: 0.0 * y, lambda y: -y, lambda y: 0.0 * y + 1e308],
    ids=["zero", "negated", "overflowing"],
)
def test_oracle_compare_spectrum_without_positive_integral_exit_2(tmp_path, capsys, intensity):
    # an all-zero spectrum made the L1 distance nan, a negated one read
    # the same distance as the original
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    spec = tmp_path / "spec.tsv"
    common = ["--hr", str(hr_path), "--zpl", "2.0", "--window", "0.2:2.06"]
    assert main(["spectrum", *common, "--no-omega-cubed", "--out", str(spec)]) == 0
    e, y = lio.read_spectrum_tsv(spec)
    oracle = ["oracle", *common, "--out", str(tmp_path / "oracle.tsv"), "--compare", str(spec)]
    # a rounding-level negative sample, as the FFT convolution writes, is no reason
    y[len(y) // 2] = -1e-12
    lio.write_spectrum_tsv(spec, e, y, overwrite=True)
    capsys.readouterr()
    assert main(oracle) == 0, capsys.readouterr().err
    (tmp_path / "oracle.tsv").unlink()
    lio.write_spectrum_tsv(spec, e, intensity(y), overwrite=True)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(oracle) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    captured = capsys.readouterr()
    assert "--compare" in captured.err and str(spec) in captured.err, captured.err
    assert "l1_distance" not in captured.out
    assert not (tmp_path / "oracle.tsv").exists()


def test_oracle_compare_non_round_window(tmp_path, capsys):
    # a 16-digit window edge: spectrum writes its energies at 9 significant
    # digits, up to 5e-9 eV from the grid oracle builds
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    window = "0.8736560765229056:2.66"
    spec = tmp_path / "spec.tsv"
    common = ["--hr", str(hr_path), "--zpl", "2.6"]
    assert main(
        ["spectrum", *common, "--no-omega-cubed", "--window", window, "--out", str(spec)]
    ) == 0
    capsys.readouterr()
    oracle = ["oracle", *common, "--out", str(tmp_path / "oracle.tsv"), "--compare", str(spec)]
    assert main([*oracle, "--window", window]) == 0
    l1 = float(capsys.readouterr().out.split("l1_distance = ")[1].split()[0])
    assert l1 < 1e-4
    # the same number of points, shifted by one 0.1 meV step
    (tmp_path / "oracle.tsv").unlink()
    assert main([*oracle, "--window", "0.8737560765229056:2.6601"]) == 2
    assert "different grid" in capsys.readouterr().err
    assert not (tmp_path / "oracle.tsv").exists()


def test_spectrum_and_oracle_resolve_window_and_grid_once(tmp_path, monkeypatch):
    from lumiphon import vibronic

    resolve, build = vibronic.resolve_window, vibronic.energy_grid
    calls = []

    def resolving(hr, *flags):
        calls.append(("resolve_window", flags))  # hr is the command's own parse
        return resolve(hr, *flags)

    def building(*args):
        calls.append(("energy_grid", args))
        return build(*args)

    monkeypatch.setattr(vibronic, "resolve_window", resolving)
    monkeypatch.setattr(vibronic, "energy_grid", building)
    hr_path = _write_single_mode_hr(tmp_path, 0.5, 100.0)
    hr = lio.parse_hr(lio.load_document(hr_path))
    assert main(["spectrum", "--hr", str(hr_path), "--zpl", "2.0",
                 "--out", str(tmp_path / "spec.tsv")]) == 0
    window = resolve(hr, 2.0, 1.0, 2.0)
    assert calls == [
        ("resolve_window", (2.0, 1.0, 2.0, None)),
        ("energy_grid", (window, 0.1, 1.0)),
    ]
    # oracle's pure Lorentzians resolve by the same rule at sigma = 0
    calls.clear()
    oracle = tmp_path / "oracle.tsv"
    assert main(["oracle", "--hr", str(hr_path), "--zpl", "2.0", "--sigma", "0",
                 "--max-quanta", "12", "--out", str(oracle)]) == 0
    window = resolve(hr, 2.0, 1.0, 0.0)
    assert window[1] == (2000.0 + 50.0) / 1000.0
    assert calls == [
        ("resolve_window", (2.0, 1.0, 0.0, None)),
        ("energy_grid", (window, 0.1, 1.0)),
    ]
    # the table's energies read back are the grid's floats, bit for bit
    energy, _ = lio.read_spectrum_tsv(oracle)
    assert energy.tobytes() == build(window, 0.1, 1.0).tobytes()


# a window 0.05 meV wide holds one point at the default 0.1 meV step
_ONE_POINT_WINDOW = (["--window", "1.5:1.50005"], ("--window", "--step"))


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--step", "0"], ("--step",)),
        (["--step", "1e-12"], ("--step",)),
        (["--window", "2.1:2.0"], ("--window",)),
        (["--window", "1.7:2.06", "--step", "0.2", "--compare", "spec.tsv"],
         ("different grid",)),
        (["--gamma", "0"], ("--gamma",)),
        (["--zpl", "-1"], ("--zpl",)),
        (["--sigma", "-1"], ("--sigma",)),
        (["--step", "5"], ("--step", "--gamma")),
        _ONE_POINT_WINDOW,
        (["--compare", "junk.tsv"], ("junk.tsv: not a number [at line 2]",)),
        # a row is read as written: an empty first or last field is a field
        (["--compare", "lead.tsv"], ("lead.tsv: expected 2 columns [at line 2]",)),
        (["--compare", "trail.tsv"], ("trail.tsv: expected 2 columns [at line 2]",)),
        # and each field as written: float() reads both of these as 1.7
        (["--compare", "under.tsv"], ("under.tsv: not a number [at line 2]",)),
        (["--compare", "space.tsv"], ("space.tsv: not a number [at line 2]",)),
    ],
    ids=["step-zero", "step-too-fine", "window-empty", "compare-other-grid", "gamma-zero",
         "zpl-negative", "sigma-negative", "step-above-gamma", "window-one-point",
         "compare-not-a-number", "compare-leading-tab", "compare-trailing-tab",
         "compare-underscore", "compare-leading-space"],
)
def test_oracle_refuses_bad_grid_before_enumerating(tmp_path, monkeypatch, capsys, extra, named):
    from lumiphon import fcoracle

    monkeypatch.chdir(tmp_path)
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    rows = {"junk": "1.0\tabc", "lead": "\t1.7\t1.0", "trail": "1.7\t1.0\t",
            "under": "1_7\t1.0", "space": " 1.7\t1.0"}
    for name, row in rows.items():
        (tmp_path / f"{name}.tsv").write_text(f"# columns: energy_ev\tintensity_per_ev\n{row}\n")
    common = ["--hr", str(hr_path), "--zpl", "2.0"]
    assert main(
        ["spectrum", *common, "--window", "1.7:2.06", "--step", "0.5", "--out", "spec.tsv"]
    ) == 0
    capsys.readouterr()
    enumerated = []
    monkeypatch.setattr(fcoracle, "enumerate_fc", lambda *args: enumerated.append(args))
    assert main(["oracle", *common, *extra, "--out", "oracle.tsv"]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert enumerated == []
    assert not (tmp_path / "oracle.tsv").exists()


def test_oracle_grid_whose_square_passes_the_float_range_exit_2(tmp_path, capsys):
    # each flag finite, the padded grid's squared span past the float range
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    out = tmp_path / "oracle.tsv"
    assert main(["oracle", "--hr", str(hr_path), "--zpl", "2e300", "--gamma", "1e299",
                 "--step", "1e299", "--window=1e300:3e300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the padded grid spans 2.002e+300 eV, whose square passes "
                          "the float range") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--step", "0"], ("--step",)),
        (["--step", "5"], ("--step", "--gamma")),
        (["--step", "1e-7"], ("--step", "--window")),
        (["--window=-1:2.7"], ("--window",)),
        (["--zpl", "0"], ("--zpl",)),
        (["--gamma", "0"], ("--gamma",)),
        (["--sigma", "0"], ("--sigma",)),
        _ONE_POINT_WINDOW,
    ],
    ids=["step-zero", "step-above-gamma", "step-too-fine", "window-below-zero", "zpl-zero",
         "gamma-zero", "sigma-zero", "window-one-point"],
)
def test_spectrum_refuses_bad_flags_before_any_fft(tmp_path, monkeypatch, capsys, extra, named):
    from lumiphon import vibronic

    monkeypatch.chdir(tmp_path)
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    built = []
    monkeypatch.setattr(vibronic, "generating_function", lambda *args: built.append(args))
    assert main(["spectrum", "--hr", str(hr_path), "--zpl", "2.0", *extra,
                 "--out", "spec.tsv"]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert built == []
    assert not (tmp_path / "spec.tsv").exists()


def _write_eight_mode_hr(tmp_path, sk):
    omegas = np.linspace(20.0, 160.0, 8)
    sks = np.full(8, sk)
    hr = partial_hr(
        np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas
    )
    path = tmp_path / "hr8.json"
    lio.write_hr(hr, path)
    return path


def test_oracle_ladder_above_line_limit_exit_2(tmp_path, capsys):
    from lumiphon.fcoracle import MAX_LINES

    hr_path = _write_eight_mode_hr(tmp_path, 1.0)
    code = main(
        ["oracle", "--hr", str(hr_path), "--zpl", "4.0", "--max-quanta", "24",
         "--out", str(tmp_path / "o.tsv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--max-quanta" in err and str(MAX_LINES) in err
    assert not (tmp_path / "o.tsv").exists()


@pytest.mark.filterwarnings("ignore::lumiphon.errors.CapTooSmallWarning")
def test_oracle_broadening_above_work_limit_exit_2(tmp_path, capsys):
    from lumiphon.fcoracle import MAX_LINE_POINTS

    # 43,758 lines on about 276,000 padded points
    hr_path = _write_eight_mode_hr(tmp_path, 0.3)
    code = main(
        ["oracle", "--hr", str(hr_path), "--zpl", "3.0", "--max-quanta", "10",
         "--step", "0.01", "--out", str(tmp_path / "o.tsv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    for name in ("--max-quanta", "--window", "--step", str(MAX_LINE_POINTS)):
        assert name in err
    assert not (tmp_path / "o.tsv").exists()


@pytest.mark.filterwarnings("ignore::lumiphon.errors.CapTooSmallWarning")
def test_oracle_padded_grid_above_the_limit_exit_2(tmp_path, capsys):
    # one line passes MAX_LINE_POINTS, but 10 gamma of padding at the step
    # is 2e8 points, which the padded grid allocated before
    hr_path = _write_one_line_hr(tmp_path, 30.0, 5.0)
    out = tmp_path / "o.tsv"
    tracemalloc.start()
    try:
        code = main(["oracle", "--hr", str(hr_path), "--zpl", "2.6", "--max-quanta", "0",
                     "--gamma", "1e6", "--window", "1e-6:0.100001", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "--gamma" in err and "--step" in err
    assert not out.exists()
    assert peak < 16e6


def test_oracle_too_many_modes_exit_2(tmp_path, capsys):
    omegas = np.linspace(50.0, 180.0, 9)
    sks = np.full(9, 0.1)
    hr = partial_hr(
        np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas)), omegas
    )
    hr_path = tmp_path / "hr.json"
    lio.write_hr(hr, hr_path)
    code = main(
        [
            "oracle",
            "--hr", str(hr_path),
            "--zpl", "2.0",
            "--out", str(tmp_path / "o.tsv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "total, extra",
    [(80.0, []), (50.0, ["--max-quanta", "4", "--sigma", "0"])],
    ids=["default-cap", "cap-4-unbroadened"],
)
def test_oracle_ladder_without_a_line_exit_2(tmp_path, capsys, total, extra):
    # every Poisson factor of at most the cap quanta is below the prune weight
    hr_path = tmp_path / "hr.json"
    hr_path.write_text(json.dumps({"schema": "hr/1", "total": total, "entries": [
        {"omega_mev": 100.0, "qk": 1.0, "sk": total}]}))
    out = tmp_path / "o.tsv"
    assert main(["oracle", "--hr", str(hr_path), "--zpl", "2.6", *extra, "--out", str(out)]) == 2
    assert "--max-quanta" in capsys.readouterr().err
    assert not out.exists()


def _write_defects(tmp_path):
    host = HostReference(
        -100.0, 0.0, 3.17, {"C": ChemicalPotential(-9.0, 0.0)}
    )
    entries = [
        DefectEntry("pair_site", 1, -99.0),
        DefectEntry("pair_site", 0, -98.5),
    ]
    path = tmp_path / "defects.json"
    lio.write_defect_table(host, entries, path)
    return path


def test_thermo_two_line_fixture(tmp_path, capsys):
    dpath = _write_defects(tmp_path)
    env = tmp_path / "env.tsv"
    trans = tmp_path / "trans.tsv"
    code = main(
        [
            "thermo",
            "--defects", str(dpath),
            "--envelope", str(env),
            "--transitions", str(trans),
            "--windows", str(tmp_path / "win.tsv"),
        ]
    )
    assert code == 0
    rows = [
        ln.split("\t")
        for ln in trans.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert len(rows) == 1
    label, q_from, q_to, eps_v, eps_c = rows[0]
    assert (label, q_from, q_to) == ("pair_site", "1", "0")
    assert float(eps_v) == pytest.approx(0.5)
    assert float(eps_c) == pytest.approx(3.17 - 0.5)


def _thermo_one_label(tmp_path, host_energy, vbm, energies):
    """Run thermo on label X with total energies by charge and a 3 eV gap;
    return the envelope and windows paths."""
    doc = {
        "schema": "defects/1",
        "host": {"host_energy_ev": host_energy, "vbm_ev": vbm,
                 "gap_ev": 3.0, "chemical_potentials": {}},
        "entries": [
            {"label": "X", "charge": q, "total_energy_ev": e, "stoichiometry": {},
             "correction_ev": 0}
            for q, e in energies.items()
        ],
    }
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(doc))
    env, win = tmp_path / "env.tsv", tmp_path / "win.tsv"
    argv = ["thermo", "--defects", str(path), "--envelope", str(env),
            "--transitions", str(tmp_path / "t.tsv"), "--windows", str(win)]
    assert main(argv) == 0
    return env, win


def test_thermo_keeps_the_lowest_of_near_coincident_lines(tmp_path, capsys):
    # crossings 3/1 and 3/-3 lie one ulp apart: the q = -3 line, not the
    # 1 and 0 lines, is lowest from 1.2660068 eV to the gap
    energies = {-3: -1765.8707, 3: -1778.9924, 0: -1772.4315, 1: -1774.6185, 2: -1776.8054}
    env, win = _thermo_one_label(tmp_path, -1775.3655418580274, 0.9209432044283434, energies)
    rows = [ln.split("\t") for ln in win.read_text().splitlines() if not ln.startswith("#")]
    assert rows == [["X", "3", "0", "1.2660068"], ["X", "-3", "1.2660068", "3"]]
    label, fermi, formation = env.read_text().splitlines()[-1].split("\t")
    assert (label, fermi) == ("X", "3")
    # the q = -3 line at the gap, 5.2 eV below the q = 0 line
    assert float(formation) == pytest.approx(-1765.8707 + 1775.3655418580274 - 3 * 3.9209432044283434)


def test_thermo_notes_no_negative_u_for_a_charge_with_a_window(tmp_path, capsys):
    # float quotients put eps(2/0) = eps(0/-3) = 1.9807, but the exact
    # crossings give the neutral line a window, so its levels are not inverted
    _, win = _thermo_one_label(tmp_path, 0.0, 0.0, {2: -3.1132, 0: 0.8482, -3: 6.7903})
    assert "negative_u" not in capsys.readouterr().out
    rows = [ln.split("\t") for ln in win.read_text().splitlines() if not ln.startswith("#")]
    assert [row[1] for row in rows] == ["2", "0", "-3"]


def test_thermo_missing_potential_exit_2(tmp_path, capsys):
    host = HostReference(-100.0, 0.0, 3.17, {})
    entries = [DefectEntry("v", 0, -95.0, {"C": 1})]
    path = tmp_path / "defects.json"
    lio.write_defect_table(host, entries, path)
    code = main(
        [
            "thermo",
            "--defects", str(path),
            "--envelope", str(tmp_path / "e.tsv"),
            "--transitions", str(tmp_path / "t.tsv"),
        ]
    )
    assert code == 2
    assert "/entries/0/stoichiometry/C" in capsys.readouterr().err


_HOST = {
    "host_energy_ev": -100.0,
    "vbm_ev": 0.0,
    "gap_ev": 3.17,
    "chemical_potentials": {"C": {"reference_energy_ev": -9.0, "delta_ev": 0.0}},
    "dielectric_constant": 9.7,
    "cell_volume_a3": 6000.0,
}


@pytest.mark.parametrize(
    "host, entry, pointer",
    [
        ({"gap_ev": 0.0}, {}, "/host/gap_ev"),
        ({"dielectric_constant": 0.5}, {}, "/host/dielectric_constant"),
        ({"cell_volume_a3": 0.0}, {}, "/host/cell_volume_a3"),
        ({"dielectric_constant": None}, {}, "/entries/0/correction_ev"),
        ({"cell_volume_a3": None}, {}, "/entries/0/correction_ev"),
        ({}, {"stoichiometry": {"C": 1, "N": -1}}, "/entries/0/stoichiometry/N"),
    ],
)
def test_thermo_refuses_a_defect_table_naming_the_pointer(tmp_path, capsys, host, entry, pointer):
    # the parser makes every check energetics relies on (None drops a field)
    host = {k: v for k, v in dict(_HOST, **host).items() if v is not None}
    row = {"label": "d", "charge": 1, "total_energy_ev": -99.0, "correction_ev": "analytic"}
    doc = {"schema": "defects/1", "host": host, "entries": [dict(row, **entry)]}
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(doc))
    env = tmp_path / "e.tsv"
    code = main(["thermo", "--defects", str(path), "--envelope", str(env),
                 "--transitions", str(tmp_path / "t.tsv")])
    assert code == 2
    assert pointer in capsys.readouterr().err
    assert not env.exists()


def test_thermo_refuses_more_envelope_rows_than_allowed(tmp_path, capsys, monkeypatch):
    # labels times Fermi levels is checked before any diagram; a small bound
    # shows both sides without allocating a large table
    from lumiphon import model

    host = HostReference(-100.0, 0.0, 3.17, {})
    entries = [DefectEntry("a", 0, -98.5), DefectEntry("b", 1, -99.0)]
    path = tmp_path / "defects.json"
    lio.write_defect_table(host, entries, path)
    env = tmp_path / "e.tsv"
    argv = ["thermo", "--defects", str(path), "--envelope", str(env),
            "--transitions", str(tmp_path / "t.tsv")]
    rows = 2 * model.output_grid(0.0, 3.17 * 1000.0, 1.0, "--fermi-step", "gap").size
    monkeypatch.setattr(model, "MAX_OUTPUT_POINTS", rows)
    assert main(argv) == 0
    assert sum(not ln.startswith("#") for ln in env.read_text().splitlines()) == rows
    env.unlink()
    monkeypatch.setattr(model, "MAX_OUTPUT_POINTS", rows - 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--fermi-step" in err and "2 labels" in err
    assert not env.exists()


@pytest.mark.parametrize("command", ["spectrum", "oracle"])
def test_negative_mode_energy_exit_2_naming_the_pointer(tmp_path, capsys, command):
    # lumiphon hr writes none (partial_hr clamps imaginary modes to 0); a
    # hand-made one would give spectrum blue replicas past ZPL
    doc = {
        "schema": "hr/1",
        "total": 0.8,
        "entries": [
            {"omega_mev": -60.0, "qk": 0.0, "sk": 0.3},
            {"omega_mev": 140.0, "qk": 0.0, "sk": 0.5},
        ],
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.tsv"
    assert main([command, "--hr", str(path), "--zpl", "2.0", "--out", str(out)]) == 2
    assert "/entries/0/omega_mev" in capsys.readouterr().err
    assert not out.exists()


def test_dissoc_fixture(tmp_path):
    rows = [
        {
            "label": "stable_cluster",
            "cluster_energy_ev": -64.0,
            "fragment_energy_ev": -50.0,
            "released_energy_ev": -10.0,
        },
        {
            "label": "marginal_cluster",
            "cluster_energy_ev": -59.87,
            "fragment_energy_ev": -50.0,
            "released_energy_ev": -10.0,
        },
    ]
    path = tmp_path / "ed.json"
    lio.write_dissociation_table(rows, path)
    out = tmp_path / "ed.tsv"
    assert main(["dissoc", "--energies", str(path), "--out", str(out)]) == 0
    table = [
        ln.split("\t")
        for ln in out.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert float(table[0][1]) == pytest.approx(4.0)
    assert table[0][2] == "true"
    assert float(table[1][1]) == pytest.approx(-0.13)
    assert table[1][2] == "false"


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--no-deterministic"]])
def test_removed_run_flags_exit_2(tmp_path, flag):
    dpath = _write_defects(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["dissoc", "--energies", str(dpath), "--out", str(tmp_path / "d.tsv"), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--time-step", "--time-span"])
def test_removed_time_grid_flags_exit_2(tmp_path, capsys, flag):
    # the time grid is worked out from the document and the flags alone
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--hr", str(hr_path), "--zpl", "2.0",
              "--out", str(tmp_path / "s.tsv"), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_every_flag_the_sources_name_exists():
    # an error or help message naming a flag no subcommand has misleads
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "lumiphon"
    named = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", node.value))
    parser = build_parser()
    options = set(parser._option_string_actions)
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subparsers.choices.values():
        options.update(sub._option_string_actions)
    assert named and named <= options, sorted(named - options)


def test_each_shared_flag_is_declared_once_with_help():
    # a flag two subcommands take is one argparse action, so both --help
    # texts describe it alike
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subs = subparsers.choices
    shared = {
        ("spectrum", "oracle"): ["--hr", "--zpl", "--gamma", "--sigma", "--window", "--step",
                                 "--out"],
        ("modes", "spectrum"): ["--cutoff"],
    }
    for (a, b), flags in shared.items():
        for flag in flags:
            action = subs[a]._option_string_actions[flag]
            assert action is subs[b]._option_string_actions[flag], flag
            assert action.help, flag


def test_file_flag_tables_match_the_parser():
    # the clash check and the manifest find a call's files through READS,
    # WRITES and BASIS_FLAG: a file flag left out of them would skip both
    tables = {*READS, *WRITES}
    assert len(tables) == len(READS) + len(WRITES)  # no repeats, no flag in both
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    named = set()
    for command, sub in subparsers.choices.items():
        # a file flag is an option whose value stays the string given
        files = {
            action.dest: action.option_strings
            for action in sub._actions
            if type(action) is argparse._StoreAction and action.type is None
        }
        assert set(files) == {action.dest for action in sub._actions} & tables, command
        assert all(strings == [f"--{dest}"] for dest, strings in files.items()), command
        if command in BASIS_FLAG:
            assert BASIS_FLAG[command] in (f"--{dest}" for dest in files), command
        named |= set(files)
    assert named == tables
    assert set(BASIS_FLAG) <= set(subparsers.choices)


def test_no_module_level_import_goes_unused():
    # deleting code leaves its imports behind: each name a module imports
    # at its top level must be read somewhere in that module
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "lumiphon"
    unused = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {n}" for n in names if n not in read]
    assert unused == []


def test_every_error_class_has_an_exit_code():
    # main turns InputError into exit 2 and NumericalError into exit 3 and
    # catches nothing else, so no LumiphonError may stand outside both
    from lumiphon import errors

    families = (errors.InputError, errors.NumericalError)
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    outside = [
        c.__name__
        for c in classes
        if issubclass(c, errors.LumiphonError) and c is not errors.LumiphonError
        and not issubclass(c, families)
    ]
    assert outside == []


def test_every_public_name_is_referenced_by_the_program():
    # a public function, class or method that only tests call is code no
    # output depends on: src/, scripts/ or lumibench/ must name it somewhere
    root = pathlib.Path(__file__).resolve().parent.parent
    defined = []
    for path in sorted((root / "src" / "lumiphon").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node] + members:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.name, item.lineno, item.name))
    named = set()
    for folder in ("src", "scripts", "lumibench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
    unreferenced = [
        f"{file}:{line} {name}"
        for file, line, name in defined
        if not name.startswith("_") and name not in named
    ]
    assert unreferenced == []


def test_every_error_class_is_raised_by_the_program():
    # an import counts as a use above, so an error class that is imported
    # but never raised would pass it: each class in errors.py must be named
    # by a raise, a warnings.warn call or a subclass in src/
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "lumiphon"
    used = set()

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used |= names(exc)
            elif isinstance(node, ast.ClassDef):
                used |= set().union(*map(names, node.bases))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "warn"
            ):
                category = node.args[1:] + [k.value for k in node.keywords]
                used |= set().union(*map(names, category))
    tree = ast.parse((root / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert set(classes) == {
        "LumiphonError", "InputError", "NumericalError", "ParseError",
        "NonFiniteValue", "ZeroFrequencyModeWarning", "CapTooSmallWarning",
    }
    assert [name for name in classes if name not in used] == []
    # a caller tells errors apart only by exit code, locus or warning name:
    # a subclass that adds nothing to its family is raised as the family
    from lumiphon import errors

    families = {errors.LumiphonError, errors.InputError, errors.NumericalError}
    bare = [
        c.__name__
        for c in (getattr(errors, name) for name in classes)
        if c not in families and "__init__" not in vars(c) and not issubclass(c, Warning)
    ]
    assert bare == []


def _is_dataclass(decorator):
    call = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(call, ast.Name) and call.id == "dataclass"


def test_every_record_field_is_read_by_the_program():
    """A dataclass field that no code reads is state no output depends on:
    src/, scripts/ or lumibench/ must read it as an attribute somewhere
    outside __post_init__.  Reads are matched by attribute name alone, so
    a field whose name another record's reader also reads (omegas_mev, say)
    passes even when nothing reads it on this record."""
    root = pathlib.Path(__file__).resolve().parent.parent
    fields = []
    for path in sorted((root / "src" / "lumiphon").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields.extend(
                    (path.name, item.lineno, node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
    read = set()
    for folder in ("src", "scripts", "lumibench"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            checks = {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                for node in ast.walk(fn)
            }
            read.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in checks
            )
    unread = [
        f"{file}:{line} {cls}.{name}" for file, line, cls, name in fields if name not in read
    ]
    assert len(fields) > 35  # the scan found the records
    assert unread == []


def _limit_address_space():
    # 3 GB: a refusal that regresses into a huge allocation fails the case
    # with a MemoryError instead of exhausting the machine
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "command, extra, named",
    [
        ("spectrum", ["--step", "1e-9"], "--step"),
        ("spectrum", ["--step", "0"], "--step"),
        ("spectrum", ["--sigma", "1e-6"], "--sigma"),
        ("oracle", ["--step", "1e-12"], "--step"),
        ("oracle", ["--step", "0"], "--step"),
        ("oracle", ["--step", "-0.1"], "--step"),
        ("oracle", ["--window", "2.7:2.5"], "--window"),
        ("thermo", ["--fermi-step", "1e-9"], "--fermi-step"),
        ("thermo", ["--fermi-step", "0"], "--fermi-step"),
        ("thermo", ["--fermi-step", "-1"], "--fermi-step"),
        ("dissoc", ["--out", "missing/ed.tsv"], "missing/ed.tsv"),
        ("spectrum", ["--step", "5"], "--step"),
        ("spectrum", ["--step", "1e-7"], "--step"),
        ("spectrum", ["--window=-1:2.7"], "--window"),
        ("spectrum", ["--zpl", "0"], "--zpl"),
        ("spectrum", ["--gamma", "0"], "--gamma"),
        ("spectrum", ["--sigma", "0"], "--sigma"),
        ("spectrum", ["--sigma", "0.0153", "--step", "0"], "--step"),
        ("spectrum", ["--window", "1.5:1.50005"], "--window"),
        ("oracle", ["--gamma", "0"], "--gamma"),
        ("oracle", ["--zpl", "-1"], "--zpl"),
        ("oracle", ["--sigma", "-1"], "--sigma"),
        ("oracle", ["--step", "5"], "--step"),
        ("oracle", ["--window", "1.5:1.50005"], "--window"),
        ("oracle", ["--max-quanta", "30"], "--max-quanta"),
        ("oracle", ["--max-quanta", "-1"], "--max-quanta"),
    ],
)
def test_refusals_exit_2_naming_the_flag_before_allocating(tmp_path, command, extra, named):
    root = pathlib.Path(__file__).resolve().parent.parent
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    rows = [{"label": "c", "cluster_energy_ev": -64.0, "fragment_energy_ev": -50.0,
             "released_energy_ev": -10.0}]
    lio.write_dissociation_table(rows, tmp_path / "ed.json")
    argv = {
        "spectrum": ["--hr", str(hr_path), "--zpl", "2.6", "--out", "out.tsv"],
        "oracle": ["--hr", str(hr_path), "--zpl", "2.6", "--out", "out.tsv"],
        "thermo": ["--defects", str(_write_defects(tmp_path)), "--envelope", "out.tsv",
                   "--transitions", "trans.tsv"],
        "dissoc": ["--energies", str(tmp_path / "ed.json"), "--out", "out.tsv"],
    }[command]
    before = set(tmp_path.iterdir())
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lumiphon", command, *argv, *extra],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert named in done.stderr
    assert set(tmp_path.iterdir()) == before


def test_main_pins_blas_to_one_thread(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "4")
    dpath = _write_defects(tmp_path)
    assert main(
        ["thermo", "--defects", str(dpath), "--envelope", str(tmp_path / "e.tsv"),
         "--transitions", str(tmp_path / "t.tsv")]
    ) == 0
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"


def test_demo_scripts_run_end_to_end(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    demo, out = tmp_path / "demo", tmp_path / "demo_out"
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_demo_inputs.py"), "--out", str(demo)],
        check=True,
        capture_output=True,
    )
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_demo.py"), "--demo", str(demo),
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    l1 = float(done.stdout.split("l1_distance = ")[1].split()[0])
    assert l1 < 1e-4


def test_manifest_written_deterministically(tmp_path):
    dpath = _write_defects(tmp_path)
    man = tmp_path / "run.manifest.json"
    args = [
        "thermo",
        "--defects", str(dpath),
        "--envelope", str(tmp_path / "e.tsv"),
        "--transitions", str(tmp_path / "t.tsv"),
        "--manifest", str(man),
    ]
    assert main(args) == 0
    first = man.read_bytes()
    assert main(args) == 0
    assert man.read_bytes() == first
    assert lio.load_document(man) == {
        "schema": "manifest/2",
        "inputs": [{"path": str(dpath), "sha256": lio.sha256_file(dpath)}],
        "tool_version": __version__,
        "command_line": " ".join(args),
    }


def test_manifest_command_line_splits_back_into_its_arguments(tmp_path):
    folder = tmp_path / "my dir"
    folder.mkdir()
    dpath = _write_defects(folder)
    man = folder / "run.manifest.json"
    args = [
        "thermo",
        "--defects", str(dpath),
        "--envelope", str(folder / "e.tsv"),
        "--transitions", str(folder / "t.tsv"),
        "--manifest", str(man),
    ]
    assert main(args) == 0
    doc = lio.load_document(man)
    assert shlex.split(doc["command_line"]) == args
    assert doc["inputs"] == [{"path": str(dpath), "sha256": lio.sha256_file(dpath)}]


def test_modes_manifest_hashes_each_input_once(tmp_path, monkeypatch):
    _, spath, hpath = _write_diatomic(tmp_path)
    sha256_file = lio.sha256_file
    hashed = []

    def counting(path):
        hashed.append(str(path))
        return sha256_file(path)

    monkeypatch.setattr(lio, "sha256_file", counting)
    modes, man = tmp_path / "modes.json", tmp_path / "modes.manifest.json"
    assert main(["modes", "--structure", str(spath), "--hessian", str(hpath),
                 "--out", str(modes), "--manifest", str(man)]) == 0
    assert hashed == [str(spath), str(hpath)]
    # the basis's provenance and the manifest hold the one Hessian checksum
    doc = lio.load_document(modes)
    lio.parse_phonon_basis(doc, modes)
    provenance = doc["provenance"]
    assert lio.load_document(man)["inputs"] == [
        {"path": str(spath), "sha256": sha256_file(spath)},
        {"path": str(hpath), "sha256": provenance["hessian_sha256"]},
    ]
    assert provenance["hessian_sha256"] == sha256_file(hpath)


def _tree(folder):
    """Every file under folder, by relative path, with its bytes."""
    return {str(p.relative_to(folder)): p.read_bytes() for p in folder.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["spectrum", "--hr", "hr.json", "--zpl", "2", "--out", "a.tsv", "--peaks", "a.tsv"],
         ["--out", "--peaks"]),
        (["spectrum", "--hr", "hr.json", "--zpl", "2", "--out", "hr.json"], ["--hr", "--out"]),
        (["spectrum", "--hr", "hr.json", "--zpl", "2", "--out", "b.tsv",
          "--peaks", "nodir/p.tsv"], ["--peaks"]),
        (["modes", "--structure", "structure.json", "--hessian", "hessian.json",
          "--out", "m.json", "--table", "m.json.f8"], ["--out", "--table"]),
        (["spectrum", "--hr", "hr.json", "--zpl", "2", "--out", "m.tsv",
          "--manifest", "m.tsv"], ["--out", "--manifest"]),
    ],
    ids=["two-outputs", "output-is-input", "missing-directory", "table-is-payload",
         "manifest-is-output"],
)
def test_clashing_or_unwritable_outputs_are_refused_before_any_write(
    tmp_path, monkeypatch, capsys, argv, flags
):
    # each call exited 0 or wrote some of its files before it failed; now
    # it is refused with every file as it was, earlier outputs included
    monkeypatch.chdir(tmp_path)
    _write_diatomic(tmp_path)
    _write_one_line_hr(tmp_path, 0.8, 140.0)
    for name in ("a.tsv", "b.tsv", "m.json"):
        (tmp_path / name).write_text(f"# an earlier {name}\n")
    before = _tree(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(flag in err[0] for flag in flags), err
    assert _tree(tmp_path) == before


def test_hr_output_over_the_vectors_of_a_renamed_basis_exit_2(tmp_path, monkeypatch, capsys):
    # m.json renamed to b.json alone: b.json's vectors are b.json.f8, which
    # is missing, so hr exits 2 naming it and m.json.f8, which b.json no
    # longer reads, is not replaced by hr's output
    monkeypatch.chdir(tmp_path)
    structure, _, _ = _write_diatomic(tmp_path)
    assert main(["modes", "--structure", "structure.json", "--hessian", "hessian.json",
                 "--out", "m.json"]) == 0
    os.rename("m.json", "b.json")
    lio.write_geometry_pair(GeometryPair(structure.positions, structure.positions), "pair.json")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(["hr", "--structure", "structure.json", "--modes", "b.json",
                 "--pair", "pair.json", "--out", "m.json.f8"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "b.json.f8" in err[0], err
    assert _tree(tmp_path) == before


def _refused_naming(path, capsys, out):
    """One `error:` line naming path, and no output file."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err
    assert not out.exists()
    return err[0]


def test_document_that_is_not_utf8_exit_2(tmp_path, capsys):
    # UTF-16 with its byte-order mark: no encoding is detected
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "x.tsv"
    assert main(["spectrum", "--hr", str(bad), "--zpl", "2", "--out", str(out)]) == 2
    message = _refused_naming(bad, capsys, out)
    assert message.endswith("not UTF-8 text (invalid start byte) [at byte 0]")
    bad.write_bytes('{"schema":"hr/1"}'.encode("utf-16"))
    assert main(["spectrum", "--hr", str(bad), "--zpl", "2", "--out", str(out)]) == 2
    _refused_naming(bad, capsys, out)


def test_compare_spectrum_that_is_not_utf8_exit_2(tmp_path, capsys):
    hr_path = _write_one_line_hr(tmp_path, 0.8, 140.0)
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"# x\n\xff\t1\n")
    out = tmp_path / "o.tsv"
    assert main(["oracle", "--hr", str(hr_path), "--zpl", "2.0", "--window", "0.2:2.06",
                 "--out", str(out), "--compare", str(bad)]) == 2
    assert _refused_naming(bad, capsys, out).endswith("[at byte 4]")


def test_deeply_nested_document_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "x.tsv"
    assert main(["spectrum", "--hr", str(deep), "--zpl", "2", "--out", str(out)]) == 2
    assert _refused_naming(deep, capsys, out).endswith("nested too deeply")


def test_oracle_manifest_lists_the_compare_file(tmp_path, capsys):
    hr_path = _write_one_line_hr(tmp_path, 0.8, 140.0)
    grid = ["--zpl", "2.0", "--window", "0.2:2.06"]
    s1, o1, man = tmp_path / "s1.tsv", tmp_path / "o1.tsv", tmp_path / "m.json"
    assert main(["spectrum", "--hr", str(hr_path), *grid, "--no-omega-cubed",
                 "--out", str(s1)]) == 0
    assert main(["oracle", "--hr", str(hr_path), *grid, "--out", str(o1),
                 "--compare", str(s1), "--manifest", str(man)]) == 0
    assert "l1_distance" in capsys.readouterr().out
    assert lio.load_document(man)["inputs"] == lio.input_checksums([hr_path, s1])


@pytest.mark.parametrize(
    "line, flags",
    [
        ((0.8, 140.0), ["--zpl", "10"]),
        ((0.8, 140.0), ["--zpl", "100"]),
        ((0.8, 140.0), ["--zpl", "1e4"]),
        ((0.8, 140.0), ["--zpl", "3", "--gamma", "0.2265625", "--step", "0.2265625",
                        "--sigma", "1", "--no-omega-cubed"]),
        ((0.9768966746550835, 108.0198535068398),
         ["--zpl=3.810079640640673", "--gamma=0.10173251776548731",
          "--step=0.024257018847683377", "--sigma=2.0040929103757428", "--no-omega-cubed"]),
    ],
    ids=["10", "100", "1e4", "step-of-7-digits", "step-of-17-digits"],
)
def test_spectrum_table_integrates_to_one_as_printed(tmp_path, line, flags):
    # %.9g prints energies past 10 eV a tenth as finely above a power of
    # ten as below it, and rounds a step of many significant digits
    # unevenly: normalized over the float energies, these tables read back
    # integrated to 1 - 2.9e-5 (100 eV), 1 + 1.8e-6 (step of 7 digits) and
    # 1 + 4.8e-7 (step of 17 digits)
    from lumiphon import vibronic

    hr_path = _write_one_line_hr(tmp_path, *line)
    out, expected = tmp_path / "s.tsv", tmp_path / "expected.tsv"
    argv = ["spectrum", "--hr", str(hr_path), *flags, "--out", str(out)]
    assert main(argv) == 0
    energy, intensity = lio.read_spectrum_tsv(out)
    assert abs(np.trapezoid(intensity, energy) - 1.0) <= 1e-8
    # and the table is vibronic.emission's curve as it comes: the command
    # does no arithmetic on it
    args = build_parser().parse_args(argv)
    hr = lio.parse_hr(lio.load_document(hr_path))
    window = vibronic.resolve_window(hr, args.zpl, args.gamma, args.sigma, args.window)
    ls = vibronic.emission(
        hr, args.zpl, args.gamma, args.sigma, window, args.step, not args.no_omega_cubed
    )
    header = [text[2:] for text in out.read_text().splitlines()
              if text.startswith("# ") and not text.startswith("# columns:")]
    lio.write_spectrum_tsv(expected, ls.energy_ev, ls.intensity, header)
    assert out.read_bytes() == expected.read_bytes()
    # whose energies are the ones the table prints, bit for bit
    assert energy.tobytes() == ls.energy_ev.tobytes()
