import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from lumiphon import io as lio
from lumiphon import units
from lumiphon.cli import main
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
from lumiphon.vibronic import partial_hr

from helpers import isotropic_pair_hessian, lorentzian_ev, recurrence_free_spectrum


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
    basis, provenance = lio.parse_phonon_basis(lio.load_document(out))
    assert basis.nmodes == 6
    assert np.sum(np.abs(basis.omegas_mev) < 0.01) == 3
    assert provenance["asr_applied"] is True
    assert table.exists()


def test_modes_builds_the_basis_once(tmp_path, monkeypatch):
    checks = []
    check = PhononBasis._check_orthonormal
    monkeypatch.setattr(
        PhononBasis, "_check_orthonormal", lambda self: checks.append(check(self))
    )
    _, spath, hpath = _write_diatomic(tmp_path)
    out = tmp_path / "modes.json"
    args = ["modes", "--structure", str(spath), "--hessian", str(hpath), "--cutoff", "50"]
    assert main([*args, "--out", str(out)]) == 0
    assert len(checks) == 1
    assert lio.load_document(out)["cutoff_bulk_mev"] == 50.0


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
    _, provenance = lio.parse_phonon_basis(lio.load_document(out))
    assert len(provenance["lvm_indices"]) == 5


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
    hessian = lio.parse_hessian(
        lio.load_document(tmp_path / "hessian.json"), structure
    )
    rng = np.random.default_rng(8)
    delta = rng.normal(scale=0.02, size=(2, 3))
    pair = GeometryPair(
        structure.positions, structure.positions + delta, structure.species
    )
    ppath = tmp_path / "pair.json"
    lio.write_geometry_pair(pair, ppath)
    fpath = tmp_path / "forces.json"
    lio.write_force_delta(ForceDelta(hessian.matrix @ delta.reshape(-1)), fpath)

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


def test_spectrum_time_span_reaching_recurrence_exit_3(tmp_path, capsys):
    _, _, hr_path = _write_generated_hr(tmp_path, 64, 1.0, 5, (10.0, 100.0))
    code = main(
        ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--gamma", "0.1",
         "--time-span", "200000", "--out", str(tmp_path / "s.tsv")]
    )
    assert code == 3
    assert "--time-span" in capsys.readouterr().err
    assert not (tmp_path / "s.tsv").exists()


def test_spectrum_time_span_beyond_grid_limit_exit_2(tmp_path, capsys):
    # 2^32 time points at this step: refused before any array is built
    _, _, hr_path = _write_generated_hr(tmp_path, 64, 1.0, 5, (10.0, 100.0))
    code = main(
        ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--gamma", "0.1",
         "--time-span", "1e9", "--out", str(tmp_path / "s.tsv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--time-span" in err and "--time-step" in err and str(1 << 24) in err
    assert not (tmp_path / "s.tsv").exists()


def test_spectrum_time_step_refusals(tmp_path, capsys):
    _, _, hr_path = _write_generated_hr(tmp_path, 64, 1.0, 5, (10.0, 100.0))
    argv = ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--out", str(tmp_path / "s.tsv")]
    # 20 fs resolves 103 meV, far below the multi-phonon support
    assert main(argv + ["--time-step", "20"]) == 3
    err = capsys.readouterr().err
    assert "too coarse" in err and "--time-step" in err
    assert main(argv + ["--time-step", "0"]) == 2
    assert "time step must be positive" in capsys.readouterr().err
    assert not (tmp_path / "s.tsv").exists()


def test_spectrum_time_span_refusals(tmp_path, capsys):
    _, _, hr_path = _write_generated_hr(tmp_path, 64, 1.0, 5, (10.0, 100.0))
    argv = ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--out", str(tmp_path / "s.tsv")]
    # 50 fs: the sideband, damped by gamma = 1 meV, has not died at the ends
    assert main(argv + ["--time-span", "50"]) == 3
    err = capsys.readouterr().err
    assert "damped sideband" in err and "--time-span" in err
    assert main(argv + ["--time-span", "-5"]) == 2
    assert "time span must be positive" in capsys.readouterr().err
    assert not (tmp_path / "s.tsv").exists()


def test_spectrum_recurrence_refused_before_step_above_gamma(tmp_path, capsys):
    # make_time_grid refuses a span reaching the quadrature's recurrence
    # before lineshape compares --step with --gamma
    _, _, hr_path = _write_generated_hr(tmp_path, 64, 1.0, 5, (10.0, 100.0))
    code = main(
        ["spectrum", "--hr", str(hr_path), "--zpl", "2.0", "--gamma", "0.1", "--step", "0.5",
         "--time-span", "200000", "--out", str(tmp_path / "s.tsv")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "recurrence" in err and "--time-span" in err
    assert not (tmp_path / "s.tsv").exists()


_REQUIRED_FLAGS = {
    "modes": ["--structure", "s.json", "--hessian", "h.json", "--out", "m.json"],
    "spectrum": ["--hr", "hr.json", "--zpl", "2.0", "--out", "s.tsv"],
    "oracle": ["--hr", "hr.json", "--zpl", "2.0", "--out", "o.tsv"],
    "thermo": ["--defects", "d.json", "--envelope", "e.tsv", "--transitions", "t.tsv"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, flag",
    [("modes", "--cutoff")]
    + [("spectrum", f) for f in ("--zpl", "--gamma", "--sigma", "--window", "--step",
                                 "--time-step", "--time-span", "--cutoff")]
    + [("oracle", f) for f in ("--zpl", "--gamma", "--sigma", "--window", "--step")]
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
    # the modules spectrum imports load neither the lattice dynamics nor
    # hashlib, which only modes' provenance and manifests use
    root = pathlib.Path(__file__).resolve().parent.parent
    script = """
import sys
import lumiphon.cli, lumiphon.io, lumiphon.vibronic
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


def test_oracle_compare_against_spectrum(tmp_path, capsys):
    hr_path = _write_single_mode_hr(tmp_path, 0.8, 140.0)
    window, step = "0.3:2.06", "0.2"
    spec = tmp_path / "spec.tsv"
    assert (
        main(
            [
                "spectrum",
                "--hr", str(hr_path),
                "--zpl", "2.0",
                "--no-omega-cubed",
                "--window", window,
                "--step", step,
                "--out", str(spec),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = main(
        [
            "oracle",
            "--hr", str(hr_path),
            "--zpl", "2.0",
            "--max-quanta", "14",
            "--window", window,
            "--step", step,
            "--out", str(tmp_path / "oracle.tsv"),
            "--compare", str(spec),
        ]
    )
    assert code == 0
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
    manifest = lio.load_manifest(man)
    lio.verify_manifest(manifest)
    assert manifest.timestamp_utc == "1970-01-01T00:00:00Z"
