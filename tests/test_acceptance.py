"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budgets are wall-clock guards, generous for a desktop core.
"""

import math
import time

import numpy as np
import pytest

from lumiphon import io as lio
from lumiphon import units
from lumiphon.cli import main
from lumiphon.energetics import (
    dissociation_energy,
    envelope,
    formation_energy,
    stability_diagram,
)
from lumiphon.fcoracle import broadened_oracle_spectrum, enumerate_fc, first_moment_mev
from lumiphon.model import (
    ChemicalPotential,
    CrystalStructure,
    DefectEntry,
    ForceDelta,
    GeometryPair,
    Hessian,
    HostReference,
    HRDecomposition,
    PhononBasis,
    classify_lvm,
    structure_checksum,
)
from lumiphon.phonons import apply_asr, diagonalize, dynamical_matrix
from lumiphon.vibronic import (
    _reach_mev,
    emission,
    make_time_grid,
    partial_hr,
    qk_from_displacement,
    qk_from_forces,
    spectral_density,
)

from helpers import (
    extract_peak_weights,
    hessian_of,
    poisson_weight,
    random_cluster_structure,
)


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _hr_from_sks(omegas, sks):
    omegas = np.asarray(omegas, dtype=float)
    sks = np.asarray(sks, dtype=float)
    qk = np.sqrt(2.0 * units.HBAR_AMU_A2_FS * sks / units.omega_radfs(omegas))
    return partial_hr(qk, omegas)


def _pipeline(hr, zpl_ev, gamma_mev, sigma_mev, window_ev, step_mev, omega_cubed=False):
    return emission(hr, zpl_ev, gamma_mev, sigma_mev, window_ev, step_mev, omega_cubed)


# ---------------------------------------------------------------------------

def test_poisson_ladder():
    """Single mode 150 meV, S=2: replica weights follow exp(-2) 2^n / n!."""
    start = time.monotonic()
    s, omega, zpl, gamma, sigma = 2.0, 150.0, 3.0, 1.0, 0.1
    hr = _hr_from_sks([omega], [s])
    ls = _pipeline(hr, zpl, gamma, sigma, (zpl - 2.1, zpl + 0.08), 0.1)
    weights = extract_peak_weights(
        ls.energy_ev, ls.intensity, zpl, omega, gamma, sigma, nmax=12
    )
    worst = max(
        abs(weights[n] - poisson_weight(s, n)) for n in range(9)
    )
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 5.0
    _report("poisson-ladder", f"max |dw| = {worst:.2e}, {elapsed:.1f} s")


def test_oracle_equivalence():
    """FFT lineshape vs brute-force ladder, L1 < 1e-4 on a 0.1 meV grid."""
    start = time.monotonic()
    omegas = [60.0, 91.0, 117.0, 151.0, 178.0]
    sks = [0.9, 0.7, 0.6, 0.5, 0.3]
    zpl, gamma, sigma, step = 3.0, 1.0, 2.0, 0.1
    window = (zpl - 2.45, zpl + 0.1)
    hr = _hr_from_sks(omegas, sks)
    ls = _pipeline(hr, zpl, gamma, sigma, window, step)

    ladder = enumerate_fc(hr, cap=20)
    oracle = broadened_oracle_spectrum(
        ladder, gamma, ls.energy_ev, zpl, sigma_mev=sigma
    )
    a = ls.intensity / np.trapezoid(ls.intensity, ls.energy_ev)
    b = oracle / np.trapezoid(oracle, ls.energy_ev)
    l1 = float(np.trapezoid(np.abs(a - b), ls.energy_ev))
    elapsed = time.monotonic() - start
    assert l1 < 1e-4
    assert elapsed < 30.0
    _report("oracle-equivalence", f"L1 = {l1:.2e}, {ladder.nlines} lines, {elapsed:.1f} s")


def test_route_equivalence():
    """Force route equals displacement route on an exactly harmonic system."""
    structure, hessian = random_cluster_structure(30, seed=42)
    d, _, _ = apply_asr(dynamical_matrix(hessian, structure), structure)
    basis = diagonalize(d)

    rng = np.random.default_rng(1234)
    delta = rng.normal(scale=0.01, size=(30, 3))
    pair = GeometryPair(structure.positions, structure.positions + delta)
    force = ForceDelta(hessian_of(d, structure) @ delta.reshape(-1))

    qd = qk_from_displacement(basis, pair, structure)
    qf = qk_from_forces(basis, force, structure)
    live = basis.omegas_mev > 0.01
    # fixture sanity: no accidental near-zero projections that would make
    # a relative comparison vacuous
    assert np.min(np.abs(qd[live])) > 1e-3 * np.max(np.abs(qd))

    rel = np.abs(qf[live] - qd[live]) / np.abs(qd[live])
    total_d = partial_hr(np.where(live, qd, 0.0), basis.omegas_mev).total
    total_f = partial_hr(np.where(live, qf, 0.0), basis.omegas_mev).total
    assert float(np.max(rel)) < 1e-8
    assert abs(total_f - total_d) < 1e-10 * total_d
    _report(
        "route-equivalence",
        f"max rel dq = {float(np.max(rel)):.2e}, dS/S = {abs(total_f - total_d) / total_d:.2e}",
    )


FIXTURE_SETS = [
    ("single-mode", [150.0], [2.0]),
    ("five-mode", [60.0, 91.0, 117.0, 151.0, 178.0], [0.9, 0.7, 0.6, 0.5, 0.3]),
    ("two-mode", [100.0, 150.0], [0.5, 0.3]),
    ("weak-coupling", [80.0], [0.02]),
]


@pytest.mark.parametrize("name,omegas,sks", FIXTURE_SETS)
def test_spectral_bookkeeping(name, omegas, sks):
    """Integral of S(hw) reproduces total S; lineshape integrates to 1."""
    hr = _hr_from_sks(omegas, sks)
    zpl = 3.0
    span = max(omegas) * (hr.total + 6.0 * math.sqrt(hr.total) + 4.0) / 1000.0
    window = (zpl - span - 0.1, zpl + 0.06)
    grid = make_time_grid(hr, 2.0, 1.0, _reach_mev(zpl, window))
    _, step, values = spectral_density(hr, 2.0, grid.spectral_step_mev)
    ls = _pipeline(hr, zpl, 1.0, 2.0, window, 0.2)
    s_int = float(np.trapezoid(values, dx=step))
    l_int = float(np.trapezoid(ls.intensity, ls.energy_ev))
    assert abs(s_int - hr.total) < 1e-6 * hr.total
    assert abs(l_int - 1.0) < 1e-6
    _report(
        f"spectral-bookkeeping[{name}]",
        f"|dS|/S = {abs(s_int - hr.total) / hr.total:.2e}, |dL| = {abs(l_int - 1.0):.2e}",
    )


def test_eigensolver_at_supercell_scale():
    """1728x1728 random symmetric Hessian within the residual contract."""
    start = time.monotonic()
    n_atoms = 576
    rng = np.random.default_rng(2024)
    raw = rng.normal(size=(3 * n_atoms, 3 * n_atoms))
    sym = 0.5 * (raw + raw.T)
    masses = rng.uniform(10.0, 30.0, n_atoms)
    structure = CrystalStructure(
        np.eye(3) * 100.0,
        ("C",) * n_atoms,
        masses,
        rng.uniform(0.0, 90.0, size=(n_atoms, 3)),
    )
    basis = diagonalize(dynamical_matrix(Hessian(sym), structure))

    inv_sqrt_m = 1.0 / np.sqrt(structure.mass_vector_3n())
    d = sym * np.outer(inv_sqrt_m, inv_sqrt_m)
    lam = units.eigenvalue_from_hbar_omega(basis.omegas_mev)
    norm = float(np.max(np.abs(lam)))
    resid = np.linalg.norm(d @ basis.vectors.T - basis.vectors.T * lam[None, :], axis=0)
    worst_resid = float(np.max(resid)) / norm
    gram = basis.vectors @ basis.vectors.T
    worst_orth = float(np.max(np.abs(gram - np.eye(3 * n_atoms))))
    elapsed = time.monotonic() - start
    assert worst_resid < 1e-8
    assert worst_orth < 1e-8
    assert elapsed < 60.0
    _report(
        "eigensolver-1728",
        f"resid = {worst_resid:.2e}, orth = {worst_orth:.2e}, {elapsed:.1f} s",
    )


def test_first_moment_identity():
    """Mean Stokes shift of the ladder equals sum S_k hbar w_k."""
    omegas = [60.0, 91.0, 117.0, 151.0, 178.0]
    sks = [0.9, 0.7, 0.6, 0.5, 0.3]
    hr = _hr_from_sks(omegas, sks)
    ladder = enumerate_fc(hr, cap=22)
    expected = float(np.dot(sks, omegas))
    got = first_moment_mev(ladder)
    rel = abs(got - expected) / expected
    assert rel < 1e-6
    _report("first-moment", f"rel = {rel:.2e}")


def test_lvm_classification_reference():
    """Reference LVM table yields exactly five modes above 115.0 meV."""
    lvm_ref = [119.9, 126.2, 127.6, 159.9, 161.8]
    omegas = sorted([0.0, 0.0, 0.0, 30.0, 40.0, 70.0, 100.0] + lvm_ref)
    basis = PhononBasis(np.array(omegas), np.eye(len(omegas)))
    idx = classify_lvm(basis.omegas_mev, 115.0)
    assert len(idx) == 5
    assert sorted(round(float(basis.omegas_mev[i]), 1) for i in idx) == lvm_ref
    _report("lvm-classification", "5 modes above 115.0 meV")


def test_energetics_fixtures():
    """Transition arithmetic, envelope oracle, dissociation arithmetic."""
    host = HostReference(
        -100.0, 0.0, 3.17, {"C": ChemicalPotential(-9.0, 0.0)}
    )
    # the lines (1, 1.5) and (0, 2.0) cross at 0.5
    segments, _ = stability_diagram(
        [DefectEntry("t", 1, -98.5), DefectEntry("t", 0, -98.0)], host
    )
    eps = segments[0][3]
    assert eps == 0.5

    entries = [
        DefectEntry("d", 2, -99.9),
        DefectEntry("d", 1, -99.1),
        DefectEntry("d", 0, -98.0),
        DefectEntry("d", -1, -96.2),
        DefectEntry("d", -2, -93.9),
    ]
    segments, _ = stability_diagram(entries, host)
    grid = np.arange(0.0, host.gap_ev + 1e-12, 0.001)
    brute = np.min(
        [formation_energy(e, host, 0.0) + e.charge * grid for e in entries], axis=0
    )
    worst = float(np.max(np.abs(envelope(segments, grid) - brute)))
    assert worst < 1e-9

    assert dissociation_energy(-50.0, -10.0, -64.0) == 4.0
    assert dissociation_energy(-50.0, -10.0, -59.87) == pytest.approx(-0.13)
    _report(
        "energetics",
        f"eps = 0.5 exact, envelope dev = {worst:.1e}, E_D = 4.0 and -0.13",
    )


def test_cli_determinism(tmp_path):
    """Re-running every subcommand produces byte-identical outputs."""
    from helpers import isotropic_pair_hessian

    structure = CrystalStructure(
        np.eye(3) * 10.0,
        ("C", "C"),
        [12.011, 12.011],
        [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
    )
    hessian = Hessian(isotropic_pair_hessian(4.2), structure_checksum(structure))
    spath, hpath = tmp_path / "s.json", tmp_path / "h.json"
    lio.write_structure(structure, spath)
    lio.write_hessian(hessian, hpath)
    rng = np.random.default_rng(5)
    delta = rng.normal(scale=0.03, size=(2, 3))
    pair = GeometryPair(structure.positions, structure.positions + delta)
    ppath = tmp_path / "p.json"
    lio.write_geometry_pair(pair, ppath)

    host = HostReference(-100.0, 0.0, 3.17, {"C": ChemicalPotential(-9.0, 0.0)})
    dentries = [DefectEntry("d", 1, -99.0), DefectEntry("d", 0, -98.5)]
    dpath = tmp_path / "defects.json"
    lio.write_defect_table(host, dentries, dpath)
    epath = tmp_path / "ed.json"
    lio.write_dissociation_table(
        [
            {
                "label": "t",
                "cluster_energy_ev": -64.0,
                "fragment_energy_ev": -50.0,
                "released_energy_ev": -10.0,
            }
        ],
        epath,
    )

    commands = [
        [
            "modes",
            "--structure", str(spath),
            "--hessian", str(hpath),
            "--asr",
            "--out", str(tmp_path / "modes.json"),
            "--table", str(tmp_path / "modes.tsv"),
        ],
        [
            "hr",
            "--structure", str(spath),
            "--modes", str(tmp_path / "modes.json"),
            "--pair", str(ppath),
            "--out", str(tmp_path / "hr.json"),
            "--stem", str(tmp_path / "stem.tsv"),
        ],
        [
            "spectrum",
            "--hr", str(tmp_path / "hr.json"),
            "--zpl", "2.0",
            "--window", "1.3:2.06",
            "--step", "0.5",
            "--out", str(tmp_path / "spectrum.tsv"),
            "--peaks", str(tmp_path / "peaks.tsv"),
        ],
        [
            "oracle",
            "--hr", str(tmp_path / "hr.json"),
            "--zpl", "2.0",
            "--max-quanta", "10",
            "--window", "1.3:2.06",
            "--step", "0.5",
            "--out", str(tmp_path / "oracle.tsv"),
            "--sticks", str(tmp_path / "sticks.tsv"),
        ],
        [
            "thermo",
            "--defects", str(dpath),
            "--envelope", str(tmp_path / "env.tsv"),
            "--transitions", str(tmp_path / "trans.tsv"),
            "--windows", str(tmp_path / "win.tsv"),
        ],
        ["dissoc", "--energies", str(epath), "--out", str(tmp_path / "ed.tsv")],
    ]
    outputs = [
        "modes.json", "modes.tsv", "hr.json", "stem.tsv", "spectrum.tsv",
        "peaks.tsv", "oracle.tsv", "sticks.tsv", "env.tsv", "trans.tsv",
        "win.tsv", "ed.tsv",
    ]
    for cmd in commands:
        assert main(cmd) == 0
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    for cmd in commands:
        assert main(cmd) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == first[name], name
    _report("cli-determinism", f"{len(outputs)} outputs byte-identical on rerun")


def test_roundtrip_all_schemas(tmp_path, diatomic, displaced_pair):
    """Write/read every document schema that has a reader and compare
    numerics bit-exactly; a manifest is written only."""
    structure, hessian = diatomic
    # adversarial floats that do not survive short decimal formatting
    structure = CrystalStructure(
        structure.lattice * (1.0 + 2.0**-43),
        structure.species,
        structure.masses + math.pi * 1e-9,
        structure.positions + math.e * 1e-8,
    )
    checked = []

    lio.write_structure(structure, tmp_path / "s.json")
    back = lio.parse_structure(lio.load_document(tmp_path / "s.json"))
    assert np.array_equal(back.lattice, structure.lattice)
    assert np.array_equal(back.masses, structure.masses)
    assert np.array_equal(back.positions, structure.positions)
    checked.append("structure")

    lio.write_hessian(hessian, tmp_path / "h.json")
    hback = lio.load_hessian(tmp_path / "h.json", diatomic[0])
    assert np.array_equal(hback.matrix, hessian.matrix)
    checked.append("hessian")

    lio.write_geometry_pair(displaced_pair, tmp_path / "p.json")
    pback = lio.parse_geometry_pair(lio.load_document(tmp_path / "p.json"), diatomic[0])
    assert np.array_equal(pback.ground, displaced_pair.ground)
    assert np.array_equal(pback.excited, displaced_pair.excited)
    checked.append("geometry_pair")

    force = ForceDelta(np.array([1e-17, -0.0, 2.0**-33, 0.1, math.tau, -5.5]))
    lio.write_force_delta(force, tmp_path / "f.json")
    fback = lio.parse_force_delta(lio.load_document(tmp_path / "f.json"), diatomic[0])
    assert np.array_equal(fback.values, force.values)
    checked.append("force_delta")

    basis = diagonalize(dynamical_matrix(hessian, diatomic[0]))
    lio.write_phonon_basis(basis, tmp_path / "b.json", {"hessian_sha256": "x"})
    bback = lio.parse_phonon_basis(lio.load_document(tmp_path / "b.json"))
    assert np.array_equal(bback.omegas_mev, basis.omegas_mev)
    assert np.array_equal(bback.vectors, basis.vectors)
    checked.append("phonon_basis")

    hr = HRDecomposition(
        np.array([50.0, 150.0]),
        np.array([math.sqrt(2.0), -1.0 / 3.0]),
        np.array([0.1 + 2.0**-40, 0.2]),
        math.fsum([0.1 + 2.0**-40, 0.2]),
    )
    lio.write_hr(hr, tmp_path / "hr.json")
    hrback = lio.parse_hr(lio.load_document(tmp_path / "hr.json"))
    assert np.array_equal(hrback.qk, hr.qk)
    assert np.array_equal(hrback.sk, hr.sk)
    assert hrback.total == hr.total
    checked.append("hr")

    host = HostReference(
        -100.0 - 2.0**-41,
        0.125,
        3.17,
        {"C": ChemicalPotential(-9.0, 1e-16), "Si": ChemicalPotential(-5.4, -0.5)},
        dielectric_constant=9.66,
        cell_volume_a3=6000.0,
    )
    entries = [DefectEntry("x", -2, -95.0 + 1e-13, {"C": 3, "Si": -1}, "analytic")]
    lio.write_defect_table(host, entries, tmp_path / "d.json")
    hostback, eback = lio.parse_defect_table(lio.load_document(tmp_path / "d.json"))
    assert hostback == host and eback == entries
    checked.append("defects")

    rows = [
        {
            "label": "t",
            "cluster_energy_ev": -64.0 + 2.0**-44,
            "fragment_energy_ev": -50.0,
            "released_energy_ev": -10.0,
        }
    ]
    lio.write_dissociation_table(rows, tmp_path / "e.json")
    assert lio.parse_dissociation_table(lio.load_document(tmp_path / "e.json")) == rows
    checked.append("dissociation")

    _report("roundtrip-schemas", ", ".join(checked))
