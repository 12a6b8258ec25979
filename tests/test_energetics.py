import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lumiphon.energetics import (
    analytic_correction,
    carbon_rich_potentials,
    charge_ordering_report,
    dissociation_energy,
    formation_energy,
    formation_line,
    stability_diagram,
    transition_level,
)
from lumiphon.errors import InvalidDielectric, MissingChemicalPotential
from lumiphon.model import ChemicalPotential, DefectEntry, HostReference


HOST = HostReference(
    host_energy_ev=-100.0,
    vbm_ev=0.0,
    gap_ev=3.17,
    chemical_potentials={"C": ChemicalPotential(-9.0, 0.0)},
    dielectric_constant=9.7,
    cell_volume_a3=6000.0,
)


def _entry(label="d", q=0, energy=-95.0, stoi=None, corr=0.0):
    return DefectEntry(label, q, energy, stoi or {}, corr)


# --------------------------------------------------------- formation energy

def test_bare_difference():
    assert formation_energy(_entry(), HOST, 0.0) == pytest.approx(5.0)


def test_stoichiometry_term_is_literal():
    # adding one carbon: n_C = -1, mu_C = -9 -> +(-1)(-9) = +9 on top of 5
    entry = _entry(stoi={"C": -1})
    assert formation_energy(entry, HOST, 0.0) == pytest.approx(14.0)


def test_remove_then_add_cancels():
    removed = formation_energy(_entry(stoi={"C": 1}), HOST, 0.0)
    added = formation_energy(_entry(stoi={"C": -1}), HOST, 0.0)
    bare = formation_energy(_entry(), HOST, 0.0)
    assert removed + added == pytest.approx(2.0 * bare, rel=1e-12)


def test_charge_term_linear():
    neutral = formation_energy(_entry(), HOST, 0.0)
    charged = formation_energy(_entry(q=1, corr=0.1), HOST, 0.5)
    assert charged - neutral == pytest.approx(0.6)


def test_missing_chemical_potential():
    with pytest.raises(MissingChemicalPotential):
        formation_energy(_entry(stoi={"Si": 1}), HOST, 0.0)


def test_carbon_rich_preset():
    pots = carbon_rich_potentials(-9.1, -5.4, -15.2)
    assert pots["C"].delta_ev == 0.0
    assert pots["C"].mu_ev == -9.1
    # silicon offset is the formation enthalpy of the host pair
    assert pots["Si"].delta_ev == pytest.approx(-15.2 - (-9.1) - (-5.4), rel=1e-12)
    # equilibrium: mu_C + mu_Si equals the host pair energy
    assert pots["C"].mu_ev + pots["Si"].mu_ev == pytest.approx(-15.2, rel=1e-12)


def test_analytic_correction_properties():
    assert analytic_correction(0, 9.7, 6000.0) == 0.0
    plus = analytic_correction(1, 9.7, 6000.0)
    minus = analytic_correction(-1, 9.7, 6000.0)
    assert plus > 0 and plus == minus
    assert analytic_correction(2, 9.7, 6000.0) == pytest.approx(4.0 * plus, rel=1e-12)
    with pytest.raises(InvalidDielectric):
        analytic_correction(1, 0.9, 6000.0)


def test_analytic_marker_resolution():
    explicit = _entry(q=1, corr=analytic_correction(1, 9.7, 6000.0))
    marked = _entry(q=1, corr="analytic")
    assert formation_energy(marked, HOST, 0.0) == pytest.approx(
        formation_energy(explicit, HOST, 0.0), rel=1e-12
    )
    bare_host = HostReference(-100.0, 0.0, 3.17, {"C": ChemicalPotential(-9.0, 0.0)})
    with pytest.raises(InvalidDielectric):
        formation_energy(marked, bare_host, 0.0)


@given(st.floats(-50.0, 50.0))
def test_reference_shift_invariance(shift):
    # the same constant added to defect and host totals cancels in E_f
    host2 = HostReference(
        HOST.host_energy_ev + shift,
        HOST.vbm_ev,
        HOST.gap_ev,
        HOST.chemical_potentials,
    )
    e1 = formation_energy(_entry(stoi={"C": 2}), HOST, 1.0)
    e2 = formation_energy(_entry(energy=-95.0 + shift, stoi={"C": 2}), host2, 1.0)
    assert e2 == pytest.approx(e1, abs=1e-9)


# --------------------------------------------------------- transition levels

def test_transition_level_two_line_crossing():
    eps = transition_level((1, 1.5), (0, 2.0))
    assert eps == pytest.approx(0.5)


def test_transition_level_swap_invariance():
    a, b = (1, 1.5), (0, 2.0)
    assert transition_level(a, b) == pytest.approx(transition_level(b, a), rel=1e-15)


def test_transition_level_is_line_crossing():
    # the level equals the Fermi energy where the two lines intersect
    qa, fa = 2, 0.7
    qb, fb = -1, 4.3
    eps = transition_level((qa, fa), (qb, fb))
    assert fa + qa * eps == pytest.approx(fb + qb * eps, rel=1e-12)


def test_charge_ordering_flags_negative_u():
    # stable ordering: donor level below acceptor level
    stable = [
        _entry(q=1, energy=-96.5),   # E_f(0)=3.5
        _entry(q=0, energy=-95.0),   # E_f(0)=5.0 -> eps(+/0)=1.5
        _entry(q=-1, energy=-93.0),  # E_f(0)=7.0 -> eps(0/-)=2.0
    ]
    report = charge_ordering_report(stability_diagram(stable, HOST))
    assert len(report) == 1 and not report[0].negative_u
    inverted = [
        _entry(q=1, energy=-96.5),   # eps(+/0)=2.0
        _entry(q=0, energy=-94.5),   # E_f(0)=5.5
        _entry(q=-1, energy=-93.5),  # eps(0/-)=1.0 < eps(+/0): negative U
    ]
    report = charge_ordering_report(stability_diagram(inverted, HOST))
    assert len(report) == 1 and report[0].negative_u
    # two charge states give no triple
    assert charge_ordering_report(stability_diagram(inverted[:2], HOST)) == []


# ------------------------------------------------------------------ envelope

def test_single_line_diagram():
    diagram = stability_diagram([_entry()], HOST)
    assert diagram.transitions == ()
    assert len(diagram.segments) == 1
    assert diagram.envelope(1.0) == pytest.approx(5.0)


def test_two_line_transition_at_half_ev():
    entries = [
        _entry(q=1, energy=-99.0),  # intercept 1.0
        _entry(q=0, energy=-98.5),  # intercept 1.5
    ]
    diagram = stability_diagram(entries, HOST)
    assert len(diagram.transitions) == 1
    tr = diagram.transitions[0]
    assert (tr.q, tr.q2) == (1, 0)
    assert tr.fermi_ev == pytest.approx(0.5)


def test_envelope_matches_grid_scan_oracle():
    entries = [
        _entry(q=2, energy=-99.9),
        _entry(q=1, energy=-99.1),
        _entry(q=0, energy=-98.0),
        _entry(q=-1, energy=-96.2),
        _entry(q=-2, energy=-93.9),
    ]
    diagram = stability_diagram(entries, HOST)
    lines = [formation_line(e, HOST) for e in entries]
    grid = np.arange(0.0, HOST.gap_ev + 1e-12, 0.001)
    brute = np.min([ln.energy(grid) for ln in lines], axis=0)
    np.testing.assert_allclose(diagram.envelope(grid), brute, rtol=0, atol=1e-9)
    # each transition is a kink: both adjacent lines agree there
    for tr in diagram.transitions:
        by_charge = {ln.charge: ln for ln in lines}
        a = by_charge[tr.q].energy(tr.fermi_ev)
        b = by_charge[tr.q2].energy(tr.fermi_ev)
        assert abs(a - b) < 1e-9


def test_neutral_window_report():
    # constructed so the neutral window is exactly [1.54, 2.52]
    entries = [
        _entry(q=1, energy=-100.0 + 3.0 - 1.54),
        _entry(q=0, energy=-100.0 + 3.0),
        _entry(q=-1, energy=-100.0 + 3.0 + 2.52),
    ]
    diagram = stability_diagram(entries, HOST)
    [(lo, hi)] = [(lo, hi) for q, lo, hi in diagram.charge_windows() if q == 0]
    assert lo == pytest.approx(1.54, abs=1e-12)
    assert hi == pytest.approx(2.52, abs=1e-12)
    assert [s.line.charge for s in diagram.segments] == [1, 0, -1]


def test_negative_u_middle_charge_skipped_on_envelope():
    # with eps(+/0) > eps(0/-), the neutral line never touches the envelope
    entries = [
        _entry(q=1, energy=-96.5),
        _entry(q=0, energy=-94.5),
        _entry(q=-1, energy=-93.5),
    ]
    diagram = stability_diagram(entries, HOST)
    assert 0 not in [s.line.charge for s in diagram.segments]
    assert 0 not in [q for q, _, _ in diagram.charge_windows()]


# -------------------------------------------------------------- dissociation

def test_dissociation_arithmetic():
    ed = dissociation_energy(-50.0, -10.0, -64.0)
    assert ed.value_ev == pytest.approx(4.0)
    assert ed.stable


def test_dissociation_negative_flagged_unstable():
    ed = dissociation_energy(-50.0, -10.0, -59.87)
    assert ed.value_ev == pytest.approx(-0.13)
    assert not ed.stable


def test_dissociation_additivity_boundary():
    ed = dissociation_energy(-50.0, -10.0, -60.0)
    assert ed.value_ev == 0.0
    assert ed.stable


@given(st.floats(-30.0, 30.0))
def test_dissociation_shift_invariance(shift):
    # shifting the two cluster supercells together leaves E_D alone
    base = dissociation_energy(-50.0, -10.0, -64.0).value_ev
    shifted = dissociation_energy(-50.0 + shift, -10.0, -64.0 + shift).value_ev
    assert shifted == pytest.approx(base, abs=1e-9)
