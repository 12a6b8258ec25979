from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumiphon import io as lio
from lumiphon.energetics import (
    analytic_correction,
    carbon_rich_potentials,
    dissociation_energy,
    envelope,
    formation_energy,
    stability_diagram,
)
from lumiphon.errors import ParseError
from lumiphon.model import ChemicalPotential, DefectEntry, HostReference

from helpers import examples


HOST = HostReference(
    host_energy_ev=-100.0,
    vbm_ev=0.0,
    gap_ev=3.17,
    chemical_potentials={"C": ChemicalPotential(-9.0, 0.0)},
    dielectric_constant=9.7,
    cell_volume_a3=6000.0,
)

_HOST_DOC = {
    "host_energy_ev": -100.0,
    "vbm_ev": 0.0,
    "gap_ev": 3.17,
    "chemical_potentials": {"C": {"reference_energy_ev": -9.0, "delta_ev": 0.0}},
}


def _entry(label="d", q=0, energy=-95.0, stoi=None, corr=0.0):
    return DefectEntry(label, q, energy, stoi or {}, corr)


def _parse_refusal(entry=None, **host):
    """The ParseError io.parse_defect_table raises on one entry and a host."""
    row = {"label": "d", "charge": 1, "total_energy_ev": -95.0, **(entry or {})}
    doc = {"schema": "defects/1", "host": {**_HOST_DOC, **host}, "entries": [row]}
    with pytest.raises(ParseError) as err:
        lio.parse_defect_table(doc)
    return err.value


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
    # formation_energy reads every potential it needs: the parser refuses
    # a species the host has none for
    err = _parse_refusal({"stoichiometry": {"C": 1, "Si": 1}})
    assert err.locus == "/entries/0/stoichiometry/Si"


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
    # its inputs are the parser's to check, whether or not an entry uses them
    for key, bad in [("dielectric_constant", 1.0), ("dielectric_constant", 0.9),
                     ("cell_volume_a3", 0.0), ("cell_volume_a3", -6000.0)]:
        assert _parse_refusal(**{key: bad}).locus == f"/host/{key}"


def test_analytic_marker_resolution():
    explicit = _entry(q=1, corr=analytic_correction(1, 9.7, 6000.0))
    marked = _entry(q=1, corr="analytic")
    assert formation_energy(marked, HOST, 0.0) == pytest.approx(
        formation_energy(explicit, HOST, 0.0), rel=1e-12
    )
    # the marker needs both host fields: the parser refuses it without one
    for host in [{}, {"dielectric_constant": 9.7}, {"cell_volume_a3": 6000.0}]:
        err = _parse_refusal({"correction_ev": "analytic"}, **host)
        assert err.locus == "/entries/0/correction_ev"


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


# ------------------------------------------------------------------ negative U

def test_charge_ordering_flags_negative_u():
    # stable ordering: donor level below acceptor level
    stable = [
        _entry(q=1, energy=-96.5),   # E_f(0)=3.5
        _entry(q=0, energy=-95.0),   # E_f(0)=5.0 -> eps(+/0)=1.5
        _entry(q=-1, energy=-93.0),  # E_f(0)=7.0 -> eps(0/-)=2.0
    ]
    _, triples = stability_diagram(stable, HOST)
    assert triples == []
    inverted = [
        _entry(q=1, energy=-96.5),   # eps(+/0)=2.0
        _entry(q=0, energy=-94.5),   # E_f(0)=5.5
        _entry(q=-1, energy=-93.5),  # eps(0/-)=1.0 < eps(+/0): negative U
    ]
    _, triples = stability_diagram(inverted, HOST)
    [(q_high, q_mid, q_low, upper, lower)] = triples
    assert (q_high, q_mid, q_low) == (1, 0, -1)
    assert upper == pytest.approx(2.0) and lower == pytest.approx(1.0)
    # two charge states give no triple
    _, triples = stability_diagram(inverted[:2], HOST)
    assert triples == []


# ------------------------------------------------------------------ envelope

def test_single_line_diagram():
    segments, triples = stability_diagram([_entry()], HOST)
    assert segments == [(0, 5.0, 0.0, HOST.gap_ev)]
    assert triples == []
    assert envelope(segments, np.array([1.0])) == pytest.approx([5.0])


def test_two_line_transition_at_half_ev():
    entries = [
        _entry(q=1, energy=-99.0),  # intercept 1.0
        _entry(q=0, energy=-98.5),  # intercept 1.5
    ]
    segments, _ = stability_diagram(entries, HOST)
    assert [s[0] for s in segments] == [1, 0]
    # the one transition is the boundary between the two segments
    assert segments[0][3] == segments[1][2] == pytest.approx(0.5)


#: (charges, total energies, host energy, vbm, gap) of five lines whose
#: crossings 3/1 and 3/-3 lie one ulp apart at 1.2660068 eV: a walk from the
#: valence band took the 1 line there and never reached the -3 line.
NEAR_COINCIDENT = (
    [-3, 3, 0, 1, 2],
    [-1765.8707, -1778.9924, -1772.4315, -1774.6185, -1776.8054],
    -1775.3655418580274,
    0.9209432044283434,
    3.0,
)


@st.composite
def _line_tables(draw):
    """Independent formation lines, or lines through one or two common
    points with total energies rounded to 0.1 meV, some lifted so they
    never reach the envelope: crossings that coincide within rounding."""
    charges = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6, unique=True))
    vbm = draw(st.floats(-2.0, 2.0))
    gap = draw(st.floats(0.2, 6.0))
    if draw(st.booleans()):
        return charges, [draw(st.floats(-5.0, 5.0)) - q * vbm for q in charges], 0.0, vbm, gap
    host_energy = draw(st.floats(-2000.0, 0.0))
    points = draw(
        st.lists(st.tuples(st.floats(0.0, gap), st.floats(-5.0, 5.0)), min_size=1, max_size=2)
    )
    energies = []
    for q in charges:
        x, y = draw(st.sampled_from(points))
        lift = draw(st.sampled_from([0.0, 0.0, 0.0, 0.5]))
        energies.append(round(y + lift + host_energy - q * (vbm + x), 4))
    return charges, energies, host_energy, vbm, gap


#: (charges, total energies, host energy, vbm, gap) of three lines whose
#: float quotients put eps(2/0) = eps(0/-3) = 1.9807 while the exact
#: crossings leave the neutral line a window: a negative-U note from the
#: quotients contradicted the envelope.
NEAR_TIE = ([2, 0, -3], [-3.1132, 0.8482, 6.7903], 0.0, 0.0, 3.0)


@settings(max_examples=examples(200), deadline=None)
@given(table=_line_tables())
@example(table=NEAR_COINCIDENT)
@example(table=NEAR_TIE)
def test_envelope_matches_grid_scan_oracle(table):
    charges, energies, host_energy, vbm, gap = table
    host = HostReference(host_energy, vbm, gap)
    entries = [_entry(q=q, energy=e) for q, e in zip(charges, energies)]
    segments, triples = stability_diagram(entries, host)
    assert stability_diagram(entries[::-1], host) == (segments, triples)
    lines = sorted(((e.charge, formation_energy(e, host, 0.0)) for e in entries), reverse=True)

    grid = np.linspace(0.0, gap, 2001)
    brute = np.min([f + q * grid for q, f in lines], axis=0)
    np.testing.assert_allclose(envelope(segments, grid), brute, rtol=0, atol=1e-9)
    # the segments tile [0, gap] in rising Fermi level
    assert segments[0][2] == 0.0 and segments[-1][3] == gap
    assert all(lo < hi for _, _, lo, hi in segments)
    assert all(a[3] == b[2] for a, b in zip(segments, segments[1:]))
    # each transition is a kink: both adjacent lines agree there
    for (qa, fa, _, level), (qb, fb, _, _) in zip(segments, segments[1:]):
        assert qa > qb
        assert abs((fa + qa * level) - (fb + qb * level)) < 1e-9

    # negative U: exactly the adjacent triples whose exact levels are inverted
    def level(a, b):
        return (Fraction(a[1]) - Fraction(b[1])) / (b[0] - a[0])

    inverted = [
        (high[0], mid[0], low[0], float(level(high, mid)), float(level(mid, low)))
        for high, mid, low in zip(lines, lines[1:], lines[2:])
        if level(high, mid) >= level(mid, low)
    ]
    assert triples == inverted
    # and no inverted middle charge owns a segment
    assert not {t[1] for t in triples} & {s[0] for s in segments}


def test_neutral_window_report():
    # constructed so the neutral window is exactly [1.54, 2.52]
    entries = [
        _entry(q=1, energy=-100.0 + 3.0 - 1.54),
        _entry(q=0, energy=-100.0 + 3.0),
        _entry(q=-1, energy=-100.0 + 3.0 + 2.52),
    ]
    segments, _ = stability_diagram(entries, HOST)
    [(lo, hi)] = [(lo, hi) for q, _, lo, hi in segments if q == 0]
    assert lo == pytest.approx(1.54, abs=1e-12)
    assert hi == pytest.approx(2.52, abs=1e-12)
    assert [s[0] for s in segments] == [1, 0, -1]


def test_negative_u_middle_charge_skipped_on_envelope():
    # with eps(+/0) > eps(0/-), the neutral line never touches the envelope
    entries = [
        _entry(q=1, energy=-96.5),
        _entry(q=0, energy=-94.5),
        _entry(q=-1, energy=-93.5),
    ]
    segments, _ = stability_diagram(entries, HOST)
    assert [s[0] for s in segments] == [1, -1]


# -------------------------------------------------------------- dissociation

def test_dissociation_arithmetic():
    assert dissociation_energy(-50.0, -10.0, -64.0) == pytest.approx(4.0)


def test_dissociation_negative_flagged_unstable():
    assert dissociation_energy(-50.0, -10.0, -59.87) == pytest.approx(-0.13)


def test_dissociation_additivity_boundary():
    # cli.cmd_dissoc writes E_D >= 0 as stable: the boundary counts as stable
    assert dissociation_energy(-50.0, -10.0, -60.0) == 0.0


@given(st.floats(-30.0, 30.0))
def test_dissociation_shift_invariance(shift):
    # shifting the two cluster supercells together leaves E_D alone
    base = dissociation_energy(-50.0, -10.0, -64.0)
    shifted = dissociation_energy(-50.0 + shift, -10.0, -64.0 + shift)
    assert shifted == pytest.approx(base, abs=1e-9)
