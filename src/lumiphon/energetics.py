"""Defect formation energetics, transition levels, dissociation energies.

Formation energy of a defect in charge q at Fermi level F (relative to
the VBM):

    E_f = E_d(q) - E_host + sum_i n_i*(dmu_i + E_i) + q*(E_V + F) + E_corr(q)

with n_i > 0 counting atoms removed from the supercell and n_i < 0 atoms
added.  If a user's bookkeeping assumes the opposite sign, the
stoichiometry term flips sign accordingly.

Everything here is arithmetic on what io.parse_defect_table has checked:
a positive gap, a dielectric constant above 1 and a positive cell volume
(both present for an "analytic" entry), and a chemical potential for
every stoichiometry species.  Results are plain numbers: a charge state's
formation line is the pair (charge, E_f at E_Fermi = 0), and a stability
diagram is the (charge, intercept, lo, hi) segments of those lines' lower
envelope with the negative-U triples among them.  Both come from one rule,
the exact crossing of two lines, rounded to float only for output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import units
from .errors import NonFiniteValue
from .model import ChemicalPotential, DefectEntry, HostReference


def carbon_rich_potentials(
    e_diamond_per_atom_ev: float,
    e_si_bulk_per_atom_ev: float,
    e_sic_pair_ev: float,
):
    """Carbon-rich reservoir set for a SiC host.

    Carbon sits at its bulk (diamond) reference, dmu_C = 0; silicon is
    pinned by equilibrium with the host, dmu_Si = E(SiC pair) - E_C - E_Si,
    the (negative) formation enthalpy per formula unit.  Arbitrary dmu
    values can always be supplied directly instead.
    """
    return {
        "C": ChemicalPotential(e_diamond_per_atom_ev, 0.0),
        "Si": ChemicalPotential(
            e_si_bulk_per_atom_ev,
            e_sic_pair_ev - e_diamond_per_atom_ev - e_si_bulk_per_atom_ev,
        ),
    }


def analytic_correction(charge: int, dielectric_constant: float, volume_a3: float) -> float:
    """Leading-order image-charge correction for a cubic-equivalent cell.

    q^2 * alpha / (2 eps L) with L the cube root of the cell volume and
    alpha the simple-cubic Madelung constant; zero for neutral cells,
    even and quadratic in the charge.
    """
    length = volume_a3 ** (1.0 / 3.0)
    q = float(charge)  # a float square overflows to inf, an integer one cannot convert
    return q * q * units.MADELUNG_SC * units.COULOMB_EV_A / (2.0 * dielectric_constant * length)


def _resolved_correction(entry: DefectEntry, host: HostReference) -> float:
    if entry.correction == "analytic":
        return analytic_correction(
            entry.charge, host.dielectric_constant, host.cell_volume_a3
        )
    return float(entry.correction)


def formation_energy(entry: DefectEntry, host: HostReference, e_fermi_ev: float) -> float:
    """Evaluate the formation energy at one Fermi level (eV above the VBM)."""
    reservoir = 0.0
    for species in sorted(entry.stoichiometry):
        reservoir += entry.stoichiometry[species] * host.chemical_potentials[species].mu_ev
    return (
        entry.total_energy_ev
        - host.host_energy_ev
        + reservoir
        + entry.charge * (host.vbm_ev + e_fermi_ev)
        + _resolved_correction(entry, host)
    )


def _crossing(a, b) -> Fraction:
    """Exact Fermi level where two formation lines, (charge, E_f at
    E_Fermi = 0) pairs of different charges, meet: a fraction of their float
    intercepts, symmetric under swapping them."""
    return (Fraction(a[1]) - Fraction(b[1])) / (b[0] - a[0])


def stability_diagram(entries: Sequence[DefectEntry], host: HostReference):
    """Lower envelope over [0, gap] and negative-U triples for one label.

    entries, one or more charge states of one label (cli.cmd_thermo groups
    them), each charge once (io.parse_defect_table): neither is re-checked.
    Returns (segments, triples).  segments are the (charge, intercept, lo,
    hi) envelope segments, which tile [0, gap] in rising Fermi level with
    lo < hi; segment i's hi is the transition level from its charge to the
    charge of segment i + 1.  triples are the adjacent charges, by falling
    charge, whose levels are inverted (negative U): (q_high, q_mid, q_low,
    eps(high/mid), eps(mid/low)) with eps(high/mid) >= eps(mid/low).  A
    line past the float range is refused.

    Every level is an exact _crossing of the float intercepts, rounded to
    float last.  The envelope is the lower hull of the lines: lines meeting
    within rounding of one point cannot hide the lowest, and at a common
    point the smallest charge goes on.  So a triple's middle charge never
    owns a segment.  Ends are rounded after the clip to [0, gap], and a
    segment whose ends round to one float is dropped.  A triple's level
    past the float range is refused.
    """
    lines = sorted(
        ((e.charge, formation_energy(e, host, 0.0)) for e in entries), key=lambda line: -line[0]
    )
    if not all(math.isfinite(f) for _, f in lines):
        raise NonFiniteValue(f"a formation energy of {entries[0].label} is past the float range")

    hull = []
    for line in lines:
        # hull[-1] is nowhere lowest if `line` meets hull[-2] no later than it does
        while len(hull) > 1 and _crossing(hull[-2], line) <= _crossing(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    crossings = (_crossing(a, b) for a, b in zip(hull, hull[1:]))
    ends = [0.0, *(float(min(max(x, 0), host.gap_ev)) for x in crossings), host.gap_ev]
    segments = [(*line, lo, hi) for line, lo, hi in zip(hull, ends, ends[1:]) if lo < hi]

    levels = [_crossing(a, b) for a, b in zip(lines, lines[1:])]
    try:
        triples = [
            (high[0], mid[0], low[0], float(upper), float(lower))
            for high, mid, low, upper, lower in zip(lines, lines[1:], lines[2:], levels, levels[1:])
            if upper >= lower
        ]
    except OverflowError:  # finite lines can cross past the float range
        raise NonFiniteValue(
            f"an inverted transition level of {entries[0].label} is past the float range"
        ) from None
    return segments, triples


def envelope(segments, e_fermi_ev):
    """Envelope energy at each Fermi level of the array e_fermi_ev, from
    stability_diagram's segments; the later segment wins at a shared end.
    NaN outside [0, gap], which cli.cmd_thermo's Fermi samples never leave."""
    x = np.asarray(e_fermi_ev, dtype=float)
    out = np.full(x.shape, np.nan)
    for charge, intercept, lo, hi in segments:
        sel = (x >= lo) & (x <= hi)
        out[sel] = intercept + charge * x[sel]
    return out


def dissociation_energy(
    fragment_energy_ev: float, released_energy_ev: float, cluster_energy_ev: float
) -> float:
    """E_D = E(fragment cluster) + E(released species) - E(original cluster),
    in eV; a negative value marks an unstable cluster.

    io.parse_dissociation_table reads each energy finite; write_table_tsv
    refuses a result that overflows.
    """
    return fragment_energy_ev + released_energy_ev - cluster_energy_ev
