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
diagram is those lines with the (charge, intercept, lo, hi) segments of
their lower envelope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

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


def transition_level(a: Tuple[int, float], b: Tuple[int, float]) -> float:
    """Fermi level where two charge states have equal formation energy.

    Arguments are (charge, E_f at E_Fermi = 0) pairs of two different
    charges; the result is symmetric under swapping them.
    """
    (qa, fa), (qb, fb) = a, b
    return (fa - fb) / (qb - qa)


def stability_diagram(entries: Sequence[DefectEntry], host: HostReference):
    """Formation lines and their lower envelope over [0, gap] for one label.

    entries, one or more charge states of one label (cli.cmd_thermo groups
    them), each charge once (io.parse_defect_table): neither is re-checked.
    Returns (lines, segments): the (charge, intercept) lines by falling
    charge, and the (charge, intercept, lo, hi) envelope segments, which
    tile [0, gap] in rising Fermi level with lo < hi; segment i's hi is the
    transition level from its charge to the charge of segment i + 1.  A
    line past the float range is refused.

    The envelope is the lower hull of the lines, with crossings compared as
    exact fractions of the float intercepts: lines meeting within rounding
    of one point cannot hide the lowest, and at a common point the smallest
    charge goes on.  Ends are rounded to float after the clip to [0, gap],
    and a segment whose ends round to one float is dropped.
    """
    lines = sorted(
        ((e.charge, formation_energy(e, host, 0.0)) for e in entries), key=lambda line: -line[0]
    )
    if not all(math.isfinite(f) for _, f in lines):
        raise NonFiniteValue(f"a formation energy of {entries[0].label} is past the float range")

    def cross(a, b):
        return (Fraction(a[1]) - Fraction(b[1])) / (b[0] - a[0])

    hull = []
    for line in lines:
        # hull[-1] is nowhere lowest if `line` meets hull[-2] no later than it does
        while len(hull) > 1 and cross(hull[-2], line) <= cross(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    crossings = (cross(a, b) for a, b in zip(hull, hull[1:]))
    ends = [0.0, *(float(min(max(x, 0), host.gap_ev)) for x in crossings), host.gap_ev]
    return lines, [(*line, lo, hi) for line, lo, hi in zip(hull, ends, ends[1:]) if lo < hi]


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


def negative_u_triples(lines) -> List[Tuple[int, int, int, float, float]]:
    """Adjacent charge triples whose levels are inverted: negative U.

    lines, stability_diagram's (charge, intercept) pairs by falling charge.
    Each triple is (q_high, q_mid, q_low, eps(high/mid), eps(mid/low)),
    kept when the donor level of the middle charge lies at or above its
    acceptor level; fewer than three lines give none.
    """
    triples = []
    for high, mid, low in zip(lines, lines[1:], lines[2:]):
        upper, lower = transition_level(high, mid), transition_level(mid, low)
        if upper >= lower:
            triples.append((high[0], mid[0], low[0], upper, lower))
    return triples


def dissociation_energy(
    fragment_energy_ev: float, released_energy_ev: float, cluster_energy_ev: float
) -> float:
    """E_D = E(fragment cluster) + E(released species) - E(original cluster),
    in eV; a negative value marks an unstable cluster.

    io.parse_dissociation_table reads each energy finite; write_table_tsv
    refuses a result that overflows.
    """
    return fragment_energy_ev + released_energy_ev - cluster_energy_ev
