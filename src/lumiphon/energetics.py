"""Defect formation energetics, transition levels, dissociation energies.

Formation energy of a defect in charge q at Fermi level F (relative to
the VBM):

    E_f = E_d(q) - E_host + sum_i n_i*(dmu_i + E_i) + q*(E_V + F) + E_corr(q)

with n_i > 0 counting atoms removed from the supercell and n_i < 0 atoms
added.  If a user's bookkeeping assumes the opposite sign, the
stoichiometry term flips sign accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import units
from .errors import InputError, InvalidDielectric, MissingChemicalPotential
from .model import (
    ChemicalPotential,
    DefectEntry,
    FormationLine,
    HostReference,
    Transition,
)


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
    even and quadratic in the charge.  _resolved_correction, the one
    caller, has refused a missing dielectric constant or volume.
    """
    if dielectric_constant <= 1.0:
        raise InvalidDielectric(
            f"dielectric constant must exceed 1, got {dielectric_constant}"
        )
    if volume_a3 <= 0.0:
        raise InputError(f"cell volume must be positive, got {volume_a3}")
    length = volume_a3 ** (1.0 / 3.0)
    return (
        charge * charge * units.MADELUNG_SC * units.COULOMB_EV_A
        / (2.0 * dielectric_constant * length)
    )


def _resolved_correction(entry: DefectEntry, host: HostReference) -> float:
    if entry.correction == "analytic":
        if host.dielectric_constant is None or host.cell_volume_a3 is None:
            raise InvalidDielectric(
                f"entry {entry.label!r} requests the analytic correction but the "
                "host reference lacks dielectric_constant / cell_volume_a3"
            )
        return analytic_correction(
            entry.charge, host.dielectric_constant, host.cell_volume_a3
        )
    return float(entry.correction)


def formation_energy(entry: DefectEntry, host: HostReference, e_fermi_ev: float) -> float:
    """Evaluate the formation energy at one Fermi level (eV above the VBM)."""
    reservoir = 0.0
    for species in sorted(entry.stoichiometry):
        n = entry.stoichiometry[species]
        if species not in host.chemical_potentials:
            raise MissingChemicalPotential(
                f"no chemical potential for species {species!r} "
                f"(needed by entry {entry.label!r})"
            )
        reservoir += n * host.chemical_potentials[species].mu_ev
    return (
        entry.total_energy_ev
        - host.host_energy_ev
        + reservoir
        + entry.charge * (host.vbm_ev + e_fermi_ev)
        + _resolved_correction(entry, host)
    )


def formation_line(entry: DefectEntry, host: HostReference) -> FormationLine:
    """The E_f(E_Fermi) line of one charge state (slope = charge)."""
    return FormationLine(entry.charge, formation_energy(entry, host, 0.0))


def transition_level(a: Tuple[int, float], b: Tuple[int, float]) -> float:
    """Fermi level where two charge states have equal formation energy.

    Arguments are (charge, E_f at E_Fermi = 0) pairs of two different
    charges; the result is symmetric under swapping them.
    """
    (qa, fa), (qb, fb) = a, b
    return (fa - fb) / (qb - qa)


@dataclass(frozen=True)
class EnvelopeSegment:
    fermi_lo_ev: float
    fermi_hi_ev: float
    line: FormationLine


@dataclass(frozen=True)
class StabilityDiagram:
    """Lower envelope of the formation lines of one defect over [0, gap]."""

    lines: Tuple[FormationLine, ...]
    segments: Tuple[EnvelopeSegment, ...]
    transitions: Tuple[Transition, ...]

    def envelope(self, e_fermi_ev):
        """Envelope energy evaluated through the segment list; NaN outside
        [0, gap], which cli.cmd_thermo's Fermi samples never leave."""
        x = np.asarray(e_fermi_ev, dtype=float)
        out = np.full(x.shape, np.nan)
        for seg in self.segments:
            sel = (x >= seg.fermi_lo_ev) & (x <= seg.fermi_hi_ev)
            out[sel] = seg.line.energy(x[sel])
        return out if out.ndim else float(out)

    def charge_windows(self) -> List[Tuple[int, float, float]]:
        return [(s.line.charge, s.fermi_lo_ev, s.fermi_hi_ev) for s in self.segments]


def stability_diagram(
    entries: Sequence[DefectEntry], host: HostReference
) -> StabilityDiagram:
    """Envelope, stability windows and transition levels for one label.

    entries, one or more charge states of one label (cli.cmd_thermo groups
    them), each charge once (io.parse_defect_table): neither is re-checked.
    """
    lines = tuple(sorted((formation_line(e, host) for e in entries), key=lambda l: -l.charge))
    gap = host.gap_ev

    def lowest_at(x, pool):
        return min(pool, key=lambda l: (l.energy(x), l.charge))

    segments: List[EnvelopeSegment] = []
    transitions: List[Transition] = []
    active = lowest_at(0.0, lines)
    x = 0.0
    while True:
        # earliest crossing with a shallower-sloped line
        best_x, best_line = None, None
        for line in lines:
            if line.charge >= active.charge:
                continue
            cross = transition_level(
                (line.charge, line.intercept_ev), (active.charge, active.intercept_ev)
            )
            if cross <= x or cross >= gap:
                continue
            if best_x is None or cross < best_x or (
                cross == best_x and line.charge < best_line.charge
            ):
                best_x, best_line = cross, line
        if best_x is None:
            segments.append(EnvelopeSegment(x, gap, active))
            break
        segments.append(EnvelopeSegment(x, best_x, active))
        transitions.append(Transition(active.charge, best_line.charge, best_x))
        active, x = best_line, best_x
    return StabilityDiagram(lines, tuple(segments), tuple(transitions))


@dataclass(frozen=True)
class ChargeOrdering:
    """Adjacent-triple level ordering; negative_u when the donor level of
    the middle charge lies at or above its acceptor level."""

    q_high: int
    q_mid: int
    q_low: int
    eps_high_mid_ev: float
    eps_mid_low_ev: float

    @property
    def negative_u(self) -> bool:
        return self.eps_high_mid_ev >= self.eps_mid_low_ev


def charge_ordering_report(diagram: StabilityDiagram) -> List[ChargeOrdering]:
    """Check ordering of adjacent transition levels for every charge triple.

    Reads the diagram's lines, sorted by falling charge with intercepts
    E_f at E_Fermi = 0; fewer than three lines give no triple.
    """
    pairs = [(line.charge, line.intercept_ev) for line in diagram.lines]
    return [
        ChargeOrdering(
            high[0],
            mid[0],
            low[0],
            transition_level(high, mid),
            transition_level(mid, low),
        )
        for high, mid, low in zip(pairs, pairs[1:], pairs[2:])
    ]


@dataclass(frozen=True)
class DissociationEnergy:
    """Cost of detaching one atom; negative values mark unstable species."""

    value_ev: float

    @property
    def stable(self) -> bool:
        return self.value_ev >= 0.0


def dissociation_energy(
    fragment_energy_ev: float, released_energy_ev: float, cluster_energy_ev: float
) -> DissociationEnergy:
    """E_D = E(fragment cluster) + E(released species) - E(original cluster).

    io.parse_dissociation_table reads each energy finite; write_table_tsv
    refuses a result that overflows.
    """
    return DissociationEnergy(fragment_energy_ev + released_energy_ev - cluster_energy_ev)
