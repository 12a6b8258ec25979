"""Shared domain types.

A record holds the arrays it is given: it copies nothing and checks
nothing, so a caller that mutates an array it passed in mutates the
record.  frozen=True only stops a field from being rebound.  Each
contract is checked once, by the function that makes the value, which
names its locus: io's parsers check every field they read (shapes,
finiteness, integers and markers; a right-handed cell and positive masses
in io.parse_structure; ascending omegas, non-negative S_k and a total
equal to their sum in io.parse_hr), and each computing stage checks what
it makes (finite modes and the eigenvector residual in
phonons.diagonalize, finite q_k and S_k in vibronic.partial_hr, the unit
integral of a Lineshape by construction in vibronic.lineshape).  Code
that builds a record from anything else supplies what that maker would
have guaranteed.  A stage result read only by the next stage is no
record but plain arrays, its contract checked by the function that makes
it: S(hw) and G(t) in vibronic, the ASR residuals in phonons.  Nor are
flags a record: each is checked where vibronic first reads it.
DefectEntry and HostReference are checked by io.parse_defect_table, and
energetics passes its results as plain numbers.

Sign conventions fixed here once:

* stoichiometry counts: n > 0 means the atom was REMOVED from the
  supercell, n < 0 means it was added.  The chemical-potential term of
  the formation energy is evaluated literally as ``+ sum n_i*(dmu_i + E_i)``.
* imaginary phonons are stored as negative meV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from . import units
from .errors import InputError, NonFiniteValue


def _require_finite(a, name):
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        idx = ",".join(str(int(i)) for i in bad)
        raise NonFiniteValue(f"{name}[{idx}] is not finite")


def sum_sk(sk) -> float:
    """Correctly rounded sum of finite partial factors (math.fsum): the
    total S.  NonFiniteValue when the sum passes the float range."""
    try:
        return math.fsum(sk.tolist())
    except OverflowError:
        raise NonFiniteValue("total S, the sum of sk, exceeds the float range") from None


#: Largest output grid: 20 times the 200,501 points of the largest benchmark spectrum.
MAX_OUTPUT_POINTS = 1 << 22


def output_grid(lo_mev, hi_mev, step_mev, step_flag, range_flag):
    """lo + step * arange(n) in meV, n = floor((hi - lo) / step + 1e-9) + 1:
    the output grid of spectrum, oracle and thermo.  Before building it,
    InputError naming the flag for step <= 0, lo >= hi or n > MAX_OUTPUT_POINTS.
    """
    if not step_mev > 0:
        raise InputError(f"step {step_mev:g} meV ({step_flag}) must be positive")
    if not lo_mev < hi_mev:
        raise InputError(f"range {lo_mev:g} to {hi_mev:g} meV ({range_flag}) is empty")
    cells = (hi_mev - lo_mev) / step_mev + 1e-9
    if not cells < MAX_OUTPUT_POINTS:
        raise InputError(
            f"range {lo_mev:g} to {hi_mev:g} meV ({range_flag}) at step {step_mev:g} meV "
            f"({step_flag}) needs more than the {MAX_OUTPUT_POINTS} output points allowed"
        )
    return lo_mev + step_mev * np.arange(int(math.floor(cells)) + 1)


def tsv_rounding(values):
    """Largest change the tables' %.9g makes to each value: half a unit in
    its ninth significant digit."""
    with np.errstate(divide="ignore"):
        return 0.5 * 10.0 ** (np.floor(np.log10(np.abs(values))) - 8)


@dataclass(frozen=True, eq=False)
class CrystalStructure:
    """Supercell: lattice rows are cell vectors in A, positions Cartesian A;
    a positive determinant and positive masses, as io.parse_structure reads it."""

    lattice: np.ndarray
    species: Tuple[str, ...]
    masses: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        # callers may pass lists; structure_checksum reads the arrays' .tolist()
        for name in ("lattice", "masses", "positions"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def natoms(self):
        return len(self.species)

    @property
    def volume_a3(self):
        return float(np.linalg.det(self.lattice))

    def mass_vector_3n(self):
        """Per-coordinate masses (each atom's mass repeated for x,y,z)."""
        return np.repeat(self.masses, 3)


def structure_checksum(structure: CrystalStructure) -> str:
    """sha256 over a canonical textual form; binds Hessians to a structure."""
    import hashlib

    doc = {
        "lattice": structure.lattice.tolist(),
        "species": list(structure.species),
        "masses": structure.masses.tolist(),
        "positions": structure.positions.tolist(),
    }
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, eq=False)
class Hessian:
    """Second derivatives of the total energy, eV/A^2, atom-major xyz-minor:
    finite and 3N x 3N for its structure, as io.parse_hessian reads it."""

    matrix: np.ndarray
    structure_hash: str = ""


@dataclass(frozen=True, eq=False)
class PhononBasis:
    """Mass-weighted eigenmodes; omegas in meV (imaginary stored negative).
    Finite, with orthonormal rows, as io.parse_phonon_basis reads it and
    phonons.diagonalize computes it."""

    omegas_mev: np.ndarray
    vectors: np.ndarray  # (3N, 3N), row k is mode k, unit norm

    def __post_init__(self):
        pass  # kept by name: the benchmark's tracer times the record through it

    @property
    def nmodes(self):
        return self.omegas_mev.shape[0]


def classify_lvm(omegas_mev, cutoff_mev: float) -> List[int]:
    """Indices of the local vibrational modes, those strictly above the bulk
    phonon cutoff, ascending: modes' LVM flags and spectrum's peak labels."""
    return [int(i) for i in np.nonzero(np.asarray(omegas_mev) > cutoff_mev)[0]]


@dataclass(frozen=True, eq=False)
class GeometryPair:
    """Ground and excited geometries on the same atom ordering (A)."""

    ground: np.ndarray
    excited: np.ndarray
    species: Optional[Tuple[str, ...]] = None

    @property
    def delta(self):
        """excited - ground, exactly."""
        return self.excited - self.ground


@dataclass(frozen=True, eq=False)
class ForceDelta:
    """F_excited - F_ground at fixed positions, flat 3N vector in eV/A."""

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class HRDecomposition:
    """Per-mode displacements q_k (amu^1/2 A) and partial factors S_k:
    omegas ascending, every q_k and S_k finite, S_k >= 0 summing to total,
    as io.parse_hr reads it and vibronic.partial_hr computes it."""

    omegas_mev: np.ndarray
    qk: np.ndarray
    sk: np.ndarray
    total: float

    @property
    def nmodes(self):
        return self.omegas_mev.shape[0]


@dataclass(frozen=True)
class TimeGrid:
    """Symmetric time grid t_j = (j - n // 2) dt, j = 0 .. n - 1, in fs.

    vibronic.make_time_grid builds it, and checks every contract of the
    grid there and only there.  No array is held: dt is the step over the
    whole grid, (t[-1] - t[0]) / (n - 1) of the points built from the
    Nyquist step, which unlike one difference carries no rounding of the
    grid's largest value.  Its gamma and reach are not kept: emission
    builds it from the flags that lineshape then reads.  S(t) on it is
    one real FFT of length fft_size = N over a spectral density sampled at
    spectral_step_mev, D = 2 pi hbar / (N dt).
    """

    n: int
    dt: float
    fft_size: int

    def __len__(self):
        return self.n

    @property
    def spectral_step_mev(self):
        return 2.0 * math.pi * units.HBAR_MEV_FS / (self.fft_size * self.dt)


@dataclass(frozen=True, eq=False)
class Lineshape:
    """Emission intensity per eV on a uniform energy grid, as
    vibronic.lineshape builds it: divided by its own trapezoid integral,
    so the unit integral holds by construction and is not re-checked."""

    energy_ev: np.ndarray
    intensity: np.ndarray


@dataclass(frozen=True)
class ChemicalPotential:
    """Reservoir energy split: elemental reference E_i plus offset dmu_i."""

    reference_energy_ev: float
    delta_ev: float

    @property
    def mu_ev(self):
        return self.reference_energy_ev + self.delta_ev


@dataclass(frozen=True)
class DefectEntry:
    """One charged supercell calculation.

    stoichiometry: species -> signed count, positive means removed from
    the supercell.  correction is either an explicit eV value or the
    string marker "analytic" to request the isotropic point-charge
    fallback at evaluation time.
    """

    label: str
    charge: int
    total_energy_ev: float
    stoichiometry: Mapping[str, int] = field(default_factory=dict)
    correction: Union[float, str] = 0.0


@dataclass(frozen=True)
class HostReference:
    """Pristine-host energies and reservoir data shared by all entries.

    dielectric_constant and cell_volume_a3 are only needed when some
    entry requests the analytic charge correction.  io.parse_defect_table
    reads a positive gap, a dielectric constant above 1 and a positive
    volume, and a chemical potential for every species an entry names.
    """

    host_energy_ev: float
    vbm_ev: float
    gap_ev: float
    chemical_potentials: Mapping[str, ChemicalPotential] = field(default_factory=dict)
    dielectric_constant: Optional[float] = None
    cell_volume_a3: Optional[float] = None
