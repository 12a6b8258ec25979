"""Shared domain types.

All types are immutable after construction (arrays are copied in and
marked read-only), so instances can be shared freely across threads.

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
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NonFiniteValue,
    NonPositiveGamma,
    NumericalError,
)


def _own(a, dtype=float):
    """Copy to a fresh read-only array (callers keep their own mutable copy)."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_finite(a, name):
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        idx = ",".join(str(int(i)) for i in bad)
        raise NonFiniteValue(f"{name}[{idx}] is not finite")


def _uniform_step(x, name):
    """First step of the uniform ascending 1-d grid x; InputError otherwise.

    x = (arange(n) + c) * dt rounds each point to its own ulp, so a step
    carries the rounding of the grid's largest value: at 2^24 points that
    exceeds 1e-9 of dt.  Each step may therefore deviate from the first by
    1e-9 of it or by 4 eps max |x|, whichever is larger.
    """
    steps = np.diff(x)
    step = float(steps[0])
    # an ascending grid is largest in magnitude at one of its ends
    tol = max(1e-9 * abs(step), 4.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1])))
    lo, hi = float(steps.min()), float(steps.max())
    if not (lo > 0 and hi - step <= tol and step - lo <= tol):  # NaN fails too
        raise InputError(f"{name} must be uniform and ascending")
    return step


def _require_step_within_gamma(step_mev, gamma_mev):
    """InputError unless the output step resolves the zero-phonon Lorentzian.

    Sampled at a step above its half-width gamma, the zero-phonon line's
    area depends on where the samples fall.  The 1e-9 slack absorbs the
    rounding of a step read back from a grid.
    """
    if step_mev > gamma_mev * (1.0 + 1e-9):
        raise InputError(
            f"output step {step_mev:g} meV (--step) exceeds gamma {gamma_mev:g} meV "
            "(--gamma) and would undersample the zero-phonon line"
        )


@dataclass(frozen=True, eq=False)
class CrystalStructure:
    """Supercell: lattice rows are cell vectors in A, positions Cartesian A."""

    lattice: np.ndarray
    species: Tuple[str, ...]
    masses: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lattice", _own(self.lattice))
        object.__setattr__(self, "species", tuple(str(s) for s in self.species))
        object.__setattr__(self, "masses", _own(self.masses))
        object.__setattr__(self, "positions", _own(self.positions))
        if self.lattice.shape != (3, 3):
            raise DimensionMismatch(f"lattice must be 3x3, got {self.lattice.shape}")
        _require_finite(self.lattice, "lattice")
        if np.linalg.det(self.lattice) <= 0:
            raise InputError("lattice determinant must be positive (right-handed cell)")
        n = len(self.species)
        if n < 1:
            raise InputError("structure needs at least one site")
        if self.masses.shape != (n,):
            raise DimensionMismatch(f"masses must have length {n}, got {self.masses.shape}")
        if self.positions.shape != (n, 3):
            raise DimensionMismatch(f"positions must be {n}x3, got {self.positions.shape}")
        _require_finite(self.masses, "masses")
        _require_finite(self.positions, "positions")
        if np.any(self.masses <= 0):
            i = int(np.argwhere(self.masses <= 0)[0][0])
            raise InputError(f"masses[{i}] must be positive")

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
    """Second derivatives of the total energy, eV/A^2, atom-major xyz-minor."""

    matrix: np.ndarray
    structure_hash: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _own(self.matrix))
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"hessian must be square, got {m.shape}")
        if m.shape[0] % 3 != 0:
            raise DimensionMismatch(f"hessian dimension {m.shape[0]} not divisible by 3")
        _require_finite(m, "hessian")

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def natoms(self):
        return self.dim // 3

    def is_symmetric(self):
        return bool(np.array_equal(self.matrix, self.matrix.T))


#: Orthonormality slack allowed on stored eigenvector sets.
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PhononBasis:
    """Mass-weighted eigenmodes; omegas in meV (imaginary stored negative)."""

    omegas_mev: np.ndarray
    vectors: np.ndarray  # (3N, 3N), row k is mode k, unit norm
    cutoff_bulk_mev: float = 115.0

    def __post_init__(self):
        object.__setattr__(self, "omegas_mev", _own(self.omegas_mev))
        object.__setattr__(self, "vectors", _own(self.vectors))
        w, v = self.omegas_mev, self.vectors
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatch(f"mode matrix must be square (3N modes), got {v.shape}")
        if w.shape != (v.shape[0],):
            raise DimensionMismatch(
                f"{w.shape[0]} frequencies for {v.shape[0]} mode vectors"
            )
        if v.shape[0] % 3 != 0:
            raise DimensionMismatch(f"mode dimension {v.shape[0]} not divisible by 3")
        _require_finite(w, "omegas_mev")
        _require_finite(v, "vectors")
        self._check_orthonormal()

    def _check_orthonormal(self):
        v = self.vectors
        n = v.shape[0]
        if n <= 768:
            gram = v @ v.T
            dev = float(np.max(np.abs(gram - np.eye(n))))
        else:
            # large bases: full diagonal plus a deterministic off-diagonal sample
            dev = float(np.max(np.abs(np.einsum("ij,ij->i", v, v) - 1.0)))
            rng = np.random.default_rng(0)
            rows = rng.choice(n, size=min(n, 256), replace=False)
            block = v[rows] @ v.T
            block[np.arange(rows.size), rows] -= 1.0
            dev = max(dev, float(np.max(np.abs(block))))
        if dev >= ORTHONORMALITY_TOL:
            raise InputError(f"mode vectors not orthonormal (max deviation {dev:.3e})")

    @property
    def nmodes(self):
        return self.omegas_mev.shape[0]

    @property
    def natoms(self):
        return self.nmodes // 3


@dataclass(frozen=True, eq=False)
class GeometryPair:
    """Ground and excited geometries on the same atom ordering (A)."""

    ground: np.ndarray
    excited: np.ndarray
    species: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "ground", _own(self.ground))
        object.__setattr__(self, "excited", _own(self.excited))
        if self.species is not None:
            object.__setattr__(self, "species", tuple(str(s) for s in self.species))
        g, e = self.ground, self.excited
        if g.ndim != 2 or g.shape[1] != 3:
            raise DimensionMismatch(f"ground positions must be Nx3, got {g.shape}")
        if e.shape != g.shape:
            raise DimensionMismatch(
                f"excited shape {e.shape} does not match ground shape {g.shape}"
            )
        if self.species is not None and len(self.species) != g.shape[0]:
            raise DimensionMismatch(
                f"{len(self.species)} species for {g.shape[0]} atoms"
            )
        _require_finite(g, "ground")
        _require_finite(e, "excited")

    @property
    def natoms(self):
        return self.ground.shape[0]

    @property
    def delta(self):
        """excited - ground, exactly."""
        return self.excited - self.ground


@dataclass(frozen=True, eq=False)
class ForceDelta:
    """F_excited - F_ground at fixed positions, flat 3N vector in eV/A."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim == 2 and v.shape[1] == 3:
            v = v.reshape(-1)
        if v.ndim != 1 or v.shape[0] % 3 != 0:
            raise DimensionMismatch(f"force delta must be length 3N, got {v.shape}")
        _require_finite(v, "force_delta")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def natoms(self):
        return self.values.shape[0] // 3


@dataclass(frozen=True, eq=False)
class HRDecomposition:
    """Per-mode displacements q_k (amu^1/2 A) and partial factors S_k."""

    omegas_mev: np.ndarray
    qk: np.ndarray
    sk: np.ndarray
    total: float

    def __post_init__(self):
        object.__setattr__(self, "omegas_mev", _own(self.omegas_mev))
        object.__setattr__(self, "qk", _own(self.qk))
        object.__setattr__(self, "sk", _own(self.sk))
        w, q, s = self.omegas_mev, self.qk, self.sk
        if not (w.shape == q.shape == s.shape) or w.ndim != 1:
            raise DimensionMismatch("omega/q/S arrays must share one shape")
        _require_finite(w, "omegas_mev")
        _require_finite(q, "qk")
        _require_finite(s, "sk")
        if np.any(s < 0):
            i = int(np.argwhere(s < 0)[0][0])
            raise InputError(f"sk[{i}] is negative")
        if np.any(np.diff(w) < 0):
            raise InputError("entries must be sorted ascending by omega")
        if not math.isfinite(self.total):
            raise NonFiniteValue(f"total {self.total!r} is not finite")
        tot = math.fsum(s.tolist())
        if abs(tot - self.total) > 1e-12 * max(1.0, abs(tot)):
            raise InputError(
                f"total {self.total!r} does not match sum of sk {tot!r}"
            )

    @property
    def nmodes(self):
        return self.omegas_mev.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Smeared partial-HR spectrum S(hw) on a uniform meV grid, 1/meV."""

    grid_mev: np.ndarray
    values: np.ndarray
    sigma_mev: float
    total: float

    def __post_init__(self):
        object.__setattr__(self, "grid_mev", _own(self.grid_mev))
        object.__setattr__(self, "values", _own(self.values))
        g, v = self.grid_mev, self.values
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise DimensionMismatch("grid and values must be matching 1-d arrays")
        _require_finite(g, "grid_mev")
        _require_finite(v, "values")
        _uniform_step(g, "grid")
        if np.any(v < 0):
            raise InputError("spectral density must be non-negative")
        integral = float(np.trapezoid(v, g))
        if self.total > 0 and abs(integral - self.total) > 1e-6 * self.total:
            raise InputError(
                f"integral {integral!r} deviates from total S {self.total!r}"
            )

    @property
    def step_mev(self):
        return float(self.grid_mev[1] - self.grid_mev[0])

    @property
    def omega_max_mev(self):
        """Largest |energy| on the grid: the top of the spectral content."""
        return float(np.max(np.abs(self.grid_mev)))


@dataclass(frozen=True)
class TimeGrid:
    """Symmetric time grid t_j = (j - n // 2) dt, j = 0 .. n - 1, in fs.

    vibronic.make_time_grid builds it, and checks every contract of the
    grid there and only there.  No array is held: dt is the step over the
    whole grid, (t[-1] - t[0]) / (n - 1) of the points built from the
    requested step, which unlike one difference carries no rounding of the
    grid's largest value.  gamma_mev and reach_mev are the damping and the
    largest |E - E_zpl| (meV) whose lineshape the grid resolves.
    """

    n: int
    dt: float
    gamma_mev: float
    reach_mev: float

    def __len__(self):
        return self.n


@dataclass(frozen=True, eq=False)
class GeneratingFunction:
    """G(t) = exp(S(t) - S(0)) on a TimeGrid, t = 0 at index n // 2.

    G(0) must be exactly 1 and |G| at most 1 (InputError otherwise).  G is
    Hermitian, G(-t) = conj G(t): every sample paired across t = 0 must
    equal the conjugate of its partner exactly (NumericalError otherwise),
    so the sideband transform reads the t >= 0 half alone.  s_total is the
    S of the zero-phonon weight e^{-S}.
    """

    grid: TimeGrid
    values: np.ndarray
    s_total: float

    def __post_init__(self):
        object.__setattr__(self, "values", _own(self.values, dtype=complex))
        g = self.values
        if g.shape != (len(self.grid),):
            raise DimensionMismatch(
                f"{g.size} values for a time grid of {len(self.grid)} points"
            )
        if not np.all(np.isfinite(g)):
            raise NonFiniteValue("generating function has non-finite values")
        i0 = g.size // 2
        if g[i0] != 1.0 + 0.0j:
            raise InputError(f"G(0) must be exactly 1, got {g[i0]!r}")
        if np.max(np.abs(g)) > 1.0 + 1e-9:
            raise InputError("generating function magnitude exceeds 1")
        m = g.size - 1 - i0  # t = -(n/2) dt of an even grid has no partner
        if not np.array_equal(g[i0:], np.conj(g[i0 - m : i0 + 1][::-1])):
            raise NumericalError("generating function is not Hermitian: G(-t) != conj G(t)")


@dataclass(frozen=True, eq=False)
class Lineshape:
    """Normalized emission intensity per eV on a uniform energy grid."""

    energy_ev: np.ndarray
    intensity: np.ndarray
    zpl_ev: float
    gamma_mev: float
    omega_cubed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "energy_ev", _own(self.energy_ev))
        object.__setattr__(self, "intensity", _own(self.intensity))
        e, y = self.energy_ev, self.intensity
        if e.ndim != 1 or e.shape != y.shape or e.size < 2:
            raise DimensionMismatch("energy grid and intensity must be matching 1-d")
        _require_finite(e, "energy_ev")
        _require_finite(y, "intensity")
        if float(np.min(y)) < -1e-9:
            raise InputError(f"intensity dips below -1e-9 ({float(np.min(y)):.3e})")
        integral = float(np.trapezoid(np.clip(y, 0.0, None), e))
        if abs(integral - 1.0) > 1e-6:
            raise InputError(f"intensity integral {integral!r} is not 1 within 1e-6")


@dataclass(frozen=True)
class LineshapeConfig:
    """Knobs for the emission-lineshape evaluation."""

    zpl_ev: float
    gamma_mev: float = 1.0
    sigma_mev: float = 2.0
    window_ev: Optional[Tuple[float, float]] = None
    step_mev: float = 0.1
    omega_cubed: bool = True

    def __post_init__(self):
        if self.gamma_mev <= 0:
            raise NonPositiveGamma(f"gamma must be positive, got {self.gamma_mev}")
        if self.zpl_ev <= 0:
            raise InputError(f"zpl must be positive, got {self.zpl_ev}")
        if self.sigma_mev <= 0:
            raise InputError(f"sigma must be positive, got {self.sigma_mev}")
        if self.step_mev <= 0:
            raise InputError(f"step must be positive, got {self.step_mev}")
        if self.window_ev is not None:
            lo, hi = self.window_ev
            if not (lo < hi):
                raise InputError(f"window must satisfy lo < hi, got {self.window_ev}")


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

    def __post_init__(self):
        object.__setattr__(self, "stoichiometry", dict(self.stoichiometry))
        if not math.isfinite(self.total_energy_ev):
            raise NonFiniteValue(f"total_energy_ev of {self.label!r} is not finite")
        if isinstance(self.correction, str):
            if self.correction != "analytic":
                raise InputError(
                    f"correction must be a number or 'analytic', got {self.correction!r}"
                )
        elif not math.isfinite(float(self.correction)):
            raise NonFiniteValue(f"correction of {self.label!r} is not finite")
        if self.charge != int(self.charge):
            raise InputError("charge must be an integer")
        object.__setattr__(self, "charge", int(self.charge))


@dataclass(frozen=True)
class HostReference:
    """Pristine-host energies and reservoir data shared by all entries.

    dielectric_constant and cell_volume_a3 are only needed when some
    entry requests the analytic charge correction.
    """

    host_energy_ev: float
    vbm_ev: float
    gap_ev: float
    chemical_potentials: Mapping[str, ChemicalPotential] = field(default_factory=dict)
    dielectric_constant: Optional[float] = None
    cell_volume_a3: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "chemical_potentials", dict(self.chemical_potentials))
        if self.gap_ev <= 0:
            raise InputError(f"gap must be positive, got {self.gap_ev}")


@dataclass(frozen=True)
class FormationLine:
    """E_f(E_Fermi) = intercept + charge * E_Fermi for one charge state."""

    label: str
    charge: int
    intercept_ev: float

    def energy(self, e_fermi_ev):
        return self.intercept_ev + self.charge * np.asarray(e_fermi_ev, dtype=float)


@dataclass(frozen=True)
class Transition:
    """Fermi level (eV above VBM) where charges q and q2 swap stability."""

    q: int
    q2: int
    fermi_ev: float


@dataclass(frozen=True, eq=False)
class AsrReport:
    pre_norms_mev: np.ndarray
    post_norms_mev: np.ndarray
    applied: bool

    def __post_init__(self):
        object.__setattr__(self, "pre_norms_mev", _own(self.pre_norms_mev))
        object.__setattr__(self, "post_norms_mev", _own(self.post_norms_mev))
        if self.pre_norms_mev.shape != (3,) or self.post_norms_mev.shape != (3,):
            raise DimensionMismatch("translational norms must be 3-vectors")
        if np.any(self.post_norms_mev > self.pre_norms_mev + 1e-30):
            raise InputError("post-ASR norms must not exceed pre-ASR norms")


@dataclass(frozen=True)
class Manifest:
    schema_version: str
    inputs: Tuple[Tuple[str, str], ...]  # (path, sha256)
    tool_version: str
    command_line: str
    timestamp_utc: str
