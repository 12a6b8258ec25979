"""Parsers and writers for every interchange document.

Native formats are self-describing JSON documents (schema field per type)
plus tab-separated tables for plot-ready output.  Energies are always eV,
phonon energies meV, positions A, masses amu; there are no unit fields and
no auto-detection.  Numeric fields survive a write/read cycle bit-exactly.
Semantic parse errors carry a JSON-pointer locus, syntax errors a
line/column locus.  File writes go through a temp file and an atomic
rename; existing files are only replaced when overwrite is set.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, NonFiniteValue, ParseError
from .model import (
    ChemicalPotential,
    CrystalStructure,
    DefectEntry,
    ForceDelta,
    GeometryPair,
    Hessian,
    HostReference,
    HRDecomposition,
    PhononBasis,
    _require_finite,
    structure_checksum,
    sum_sk,
)
from .units import ATOMIC_MASS_AMU

SCHEMAS = {
    "structure": "structure/1",
    "hessian": "hessian/1",
    "geometry_pair": "geometry_pair/1",
    "force_delta": "force_delta/1",
    "phonon_basis": "phonon_basis/2",
    "hr": "hr/1",
    "defects": "defects/1",
    "dissociation": "dissociation/1",
    "manifest": "manifest/2",
}


# ---------------------------------------------------------------- loading

def _no_dup_pairs(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise InputError(f"duplicate key {key!r} in document")
        seen[key] = value
    return seen


def _reject_constant(token):
    raise ParseError(f"non-finite literal {token!r} not allowed")


def loads_strict(text: str, source: str = "<string>"):
    try:
        return json.loads(
            text, object_pairs_hook=_no_dup_pairs, parse_constant=_reject_constant
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: {exc.msg}", locus=f"line {exc.lineno}, column {exc.colno}"
        ) from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{source}: {exc}") from None


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    return loads_strict(text, source=str(path))


# ------------------------------------------------------------- doc access

def _expect_schema(doc, kind):
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object for a {kind} document", locus="/")
    got = doc.get("schema")
    if got != SCHEMAS[kind]:
        raise ParseError(
            f"expected schema {SCHEMAS[kind]!r}, got {got!r}", locus="/schema"
        )


def _field(doc, key, path=""):
    if key not in doc:
        raise ParseError(f"missing field {key!r}", locus=f"{path}/{key}")
    return doc[key]


def _number(value, locus):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", locus=locus)
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise NonFiniteValue(f"non-finite number at {locus}", locus=locus)
    return out


def _integer(value, locus):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", locus=locus)
    _number(value, locus)  # an integer past the float range is refused too
    return value


def _label(value, locus):
    """A table label: a non-empty string, one TSV field of one row (no tab,
    CR or LF) that is not read back as a comment (no leading '#')."""
    if not isinstance(value, str) or value[:1] in ("", "#") or set(value) & set("\t\r\n"):
        raise ParseError(
            f"label must be a non-empty string without tab, CR or LF, not starting "
            f"with '#', got {value!r}",
            locus=locus,
        )
    return value


_NUMBER_TYPES = frozenset((float, int))  # exact types: bool is not a number here


def _matrix(value, rows, cols, locus):
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"expected {rows} rows", locus=locus)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"expected {cols} numbers per row", locus=f"{locus}/{i}")
    if _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(value))):
        try:
            out = np.array(value, dtype=float).reshape(rows, cols)
        except OverflowError:  # an integer past the float range
            pass
        else:
            if np.isfinite(out).all():
                return out
    # failure path: the element loop names the first offending entry
    out = np.empty((rows, cols))
    for i, row in enumerate(value):
        for j, x in enumerate(row):
            out[i, j] = _number(x, f"{locus}/{i}/{j}")
    return out


def _binary_matrix(value, rows, cols, locus):
    """A row-major little-endian float64 block: dtype, shape and base64."""
    if not isinstance(value, dict):
        raise ParseError("expected an object with dtype, shape and base64", locus=locus)
    dtype = _field(value, "dtype", locus)
    if dtype != "<f8":
        raise ParseError(f"dtype must be '<f8', got {dtype!r}", locus=f"{locus}/dtype")
    shape = _field(value, "shape", locus)
    if shape != [rows, cols] or not all(type(n) is int for n in shape):
        raise ParseError(f"shape must be [{rows}, {cols}], got {shape!r}", locus=f"{locus}/shape")
    text = _field(value, "base64", locus)
    if not isinstance(text, str):
        raise ParseError("base64 must be a string", locus=f"{locus}/base64")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ParseError(f"invalid base64: {exc}", locus=f"{locus}/base64") from None
    if len(raw) != rows * cols * 8:
        raise ParseError(
            f"payload has {len(raw)} bytes, shape needs {rows * cols * 8}",
            locus=f"{locus}/base64",
        )
    return np.frombuffer(raw, dtype="<f8").reshape(rows, cols)


# ------------------------------------------------------------- structure

def parse_structure(doc) -> CrystalStructure:
    _expect_schema(doc, "structure")
    lattice = _matrix(_field(doc, "lattice"), 3, 3, "/lattice")
    if np.linalg.det(lattice) <= 0:
        raise ParseError(
            "lattice determinant must be positive (right-handed cell)", locus="/lattice"
        )
    sites = _field(doc, "sites")
    if not isinstance(sites, list) or not sites:
        raise ParseError("sites must be a non-empty list", locus="/sites")
    species, masses, positions = [], [], []
    for i, site in enumerate(sites):
        locus = f"/sites/{i}"
        if not isinstance(site, dict):
            raise ParseError("site must be an object", locus=locus)
        sp = _field(site, "species", locus)
        if not isinstance(sp, str):
            raise ParseError("species must be a string", locus=f"{locus}/species")
        pos = site.get("position")
        if not isinstance(pos, list) or len(pos) != 3:
            raise ParseError("position must be 3 numbers", locus=f"{locus}/position")
        if "mass" in site:
            mass = _number(site["mass"], f"{locus}/mass")
            if mass <= 0:
                raise ParseError(f"mass must be positive, got {mass!r}", locus=f"{locus}/mass")
        elif sp in ATOMIC_MASS_AMU:
            mass = ATOMIC_MASS_AMU[sp]
        else:
            raise InputError(
                f"species {sp!r} has no built-in mass; give one explicitly "
                f"(sites/{i})"
            )
        species.append(sp)
        masses.append(mass)
        positions.append([_number(x, f"{locus}/position/{j}") for j, x in enumerate(pos)])
    return CrystalStructure(lattice, tuple(species), masses, positions)


def write_structure(structure: CrystalStructure, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["structure"],
        "lattice": structure.lattice.tolist(),
        "sites": [
            {
                "species": sp,
                "mass": float(m),
                "position": pos,
            }
            for sp, m, pos in zip(
                structure.species, structure.masses, structure.positions.tolist()
            )
        ],
    }
    _write_json(doc, path, overwrite)


# --------------------------------------------------------------- hessian

#: Largest Hessian dimension 3N read (2048 atoms).  `modes --asr` peaks at
#: 7.6 times the 8 * (3N)^2 bytes of the matrix at 3N = 1536 (144 MB) and
#: 6.5 times at 3N = 3000 (465 MB); the ratio falls as 3N grows, so this
#: bounds a call at about 2.3 GB.
MAX_HESSIAN_DIM = 6144


def load_hessian(path, structure: CrystalStructure) -> Hessian:
    """The hessian/1 document at path, for structure.  3N above
    MAX_HESSIAN_DIM is refused before the file is opened."""
    n3 = 3 * structure.natoms
    if n3 > MAX_HESSIAN_DIM:
        raise InputError(
            f"hessian dimension 3N = {n3} exceeds the limit MAX_HESSIAN_DIM = "
            f"{MAX_HESSIAN_DIM} ({MAX_HESSIAN_DIM // 3} atoms)"
        )
    return parse_hessian(load_document(path), structure)


def parse_hessian(doc, structure: CrystalStructure) -> Hessian:
    """A parsed hessian/1 document; load_hessian applies the size limit."""
    _expect_schema(doc, "hessian")
    n3 = 3 * structure.natoms
    if "matrix" in doc and "triplets" in doc:
        raise ParseError("give either matrix or triplets, not both", locus="/")
    if "matrix" in doc:
        mat = doc["matrix"]
        if not isinstance(mat, list):
            raise ParseError("matrix must be a list of rows", locus="/matrix")
        if len(mat) != n3:
            raise InputError(
                f"matrix has {len(mat)} rows, structure requires {n3}"
            )
        matrix = _matrix(mat, n3, n3, "/matrix")
    elif "triplets" in doc:
        dim = _integer(_field(doc, "dim"), "/dim")
        if dim != n3:
            raise InputError(f"dim {dim} does not match 3N = {n3}")
        matrix = np.zeros((n3, n3))
        seen = set()
        trip = doc["triplets"]
        if not isinstance(trip, list):
            raise ParseError("triplets must be a list", locus="/triplets")
        for k, row in enumerate(trip):
            locus = f"/triplets/{k}"
            if not isinstance(row, list) or len(row) != 3:
                raise ParseError("triplet must be [i, j, value]", locus=locus)
            i = _integer(row[0], f"{locus}/0")
            j = _integer(row[1], f"{locus}/1")
            if not (0 <= i < n3 and 0 <= j < n3):
                raise ParseError(f"index ({i},{j}) outside 0..{n3 - 1}", locus=locus)
            if (i, j) in seen:
                raise InputError(f"duplicate triplet entry ({i},{j})")
            seen.add((i, j))
            matrix[i, j] = _number(row[2], f"{locus}/2")
    else:
        raise ParseError("hessian needs a matrix or triplets field", locus="/")
    expect = structure_checksum(structure)
    if "structure_hash" in doc and doc["structure_hash"]:
        if doc["structure_hash"] != expect:
            raise InputError(
                "hessian document was bound to a different structure"
            )
    return Hessian(matrix, expect)


def write_hessian(hessian: Hessian, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["hessian"],
        "structure_hash": hessian.structure_hash,
        "matrix": hessian.matrix.tolist(),
    }
    _write_json(doc, path, overwrite)


# --------------------------------------------------- geometries and forces

def parse_geometry_pair(doc, structure: CrystalStructure) -> GeometryPair:
    _expect_schema(doc, "geometry_pair")
    n = structure.natoms
    for key in ("ground", "excited"):
        val = _field(doc, key)
        if not isinstance(val, list) or len(val) != n:
            raise InputError(
                f"{key} has {len(val) if isinstance(val, list) else '?'} atoms, "
                f"structure has {n}"
            )
    ground = _matrix(doc["ground"], n, 3, "/ground")
    excited = _matrix(doc["excited"], n, 3, "/excited")
    if "species" in doc:
        sp = doc["species"]
        if not isinstance(sp, list) or len(sp) != n:
            raise InputError(f"species list must have {n} entries")
        for i, (a, b) in enumerate(zip(sp, structure.species)):
            if a != b:
                raise InputError(
                    f"species[{i}]: document has {a!r}, structure has {b!r}"
                )
    return GeometryPair(ground, excited, structure.species)


def write_geometry_pair(pair: GeometryPair, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["geometry_pair"],
        "ground": pair.ground.tolist(),
        "excited": pair.excited.tolist(),
    }
    if pair.species is not None:
        doc["species"] = list(pair.species)
    _write_json(doc, path, overwrite)


def parse_force_delta(doc, structure: CrystalStructure) -> ForceDelta:
    _expect_schema(doc, "force_delta")
    n = structure.natoms
    values = _field(doc, "values")
    if not isinstance(values, list) or len(values) != n:
        raise InputError(
            f"values has {len(values) if isinstance(values, list) else '?'} rows, "
            f"structure has {n} atoms"
        )
    return ForceDelta(_matrix(values, n, 3, "/values").reshape(-1))


def write_force_delta(delta: ForceDelta, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["force_delta"],
        "values": delta.values.reshape(-1, 3).tolist(),
    }
    _write_json(doc, path, overwrite)


# ---------------------------------------------------------- phonon basis

#: Every entry of V V^T - I of a basis read must lie below this in magnitude.
ORTHONORMALITY_TOL = 1e-8
#: Bytes of vectors the basis writer base64-encodes at a time.
_B64_BLOCK = 1 << 20


def _check_orthonormal(vectors):
    gram = vectors @ vectors.T
    gram[np.diag_indices_from(gram)] -= 1.0
    dev = float(np.max(np.abs(gram, out=gram)))
    if dev >= ORTHONORMALITY_TOL:
        raise InputError(f"mode vectors not orthonormal (max deviation {dev:.3e})")


def parse_phonon_basis(doc) -> PhononBasis:
    """Read `phonon_basis/2`: finite omegas and vectors, the vectors' rows
    orthonormal, and a provenance that is an object when given."""
    _expect_schema(doc, "phonon_basis")
    omegas = _field(doc, "omegas_mev")
    if not isinstance(omegas, list) or not omegas:
        raise ParseError("omegas_mev must be a non-empty list", locus="/omegas_mev")
    nm = len(omegas)
    w = np.array([_number(x, f"/omegas_mev/{i}") for i, x in enumerate(omegas)])
    vectors = _binary_matrix(_field(doc, "vectors"), nm, nm, "/vectors")
    if not isinstance(doc.get("provenance", {}), dict):
        raise ParseError("provenance must be an object", locus="/provenance")
    _require_finite(vectors, "vectors")
    _check_orthonormal(vectors)
    return PhononBasis(w, vectors)


def write_phonon_basis(
    basis: PhononBasis, path, provenance: Optional[dict] = None, overwrite=False
):
    _check_target(path, overwrite)
    vectors = basis.vectors
    doc = {
        "schema": SCHEMAS["phonon_basis"],
        "omegas_mev": basis.omegas_mev.tolist(),
        "vectors": {"dtype": "<f8", "shape": list(vectors.shape), "base64": ""},
        "provenance": provenance or {},
    }
    # base64 needs no JSON escapes, so the payload skips the encoder's scan:
    # it is spliced in at the vectors' empty base64 field, the first in the
    # text because provenance comes after the vectors.  Blocks of 3k rows
    # are whole 3-byte groups, which base64 encodes without padding, so they
    # join to the encoding of the row-major payload with no contiguous copy
    # of the vectors (diagonalize leaves them transposed)
    rows = 3 * max(1, _B64_BLOCK // (24 * vectors.shape[1]))
    payload = (
        base64.b64encode(np.ascontiguousarray(vectors[s : s + rows], dtype="<f8"))
        for s in range(0, vectors.shape[0], rows)
    )
    head, tail = _dumps(doc, path).encode("ascii").split(b'"base64":""', 1)
    _atomic_write(itertools.chain((head, b'"base64":"'), payload, (b'"', tail, b"\n")), path)


# ------------------------------------------------------------------- HR

def parse_hr(doc) -> HRDecomposition:
    """Read `hr/1`: finite numbers, omegas non-negative and ascending, sk
    non-negative and summing to total within 1e-12 (NonFiniteValue when
    the sum passes the float range)."""
    _expect_schema(doc, "hr")
    entries = _field(doc, "entries")
    if not isinstance(entries, list):
        raise ParseError("entries must be a list", locus="/entries")
    omegas, qk, sk = [], [], []
    for i, entry in enumerate(entries):
        locus = f"/entries/{i}"
        if not isinstance(entry, dict):
            raise ParseError("entry must be an object", locus=locus)
        omega = _number(_field(entry, "omega_mev", locus), f"{locus}/omega_mev")
        if omega < 0:
            # lumiphon hr writes none: partial_hr clamps imaginary modes to 0
            raise ParseError(
                f"mode energy must not be negative, got {omega!r}", locus=f"{locus}/omega_mev"
            )
        if omegas and omega < omegas[-1]:
            raise ParseError(
                f"entries must be ascending in omega_mev, got {omega!r} after {omegas[-1]!r}",
                locus=f"{locus}/omega_mev",
            )
        omegas.append(omega)
        qk.append(_number(_field(entry, "qk", locus), f"{locus}/qk"))
        s = _number(_field(entry, "sk", locus), f"{locus}/sk")
        if s < 0:
            raise ParseError(f"sk must not be negative, got {s!r}", locus=f"{locus}/sk")
        sk.append(s)
    total = _number(_field(doc, "total"), "/total")
    sk = np.array(sk)
    tot = sum_sk(sk)
    if abs(tot - total) > 1e-12 * max(1.0, abs(tot)):
        raise ParseError(f"total {total!r} does not match the sum of sk {tot!r}", locus="/total")
    return HRDecomposition(np.array(omegas), np.array(qk), sk, total)


def write_hr(hr: HRDecomposition, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["hr"],
        "total": float(hr.total),
        "entries": [
            {"omega_mev": w, "qk": q, "sk": s}
            for w, q, s in zip(hr.omegas_mev.tolist(), hr.qk.tolist(), hr.sk.tolist())
        ],
    }
    _write_json(doc, path, overwrite)


# ---------------------------------------------------------------- defects

def parse_defect_table(doc) -> Tuple[HostReference, List[DefectEntry]]:
    _expect_schema(doc, "defects")
    hostdoc = _field(doc, "host")
    if not isinstance(hostdoc, dict):
        raise ParseError("host must be an object", locus="/host")
    blocks = hostdoc.get("chemical_potentials", {})
    if not isinstance(blocks, dict):
        raise ParseError(
            "chemical_potentials must be an object", locus="/host/chemical_potentials"
        )
    potentials = {}
    for sp, block in blocks.items():
        locus = f"/host/chemical_potentials/{sp}"
        if not isinstance(block, dict):
            raise ParseError("chemical potential must be an object", locus=locus)
        potentials[sp] = ChemicalPotential(
            _number(_field(block, "reference_energy_ev", locus), f"{locus}/reference_energy_ev"),
            _number(_field(block, "delta_ev", locus), f"{locus}/delta_ev"),
        )
    gap = _number(_field(hostdoc, "gap_ev", "/host"), "/host/gap_ev")
    if not gap > 0:
        raise ParseError(f"gap must be positive, got {gap!r}", locus="/host/gap_ev")
    # the analytic correction's inputs: eps > 1 and V > 0, each when given
    optional = {}
    for key, least, rule in (
        ("dielectric_constant", 1.0, "must exceed 1"),
        ("cell_volume_a3", 0.0, "must be positive"),
    ):
        if key in hostdoc:
            value = _number(hostdoc[key], f"/host/{key}")
            if not value > least:
                raise ParseError(f"{key} {rule}, got {value!r}", locus=f"/host/{key}")
            optional[key] = value
    host = HostReference(
        host_energy_ev=_number(_field(hostdoc, "host_energy_ev", "/host"), "/host/host_energy_ev"),
        vbm_ev=_number(_field(hostdoc, "vbm_ev", "/host"), "/host/vbm_ev"),
        gap_ev=gap,
        chemical_potentials=potentials,
        **optional,
    )
    rows = _field(doc, "entries")
    if not isinstance(rows, list) or not rows:
        raise ParseError("entries must be a non-empty list", locus="/entries")
    entries, seen = [], set()
    for i, row in enumerate(rows):
        locus = f"/entries/{i}"
        if not isinstance(row, dict):
            raise ParseError("entry must be an object", locus=locus)
        label = _label(_field(row, "label", locus), f"{locus}/label")
        charge = _integer(_field(row, "charge", locus), f"{locus}/charge")
        if (label, charge) in seen:
            raise InputError(f"duplicate defect entry ({label!r}, q={charge})")
        seen.add((label, charge))
        corr = row.get("correction_ev", 0.0)
        if corr != "analytic":
            corr = _number(corr, f"{locus}/correction_ev")
        elif len(optional) < 2:
            raise ParseError(
                "the analytic correction needs dielectric_constant and cell_volume_a3 "
                "on the host",
                locus=f"{locus}/correction_ev",
            )
        stoi = row.get("stoichiometry", {})
        if not isinstance(stoi, dict):
            raise ParseError("stoichiometry must be an object", locus=f"{locus}/stoichiometry")
        for sp, n in stoi.items():
            _integer(n, f"{locus}/stoichiometry/{sp}")
            if sp not in potentials:
                raise ParseError(
                    f"no chemical potential for species {sp!r} on the host",
                    locus=f"{locus}/stoichiometry/{sp}",
                )
        entries.append(
            DefectEntry(
                label=label,
                charge=charge,
                total_energy_ev=_number(
                    _field(row, "total_energy_ev", locus), f"{locus}/total_energy_ev"
                ),
                stoichiometry=stoi,
                correction=corr,
            )
        )
    return host, entries


def write_defect_table(host: HostReference, entries, path, overwrite=False):
    hostdoc = {
        "host_energy_ev": float(host.host_energy_ev),
        "vbm_ev": float(host.vbm_ev),
        "gap_ev": float(host.gap_ev),
        "chemical_potentials": {
            sp: {
                "reference_energy_ev": float(cp.reference_energy_ev),
                "delta_ev": float(cp.delta_ev),
            }
            for sp, cp in sorted(host.chemical_potentials.items())
        },
    }
    if host.dielectric_constant is not None:
        hostdoc["dielectric_constant"] = float(host.dielectric_constant)
    if host.cell_volume_a3 is not None:
        hostdoc["cell_volume_a3"] = float(host.cell_volume_a3)
    doc = {
        "schema": SCHEMAS["defects"],
        "host": hostdoc,
        "entries": [
            {
                "label": e.label,
                "charge": int(e.charge),
                "total_energy_ev": float(e.total_energy_ev),
                "stoichiometry": {sp: int(n) for sp, n in sorted(e.stoichiometry.items())},
                "correction_ev": e.correction
                if isinstance(e.correction, str)
                else float(e.correction),
            }
            for e in entries
        ],
    }
    _write_json(doc, path, overwrite)


# ------------------------------------------------------------ dissociation

def parse_dissociation_table(doc) -> List[dict]:
    _expect_schema(doc, "dissociation")
    rows = _field(doc, "entries")
    if not isinstance(rows, list) or not rows:
        raise ParseError("entries must be a non-empty list", locus="/entries")
    out, seen = [], set()
    for i, row in enumerate(rows):
        locus = f"/entries/{i}"
        if not isinstance(row, dict):
            raise ParseError("entry must be an object", locus=locus)
        label = _label(_field(row, "label", locus), f"{locus}/label")
        if label in seen:
            raise InputError(f"duplicate dissociation entry {label!r}")
        seen.add(label)
        out.append(
            {
                "label": label,
                "cluster_energy_ev": _number(
                    _field(row, "cluster_energy_ev", locus), f"{locus}/cluster_energy_ev"
                ),
                "fragment_energy_ev": _number(
                    _field(row, "fragment_energy_ev", locus), f"{locus}/fragment_energy_ev"
                ),
                "released_energy_ev": _number(
                    _field(row, "released_energy_ev", locus), f"{locus}/released_energy_ev"
                ),
            }
        )
    return out


def write_dissociation_table(rows, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["dissociation"],
        "entries": [
            {
                "label": r["label"],
                "cluster_energy_ev": float(r["cluster_energy_ev"]),
                "fragment_energy_ev": float(r["fragment_energy_ev"]),
                "released_energy_ev": float(r["released_energy_ev"]),
            }
            for r in rows
        ],
    }
    _write_json(doc, path, overwrite)


# ---------------------------------------------------------------- manifest

def sha256_file(path) -> str:
    import hashlib

    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    return h.hexdigest()


def input_checksums(paths) -> list:
    """The {"path", "sha256"} entry of every input path, in order."""
    return [{"path": str(p), "sha256": sha256_file(p)} for p in paths]


def write_manifest(inputs, tool_version, command_line, path, overwrite=False):
    """manifest/2: the input_checksums list of a run, the version that ran
    and its command line."""
    doc = {
        "schema": SCHEMAS["manifest"],
        "inputs": inputs,
        "tool_version": tool_version,
        "command_line": command_line,
    }
    _write_json(doc, path, overwrite)


# ------------------------------------------------------------- TSV output

#: Rows per format call of write_table_tsv: the text it holds is one block,
#: whatever the length of the table.
TSV_BLOCK_ROWS = 1 << 16


def write_table_tsv(path, header_lines: Sequence[str], col_names: Sequence[str], columns, overwrite=False):
    """Deterministic TSV from equal-length columns (no columns, no rows): a
    '# ' line per header line, a '# columns:' line, then one tab-separated row
    per index, LF endings.  Each column's dtype picks its conversion: floats print
    as %.9g (-0.0 as 0), booleans as true/false, anything else as str prints
    it; a list of Python ints stays whole, where numpy reads [1, 2**63] as
    floats.  A non-finite float is refused before any file is created."""
    _check_target(path, overwrite)
    columns = [
        np.array(c, dtype=object) if all(type(v) is int for v in c) else np.asarray(c)
        for c in columns
    ]
    if any(c.dtype.kind == "f" and not np.isfinite(c).all() for c in columns):
        raise NonFiniteValue("refusing to write a non-finite value")
    line = "\t".join("%.9g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    head = "".join(f"# {h}\n" for h in [*header_lines, "columns: " + "\t".join(col_names)])

    def chunks():
        yield head.encode("utf-8")
        for start in range(0, len(columns[0]) if columns else 0, TSV_BLOCK_ROWS):
            cells = []
            for c in columns:
                block = c[start : start + TSV_BLOCK_ROWS]
                if c.dtype.kind == "b":
                    block = np.where(block, "true", "false")
                elif c.dtype.kind == "f":
                    block = block + 0.0  # normalizes -0.0
                cells.append(block.tolist())
            values = tuple(itertools.chain.from_iterable(zip(*cells)))
            yield ((line * len(cells[0])) % values).encode("utf-8")

    _atomic_write(chunks(), path)


def write_spectrum_tsv(path, energy_ev, intensity, header_lines=(), overwrite=False):
    """The spectrum table: energy and intensity columns."""
    columns = (energy_ev, intensity)
    write_table_tsv(path, header_lines, ("energy_ev", "intensity_per_ev"), columns, overwrite)


def write_stem_tsv(path, hr: HRDecomposition, header_lines=(), overwrite=False):
    """Partial-HR stem data: mode energy, S_k, running cumulative sum."""
    columns = (hr.omegas_mev, hr.sk, np.cumsum(hr.sk))
    write_table_tsv(path, header_lines, ("omega_mev", "sk", "cumulative"), columns, overwrite)


def read_spectrum_tsv(path):
    """Read back a two-column spectrum written by write_spectrum_tsv."""
    energies, intensities = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError(
                        f"{path}: expected 2 columns", locus=f"line {ln}"
                    )
                try:
                    energy, intensity = float(parts[0]), float(parts[1])
                except ValueError:
                    raise ParseError(
                        f"{path}: not a number", locus=f"line {ln}"
                    ) from None
                if not (math.isfinite(energy) and math.isfinite(intensity)):
                    raise NonFiniteValue(
                        f"{path}: non-finite number at line {ln}", locus=f"line {ln}"
                    )
                energies.append(energy)
                intensities.append(intensity)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    return np.array(energies), np.array(intensities)


# ------------------------------------------------------------ file plumbing

def _check_target(path, overwrite):
    if os.path.exists(path) and not overwrite:
        raise InputError(f"{path} exists; pass overwrite to replace it")


def _atomic_write(chunks, path):
    """Write the byte strings of the iterable `chunks` to `path` through a
    temp file and a rename; on any failure the temp file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:  # mkstemp fails on a missing or unwritable directory
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:  # a chunk can fail while it is made
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        raise


def _dumps(doc, path) -> str:
    """One-line JSON through json's C encoder; a NaN or infinity is refused."""
    try:
        return json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue(f"refusing to write {path}: {exc}") from None


def _write_json(doc, path, overwrite):
    _check_target(path, overwrite)
    _atomic_write([_dumps(doc, path).encode("ascii"), b"\n"], path)
