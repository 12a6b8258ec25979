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

from .errors import (
    DimensionMismatch,
    DuplicateEntry,
    HashMismatch,
    InputError,
    IoFailure,
    NonFiniteValue,
    ParseError,
    SpeciesMismatch,
    UnknownSpecies,
)
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
            raise DuplicateEntry(f"duplicate key {key!r} in document")
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
        raise IoFailure(f"cannot read {path}: {exc.strerror}") from None
    return loads_strict(text, source=str(path))


# ------------------------------------------------------------- doc access

def _expect_schema(doc, kind, older=()):
    """Check the schema field; `older` lists earlier versions still read."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object for a {kind} document", locus="/")
    got = doc.get("schema")
    if got != SCHEMAS[kind] and got not in older:
        raise ParseError(
            f"expected schema {SCHEMAS[kind]!r}, got {got!r}", locus="/schema"
        )
    return got


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
        elif sp in ATOMIC_MASS_AMU:
            mass = ATOMIC_MASS_AMU[sp]
        else:
            raise UnknownSpecies(
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
#: about 8.6 times the 8 * (3N)^2 bytes of the matrix (162 MB at 3N = 1536),
#: so this bounds a call at about 2.6 GB.
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
            raise DimensionMismatch(
                f"matrix has {len(mat)} rows, structure requires {n3}"
            )
        matrix = _matrix(mat, n3, n3, "/matrix")
    elif "triplets" in doc:
        dim = _integer(_field(doc, "dim"), "/dim")
        if dim != n3:
            raise DimensionMismatch(f"dim {dim} does not match 3N = {n3}")
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
                raise DuplicateEntry(f"duplicate triplet entry ({i},{j})")
            seen.add((i, j))
            matrix[i, j] = _number(row[2], f"{locus}/2")
    else:
        raise ParseError("hessian needs a matrix or triplets field", locus="/")
    expect = structure_checksum(structure)
    if "structure_hash" in doc and doc["structure_hash"]:
        if doc["structure_hash"] != expect:
            raise HashMismatch(
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
            raise DimensionMismatch(
                f"{key} has {len(val) if isinstance(val, list) else '?'} atoms, "
                f"structure has {n}"
            )
    ground = _matrix(doc["ground"], n, 3, "/ground")
    excited = _matrix(doc["excited"], n, 3, "/excited")
    if "species" in doc:
        sp = doc["species"]
        if not isinstance(sp, list) or len(sp) != n:
            raise DimensionMismatch(f"species list must have {n} entries")
        for i, (a, b) in enumerate(zip(sp, structure.species)):
            if a != b:
                raise SpeciesMismatch(
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
        raise DimensionMismatch(
            f"values has {len(values) if isinstance(values, list) else '?'} rows, "
            f"structure has {n} atoms"
        )
    return ForceDelta(_matrix(values, n, 3, "/values"))


def write_force_delta(delta: ForceDelta, path, overwrite=False):
    doc = {
        "schema": SCHEMAS["force_delta"],
        "values": delta.values.reshape(-1, 3).tolist(),
    }
    _write_json(doc, path, overwrite)


# ---------------------------------------------------------- phonon basis

#: Every entry of V V^T - I of a basis read must lie below this in magnitude.
ORTHONORMALITY_TOL = 1e-8


def _check_orthonormal(vectors):
    gram = vectors @ vectors.T
    gram[np.diag_indices_from(gram)] -= 1.0
    dev = float(np.max(np.abs(gram, out=gram)))
    if dev >= ORTHONORMALITY_TOL:
        raise InputError(f"mode vectors not orthonormal (max deviation {dev:.3e})")


def parse_phonon_basis(doc) -> Tuple[PhononBasis, dict]:
    """Read `phonon_basis/2`, or the older `phonon_basis/1` with inline
    vectors: finite omegas and vectors, the vectors' rows orthonormal."""
    schema = _expect_schema(doc, "phonon_basis", older=("phonon_basis/1",))
    omegas = _field(doc, "omegas_mev")
    if not isinstance(omegas, list) or not omegas:
        raise ParseError("omegas_mev must be a non-empty list", locus="/omegas_mev")
    nm = len(omegas)
    w = np.array([_number(x, f"/omegas_mev/{i}") for i, x in enumerate(omegas)])
    read = _matrix if schema == "phonon_basis/1" else _binary_matrix
    vectors = read(_field(doc, "vectors"), nm, nm, "/vectors")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ParseError("provenance must be an object", locus="/provenance")
    if read is _binary_matrix:  # _matrix has refused a non-finite entry
        _require_finite(vectors, "vectors")
    _check_orthonormal(vectors)
    return PhononBasis(w, vectors), provenance


def write_phonon_basis(
    basis: PhononBasis, path, provenance: Optional[dict] = None, overwrite=False
):
    _check_target(path, overwrite)
    vectors = np.ascontiguousarray(basis.vectors, dtype="<f8")
    doc = {
        "schema": SCHEMAS["phonon_basis"],
        "omegas_mev": basis.omegas_mev.tolist(),
        "vectors": {"dtype": "<f8", "shape": list(vectors.shape), "base64": ""},
        "provenance": provenance or {},
    }
    # base64 needs no JSON escapes, so the payload skips the encoder's scan:
    # it is spliced in at the vectors' empty base64 field, the first in the
    # text because provenance comes after the vectors
    head, tail = _dumps(doc, path).encode("ascii").split(b'"base64":""', 1)
    _atomic_write([head, b'"base64":"', base64.b64encode(vectors), b'"', tail, b"\n"], path)


# ------------------------------------------------------------------- HR

def parse_hr(doc) -> HRDecomposition:
    _expect_schema(doc, "hr")
    entries = _field(doc, "entries")
    if not isinstance(entries, list):
        raise ParseError("entries must be a list", locus="/entries")
    omegas, qk, sk = [], [], []
    for i, entry in enumerate(entries):
        locus = f"/entries/{i}"
        if not isinstance(entry, dict):
            raise ParseError("entry must be an object", locus=locus)
        omegas.append(_number(_field(entry, "omega_mev", locus), f"{locus}/omega_mev"))
        qk.append(_number(_field(entry, "qk", locus), f"{locus}/qk"))
        sk.append(_number(_field(entry, "sk", locus), f"{locus}/sk"))
    total = _number(_field(doc, "total"), "/total")
    return HRDecomposition(np.array(omegas), np.array(qk), np.array(sk), total)


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
    host = HostReference(
        host_energy_ev=_number(_field(hostdoc, "host_energy_ev", "/host"), "/host/host_energy_ev"),
        vbm_ev=_number(_field(hostdoc, "vbm_ev", "/host"), "/host/vbm_ev"),
        gap_ev=_number(_field(hostdoc, "gap_ev", "/host"), "/host/gap_ev"),
        chemical_potentials=potentials,
        dielectric_constant=(
            _number(hostdoc["dielectric_constant"], "/host/dielectric_constant")
            if "dielectric_constant" in hostdoc
            else None
        ),
        cell_volume_a3=(
            _number(hostdoc["cell_volume_a3"], "/host/cell_volume_a3")
            if "cell_volume_a3" in hostdoc
            else None
        ),
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
            raise DuplicateEntry(f"duplicate defect entry ({label!r}, q={charge})")
        seen.add((label, charge))
        corr = row.get("correction_ev", 0.0)
        if corr != "analytic":
            corr = _number(corr, f"{locus}/correction_ev")
        stoi = row.get("stoichiometry", {})
        if not isinstance(stoi, dict):
            raise ParseError("stoichiometry must be an object", locus=f"{locus}/stoichiometry")
        stoi = {
            sp: _integer(n, f"{locus}/stoichiometry/{sp}") for sp, n in stoi.items()
        }
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
            raise DuplicateEntry(f"duplicate dissociation entry {label!r}")
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
        raise IoFailure(f"cannot read {path}: {exc.strerror}") from None
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

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        raise NonFiniteValue("refusing to write a non-finite value")
    return "%.9g" % (v + 0.0)  # normalizes -0.0


def _write_tsv(path, header_lines, col_names, body: str, overwrite):
    head = [f"# {h}" for h in header_lines]
    head.append("# columns: " + "\t".join(col_names))
    _write_text("\n".join(head) + "\n" + body, path, overwrite)


def write_table_tsv(path, header_lines: Sequence[str], col_names: Sequence[str], rows, overwrite=False):
    """Deterministic TSV: '#' headers, 9 significant digits, LF endings."""
    body = "".join("\t".join(_fmt(v) for v in row) + "\n" for row in rows)
    _write_tsv(path, header_lines, col_names, body, overwrite)


def _float_rows(*columns) -> str:
    """write_table_tsv's body for equal-length float columns, in one format call."""
    rows = np.column_stack([np.asarray(c, float) for c in columns])
    if not np.all(np.isfinite(rows)):
        raise NonFiniteValue("refusing to write a non-finite value")
    line = "\t".join(["%.9g"] * len(columns)) + "\n"
    # + 0.0 normalizes -0.0, as _fmt does
    return (line * rows.shape[0]) % tuple((rows + 0.0).ravel().tolist())


def write_spectrum_tsv(path, energy_ev, intensity, header_lines=(), overwrite=False):
    """write_table_tsv's format for two float columns, in one pass."""
    body = _float_rows(energy_ev, intensity)
    _write_tsv(path, header_lines, ("energy_ev", "intensity_per_ev"), body, overwrite)


def write_stem_tsv(path, hr: HRDecomposition, header_lines=(), overwrite=False):
    """Partial-HR stem data: mode energy, S_k, running cumulative sum."""
    body = _float_rows(hr.omegas_mev, hr.sk, np.cumsum(hr.sk))
    _write_tsv(path, header_lines, ("omega_mev", "sk", "cumulative"), body, overwrite)


def tsv_rounding(values):
    """Largest change the tables' %.9g makes to each value: half a unit in
    its ninth significant digit."""
    with np.errstate(divide="ignore"):
        return 0.5 * 10.0 ** (np.floor(np.log10(np.abs(values))) - 8)


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
        raise IoFailure(f"cannot read {path}: {exc.strerror}") from None
    return np.array(energies), np.array(intensities)


# ------------------------------------------------------------ file plumbing

def _check_target(path, overwrite):
    if os.path.exists(path) and not overwrite:
        raise IoFailure(f"{path} exists; pass overwrite to replace it")


def _atomic_write(chunks, path):
    """Write the byte strings `chunks` to `path` through a temp file and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:  # mkstemp fails on a missing or unwritable directory
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise IoFailure(f"cannot write {path}: {exc.strerror}") from None


def _write_text(text: str, path, overwrite):
    _check_target(path, overwrite)
    _atomic_write([text.encode("utf-8")], path)


def _dumps(doc, path) -> str:
    """One-line JSON through json's C encoder; a NaN or infinity is refused."""
    try:
        return json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue(f"refusing to write {path}: {exc}") from None


def _write_json(doc, path, overwrite):
    _check_target(path, overwrite)
    _atomic_write([_dumps(doc, path).encode("ascii"), b"\n"], path)
