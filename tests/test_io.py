import enum
import hashlib
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lumiphon import io as lio
from lumiphon.errors import InputError, NonFiniteValue, ParseError
from lumiphon.model import (
    ChemicalPotential,
    CrystalStructure,
    DefectEntry,
    ForceDelta,
    Hessian,
    HostReference,
    HRDecomposition,
    PhononBasis,
    structure_checksum,
)
from lumiphon.phonons import diagonalize, dynamical_matrix


STRUCTURE_DOC = {
    "schema": "structure/1",
    "lattice": [[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]],
    "sites": [
        {"species": "C", "position": [0.0, 0.0, 0.0]},
        {"species": "Si", "position": [1.5, 0.0, 0.0], "mass": 28.0855},
    ],
}


# ---------------------------------------------------------------- structure

def test_structure_minimal_defaults_mass():
    doc = {
        "schema": "structure/1",
        "lattice": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
        "sites": [{"species": "C", "position": [0, 0, 0]}],
    }
    structure = lio.parse_structure(doc)
    assert structure.masses[0] == 12.011


def test_structure_explicit_mass_overrides():
    doc = {
        "schema": "structure/1",
        "lattice": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
        "sites": [{"species": "C", "position": [0, 0, 0], "mass": 13.003}],
    }
    assert lio.parse_structure(doc).masses[0] == 13.003


def test_structure_malformed_lattice_names_field():
    doc = {
        "schema": "structure/1",
        "lattice": [[1.0, 0, 0], [0, 1.0, 0]],
        "sites": [{"species": "C", "position": [0, 0, 0]}],
    }
    with pytest.raises(ParseError) as err:
        lio.parse_structure(doc)
    assert "lattice" in str(err.value)


def test_structure_unknown_species():
    doc = {
        "schema": "structure/1",
        "lattice": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
        "sites": [{"species": "Xq", "position": [0, 0, 0]}],
    }
    with pytest.raises(InputError, match="has no built-in mass"):
        lio.parse_structure(doc)


def test_structure_schema_checked():
    with pytest.raises(ParseError):
        lio.parse_structure({"schema": "hessian/1"})


# ------------------------------------------------------------------ hessian

def test_hessian_dense_ok():
    structure = lio.parse_structure(STRUCTURE_DOC)
    doc = {"schema": "hessian/1", "matrix": np.eye(6).tolist()}
    hessian = lio.parse_hessian(doc, structure)
    assert np.array_equal(hessian, np.eye(6))
    doc["structure_hash"] = structure_checksum(structure)
    assert np.array_equal(lio.parse_hessian(doc, structure), np.eye(6))


def test_hessian_triplets_duplicate_rejected():
    structure = lio.parse_structure(STRUCTURE_DOC)
    doc = {
        "schema": "hessian/1",
        "dim": 6,
        "triplets": [[0, 1, 0.5], [0, 1, 0.7]],
    }
    with pytest.raises(InputError, match=r"duplicate triplet entry \(0,1\)"):
        lio.parse_hessian(doc, structure)


def _triplets_by_loop(trip, n3):
    """The one-triplet-at-a-time read the vectorized parse must match, in
    its matrix and in its first refusal."""
    matrix = np.zeros((n3, n3))
    seen = set()
    for k, row in enumerate(trip):
        locus = f"/triplets/{k}"
        if not isinstance(row, list) or len(row) != 3:
            raise ParseError("triplet must be [i, j, value]", locus=locus)
        i = lio._integer(row[0], f"{locus}/0")
        j = lio._integer(row[1], f"{locus}/1")
        if not (0 <= i < n3 and 0 <= j < n3):
            raise ParseError(f"index ({i},{j}) outside 0..{n3 - 1}", locus=locus)
        if (i, j) in seen:
            raise InputError(f"duplicate triplet entry ({i},{j})")
        seen.add((i, j))
        matrix[i, j] = lio._number(row[2], f"{locus}/2")
    return matrix


def _outcome(read):
    try:
        return "matrix", _bits(read())
    except InputError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "locus", None)


_BAD_TRIPLETS = [
    "x", [0, 1], [0, 1, 0.5, 0.0], [0.0, 1, 0.5], [0, True, 0.5], [0, "1", 0.5],
    [6, 0, 0.5], [0, -1, 0.5], [2**70, 0, 0.5], [0, -(2**70), 0.5],
    [0, 1, None], [0, 1, False], [0, 1, 10**400], [0, 1, "0.5"],
]


def test_triplets_read_matches_the_element_loop_on_generated_documents():
    structure = lio.parse_structure(STRUCTURE_DOC)
    rng = np.random.default_rng(11)
    for case in range(400):
        count = int(rng.integers(0, 40))
        pairs = rng.integers(0, 6, size=(count, 2)).tolist()
        if case % 2:  # half the documents hold each pair once
            pairs = list(dict.fromkeys(map(tuple, pairs)))
        values = [
            int(v) if k % 3 == 0 else float(v)
            for k, v in enumerate(rng.normal(scale=10.0 ** rng.integers(-300, 300), size=len(pairs)))
        ]
        trip = [[i, j, v] for (i, j), v in zip(pairs, values)]
        if trip and case % 3 == 0:  # one bad entry at a random place
            trip[int(rng.integers(len(trip)))] = _BAD_TRIPLETS[case % len(_BAD_TRIPLETS)]
        doc = {"schema": "hessian/1", "dim": 6, "triplets": trip}
        got = _outcome(lambda: lio.parse_hessian(doc, structure))
        assert got == _outcome(lambda: _triplets_by_loop(trip, 6)), trip


@pytest.mark.parametrize("bad", _BAD_TRIPLETS)
def test_triplets_read_names_each_bad_entry(bad):
    structure = lio.parse_structure(STRUCTURE_DOC)
    trip = [[0, 0, 1.0], bad, [5, 5, 2.0]]
    doc = {"schema": "hessian/1", "dim": 6, "triplets": trip}
    with pytest.raises(InputError) as err:
        lio.parse_hessian(doc, structure)
    with pytest.raises(InputError) as want:
        _triplets_by_loop(trip, 6)
    assert (type(err.value), str(err.value)) == (type(want.value), str(want.value))
    assert err.value.locus == want.value.locus
    assert err.value.locus.startswith("/triplets/1")


def test_triplets_read_names_the_first_repeat_in_document_order():
    structure = lio.parse_structure(STRUCTURE_DOC)
    trip = [[3, 4, 1.0], [0, 1, 1.0], [0, 2, 1.0], [0, 1, 2.0], [3, 4, 2.0]]
    doc = {"schema": "hessian/1", "dim": 6, "triplets": trip}
    with pytest.raises(InputError, match=r"duplicate triplet entry \(0,1\)"):
        lio.parse_hessian(doc, structure)


def test_hessian_asymmetric_accepted():
    structure = lio.parse_structure(STRUCTURE_DOC)
    doc = {"schema": "hessian/1", "dim": 6, "triplets": [[0, 1, 0.5]]}
    hessian = lio.parse_hessian(doc, structure)
    assert not np.array_equal(hessian, hessian.T)


@pytest.mark.parametrize(
    "natoms, doc, error, message",
    [
        (2, {"matrix": np.eye(6).tolist(), "triplets": []}, ParseError,
         r"give either matrix or triplets, not both \[at /\]"),
        (1, {"dim": 6, "triplets": []}, InputError, r"^dim 6 does not match 3N = 3$"),
        (2, {}, ParseError, r"hessian needs a matrix or triplets field \[at /\]"),
        (2, {"dim": 6, "triplets": {}}, ParseError, r"triplets must be a list \[at /triplets\]"),
    ],
    ids=["both", "dim", "neither", "triplets-object"],
)
def test_hessian_layout_refused(natoms, doc, error, message):
    sites = STRUCTURE_DOC["sites"][:natoms]
    structure = lio.parse_structure(dict(STRUCTURE_DOC, sites=sites))
    with pytest.raises(error, match=message):
        lio.parse_hessian({"schema": "hessian/1", **doc}, structure)


def test_hessian_dimension_mismatch():
    structure = lio.parse_structure(STRUCTURE_DOC)
    with pytest.raises(ParseError, match="expected 6 rows, got 9") as err:
        lio.parse_hessian({"schema": "hessian/1", "matrix": np.eye(9).tolist()}, structure)
    assert err.value.locus == "/matrix"


@pytest.mark.parametrize("layout", ["matrix", "triplets"])
def test_hessian_above_size_limit_refused_before_allocating(tmp_path, layout):
    natoms = lio.MAX_HESSIAN_DIM // 3 + 1
    sites = [{"species": "C", "position": [0.1 * i, 0.0, 0.0]} for i in range(natoms)]
    structure = lio.parse_structure(dict(STRUCTURE_DOC, sites=sites))
    doc = {
        "matrix": {"schema": "hessian/1", "matrix": []},
        "triplets": {"schema": "hessian/1", "dim": 3 * natoms, "triplets": []},
    }[layout]
    path = tmp_path / "hessian.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MAX_HESSIAN_DIM = 6144"):
            lio.load_hessian(path, structure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_hessian_allocates_one_matrix():
    # the dense rows become one array plus its 1-byte finiteness mask; the
    # parse returns that array, where a copy into it read 2.0 times the matrix
    natoms = 128
    sites = [{"species": "C", "position": [0.1 * i, 0.0, 0.0]} for i in range(natoms)]
    structure = lio.parse_structure(dict(STRUCTURE_DOC, sites=sites))
    matrix = np.random.default_rng(5).normal(size=(3 * natoms, 3 * natoms))
    doc = {"schema": "hessian/1", "matrix": matrix.tolist()}
    tracemalloc.start()
    try:
        hessian = lio.parse_hessian(doc, structure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(hessian, matrix)
    assert peak < 1.5 * matrix.nbytes


def test_hessian_hash_mismatch_detected():
    structure = lio.parse_structure(STRUCTURE_DOC)
    doc = {"schema": "hessian/1", "structure_hash": "deadbeef", "matrix": np.eye(6).tolist()}
    with pytest.raises(InputError, match="bound to a different structure"):
        lio.parse_hessian(doc, structure)
    # the checksum binds the masses: a Hessian of the same sites at doubled
    # masses is refused
    heavier = CrystalStructure(
        structure.lattice, structure.species, structure.masses * 2.0, structure.positions
    )
    doc["structure_hash"] = structure_checksum(heavier)
    assert doc["structure_hash"] != structure_checksum(structure)
    with pytest.raises(InputError, match="bound to a different structure"):
        lio.parse_hessian(doc, structure)


# ------------------------------------------------ error loci of dense matrices

OVER_RANGE_INT = "1" + "0" * 400

# JSON literal put at entry (2, 3), and the error the parse must raise there
BAD_ENTRIES = [
    ('"1.0"', ParseError),
    ("true", ParseError),
    ("null", ParseError),
    ("[1]", ParseError),
    ("1e999", NonFiniteValue),
    (OVER_RANGE_INT, NonFiniteValue),
]


def _doc_with_bad_entry(doc, field, literal):
    """Serialize `doc` with `literal` spliced in at doc[field][2][3]."""
    rows = [list(r) for r in doc[field]]
    rows[2][3] = "@bad@"
    text = json.dumps(dict(doc, **{field: rows})).replace('"@bad@"', literal)
    return lio.loads_strict(text)


def _per_element_error(rows, locus):
    """Reference: what one `_number` call per element raises first."""
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            try:
                lio._number(x, f"{locus}/{i}/{j}")
            except (ParseError, NonFiniteValue) as exc:
                return type(exc), exc.locus
    return None


@pytest.mark.parametrize("literal,error", BAD_ENTRIES)
def test_hessian_matrix_bad_entry_locus(literal, error):
    structure = lio.parse_structure(STRUCTURE_DOC)
    doc = {"schema": "hessian/1", "matrix": np.eye(6).tolist()}
    doc = _doc_with_bad_entry(doc, "matrix", literal)
    with pytest.raises(error) as err:
        lio.parse_hessian(doc, structure)
    assert err.value.locus == "/matrix/2/3"
    assert _per_element_error(doc["matrix"], "/matrix") == (error, "/matrix/2/3")


def test_matrix_mixed_ints_and_floats_parse_exactly():
    structure = lio.parse_structure(STRUCTURE_DOC)
    matrix = np.eye(6).tolist()
    matrix[0][1] = 3
    matrix[1][0] = 2.0**-1074
    matrix[4][5] = -0.0
    hessian = lio.parse_hessian({"schema": "hessian/1", "matrix": matrix}, structure)
    assert hessian.tobytes() == np.array(matrix, dtype=float).tobytes()


# ----------------------------------------------------------------- pair etc.

def test_pair_identical_geometries_zero_delta():
    structure = lio.parse_structure(STRUCTURE_DOC)
    pos = structure.positions.tolist()
    delta = lio.parse_geometry_pair(
        {"schema": "geometry_pair/1", "ground": pos, "excited": pos}, structure
    )
    assert np.array_equal(delta, np.zeros((2, 3)))


def test_pair_delta_is_exact_difference():
    structure = lio.parse_structure(STRUCTURE_DOC)
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 3))
    e = rng.normal(size=(2, 3))
    doc = {"schema": "geometry_pair/1", "ground": g.tolist(), "excited": e.tolist()}
    assert np.array_equal(lio.parse_geometry_pair(doc, structure), e - g)


def test_pair_atom_count_mismatch():
    structure = lio.parse_structure(STRUCTURE_DOC)
    for short in ("ground", "excited"):
        doc = {"schema": "geometry_pair/1", "ground": [[0, 0, 0]] * 2,
               "excited": [[0, 0, 0]] * 2, short: [[0, 0, 0]]}
        with pytest.raises(ParseError, match="expected 2 rows, got 1") as err:
            lio.parse_geometry_pair(doc, structure)
        assert err.value.locus == f"/{short}"


@pytest.mark.parametrize("values", [[[0.0, 0.0, 0.0]] * 3, {"x": 1.0}])
def test_force_delta_row_count_mismatch(values):
    # _matrix is the one check of a matrix field's row count
    structure = lio.parse_structure(STRUCTURE_DOC)
    with pytest.raises(ParseError, match="rows") as err:
        lio.parse_force_delta({"schema": "force_delta/1", "values": values}, structure)
    assert err.value.locus == "/values"


def test_pair_species_order_checked():
    structure = lio.parse_structure(STRUCTURE_DOC)
    pos = structure.positions.tolist()
    doc = {
        "schema": "geometry_pair/1",
        "ground": pos,
        "excited": pos,
        "species": ["Si", "C"],
    }
    with pytest.raises(InputError, match=r"species\[0\]: document has 'Si', structure has 'C'"):
        lio.parse_geometry_pair(doc, structure)


def test_pair_non_finite_entry_locus():
    # the parser is the one check of a pair's numbers
    structure = lio.parse_structure(STRUCTURE_DOC)
    pos = structure.positions.tolist()
    excited = [list(row) for row in pos]
    excited[1][2] = float("nan")
    doc = {"schema": "geometry_pair/1", "ground": pos, "excited": excited}
    with pytest.raises(NonFiniteValue) as err:
        lio.parse_geometry_pair(doc, structure)
    assert err.value.locus == "/excited/1/2"


def test_defect_table_duplicate_label_charge():
    doc = {
        "schema": "defects/1",
        "host": {"host_energy_ev": -100.0, "vbm_ev": 0.0, "gap_ev": 3.0},
        "entries": [
            {"label": "a", "charge": 0, "total_energy_ev": -95.0},
            {"label": "a", "charge": 0, "total_energy_ev": -94.0},
        ],
    }
    with pytest.raises(InputError, match="duplicate defect entry"):
        lio.parse_defect_table(doc)


_DEFECTS_DOC = {
    "schema": "defects/1",
    "host": {"host_energy_ev": -100.0, "vbm_ev": 0.0, "gap_ev": 3.0},
    "entries": [{"label": "a", "charge": 0, "total_energy_ev": -95.0}],
}

_DISSOCIATION_DOC = {
    "schema": "dissociation/1",
    "entries": [
        {"label": "a", "cluster_energy_ev": -64.0, "fragment_energy_ev": -50.0,
         "released_energy_ev": -10.0}
    ],
}


def test_defect_entry_fields_checked_by_the_parser():
    def parse(host=(), **fields):
        entry = dict(_DEFECTS_DOC["entries"][0], **fields)
        doc = dict(_DEFECTS_DOC, host=dict(_DEFECTS_DOC["host"], **dict(host)), entries=[entry])
        return lio.parse_defect_table(doc)[1][0]

    for fields, error, locus in [
        ({"correction_ev": "magic"}, ParseError, "/entries/0/correction_ev"),
        ({"total_energy_ev": float("nan")}, NonFiniteValue, "/entries/0/total_energy_ev"),
        ({"charge": -1.0}, ParseError, "/entries/0/charge"),
    ]:
        with pytest.raises(error) as err:
            parse(**fields)
        assert err.value.locus == locus
    # the analytic marker needs the host's dielectric constant and volume
    host = {"dielectric_constant": 9.7, "cell_volume_a3": 6000.0}
    assert parse(host, charge=-1, correction_ev="analytic").correction == "analytic"


def test_dissociation_table_duplicate_label():
    entries = _DISSOCIATION_DOC["entries"] * 2
    with pytest.raises(InputError, match="duplicate dissociation entry 'a'"):
        lio.parse_dissociation_table(dict(_DISSOCIATION_DOC, entries=entries))


@pytest.mark.parametrize(
    "field", ["cluster_energy_ev", "fragment_energy_ev", "released_energy_ev"]
)
def test_dissociation_energies_finite_by_the_parser(field):
    # energetics.dissociation_energy relies on this and does not re-check
    entry = dict(_DISSOCIATION_DOC["entries"][0], **{field: float("inf")})
    with pytest.raises(NonFiniteValue) as err:
        lio.parse_dissociation_table(dict(_DISSOCIATION_DOC, entries=[entry]))
    assert err.value.locus == f"/entries/0/{field}"


@pytest.mark.parametrize("label", [["a"], {"x": 1}, 7, None, "", "a\tb", "a\rb", "a\nb", "#a"])
@pytest.mark.parametrize(
    "doc, parse",
    [(_DEFECTS_DOC, lio.parse_defect_table), (_DISSOCIATION_DOC, lio.parse_dissociation_table)],
)
def test_label_must_stay_one_tsv_field(doc, parse, label):
    # a list or dict label cannot be hashed, a tab, CR or LF would split
    # the table row, and a leading '#' would read back as a comment
    entry = dict(doc["entries"][0], label=label)
    with pytest.raises(ParseError) as err:
        parse(dict(doc, entries=[entry]))
    assert err.value.locus == "/entries/0/label"
    parse(dict(doc, entries=[dict(entry, label="C_Si-C_i h #2")]))


@pytest.mark.parametrize("value", [[], None, "C", 1.0, True])
def test_chemical_potentials_must_be_an_object(value):
    host = dict(_DEFECTS_DOC["host"], chemical_potentials=value)
    with pytest.raises(ParseError) as err:
        lio.parse_defect_table(dict(_DEFECTS_DOC, host=host))
    assert err.value.locus == "/host/chemical_potentials"


_MALFORMED_VALUES = ([1], {"x": 1}, "s", None, True, -1.0, [], {}, 10**400)


def _mutation_paths(node):
    """Key paths to every field of every object and to the first 3 items
    of every list, at any depth."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(min(3, len(node)))
    else:
        return
    for key in keys:
        yield (key,)
        for rest in _mutation_paths(node[key]):
            yield (key,) + rest


def _replaced(node, path, value):
    """node with the entry at path replaced by value; copies only that path."""
    if not path:
        return value
    out = node.copy()
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


def test_malformed_documents_raise_only_lumiphon_errors(tmp_path, monkeypatch):
    # the demo's documents, each field and the first 3 items of each list
    # replaced by a value of another type: a parser either accepts the
    # document or raises one of lumiphon's errors, never a traceback
    from lumiphon import cli
    from lumiphon.errors import LumiphonError

    from helpers import _load_demo_inputs_script

    monkeypatch.setattr(sys, "argv", ["make_demo_inputs.py", "--out", str(tmp_path)])
    _load_demo_inputs_script().main()
    s, modes = str(tmp_path / "structure.json"), str(tmp_path / "modes.json")
    assert cli.main(["modes", "--structure", s, "--hessian", str(tmp_path / "hessian.json"),
                     "--asr", "--out", modes]) == 0
    assert cli.main(["hr", "--structure", s, "--modes", modes, "--pair",
                     str(tmp_path / "pair.json"), "--out", str(tmp_path / "hr.json")]) == 0
    structure = lio.parse_structure(lio.load_document(s))
    parsers = {
        "structure": lio.parse_structure,
        "hessian": lambda doc: lio.parse_hessian(doc, structure),
        "pair": lambda doc: lio.parse_geometry_pair(doc, structure),
        "forces": lambda doc: lio.parse_force_delta(doc, structure),
        "defects": lio.parse_defect_table,
        "dissociation": lio.parse_dissociation_table,
        "hr": lio.parse_hr,
        "modes": lambda doc: lio.parse_phonon_basis(doc, modes),
    }
    crashes, tried = [], 0
    for name, parse in parsers.items():
        doc = lio.load_document(tmp_path / f"{name}.json")
        parse(doc)
        for path in _mutation_paths(doc):
            for value in _MALFORMED_VALUES:
                tried += 1
                try:
                    parse(_replaced(doc, path, value))
                except LumiphonError:
                    pass
                except Exception as exc:
                    crashes.append(f"{name}{path} = {value!r}: {type(exc).__name__}: {exc}")
    assert tried > 1000
    assert crashes == []


# -------------------------------------------------------------- round trips

def _roundtrip(write, parse, path):
    write(path)
    return parse(lio.load_document(path))


def test_structure_roundtrip_bit_exact(tmp_path):
    structure = lio.parse_structure(STRUCTURE_DOC)
    # adversarial coordinates: not representable in short decimal
    structure = type(structure)(
        structure.lattice * (1.0 + 2.0**-40),
        structure.species,
        structure.masses,
        structure.positions + math.pi * 1e-7,
    )
    path = tmp_path / "s.json"
    lio.write_structure(structure, path)
    back = lio.parse_structure(lio.load_document(path))
    assert np.array_equal(back.lattice, structure.lattice)
    assert np.array_equal(back.positions, structure.positions)
    assert np.array_equal(back.masses, structure.masses)
    assert back.species == structure.species


def test_hessian_roundtrip_bit_exact(tmp_path, diatomic):
    structure, hessian = diatomic
    path = tmp_path / "h.json"
    lio.write_hessian(Hessian(hessian, structure_checksum(structure)), path)
    assert lio.load_document(path)["structure_hash"] == structure_checksum(structure)
    back = lio.load_hessian(path, structure)
    assert np.array_equal(back, hessian)


def test_pair_and_force_roundtrip(tmp_path, diatomic, displaced_pair):
    structure, _ = diatomic
    p1 = tmp_path / "p.json"
    lio.write_geometry_pair(displaced_pair, p1)
    doc = lio.load_document(p1)
    assert np.array_equal(doc["ground"], displaced_pair.ground)
    assert np.array_equal(doc["excited"], displaced_pair.excited)
    back = lio.parse_geometry_pair(doc, structure)
    assert np.array_equal(back, displaced_pair.excited - displaced_pair.ground)

    delta = ForceDelta(np.array([0.1, -0.2, 0.3, 1e-17, 2.0**-33, -0.0]))
    p2 = tmp_path / "f.json"
    lio.write_force_delta(delta, p2)
    back2 = lio.parse_force_delta(lio.load_document(p2), structure)
    assert np.array_equal(back2, delta.values)


def test_basis_roundtrip_bit_exact(tmp_path, diatomic):
    structure, hessian = diatomic
    basis = diagonalize(dynamical_matrix(hessian, structure))
    path = tmp_path / "b.json"
    lio.write_phonon_basis(basis, path, {"hessian_sha256": "abc"})
    doc = lio.load_document(path)
    back = lio.parse_phonon_basis(doc, path)
    assert np.array_equal(back.omegas_mev, basis.omegas_mev)
    assert np.array_equal(back.vectors, basis.vectors)
    assert doc["provenance"]["hessian_sha256"] == "abc"


def _adversarial_basis():
    """Six orthonormal modes holding -0.0, a subnormal and imaginary modes."""
    rng = np.random.default_rng(3)
    vectors = np.zeros((6, 6))
    vectors[:3, :3] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    vectors[3:, 3:] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    vectors[0, 4] = -0.0
    vectors[1, 5] = 2.0**-1074
    omegas = np.array([-12.5, -1e-3, -0.0, 2.0**-1074, 1.0 / 3.0, 40.0 * math.pi])
    return PhononBasis(omegas, vectors)


def _bits(a):
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def test_binary_block_encodes_the_row_major_bits(tmp_path):
    adversarial = _adversarial_basis()
    # transposed: the basis is built from an array that is not C-contiguous
    basis = PhononBasis(adversarial.omegas_mev, adversarial.vectors.T)
    path = tmp_path / "b.json"
    lio.write_phonon_basis(basis, path, {"vectors_sha256": ""})
    doc = json.loads(path.read_text())
    assert (tmp_path / "b.json.f8").read_bytes() == _bits(basis.vectors)
    assert doc["vectors_sha256"] == hashlib.sha256(_bits(basis.vectors)).hexdigest()
    assert doc["provenance"] == {"vectors_sha256": ""}


@pytest.mark.parametrize("block", [1, 8 * 7 * 6, 1 << 20])
def test_binary_block_joins_its_base64_blocks(tmp_path, monkeypatch, block):
    # the payload's row blocks join to the row-major bytes and their hash:
    # 1 row a block, 6 rows a block (a last block of 1 row), one block
    monkeypatch.setattr(lio, "_PAYLOAD_BLOCK", block)
    vectors = np.random.default_rng(4).normal(size=(7, 7)).T
    path = tmp_path / "b.json"
    lio.write_phonon_basis(PhononBasis(np.arange(7.0), vectors), path)
    doc = json.loads(path.read_text())
    assert (tmp_path / "b.json.f8").read_bytes() == _bits(vectors)
    assert doc["vectors_sha256"] == hashlib.sha256(_bits(vectors)).hexdigest()


def test_basis_v2_roundtrip_bit_exact(tmp_path):
    basis = _adversarial_basis()
    path = tmp_path / "b.json"
    lio.write_phonon_basis(basis, path, {"note": "x"})
    doc = lio.load_document(path)
    assert list(doc) == ["schema", "omegas_mev", "vectors_sha256", "provenance"]
    assert doc["schema"] == "phonon_basis/4"
    assert isinstance(doc["omegas_mev"], list)
    back = lio.parse_phonon_basis(doc, path)
    assert _bits(back.omegas_mev) == _bits(basis.omegas_mev)
    assert _bits(back.vectors) == _bits(basis.vectors)
    assert doc["provenance"] == {"note": "x"}


def _basis_doc(directory, vectors, name="b.json"):
    """A phonon_basis/4 document holding `vectors` and zero omegas, its
    payload written beside it in directory: (document, its path)."""
    n = vectors.shape[0]
    (directory / f"{name}.f8").write_bytes(_bits(vectors))
    digest = hashlib.sha256(_bits(vectors)).hexdigest()
    doc = {"schema": "phonon_basis/4", "omegas_mev": [0.0] * n, "vectors_sha256": digest}
    return doc, directory / name


def _adversarial_doc(directory):
    """_adversarial_basis as a phonon_basis/4 document in directory and its path."""
    basis = _adversarial_basis()
    doc, path = _basis_doc(directory, basis.vectors)
    return dict(doc, omegas_mev=basis.omegas_mev.tolist()), path


@pytest.mark.parametrize(
    "fields", [{"vectors_sha256": "0" * 64}, {"vectors_sha256": None}, {}],
    ids=["stale", "null", "missing"],
)
def test_basis_refuses_a_bad_vectors_sha256(tmp_path, fields):
    doc, path = _adversarial_doc(tmp_path)
    del doc["vectors_sha256"]
    doc.update(fields)
    with pytest.raises(ParseError) as err:
        lio.parse_phonon_basis(doc, path)
    assert err.value.locus == "/vectors_sha256"


def test_basis_reads_the_payload_beside_its_own_path(tmp_path):
    # a renamed document reads the payload of its new name, never the one
    # it was written beside: the pair is renamed or copied together
    basis = _adversarial_basis()
    lio.write_phonon_basis(basis, tmp_path / "a.json")
    os.rename(tmp_path / "a.json", tmp_path / "b.json")
    doc = lio.load_document(tmp_path / "b.json")
    with pytest.raises(InputError, match=r"cannot read .*b\.json\.f8: No such file"):
        lio.parse_phonon_basis(doc, tmp_path / "b.json")
    os.rename(tmp_path / "a.json.f8", tmp_path / "b.json.f8")
    back = lio.parse_phonon_basis(doc, tmp_path / "b.json")
    assert _bits(back.vectors) == _bits(basis.vectors)


def test_basis_reads_a_payload_of_the_wrong_size_no_further(tmp_path):
    # a document of vast n beside a small payload: the size is compared
    # before any of the file is read
    n = 1 << 15
    doc = {"schema": "phonon_basis/4", "omegas_mev": [0.0] * n, "vectors_sha256": ""}
    (tmp_path / "b.json.f8").write_bytes(b"\0" * 8)
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as err:
            lio.parse_phonon_basis(doc, tmp_path / "b.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"b.json.f8 holds 8 bytes, {n} modes need {8 * n * n}" in str(err.value)
    assert peak < 8 << 20


def test_basis_v2_rejects_nan_payload(tmp_path):
    vectors = _adversarial_basis().vectors.copy()
    vectors[2, 3] = math.nan
    doc, path = _basis_doc(tmp_path, vectors)
    with pytest.raises(NonFiniteValue) as err:
        lio.parse_phonon_basis(doc, path)
    assert str(err.value) == f"{path}.f8: vectors[2,3] is not finite"


def test_basis_rejects_non_orthonormal_rows(tmp_path):
    vecs = np.eye(3)
    vecs[0, 1] = 1e-4
    with pytest.raises(InputError, match="not orthonormal"):
        lio.parse_phonon_basis(*_basis_doc(tmp_path, vecs))


def test_large_basis_orthonormality(tmp_path):
    # every pair of rows is checked at every size: a dense reflection
    # I - 2 u u^T is orthonormal
    n = 1536
    u = np.random.default_rng(7).normal(size=n)
    u /= np.linalg.norm(u)
    vecs = np.eye(n) - 2.0 * np.outer(u, u)
    lio.parse_phonon_basis(*_basis_doc(tmp_path, vecs))
    # row 0 tilted by 1e-6 toward row 1 keeps its unit norm
    eps = 1e-6
    tilted = vecs.copy()
    tilted[0] = np.cos(eps) * vecs[0] + np.sin(eps) * vecs[1]
    with pytest.raises(InputError, match="not orthonormal"):
        lio.parse_phonon_basis(*_basis_doc(tmp_path, tilted))
    # a repeated mode has unit norm and is orthogonal to every other row
    vecs[2] = vecs[1]
    with pytest.raises(InputError, match="not orthonormal"):
        lio.parse_phonon_basis(*_basis_doc(tmp_path, vecs))


def _reflection(n, seed):
    """The dense orthonormal n x n reflection I - 2 u u^T of a random unit u."""
    u = np.random.default_rng(seed).normal(size=n)
    u /= np.linalg.norm(u)
    return np.eye(n) - 2.0 * np.outer(u, u)


@pytest.mark.parametrize(
    "fault",
    ["rows-in-far-blocks", "rows-in-the-last-block", "norm-in-the-last-block"],
)
def test_blocked_gram_check_sees_every_pair_of_rows(fault):
    # 600 rows are blocks of 256, 256 and 88: a fault between two blocks
    # or on the diagonal of the short last block is refused
    vecs = _reflection(600, 3)
    lio._check_orthonormal(vecs)
    eps = 1e-6
    if fault == "norm-in-the-last-block":
        vecs[599] *= 1.0 + eps
    else:
        i, j = (300, 580) if fault == "rows-in-far-blocks" else (590, 599)
        vecs[j] = np.cos(eps) * vecs[j] + np.sin(eps) * vecs[i]
    with pytest.raises(InputError, match="not orthonormal"):
        lio._check_orthonormal(vecs)


def test_orthonormality_check_holds_less_than_half_the_payload():
    # the check forms V V^T a block of rows at a time: at 1536 modes it
    # holds below half the 8 n^2 bytes, where the whole Gram matrix is all of them
    n = 1536
    vecs = _reflection(n, 8)
    tracemalloc.start()
    try:
        lio._check_orthonormal(vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n, peak


def test_basis_read_holds_the_payload_and_the_gram_matrix_only(tmp_path):
    # reading a 1536-mode basis holds its 8 n^2 payload bytes, the array
    # over them and the Gram matrix of the orthonormality check: below 2.5
    # times the bytes, where base64 text and its decoded copy read 3.7 times
    n = 1536
    u = np.random.default_rng(8).normal(size=n)
    u /= np.linalg.norm(u)
    basis = PhononBasis(np.linspace(1.0, 180.0, n), np.eye(n) - 2.0 * np.outer(u, u))
    path = tmp_path / "b.json"
    lio.write_phonon_basis(basis, path)
    del basis, u
    tracemalloc.start()
    try:
        back = lio.parse_phonon_basis(lio.load_document(path), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.vectors.shape == (n, n)
    assert peak < 2.5 * 8 * n * n


def test_compare_mode_tables_reads_two_bases(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    basis = _adversarial_basis()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    lio.write_phonon_basis(basis, a)
    lio.write_phonon_basis(PhononBasis(basis.omegas_mev + 0.5, basis.vectors), b)
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "compare_mode_tables.py"),
         str(a), str(b), "--cutoff", "100"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    rows = [ln for ln in done.stdout.splitlines() if not ln.startswith("#")]
    assert rows == ["125.664\t126.164\t0.500"]


def test_formats_doc_has_one_section_per_schema_read():
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "docs" / "formats.md").read_text(encoding="utf-8")
    assert set(re.findall(r"^## (\w+/\d+)$", text, re.M)) == set(lio.SCHEMAS.values())


def test_hr_roundtrip_bit_exact(tmp_path):
    hr = HRDecomposition(
        np.array([50.0, 150.0]),
        np.array([0.3, -0.1]),
        np.array([0.123456789012345, 0.02]),
        math.fsum([0.123456789012345, 0.02]),
    )
    path = tmp_path / "hr.json"
    lio.write_hr(hr, path)
    back = lio.parse_hr(lio.load_document(path))
    assert np.array_equal(back.omegas_mev, hr.omegas_mev)
    assert np.array_equal(back.qk, hr.qk)
    assert np.array_equal(back.sk, hr.sk)
    assert back.total == hr.total


@pytest.mark.parametrize("total", [float("nan"), float("inf"), float("-inf")])
def test_hr_refuses_non_finite_total(total):
    # NaN compares False against any tolerance: the parser's number check
    # is what refuses it
    entries = [{"omega_mev": 50.0, "qk": 0.1, "sk": 0.2}]
    with pytest.raises(NonFiniteValue) as err:
        lio.parse_hr({"schema": "hr/1", "total": total, "entries": entries})
    assert err.value.locus == "/total"


def test_hr_refuses_a_negative_mode_energy():
    # emission has no replicas above the ZPL; a mode at -0.0 meV is zero
    doc = {"schema": "hr/1", "total": 0.5, "entries": [
        {"omega_mev": -0.0, "qk": 0.0, "sk": 0.0},
        {"omega_mev": -1e-300, "qk": 0.0, "sk": 0.0},
        {"omega_mev": 140.0, "qk": 0.0, "sk": 0.5},
    ]}
    with pytest.raises(ParseError) as err:
        lio.parse_hr(doc)
    assert err.value.locus == "/entries/1/omega_mev"
    del doc["entries"][1]
    assert lio.parse_hr(doc).omegas_mev.tolist() == [0.0, 140.0]


def test_defects_roundtrip(tmp_path):
    host = HostReference(
        -100.0,
        0.0,
        3.17,
        {"C": ChemicalPotential(-9.123456789, 0.25)},
        dielectric_constant=9.7,
        cell_volume_a3=6001.5,
    )
    entries = [
        DefectEntry("x", 1, -95.5, {"C": 1}, 0.1),
        DefectEntry("x", 0, -95.0, {"C": 1}, "analytic"),
    ]
    path = tmp_path / "d.json"
    lio.write_defect_table(host, entries, path)
    host2, entries2 = lio.parse_defect_table(lio.load_document(path))
    assert host2 == host
    assert entries2 == entries


def test_dissociation_roundtrip(tmp_path):
    rows = [
        {
            "label": "t",
            "cluster_energy_ev": -64.0,
            "fragment_energy_ev": -50.0,
            "released_energy_ev": -10.0,
        }
    ]
    path = tmp_path / "e.json"
    lio.write_dissociation_table(rows, path)
    assert lio.parse_dissociation_table(lio.load_document(path)) == rows


# ------------------------------------------------------------- JSON writer

def _reference_json(doc):
    """The layout every JSON document is written in: one compact line."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


_Charge = enum.IntEnum("_Charge", "PLUS")


class _Label(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": [[]]},
        [1, 2.5, -0.0, True, None, 2**70],
        {1: "int key", 2.5: "float", True: "bool", None: "none"},
        {"row": [np.float64(0.1), 3, float(2**60)]},
        "top-level é \"string\"\n",
        np.float64(-1.5),
        [10**400],
        {_Charge.PLUS: [_Charge.PLUS, _Label("C2")], _Label("k"): _Label("v")},
        [{"a%r": 1.0}],
        [{"a": 1.0}, {"b": 1.0}],
        [{"a": True}],
        [{"a": 10**400}],
        [{1: 2.0}],
        {"dtype": "<f8", "shape": [3, 2], "base64": "AAAAAAAA8D8="},
    ],
)
def test_json_writer_matches_reference_edge_cases(doc, tmp_path):
    path = tmp_path / "doc.json"
    lio._write_json(doc, path, overwrite=False)
    assert path.read_text() == _reference_json(doc) + "\n"


_BAD_FLOATS = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", _BAD_FLOATS)
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: [1.0, x],
        lambda x: {"a": {"b": [[0.5, 2, x]]}},
        lambda x: {"a": [{"b": x}]},
        lambda x: {x: 1.0},
        lambda x: ({"ok": [1, 2]}, [np.float64(x)]),
    ],
)
def test_json_writer_refuses_non_finite_at_any_depth(tmp_path, bad, place):
    doc = place(bad)
    with pytest.raises(ValueError):
        _reference_json(doc)
    path = tmp_path / "bad.json"
    with pytest.raises(NonFiniteValue, match="refusing to write"):
        lio._write_json(doc, path, overwrite=False)
    assert not path.exists()


def _basis_with_provenance(provenance, path):
    basis = PhononBasis(np.array([1.0, 2.0, 3.0]), np.eye(3))
    lio.write_phonon_basis(basis, path, provenance)


def _defects_with(path, host_energy_ev=-100.0, delta_ev=0.0):
    host = HostReference(host_energy_ev, 0.0, 3.0, {"C": ChemicalPotential(-9.0, delta_ev)})
    lio.write_defect_table(host, [DefectEntry("x", 0, -95.0)], path)


def _dissociation_with(path, cluster_energy_ev):
    row = {
        "label": "t",
        "cluster_energy_ev": cluster_energy_ev,
        "fragment_energy_ev": -50.0,
        "released_energy_ev": -10.0,
    }
    lio.write_dissociation_table([row], path)


@pytest.mark.parametrize("bad", _BAD_FLOATS)
@pytest.mark.parametrize(
    "write",
    [
        lambda p, x: _basis_with_provenance({"deep": [{"norms": [0.1, x]}]}, p),
        lambda p, x: _defects_with(p, host_energy_ev=x),
        lambda p, x: _defects_with(p, delta_ev=x),
        _dissociation_with,
    ],
    ids=["basis-provenance", "defects-host", "defects-potential", "dissociation"],
)
def test_writers_refuse_non_finite(tmp_path, bad, write):
    """Writers whose models admit a non-finite value; the others refuse it at construction."""
    path = tmp_path / "bad.json"
    with pytest.raises(NonFiniteValue, match="refusing to write"):
        write(path, bad)
    assert list(tmp_path.iterdir()) == []  # the basis's payload file too


@pytest.mark.parametrize(
    "value", [np.int64(3), object(), b"bytes"], ids=["int64", "object", "bytes"]
)
@pytest.mark.parametrize("where", ["list", "row", "value", "key"])
def test_json_writer_raises_type_error_like_reference(tmp_path, value, where):
    doc = {
        "list": lambda: {"p": [value]},
        "row": lambda: {"p": [1.0, 2.0, value]},
        "value": lambda: {"p": {"q": value}},
        "key": lambda: {"p": {value: 1}},
    }[where]()
    with pytest.raises(TypeError):
        _reference_json(doc)
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        lio._write_json(doc, path, overwrite=False)
    assert not path.exists()


def test_phonon_basis_writer_raises_type_error_on_numpy_integer(tmp_path):
    with pytest.raises(TypeError):
        _basis_with_provenance({"lvm_indices": [np.int64(5)]}, tmp_path / "b.json")
    assert list(tmp_path.iterdir()) == []


def _generated_hr(nmodes=1536, seed=7):
    rng = np.random.default_rng(seed)
    sk = rng.uniform(0.0, 0.01, nmodes)
    return HRDecomposition(
        np.sort(rng.uniform(5.0, 180.0, nmodes)),
        rng.normal(size=nmodes),
        sk,
        math.fsum(sk.tolist()),
    )


def _write_manifest(path):
    data = path.with_name("input.json")
    data.write_text("{}")
    lio.write_manifest(lio.input_checksums([data]), "0.1.0", "hr --out x", path)


# every public JSON writer, called as write(path, structure, hessian, pair)
_WRITERS = {
    "structure": lambda p, s, h, pair: lio.write_structure(s, p),
    "hessian": lambda p, s, h, pair: lio.write_hessian(Hessian(h, structure_checksum(s)), p),
    "geometry_pair": lambda p, s, h, pair: lio.write_geometry_pair(pair, p),
    "force_delta": lambda p, s, h, pair: lio.write_force_delta(
        ForceDelta(np.array([0.1, -0.2, 0.3, 1e-17, 2.0**-33, -0.0])), p
    ),
    "phonon_basis": lambda p, s, h, pair: lio.write_phonon_basis(
        diagonalize(dynamical_matrix(h, s)), p, {"hessian_sha256": "abc"}
    ),
    "hr": lambda p, s, h, pair: lio.write_hr(_generated_hr(), p),
    "defects": lambda p, s, h, pair: _defects_with(p),
    "dissociation": lambda p, s, h, pair: _dissociation_with(p, -64.0),
    "manifest": lambda p, s, h, pair: _write_manifest(p),
}


@pytest.mark.parametrize("kind", list(_WRITERS))
def test_every_writer_keeps_the_documented_layout(tmp_path, kind, diatomic, displaced_pair):
    """Each writer's file is one compact line of JSON and a newline."""
    path = tmp_path / f"{kind}.json"
    _WRITERS[kind](path, *diatomic, displaced_pair)
    text = path.read_text()
    assert text == _reference_json(json.loads(text)) + "\n"
    # the indented layout earlier versions wrote still loads
    old = tmp_path / f"{kind}-indented.json"
    old.write_text(json.dumps(json.loads(text), indent=1) + "\n")
    assert lio.load_document(old) == lio.load_document(path)


# ------------------------------------------------------------ strict loading

def test_duplicate_json_keys_rejected():
    with pytest.raises(InputError, match="duplicate key 'a' in document"):
        lio.loads_strict('{"a": 1, "a": 2}')


def test_nan_literal_rejected():
    with pytest.raises(ParseError):
        lio.loads_strict('{"x": NaN}')


def test_syntax_error_carries_locus():
    with pytest.raises(ParseError) as err:
        lio.loads_strict('{"a": 1,\n  "b": }')
    assert err.value.locus == "line 2, column 8"


# ------------------------------------------------------------------- tables

def _per_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.9g" % (float(v) + 0.0)  # normalizes -0.0


def _per_value_table(header_lines, col_names, rows) -> bytes:
    """The table format built one value at a time, row by row: the
    reference for write_table_tsv's column-wise blocks."""
    head = "".join(f"# {h}\n" for h in header_lines) + "# columns: " + "\t".join(col_names)
    body = "".join("\t".join(_per_value(v) for v in row) + "\n" for row in rows)
    return (head + "\n" + body).encode("utf-8")


def test_spectrum_tsv_layout_and_determinism(tmp_path):
    path = tmp_path / "s.tsv"
    e = np.array([1.0, 1.1, 1.2])
    y = np.array([0.5, 2.0, 0.25])
    lio.write_spectrum_tsv(path, e, y, ("demo run",))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# demo run"
    assert lines[1].startswith("# columns:")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3
    assert "\r" not in text
    lio.write_spectrum_tsv(path, e, y, ("demo run",), overwrite=True)
    assert path.read_text() == text


def test_tsv_refuses_nan(tmp_path):
    with pytest.raises(NonFiniteValue):
        lio.write_spectrum_tsv(
            tmp_path / "bad.tsv", np.array([1.0]), np.array([float("nan")])
        )
    assert not (tmp_path / "bad.tsv").exists()


def test_tsv_nine_significant_digits(tmp_path):
    path = tmp_path / "d.tsv"
    lio.write_spectrum_tsv(path, np.array([1.0 / 3.0]), np.array([-0.0]))
    row = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][0]
    assert row == "0.333333333\t0"


@pytest.mark.parametrize(
    "column",
    [
        [-0.0, 0.0, -1e-300, 5e-324, -2.5e-310],  # signed zeros and subnormals
        [1e300, -1e-300, 1.7976931348623157e308, 2.2250738585072014e-308],
        [1.0, 2.0, -7.0, 123456789.0, 1234567890123.0],  # integers as floats
        [1.0 / 3.0, 2.6, 0.1 + 0.2, -123.456789012, 9.999999995e-5],
    ],
)
def test_spectrum_tsv_matches_per_value_table_format(tmp_path, column):
    e = np.linspace(0.5, 3.0, len(column))
    y = np.array(column)
    header = ("column writer",)
    names = ("energy_ev", "intensity_per_ev")
    lio.write_spectrum_tsv(tmp_path / "fast.tsv", e, y, header)
    lio.write_spectrum_tsv(tmp_path / "swapped.tsv", y, e, header)
    assert (tmp_path / "fast.tsv").read_bytes() == _per_value_table(header, names, zip(e, y))
    assert (tmp_path / "swapped.tsv").read_bytes() == _per_value_table(
        header, names, zip(y, e)
    )


def test_table_tsv_converts_each_column_by_its_dtype(tmp_path):
    columns = (
        np.array([True, False, True]),
        [7, -3, 2**63],  # one past int64 prints in full
        ["X_hk", "C2", "split-int"],
        np.array([-0.0, 5e-324, -2.5e-310]),
    )
    names = ("flag", "charge", "label", "value")
    path = tmp_path / "mixed.tsv"
    lio.write_table_tsv(path, ("mixed",), names, columns)
    assert path.read_bytes() == _per_value_table(("mixed",), names, zip(*columns))
    assert path.read_text().splitlines()[-1] == "true\t9223372036854775808\tsplit-int\t-2.5e-310"
    assert path.read_text().splitlines()[2] == "true\t7\tX_hk\t0"


def test_table_tsv_without_rows_writes_the_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    lio.write_table_tsv(path, ("no rows",), ("label", "fermi_ev"), ([], np.empty(0)))
    assert path.read_bytes() == b"# no rows\n# columns: label\tfermi_ev\n"


def test_table_tsv_refuses_a_non_finite_column_before_any_file(tmp_path):
    with pytest.raises(NonFiniteValue):
        lio.write_table_tsv(
            tmp_path / "bad.tsv", (), ("label", "e"), (["a", "b"], [1.0, float("inf")])
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "failure, raised",
    [(RuntimeError("formatting failed"), RuntimeError), (OSError(28, "No space"), InputError)],
)
def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path, failure, raised):
    def chunks():
        yield b"# header\n"
        raise failure

    path = tmp_path / "t.tsv"
    with pytest.raises(raised):
        lio._atomic_write(chunks(), path)
    assert list(tmp_path.iterdir()) == []


def test_spectrum_tsv_memory_does_not_grow_with_rows(tmp_path, monkeypatch):
    # the writer formats fixed blocks of rows: eight times the rows, each
    # many blocks, may not double its traced peak
    monkeypatch.setattr(lio, "TSV_BLOCK_ROWS", 1 << 10)
    peaks = []
    for n in (1 << 14, 1 << 17):
        e = np.linspace(1.0, 3.0, n)
        y = e / 3.0
        tracemalloc.start()
        try:
            lio.write_spectrum_tsv(tmp_path / f"{n}.tsv", e, y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_spectrum_tsv_refuses_non_finite_energy(tmp_path, bad):
    with pytest.raises(NonFiniteValue):
        lio.write_spectrum_tsv(tmp_path / "bad.tsv", np.array([1.0, bad]), np.ones(2))
    assert not (tmp_path / "bad.tsv").exists()


def test_spectrum_read_back(tmp_path):
    path = tmp_path / "s.tsv"
    e = np.array([1.0, 1.1])
    y = np.array([0.5, 2.0])
    lio.write_spectrum_tsv(path, e, y)
    e2, y2 = lio.read_spectrum_tsv(path)
    np.testing.assert_allclose(e2, e, rtol=1e-9)
    np.testing.assert_allclose(y2, y, rtol=1e-9)


def test_overwrite_protection(tmp_path):
    path = tmp_path / "x.tsv"
    lio.write_spectrum_tsv(path, np.array([1.0]), np.array([1.0]))
    with pytest.raises(InputError, match="exists; pass overwrite to replace it"):
        lio.write_spectrum_tsv(path, np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask):
    # a table, a document and a basis payload are each created 0o666 less
    # the umask, as a shell redirect would create them
    old = os.umask(umask)
    try:
        lio.write_spectrum_tsv(tmp_path / "s.tsv", np.array([1.0]), np.array([1.0]))
        lio.write_phonon_basis(_adversarial_basis(), tmp_path / "b.json")
    finally:
        os.umask(old)
    for name in ("s.tsv", "b.json", "b.json.f8"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json", "b.json.f8", "s.tsv"]


def test_write_into_missing_directory_is_io_failure(tmp_path):
    path = tmp_path / "missing" / "x.tsv"
    with pytest.raises(InputError, match=re.escape(f"cannot write {path}")):
        lio.write_spectrum_tsv(path, np.array([1.0]), np.array([1.0]))
    assert not (tmp_path / "missing").exists()


def test_stem_tsv_cumulative(tmp_path):
    hr = HRDecomposition(
        np.array([50.0, 150.0]), np.zeros(2), np.array([0.25, 0.5]), 0.75
    )
    path = tmp_path / "stem.tsv"
    lio.write_stem_tsv(path, hr)
    table = [[50.0, 0.25, 0.25], [150.0, 0.5, 0.75]]
    assert path.read_bytes() == _per_value_table((), ("omega_mev", "sk", "cumulative"), table)
    rows = [
        ln.split("\t")
        for ln in path.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert [r[0] for r in rows] == ["50", "150"]
    assert [r[2] for r in rows] == ["0.25", "0.75"]


# ------------------------------------------------------------------ manifest

def test_manifest_records_each_input_checksum(tmp_path):
    data = tmp_path / "input.json"
    data.write_text('{"schema": "hr/1", "total": 0.0, "entries": []}')
    other = tmp_path / "other.json"
    other.write_text("{}")
    path = tmp_path / "m.json"
    lio.write_manifest(lio.input_checksums([data, other]), "0.1.0", "hr --out x", path)
    assert lio.load_document(path) == {
        "schema": "manifest/2",
        "inputs": [
            {"path": str(data), "sha256": lio.sha256_file(data)},
            {"path": str(other), "sha256": lio.sha256_file(other)},
        ],
        "tool_version": "0.1.0",
        "command_line": "hr --out x",
    }
    # the checksum is of the bytes on disk
    assert lio.sha256_file(other) == hashlib.sha256(b"{}").hexdigest()
