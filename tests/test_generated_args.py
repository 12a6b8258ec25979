"""Generated arguments for every subcommand, through cli.main in-process.

Each draw runs one subcommand in a fresh temporary directory and checks
the exit contract:

* the exit code is 0, 2 or 3, and no exception escapes main;
* a refusal prints exactly one `error:` (exit 2) or `numerical error:`
  (exit 3) line and leaves no file behind;
* an accepted call writes finite files; the first column of a spectrum
  or oracle table increases strictly as printed, and a spectrum table
  integrates to 1 within 1e-8 as read back.

The documents are drawn as bytes: valid documents, junk, other encodings,
deep nesting, truncated files and valid documents with one field
replaced.  hr also runs on a damaged basis payload: missing, truncated,
junk, a NaN entry or the payload of another basis, and on a document
naming its payload outside its own directory.  spectrum and oracle also
run on generated hr/1 documents and
flags that span the float range: zero, subnormals, 1e-300 to 1e300, ties
and integers past it; thermo and dissoc on generated defects/1 and
dissociation/1 documents with near-tie and float-range energies, whose
printed results are checked against exact rational arithmetic.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumiphon.cli import main

from helpers import examples

# ------------------------------------------------------------- documents

_ONE_MODE = '{"schema":"hr/1","total":0.8,"entries":[{"omega_mev":140.0,"qk":0.0,"sk":0.8}]}'
_NO_MODE = '{"schema":"hr/1","total":0.0,"entries":[]}'
# 30 quanta of one 5 meV mode
_S30 = '{"schema":"hr/1","total":30.0,"entries":[{"omega_mev":5.0,"qk":1.0,"sk":30.0}]}'

_K = 4.2  # the diatomic's isotropic spring, eV/A^2
_HESSIAN = [
    [(_K if i % 3 == j % 3 else 0.0) * (1 if (i < 3) == (j < 3) else -1) for j in range(6)]
    for i in range(6)
]

_VALID = {
    "structure": {
        "schema": "structure/1",
        "lattice": [[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]],
        "sites": [
            {"species": "C", "position": [0.0, 0.0, 0.0]},
            {"species": "C", "position": [1.5, 0.0, 0.0]},
        ],
    },
    "hessian": {"schema": "hessian/1", "matrix": _HESSIAN},
    "pair": {
        "schema": "geometry_pair/1",
        "ground": [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
        "excited": [[0.02, 0.0, 0.0], [1.48, 0.0, 0.0]],
        "species": ["C", "C"],
    },
    # H dR of the pair's move
    "forces": {"schema": "force_delta/1", "values": [[0.168, 0.0, 0.0], [-0.168, 0.0, 0.0]]},
    "hr": json.loads(_ONE_MODE),
    "defects": {
        "schema": "defects/1",
        "host": {
            "host_energy_ev": -100.0,
            "vbm_ev": 0.0,
            "gap_ev": 3.17,
            "chemical_potentials": {"C": {"reference_energy_ev": -9.0, "delta_ev": 0.0}},
            "dielectric_constant": 9.7,
            "cell_volume_a3": 1000.0,
        },
        "entries": [
            {"label": "c2", "charge": 1, "total_energy_ev": -99.0, "stoichiometry": {"C": -2}},
            {"label": "c2", "charge": 0, "total_energy_ev": -98.5, "stoichiometry": {"C": -2},
             "correction_ev": "analytic"},
        ],
    },
    "dissociation": {
        "schema": "dissociation/1",
        "entries": [
            {"label": "c2", "cluster_energy_ev": -64.0, "fragment_energy_ev": -50.0,
             "released_energy_ev": -10.0},
        ],
    },
}

_WINDOW = "0.2:2.06"  # holds every line of _ONE_MODE at a ZPL of 2 eV

# each run: its argv, with {kind} for an input file and bare names for outputs
_RUNS = {
    "modes": ["modes", "--structure", "{structure}", "--hessian", "{hessian}", "--asr",
              "--out", "m.json", "--table", "m.tsv"],
    "hr-pair": ["hr", "--structure", "{structure}", "--modes", "{modes}", "--pair", "{pair}",
                "--out", "hr.json", "--stem", "stem.tsv"],
    "hr-forces": ["hr", "--structure", "{structure}", "--modes", "{modes}",
                  "--forces", "{forces}", "--out", "hr.json"],
    "spectrum": ["spectrum", "--hr", "{hr}", "--zpl", "2.0", "--window", _WINDOW,
                 "--no-omega-cubed", "--out", "s.tsv", "--peaks", "peaks.tsv"],
    "oracle": ["oracle", "--hr", "{hr}", "--zpl", "2.0", "--window", _WINDOW,
               "--out", "o.tsv", "--sticks", "sticks.tsv", "--compare", "{compare}"],
    "thermo": ["thermo", "--defects", "{defects}", "--envelope", "env.tsv",
               "--transitions", "trans.tsv", "--windows", "win.tsv"],
    "dissoc": ["dissoc", "--energies", "{dissociation}", "--out", "ed.tsv"],
}
_TABLES = ("s.tsv", "o.tsv")  # spectrum-shaped outputs: energy first, then intensity


def _inputs(run):
    return [arg[1:-1] for arg in _RUNS[run] if arg.startswith("{")]


def _call(argv):
    """main(argv) with its output captured: (code, stderr).
    Warnings are recorded, not shown; a RuntimeWarning, which would reach
    stderr as numpy's noise, fails the call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code = main(argv)
    noise = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
             if issubclass(w.category, RuntimeWarning)]
    assert noise == []
    return code, err.getvalue()


@functools.cache
def _valid_files():
    """Every input of _RUNS as valid bytes: the documents above, plus the
    basis and the comparison spectrum that lumiphon makes from them."""
    files = {kind: json.dumps(doc).encode() for kind, doc in _VALID.items()}
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for kind in ("structure", "hessian", "hr"):
            (work / kind).write_bytes(files[kind])
        assert _call(["modes", "--structure", str(work / "structure"), "--hessian",
                      str(work / "hessian"), "--asr", "--out", str(work / "modes")])[0] == 0
        assert _call(["spectrum", "--hr", str(work / "hr"), "--zpl", "2.0", "--window", _WINDOW,
                      "--no-omega-cubed", "--out", str(work / "compare")])[0] == 0
        files["modes"] = (work / "modes").read_bytes()
        files["modes.f8"] = (work / "modes.f8").read_bytes()
        files["compare"] = (work / "compare").read_bytes()
    return files


def _files(run):
    """The valid inputs of run, with the basis's payload beside its document."""
    files = {kind: _valid_files()[kind] for kind in _inputs(run)}
    if "modes" in files:
        files["modes.f8"] = _valid_files()["modes.f8"]
    return files


_PREFIXES = ("error: ", "numerical error: ")


def _no_constant(token):
    pytest.fail(f"non-finite literal {token} written")


def _rows(text):
    return [line.split("\t") for line in text.splitlines() if not line.startswith("#")]


def _check_accepted(work, made):
    """The contract of every file an exit-0 call wrote."""
    for name in made:
        path = work / name
        if name.endswith(".f8"):  # a basis payload: raw float64, each finite
            assert np.isfinite(np.frombuffer(path.read_bytes(), dtype="<f8")).all(), name
            continue
        if name.endswith(".json"):
            doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
            assert isinstance(doc, dict) and "schema" in doc, name
            continue
        columns = path.read_text(encoding="utf-8").split("# columns: ", 1)[1].split("\n", 1)[0]
        numeric = [c not in ("label", "quanta", "lvm", "stable") for c in columns.split("\t")]
        for row in _rows(path.read_text(encoding="utf-8")):
            assert len(row) == len(numeric), (name, row)
            assert all(math.isfinite(float(v)) for v, n in zip(row, numeric) if n), (name, row)
    for name in set(made) & set(_TABLES):
        rows = np.array(_rows((work / name).read_text(encoding="utf-8")), dtype=float)
        rows = rows.reshape(-1, 2)
        energy, intensity = rows.T
        assert energy.size >= 2 and np.all(np.diff(energy) > 0), name
        if name == "s.tsv":
            assert abs(np.trapezoid(intensity, energy) - 1.0) <= 1e-8


def _run(argv, files):
    """Write files into a fresh directory, run argv there and check the
    exit contract; returns the exit code, the text of each table written
    and the call's stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for name, data in files.items():
            (work / name).write_bytes(data)
        args = [
            str(work / arg[1:-1]) if arg.startswith("{")
            else str(work / arg) if arg.endswith((".json", ".tsv"))
            else arg
            for arg in argv
        ]
        code, err = _call([*args, "--manifest", str(work / "manifest.json")])
        assert code in (0, 2, 3), err
        made = sorted({p.name for p in work.iterdir()} - set(files))
        if code:
            prefix = "error: " if code == 2 else "numerical error: "
            errors = [ln for ln in err.splitlines() if ln.startswith(_PREFIXES)]
            assert len(errors) == 1 and errors[0].startswith(prefix), err
            assert made == [], made
        else:
            assert "manifest.json" in made
            _check_accepted(work, made)
        tables = {name: (work / name).read_text(encoding="utf-8") for name in made
                  if name.endswith(".tsv")}
        return code, tables, err


# ------------------------------------------------------- byte strategies

def _json_values():
    return st.one_of(
        _floats(),
        st.sampled_from([0, -1, 2**53 + 1, 10**20, 10**400, True, None, "", "C", [], {}]),
        st.lists(_floats(), max_size=3),
    )


@st.composite
def _replace_one_field(draw, doc):
    """doc as JSON text with one value, anywhere in it, replaced."""
    doc = json.loads(json.dumps(doc))
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            paths.append(path + (key,))
            if isinstance(value, (dict, list)):
                walk(value, path + (key,))

    walk(doc, ())
    path = draw(st.sampled_from(paths))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(_json_values())
    return json.dumps(doc)


def _document_bytes(kind):
    valid = _valid_files()[kind]
    text = valid.decode()
    is_json = kind != "compare"
    # an unknown field or a comment holding characters past ASCII: only
    # their UTF-8 encoding is read
    accented = text.rstrip()[:-1] + ',"note":"é"}' if is_json else text + "# é\n"
    nesting = st.integers(1, 100_000)
    options = [
        st.just(valid),
        st.binary(max_size=64),
        st.text(max_size=64).map(lambda t: t.encode("utf-8")),
        st.integers(0, len(valid) - 1).map(lambda k: valid[:k]),
        st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-be", "utf-32", "latin-1",
                         "cp1252"]).map(accented.encode),
        nesting.map(lambda n: b"[" * n + b"]" * n),
        nesting.map(lambda n: b'{"a":' * n + b"1" + b"}" * n),
    ]
    if is_json:
        options += [
            nesting.map(
                lambda n: text.replace('"schema"', f'"x":{"[" * n}{"]" * n},"schema"', 1).encode()
            ),
            _replace_one_field(json.loads(text)).map(str.encode),
        ]
    return st.one_of(*options)


@st.composite
def _document_cases(draw):
    run = draw(st.sampled_from(sorted(_RUNS)))
    kind = draw(st.sampled_from(_inputs(run)))
    return run, kind, draw(_document_bytes(kind))


@settings(max_examples=examples(100), deadline=None)
@given(case=_document_cases())
@example(case=("spectrum", "hr", b"\xff\xfe{}"))
@example(case=("oracle", "compare", b"# x\n\xff\t1\n"))
@example(case=("spectrum", "hr", b"[" * 100_000 + b"]" * 100_000))
@example(case=("modes", "hessian", b"[" * 100_000 + b"]" * 100_000))
def test_every_document_flag_on_generated_bytes(case):
    run, kind, data = case
    files = _files(run)
    files[kind] = data
    code, _, _ = _run(_RUNS[run], files)
    if data == _valid_files()[kind]:
        assert code == 0


# ------------------------------------------------------- basis payload

def _hr_files(payload, **vectors):
    """The inputs of hr --pair with the basis's payload file holding
    `payload` (None: no payload file) and its document's vectors fields
    updated by `vectors`."""
    files = _files("hr-pair")
    doc = json.loads(files["modes"])
    doc["vectors"].update(vectors)
    files["modes"] = json.dumps(doc).encode()
    del files["modes.f8"]
    if payload is not None:
        files["modes.f8"] = payload
    return files


def _entries(payload):
    return np.frombuffer(payload, dtype="<f8")


def _with_nan(payload, k):
    entries = _entries(payload).copy()
    entries[k] = math.nan
    return entries.tobytes()


def _rows_reversed(payload):
    """The payload of another basis of the same size: the rows reversed."""
    n = math.isqrt(_entries(payload).size)
    return _entries(payload).reshape(n, n)[::-1].tobytes()


@st.composite
def _damaged_payloads(draw):
    valid = _valid_files()["modes.f8"]
    size = len(valid)
    return draw(st.one_of(
        st.none(),  # missing
        st.integers(0, size - 1).map(lambda k: valid[:k]),  # truncated, one byte, empty
        st.binary(min_size=size, max_size=size),  # junk of the right size
        st.binary(max_size=2 * size),  # junk of any size
        st.just(valid + valid[:8]),  # one entry too many
        st.just(_rows_reversed(valid)),  # stale: another basis of the same size
        st.integers(0, size // 8 - 1).map(lambda k: _with_nan(valid, k)),
    ))


@settings(max_examples=examples(40), deadline=None)
@given(payload=_damaged_payloads())
@example(payload=None)
@example(payload=b"\0")
def test_hr_refuses_a_damaged_basis_payload(payload):
    code, _, err = _run(_RUNS["hr-pair"], _hr_files(payload))
    assert code == 2 and "[at /vectors/" in err, err


@pytest.mark.parametrize("k", [0, 7, 35])
def test_hr_refuses_a_nan_entry_of_a_hashed_payload(k):
    # the sha256 matches, so the finite check names the entry
    payload = _with_nan(_valid_files()["modes.f8"], k)
    files = _hr_files(payload, sha256=hashlib.sha256(payload).hexdigest())
    code, _, err = _run(_RUNS["hr-pair"], files)
    assert code == 2 and f"/vectors/file: vectors[{k // 6},{k % 6}] is not finite" in err, err


@pytest.mark.parametrize(
    "name", ["../x.f8", "/modes.f8", os.devnull, ".", "..", "", "sub/x.f8", "modes.f8/", "x\0.f8"]
)
def test_hr_refuses_a_payload_name_outside_the_directory(name):
    valid = _valid_files()["modes.f8"]
    code, _, err = _run(_RUNS["hr-pair"], _hr_files(valid, file=name))
    assert code == 2 and "[at /vectors/file]" in err, err


# ------------------------------------------------------- output names

def _output_flags(run):
    """(flag, default name) of each output of run, --manifest last."""
    argv = _RUNS[run]
    flags = [(argv[i - 1], arg) for i, arg in enumerate(argv) if arg.endswith((".json", ".tsv"))]
    return [*flags, ("--manifest", "manifest.json")]


@st.composite
def _output_cases(draw):
    """A run whose outputs are each named from a pool: its own name, its
    inputs, its other outputs, a basis vectors file, a directory, a path
    in a missing directory, one under a regular file and, when directory
    permissions hold (not for root), one in a read-only directory; and
    the outputs an earlier run left."""
    run = draw(st.sampled_from(sorted(_RUNS)))
    flags = _output_flags(run)
    inputs = _inputs(run)
    pool = sorted({*inputs, *(name for _, name in flags), "modes.f8", "m.json.f8", "sub",
                   "nodir/x.tsv", f"{inputs[0]}/x.tsv", *(["ro/x.tsv"] if os.geteuid() else [])})
    names = [draw(st.one_of(st.just(name), st.sampled_from(pool))) for _, name in flags]
    earlier = draw(st.sets(st.sampled_from([name for _, name in flags])))
    return run, names, sorted(earlier)


def _faults(run, names):
    """The flags of the outputs main must refuse: each naming a file that
    another output or an input names (a basis vectors file included), or
    a directory, or a path under anything but a writable directory."""
    files = [(flag, name) for (flag, _), name in zip(_output_flags(run), names)]
    if run == "modes":  # --out's vectors file is written too
        files.append(("--out", names[0] + ".f8"))
    taken = set(_files(run))
    faults = set()
    for i, (flag, name) in enumerate(files):
        clash = [other for other, n in files[:i] if n == name]
        if clash or name in taken or name == "sub" or "/" in name:
            faults.update([flag, *clash])
    return faults


@settings(max_examples=examples(50), deadline=None)
@given(case=_output_cases())
# test_cli's reproducers cover the other refusals named in its ids
@example(case=("hr-pair", ["modes.f8", "stem.tsv", "manifest.json"], []))
def test_outputs_that_clash_or_cannot_be_written_are_refused_before_any_write(case):
    run, names, earlier = case
    faults = _faults(run, names)
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for name, data in _files(run).items():
            (work / name).write_bytes(data)
        for name in earlier:
            (work / name).write_bytes(b"# an earlier output\n")
        (work / "sub").mkdir()
        (work / "ro").mkdir(mode=0o555)
        before = {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
        outputs = iter(names)
        argv = [
            str(work / arg[1:-1]) if arg.startswith("{")
            else str(work / next(outputs)) if arg.endswith((".json", ".tsv"))
            else arg
            for arg in _RUNS[run]
        ]
        code, err = _call([*argv, "--manifest", str(work / next(outputs))])
        after = {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
    if not faults:
        assert code == 0, err
        written = {str(p) for p, data in after.items() if before.get(p) != data}
        assert written <= {*names, *([names[0] + ".f8"] if run == "modes" else [])}, written
        return
    errors = [ln for ln in err.splitlines() if ln.startswith(_PREFIXES)]
    assert code == 2 and len(errors) == 1 and errors[0].startswith("error: "), err
    assert any(flag in errors[0] for flag in faults), (faults, errors)
    assert after == before


# --------------------------------------------- spectrum and oracle flags

_SPECIAL = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-5, 0.5, 1.0, 2.0, 1e300,
            1.7976931348623157e308]


def _floats(lo=None, hi=None):
    """Finite floats: the special values above, a log-uniform magnitude in
    1e-300 .. 1e300 and hypothesis' own floats, each of either sign, and,
    given lo and hi, the physical band between them."""
    magnitude = st.one_of(
        st.sampled_from(_SPECIAL),
        st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299)),
        st.floats(0.0, allow_infinity=False),
    )
    signed = st.builds(lambda x, neg: -x if neg else x, magnitude, st.booleans())
    if lo is None:
        return signed
    return st.one_of(st.floats(lo, hi), signed)


@st.composite
def _hr_documents(draw):
    """hr/1 text of 0 to 4 entries: omegas ascending (ties included), total
    the sum of sk on most draws, and now and then an integer in a field."""
    n = draw(st.integers(0, 4))
    omegas = sorted(draw(st.lists(_floats(1.0, 200.0).map(abs), min_size=n, max_size=n)))
    sks = draw(st.lists(_floats(0.0, 3.0).map(abs), min_size=n, max_size=n))
    qks = draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n))
    try:
        total = math.fsum(sks)
    except OverflowError:
        total = 1.7976931348623157e308
    if draw(st.integers(0, 4)) == 0:
        total = draw(_floats(0.0, 3.0))
    doc = {
        "schema": "hr/1",
        "total": total,
        "entries": [{"omega_mev": w, "qk": q, "sk": s} for w, q, s in zip(omegas, qks, sks)],
    }
    if n and draw(st.integers(0, 5)) == 0:
        entry = draw(st.sampled_from(doc["entries"]))
        entry[draw(st.sampled_from(sorted(entry)))] = draw(
            st.sampled_from([0, 1, 140, 10**20, 10**308, 10**400])
        )
    return json.dumps(doc)


def _flag(name, values):
    """--name=value for a drawn value, or nothing (the default)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v!r}"]))


def _window():
    band = st.tuples(_floats(0.2, 2.2), _floats(0.2, 2.2))
    return st.one_of(st.just([]), band.map(lambda w: [f"--window={w[0]!r}:{w[1]!r}"]))


@st.composite
def _spectrum_flags(draw):
    flags = ["--zpl=%r" % draw(_floats(0.5, 5.0))]
    for name, lo, hi in (("gamma", 0.01, 10.0), ("sigma", 0.5, 20.0), ("step", 0.01, 1.0),
                         ("cutoff", 0.0, 200.0)):
        flags += draw(_flag(name, _floats(lo, hi)))
    flags += draw(_window())
    flags += draw(st.sampled_from([[], ["--no-omega-cubed"]]))
    return flags


@st.composite
def _oracle_flags(draw):
    flags = ["--zpl=%r" % draw(_floats(0.5, 5.0))]
    for name, lo, hi in (("gamma", 0.01, 10.0), ("sigma", 0.0, 20.0), ("step", 0.01, 1.0)):
        flags += draw(_flag(name, _floats(lo, hi)))
    flags += draw(_flag("max-quanta", st.sampled_from([-1, 0, 1, 4, 16, 60, 10**30])))
    flags += draw(_window())
    return flags


@settings(max_examples=examples(45), deadline=None)
@given(doc=_hr_documents(), flags=_spectrum_flags())
# a ZPL past every time step, one whose 9-digit energies collapse, and
# three whose 9-digit energies moved the integral read back by 5e-5, 2e-6
# and 4.8e-7 while spectrum normalized over the float energies
@example(doc=_ONE_MODE, flags=["--zpl=1e300", "--window=2.55:2.65"])
@example(doc=_ONE_MODE, flags=["--zpl=1000000.0"])
@example(doc=_NO_MODE, flags=["--zpl=100.0", "--step=0.6875"])
@example(
    doc=_ONE_MODE,
    flags=["--zpl=3.0", "--gamma=0.2265625", "--step=0.2265625", "--sigma=1.0",
           "--no-omega-cubed"],
)
@example(
    doc='{"schema":"hr/1","total":0.9768966746550835,"entries":[{"omega_mev":108.0198535068398,'
        '"qk":0.0,"sk":0.9768966746550835}]}',
    flags=["--zpl=3.810079640640673", "--gamma=0.10173251776548731",
           "--step=0.024257018847683377", "--sigma=2.0040929103757428", "--no-omega-cubed"],
)
def test_spectrum_on_generated_documents_and_flags(doc, flags):
    argv = ["spectrum", "--hr", "{hr}", *flags, "--out", "s.tsv", "--peaks", "peaks.tsv"]
    _run(argv, {"hr": doc.encode()})


@settings(max_examples=examples(45), deadline=None)
@given(doc=_hr_documents(), flags=_oracle_flags())
# 10 gamma of padding at the step: 2e8 points
@example(
    doc=_S30,
    flags=["--zpl=2.6", "--max-quanta=0", "--gamma=1000000.0", "--window=1e-06:0.100001"],
)
def test_oracle_on_generated_documents_and_flags(doc, flags):
    argv = ["oracle", "--hr", "{hr}", *flags, "--out", "o.tsv", "--sticks", "sticks.tsv"]
    _run(argv, {"hr": doc.encode()})


# ------------------------------------------------ thermo and dissoc tables

_EPS = 2.0**-52
_LABELS = st.text(alphabet="ab2_é", min_size=1, max_size=4)
# offsets that put lines or sums within rounding of a tie
_NUDGES = st.sampled_from([0.0, 0.0, 5e-324, -1e-15, 1e-15, 1e-12, -1e-9])


def _half_unit(text):
    """Exact bound on the rounding of a value %.9g printed as text."""
    value = float(text)
    return Fraction(0) if value == 0 else Fraction(1, 2) * Fraction(10) ** (
        math.floor(math.log10(abs(value))) - 8)


def _float_error(magnitude, ops):
    """Bound on the rounding of ops float additions or products of terms
    whose absolute values sum to magnitude; 0 past the float range, where
    the bound says nothing."""
    bound = ops * _EPS * magnitude
    return Fraction(bound) if math.isfinite(bound) else None


@st.composite
def _defect_tables(draw):
    """defects/1 of 1 to 4 labels with 1 to 4 charges each.  Adjacent
    charges of a label mostly cross at drawn Fermi levels in the gap, in
    rising order or not (negative U), each level now and then within a
    nudge of the one before (near-ties); other energies span the float range."""
    host = {
        "host_energy_ev": draw(_floats(-2000.0, -10.0)),
        "vbm_ev": draw(_floats(-2.0, 8.0)),
        "gap_ev": draw(_floats(0.1, 5.0)),
        "chemical_potentials": {
            sp: {"reference_energy_ev": draw(_floats(-10.0, -1.0)),
                 "delta_ev": draw(_floats(-1.0, 0.0))}
            for sp in ("C", "Si")
        },
    }
    potentials = host["chemical_potentials"]
    entries = []
    for label in draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True)):
        charges = sorted(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True)),
                         reverse=True)
        levels = [draw(st.floats(0.0, 5.0))]
        for _ in charges[2:]:
            levels.append(draw(st.one_of(st.floats(0.0, 5.0), _NUDGES.map(levels[-1].__add__))))
        if draw(st.booleans()):
            levels.sort()
        intercept = draw(_floats(-5.0, 5.0))  # E_f at E_Fermi = 0 of the highest charge
        for i, q in enumerate(charges):
            if i:  # meets the line of the charge before at levels[i - 1]
                intercept += (charges[i - 1] - q) * levels[i - 1]
            stoichiometry = draw(st.dictionaries(st.sampled_from(["C", "Si"]),
                                                 st.integers(-2, 2), max_size=2))
            correction = draw(st.one_of(st.just(0.0), _floats(-1.0, 1.0)))
            reservoir = sum(
                n * (potentials[sp]["reference_energy_ev"] + potentials[sp]["delta_ev"])
                for sp, n in stoichiometry.items()
            )
            energy = draw(st.one_of(
                st.just(intercept + host["host_energy_ev"] - reservoir - correction
                        - q * host["vbm_ev"]),
                _floats(-2000.0, 0.0),
            ))
            entries.append({"label": label, "charge": q, "total_energy_ev": energy,
                            "stoichiometry": stoichiometry, "correction_ev": correction})
    return {"schema": "defects/1", "host": host, "entries": entries}


def _formation_lines(doc, label):
    """(charge, exact E_f at E_Fermi = 0, absolute sum of its terms) of
    each entry of label, from the document's floats."""
    host = doc["host"]
    potentials = host["chemical_potentials"]
    lines = []
    for e in doc["entries"]:
        if e["label"] != label:
            continue
        terms = [Fraction(e["total_energy_ev"]), -Fraction(host["host_energy_ev"]),
                 e["charge"] * Fraction(host["vbm_ev"]), Fraction(e["correction_ev"])]
        for sp, n in e["stoichiometry"].items():
            terms += [n * Fraction(potentials[sp]["reference_energy_ev"]),
                      n * Fraction(potentials[sp]["delta_ev"])]
        magnitude = sum(abs(float(t)) for t in terms) + abs(e["charge"]) * host["gap_ev"]
        lines.append((e["charge"], sum(terms), magnitude))
    return lines


@settings(max_examples=examples(30), deadline=None)
# every printed row is checked exactly; a step below 5 meV, the 1 meV
# default included, would only add rows
@given(
    doc=_defect_tables(),
    step=st.one_of(st.floats(5.0, 200.0), st.sampled_from([0.0, -1.0, 5e-324, 1e300])).map(
        lambda v: [f"--fermi-step={v!r}"]),
)
# finite lines whose inverted (negative-U) levels cross past the float range
@example(
    doc={"schema": "defects/1",
         "host": {"host_energy_ev": -10.0, "vbm_ev": 0.0, "gap_ev": 1.0,
                  "chemical_potentials": {
                      "C": {"reference_energy_ev": -1.0, "delta_ev": 0.0},
                      "Si": {"reference_energy_ev": -1.0, "delta_ev": -1.7976931348623157e308}}},
         "entries": [
             {"label": "2", "charge": 3, "total_energy_ev": -10.0, "stoichiometry": {},
              "correction_ev": 0.0},
             {"label": "2", "charge": 2, "total_energy_ev": 0.0, "stoichiometry": {"Si": 1},
              "correction_ev": 0.0},
             {"label": "2", "charge": 1, "total_energy_ev": 9.9792015476736e291,
              "stoichiometry": {}, "correction_ev": 0.0},
             {"label": "2", "charge": 0, "total_energy_ev": -10.0, "stoichiometry": {},
              "correction_ev": 0.0}]},
    step=["--fermi-step=5.0"],
)
def test_thermo_envelope_is_the_least_line_on_generated_tables(doc, step):
    # every printed envelope value is, within its printing and the float
    # rounding of its terms, the least of its label's lines at the printed
    # Fermi level, the lines taken exactly
    argv = ["thermo", "--defects", "{defects}", *step, "--envelope", "env.tsv",
            "--transitions", "trans.tsv", "--windows", "win.tsv"]
    code, tables, _ = _run(argv, {"defects": json.dumps(doc).encode()})
    if code:
        return
    lines = {}
    for label, fermi, formation in _rows(tables["env.tsv"]):
        if label not in lines:
            lines[label] = _formation_lines(doc, label)
        x = Fraction(fermi)
        least = min(intercept + q * x for q, intercept, _ in lines[label])
        charge = max(abs(q) for q, _, _ in lines[label])
        rounding = _float_error(max(m for _, _, m in lines[label]), 16)
        if rounding is None:
            continue
        slack = _half_unit(formation) + charge * _half_unit(fermi) + rounding
        assert abs(Fraction(formation) - least) <= slack, (label, fermi, formation, float(least))
    assert sorted(lines) == sorted({e["label"] for e in doc["entries"]})


@st.composite
def _dissociation_tables(draw):
    """dissociation/1 of 1 to 4 labels; on about half the entries the
    released energy brings E_D within a nudge of zero."""
    entries = []
    for label in draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True)):
        cluster, fragment = draw(_floats(-500.0, -1.0)), draw(_floats(-500.0, -1.0))
        released = draw(st.one_of(
            _floats(-20.0, 0.0), _NUDGES.map(lambda nudge: cluster - fragment + nudge)))
        entries.append({"label": label, "cluster_energy_ev": cluster,
                        "fragment_energy_ev": fragment, "released_energy_ev": released})
    return {"schema": "dissociation/1", "entries": entries}


@settings(max_examples=examples(30), deadline=None)
@given(doc=_dissociation_tables())
def test_dissoc_prints_fragment_plus_released_minus_cluster(doc):
    code, tables, _ = _run(_RUNS["dissoc"], {"dissociation": json.dumps(doc).encode()})
    if code:
        return
    rows = _rows(tables["ed.tsv"])
    assert [row[0] for row in rows] == [e["label"] for e in doc["entries"]]
    for (_, e_d, stable), e in zip(rows, doc["entries"]):
        terms = (e["fragment_energy_ev"], e["released_energy_ev"], -e["cluster_energy_ev"])
        exact = sum(map(Fraction, terms))
        rounding = _float_error(sum(map(abs, terms)), 2)
        if rounding is None:
            continue
        assert abs(Fraction(e_d) - exact) <= _half_unit(e_d) + rounding, (e, e_d)
        if abs(exact) > rounding:
            assert stable == ("true" if exact > 0 else "false"), (e, e_d, stable)
