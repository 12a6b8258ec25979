"""Output checks of the benchmark.

Every check reads the files a subcommand wrote with plain json/numpy and
compares them against a computation made here, apart from lumiphon, or
against a property the method must have.  None compares against a stored
copy of earlier output.  A failed check raises `CheckFailed`.
"""

import json
import math

import numpy as np

# CODATA hbar in meV fs, and 1 eV/(amu A^2) in (rad/fs)^2
HBAR_MEV_FS = 658.2119569
EV_PER_AMU_A2 = 9.64853322e-3

# Basis frequencies against eigvalsh: |w|w| - w'|w'|| <= FREQ_TOL * w_max^2
FREQ_TOL = 1e-9
# The rigid translations of a free cluster
ZERO_MODE_MEV = 0.01


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_rows(path):
    """Data rows of a lumiphon TSV table, as lists of strings."""
    with open(path, "r", encoding="utf-8") as fh:
        return [
            line.rstrip("\n").split("\t")
            for line in fh
            if line.strip() and not line.startswith("#")
        ]


def read_spectrum(path):
    data = np.array(read_rows(path), dtype=float)
    return data[:, 0], data[:, 1]


# ------------------------------------------------------------ references

def hessian_frequencies_mev(hessian_doc, structure_doc):
    """Signed mode energies of the mass-weighted Hessian, via eigvalsh."""
    h = np.array(hessian_doc["matrix"], dtype=float)
    m = np.repeat([float(site["mass"]) for site in structure_doc["sites"]], 3)
    inv = 1.0 / np.sqrt(m)
    d = h * np.outer(inv, inv)
    lam = np.linalg.eigvalsh(0.5 * (d + d.T))
    return np.sign(lam) * HBAR_MEV_FS * np.sqrt(np.abs(lam) * EV_PER_AMU_A2)


# ---------------------------------------------------------------- checks

def frequencies_match(basis_doc, reference_mev, zero_modes=0):
    omegas = np.array(basis_doc["omegas_mev"], dtype=float)
    ref = np.sort(reference_mev)
    _require(
        omegas.shape == ref.shape,
        f"basis has {omegas.size} modes, the Hessian {ref.size}",
    )
    dev = np.abs(omegas * np.abs(omegas) - ref * np.abs(ref))
    limit = FREQ_TOL * float(np.max(np.abs(ref))) ** 2
    worst = int(np.argmax(dev))
    _require(
        dev[worst] <= limit,
        f"mode {worst}: {omegas[worst]!r} meV against eigvalsh {ref[worst]!r} meV",
    )
    low = np.abs(omegas[:zero_modes])
    _require(
        np.all(low < ZERO_MODE_MEV),
        f"lowest {zero_modes} modes {low.tolist()} meV are not all below "
        f"{ZERO_MODE_MEV} meV",
    )


def routes_agree(hr_pair, hr_forces, rel=1e-9):
    """Both routes give the same S summed over the vibrational modes.

    The force route cannot resolve modes at or below ZERO_MODE_MEV and
    drops them; the displacement route keeps whatever S_k those carry, so
    the sums are taken over the modes both routes resolve.
    """

    def vibrational(doc):
        return math.fsum(e["sk"] for e in doc["entries"] if e["omega_mev"] > ZERO_MODE_MEV)

    a, b = vibrational(hr_pair), vibrational(hr_forces)
    _require(
        abs(a - b) <= rel * max(abs(a), abs(b)),
        f"S over vibrational modes differs between routes: {a!r} against {b!r}",
    )


def unit_integral(energy, intensity, tol=1e-6):
    integral = float(np.trapezoid(intensity, energy))
    _require(abs(integral - 1.0) <= tol, f"spectrum integrates to {integral!r}")


def zpl_area(energy, intensity, zpl_ev, gamma_mev, s_total, rel=0.01):
    """Zero-phonon weight: the Lorentzian of weight e^-S within +-20 gamma."""
    a = intensity / energy**3
    a = a / np.trapezoid(a, energy)
    near = np.abs(energy - zpl_ev) <= 20.0 * gamma_mev / 1000.0
    area = float(np.trapezoid(a[near], energy[near]))
    expected = math.exp(-s_total) * (2.0 / math.pi) * math.atan(20.0)
    _require(
        abs(area / expected - 1.0) <= rel,
        f"ZPL area {area:.6g} against e^-S (2/pi) atan 20 = {expected:.6g}",
    )


def oracle_l1(oracle, spectrum, limit=1e-4):
    (e1, i1), (e2, i2) = oracle, spectrum
    _require(
        e1.shape == e2.shape and np.allclose(e1, e2, rtol=0, atol=1e-9),
        "oracle and spectrum are sampled on different grids",
    )
    a = i1 / np.trapezoid(i1, e1)
    b = i2 / np.trapezoid(i2, e2)
    l1 = float(np.trapezoid(np.abs(a - b), e1))
    _require(l1 < limit, f"oracle L1 distance {l1:.3e} is not below {limit}")


def dissociation_energies(table_doc, rows, tol=1e-8):
    want = {
        r["label"]: r["fragment_energy_ev"] + r["released_energy_ev"] - r["cluster_energy_ev"]
        for r in table_doc["entries"]
    }
    got = {label: float(value) for label, value, _ in rows}
    _require(set(got) == set(want), f"labels {sorted(got)} against {sorted(want)}")
    for label, value in want.items():
        _require(
            abs(got[label] - value) <= tol * max(1.0, abs(value)),
            f"{label}: e_d_ev {got[label]!r} against {value!r}",
        )


def envelope_slopes(envelope_rows, transition_rows, tol=1e-3):
    """Left of each level the envelope rises with q_from, right with q_to."""
    _require(transition_rows, "thermo listed no transition")
    curves = {}
    for label, fermi, energy in envelope_rows:
        curves.setdefault(label, []).append((float(fermi), float(energy)))
    for label, q_from, q_to, level, _ in transition_rows:
        x, y = np.array(curves[label]).T
        level = float(level)
        for side, charge in ((-1.0, int(q_from)), (1.0, int(q_to))):
            # samples between 1 and 4 meV from the level, on one side
            offset = side * (x - level)
            near = (offset >= 1e-3) & (offset <= 4e-3)
            _require(np.count_nonzero(near) >= 2, f"{label}: too few samples at {level}")
            slope = np.polyfit(x[near], y[near], 1)[0]
            _require(
                abs(slope - charge) <= tol,
                f"{label}: envelope slope {slope:.6f} beside {level} eV, "
                f"expected charge {charge}",
            )
