"""Self-check of the benchmark's output checks.

Each check must pass on real outputs and fail on a deliberately damaged
copy.  Run from the root of the checkout:

    python3 -m pytest -q lumibench/test_checks.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Demo  # noqa: E402


@pytest.fixture(scope="module")
def demo():
    """One demo pass, run in-process; returns the workload, its outputs and ops."""
    from lumiphon import cli

    base = run.WORK / "selfcheck"
    inputs, out = run._fresh(base / "inputs"), run._fresh(base / "out")
    workload = Demo()
    workload.build(inputs, seed=3)
    workload.reference(inputs)
    ops = workload.ops(inputs, out)
    for op in ops:
        if op.prepare:
            op.prepare()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv) == 0, op.argv
    return workload, out, ops


def test_every_check_passes_on_real_outputs(demo):
    _, _, ops = demo
    for op in ops:
        if op.check:
            op.check()


def test_spectrum_scaled_by_one_percent_fails(demo):
    _, out, _ = demo
    energy, intensity = checks.read_spectrum(out / "spectrum.tsv")
    checks.unit_integral(energy, intensity)
    with pytest.raises(checks.CheckFailed):
        checks.unit_integral(energy, 1.01 * intensity)


def test_basis_with_one_frequency_shifted_fails(demo):
    workload, out, _ = demo
    basis = checks.load_json(out / "modes.json")
    checks.frequencies_match(basis, workload.omegas, zero_modes=3)
    shifted = dict(basis, omegas_mev=list(basis["omegas_mev"]))
    shifted["omegas_mev"][-5] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.frequencies_match(shifted, workload.omegas, zero_modes=3)


def test_lifted_zero_mode_fails(demo):
    workload, out, _ = demo
    basis = checks.load_json(out / "modes.json")
    lifted = dict(basis, omegas_mev=list(basis["omegas_mev"]))
    lifted["omegas_mev"][0] = 0.02
    with pytest.raises(checks.CheckFailed):
        checks.frequencies_match(lifted, workload.omegas, zero_modes=3)


def test_route_total_nudged_by_1e6_fails(demo):
    _, out, _ = demo
    pair = checks.load_json(out / "hr_pair.json")
    forces = checks.load_json(out / "hr_forces.json")
    checks.routes_agree(pair, forces)
    strongest = max(forces["entries"], key=lambda e: e["sk"])
    strongest["sk"] += 1e-6 * forces["total"]
    with pytest.raises(checks.CheckFailed):
        checks.routes_agree(pair, forces)


def test_oracle_off_by_a_ripple_fails(demo):
    _, out, _ = demo
    oracle = checks.read_spectrum(out / "oracle.tsv")
    spectrum = checks.read_spectrum(out / "spectrum_top6.tsv")
    checks.oracle_l1(oracle, spectrum)
    energy, intensity = oracle
    rippled = intensity * (1.0 + 1e-3 * np.sin(energy * 2000.0))
    with pytest.raises(checks.CheckFailed):
        checks.oracle_l1((energy, rippled), spectrum)


def test_dissociation_energy_off_by_1e6_ev_fails(demo):
    workload, out, _ = demo
    rows = checks.read_rows(out / "dissociation.tsv")
    checks.dissociation_energies(workload.dissociation, rows)
    rows[0][1] = repr(float(rows[0][1]) + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.dissociation_energies(workload.dissociation, rows)


def test_transition_with_swapped_charges_fails(demo):
    _, out, _ = demo
    envelope = checks.read_rows(out / "envelope.tsv")
    transitions = checks.read_rows(out / "transitions.tsv")
    checks.envelope_slopes(envelope, transitions)
    label, q_from, q_to, *rest = transitions[0]
    with pytest.raises(checks.CheckFailed):
        checks.envelope_slopes(envelope, [[label, q_to, q_from, *rest]])


def test_transition_moved_by_10_mev_fails(demo):
    _, out, _ = demo
    envelope = checks.read_rows(out / "envelope.tsv")
    label, q_from, q_to, level, below = checks.read_rows(out / "transitions.tsv")[0]
    moved = [[label, q_from, q_to, repr(float(level) + 0.01), below]]
    with pytest.raises(checks.CheckFailed):
        checks.envelope_slopes(envelope, moved)


def _zpl_spectrum(gamma_mev, zpl_weight):
    """ZPL Lorentzian of `zpl_weight` plus a one-phonon Gaussian, I = E^3 A."""
    zpl = 2.6
    energy = np.arange(2.3, 2.65, gamma_mev / 1000.0)
    g = gamma_mev / 1000.0
    lorentz = (g / math.pi) / ((energy - zpl) ** 2 + g * g)
    band = np.exp(-0.5 * ((energy - (zpl - 0.1)) / 0.01) ** 2) / (0.01 * math.sqrt(2 * math.pi))
    intensity = (zpl_weight * lorentz + (1.0 - zpl_weight) * band) * energy**3
    return energy, intensity / np.trapezoid(intensity, energy), zpl


@pytest.mark.parametrize("s_total", [0.1, 1.0, 3.0])
def test_zpl_area_passes_on_exact_weight_and_fails_two_percent_off(s_total):
    energy, intensity, zpl = _zpl_spectrum(0.1, math.exp(-s_total))
    checks.zpl_area(energy, intensity, zpl, 0.1, s_total)
    energy, intensity, zpl = _zpl_spectrum(0.1, 1.02 * math.exp(-s_total))
    with pytest.raises(checks.CheckFailed):
        checks.zpl_area(energy, intensity, zpl, 0.1, s_total)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == ["demo", "supercell", "lineshape"]
