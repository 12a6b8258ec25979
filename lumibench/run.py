#!/usr/bin/env python3
"""Benchmark of the lumiphon command line, end to end and per layer.

    python3 lumibench/run.py --workload {demo,supercell,lineshape} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a lumiphon checkout; it works in `.lumibench/`
there.  It builds the workload's seeded inputs (`setup_s` is the median of
several builds), then repeats whole passes of the workload's subcommand
calls until `--seconds` have gone by and at least the workload's
`min_passes` are done, and checks every output.

--trace 0  every call runs in a fresh `python -m lumiphon` interpreter, one
           at a time; reports the end-to-end metrics (medians over passes).
--trace 1  every call runs `lumiphon.cli.main` in this process with timing
           shims around lumiphon's public functions (tracing.py); reports
           per-layer self times and counts per pass, and writes the spans
           to `.lumibench/<workload>/spans.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An operation is one
subcommand call; it fails on a non-zero exit or a failed output check.
"""

import os
import sys

# BLAS stays at the CLI's default of one thread.  The CLI pins it before
# numpy loads in a fresh interpreter; the traced run imports numpy here,
# so pin it here too.  Subcommand processes get the environment unchanged.
CHILD_ENV = dict(os.environ)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".lumibench"

# lumiphon modules each subcommand imports (the lazy imports of its cmd_*)
SUBCOMMAND_MODULES = {
    "modes": ("io", "phonons"),
    "hr": ("io", "vibronic"),
    "spectrum": ("io", "vibronic"),
    "oracle": ("fcoracle", "io", "vibronic"),
    "thermo": ("energetics", "io"),
    "dissoc": ("energetics", "io"),
}

# per-layer metric -> unit; a `_s` metric is the summed self time of the
# span of the same name, unless SPANS lists its spans
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.wall_s": "s",
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMAND_MODULES},
    "cli.calls": "count",
    "io.load_document_s": "s",
    "io.parse_hessian_s": "s",
    "io.parse_phonon_basis_s": "s",
    "io.write_phonon_basis_s": "s",
    "io.write_hessian_s": "s",
    "io.parse_hr_s": "s",
    "io.write_hr_s": "s",
    "io.write_table_tsv_s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "model.phonon_basis_init_s": "s",
    "phonons.symmetrize_s": "s",
    "phonons.apply_asr_s": "s",
    "phonons.diagonalize_s": "s",
    "phonons.localization_table_s": "s",
    "phonons.modes": "count",
    "vibronic.qk_s": "s",
    "vibronic.partial_hr_s": "s",
    "vibronic.spectral_density_s": "s",
    "vibronic.generating_function_s": "s",
    "vibronic.lineshape_s": "s",
    "vibronic.effective_mode_report_s": "s",
    "vibronic.time_grid_points": "count",
    "vibronic.output_points": "count",
    "vibronic.labelled_peaks": "count",
    "fcoracle.enumerate_fc_s": "s",
    "fcoracle.broadened_oracle_spectrum_s": "s",
    "fcoracle.ladder_lines": "count",
    "energetics.stability_diagram_s": "s",
    "energetics.dissociation_energy_s": "s",
}
SPANS = {
    "io.load_document_s": ("io.load_document", "io.loads_strict"),
    "io.write_table_tsv_s": ("io.write_table_tsv", "io.write_spectrum_tsv", "io.write_stem_tsv"),
    "model.phonon_basis_init_s": ("model.PhononBasis",),
    "vibronic.qk_s": ("vibronic.qk_from_displacement", "vibronic.qk_from_forces"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op, code, where):
        """Count one call that exited with `code`, then run its check."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"{op.argv[0]} exited {code}; see {where}", file=sys.stderr)
            return
        if op.check is None:
            return
        try:
            op.check()
        except Exception as exc:  # a malformed output fails its check too
            self.failed += 1
            self.correct = False
            print(f"{op.argv[0]} output check failed: {exc!r}", file=sys.stderr)


def _prepare(op, tally):
    """Untimed glue before a call; a failure there fails the call."""
    if op.prepare is None:
        return True
    try:
        op.prepare()
        return True
    except Exception as exc:
        tally.attempted += 1
        tally.failed += 1
        print(f"glue before {op.argv[0]} failed: {exc!r}", file=sys.stderr)
        return False


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _spawn(argv, log):
    """Run `python -m lumiphon *argv`; return exit code, wall s, peak RSS in MB."""
    env = dict(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lumiphon", *argv],
            cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss * 1024 / 1e6


def _setup(workload, inputs, seed, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        workload.build(inputs, seed)
        times.append(time.perf_counter() - start)
    workload.reference(inputs)
    return times


def measure(workload, seed, seconds, work):
    """End-to-end metrics, every call in a fresh interpreter."""
    inputs, out, logs = _fresh(work / "inputs"), work / "out", _fresh(work / "logs")
    setup = _setup(workload, inputs, seed, workload.setup_reps)
    tally = Tally()
    walls, rss, written = [], [], []
    start = time.perf_counter()
    while True:
        _fresh(out)
        wall = peak = 0.0
        for i, op in enumerate(workload.ops(inputs, out)):
            if not _prepare(op, tally):
                continue
            log = logs / f"{i}-{op.argv[0]}.log"
            code, took, mb = _spawn(op.argv, log)
            wall += took
            peak = max(peak, mb)
            tally.record(op, code, log)
        walls.append(wall)
        rss.append(peak)
        written.append(sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 1e6)
        if len(walls) >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "output_mb": statistics.median(written),
    }
    return tally, {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def _import_seconds(subcommand):
    """Import time of a subcommand's modules in a fresh interpreter."""
    modules = ", ".join(
        ["lumiphon.cli"] + [f"lumiphon.{m}" for m in SUBCOMMAND_MODULES[subcommand]]
    )
    code = (
        "import time; t = time.perf_counter(); "
        f"import {modules}; print(time.perf_counter() - t)"
    )
    env = dict(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def trace(workload, seed, seconds, work):
    """Per-layer metrics from in-process calls under the timing shims."""
    from lumiphon import cli

    from tracing import Tracer

    inputs, out, logs = _fresh(work / "inputs"), work / "out", _fresh(work / "logs")
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    passes = 0
    start = time.perf_counter()
    try:
        while True:
            tracer.call("bench.setup", workload.build, inputs, seed)
            with tracer.paused():
                if passes == 0:
                    workload.reference(inputs)
                _fresh(out)
                ops = workload.ops(inputs, out)
            for i, op in enumerate(ops):
                with tracer.paused():
                    ready = _prepare(op, tally)
                if not ready:
                    continue
                log = logs / f"{i}-{op.argv[0]}.log"
                with open(log, "w") as fh, contextlib.redirect_stdout(fh):
                    try:
                        code = tracer.call(f"cli.{op.argv[0]}", cli.main, op.argv)
                    except (Exception, SystemExit) as exc:
                        print(repr(exc))
                        code = 1
                with tracer.paused():
                    tally.record(op, code, log)
            passes += 1
            if passes >= workload.min_passes and time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    tracer.dump(work / "spans.json")

    self_times = tracer.self_times()
    totals = tracer.total_times()
    imports = {sub: _import_seconds(sub) for sub in {op.argv[0] for op in ops}}
    values = dict(tracer.counts)
    values["cli.import_s"] = sum(imports[op.argv[0]] for op in ops) * passes
    values["cli.wall_s"] = sum(totals[f"cli.{sub}"] for sub in SUBCOMMAND_MODULES)
    values["cli.calls"] = sum(1 for span in tracer.spans if span[0].startswith("cli."))
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name in values:
            value = values[name]
        elif unit == "s":
            value = sum(self_times[s] for s in SPANS.get(name, (name[: -len("_s")],)))
        else:
            value = 0
        # every pass repeats the same work, so counts divide exactly
        per_pass = value / passes if unit == "s" else value // passes
        metrics[name] = {"value": per_pass, "unit": unit}
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p for p in ("src/lumiphon/cli.py", "scripts/make_demo_inputs.py")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"error: {ROOT} is not a lumiphon checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    work = _fresh(WORK / args.workload)
    run = trace if args.trace else measure
    tally, metrics = run(workload, args.seed, args.seconds, work)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
