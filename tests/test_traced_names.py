"""The benchmark's per-layer metrics name lumiphon functions; each must exist.

lumibench/run.py sums the self time of the span named after each `_s`
metric (or the spans SPANS lists for it), and lumibench/tracing.py takes
counts from the results of the calls RESULT_COUNTS names.  A renamed
function would zero its metric without an error, so this reads those
tables and resolves every name against lumiphon.
"""

import argparse
import importlib
import importlib.util
import inspect
import os
import pathlib
from unittest import mock

import numpy as np
import pytest

from lumiphon import cli, phonons

BENCH = pathlib.Path(__file__).resolve().parent.parent / "lumibench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"lumibench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins BLAS threads in os.environ when it loads
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


run = _load("run")
tracing = _load("tracing")

# metrics run.py computes itself instead of from a lumiphon span or result
_OWN_METRICS = {"cli.import_s", "cli.wall_s", "cli.calls", "io.bytes_read", "io.bytes_written"}


def _resolve(span):
    layer, _, attr = span.partition(".")
    assert layer in tracing.LAYERS, f"{span}: layer {layer!r} is not traced"
    module = importlib.import_module(f"lumiphon.{layer}")
    obj = getattr(module, attr, None)
    assert callable(obj), f"{span} names nothing in {module.__name__}"
    # the tracer shims only public functions defined in the module itself
    if inspect.isfunction(obj):
        assert obj.__module__ == module.__name__ and not attr.startswith("_"), span


def _spans():
    for name, unit in run.LAYER_METRICS.items():
        if unit == "s" and name not in _OWN_METRICS and not name.startswith("cli."):
            yield from run.SPANS.get(name, (name[: -len("_s")],))


@pytest.mark.parametrize("span", sorted(set(_spans()) | set(tracing.RESULT_COUNTS)))
def test_every_traced_name_exists(span):
    _resolve(span)


def test_every_count_metric_has_a_source():
    counted = {count for count, _ in tracing.RESULT_COUNTS.values()}
    for name, unit in run.LAYER_METRICS.items():
        if unit == "count" and name not in _OWN_METRICS:
            assert name in counted, f"no traced result counts {name}"


def test_every_timed_subcommand_exists():
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(run.SUBCOMMAND_MODULES) <= set(subparsers.choices)
    for modules in run.SUBCOMMAND_MODULES.values():
        for module in modules:
            importlib.import_module(f"lumiphon.{module}")


def test_diagonalize_result_carries_the_mode_count():
    count, value = tracing.RESULT_COUNTS["phonons.diagonalize"]
    assert count == "phonons.modes"
    assert value(phonons.diagonalize(np.diag([1.0, 2.0, 3.0]))) == 3


def test_tracer_installs_and_restores_every_patched_attribute():
    # install() fails on an attribute it patches that a refactor deleted
    # (PhononBasis.__post_init__ among them); uninstall() puts back each
    from lumiphon import model

    modules = [importlib.import_module(f"lumiphon.{layer}") for layer in tracing.LAYERS]
    before = [dict(vars(module)) for module in modules]
    init = model.PhononBasis.__post_init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.PhononBasis.__post_init__ is not init
        assert phonons.diagonalize is not before[modules.index(phonons)]["diagonalize"]
    finally:
        tracer.uninstall()
    assert model.PhononBasis.__post_init__ is init
    for module, attrs in zip(modules, before):
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[name] is obj for name, obj in attrs.items()), module
