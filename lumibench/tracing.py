"""Timing shims for the traced run.

`Tracer.install()` replaces every public function of lumiphon's io, model,
phonons, vibronic, fcoracle and energetics modules (and
`PhononBasis.__post_init__`) with a shim that records a span: name, start,
end and the index of the enclosing span.  The CLI calls these functions
through their module attributes, and the modules call each other through
their globals, so the spans follow the calls the program really makes.
Nothing in lumiphon is edited; `uninstall()` puts the originals back.

Spans stay in memory until `dump()`.  A span's self time is its duration
minus the durations of its direct children.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("io", "model", "phonons", "vibronic", "fcoracle", "energetics")

# span name -> (count name, value taken from the wrapped call's result)
RESULT_COUNTS = {
    "phonons.diagonalize": ("phonons.modes", lambda r: r.nmodes),
    "vibronic.make_time_grid": ("vibronic.time_grid_points", len),
    "vibronic.lineshape": ("vibronic.output_points", lambda r: r.energy_ev.size),
    "vibronic.effective_mode_report": ("vibronic.labelled_peaks", len),
    "fcoracle.enumerate_fc": ("fcoracle.ladder_lines", lambda r: r.nlines),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.enabled = True
        self._stack = []  # (span index, counts file bytes)
        self._undo = []

    # ---------------------------------------------------------------- spans

    def _open(self, name, counts_bytes=False):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append((len(self.spans) - 1, counts_bytes))

    def _close(self):
        index, _ = self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: glue and checks of the benchmark itself."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def self_times(self):
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def total_times(self):
        out = collections.Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    # ---------------------------------------------------------------- shims

    def _shim(self, name, fn):
        count = RESULT_COUNTS.get(name)
        signature = inspect.signature(fn)
        # io functions taking a `path` read or write that file; the
        # outermost one on the stack counts its size
        direction = None
        if name.startswith("io.") and "path" in signature.parameters:
            direction = "io.bytes_written" if ".write_" in name else "io.bytes_read"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            counts_bytes = direction is not None and not any(
                outer for _, outer in self._stack
            )
            self._open(name, counts_bytes)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counts_bytes:
                path = signature.bind(*args, **kwargs).arguments["path"]
                self.counts[direction] += os.path.getsize(path)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return shim

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"lumiphon.{layer}")
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    setattr(module, attr, self._shim(f"{layer}.{attr}", obj))
                    self._undo.append((module, attr, obj))
        basis = importlib.import_module("lumiphon.model").PhononBasis
        original = basis.__post_init__
        basis.__post_init__ = self._shim("model.PhononBasis", original)
        self._undo.append((basis, "__post_init__", original))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()
