"""Per-layer timers installed from outside the program.

`Tracer.install` replaces public functions on multinet's modules with timing
wrappers, at the attribute the CLI looks up at call time. Calls nest: a
layer's self time is its call's time minus that of wrapped calls inside it,
so the self times of one command, plus the root call's own self time
(`cli.self`), add up to the command's traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, layer): the CLI reaches these through module globals.
# A function missing from a later version of the program is skipped and its
# layer reads 0.
TARGETS = (
    ("multinet.cli", "bisect", "spectral.bisect"),
    ("multinet.spectral", "fiedler_vector", "spectral.fiedler_vector"),
    ("multinet.spectral", "sweep_cut", "spectral.sweep_cut"),
    ("multinet.cli", "layer_load", "spectral.layer_load"),
    ("multinet.cli", "stationary", "graph.stationary"),
    ("multinet.cli", "components", "graph.components"),
    ("multinet.cli", "urw_transition", "graph.urw_transition"),
    ("multinet.cli", "compose", "compose.compose"),
    ("multinet.cli", "verify_ego_consistency", "compose.verify_ego_consistency"),
    ("multinet.cli", "verify_layer_consistency",
     "compose.verify_layer_consistency"),
    ("multinet.cli", "transform_layer", "transform.transform"),
    ("multinet.cli", "as_interaction", "transform.transform"),
    ("multinet.cli", "degree_proportional_delay", "transform.transform"),
    ("multinet.io", "read_layers", "io.read_layers"),
    ("multinet.io", "read_dynamics", "io.read_dynamics"),
    ("multinet.io", "read_pi_file", "io.read_pi_file"),
    ("multinet.io", "read_ego_file", "io.read_ego_file"),
    ("multinet.io", "write_super", "io.write_super"),
    ("multinet.io", "read_super", "io.read_super"),
)
ROOT = "cli.self"
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS)) + (ROOT,)


class Tracer:
    """Sums self time per layer over nested timed calls."""

    root = ROOT

    def __init__(self):
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.elapsed = 0.0  # wall time of the outermost calls
        self._stack = []  # per open call: time covered by its child calls
        self._saved = []

    def install(self):
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self):
        """Self time per layer since the previous take, then reset."""
        out, self.self_time = self.self_time, dict.fromkeys(LAYERS, 0.0)
        self.elapsed = 0.0
        return out

    def call(self, layer, fn, *args, **kwargs):
        """Run fn as a call of the given layer."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - start
            self.self_time[layer] += span - self._stack.pop()
            if self._stack:
                self._stack[-1] += span
            else:
                self.elapsed += span

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return traced
