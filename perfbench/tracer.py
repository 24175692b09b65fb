"""In-memory layer tracer for the prb_oracle benchmark.

The tracer wraps every public function of the eight prb_oracle layers and
installs each wrapper at every module attribute that binds the function, so
`from x import f` copies (for example `forecasters.base.backward` or the
`nncore.tensor` globals that `attention` and `layer_norm` call) are traced
like the originals. Nothing under `src/` is edited; `uninstall` puts the
original bindings back.

Each call is a span. Its duration is added to the function's inclusive time,
and its duration minus the time its traced children took is added to the
function's self time. Spans are folded into per-function totals as they close
instead of being stored one by one, so memory stays flat across the millions
of nncore calls in a forecast window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from contextlib import contextmanager

PACKAGE = "prb_oracle"
LAYERS = ("traces", "nncore", "likelihoods", "forecasters", "decision", "metrics", "power", "rapp")

# A context manager or generator returns before its body runs, so a span
# around the call would time nothing.
_UNTIMEABLE = {"no_grad"}


def _fit_scope(args, kwargs):
    return ("fit", args[0].kind)


def _predict_scope(args, kwargs):
    return ("predict", args[0].config.kind)


# Calls made inside these functions are counted under (phase, model kind),
# which is how per-step and per-window op counts are split by model.
_SCOPES = {
    ("forecasters", "fit"): _fit_scope,
    ("forecasters", "predict"): _predict_scope,
}

# Functions whose returned list lengths are summed into Tracer.items.
_COUNT_ITEMS = {("traces", "make_windows")}


def import_package() -> list:
    """Import every prb_oracle module, so no module binds an untraced copy later."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(pkg.__path__, PACKAGE + "."):
        if not info.name.endswith("__main__"):  # __main__ runs the CLI on import
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _layer_targets(modules) -> dict:
    """Original function -> (layer, name) for every public layer function."""
    targets = {}
    for mod in modules:
        parts = mod.__name__.split(".")
        if len(parts) < 2 or parts[1] not in LAYERS:
            continue
        layer = parts[1]
        # Model modules share function names (loss, paths, build), so they
        # keep their module as a prefix: "deepar.loss".
        prefix = f"{parts[2]}." if layer == "forecasters" and parts[2:] not in ([], ["base"]) else ""
        for name, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not name.startswith("_") and name not in _UNTIMEABLE
                    and not inspect.isgeneratorfunction(value)):
                targets[value] = (layer, prefix + name)
    return targets


class Tracer:
    """Span totals per (scope, layer, function) for the calls made while installed.

    stats maps (scope, (layer, name)) -> [calls, inclusive_s, self_s], where
    scope is None or ("fit" | "predict", model kind).
    """

    def __init__(self):
        self.modules = import_package()
        self._targets = _layer_targets(self.modules)
        self._wrappers: dict = {}
        self._installed: list[tuple[object, str, object]] = []
        self._stack = [0.0]
        self.scope = None
        self.stats: dict = {}
        self.items: dict = {}
        self.wall_s = 0.0
        self.root_self_s = 0.0
        self.ops = 0

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Bind wrappers at every module attribute that holds a layer function."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value not in self._targets:
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    wrapper = self._wrap(value, self._targets[value])
                    self._wrappers[value] = wrapper
                setattr(mod, name, wrapper)
                self._installed.append((mod, name, value))
        return len(self._installed)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._installed):
            setattr(mod, name, value)
        self._installed.clear()

    def bindings(self) -> list[tuple[str, str, tuple]]:
        """(module, attribute, key) for every binding currently wrapped."""
        return [(mod.__name__, name, self._targets[value])
                for mod, name, value in self._installed]

    def untraced_bindings(self) -> list[str]:
        """Module attributes that still hold a layer function unwrapped."""
        return [f"{mod.__name__}.{name}" for mod in self.modules
                for name, value in vars(mod).items()
                if inspect.isfunction(value) and value in self._targets]

    def _wrap(self, fn, key):
        stack, stats, items, tracer = self._stack, self.stats, self.items, self
        clock = time.perf_counter
        scope_of = _SCOPES.get(key)
        count_items = key in _COUNT_ITEMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer.scope
            if scope_of is not None:
                tracer.scope = scope_of(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                k = (tracer.scope, key)
                tracer.scope = outer
                s = stats.get(k)
                if s is None:
                    stats[k] = [1, dur, dur - child]
                else:
                    s[0] += 1
                    s[1] += dur
                    s[2] += dur - child
            if count_items:
                items[key] = items.get(key, 0) + len(result)
            return result

        return traced

    # -- measurement ----------------------------------------------------------

    @contextmanager
    def op(self):
        """Time one benchmark operation as the root span of the calls it makes."""
        self._stack[:] = [0.0]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self.wall_s += wall
            self.root_self_s += wall - self._stack[0]
            self.ops += 1

    def reset(self) -> None:
        self.stats.clear()
        self.items.clear()
        self.wall_s = self.root_self_s = 0.0
        self.ops = 0

    # -- queries --------------------------------------------------------------

    def total(self, layer=None, name=None, scope=..., field=2) -> float:
        """Sum one field (0 calls, 1 inclusive s, 2 self s) over matching spans."""
        out = 0
        for (sc, (lay, nm)), s in self.stats.items():
            if ((layer is None or lay == layer) and (name is None or nm == name)
                    and (scope is ... or sc == scope)):
                out += s[field]
        return out

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, (layer, _)), s in self.stats.items():
            out[layer] += s[2]
        return out

    def accounting_error(self) -> float:
        """Layer self times plus the unattributed remainder, minus the traced wall time."""
        return sum(self.layer_self().values()) + self.root_self_s - self.wall_s

    def top(self, n: int = 15) -> list[tuple[str, int, float, float]]:
        """The n functions with the most self time: (layer.name, calls, incl s, self s)."""
        merged: dict[str, list] = {}
        for (_, (layer, name)), s in self.stats.items():
            m = merged.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])
            for i in range(3):
                m[i] += s[i]
        ranked = sorted(merged.items(), key=lambda kv: -kv[1][2])[:n]
        return [(name, c, incl, self_s) for name, (c, incl, self_s) in ranked]
