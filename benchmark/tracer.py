"""A profile hook that opens a span at each call to a public function of a layer.

The layers are modules of ``tropcurve``.  A span is public when its name has
no leading underscore, or is a dunder such as ``__init__``; methods made by
``dataclass`` count.  Nested helpers and private functions get no span: their
time, like time in ``fractions`` and in builtins, counts toward the innermost
open span.  The hook also counts every Python-level call (every frame entered,
generator resumptions included) and the calls into ``fractions``.

Spans are aggregated in memory per function; nothing is written until the
caller asks for ``table()``.
"""

from __future__ import annotations

import fractions
import importlib
import inspect
import sys
import time

LAYERS = ("semifield", "curve", "subgraph", "plfunction", "morphism", "complexes",
          "geometry", "hypersurface", "realization", "io")


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _functions_of(owner) -> dict[str, object]:
    """Public plain functions among an object's attributes, unwrapped."""
    out = {}
    for name, obj in vars(owner).items():
        if not _is_public(name):
            continue
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            obj = obj.fget
        if inspect.isfunction(obj):
            out[name] = obj
    return out


def span_codes() -> dict:
    """Code object -> (layer, qualified name) for every public function and
    method defined in the layer modules."""
    codes = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tropcurve.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                codes[obj.__code__] = (layer, name)
            elif inspect.isclass(obj):
                for attr, fn in _functions_of(obj).items():
                    codes.setdefault(fn.__code__, (layer, f"{name}.{attr}"))
    return codes


class Tracer:
    """Install with ``with tracer:`` around the code to trace; reusable."""

    def __init__(self, codes: dict):
        self.codes = codes
        self.fraction_file = fractions.__file__
        self.py_calls = 0
        self.fraction_calls = 0
        # (layer, name) -> [calls, self seconds, total seconds, fraction calls]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []   # [frame, key, start, child seconds]
        self._active: dict[tuple[str, str], int] = {}

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        self._stack.clear()
        self._active.clear()
        return False

    def _hook(self, frame, event, arg):
        if event == "call":
            self.py_calls += 1
            code = frame.f_code
            if code.co_filename == self.fraction_file:
                self.fraction_calls += 1
                if self._stack:
                    self.stats[self._stack[-1][1]][3] += 1
                return
            key = self.codes.get(code)
            if key is not None:
                row = self.stats.get(key)
                if row is None:
                    row = self.stats[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                self._active[key] = self._active.get(key, 0) + 1
                self._stack.append([frame, key, time.perf_counter(), 0.0])
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            _, key, start, child = self._stack.pop()
            spent = time.perf_counter() - start
            row = self.stats[key]
            row[1] += spent - child
            self._active[key] -= 1
            if not self._active[key]:
                row[2] += spent
            if self._stack:
                self._stack[-1][3] += spent

    def table(self) -> dict:
        """Per function and per layer: calls, self and total seconds, fraction calls."""
        functions = {f"{layer}.{name}": {"calls": c, "self_s": s, "total_s": t,
                                         "fraction_calls": fc}
                     for (layer, name), (c, s, t, fc) in sorted(self.stats.items())}
        layers = {layer: {"calls": 0, "self_s": 0.0, "fraction_calls": 0} for layer in LAYERS}
        for (layer, _), (c, s, _, fc) in self.stats.items():
            row = layers[layer]
            row["calls"] += c
            row["self_s"] += s
            row["fraction_calls"] += fc
        return {"py_calls": self.py_calls, "fraction_calls": self.fraction_calls,
                "layers": layers, "functions": functions}
