"""In-memory spans around qscheme's layers, installed from outside the package.

Every qscheme module binds the names it imports when it is imported
(`from .core import monic_poly`), so wrapping `core.monic_poly` alone would
miss the calls made through `verify.monic_poly`, `limits.monic_poly`,
`catalog.monic_poly` and `cli.monic_poly`.  `Tracer.installed()` therefore
wraps each traced function once and rebinds every global of every loaded
qscheme module that holds it, patches the `Poly` and `ParameterVector`
methods on the classes themselves, and restores all of it on exit.  The
`lru_cache` objects stay reachable through the saved originals, so callers
can still clear them and read `cache_info()`.

A span records its duration; a layer's self time is the sum of its spans'
durations minus the time of the spans they called.  Spans are aggregated by
name as they close instead of being stored one by one: one eval-cap cycle
makes about a million scalar and 100k polynomial calls.  `qrational.rational` is only counted,
because timing a call that cheap would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
import types
from contextlib import contextmanager
from time import perf_counter

# Modules whose public functions are spans, named by their layer.
LAYERS = (
    "qpolynomial",
    "core",
    "catalog",
    "limits",
    "qseries",
    "symmetry",
    "classifier",
    "verify",
    "cli",
)

# Methods that are spans although they live on a class.
CLASS_METHODS = (
    (
        "qpolynomial",
        "Poly",
        (
            "__add__",
            "__sub__",
            "__neg__",
            "__mul__",
            "__rmul__",
            "__pow__",
            "__call__",
            "compose_affine",
            "deflate",
            "zero",
            "one",
            "x",
            "constant",
            "linear",
        ),
    ),
    (
        "core",
        "ParameterVector",
        (
            "__post_init__",
            "node",
            "eigenvalue",
            "lowering",
            "h_separation_ok",
            "check_h_separation",
            "x_separation_ok",
            "check_x_separation",
        ),
    ),
)

# Formatting done on behalf of the CLI is charged to the cli layer.
CLI_FORMATTERS = ("format_poly", "format_rational")

# Degrees at which the largest monic_poly coefficient is recorded.
BITS_DEGREES = (8, 16, 24)


def coeff_bits(value) -> int:
    """Numerator plus denominator bit length of a rational."""
    return value.numerator.bit_length() + value.denominator.bit_length()


class Tracer:
    """Span totals for one traced region; use `installed()` around it."""

    def __init__(self) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, list] = {}
        self.max_bits = dict.fromkeys(BITS_DEGREES, 0)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = [0]  # open spans of this name; inclusive time counts the outermost

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                depth[0] -= 1
                stats[0] += 1
                stats[2] += duration - frame[1]
                if depth[0] == 0:
                    stats[1] += duration
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_monic(self, args, kwargs, result) -> None:
        n = args[1] if len(args) > 1 else kwargs.get("n")
        if n in self.max_bits and result.coeffs:
            bits = max(coeff_bits(c) for c in result.coeffs)
            if bits > self.max_bits[n]:
                self.max_bits[n] = bits

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        modules = {layer: importlib.import_module(f"qscheme.{layer}") for layer in LAYERS}
        cli = modules["cli"]
        for attr in CLI_FORMATTERS:
            self._patch(cli, attr, self._span(f"cli.{attr}", getattr(cli, attr)))

        qrational = importlib.import_module("qscheme.qrational")
        wrappers = {id(qrational.rational): self._counter("qrational.rational", qrational.rational)}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                observe = self._observe_monic if name == "core.monic_poly" else None
                wrappers[id(obj)] = self._span(name, obj, observe)

        # Every import site: each loaded qscheme module, the bench's own
        # callers reach the same modules through attribute access.
        sites = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "qscheme" or key.startswith("qscheme."))
        ]
        for module in sites:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, staticmethod):
                    self._patch(cls, attr, staticmethod(self._span(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._span(name, raw))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Trace every qscheme call made inside the `with` block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- results ---------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.spans.get(n, (0,))[0] for n in names)

    def inclusive_s(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0))[1] for n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for n, s in self.spans.items() if n.split(".", 1)[0] == layer)

    def self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.spans.items() if n.split(".", 1)[0] == layer)

    def count(self, name: str) -> int:
        return self.counts.get(name, (0,))[0]
