"""Per-layer tracing of the lepski package from outside it.

The package modules bind each other's functions with ``from .x import f``, so
one function object can sit under several module attributes: for example
``grid_statistics`` is reached through model_core, selection and stability.
`Tracer` therefore rebinds every attribute of every loaded lepski module that
holds a traced function, and restores each of them when it is uninstalled.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all spans add up to the time spent inside the
outermost spans, and the rest of a traced command's wall time is glue.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs timed as spans.  Small scalar helpers (psi,
# ModulusSpec.w) are left unwrapped: they run inside the loops of these layers
# and wrapping them would cost more than they do.
SPANS = [
    ("dgp", "simulate"),
    ("model_core", "grid_statistics"),
    ("model_core", "kernel_estimate"),
    ("selection", "select_bandwidth"),
    ("rates", "rate_report"),
    ("rates", "empirical_hw"),
    ("rates", "deterministic_hw"),
    ("rates", "oracle_bandwidth"),
    ("campaign", "write_rows"),
    ("stability", "simulate_ensemble"),
    ("stability", "stability_matrix"),
]

SCALE_KINDS = ["constant", "alternating", "adapted"]
STOP_KINDS = {"FixedT": "fixed", "FirstCrossing": "crossing", "RandomizedStop": "randomized"}
ENSEMBLE = "stability.simulate_ensemble"


def lepski_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lepski" or name.startswith("lepski."))]


def pair_label(scales, stop) -> str:
    """'<scale>-<stop>' for a stability ensemble, e.g. 'constant-crossing'."""
    scale = type(scales).__name__.removesuffix("Scale").lower()
    return f"{scale}-{STOP_KINDS.get(type(stop).__name__, type(stop).__name__.lower())}"


def _freeze(value):
    """Hashable identity of a call argument; closures compare by code and cells."""
    code = getattr(value, "__code__", None)
    if code is not None:
        cells = tuple(_freeze(c.cell_contents) for c in (value.__closure__ or ()))
        return (code, cells)
    return repr(value)


class Tracer:
    """Spans and counters for one traced command; use as a context manager."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.draws = Counter()  # noise variates drawn, by innermost open span
        self.path_steps = 0
        self.censor_rate = {}  # pair label -> share of censored paths
        self.hw_inputs = set()
        self.root_s = 0.0
        self._stack = []  # [span name, time covered by its child spans]
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        hooks = {"simulate_ensemble": (self._observe_ensemble,
                                       lambda a: pair_label(a["scales"], a["stop"])),
                 "deterministic_hw": (self._observe_hw, None)}
        for mod_name, fn_name in SPANS:
            original = getattr(importlib.import_module(f"lepski.{mod_name}"), fn_name)
            observe, suffix = hooks.get(fn_name, (None, None))
            self._rebind(original, self._span(f"{mod_name}.{fn_name}", original,
                                              observe, suffix))
        make_noise = importlib.import_module("lepski.campaign").make_noise
        self._rebind(make_noise, self._counting_noise(make_noise))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _rebind(self, original, wrapper) -> None:
        for mod in lepski_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    # -------------------------------------------------------------- wrappers

    def _span(self, name, fn, observe=None, suffix=None):
        """Wrap fn in a span; suffix(arguments) splits the span by its inputs."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if observe else None
            label = f"{name}.{suffix(bound)}" if suffix else name
            frame = [label, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._stack.pop()
                self.self_s[label] += took - frame[1]
                self.calls[label] += 1
                if self._stack:
                    self._stack[-1][1] += took
                else:
                    self.root_s += took
            if observe:
                observe(label, bound, result)
            return result

        return wrapper

    def _counting_noise(self, make_noise):
        @functools.wraps(make_noise)
        def wrapper(*args, **kwargs):
            noise = make_noise(*args, **kwargs)
            sampler = noise.sampler

            def counted(rng, size):
                out = sampler(rng, size)
                self.draws[self._stack[-1][0] if self._stack else ""] += out.size
                return out

            noise.sampler = counted
            return noise

        return wrapper

    def _observe_ensemble(self, label, bound, ens) -> None:
        self.path_steps += int(ens.t.sum())
        if label.endswith("-crossing"):
            self.censor_rate[label.rsplit(".", 1)[1]] = ens.censor_rate

    def _observe_hw(self, label, bound, result) -> None:
        self.hw_inputs.add(tuple(_freeze(v) for v in bound.values()))

    # -------------------------------------------------------------- results

    def counts(self) -> dict:
        """The exact counters of the run; they repeat at a fixed seed."""
        out = {}
        for mod_name, fn_name in SPANS:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = sum(c for k, c in self.calls.items()
                                       if k == name or k.startswith(name + "."))
        out["stability.path_steps"] = self.path_steps
        out["stability.draws"] = sum(c for k, c in self.draws.items()
                                     if k.startswith(ENSEMBLE + "."))
        return out

    def metrics(self) -> dict:
        """Self time and calls per layer, plus the stability counters and ratios."""
        out = {}
        for mod_name, fn_name in SPANS:
            name = f"{mod_name}.{fn_name}"
            if name != ENSEMBLE:
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for scale in SCALE_KINDS:
            for stop in ("fixed", "crossing"):
                label = f"{ENSEMBLE}.{scale}-{stop}"
                out[f"{label}.self_s"] = self.self_s.get(label, 0.0)
        out.update(self.counts())
        hw_calls = out["rates.deterministic_hw.calls"]
        out["rates.deterministic_hw.useful_ratio"] = (
            len(self.hw_inputs) / hw_calls if hw_calls else 0.0)
        draws = out["stability.draws"]
        out["stability.useful_draw_ratio"] = self.path_steps / draws if draws else 0.0
        for scale in SCALE_KINDS:
            key = f"{scale}-crossing"
            out[f"stability.censor_rate.{key}"] = self.censor_rate.get(key, 0.0)
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
