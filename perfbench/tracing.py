"""Spans around every public function of each pow2sums layer, and layer probes.

The layers are the library's modules.  ``Tracer.install`` wraps each public
function a layer defines, and rebinds the wrapper wherever a module holds the
function under a name, so calls that a sibling module bound through
``from ... import`` (``half_order.order_fast``, ``cli.residue_orbit``) are
traced too.  ``verdict`` holds an enum only and is not traced.

A span is (name, start, end, parent).  Spans stay in memory; ``write`` saves
them when the run ends.  A span's self time is its duration minus the
durations of its children.  Worker processes forked while tracing record
nothing, so a pool sweep shows only the parent's share.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import os
import time
from array import array
from collections import Counter

LAYERS = ("core_arith", "order_engine", "half_order", "exp_sum", "sweep", "cli")


class Tracer:
    """Installs span wrappers into the pow2sums modules and records spans."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        # one entry per span; compact arrays keep a million spans in ~32 MB
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = [-1]
        self.orbit_terms = 0
        self.recording = True
        # (module, attribute, original function, its span wrapper)
        self._patches: list[tuple[object, str, object, object]] = []
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self.recording = False

    def clear(self) -> None:
        for spans in (self.names, self.parents, self.starts, self.ends):
            del spans[:]
        self.orbit_terms = 0

    def _wrap(self, key: str, fn):
        name = len(self.keys)
        self.keys.append(key)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter_ns
        tracer = self
        counts_terms = key == "exp_sum.residue_orbit"

        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counts_terms:
                tracer.orbit_terms += result.total
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Bind the span wrapper of every layer's public functions everywhere."""
        if not self._patches:
            modules = {layer: importlib.import_module(f"pow2sums.{layer}") for layer in LAYERS}
            wrappers = {}
            for layer, module in modules.items():
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for module in (importlib.import_module("pow2sums"), *modules.values()):
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patches.append((module, attr, obj, wrappers[obj]))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls and total time per function, self time per layer, orbit terms."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        layer_self_ns: Counter = Counter()
        for name, duration, covered in zip(self.names, durations, child):
            key = self.keys[name]
            calls[key] += 1
            total_ns[key] += duration
            layer_self_ns[key.split(".")[0]] += duration - covered
        return {
            "calls": calls,
            "total_s": {k: v / 1e9 for k, v in total_ns.items()},
            "layer_self_s": {k: v / 1e9 for k, v in layer_self_ns.items()},
            "orbit_terms": self.orbit_terms,
        }

    def write(self, path: str) -> None:
        """Save the spans as gzipped CSV; start_ns counts from the first span."""
        origin = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,duration_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                out.write(f"{i},{self.keys[name]},{start - origin},{end - start},{parent}\n")


def layer_metrics(summary: dict, cases: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer left idle reads 0."""
    calls, total, self_s = summary["calls"], summary["total_s"], summary["layer_self_s"]
    per_case = max(cases, 1)
    metrics = {
        "core_arith.mod_pow_calls": calls["core_arith.mod_pow"],
        "order_engine.order_fast_calls": calls["order_engine.order_fast"],
        "order_engine.order_fast_s": total.get("order_engine.order_fast", 0.0),
        "order_engine.order_fast_calls_per_case": calls["order_engine.order_fast"] / per_case,
        "order_engine.order_naive_s": total.get("order_engine.order_naive", 0.0),
        "half_order.half_order_residue_calls": calls["half_order.half_order_residue"],
        "half_order.half_order_residue_s": total.get("half_order.half_order_residue", 0.0),
        "half_order.calls_per_case": calls["half_order.half_order_residue"] / per_case,
        "exp_sum.residue_orbit_calls": calls["exp_sum.residue_orbit"],
        "exp_sum.orbits_per_case": calls["exp_sum.residue_orbit"] / per_case,
        "exp_sum.orbit_terms": summary["orbit_terms"],
        "exp_sum.residue_orbit_s": total.get("exp_sum.residue_orbit", 0.0),
        "exp_sum.is_exact_zero_s": total.get("exp_sum.is_exact_zero", 0.0),
        "exp_sum.float_sum_s": total.get("exp_sum.float_sum", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return metrics


def _time_ms(fn, min_calls: int, budget_s: float, max_calls: int = 2000) -> float:
    """Fastest wall time of one call in ms, after one untimed warm-up call."""
    fn()
    times = []
    spent = 0.0
    while len(times) < min_calls or (spent < budget_s and len(times) < max_calls):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return min(times) * 1e3


def probe_layers(min_calls: int = 5, budget_s: float = 0.3) -> dict[str, float]:
    """Warmed direct calls at fixed sizes, base 3 and weight 1, in ms.

    Each figure is the fastest of at least min_calls timed calls, taken until
    budget_s of calls or 2000 calls have run.
    """
    from pow2sums import core_arith, exp_sum, half_order, order_engine

    probes = {
        # the half-order power at n = 4096: 4093 squarings of 4096-bit residues
        "core_arith.mod_pow_n4096_ms": lambda: core_arith.mod_pow(3, 1 << 4093, 4096),
        "half_order.half_order_residue_n4096_ms": lambda: half_order.half_order_residue(3, 4096),
    }
    for n in (64, 1024, 4096):
        probes[f"order_engine.order_fast_n{n}_ms"] = (
            lambda n=n: order_engine.order_fast(3, n)
        )
    for n in (12, 16, 20):
        orbit = exp_sum.residue_orbit(3, 1, n)
        probes[f"exp_sum.residue_orbit_n{n}_ms"] = lambda n=n: exp_sum.residue_orbit(3, 1, n)
        probes[f"exp_sum.is_exact_zero_n{n}_ms"] = lambda orbit=orbit: exp_sum.is_exact_zero(orbit)
    return {name: _time_ms(fn, min_calls, budget_s) for name, fn in probes.items()}
