"""Spans around the calls into each cbmlife layer, recorded from outside the program.

A :class:`Tracer` replaces, for the duration of a traced round, every name
through which one layer calls another (``cli.estimate_tables``,
``optimize.expected_cost``, ``renewal.std_dev`` and so on) with a wrapper
that records a span (name, start, end, parent), and hands out a counting
subclass of ``numpy.random.Generator`` in place of ``default_rng`` so that
the variates drawn are counted where they are drawn.  Spans stay in memory;
:meth:`Tracer.layer_metrics` reduces them and :meth:`Tracer.dump` writes
them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

# The public functions of each layer that other layers call.
LAYER_FUNCTIONS = {
    "simulate": ("estimate_tables", "chain_statistics"),
    "renewal": (
        "expected_cost", "std_dev", "asymptotic_cost_rate",
        "cost_curve", "performance_curve",
    ),
    "optimize": ("optimize_asymptotic", "optimize_transient"),
    "sensitivity": ("gamma_sensitivity", "shock_sensitivity"),
}
CALLERS = ("cli", "optimize", "sensitivity", "renewal")
SAMPLERS = (
    "beta", "binomial", "exponential", "gamma", "integers", "normal",
    "poisson", "random", "standard_exponential", "standard_gamma",
    "standard_normal", "uniform",
)


def _counting_generator(counts: Counter) -> type:
    """A Generator subclass whose samplers add their output size to counts."""

    def counted(name):
        base = getattr(np.random.Generator, name)

        def sample(self, *args, **kwargs):
            out = base(self, *args, **kwargs)
            counts["variates"] += int(np.size(out))
            return out

        return sample

    return type(
        "CountingGenerator",
        (np.random.Generator,),
        {name: counted(name) for name in SAMPLERS},
    )


def _find(args, kwargs, *attrs):
    """The first argument that has every attribute in attrs, or None."""
    for value in (*args, *kwargs.values()):
        if all(hasattr(value, a) for a in attrs):
            return value
    return None


class Tracer:
    """Span and count recorder for one process; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._models: dict[int, object] = {}

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        self._count(name, args, kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _count(self, name: str, args, kwargs) -> None:
        if name.startswith("simulate."):
            cfg = _find(args, kwargs, "n_samples")
            self.counts["paths"] += cfg.n_samples if cfg is not None else 0
            if self._inside("sensitivity"):
                model = _find(args, kwargs, "degradation", "shocks")
                self._models[id(model)] = model  # held, so no id is reused
        elif name.startswith("optimize."):
            grid = _find(args, kwargs, "T_values", "M_values")
            if grid is not None:
                self.counts["cells"] += len(grid.T_values) * len(grid.M_values)

    def _inside(self, layer: str) -> bool:
        return any(self.spans[i][0].startswith(layer + ".") for i in self._stack)

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        import cbmlife.cli
        import cbmlife.optimize
        import cbmlife.renewal
        import cbmlife.sensitivity
        import cbmlife.simulate

        modules = {
            "cli": cbmlife.cli, "optimize": cbmlife.optimize,
            "renewal": cbmlife.renewal, "sensitivity": cbmlife.sensitivity,
            "simulate": cbmlife.simulate,
        }
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                for caller in {layer, *CALLERS}:
                    if getattr(modules[caller], fname, None) is original:
                        self._patch(modules[caller], fname,
                                    self._wrap(f"{layer}.{fname}", original))
        generator = _counting_generator(self.counts)
        default_rng = np.random.default_rng

        def counting_default_rng(seed=None):
            if isinstance(seed, np.random.Generator):
                return seed
            if isinstance(seed, np.random.BitGenerator):
                return generator(seed)
            return generator(np.random.PCG64(seed))

        counting_default_rng.__wrapped__ = default_rng
        self._patch(np.random, "default_rng", counting_default_rng)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------
    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Per-layer figures over the spans recorded from index ``first`` on.

        A layer's ``.s`` is the time of its entry spans (those whose parent
        lies in another layer), so a nested call such as ``std_dev`` calling
        ``expected_cost`` is counted once, in its caller.  A ``self_s`` is a
        span's duration minus that of its direct children.
        """
        spans = self.spans[first:]
        child_time: Counter = Counter()
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        entry_s: Counter = Counter()
        entry_calls: Counter = Counter()
        self_s: Counter = Counter()
        for offset, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".")[0]
            self_s[layer] += (end - start) - child_time[first + offset]
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                entry_s[name] += end - start
                entry_s[layer] += end - start
                entry_calls[name] += 1
                entry_calls[layer] += 1
        simulate_s = entry_s["simulate"]
        paths = self.counts["paths"]
        variates = self.counts["variates"]
        renewal_calls = entry_calls["renewal"]
        tables_calls = entry_calls["simulate.estimate_tables"]
        return {
            "simulate.estimate_tables.calls": tables_calls,
            "simulate.estimate_tables.s": entry_s["simulate.estimate_tables"],
            "simulate.estimate_tables.ms_per_call": _ratio(
                1e3 * entry_s["simulate.estimate_tables"], tables_calls),
            "simulate.chain_statistics.calls": entry_calls["simulate.chain_statistics"],
            "simulate.chain_statistics.s": entry_s["simulate.chain_statistics"],
            "simulate.paths": paths,
            "simulate.us_per_path": _ratio(1e6 * simulate_s, paths),
            "simulate.variates": variates,
            "simulate.ns_per_variate": _ratio(1e9 * simulate_s, variates),
            "renewal.calls": renewal_calls,
            "renewal.s": entry_s["renewal"],
            "renewal.ms_per_call": _ratio(1e3 * entry_s["renewal"], renewal_calls),
            **{f"renewal.{f}.s": entry_s[f"renewal.{f}"]
               for f in LAYER_FUNCTIONS["renewal"]},
            "optimize.cells": self.counts["cells"],
            "optimize.self_s": self_s["optimize"],
            "sensitivity.models": len(self._models),
            "sensitivity.self_s": self_s["sensitivity"],
            "cli.self_s": self_s["cli"],
        }

    def reset_counts(self) -> None:
        self.counts.clear()
        self._models.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
