"""Span tracing of dolab's layers, installed from outside the package.

Each layer is a public dolab function (or the PosgAdapter.evaluate method).
Tracing replaces every attribute of every loaded dolab module that is the
original function object, because callers import names directly (for
example dynamics.is_unique_zero_sum_equilibrium and
adapters.evaluate_profile).  Spans (name, start, end, parent) are kept in
memory; self time is a span's duration minus that of its direct children.

Counters are computed from call arguments and results only, so they do not
depend on the machine and repeat exactly for the same inputs.
"""

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from math import comb

# span name -> the functions it wraps, as (module, attribute path)
LAYERS = {
    "lp.zero_sum_strategies": [("dolab.lp", "zero_sum_strategies")],
    "lp.maximize": [("dolab.lp", "maximize")],
    "lp.solve_linear_system": [("dolab.lp", "solve_linear_system")],
    "equilibrium.is_unique_zero_sum_equilibrium":
        [("dolab.equilibrium", "is_unique_zero_sum_equilibrium")],
    "equilibrium.enumerate_nash_bimatrix":
        [("dolab.equilibrium", "enumerate_nash_bimatrix")],
    "best_response.best_response": [("dolab.best_response", "best_response")],
    "best_response.is_best_response":
        [("dolab.best_response", "is_best_response")],
    "adapters.evaluate": [("dolab.adapters", "PosgAdapter.evaluate")],
    "posg.evaluate_profile": [("dolab.posg", "evaluate_profile")],
    "posg.induced_normal_form": [("dolab.posg", "induced_normal_form")],
    "posg.reduce_dominated": [("dolab.posg", "reduce_dominated")],
    "dynamics.run_double_oracle": [("dolab.dynamics", "run_double_oracle")],
    "families.make_game": [("dolab.families", "make_game")],
    "families.schedule_for_theorem":
        [("dolab.families", "schedule_for_theorem")],
    "harness.verify": [("dolab.harness", "verify_t2"),
                       ("dolab.harness", "verify_t4"),
                       ("dolab.harness", "verify_t5")],
    "harness.sweep_double_oracle":
        [("dolab.harness", "sweep_double_oracle")],
    "traces.run_trace_lines": [("dolab.traces", "run_trace_lines")],
}


def trace_bytes(lines):
    """Size of a trace file written from these lines (write_trace layout)."""
    return sum(len(line.encode()) + 1 for line in lines)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _support_pairs(args, kwargs):
    m, n = _arg(args, kwargs, 0, "nfg").shape
    smax = min(_arg(args, kwargs, 1, "max_support"), m, n)
    return sum(comb(m, s) * comb(n, s) for s in range(1, smax + 1))


# span name -> f(args, kwargs, result) giving counter increments
COUNTERS = {
    "lp.zero_sum_strategies": lambda a, kw, r: {
        "cells": len(_arg(a, kw, 0, "matrix"))
        * len(_arg(a, kw, 0, "matrix")[0])},
    "lp.maximize": lambda a, kw, r: {
        "cells": (len(_arg(a, kw, 1, "a_ub", ()))
                  + len(_arg(a, kw, 3, "a_eq", ())))
        * len(_arg(a, kw, 0, "c"))},
    "lp.solve_linear_system": lambda a, kw, r: {"singular": int(r is None)},
    "equilibrium.enumerate_nash_bimatrix": lambda a, kw, r: {
        "support_pairs": _support_pairs(a, kw), "equilibria": len(r)},
    "best_response.best_response": lambda a, kw, r: {
        "multi_opt": int(r.count > 1)},
    "dynamics.run_double_oracle": lambda a, kw, r: {
        "iterations": len(r.iterations)},
    "traces.run_trace_lines": lambda a, kw, r: {"bytes": trace_bytes(r)},
}


def _resolve(module, path):
    obj = sys.modules[module]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.rsplit(".", 1)[-1], obj


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[name, "calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[name, key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every dolab reference to a layer function through a span."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dolab" or n.startswith("dolab.")]
        for name, targets in LAYERS.items():
            for module, path in targets:
                owner, attr, fn = _resolve(module, path)
                wrapper = self._wrap(name, fn)
                if isinstance(owner, type):
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def summary(self, to_seconds):
        """Per layer: calls, self_s, counters, and evaluate-cache misses.

        to_seconds maps a span's clock reading to the seconds it reports
        (speed.Sampler.at gives nominal-speed seconds).
        """
        dur = [to_seconds(span[2]) - to_seconds(span[1]) for span in self.spans]
        child = [0.0] * len(self.spans)
        profiled = set()
        for idx, span in enumerate(self.spans):
            parent = span[3]
            if parent >= 0:
                child[parent] += dur[idx]
                if span[0] == "posg.evaluate_profile" \
                        and self.spans[parent][0] == "adapters.evaluate":
                    profiled.add(parent)
        self_s = Counter()
        for idx, span in enumerate(self.spans):
            self_s[span[0]] += dur[idx] - child[idx]
        counts = Counter(self.counts)
        counts["adapters.evaluate", "misses"] = len(profiled)
        return self_s, counts

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
