"""Spans around hlslab's public functions, installed from outside the package.

install() replaces every public module-level function of every hlslab
module (a superset of each module's __all__) with a wrapper that records a
span, in every hlslab namespace that binds the function and in the
scenarios.SCENARIOS registry that demo-all iterates. Module-internal calls
go through the module's globals, so they are traced too. set_traced()
puts the original functions back and the wrappers in again, so traced and
untraced rounds can alternate in one process. Nothing under src/ changes;
the untraced run never calls install().

A span is (name, start_ns, end_ns, parent, op): parent is the index of the
enclosing span (-1 for the benchmark's own per-operation root span) and op
the number of the operation it belongs to. Spans stay in memory until
write() at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        # AttackReports returned by attacks.invalid_curve_attack, read for
        # the oracle-query and MAC-trial counts
        self.attack_reports: list = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        keep_result = name == "attacks.invalid_curve_attack"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep_result:
                self.attack_reports.append(result)
            return result

        return traced

    def run_op(self, op_number: int, fn, *args):
        """Run one benchmark operation under a root span of its own."""
        self.op = op_number
        return self.wrap(fn, OP_SPAN)(*args)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _hlslab_modules() -> list:
    import hlslab

    names = [m.name for m in pkgutil.iter_modules(hlslab.__path__)]
    return [hlslab] + [importlib.import_module(f"hlslab.{n}") for n in names]


def install(tracer: Tracer) -> list:
    """Wrap every public hlslab function everywhere it is bound.

    Returns the bindings (namespace, key, original, wrapper) for set_traced().
    """
    modules = _hlslab_modules()
    wrappers = {}
    for mod in modules[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{attr}")
    namespaces = [vars(mod) for mod in modules]
    namespaces.append(importlib.import_module("hlslab.scenarios").SCENARIOS)
    bindings = [
        (ns, key, obj, wrappers[obj])
        for ns in namespaces
        for key, obj in ns.items()
        if inspect.isfunction(obj) and obj in wrappers
    ]
    set_traced(bindings, True)
    return bindings


def set_traced(bindings: list, on: bool) -> None:
    for ns, key, original, wrapper in bindings:
        ns[key] = wrapper if on else original


def summarize(spans: list, ops: int, attack_reports: list) -> dict:
    """Per-function calls and inclusive time, per-layer self time, attack counts."""
    child_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if name == OP_SPAN:
            continue
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name.split(".", 1)[0]] += end - start - child_ns[idx]
    return {
        "ops": ops,
        "calls": dict(calls),
        "total_ns": dict(total_ns),
        "self_ns": dict(self_ns),
        "oracle_queries": sum(r.oracle_queries for r in attack_reports),
        "mac_trials": sum(r.trials for r in attack_reports),
    }


def layer_metrics(summary: dict, names: list[str]) -> dict:
    """Values of the named per-layer metrics; 0 where a layer was not reached."""
    ops = summary["ops"]
    calls, total_ns, self_ns = summary["calls"], summary["total_ns"], summary["self_ns"]
    out = {}
    for metric in names:
        head, _, stat = metric.rpartition(".")
        if stat == "self_ms_per_op":
            value = self_ns.get(head, 0) / ops / 1e6
        elif stat == "calls_per_op":
            value = calls.get(head, 0) / ops
        elif stat == "ms_per_call":
            n = calls.get(head, 0)
            value = total_ns.get(head, 0) / n / 1e6 if n else 0.0
        elif metric == "attacks.oracle_queries_per_op":
            value = summary["oracle_queries"] / ops
        elif metric == "attacks.mac_trials_per_op":
            value = summary["mac_trials"] / ops
        else:
            raise ValueError(f"no rule computes per-layer metric {metric!r}")
        out[metric] = value
    return out
