"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces named package functions with timing wrappers
while it is installed.  Stage functions record one span per call (name,
start, end, parent span and op id).  Kernels, called up to millions of
times per op, are aggregated into count, total and self time per parent
span, which keeps memory bounded.  Everything stays in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

PACKAGE = "passandswap"


def _events(args: tuple, kwargs: dict, result: Any) -> dict:
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"events": cfg.events * cfg.replications}


# Stage functions: one span per call, with optional facts read off the call.
SPANS: dict[str, Callable[[tuple, dict, Any], dict] | None] = {
    "cli.main": None,
    "modelfile.load_path": None,
    "cluster.compile_cluster": None,
    "cluster.metrics": None,
    "closed.analyze_tandem": None,
    "closed.enumerate_sigma": lambda a, k, r: {"states": len(r)},
    "closed.enumerate_adhering": None,
    "closed.communicating_classes": None,
    "sim.simulate": _events,
    "sim.simulate_protocol": _events,
    "oracle.build_generator": lambda a, k, r: {
        "states": r.n_states, "nnz": r.matrix.nnz},
    "oracle.solve_stationary": lambda a, k, r: {
        "residual": max((s.residual for s in r.solutions), default=0.0)},
    "oracle._solve_direct": None,
    "oracle._solve_uniformized": None,
    "oracle.total_variation": None,
    "product_form.stationary_truncated": None,
    "product_form.verify_partial_balance": None,
}

# Kernels: aggregated per parent span.
KERNELS = (
    "dynamics.apply_completion",
    "dynamics.predecessors",
    "dynamics.open_transitions",
    "closed.tandem_transitions",
    "product_form.balance",
    "product_form.state_weight",
    "model.MultiServerRates.rate",
    "model.MultiServerRates.increments",
    "sim.ProtocolSimulator.transitions",
    "sim.ProtocolSimulator.apply",
    "sim.ProtocolSimulator.held_counts",
)


class Tracer:
    """Spans and kernel aggregates of the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        # (parent span id, kernel name) -> [calls, total_s, self_s, direct_s]
        # where direct_s is the time of calls made straight from the span.
        self.kernels: dict[tuple[int | None, str], list] = {}
        # frames: [child seconds, enclosing span id, frame is a span]
        self._stack: list[list] = [[0.0, None, True]]
        self._patched: list[tuple[Any, str, Any]] = []
        self.op: int | None = None

    def _span(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name, "parent": stack[-1][1],
                   "op": self.op}
            spans.append(rec)
            frame = [0.0, rec["id"], True]
            stack.append(frame)
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()
                stack[-1][0] += rec["end"] - rec["start"]
            if info is not None:
                rec.update(info(args, kwargs, result))
            return result

        return wrapper

    def _kernel(self, name: str, fn: Callable) -> Callable:
        stack, aggs, clock = self._stack, self.kernels, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], False]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                agg = aggs.get((parent[1], name))
                if agg is None:
                    agg = aggs[(parent[1], name)] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if parent[2]:
                    agg[3] += dt

        return wrapper

    def install(self) -> None:
        for name, info in SPANS.items():
            self._patch(name, lambda fn, n=name, i=info: self._span(n, fn, i))
        for name in KERNELS:
            self._patch(name, lambda fn, n=name: self._kernel(n, fn))

    def _patch(self, qualname: str, make: Callable[[Callable], Callable]) -> None:
        module, *attrs = qualname.split(".")
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        if len(attrs) == 2:  # a method: patch the class attribute
            cls = getattr(mod, attrs[0])
            original = cls.__dict__[attrs[1]]
            self._patched.append((cls, attrs[1], original))
            setattr(cls, attrs[1], make(original))
            return
        original = getattr(mod, attrs[0])
        wrapped = make(original)
        # Every package module that imported the name holds its own binding.
        for modname, other in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._patched.append((other, attr, original))
                    setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def kernel_rows(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": a[0], "total_s": a[1],
             "self_s": a[2], "direct_s": a[3]}
            for (parent, name), a in self.kernels.items()
        ]

    def dump(self, base: float) -> dict:
        """Spans with times relative to ``base``, and the kernel rows."""
        spans = [
            {**s, "start": s["start"] - base, "end": s["end"] - base}
            for s in self.spans
        ]
        return {"spans": spans, "kernels": self.kernel_rows()}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict], kernels: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of it covered by
    child spans and by kernel calls made straight from it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    direct: dict[int, float] = {}
    for k in kernels:
        if k["parent"] is not None:
            direct[k["parent"]] = direct.get(k["parent"], 0.0) + k["direct_s"]
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        inside = [(max(a, lo), min(b, hi)) for a, b in children.get(s["id"], [])]
        out[s["id"]] = (hi - lo) - covered([i for i in inside if i[1] > i[0]]) \
            - direct.get(s["id"], 0.0)
    return out


def per_layer(trace: dict, n_ops: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged over ``n_ops`` traced ops; calls made
    outside an op, such as answer checks, are left out."""
    spans = [s for s in trace["spans"] if s["op"] is not None]
    ids = {s["id"] for s in spans}
    kernels = [k for k in trace["kernels"] if k["parent"] in ids]
    own = self_times(spans, kernels)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, float] = {}
    facts: dict[str, float] = {}
    residual = 0.0
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        selfs[name] = selfs.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key in ("states", "nnz", "events"):
            if key in s:
                facts[f"{name}.{key}"] = facts.get(f"{name}.{key}", 0) + s[key]
        residual = max(residual, s.get("residual", 0.0))
    sim_ids = {s["id"] for s in spans if s["name"] == "sim.simulate"}
    misses = 0
    for k in kernels:
        name = k["name"]
        total[name] = total.get(name, 0.0) + k["total_s"]
        selfs[name] = selfs.get(name, 0.0) + k["self_s"]
        calls[name] = calls.get(name, 0) + k["calls"]
        if name == "closed.tandem_transitions" and k["parent"] in sim_ids:
            misses += k["calls"]
    events = facts.get("sim.simulate.events", 0)

    out: dict[str, tuple[float, str]] = {}
    for metric, unit in METRICS:
        stem, _, qty = metric.rpartition(".")
        if qty == "self_s":
            value = selfs.get(stem, 0.0) / n_ops
        elif qty == "total_s":
            value = total.get(stem, 0.0) / n_ops
        elif qty == "calls":
            value = calls.get(stem, 0) / n_ops
        elif metric == "oracle.solve_stationary.direct_s":
            value = total.get("oracle._solve_direct", 0.0) / n_ops
        elif metric == "oracle.solve_stationary.uniformization_s":
            value = total.get("oracle._solve_uniformized", 0.0) / n_ops
        elif metric == "oracle.solve_stationary.residual":
            value = residual
        elif metric == "sim.cache_hit_ratio":
            value = 1.0 - misses / events if events else 0.0
        elif metric == "trace.overhead":
            value = overhead
        else:
            value = facts.get(metric, 0) / n_ops
        out[metric] = (value, unit)
    return out


METRICS = (
    ("closed.enumerate_sigma.self_s", "s"),
    ("closed.enumerate_sigma.states", "count"),
    ("closed.enumerate_adhering.self_s", "s"),
    ("product_form.balance.calls", "count"),
    ("product_form.balance.self_s", "s"),
    ("closed.communicating_classes.self_s", "s"),
    ("closed.tandem_transitions.calls", "count"),
    ("closed.tandem_transitions.self_s", "s"),
    ("dynamics.apply_completion.calls", "count"),
    ("dynamics.apply_completion.self_s", "s"),
    ("model.MultiServerRates.rate.calls", "count"),
    ("model.MultiServerRates.rate.self_s", "s"),
    ("model.MultiServerRates.increments.calls", "count"),
    ("model.MultiServerRates.increments.self_s", "s"),
    ("closed.analyze_tandem.self_s", "s"),
    ("cluster.compile_cluster.total_s", "s"),
    ("cluster.metrics.total_s", "s"),
    ("modelfile.load_path.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("sim.simulate_protocol.total_s", "s"),
    ("sim.simulate_protocol.events", "count"),
    ("sim.ProtocolSimulator.transitions.self_s", "s"),
    ("sim.ProtocolSimulator.apply.self_s", "s"),
    ("sim.ProtocolSimulator.held_counts.self_s", "s"),
    ("sim.simulate.total_s", "s"),
    ("sim.simulate.events", "count"),
    ("sim.cache_hit_ratio", "ratio"),
    ("oracle.build_generator.self_s", "s"),
    ("oracle.build_generator.states", "count"),
    ("oracle.build_generator.nnz", "count"),
    ("oracle.solve_stationary.direct_s", "s"),
    ("oracle.solve_stationary.uniformization_s", "s"),
    ("oracle.solve_stationary.residual", "1/s"),
    ("dynamics.open_transitions.calls", "count"),
    ("dynamics.open_transitions.self_s", "s"),
    ("dynamics.predecessors.calls", "count"),
    ("dynamics.predecessors.self_s", "s"),
    ("product_form.stationary_truncated.total_s", "s"),
    ("product_form.verify_partial_balance.self_s", "s"),
    ("product_form.state_weight.calls", "count"),
    ("oracle.total_variation.total_s", "s"),
    ("trace.overhead", "ratio"),
)
