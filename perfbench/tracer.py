"""Per-layer tracing by wrapping the package's public entry points.

Each wrapper is installed at the name its callers look up: a module
attribute, or a name another module imported from it. It records a span
(id, parent, op, name, start, end) and updates its layer's counters. A
call counts for a layer when it enters the layer from outside, so a
layer's own nested calls are not counted twice. Spans stay in memory until
the runner writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

_SERIES_IN_ASYMPTOTICS = ("zeta", "inversion", "phi", "b0", "a1")
_SERIES_ALL = _SERIES_IN_ASYMPTOTICS + ("beta", "nu4_weight")

# (layer, module in which callers look the name up, name)
TARGETS = (
    ("_kernels", "qhotunnel.oscillator", "psi_scaled_grid"),
    ("oscillator", "qhotunnel.oscillator", "eval_psi_grid"),
    ("oscillator", "qhotunnel.quadrature", "density_floats"),
    ("oscillator", "qhotunnel.cli", "eval_psi"),
    ("quadrature", "qhotunnel.quadrature", "tunnel_probability_exact"),
    ("quadrature", "qhotunnel.quadrature", "integrate_decaying"),
    *(("series", "qhotunnel.series", f"derive_{s}_series") for s in _SERIES_ALL),
    *(("series", "qhotunnel.asymptotics", f"derive_{s}_series") for s in _SERIES_IN_ASYMPTOTICS),
    ("specialfn", "qhotunnel.asymptotics", "airy_scaled"),
    ("specialfn", "qhotunnel.asymptotics", "gamma"),
    ("specialfn", "qhotunnel.asymptotics", "log_gamma"),
    ("asymptotics", "qhotunnel.asymptotics", "relative_error_table"),
    ("asymptotics", "qhotunnel.asymptotics", "tunnel_probability_asym"),
    ("asymptotics", "qhotunnel.asymptotics", "uniform_psi_approx"),
    ("cli", "qhotunnel.cli", "main"),
)

ASYM = "qhotunnel.asymptotics.tunnel_probability_asym"
UNIFORM = "qhotunnel.asymptotics.uniform_psi_approx"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, layer, time covered by children]
        self._next_id = 0
        self._op = -1
        self.depth = Counter()      # layer -> open spans
        self.calls = Counter()      # layer -> entries from another layer
        self.incl_s = Counter()     # layer -> duration of those entries
        self.self_s = Counter()     # layer -> span time not covered by children
        self.name_calls = Counter()
        self.name_s = Counter()
        self.points = 0
        self.point_steps = 0
        self.quad_kernel_calls = 0
        self.quad_nodes = 0
        self.panels = 0
        self.err_over_tol = 0.0
        self.op_err_over_tol = 0.0
        self._wrappers = None  # (module, name, original, wrapper), built on first install

    def _span(self, layer: str, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, layer, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self.depth[layer] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.depth[layer] -= 1
            dur = t1 - t0
            self.self_s[layer] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if parent is None or parent[1] != layer:
                self.calls[layer] += 1
                self.incl_s[layer] += dur
            self.name_calls[name] += 1
            self.name_s[name] += dur
            self.spans.append((frame[0], parent[0] if parent else None, self._op, name, t0, t1))

    def run_op(self, fn):
        """Run one op under a root span, the parent of its layer spans.

        The wrappers are installed for the op only, so that whatever the
        caller does between ops (checking an output, say) is not traced.
        """
        self._op += 1
        self.op_err_over_tol = 0.0
        with self.installed():
            return self._span("op", "op", fn, (), {})

    def _wrap(self, layer: str, fn):
        name = f"{fn.__module__}.{fn.__name__}"
        if fn.__name__ == "psi_scaled_grid":
            def traced(*args, **kwargs):
                out = self._span(layer, name, fn, args, kwargs)
                self._kernel_call(args[0], np.size(args[1]))
                return out
        elif fn.__name__ == "integrate_decaying":
            signature = inspect.signature(fn)

            def traced(*args, **kwargs):
                out = self._span(layer, name, fn, args, kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._solve(out, bound.arguments["tol"])
                return out
        else:
            def traced(*args, **kwargs):
                return self._span(layer, name, fn, args, kwargs)
        return traced

    def _kernel_call(self, n: int, points: int) -> None:
        self.points += points
        self.point_steps += n * points
        if self.depth["quadrature"]:
            self.quad_kernel_calls += 1
            self.quad_nodes += points

    def _solve(self, result, tol: float) -> None:
        self.panels += result.panels_used
        ratio = result.abs_error_estimate / (tol * max(abs(result.value), 1.0))
        self.err_over_tol = max(self.err_over_tol, ratio)
        self.op_err_over_tol = max(self.op_err_over_tol, ratio)

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        if self._wrappers is None:
            self._wrappers = []
            for layer, module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                self._wrappers.append((module, attr, fn, self._wrap(layer, fn)))
        try:
            for module, attr, _, traced in self._wrappers:
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, fn, _ in reversed(self._wrappers):
                setattr(module, attr, fn)

    def counts(self) -> dict:
        """Every integer counter; these must repeat exactly for one seed."""
        return {
            **{f"{k}.calls": v for k, v in sorted(self.calls.items())},
            **{f"{k}.name_calls": v for k, v in sorted(self.name_calls.items())},
            "_kernels.points": self.points,
            "_kernels.point_steps": self.point_steps,
            "quadrature.panels": self.panels,
            "quadrature.kernel_calls": self.quad_kernel_calls,
            "quadrature.nodes": self.quad_nodes,
        }


def span_cost_s(number: int = 20_000, repeats: int = 7) -> float:
    """Seconds a traced call adds to a call: the median over repeats of
    (traced minus direct time of an empty function) / number."""
    tracer = Tracer()

    def empty():
        return None

    traced = tracer._wrap("probe", empty)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(number):
            empty()
        t1 = time.perf_counter()
        for _ in range(number):
            traced()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / number)
    return statistics.median(costs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: list[Tracer], cold: Tracer, span_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; the _kernels layer reports as kernels.*.

    Counts marked count/pass come from the first traced pass (every pass
    runs the same op list, and the counts repeat exactly); times marked
    s/op are means over all traced ops; cold_s is the series time the
    warm-up pass (which fills the derivation caches) spends beyond a warm
    pass. The tracing overhead per op is span_s, the measured cost of one
    traced call (span_cost_s), times the spans an op records.
    """
    first = passes[0]

    def total(attr: str, key: str) -> float:
        return sum(getattr(t, attr)[key] for t in passes)

    ops = total("calls", "op")
    solves = first.calls["quadrature"]
    kernel_calls = total("calls", "_kernels")
    point_steps = sum(t.point_steps for t in passes)
    return {
        "kernels.calls": (first.calls["_kernels"], "count/pass"),
        "kernels.points_per_call": (_ratio(sum(t.points for t in passes), kernel_calls), "count"),
        "kernels.us_per_call": (1e6 * _ratio(total("incl_s", "_kernels"), kernel_calls), "us"),
        "kernels.point_steps": (first.point_steps, "count/pass"),
        "kernels.self_s": (_ratio(total("self_s", "_kernels"), ops), "s/op"),
        "kernels.ns_per_point_step": (1e9 * _ratio(total("self_s", "_kernels"), point_steps), "ns"),
        "oscillator.calls": (first.calls["oscillator"], "count/pass"),
        "oscillator.self_s": (_ratio(total("self_s", "oscillator"), ops), "s/op"),
        "quadrature.solves": (solves, "count/pass"),
        "quadrature.panels_per_solve": (_ratio(first.panels, solves), "count"),
        "quadrature.kernel_calls_per_solve": (_ratio(first.quad_kernel_calls, solves), "count"),
        "quadrature.nodes_per_solve": (_ratio(first.quad_nodes, solves), "count"),
        "quadrature.self_s": (_ratio(total("self_s", "quadrature"), ops), "s/op"),
        "quadrature.err_over_tol": (max(t.err_over_tol for t in passes), "ratio"),
        "series.derive_calls": (first.calls["series"], "count/pass"),
        "series.derive_s": (_ratio(total("incl_s", "series"), ops), "s/op"),
        "series.cold_s": (cold.incl_s["series"] - total("incl_s", "series") / len(passes), "s"),
        "specialfn.calls": (first.calls["specialfn"], "count/pass"),
        "specialfn.us_per_call": (
            1e6 * _ratio(total("incl_s", "specialfn"), total("calls", "specialfn")), "us"),
        "asymptotics.asym_calls": (first.name_calls[ASYM], "count/pass"),
        "asymptotics.uniform_calls": (first.name_calls[UNIFORM], "count/pass"),
        "asymptotics.us_per_uniform": (
            1e6 * _ratio(total("name_s", UNIFORM), total("name_calls", UNIFORM)), "us"),
        "asymptotics.self_s": (_ratio(total("self_s", "asymptotics"), ops), "s/op"),
        "cli.requests": (first.calls["cli"], "count/pass"),
        "cli.self_s": (_ratio(total("self_s", "cli"), ops), "s/op"),
        "trace.unattributed_frac": (_ratio(total("self_s", "op"), total("incl_s", "op")), "ratio"),
        "trace.overhead_ms_per_op": (1e3 * span_s * _ratio(sum(len(t.spans) for t in passes), ops), "ms"),
    }


def write_spans(path, passes: list[Tracer]) -> None:
    """All spans of a run, one list per traced pass; times are perf_counter seconds."""
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                   "passes": [t.spans for t in passes]}, fh)
