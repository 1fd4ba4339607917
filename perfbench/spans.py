"""Spans and counters around the public functions of goodwill.

`Tracer.install()` replaces every binding of each wrapped function in
the goodwill modules, not only the one in its defining module: modules
such as `approximation` (`path_normals`), `lq` (`solve_delay_ode`) and
`state_delay` (`simulate_paths`) import functions by name, and a call
through such a binding would otherwise escape the trace.

While installed, each call records one span (layer name, start, end,
parent span). Spans and counters stay in memory; `layer_metrics`
(in worker.py) reduces them at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
import tracemalloc

import numpy as np

from goodwill.sdde import BlowupError

MODULES = ("hilbert", "sdde", "lifting", "lq", "state_delay", "approximation")

# (layer name, defining module, function name); a layer may cover several
WRAPPED = (
    ("hilbert.kernel_eval", "hilbert", "kernel_eval"),
    ("sdde.path_normals", "sdde", "path_normals"),
    ("sdde.simulate_paths", "sdde", "simulate_paths"),
    ("sdde.objective_estimate", "sdde", "objective_estimate"),
    ("sdde.evaluate_policy", "sdde", "evaluate_policy"),
    ("sdde.relative_gap", "sdde", "relative_gap"),
    ("lifting.lift_M", "lifting", "lift_M"),
    ("lifting.solve_delay_ode", "lifting", "solve_delay_ode"),
    ("lq.solve_costate", "lq", "solve_costate"),
    ("lq.optimal_policy_lq", "lq", "optimal_policy_lq"),
    ("lq.memoryless_policy", "lq", "memoryless_policy"),
    ("lq.value_lq", "lq", "value_lq"),
    ("lq.trajectory_mean", "lq", "trajectory_mean"),
    ("lq.trajectory_variance", "lq", "trajectory_variance"),
    ("lq.sensitivity_dV_dr", "lq", "sensitivity_dV_dr"),
    ("state_delay.simulate_feedback", "state_delay", "simulate_feedback"),
    ("state_delay.feedback_map", "state_delay", "feedback_quadratic"),
    ("approximation.simulate_lifted_perturbed", "approximation",
     "simulate_lifted_perturbed"),
    ("approximation.mollify", "approximation", "mollify_phi"),
    ("approximation.mollify", "approximation", "mollify_h"),
    ("approximation.convergence_study", "approximation", "convergence_study"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAPPED))

# work counters, read off arguments and results by Tracer._count_work
WORK_COUNTERS = ("sdde.path_steps", "sdde.clip_count", "sdde.blowups",
                 "lq.costate_steps", "lifting.ode_steps",
                 "approximation.lifted_node_steps")

# layers whose peak traced allocation (tracemalloc) is recorded per call
ALLOC_TRACED = {"sdde.simulate_paths", "approximation.simulate_lifted_perturbed"}

# layers whose calls are keyed by their arguments to count repeated work
KEYED = {"sdde.path_normals", "lq.solve_costate", "lifting.solve_delay_ode"}


def freeze(x):
    """Hashable, value-based key of an argument (arrays by their bytes)."""
    if isinstance(x, np.ndarray):
        return ("nd", x.shape, x.dtype.str, x.tobytes())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            freeze(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, (tuple, list)):
        return tuple(freeze(v) for v in x)
    if isinstance(x, (int, float, str, bool, type(None), np.floating, np.integer)):
        return x
    return repr(x)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Spans and counters, or with alloc_only the peak allocations alone."""

    def __init__(self, alloc_only: bool = False):
        self.alloc_only = alloc_only
        self.spans: list[Span] = []
        self.binding_calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.peak_alloc: dict[str, int] = {}
        self._stack: list[int] = []
        self._op_keys: dict[str, set] = {}
        self._originals: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        """Wrap every binding of each WRAPPED function in the goodwill modules."""
        mods = {m: importlib.import_module(f"goodwill.{m}") for m in MODULES}
        for layer, mod_name, fn_name in WRAPPED:
            original = getattr(mods[mod_name], fn_name)
            for m_name, mod in mods.items():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        binding = f"{m_name}.{attr}"
                        self.binding_calls[binding] = 0
                        self._originals.append((mod, attr, val))
                        setattr(mod, attr, self._wrap(layer, binding, original))

    def uninstall(self):
        for mod, attr, val in reversed(self._originals):
            setattr(mod, attr, val)
        self._originals.clear()

    # --- per-operation bookkeeping ------------------------------------------

    def begin_op(self):
        """Distinct-argument counts are taken within one operation."""
        self._op_keys = {}

    def end_op(self):
        for layer, keys in self._op_keys.items():
            self._add(f"{layer}.distinct", len(keys))

    def _add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0) + value

    # --- the wrapper ----------------------------------------------------------

    def _wrap(self, layer: str, binding: str, fn):
        if self.alloc_only:
            return self._wrap_alloc(layer, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.binding_calls[binding] += 1
            tracer._add(f"{layer}.calls", 1)
            if layer in KEYED:
                key = freeze((args, sorted(kwargs.items())))
                tracer._op_keys.setdefault(layer, set()).add(key)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(layer, time.perf_counter(), 0.0, parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BlowupError:
                if layer == "sdde.simulate_paths":
                    tracer._add("sdde.blowups", 1)
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._count_work(layer, args, out)
            return out

        return wrapper

    def _wrap_alloc(self, layer: str, fn):
        """Peak traced allocation per call, for the ALLOC_TRACED layers only.

        tracemalloc slows every allocation, so it runs in its own pass and
        never inside the timed spans.
        """
        if layer not in ALLOC_TRACED:
            return fn
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak_alloc[layer] = max(tracer.peak_alloc.get(layer, 0), peak)

        return wrapper

    def _count_work(self, layer: str, args, out):
        """Work counters read off a layer's arguments and results."""
        if layer == "sdde.simulate_paths":
            n_paths, cols = out.y.shape
            self._add("sdde.path_steps", n_paths * (cols - 1))
            self._add("sdde.clip_count", out.clip_count)
        elif layer == "lq.solve_costate":
            self._add("lq.costate_steps", len(out.t) - 1)
        elif layer == "lifting.solve_delay_ode":
            self._add("lifting.ode_steps", len(out[0]) - 1)
        elif layer == "approximation.simulate_lifted_perturbed":
            params, dt = args[0], args[5]
            steps = round(params.T / dt)
            self._add("approximation.lifted_node_steps", out.y1.size * steps)

    # --- reduction ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per layer; self = span time minus child spans."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for s in self.spans:
            d = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + d
            if s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0.0) + d
        self_t: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            self_t[s.name] = self_t.get(s.name, 0.0) + (s.end - s.start) - child.get(i, 0.0)
        return total, self_t
