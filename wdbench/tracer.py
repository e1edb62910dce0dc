"""Outside-in tracer for ``wdbounds``.

The tracer wraps the public functions of the package's modules from outside,
without touching the package's source.  A function is patched at *every*
name it is looked up under: ``transient_ctmc`` is called as
``wdbounds.bounds.transient_ctmc`` as well as ``wdbounds.markov.transient_ctmc``,
and ``solve`` as ``wdbounds.curvature.solve`` and ``wdbounds.transport.solve``.
Calls made through a module object (``bounds_mod.defect``) resolve through
the defining module and are caught there.

Each call opens a span on a stack, so a span's self time (its duration less
the time covered by traced calls inside it) is exact.  A target missing from
the package (renamed or removed by a later refactor) is skipped: its metrics
read zero instead of aborting the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

__all__ = ["LAYERS", "Tracer", "layer_metrics", "LAYER_METRICS"]

#: Modules whose public functions (their ``__all__``) are traced.
LAYERS = (
    "markov",
    "bounds",
    "transport",
    "lp",
    "curvature",
    "metric",
    "cli",
    "aggregation",
    "models",
)


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class _Frame:
    fn: object
    layer: str
    args: tuple
    kwargs: dict
    child: float = 0.0


@dataclass
class Tracer:
    """Span stack plus per-function and per-layer totals.

    ``stats[key]`` holds calls, total and self time of ``layer.function``;
    ``layer_time[layer]`` the time of outermost spans of that layer (nested
    calls inside the same layer are not counted twice); ``counters`` the
    values read from return values and call context.
    """

    stats: dict = field(default_factory=dict)
    layer_time: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _depth: dict = field(default_factory=dict)
    _patches: list = field(default_factory=list)

    def reset(self) -> None:
        self.stats.clear()
        self.layer_time.clear()
        self.counters.clear()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def install(self) -> None:
        """Patch every traced function at every module attribute bound to it."""
        targets = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"wdbounds.{layer}")
            except ImportError:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = (layer, f"{layer}.{name}")
        wrappers = {fn: self._wrap(fn, *info) for fn, info in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wdbounds" or mod_name.startswith("wdbounds.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, val = self._patches.pop()
            setattr(mod, attr, val)

    def _wrap(self, fn, layer: str, key: str):
        stack = self._stack
        depth = self._depth
        stats = self.stats
        layer_time = self.layer_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(fn, layer, args, kwargs)
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[layer] = depth.get(layer, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                st = stats.get(key)
                if st is None:
                    st = stats[key] = _Stat()
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - frame.child
                if depth[layer] == 0:
                    layer_time[layer] = layer_time.get(layer, 0.0) + elapsed
                if parent is not None:
                    parent.child += elapsed
            self._observe(key, parent, result)
            return result

        return traced

    def _observe(self, key: str, parent: _Frame | None, result) -> None:
        if key == "lp.solve" and parent is not None and parent.layer == "transport":
            # an LP solve under a transport call that asked for the transport
            # kernel is the silent fallback after a stalled kernel
            if _requested_method(parent) != "lp":
                self.count("transport.lp_fallbacks")
        elif key == "curvature.kappa_min":
            strategy = result[1] if isinstance(result, tuple) and len(result) == 2 else None
            solved = getattr(strategy, "pairs_solved", None)
            total = getattr(strategy, "pairs_total", None)
            if solved is not None and total is not None:
                self.count("curvature.pairs_solved", len(solved))
                self.count("curvature.pairs_total", total)


def _requested_method(frame: _Frame):
    """The ``method`` argument a traced call ran with, defaults applied."""
    try:
        bound = inspect.signature(frame.fn).bind(*frame.args, **frame.kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments.get("method")


def _stat(tracer: Tracer, key: str) -> _Stat:
    return tracer.stats.get(key, _Stat())


#: Per-layer metrics reported for one traced pass: name -> (unit, reader).
LAYER_METRICS = {
    "markov.transient_calls": ("count", lambda t: _stat(t, "markov.transient_ctmc").calls),
    "markov.transient_s": ("s", lambda t: _stat(t, "markov.transient_ctmc").total),
    "bounds.integral_self_s": (
        "s",
        lambda t: _stat(t, "bounds.bound_linear_K_timevarying").self_time
        + _stat(t, "bounds.bound_local_K").self_time,
    ),
    "bounds.defect_s": ("s", lambda t: _stat(t, "bounds.defect").total),
    "bounds.prepare_inputs_s": ("s", lambda t: _stat(t, "bounds.prepare_bound_inputs").total),
    "bounds.exact_curve_s": ("s", lambda t: _stat(t, "bounds.exact_error_curve").total),
    "transport.signed_calls": ("count", lambda t: _stat(t, "transport.wasserstein_signed").calls),
    "transport.signed_s": ("s", lambda t: _stat(t, "transport.wasserstein_signed").total),
    "transport.w1_calls": ("count", lambda t: _stat(t, "transport.wasserstein").calls),
    "transport.w1_s": ("s", lambda t: _stat(t, "transport.wasserstein").total),
    "transport.lp_fallbacks": ("count", lambda t: t.counters.get("transport.lp_fallbacks", 0)),
    "lp.solve_calls": ("count", lambda t: _stat(t, "lp.solve").calls),
    "lp.solve_s": ("s", lambda t: _stat(t, "lp.solve").total),
    "curvature.kappa_calls": ("count", lambda t: _stat(t, "curvature.kappa_ctmc").calls),
    "curvature.kappa_s": ("s", lambda t: _stat(t, "curvature.kappa_ctmc").total),
    "curvature.pairs_solved": ("count", lambda t: t.counters.get("curvature.pairs_solved", 0)),
    "curvature.pairs_total": ("count", lambda t: t.counters.get("curvature.pairs_total", 0)),
    "curvature.k_matrix_calls": ("count", lambda t: _stat(t, "curvature.k_matrix").calls),
    "curvature.k_matrix_s": ("s", lambda t: _stat(t, "curvature.k_matrix").total),
    "metric.validate_calls": ("count", lambda t: _stat(t, "metric.validate_metric").calls),
    "metric.validate_s": ("s", lambda t: _stat(t, "metric.validate_metric").total),
    # load_model reads a file and calls load_model_dict, so its own share is its self time
    "cli.model_load_s": (
        "s",
        lambda t: _stat(t, "cli.load_model_dict").total + _stat(t, "cli.load_model").self_time,
    ),
    "cli.command_s": ("s", lambda t: _stat(t, "cli.main").total),
    "aggregation.build_s": ("s", lambda t: t.layer_time.get("aggregation", 0.0)),
    "models.build_s": ("s", lambda t: t.layer_time.get("models", 0.0)),
}



def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of what the tracer recorded since its last reset."""
    return {name: float(read(tracer)) for name, (_, read) in LAYER_METRICS.items()}
