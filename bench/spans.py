"""Span tracer that measures the package's layers from outside.

It wraps each package function where it is bound: in its defining module and
in every module that imports it by name (``from .x import y``), because
rebinding only the defining module misses calls through those names.  SciPy's
``lu_factor`` (bound in ``continuation``) and ``gmres`` (bound in ``newton``)
are wrapped the same way.  Every call records a span with its name, start,
end and parent; spans stay in memory until the run writes them out.

A span is named ``<layer>.<function>``, the layer being the module that
defines the function, or for the SciPy calls the module that binds it.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "ehdsolitary"
LAYERS = ("model", "spectral", "system", "newton", "continuation",
          "diagnostics", "io", "conjugate", "reduced_ode")

# (binding module, attribute) pairs of foreign functions traced as the
# binding module's layer.
FOREIGN = (("continuation", "lu_factor"), ("newton", "gmres"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 at top level
    rows: int = 0          # trace rows an operator call processed
    info: float = 0.0      # call-specific quantity (iterations, bytes, ...)
    raised: bool = False


def _rows_arg(i):
    """Row count of positional trace argument i (a 1-D trace counts 1)."""
    def measure(args, kwargs, result):
        return math.prod(np.shape(args[i])[:-1])
    return measure


def _iters(args, kwargs, result):
    return float(len(result.norm_history) - 1)


def _load_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _save_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]) + sum(os.path.getsize(p) for p in result))


def _dense_bytes(args, kwargs, result):
    # computed, not measured: the (M, M) matrix plus the (M, N) basis and the
    # (M, N) batched directional derivative it is assembled from
    g = args[2]
    m = g.n_modes
    return float(8 * (m * m + 2 * m * g.n_points))


def _rk4_steps(args, kwargs, result):
    return float(sum(len(orbit.x) - 1 for orbit in result))


# Per-span extra measurements, keyed by span name: (rows, info) functions.
_ROWS = {f"spectral.{n}": _rows_arg(0) for n in (
    "ddx", "dtn", "eval_interior", "eval_interior_dy", "conjugate_primitive",
    "cosine_coefficients", "values_from_cosine")}
_ROWS["system.jacobian_apply"] = _rows_arg(1)
_INFO = {
    "newton.newton_solve": _iters,
    "newton.dense_jacobian": _dense_bytes,
    "io.load_solution": _load_bytes,
    "io.save_branch": _save_bytes,
    "reduced_ode.phase_portrait": _rk4_steps,
}


class Tracer:
    """Collects spans from wrapped package functions.

    ``install`` rebinds the functions, ``uninstall`` restores the originals;
    ``enabled`` switches recording on and off without rebinding.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span named name."""
        rows_fn = _ROWS.get(name)
        info_fn = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            rec = Span(name, self.clock(), 0.0,
                       self._stack[-1] if self._stack else -1)
            self.spans.append(rec)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised = True
                raise
            finally:
                rec.end = self.clock()
                self._stack.pop()
            if rows_fn is not None:
                rec.rows = rows_fn(args, kwargs, result)
            if info_fn is not None:
                rec.info = info_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        for name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not callable(value) or isinstance(value, type):
                    continue
                defining = getattr(value, "__module__", "") or ""
                if not defining.startswith(PACKAGE + "."):
                    continue
                layer = defining.rsplit(".", 1)[-1]
                if layer not in modules or attr.startswith("_"):
                    continue
                self._rebind(module, attr, f"{layer}.{value.__name__}")
        for name, attr in FOREIGN:
            self._rebind(modules[name], attr, f"{name}.{attr}")

    def _rebind(self, module, attr: str, span_name: str) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.span(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# --- aggregation -------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for j in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[j].start, cursor), min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, rows, info sum and raised
    calls; per layer: self seconds; plus the single-trace
    ``jacobian_apply`` calls (matvecs) and the ``newton_solve`` calls made
    from inside ``continuation``."""
    own = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "rows": 0,
                                   "info": 0.0, "raised": 0})
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        agg = by_name[s.name]
        agg["calls"] += 1
        agg["s"] += s.end - s.start
        agg["rows"] += s.rows
        agg["info"] += s.info
        agg["raised"] += s.raised
        layer_self[s.name.split(".", 1)[0]] += own[i]
    matvecs = sum(1 for s in spans
                  if s.name == "system.jacobian_apply" and s.rows == 1)
    solves = sum(1 for s in spans if s.name == "newton.newton_solve"
                 and s.parent >= 0
                 and spans[s.parent].name.startswith("continuation."))
    return {"names": dict(by_name), "layer_self_s": dict(layer_self),
            "matvecs": matvecs, "solves_under_continuation": solves}
