"""Per-layer host-time tracing from outside the program.

The benchmark never edits the code it measures. A traced repetition
instead wraps the public functions at each layer boundary (the
:data:`BOUNDARIES` table) before setup, records one span per call while
the root span (the ``serve`` call) is open, and puts every original
back afterwards. Spans live in flat arrays — name, parent, start, end —
because the hottest boundary is called millions of times per run.

A layer's self time is its spans' durations minus the parts their child
spans cover; the self times of all layers plus the root's own add up to
the root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np


class Boundary(NamedTuple):
    layer: str
    #: Dotted paths of the public functions whose calls are the layer.
    paths: Tuple[str, ...]
    #: Also wrap every loaded subclass's own override of each method.
    overrides: bool = False


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("sim.run", ("repro.sim.engine.Simulator.run",)),
    *(
        Boundary(f"engine.{method}",
                 (f"repro.coe.engine.ServingEngine.{method}",))
        for method in ("estimated_backlog_s", "steal", "submit",
                       "precompute_phases", "warm", "drain")
    ),
    Boundary("columnar.lower_queue", ("repro.coe.columnar.lower_queue",)),
    Boundary("columnar.drain", ("repro.coe.columnar.drain",)),
    Boundary("scheduling.order",
             ("repro.coe.scheduling.Scheduler.order",), overrides=True),
    Boundary("scheduling.affinity_schedule",
             ("repro.coe.scheduling.affinity_schedule",)),
    Boundary("scheduling.coalesce_groups",
             ("repro.coe.scheduling.coalesce_groups",)),
    Boundary("scheduling.predictor",
             ("repro.coe.scheduling.ExpertPredictor.observe",
              "repro.coe.scheduling.ExpertPredictor.observe_run")),
    *(
        Boundary(f"runtime.{method}",
                 (f"repro.coe.runtime.CoERuntime.{method}",))
        for method in ("activate", "touch_run", "promote_to_ddr")
    ),
    Boundary("cache.eviction_order",
             ("repro.coe.cache.CachePolicy.eviction_order",), overrides=True),
    Boundary("hierarchy.transfer_time",
             ("repro.memory.hierarchy.MemoryHierarchy.transfer_time",)),
    Boundary("serving.cost",
             ("repro.coe.serving.ExpertServer.router_time",
              "repro.coe.serving.ExpertServer.expert_time")),
    Boundary("timeline.record", ("repro.obs.timeline.Timeline.record",)),
    Boundary("timeline.query",
             ("repro.obs.timeline.Timeline.busy_s",
              "repro.obs.timeline.Timeline.overlap_s",
              "repro.obs.timeline.Timeline.spans")),
    Boundary("metrics.summarize",
             ("repro.coe.metrics.summarize_latencies",
              "repro.coe.columnar.latency_values")),
)

#: The layer whose first entry and last exit split the root span into
#: admission, simulation and report building.
SIM_LAYER = "sim.run"


def _resolve(path: str) -> Optional[object]:
    """The object at a dotted path (longest importable module prefix,
    then attributes), or None when any part of it is gone."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _functions(path: str, overrides: bool) -> List[Callable]:
    """The function at ``path`` and, for a method with ``overrides``,
    every loaded subclass's own definition of it."""
    fn = _resolve(path)
    if fn is None:
        return []
    if not overrides:
        return [fn]
    owner_path, method = path.rsplit(".", 1)
    pending = [_resolve(owner_path)]
    found: List[Callable] = []
    while pending:
        cls = pending.pop()
        own = vars(cls).get(method)
        if own is not None and own not in found:
            found.append(own)
        pending.extend(cls.__subclasses__())
    return found


def _bindings(fn: Callable) -> Iterator[Tuple[object, str]]:
    """Every (module or class, attribute) of a loaded ``repro`` module
    bound to ``fn`` — so an import alias is wrapped with the original."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    yield owner, attr


def boundary_bindings() -> Dict[str, List[Tuple[object, str, Callable]]]:
    """Layer -> every (owner, attribute, original function) to wrap.

    A path that no longer resolves is skipped with a warning; a layer
    with no path left maps to an empty list and reports null.
    """
    out: Dict[str, List[Tuple[object, str, Callable]]] = {}
    for boundary in BOUNDARIES:
        found = out.setdefault(boundary.layer, [])
        for path in boundary.paths:
            functions = _functions(path, boundary.overrides)
            if not functions:
                warnings.warn(
                    f"trace boundary {path} not found; "
                    f"layer {boundary.layer} loses its calls to it"
                )
            for fn in functions:
                found.extend((owner, attr, fn) for owner, attr in _bindings(fn))
    return out


class SpanRecorder:
    """In-memory spans of one traced repetition; span 0 is the root."""

    def __init__(self) -> None:
        self.layers: List[str] = ["root"]
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._open: List[int] = []

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` recording a ``layer`` span per call inside the root."""
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        names, parents = self.names, self.parents
        starts, ends, open_spans = self.starts, self.ends, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not open_spans:
                return fn(*args, **kwargs)
            index = len(ends)
            names.append(layer_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    @contextmanager
    def root(self):
        """Open the root span; wrapped calls outside it are not recorded."""
        if len(self.ends):
            raise RuntimeError("a SpanRecorder records one root span")
        self.names.append(0)
        self.parents.append(-1)
        self.ends.append(0.0)
        self._open.append(0)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[0] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict:
        """Root span, the admission/report split, and per-layer
        ``calls``/``self_s`` (None for a layer that was never wrapped)."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        duration = ends - starts
        children = np.bincount(parents[1:], weights=duration[1:],
                               minlength=len(duration))
        own = duration - children
        calls = np.bincount(names, minlength=len(self.layers))
        self_s = np.bincount(names, weights=own, minlength=len(self.layers))
        layers = {}
        for boundary in BOUNDARIES:
            if boundary.layer in self.layers:
                layer_id = self.layers.index(boundary.layer)
                layers[boundary.layer] = {"calls": int(calls[layer_id]),
                                          "self_s": float(self_s[layer_id])}
            else:
                layers[boundary.layer] = None
        sim = names == (self.layers.index(SIM_LAYER)
                        if SIM_LAYER in self.layers else -1)
        return {
            "root_s": float(duration[0]),
            "root_self_s": float(self_s[0]),
            "admission_s": (float(starts[sim].min() - starts[0])
                            if sim.any() else None),
            "report_s": float(ends[0] - ends[sim].max()) if sim.any() else None,
            "layers": layers,
        }


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every boundary binding for ``recorder``; restore on exit."""
    patched: List[Tuple[object, str, Callable]] = []
    wrappers: Dict[Callable, Callable] = {}
    try:
        for layer, bindings in boundary_bindings().items():
            for owner, attr, fn in bindings:
                if fn not in wrappers:
                    wrappers[fn] = recorder.wrap(fn, layer)
                setattr(owner, attr, wrappers[fn])
                patched.append((owner, attr, fn))
        yield
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)
