"""Span recorder and layer wrappers for the traced benchmark run.

The traced run times calls into each layer of the fluid model and the
packet simulator from the outside: :func:`install` replaces the class
and module attributes that callers look up with thin wrappers that open
and close a span around the original function.  Nothing under ``src/``
changes, and a wrapper returns exactly what the function it wraps
returns, so traced and untraced runs produce identical outputs.

Spans live in flat arrays (name id, parent index, start, end) so that a
million spans cost about 24 MB; :meth:`SpanRecorder.write` saves them
with ``numpy.savez`` when the run ends.  A span's *self time* is its
duration minus the time its child spans cover (:func:`self_times`).
The recorder is single-threaded, so children never overlap one another
and the covered time is the sum of their durations.

Layer entry counts are taken at the wrappers: a call counts as an entry
into its layer when the enclosing span belongs to another layer (or
there is none), so ``as_rate_vector -> validate_rates`` is one
validation, and ``FairShare.queue_lengths -> queue_lengths_batch`` is
one queue-law evaluation.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SpanRecorder", "self_times", "install", "LAYERS"]

#: Layers the wrappers attribute time to, named after the repo modules:
#: ``queue_law`` (core.fifo / core.fairshare / core.service queue
#: laws), ``signals`` (core.signals), ``delays`` (core.delays and the
#: Little's-law sojourns), ``validate`` (core.math_utils rate
#: validation), ``rules`` (core.ratecontrol), ``dynamics.step`` and
#: ``dynamics.driver`` (core.dynamics), ``compiled``
#: (backends.compiled kernels) and ``sim`` (simulation.network_sim),
#: plus ``bench`` for the benchmark's own root span per unit of work.
LAYERS = ("bench", "queue_law", "signals", "delays", "validate", "rules",
          "dynamics.step", "dynamics.driver", "compiled", "sim")


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Self time of every span: duration minus its children's durations.

    ``parent[i]`` is the index of span ``i``'s parent, ``-1`` for a
    root.  Children of one span must not overlap each other (true for
    any single-threaded recording), so the time they cover is the sum
    of their durations.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class SpanRecorder:
    """In-memory span store with per-layer entry counters."""

    def __init__(self):
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._layer_stack: List[int] = []
        #: Entries per layer name, plus the extra counters the special
        #: wrappers add (rows stepped, packet events, ...).
        self.counts: Counter = Counter()
        self._driver_rows: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def intern(self, name: str, layer: str) -> int:
        """Id of span name ``name``, registering it under ``layer``."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return nid

    def open(self, nid: int) -> int:
        layer = self.name_layer[nid]
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent < 0 or self._layer_stack[-1] != layer:
            self.counts[LAYERS[layer]] += 1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        stack.append(idx)
        self._layer_stack.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> float:
        """Close span ``idx``; returns its duration."""
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        self._layer_stack.pop()
        return t - self.start[idx]

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self, lo: int = 0, hi: Optional[int] = None) -> dict:
        """Self seconds per layer and per span name over spans lo:hi.

        The range must hold whole trees (a root span and everything
        under it), as one unit of work does.
        """
        hi = len(self) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        parent[parent < -1] = -1
        start = np.frombuffer(self.start, dtype=float)[lo:hi]
        end = np.frombuffer(self.end, dtype=float)[lo:hi]
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        own = self_times(start, end, parent)
        by_name = np.bincount(names, weights=own,
                              minlength=len(self.names))
        by_layer = np.bincount(np.asarray(self.name_layer)[names],
                               weights=own, minlength=len(LAYERS))
        return {
            "layer_self_s": {layer: float(by_layer[k])
                             for k, layer in enumerate(LAYERS)},
            "name_self_s": {name: float(by_name[k])
                            for k, name in enumerate(self.names)},
        }

    def write(self, path: str, meta: dict) -> None:
        """Save every span (and the name table) to ``path`` (.npz)."""
        np.savez(path,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 names=np.array(self.names),
                 name_layer=np.array([LAYERS[k] for k in self.name_layer]),
                 meta=np.array(repr(meta)))

    # -- wrappers -------------------------------------------------------
    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` inside a span named ``name`` of layer ``layer``."""
        nid = self.intern(name, layer)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for restore()."""
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every attribute :func:`install` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def _wrap_methods(rec: SpanRecorder, base, methods, layer: str) -> None:
    """Wrap each of ``methods`` wherever ``base`` or a subclass defines
    it (so every function object is wrapped exactly once)."""
    for cls in _subclasses(base):
        for attr in methods:
            fn = cls.__dict__.get(attr)
            if callable(fn) and not getattr(fn, "__isabstractmethod__",
                                            False):
                rec.patch(cls, attr, rec.wrap(
                    fn, f"{cls.__name__}.{attr}", layer))


def _wrap_function(rec: SpanRecorder, module, attr: str,
                   layer: str) -> None:
    """Wrap a module-level function in every ``repro`` module that holds
    a reference to it (``from .x import f`` copies the binding)."""
    original = getattr(module, attr)
    wrapper = rec.wrap(original, attr, layer)
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                rec.patch(mod, key, wrapper)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary listed in :data:`LAYERS`.

    Call after the workload has run once, so that every module it uses
    is imported; :meth:`SpanRecorder.restore` undoes it.
    """
    from repro.backends import compiled
    from repro.core import delays, dynamics, fairshare, math_utils, signals
    from repro.core.ratecontrol import RateAdjustment
    from repro.core.service import ServiceDiscipline
    from repro.simulation.network_sim import NetworkSimulation

    _wrap_methods(rec, ServiceDiscipline,
                  ("queue_lengths", "queue_lengths_batch"), "queue_law")
    for attr in ("cumulative_loads", "cumulative_loads_batch"):
        _wrap_function(rec, fairshare, attr, "queue_law")
    _wrap_methods(rec, ServiceDiscipline, ("delays", "delays_batch"),
                  "delays")
    for attr in ("round_trip_delays", "round_trip_delays_batch",
                 "per_gateway_delays"):
        _wrap_function(rec, delays, attr, "delays")
    _wrap_methods(rec, signals.FeedbackScheme,
                  ("signals", "signals_batch", "local_queues",
                   "local_congestion", "local_signals"), "signals")
    _wrap_methods(rec, signals.SignalFunction, ("__call__", "apply_batch"),
                  "signals")
    for attr in ("individual_congestion", "individual_congestion_batch",
                 "aggregate_congestion", "weighted_individual_congestion",
                 "weighted_individual_congestion_batch"):
        _wrap_function(rec, signals, attr, "signals")
    for attr in ("as_rate_vector", "as_rate_matrix", "validate_rates"):
        _wrap_function(rec, math_utils, attr, "validate")
    _wrap_methods(rec, RateAdjustment,
                  ("delta", "apply", "delta_batch", "apply_batch"), "rules")
    for attr in ("fs_queue_batch", "fs_loads_batch", "ind_congestion_batch"):
        _wrap_function(rec, compiled, attr, "compiled")
    _install_dynamics(rec, dynamics.FlowControlSystem)
    _install_sim(rec, NetworkSimulation)


def _install_dynamics(rec: SpanRecorder, system_cls) -> None:
    """Driver and step spans, plus the live-row counters.

    ``rows`` counts rate rows pushed through a step; ``row_capacity``
    counts the rows the step would carry with no member masked out (the
    driver's M, or the step's own rows outside a driver).
    """
    step_nid = {}
    for attr in ("step", "step_batch"):
        step_nid[attr] = rec.intern(f"FlowControlSystem.{attr}",
                                    "dynamics.step")

    def step_wrapper(attr):
        fn = system_cls.__dict__[attr]
        nid = step_nid[attr]

        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            rates = args[0] if args else kwargs["rates"]
            rows = 1 if attr == "step" else int(np.shape(rates)[0])
            rec.counts["rows"] += rows
            rec.counts["row_capacity"] += (rec._driver_rows[-1]
                                           if rec._driver_rows else rows)
            idx = rec.open(nid)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.close(idx)
        return traced

    def driver_wrapper(attr):
        fn = system_cls.__dict__[attr]
        nid = rec.intern(f"FlowControlSystem.{attr}", "dynamics.driver")

        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            initial = (args[0] if args else
                       kwargs["initial" if attr == "run" else "initials"])
            rec._driver_rows.append(
                1 if attr == "run" else int(np.shape(initial)[0]))
            idx = rec.open(nid)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.close(idx)
                rec._driver_rows.pop()
        return traced

    for attr in ("step", "step_batch"):
        rec.patch(system_cls, attr, step_wrapper(attr))
    for attr in ("run", "run_ensemble"):
        rec.patch(system_cls, attr, driver_wrapper(attr))


def _install_sim(rec: SpanRecorder, sim_cls) -> None:
    """``run_for`` / ``set_rates`` spans.  ``run_for`` also counts the
    packet events it executed, in total and per discipline, and
    ``set_rates`` its calls (one per closed-loop control step)."""
    run_for = sim_cls.__dict__["run_for"]
    nid = rec.intern("NetworkSimulation.run_for", "sim")

    @functools.wraps(run_for)
    def traced_run_for(self, duration):
        before = self.events_processed
        idx = rec.open(nid)
        try:
            run_for(self, duration)
        finally:
            seconds = rec.close(idx)
            events = self.events_processed - before
            rec.counts["sim.events"] += events
            rec.counts[f"sim.{self.discipline_kind}.events"] += events
            rec.counts[f"sim.{self.discipline_kind}.seconds"] += seconds

    set_rates = sim_cls.__dict__["set_rates"]
    set_nid = rec.intern("NetworkSimulation.set_rates", "sim")

    @functools.wraps(set_rates)
    def traced_set_rates(self, rates):
        rec.counts["sim.set_rates"] += 1
        idx = rec.open(set_nid)
        try:
            set_rates(self, rates)
        finally:
            rec.close(idx)

    rec.patch(sim_cls, "run_for", traced_run_for)
    rec.patch(sim_cls, "set_rates", traced_set_rates)
