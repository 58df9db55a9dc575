"""Closed-loop feedback flow control over the packet simulator.

The analytic model assumes instant queue equilibration and synchronous,
delay-free signalling.  This driver removes those idealisations: the
rate-adjustment rules are fed *measured* congestion signals computed
from time-averaged queue lengths over each control interval, exactly as
a DECbit-style deployment would average over round trips.

Each control step:

1. run the packet simulation for ``control_interval`` time units;
2. per gateway, turn the measured per-connection mean queues into
   congestion measures (aggregate sum, or the individual
   ``sum_k min(Q_k, Q_i)``) and signals ``b^a_i = B(C^a_i)``;
3. per connection, take the bottleneck maximum along the path and the
   measured mean round-trip delay;
4. apply each connection's rule ``r <- max(floor, r + f(r, b, d))``.

A small positive rate floor keeps silent connections probing — in a
packet system a source at exactly zero rate would never learn that the
congestion cleared (the paper's model sidesteps this by assuming signal
delivery regardless).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from ..core.ratecontrol import RateAdjustment
from ..core.signals import (FeedbackStyle, SignalFunction,
                            aggregate_congestion, individual_congestion)
from ..core.topology import Network
from ..errors import SimulationError
from ..observability import RunRecord, emit_run_record, is_collecting
from .network_sim import NetworkSimulation

__all__ = ["ClosedLoopResult", "run_closed_loop"]


@dataclass
class ClosedLoopResult:
    """Trajectory and final measurements of a closed-loop run."""

    times: np.ndarray                #: control-step boundary times
    rate_history: np.ndarray         #: (steps + 1, N) commanded rates
    signal_history: np.ndarray       #: (steps, N) observed signals
    final_rates: np.ndarray          #: commanded rates after the last step
    final_throughput: np.ndarray     #: measured deliveries/time, last step
    final_delays: np.ndarray         #: measured mean delays, last step
    fault_events: list = None        #: injected FaultEvents, or None

    @property
    def steps(self) -> int:
        return self.signal_history.shape[0]

    def tail_mean_rates(self, k: int) -> np.ndarray:
        """Average commanded rates over the last ``k`` control steps."""
        if k < 1:
            raise SimulationError(f"tail length must be >= 1, got {k!r}")
        return self.rate_history[-k:].mean(axis=0)


def run_closed_loop(network: Network,
                    rules: Union[RateAdjustment, Sequence[RateAdjustment]],
                    signal_fn: SignalFunction,
                    style: FeedbackStyle = FeedbackStyle.INDIVIDUAL,
                    discipline_kind: str = "fair-share",
                    initial_rates: Sequence[float] = None,
                    control_interval: float = 200.0,
                    n_steps: int = 60,
                    seed: int = 0,
                    rate_floor: float = 1e-3,
                    rate_mode: str = "oracle",
                    signal_source: str = "queue",
                    buffer_sizes=None,
                    drop_policy: str = "tail",
                    faults=None,
                    engine: str = "auto") -> ClosedLoopResult:
    """Drive feedback flow control with measured signals; see module doc.

    ``signal_source`` selects the congestion observable:

    * ``"queue"`` (default) — the paper's explicit signalling: windowed
      mean queues through ``signal_fn``;
    * ``"drops"`` — implicit Jacobson-style feedback: the signal is the
      measured drop fraction at drop-tail gateways (``buffer_sizes``
      must then bound the buffers), bypassing ``signal_fn``.  Aggregate
      style uses the gateway-wide drop fraction, individual style the
      per-connection one.

    ``faults`` injects a :class:`~repro.faults.FaultPlan` into the
    measured feedback: the per-connection signal vector of each control
    step is perturbed before the rules see it (step index = control
    step, 1-based), and the injected events come back on
    ``ClosedLoopResult.fault_events``.  ``None`` and the empty plan
    leave the run bit-identical to the fault-free path.

    ``control_interval`` must be a finite number > 0 and ``n_steps``
    an integer >= 0 (a zero interval would average empty windows into
    a plausible-looking trajectory); both raise
    :class:`~repro.errors.SimulationError` otherwise.

    ``engine`` selects the simulation engine (see
    :class:`~repro.simulation.network_sim.NetworkSimulation`):
    ``"auto"`` uses the packet kernel whenever the configuration
    allows — the compiled C loops when the active backend carries the
    live C tier (``repro.backends.active().compiled``), the fast
    Python kernel otherwise — with trajectories bit-identical to
    ``"legacy"``.

    When an :func:`repro.observability.collect` session is active, a
    :class:`~repro.observability.RunRecord` is emitted whose
    ``phase_seconds`` splits the wall time into ``"simulate"`` (the
    packet engine), ``"signals"`` (congestion-measure extraction), and
    ``"rules"`` (rate updates) — the breakdown the kernel benchmarks
    watch.
    """
    if isinstance(control_interval, bool) \
            or not isinstance(control_interval, numbers.Real) \
            or not (math.isfinite(control_interval)
                    and control_interval > 0):
        raise SimulationError(
            f"control_interval must be a finite number > 0, got "
            f"{control_interval!r}")
    if isinstance(n_steps, bool) or \
            not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise SimulationError(
            f"n_steps must be an integer >= 0, got {n_steps!r}")
    if signal_source not in ("queue", "drops"):
        raise SimulationError(
            f"signal_source must be 'queue' or 'drops', got "
            f"{signal_source!r}")
    if signal_source == "drops" and buffer_sizes is None:
        raise SimulationError(
            "drop-based feedback needs finite buffer_sizes")
    n = network.num_connections
    if isinstance(rules, RateAdjustment):
        rule_list: List[RateAdjustment] = [rules] * n
    else:
        rule_list = list(rules)
        if len(rule_list) != n:
            raise SimulationError(
                f"need one rule per connection, got {len(rule_list)} "
                f"for {n}")
    if initial_rates is None:
        initial_rates = np.full(
            n, 0.1 * min(network.mu(g) for g in network.gateway_names))
    rates = np.maximum(np.asarray(initial_rates, dtype=float), rate_floor)

    sim = NetworkSimulation(network, discipline_kind=discipline_kind,
                            seed=seed, initial_rates=rates,
                            rate_mode=rate_mode,
                            buffer_sizes=buffer_sizes,
                            drop_policy=drop_policy,
                            engine=engine)
    style = FeedbackStyle(style)
    fault_state = (faults.start(network=network, member=0)
                   if faults is not None else None)
    rec = (RunRecord.begin("run", 1, n, n_steps, 0.0, 0)
           if is_collecting() else None)

    times = [0.0]
    rate_history = [rates.copy()]
    signal_history = []
    throughput = np.zeros(n)
    delays = np.full(n, np.nan)

    for step_index in range(1, n_steps + 1):
        t0 = time.perf_counter() if rec is not None else 0.0
        sim.reset_statistics()
        sim.run_for(control_interval)
        queues = sim.mean_queue_lengths()
        if rec is not None:
            t1 = time.perf_counter()
            rec.add_phase("simulate", t1 - t0)

        b = np.zeros(n, dtype=float)
        if signal_source == "drops":
            for gname, fractions in sim.drop_fractions().items():
                monitor = sim.monitors[gname]
                if style is FeedbackStyle.AGGREGATE:
                    values = np.full(fractions.shape[0],
                                     monitor.aggregate_drop_fraction())
                else:
                    values = fractions
                local = sim.network.connections_at(gname)
                for pos, conn in enumerate(local):
                    b[conn] = max(b[conn], float(values[pos]))
        else:
            for gname, q in queues.items():
                if style is FeedbackStyle.AGGREGATE:
                    congestion = np.full(q.shape[0],
                                         aggregate_congestion(q))
                else:
                    congestion = individual_congestion(q)
                local = sim.network.connections_at(gname)
                for pos, conn in enumerate(local):
                    b[conn] = max(b[conn],
                                  signal_fn(float(congestion[pos])))

        if fault_state is not None:
            b = fault_state.apply(step_index, b)

        delays_measured = sim.mean_delays()
        throughput = sim.throughput()
        fallback = np.array([network.path_latency(i) for i in range(n)])
        d = np.where(np.isnan(delays_measured), fallback + 1.0 /
                     np.array([min(network.mu(g) for g in network.gamma(i))
                               for i in range(n)]),
                     delays_measured)
        delays = delays_measured
        if rec is not None:
            t2 = time.perf_counter()
            rec.add_phase("signals", t2 - t1)

        new_rates = np.array([
            max(rate_floor,
                rates[i] + rule_list[i].delta(float(rates[i]), float(b[i]),
                                              float(d[i])))
            for i in range(n)
        ])
        rates = new_rates
        if rate_mode == "measured":
            sim.refresh_measured_rates()
        sim.set_rates(rates)
        times.append(sim.now)
        rate_history.append(rates.copy())
        signal_history.append(b.copy())
        if rec is not None:
            rec.add_phase("rules", time.perf_counter() - t2)

    if rec is not None:
        rec.finish(n_steps, {"completed": 1})
        emit_run_record(rec)

    return ClosedLoopResult(
        times=np.asarray(times),
        rate_history=np.asarray(rate_history),
        signal_history=np.asarray(signal_history),
        final_rates=rates.copy(),
        final_throughput=np.asarray(throughput, dtype=float),
        final_delays=np.asarray(delays, dtype=float),
        fault_events=(fault_state.events if fault_state is not None
                      else None),
    )
