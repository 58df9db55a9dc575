"""The benchmark's workloads: one fixed unit of work each, its inputs
drawn from the workload seed, and its outputs checked against
independent references.

Every workload object is built once per process (``__init__`` is the
"build systems and inputs" part of set-up) and then runs its unit of
work repeatedly through :meth:`run`.  A unit returns a plain dict of
outputs; :meth:`digest` hashes them (identical across repeats, traced
or not), :meth:`checks` lists ``(name, passed)`` correctness checks, and
:meth:`work` counts the unit's work — member x connection x step for
the fluid workloads, packet events for ``packet_validation``.

``run(rec)`` receives the span recorder in the traced run and ``None``
otherwise; only ``packet_validation`` uses it, to read the closed loop's
own ``RunRecord`` phases from a ``collect()`` session.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import TargetRule, TcpLikeRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.steadystate import fair_steady_state
from repro.core.topology import random_network, single_gateway
from repro.experiments.exp_f7_fs_stability import run_f7_fs_stability
from repro.observability import collect
from repro.simulation.closed_loop import run_closed_loop
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.validation import analytic_counterpart

__all__ = ["WORKLOADS"]

Check = Tuple[str, bool]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


@contextlib.contextmanager
def _tap(cls, attr: str, sink: list):
    """Append ``(self, args, result)`` of every ``cls.attr`` call to
    ``sink`` while active: how the benchmark reads step counts and
    simulator instances that a public runner keeps to itself.  One list
    append per call, on calls that each do thousands of steps or
    events."""
    original = cls.__dict__[attr]

    def tapped(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        sink.append((self, args, result))
        return result

    setattr(cls, attr, tapped)
    try:
        yield sink
    finally:
        setattr(cls, attr, original)


class FsEnsemble:
    """Fair Share, individual feedback, LinearSaturating, TargetRule at a
    stable gain, one gateway, N=512, M=64, through ``run_ensemble``.

    With N=512 the uniform mode has gain ``eta * N * g'(rho) B'(C)``
    = ``512 eta``, so ``eta = 0.003`` puts its multiplier at
    ``1 - 1.54 = -0.54`` (stable), while the per-connection modes, N
    times slower, set the run length.
    Member ``m`` starts at the fair point times ``1 + a_m v_m``: ``v_m``
    is a seeded permutation of N evenly spaced values in [-1, 1] and
    ``a_m = 0.2 (m + 1) / M``.  Fair Share treats connections
    symmetrically, so a permutation changes no step count: every seed
    does the same work, while the spread of amplitudes makes members
    converge at different steps and exercises the driver's masking.
    """

    N, M = 512, 64
    ETA, BETA = 0.003, 0.5
    SPREAD = 0.2
    TOL = 1e-8
    MAX_STEPS = 2000
    #: Relative sup-norm distance to Theorem 3's fair point a converged
    #: member may keep (the converged members stop within 0.13%).
    FAIR_TOL = 0.01
    #: Layers a traced unit must enter at least once (see worker.py);
    #: ``compiled`` only counts when a compiled tier is live.
    LAYERS_USED = ("queue_law", "signals", "delays", "validate", "rules",
                   "dynamics.step", "dynamics.driver", "compiled")

    def __init__(self, seed: int):
        signal = LinearSaturating()
        network = single_gateway(self.N, mu=1.0)
        self.fair = fair_steady_state(
            network, signal.steady_state_utilisation(self.BETA))
        self.system = FlowControlSystem(
            network, FairShare(), signal,
            TargetRule(eta=self.ETA, beta=self.BETA),
            style=FeedbackStyle.INDIVIDUAL)
        rng = np.random.default_rng(seed)
        profile = np.linspace(-1.0, 1.0, self.N)
        v = np.array([rng.permutation(profile) for _ in range(self.M)])
        amplitude = self.SPREAD * np.arange(1, self.M + 1) / self.M
        self.initials = self.fair * (1.0 + amplitude[:, None] * v)

    def run(self, rec=None) -> dict:
        res = self.system.run_ensemble(self.initials,
                                       max_steps=self.MAX_STEPS,
                                       tol=self.TOL)
        return {"finals": res.finals, "steps": res.steps,
                "outcomes": [o.value for o in res.outcomes]}

    def work(self, out: dict) -> float:
        return float(self.N * np.sum(out["steps"]))

    def digest(self, out: dict) -> str:
        return _digest(out["finals"], out["steps"], out["outcomes"])

    def checks(self, out: dict) -> List[Check]:
        scale = float(np.max(self.fair))
        gaps = np.max(np.abs(out["finals"] - self.fair), axis=1) / scale
        return [(f"member{m}_at_fair_point",
                 out["outcomes"][m] == Outcome.CONVERGED.value
                 and bool(gaps[m] <= self.FAIR_TOL))
                for m in range(self.M)]


class ScalarPaper:
    """The F7 / Theorem 4 experiment through ``run_f7_fs_stability``.

    The N grid (4, 8) keeps one stable and one unstable absolute-gain
    case in the detectability part; the unstable one runs F7's full
    20000-step budget at N=8 through scalar ``FlowControlSystem.run``.
    """

    N_VALUES = (4, 8)
    #: Layers a traced unit must enter at least once (see worker.py).
    LAYERS_USED = ("queue_law", "signals", "delays", "validate", "rules",
                   "dynamics.step", "dynamics.driver")

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, rec=None) -> dict:
        with _tap(FlowControlSystem, "run", []) as runs:
            result = run_f7_fs_stability(n_values=self.N_VALUES,
                                         seed=self.seed)
        cells = sum(system.network.num_connections * traj.steps
                    for system, _, traj in runs)
        return {"rows": result.rows, "checks": result.checks,
                "cell_steps": cells}

    def work(self, out: dict) -> float:
        return float(out["cell_steps"])

    def digest(self, out: dict) -> str:
        return _digest(out["rows"], sorted(out["checks"].items()),
                       out["cell_steps"])

    def checks(self, out: dict) -> List[Check]:
        return [(name, bool(ok)) for name, ok in out["checks"].items()]


class FifoTcpEnsemble:
    """FIFO, aggregate feedback, TcpLikeRule, an 8-gateway
    ``random_network``, N=64, M=64, through ``run_ensemble``.

    AIMD never settles, so every member runs the whole step budget and
    the driver then searches the tail for a period: the work per unit is
    fixed whatever the seed.
    """

    N, M, GATEWAYS = 64, 64, 8
    MAX_STEPS = 750
    #: The topology is part of the workload's definition, not of its
    #: seeded inputs: with it fixed, every seed costs the same per step.
    TOPOLOGY_SEED = 11
    #: Layers a traced unit must enter at least once (see worker.py).
    LAYERS_USED = ("queue_law", "signals", "delays", "validate", "rules",
                   "dynamics.step", "dynamics.driver")

    def __init__(self, seed: int):
        network = random_network(self.GATEWAYS, self.N,
                                 seed=self.TOPOLOGY_SEED)
        self.system = FlowControlSystem(network, Fifo(), LinearSaturating(),
                                        TcpLikeRule(),
                                        style=FeedbackStyle.AGGREGATE)
        mu_min = min(network.mu(g) for g in network.gateway_names)
        rng = np.random.default_rng(seed)
        self.initials = rng.uniform(0.0, 2.0 * mu_min / self.N,
                                    size=(self.M, self.N))

    def run(self, rec=None) -> dict:
        res = self.system.run_ensemble(self.initials,
                                       max_steps=self.MAX_STEPS)
        return {"finals": res.finals, "steps": res.steps,
                "outcomes": [o.value for o in res.outcomes],
                "periods": res.periods}

    def work(self, out: dict) -> float:
        return float(self.N * np.sum(out["steps"]))

    def digest(self, out: dict) -> str:
        return _digest(out["finals"], out["steps"], out["outcomes"],
                       out["periods"])

    def checks(self, out: dict) -> List[Check]:
        settled = (Outcome.CONVERGED.value, Outcome.DIVERGED.value)
        finite = np.all(np.isfinite(out["finals"]), axis=1)
        return [(f"member{m}_keeps_oscillating",
                 out["outcomes"][m] not in settled and bool(finite[m]))
                for m in range(self.M)]


class PacketValidation:
    """F12's work on ``NetworkSimulation(engine="auto")``.

    Open loop: one gateway at F12's fixed rates for each of ``fifo``,
    ``fair-share`` and ``fixed-priority``; the time-averaged queues must
    match ``analytic_counterpart`` within F12's tolerance.  Closed loop:
    F12's three-connection Fair Share loop must settle within F12's loop
    tolerance of the fair point.  The seed drives the simulator streams.

    F12's tolerances hold only at F12's own seed for F12's run lengths
    (its 50-step loop misses 0.15 on 13 of 40 seeds, and its 30000-unit
    horizon misses 0.12 on 1 of 40), so the benchmark runs longer: a
    120000-unit horizon and a 200-step loop, the tolerances unchanged.
    """

    RATES = (0.1, 0.2, 0.25, 0.15)
    MU = 1.0
    HORIZON, WARMUP = 120000.0, 3000.0
    LOOP_STEPS, LOOP_INTERVAL = 200, 400.0
    KINDS = ("fifo", "fair-share", "fixed-priority")
    #: F12's defaults for the two comparisons.
    TOLERANCE, LOOP_TOLERANCE = 0.12, 0.15
    LAYERS_USED = ("queue_law", "signals", "rules", "sim")

    def __init__(self, seed: int):
        self.seed = seed
        self.rates = np.asarray(self.RATES, dtype=float)
        self.network = single_gateway(self.rates.shape[0], mu=self.MU)
        beta = 0.5
        self.signal = LinearSaturating()
        self.rule = TargetRule(eta=0.05, beta=beta)
        self.loop_network = single_gateway(3, mu=self.MU)
        self.fair = fair_steady_state(
            self.loop_network, self.signal.steady_state_utilisation(beta))

    def run(self, rec=None) -> dict:
        measured: Dict[str, np.ndarray] = {}
        expected: Dict[str, np.ndarray] = {}
        events = 0
        for kind in self.KINDS:
            expected[kind] = analytic_counterpart(
                kind, self.rates.shape[0]).queue_lengths(self.rates,
                                                         self.MU)
            sim = NetworkSimulation(self.network, discipline_kind=kind,
                                    seed=self.seed,
                                    initial_rates=self.rates,
                                    engine="auto")
            sim.run_for(self.WARMUP)
            sim.reset_statistics()
            sim.run_for(self.HORIZON)
            measured[kind] = np.asarray(sim.mean_queue_lengths()["g0"],
                                        dtype=float)
            events += sim.events_processed
        session = collect() if rec is not None else contextlib.nullcontext()
        with _tap(NetworkSimulation, "__init__", []) as sims, \
                session as collected:
            loop = run_closed_loop(
                self.loop_network, self.rule, self.signal,
                style=FeedbackStyle.INDIVIDUAL,
                discipline_kind="fair-share",
                initial_rates=[0.05, 0.2, 0.4],
                control_interval=self.LOOP_INTERVAL,
                n_steps=self.LOOP_STEPS, seed=self.seed, engine="auto")
        events += sum(sim.events_processed for sim, _, _ in sims)
        if rec is not None:
            phases = collected.run_records[-1].phase_seconds
            for phase in ("simulate", "signals", "rules"):
                rec.counts[f"sim.closed_loop.{phase}_s"] += phases[phase]
        return {"measured": measured, "expected": expected,
                "rate_history": loop.rate_history, "events": events}

    def work(self, out: dict) -> float:
        return float(out["events"])

    def digest(self, out: dict) -> str:
        return _digest([out["measured"][k] for k in self.KINDS],
                       [out["expected"][k] for k in self.KINDS],
                       out["rate_history"], out["events"])

    def checks(self, out: dict) -> List[Check]:
        out_checks = []
        for kind in self.KINDS:
            expected = out["expected"][kind]
            rel = (np.abs(out["measured"][kind] - expected)
                   / np.maximum(np.abs(expected), 0.05))
            out_checks.append((f"{kind}_law_within_tolerance",
                               bool(np.max(rel) < self.TOLERANCE)))
        settled = out["rate_history"][-max(5, self.LOOP_STEPS // 5):]
        gap = (float(np.max(np.abs(settled.mean(axis=0) - self.fair)))
               / float(np.max(self.fair)))
        out_checks.append(("closed_loop_settles_near_fair_point",
                           gap < self.LOOP_TOLERANCE))
        return out_checks


#: Workload name -> class, in the order the benchmark lists them.
WORKLOADS: Dict[str, type] = {
    "fs_ensemble": FsEnsemble,
    "scalar_paper": ScalarPaper,
    "fifo_tcp_ensemble": FifoTcpEnsemble,
    "packet_validation": PacketValidation,
}

