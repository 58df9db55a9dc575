"""Synchronous rate-adjustment dynamics ``r <- F(r)`` (Section 2.3.2).

:class:`FlowControlSystem` bundles a network, a gateway service
discipline, a congestion-signal function, a feedback style, and one
rate-adjustment rule per connection (heterogeneity is first-class — it
is the subject of the robustness results).  One synchronous step is

    ``r_i <- max(0, r_i + f_i(r_i, b_i(r), d_i(r)))``

with queue lengths assumed instantly equilibrated to the current rates,
as in the model.

There is one engine.  :meth:`FlowControlSystem.step_batch` applies the
map to an ``(M, N)`` array of M rate vectors at once — every stage
(queue laws, congestion measures, signal function, rate rules) is
vectorised across the ensemble axis — and
:meth:`FlowControlSystem.run_ensemble` iterates it, masking out members
that converge or diverge so finished trajectories stop costing work,
and classifies each member as converged, oscillating (a small-period
limit cycle), diverged, or undecided.  The single-trajectory entry
points are its one-row case: :meth:`~FlowControlSystem.step` is row 0
of a one-row ``step_batch`` and :meth:`~FlowControlSystem.run` is the
M=1 row of ``run_ensemble`` with its full history kept.  Rows never
interact, so row ``m`` of an M-row run equals the one-row run of the
same start bit for bit.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ConvergenceError, RateVectorError, SweepError
from ..faults import FaultEvent, FaultPlan
from ..observability import RunRecord, emit_run_record, is_collecting
from .delays import round_trip_delays
from .math_utils import (as_rate_matrix, as_rate_vector, clip_nonnegative,
                         sup_norm)
from .ratecontrol import RateAdjustment, RcpSourceRule
from .rcp import RcpController
from .service import ServiceDiscipline
from .signals import FeedbackScheme, FeedbackStyle, SignalFunction
from .topology import Network

__all__ = ["Outcome", "Trajectory", "EnsembleResult", "FlowControlSystem",
           "HISTORY_POLICIES", "ensemble_buffer_bytes"]

#: Valid ``history`` policies for :meth:`FlowControlSystem.run_ensemble`.
#: ``"full"`` keeps every state of every member, ``"tail"`` keeps only
#: the rolling window period detection needs, ``"none"`` keeps no
#: history at all (cheapest; members that exhaust the step budget
#: classify UNDECIDED because there is no tail to search for a limit
#: cycle).
HISTORY_POLICIES = ("full", "tail", "none")


def ensemble_buffer_bytes(n_members: int, n_connections: int,
                          max_steps: int = 20000, max_period: int = 64,
                          history: str = "tail") -> int:
    """Bytes of trajectory buffers ``run_ensemble`` preallocates.

    Covers the dominant allocations — the ``(M, tcap, N)`` rolling tail
    under ``history="tail"`` (``tcap = min(4 * max_period,
    max_steps + 1)``), the ``(M, max_steps + 1, N)`` full-history
    buffer under ``history="full"`` (period detection reads it
    directly), and the ``(M, N)`` finals / initial copies —
    not the transient per-step working set, which scales with
    ``block_size * N`` rather than M.  Use it to choose a ``block_size``
    before committing to a million-member run: the tail and full
    buffers are allocated *per block*, so blocking divides those terms
    by ``M / block_size``.
    """
    if history not in HISTORY_POLICIES:
        raise SweepError(
            f"history must be one of {HISTORY_POLICIES}, got {history!r}")
    itemsize = np.dtype(float).itemsize
    base = 2 * n_members * n_connections * itemsize  # finals + initials
    tcap = min(4 * max_period, max_steps + 1)
    if history == "none":
        return base
    if history == "tail":
        return base + n_members * tcap * n_connections * itemsize
    return base + n_members * (max_steps + 1) * n_connections * itemsize


class Outcome(enum.Enum):
    """How a trajectory of the iterated map ended."""

    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    DIVERGED = "diverged"
    UNDECIDED = "undecided"


@dataclass
class Trajectory:
    """A recorded run of the synchronous dynamics.

    Attributes:
        history: array of shape ``(steps + 1, N)``; row 0 is the initial
            condition and the last row the final state.
        outcome: the classification of the run.
        period: detected cycle length when ``outcome`` is OSCILLATING,
            1 when CONVERGED, otherwise ``None``.
        steps: number of map applications performed.
        telemetry: the :class:`~repro.observability.RunRecord` of the
            run when telemetry was collected, otherwise ``None``.
        fault_events: the :class:`~repro.faults.FaultEvent` s a
            non-empty :class:`~repro.faults.FaultPlan` injected, in
            step order; ``None`` for fault-free runs.
        structural_events: the
            :class:`~repro.chaos.structural.StructuralEvent` window
            transitions a non-empty
            :class:`~repro.chaos.structural.StructuralFaultPlan`
            produced, in step order; ``None`` for structurally clean
            runs.
    """

    history: np.ndarray
    outcome: Outcome
    period: Optional[int]
    steps: int
    telemetry: Optional[RunRecord] = None
    fault_events: Optional[List[FaultEvent]] = None
    structural_events: Optional[list] = None

    @property
    def initial(self) -> np.ndarray:
        return self.history[0]

    @property
    def final(self) -> np.ndarray:
        return self.history[-1]

    def tail(self, k: int) -> np.ndarray:
        """The last ``k`` states (for time-average / attractor summaries)."""
        if k < 1:
            raise RateVectorError(f"tail length must be >= 1, got {k!r}")
        return self.history[-k:]


@dataclass
class EnsembleResult:
    """The outcome of a batched :meth:`FlowControlSystem.run_ensemble`.

    Attributes:
        finals: array of shape ``(M, N)`` — the last state of each
            ensemble member (row ``m`` equals ``run(initials[m]).final``).
        outcomes: per-member :class:`Outcome`, length M.
        periods: per-member detected period (1 when converged, the cycle
            length when oscillating, ``None`` otherwise).
        steps: per-member number of map applications performed.
        initials: the ``(M, N)`` initial conditions.
        histories: when the ensemble was run with ``history="full"``,
            the per-member trajectories (each
            ``(steps_m + 1, N)``).  These are *views* into the block
            history buffer, not copies — zero-copy for the common
            "wrap in a Trajectory and read" pattern; call ``.copy()``
            on one before mutating it in place.  ``None`` otherwise.
        telemetry: the :class:`~repro.observability.RunRecord` of the
            ensemble when telemetry was collected, otherwise ``None``.
        fault_events: the :class:`~repro.faults.FaultEvent` s a
            non-empty :class:`~repro.faults.FaultPlan` injected across
            all members, ordered by (step, member); ``None`` for
            fault-free runs.
        structural_events: the
            :class:`~repro.chaos.structural.StructuralEvent` window
            transitions across all members, ordered by (step, member);
            ``None`` for structurally clean runs.
        history_policy: the history retention policy the run used
            (``"full"``, ``"tail"``, or ``"none"``).
        block_size: the member block size when the ensemble was run
            blocked, ``None`` when it ran as a single block.
    """

    finals: np.ndarray
    outcomes: List[Outcome]
    periods: List[Optional[int]]
    steps: np.ndarray
    initials: np.ndarray
    histories: Optional[List[np.ndarray]] = None
    telemetry: Optional[RunRecord] = None
    fault_events: Optional[List[FaultEvent]] = None
    structural_events: Optional[list] = None
    history_policy: str = "tail"
    block_size: Optional[int] = None

    def __len__(self) -> int:
        return self.finals.shape[0]

    def outcome_mask(self, outcome: Outcome) -> np.ndarray:
        """Boolean member mask for one outcome class."""
        return np.array([o is outcome for o in self.outcomes])

    def outcome_counts(self) -> dict:
        """``{outcome: member count}`` over the ensemble."""
        counts = {o: 0 for o in Outcome}
        for o in self.outcomes:
            counts[o] += 1
        return counts

    def trajectory(self, m: int) -> Trajectory:
        """Member ``m`` as a :class:`Trajectory`.

        Requires the ensemble to have been run with ``history="full"``.
        """
        if self.histories is None:
            raise RateVectorError(
                "run_ensemble(..., history='full') is required to "
                "extract per-member trajectories")
        return Trajectory(self.histories[m], self.outcomes[m],
                          self.periods[m], int(self.steps[m]))


class FlowControlSystem:
    """A complete feedback flow control configuration and its dynamics."""

    #: Rates larger than ``DIVERGENCE_FACTOR * max(mu)`` mark divergence.
    DIVERGENCE_FACTOR = 1e6

    def __init__(self, network: Network, discipline: ServiceDiscipline,
                 signal_fn: SignalFunction,
                 rules: Union[RateAdjustment, Sequence[RateAdjustment]],
                 style: FeedbackStyle = FeedbackStyle.INDIVIDUAL,
                 weights=None,
                 controller: Optional[RcpController] = None):
        self.network = network
        self.discipline = discipline
        self.scheme = FeedbackScheme(network, discipline, signal_fn, style,
                                     weights=weights)
        n = network.num_connections
        if isinstance(rules, RateAdjustment):
            self.rules: List[RateAdjustment] = [rules] * n
        else:
            self.rules = list(rules)
            if len(self.rules) != n:
                raise RateVectorError(
                    f"need one rule per connection: got {len(self.rules)} "
                    f"rules for {n} connections")
        self._mu_max = max(network.mu(g) for g in network.gateway_names)
        # Group connection columns by rule object so each distinct rule
        # is applied once per step over all its columns (heterogeneous
        # configurations stay fully vectorised).
        groups: List[tuple] = []
        seen: dict = {}
        for i, rule in enumerate(self.rules):
            key = id(rule)
            if key not in seen:
                seen[key] = len(groups)
                groups.append((rule, [i]))
            else:
                groups[seen[key]][1].append(i)
        self._rule_groups = [(rule, np.asarray(cols, dtype=np.intp))
                             for rule, cols in groups]
        # Router-side control (RCP): per-gateway advertised-rate state
        # replaces the per-source rule map entirely.  Sources must run
        # the degenerate RcpSourceRule so the configuration is explicit
        # about who owns the control law.
        self.controller = controller
        self._bank = None
        has_rcp_sources = any(isinstance(rule, RcpSourceRule)
                              for rule in self.rules)
        if controller is not None:
            if not all(isinstance(rule, RcpSourceRule)
                       for rule in self.rules):
                raise RateVectorError(
                    "a controller-driven system requires every "
                    "connection to run RcpSourceRule (sources adopt "
                    "advertised rates; they do not self-adjust)")
            self._bank = controller.bind(network)
        elif has_rcp_sources:
            raise RateVectorError(
                "RcpSourceRule needs a controller: without one the "
                "dynamics would be the identity map")

    @property
    def controlled(self) -> bool:
        """True when a router-side controller owns the control law."""
        return self._bank is not None

    @property
    def bank(self):
        """The bound per-gateway controller state factory, or ``None``."""
        return self._bank

    @property
    def style(self) -> FeedbackStyle:
        return self.scheme.style

    @property
    def signal_fn(self) -> SignalFunction:
        return self.scheme.signal_fn

    @property
    def homogeneous(self) -> bool:
        """True when every connection runs the same rule object."""
        return all(rule is self.rules[0] for rule in self.rules)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def signals(self, rates: np.ndarray) -> np.ndarray:
        """Bottleneck congestion signals ``b_i(r)``."""
        return self.scheme.signals(rates)

    def delays(self, rates: np.ndarray) -> np.ndarray:
        """Round-trip delays ``d_i(r)``."""
        return round_trip_delays(self.network, self.discipline, rates)

    # ------------------------------------------------------------------
    # the map
    # ------------------------------------------------------------------
    def step(self, rates: np.ndarray, faults=None,
             step_index: int = 1, structural=None) -> np.ndarray:
        """One synchronous application of ``F``: row 0 of a one-row
        :meth:`step_batch`.

        ``faults`` (a :class:`~repro.faults.FaultState`, obtained from
        :meth:`FaultPlan.start <repro.faults.FaultPlan.start>`)
        perturbs the signal vector the rules observe at this step;
        ``step_index`` is the 1-based step number the injectors see.
        With ``faults=None`` the computation is exactly the fault-free
        map.

        ``structural`` (a
        :class:`~repro.chaos.structural.StructuralFaultState`, obtained
        from :meth:`StructuralFaultPlan.start
        <repro.chaos.structural.StructuralFaultPlan.start>`) resolves
        this step against a possibly damaged topology: signals and
        delays are computed on the degraded network, and connections
        through a blackholed gateway observe the saturated signal
        ``b = 1`` *before* any signal-path faults apply.  While no
        window is active the resolved view is the base network and
        scheme, so the step is bit-identical to the clean map.

        Controller-driven systems carry per-gateway state the rule map
        knows nothing about; use :meth:`step_controlled` (``run`` /
        ``run_ensemble`` dispatch automatically).
        """
        if self._bank is not None:
            raise RateVectorError(
                "system is controller-driven; use step_controlled")
        r = as_rate_vector(rates, n=self.network.num_connections)
        return self.step_batch(
            r[np.newaxis], step_index=step_index,
            faults=None if faults is None else [faults],
            structural=None if structural is None else [structural])[0]

    def step_batch(self, rates: np.ndarray, faults=None, members=None,
                   step_index: int = 1, structural=None) -> np.ndarray:
        """One synchronous application of ``F`` to a batch of states.

        ``rates`` is an ``(M, N)`` array of M independent rate vectors
        (a single vector is promoted to a one-row batch); the result has
        the same shape, and every stage is row-independent, so row
        ``m`` does not depend on the other rows.

        ``faults`` is a sequence of per-member
        :class:`~repro.faults.FaultState` s indexed by *absolute*
        member number; ``members`` maps each row of ``rates`` to its
        member number (defaults to row order).  Each row's signal
        vector is perturbed by its own member state, so fault streams
        stay aligned with their members even when finished members
        have been masked out of the batch.

        ``structural`` is likewise a sequence of per-member
        :class:`~repro.chaos.structural.StructuralFaultState` s indexed
        by absolute member number.  Rows are grouped by their resolved
        damage signature and each group's signals and delays are
        computed on that group's degraded network in one vectorised
        pass — equal signatures build bit-identical schemes, so
        grouping keeps every row independent of the others.
        """
        if self._bank is not None:
            raise RateVectorError(
                "system is controller-driven; use step_controlled_batch")
        r = as_rate_matrix(rates, n=self.network.num_connections)
        rows = members if members is not None else range(r.shape[0])
        if structural is None:
            b, d = self.scheme.observe_batch(r)
        else:
            groups: dict = {}
            for row, m in enumerate(rows):
                view = structural[m].resolve(step_index)
                groups.setdefault(view.key, (view, []))[1].append(row)
            b = np.empty_like(r)
            d = np.empty_like(r)
            for view, row_list in groups.values():
                sel = np.asarray(row_list, dtype=np.intp)
                bs, d[sel] = view.scheme.observe_batch(r[sel])
                if view.blackholed.size:
                    bs[:, view.blackholed] = 1.0
                b[sel] = bs
        if faults is not None:
            for row, m in enumerate(rows):
                b[row] = faults[m].apply(step_index, b[row])
        return self._apply_rules(r, b, d)

    def _apply_rules(self, r: np.ndarray, b: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
        """Truncated rule updates ``max(0, r + f(r, b, d))`` per column
        group, all rows at once."""
        new = np.empty_like(r)
        for rule, cols in self._rule_groups:
            new[:, cols] = rule.apply_batch(r[:, cols], b[:, cols],
                                            d[:, cols])
        return clip_nonnegative(new)

    def step_controlled(self, rates: np.ndarray,
                        state: np.ndarray) -> tuple:
        """One controlled step: gateways update, sources adopt.

        ``state`` is the ``(G,)`` advertised-rate vector (start from
        ``self.bank.initial_state()``).  Returns ``(r_next,
        state_next)`` — gateways observe the offered rates, advance
        their advertised rates, and every source adopts the path
        minimum.  Row 0 of a one-row :meth:`step_controlled_batch`.
        """
        if self._bank is None:
            raise RateVectorError(
                "system has no controller; use step")
        r = as_rate_vector(rates, n=self.network.num_connections)
        r_next, state_next = self.step_controlled_batch(
            r[np.newaxis], np.asarray(state, dtype=float)[np.newaxis])
        return r_next[0], state_next[0]

    def step_controlled_batch(self, rates: np.ndarray,
                              state: np.ndarray) -> tuple:
        """Batched :meth:`step_controlled` over ``(M, N)`` rates and
        ``(M, G)`` controller state; rows are independent."""
        if self._bank is None:
            raise RateVectorError(
                "system has no controller; use step_batch")
        r = as_rate_matrix(rates, n=self.network.num_connections)
        state_next = self._bank.update_batch(r, state)
        return clip_nonnegative(self._bank.advertised_batch(state_next)), \
            state_next

    def residual(self, rates: np.ndarray) -> np.ndarray:
        """``F(r) - r``: zero exactly at (truncated) steady states."""
        r = as_rate_vector(rates, n=self.network.num_connections)
        return self.step(r) - r

    def is_steady_state(self, rates: np.ndarray, tol: float = 1e-9) -> bool:
        """True when ``r`` is a fixed point of the truncated map."""
        r = as_rate_vector(rates, n=self.network.num_connections)
        return sup_norm(self.step(r), r) <= tol * max(1.0, float(np.max(r)))

    # ------------------------------------------------------------------
    # trajectories
    # ------------------------------------------------------------------
    def run(self, initial: Sequence[float], max_steps: int = 20000,
            tol: float = 1e-10, settle: int = 5,
            max_period: int = 64,
            telemetry: Optional[bool] = None,
            faults: Optional[FaultPlan] = None,
            fault_member: int = 0,
            structural=None) -> Trajectory:
        """Iterate the map from ``initial`` and classify the outcome.

        ``run`` is the one-member row of :meth:`run_ensemble`, recorded
        in full: the same engine, the same classification, the same
        bits.  Convergence requires ``settle`` consecutive steps with
        sup-norm change below ``tol * max(1, |r|_inf)``.  After the
        step budget, a limit cycle of period ``<= max_period`` is
        searched for in the trajectory tail; finding one yields
        OSCILLATING, otherwise UNDECIDED.  Any non-finite or absurdly
        large rate yields DIVERGED immediately.  A run that exhausts
        the budget returns its history buffer itself; an early exit
        trims it with a copy so the trajectory does not pin
        ``max_steps`` rows of memory.

        ``telemetry=None`` (the default) records a
        :class:`~repro.observability.RunRecord` of kind ``"run"`` —
        per-iteration residuals, mask events, wall time per phase —
        exactly when an :func:`~repro.observability.collect` session is
        active; pass ``True``/``False`` to force it on or off.  The
        record is attached to the returned trajectory and emitted to
        any active sessions.

        ``faults`` injects a :class:`~repro.faults.FaultPlan` into the
        feedback path: each step's signal vector is perturbed before
        the rules see it, and every injected event is recorded on the
        trajectory (and in the run record when telemetry is on).  The
        empty plan (and ``None``) leaves the run bit-identical to the
        fault-free path.  ``fault_member`` selects the plan's RNG
        stream — member ``m`` of a faulted :meth:`run_ensemble`
        reproduces ``run(initials[m], faults=plan, fault_member=m)``.

        ``structural`` injects a
        :class:`~repro.chaos.structural.StructuralFaultPlan`: scheduled
        gateway capacity degradations and blackholes damage the
        topology the dynamics run on (see :meth:`step`), every window
        transition is recorded on the trajectory, and the empty plan
        (and ``None``) keeps the run bit-identical to the clean path.
        ``fault_member`` selects the structural jitter stream too.
        Structural plans compose with signal-path ``faults``; neither
        composes with a router-side controller.
        """
        r = as_rate_vector(initial, n=self.network.num_connections)
        return _row_trajectory(self._ensemble(
            "run", r[np.newaxis], max_steps, tol, settle, max_period,
            "full", None, telemetry, faults, structural,
            first_member=fault_member), max_steps)

    def run_ensemble(self, initials, max_steps: int = 20000,
                     tol: float = 1e-10, settle: int = 5,
                     max_period: int = 64,
                     telemetry: Optional[bool] = None,
                     faults: Optional[FaultPlan] = None,
                     block_size: Optional[int] = None,
                     history: str = "tail",
                     structural=None) -> EnsembleResult:
        """Iterate the map from a whole batch of initial conditions.

        ``initials`` is an ``(M, N)`` array — M starting rate vectors.
        All M trajectories advance through one vectorised
        :meth:`step_batch` per step, and members that converge or
        diverge are masked out of the batch so finished trajectories
        stop costing work.  Members are independent: row ``m`` of an
        M-row run equals the one-row run of ``initials[m]`` (that is,
        ``run(initials[m], ...)``) in final state, outcome, step count,
        and period.  An empty batch (``M = 0``) returns well-shaped
        empty results.

        ``block_size`` chunks the M axis: members are evolved in
        consecutive blocks of at most ``block_size`` members, so the
        trajectory buffers (and the per-step working set) scale with
        the block, not with M — this is what makes M ~ 10^6 ensembles
        runnable out of core.  Members are independent, so blocked
        execution is *bit-identical* to the one-shot path in finals,
        outcomes, steps, periods, and mask events.  ``None`` (default)
        runs a single block.  ``block_size <= 0`` raises
        :class:`~repro.errors.SweepError`; a block size larger than M
        warns and runs as a single block.

        ``history`` selects how much trajectory state is retained:

        - ``"full"`` — every state of every member.  Memory:
          ``block * (max_steps + 1) * N`` floats per block, and the
          returned ``histories`` views keep each block's buffer alive.
        - ``"tail"`` (default) — only the rolling
          ``min(4 * max_period, max_steps + 1)``-state tail that
          limit-cycle detection needs.
        - ``"none"`` — no history at all.  Cheapest; the one semantic
          change is that members exhausting the step budget classify
          UNDECIDED (never OSCILLATING) because there is no tail to
          search for a cycle.

        Invalid policies raise :class:`~repro.errors.SweepError`, as do
        ``max_steps < 0``, ``settle < 1``, ``max_period < 1``, a
        non-integer count, and a negative or NaN ``tol``.
        :func:`ensemble_buffer_bytes` predicts the buffer cost of a
        given (M, N, history, block) combination.

        ``telemetry`` works as in :meth:`run` (the record's kind is
        ``"ensemble"``).  A blocked run streams each block's
        per-iteration reductions into the single record (series are
        concatenated in block order; the record's
        ``n_blocks``/``block_size`` fields say how to cut them), and
        mask events are merged across blocks into the same
        (step, member) order the one-shot path produces.

        ``faults`` works as in :meth:`run`; each member gets its own
        independent fault stream (seeded by the *absolute* member
        index, blocked or not), so member ``m`` reproduces
        ``run(initials[m], faults=plan, fault_member=m)``.  The empty
        plan keeps the fault-free path bit-identical.

        ``structural`` injects a
        :class:`~repro.chaos.structural.StructuralFaultPlan` into every
        member, each with its own jitter stream seeded by the absolute
        member index — member ``m`` reproduces ``run(initials[m],
        structural=plan, fault_member=m)``, blocked or not.  Window
        transitions across all members are collected on the result in
        (step, member) order.  The empty plan keeps the clean path
        bit-identical.
        """
        r0 = as_rate_matrix(initials, n=self.network.num_connections)
        return self._ensemble("ensemble", r0, max_steps, tol, settle,
                              max_period, history, block_size, telemetry,
                              faults, structural)

    def _ensemble(self, kind, r0, max_steps, tol, settle, max_period,
                  history, block_size, telemetry, faults, structural,
                  first_member: int = 0) -> EnsembleResult:
        """Run ``r0`` through the driver; member ``k`` of ``r0`` draws
        the fault and structural streams of member ``first_member + k``.
        """
        if self._bank is not None and faults is not None \
                and not faults.empty:
            raise SweepError(
                "fault plans perturb the per-source signal path, which "
                "controller-driven systems do not read; faults with a "
                "controller are not supported")
        if self._bank is not None and structural is not None \
                and not structural.empty:
            raise SweepError(
                "structural fault plans damage the per-source "
                "signal/delay path, which controller-driven systems "
                "replace with router-side state; structural faults "
                "with a controller are not supported")
        block = _resolve_block_size(block_size, r0.shape[0], stacklevel=4)
        members = range(first_member, first_member + r0.shape[0])
        fault_states = None
        if faults is not None and not faults.empty:
            fault_states = [faults.start(network=self.network, member=m)
                            for m in members]
        structural_states = None
        if structural is not None and not structural.empty:
            structural_states = [structural.start(self, member=m)
                                 for m in members]

        def stepper(base, end):
            if self._bank is not None:
                ctrl = self._bank.initial_state_batch(end - base)

                def step(r, idx, t):
                    nonlocal ctrl
                    r_next, ctrl = self.step_controlled_batch(r, ctrl)
                    return r_next

                def drop(keep):
                    nonlocal ctrl
                    ctrl = ctrl[keep]
                return step, drop
            if fault_states is None and structural_states is None:
                return (lambda r, idx, t: self.step_batch(r)), None
            blk_faults = (fault_states[base:end]
                          if fault_states is not None else None)
            blk_structural = (structural_states[base:end]
                              if structural_states is not None else None)
            return (lambda r, idx, t: self.step_batch(
                r, faults=blk_faults, members=idx, step_index=t,
                structural=blk_structural)), None

        return _drive(kind, r0, stepper, settle=settle,
                      max_steps=max_steps, tol=tol, max_period=max_period,
                      limit=self.DIVERGENCE_FACTOR * self._mu_max,
                      history=history, block=block,
                      blocked=block_size is not None, telemetry=telemetry,
                      fault_states=fault_states,
                      structural_states=structural_states)

    def solve(self, initial: Sequence[float], **kwargs) -> np.ndarray:
        """Run to convergence and return the steady state; raise otherwise."""
        traj = self.run(initial, **kwargs)
        if traj.outcome is not Outcome.CONVERGED:
            raise ConvergenceError(
                f"dynamics did not converge (outcome: {traj.outcome.value})")
        return traj.final


# ----------------------------------------------------------------------
# the ensemble driver (shared with repro.core.asynchronous)
# ----------------------------------------------------------------------
def _row_trajectory(res: EnsembleResult, max_steps: int) -> Trajectory:
    """The only member of a one-row full-history run as a
    :class:`Trajectory`; an early exit trims the history with a copy
    so the trajectory does not pin the ``max_steps`` buffer."""
    steps = int(res.steps[0])
    history = res.histories[0]
    if steps < max_steps:
        history = history.copy()
    return Trajectory(history, res.outcomes[0], res.periods[0], steps,
                      telemetry=res.telemetry,
                      fault_events=res.fault_events,
                      structural_events=res.structural_events)


def _resolve_block_size(block_size, m_total: int,
                        stacklevel: int = 3) -> int:
    """Validate ``block_size`` and clamp it to the ensemble size;
    ``stacklevel`` points the oversize warning at the public caller."""
    if block_size is None:
        return max(m_total, 1)
    _check_count("block_size", block_size, 1)
    if m_total and block_size > m_total:
        warnings.warn(
            f"block_size={block_size} exceeds the ensemble size "
            f"M={m_total}; running as a single block",
            RuntimeWarning, stacklevel=stacklevel)
        return m_total
    return int(block_size)


def _check_count(name: str, value, low: int) -> None:
    """Raise :class:`SweepError` unless ``value`` is an int >= ``low``."""
    if isinstance(value, bool) or \
            not isinstance(value, (int, np.integer)) or value < low:
        raise SweepError(
            f"{name} must be an integer >= {low}, got {value!r}")


class _Ledger:
    """Per-member results and run totals the driver fills in."""

    def __init__(self, r0: np.ndarray, record: bool):
        m_total = r0.shape[0]
        self.outcomes: List[Outcome] = [Outcome.UNDECIDED] * m_total
        self.periods: List[Optional[int]] = [None] * m_total
        self.steps = np.zeros(m_total, dtype=int)
        self.finals = r0.copy()
        self.histories: Optional[list] = [None] * m_total if record \
            else None
        self.mask_events: List[tuple] = []
        self.seconds = {"step": 0.0, "classify": 0.0,
                        "period_detection": 0.0}
        self.converged = 0
        self.diverged = 0
        self.period_ran = False


def _drive(kind, r0, stepper, *, settle, max_steps, tol, max_period,
           limit, history, block, blocked, telemetry, fault_states=None,
           structural_states=None) -> EnsembleResult:
    """Evolve every row of ``r0`` to an outcome: the one iteration loop.

    ``stepper(base, end)`` prepares members ``base:end`` and returns
    ``(step, drop)``: ``step(r, idx, t)`` maps the live rows ``r``
    (block-relative member numbers ``idx``) to their state after step
    ``t``, and ``drop(keep)`` (or ``None``) masks any per-member state
    the stepper carries when finished members leave.  ``settle`` is
    the quiet-step count, one for all members or one per member.
    Convergence, divergence, period classification, history retention,
    blocking, telemetry and the validation of these arguments live
    here and nowhere else.
    """
    _check_count("max_steps", max_steps, 0)
    _check_count("max_period", max_period, 1)
    quiet = np.asarray(settle)
    if quiet.dtype.kind not in "iu" or np.any(quiet < 1):
        raise SweepError(f"settle must be an integer >= 1, got {settle!r}")
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise SweepError(f"tol must be a number >= 0, got {tol!r}")
    if history not in HISTORY_POLICIES:
        raise SweepError(
            f"history must be one of {HISTORY_POLICIES}, got {history!r}")
    m_total, n = r0.shape
    if telemetry is None:
        telemetry = is_collecting()
    rec = None
    if telemetry:
        rec = RunRecord.begin(kind, m_total, n, max_steps, tol,
                              int(np.max(quiet)) if quiet.size else 0)
        rec.n_blocks = max(-(-m_total // block), 1)
        rec.block_size = block if blocked else None
    settle = np.broadcast_to(quiet, (m_total,))
    ledger = _Ledger(r0, record=history == "full")
    for base in range(0, m_total, block):
        _evolve_block(r0, base, min(base + block, m_total), stepper,
                      settle, max_steps, tol, max_period, limit, history,
                      rec, ledger)

    # Members finish in (step, member) order on the one-shot path;
    # blocked execution discovers the same events block by block, so a
    # (stable) sort restores the identical ordering.
    ledger.mask_events.sort(key=lambda e: (e[0], e[1]))
    fault_events = _merged_events(fault_states)
    structural_events = _merged_events(structural_states)
    if rec is not None:
        for event in ledger.mask_events:
            rec.observe_mask_event(*event)
        for event in fault_events or ():
            rec.observe_fault_event(*event)
        if ledger.period_ran:
            rec.add_phase("period_detection",
                          ledger.seconds["period_detection"])
        rec.add_phase("step", ledger.seconds["step"])
        rec.add_phase("classify", ledger.seconds["classify"])
        counts: dict = {}
        for o in ledger.outcomes:
            counts[o.value] = counts.get(o.value, 0) + 1
        rec.finish(int(np.max(ledger.steps)) if m_total else 0, counts)
        emit_run_record(rec)
    return EnsembleResult(finals=ledger.finals, outcomes=ledger.outcomes,
                          periods=ledger.periods, steps=ledger.steps,
                          initials=r0, histories=ledger.histories,
                          telemetry=rec, fault_events=fault_events,
                          structural_events=structural_events,
                          history_policy=history,
                          block_size=block if blocked else None)


def _merged_events(states) -> Optional[list]:
    """All members' events in (step, member) order; ``None`` when the
    run had no such plan."""
    if states is None:
        return None
    events = [event for state in states for event in state.events]
    events.sort(key=lambda e: (e.step, e.member))
    return events


def _evolve_block(r0, base, end, stepper, settle, max_steps, tol,
                  max_period, limit, history, rec, ledger) -> None:
    """Evolve members ``base:end`` of ``r0``; write into ``ledger`` at
    absolute member indices."""
    step, drop = stepper(base, end)
    mb, n = end - base, r0.shape[1]
    r = r0[base:end].copy()       # live members' states, compressed
    idx = np.arange(mb)           # their block-relative member numbers
    quiet = np.zeros(mb, dtype=int)
    settle = settle[base:end]
    # Period detection probes lags up to max_period over a window of
    # 3 * max_period, so a rolling tail of the last 4 * max_period
    # states suffices when the full history is not kept.
    tcap = min(4 * max_period, max_steps + 1)
    tail = full = own = None
    if history == "tail":
        tail = np.zeros((mb, tcap, n))
        tail[:, 0] = r
    elif history == "full":
        # A one-member block writes through a (1, S, N) view of its own
        # (S, N) buffer, so a member that uses the whole budget hands
        # out that buffer itself rather than a view of it.
        if mb == 1:
            own = np.empty((max_steps + 1, n))
            full = own[np.newaxis]
        else:
            full = np.empty((mb, max_steps + 1, n))
        full[:, 0] = r
    seconds = ledger.seconds
    clock = time.perf_counter
    for t in range(1, max_steps + 1):
        if rec is not None:
            t0 = clock()
        r_next = step(r, idx, t)
        if rec is not None:
            t1 = clock()
            seconds["step"] += t1 - t0
        if tail is not None:
            tail[idx, t % tcap] = r_next
        elif full is not None:
            full[idx, t] = r_next
        with np.errstate(invalid="ignore"):
            change = np.max(np.abs(r_next - r), axis=1)
            diverged = ~np.all(np.isfinite(r_next), axis=1) \
                | np.any(r_next > limit, axis=1)
            within = change <= tol * np.maximum(1.0, np.max(r_next, axis=1))
        quiet_next = np.where(within, quiet[idx] + 1, 0)
        quiet[idx] = quiet_next
        done = diverged | (quiet_next >= settle[idx])
        if done.any():
            for k in np.flatnonzero(done):
                member = base + int(idx[k])
                ledger.finals[member] = r_next[k]
                ledger.steps[member] = t
                if diverged[k]:
                    ledger.outcomes[member] = Outcome.DIVERGED
                    ledger.diverged += 1
                else:
                    ledger.outcomes[member] = Outcome.CONVERGED
                    ledger.periods[member] = 1
                    ledger.converged += 1
                ledger.mask_events.append(
                    (t, member, ledger.outcomes[member].value))
            keep = ~done
            idx = idx[keep]
            r = r_next[keep]
            if drop is not None:
                drop(keep)
        else:
            r = r_next
        if rec is not None:
            # The largest finite change over every row stepped now —
            # including rows that just finished — and inf only when
            # no row's change is finite.
            finite = change[np.isfinite(change)]
            rec.observe_iteration(
                float(np.max(finite)) if finite.size else math.inf,
                idx.size, ledger.converged, ledger.diverged)
            seconds["classify"] += clock() - t1
        if idx.size == 0:
            break
    else:
        # Members that exhausted the step budget: search the retained
        # states for a cycle (skipped — UNDECIDED — under "none").
        ledger.finals[base + idx] = r
        ledger.steps[base + idx] = max_steps
        if history != "none":
            t0 = clock()
            start = (max_steps + 1) % tcap
            for m in idx:
                states = (full[m] if full is not None
                          else np.roll(tail[m], -start, axis=0))
                period = _detect_period(states, max_period, tol,
                                        total_len=max_steps + 1)
                if period is not None:
                    ledger.outcomes[base + m] = Outcome.OSCILLATING
                    ledger.periods[base + m] = period
            seconds["period_detection"] += clock() - t0
            ledger.period_ran = True
    if full is not None:
        # Views, not copies: each member's trajectory window into the
        # block buffer (see EnsembleResult.histories).
        for m in range(mb):
            steps = int(ledger.steps[base + m])
            ledger.histories[base + m] = (
                own if own is not None and steps == max_steps
                else full[m, :steps + 1])


def _detect_period(history: np.ndarray, max_period: int, tol: float,
                   total_len: int = None) -> Optional[int]:
    """Smallest period ``p >= 2`` such that the tail repeats with lag p.

    ``history`` may be just the trajectory tail (at least the last
    ``4 * max_period`` states); pass ``total_len`` as the true number of
    recorded states so the window-length guard matches the full-history
    behaviour.
    """
    steps = history.shape[0] if total_len is None else total_len
    for p in range(2, max_period + 1):
        window = 3 * p
        if steps < window + p:
            return None
        recent = history[-window:]
        lagged = history[-window - p:-p]
        scale = max(1.0, float(np.max(np.abs(recent))))
        if np.max(np.abs(recent - lagged)) <= 1e3 * tol * scale:
            return p
    return None
