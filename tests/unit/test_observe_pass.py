"""One observation pass per step.

``FeedbackScheme.observe_batch`` walks the gateways once: each
gateway's queue law runs a single time for the whole batch, and that
``Q^a`` feeds both the bottleneck signals ``b`` and the round-trip
delays ``d``.  The only other queue-law evaluation is the zero-rate
probe inside ``ServiceDiscipline.delays_batch``.  These tests count
the evaluations through the clean step, the structural step and the
asynchronous stepper, and check that the pass returns the same bits as
the delays-only entry point and as the per-gateway composition of the
public layer functions.
"""

import numpy as np
import pytest

from repro.chaos.structural import CapacityDegradation, StructuralFaultPlan
from repro.core.asynchronous import run_async_ensemble
from repro.core.delays import round_trip_delays_batch
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.fifo import Fifo
from repro.core.ratecontrol import TargetRule
from repro.core.service import PreemptivePriority
from repro.core.signals import (FeedbackScheme, FeedbackStyle,
                                LinearSaturating, PowerSaturating,
                                individual_congestion_batch,
                                weighted_individual_congestion_batch)
from repro.core.topology import random_network, single_gateway, tandem
from repro.core.weighted import WeightedFairShare


class _Counting:
    """Counts ``queue_lengths_batch`` calls, then defers to the law."""

    calls = 0

    def queue_lengths_batch(self, rates, mu, *args, **kwargs):
        self.calls += 1
        return super().queue_lengths_batch(rates, mu, *args, **kwargs)


class CountingFifo(_Counting, Fifo):
    pass


class CountingFairShare(_Counting, FairShare):
    pass


class CountingPriority(_Counting, PreemptivePriority):
    pass


class CountingWeightedFairShare(_Counting, WeightedFairShare):
    pass


AGG, IND = FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL
WEIGHTS = np.array([1.0, 2.0, 0.5, 1.5])

#: name -> (network, discipline factory, style, scheme weights)
CASES = {
    "fifo-aggregate": (random_network(5, 12, seed=3), CountingFifo, AGG,
                       None),
    "fifo-individual": (random_network(5, 12, seed=3), CountingFifo, IND,
                        None),
    "fs-aggregate": (random_network(5, 12, seed=3), CountingFairShare,
                     AGG, None),
    "fs-individual": (random_network(5, 12, seed=3), CountingFairShare,
                      IND, None),
    "fs-weighted-individual": (random_network(5, 12, seed=3),
                               CountingFairShare, IND,
                               np.linspace(0.5, 2.0, 12)),
    "fs-individual-large": (single_gateway(70, mu=1.0, latency=0.2),
                            CountingFairShare, IND, None),
    "priority-aggregate": (tandem(3, 4, latency=0.1),
                           lambda: CountingPriority([2, 0, 3, 1]), AGG,
                           None),
    "priority-individual": (tandem(3, 4, latency=0.1),
                            lambda: CountingPriority([2, 0, 3, 1]), IND,
                            None),
    "wfs-aggregate": (tandem(3, 4, latency=0.1),
                      lambda: CountingWeightedFairShare(WEIGHTS), AGG,
                      None),
    "wfs-weighted-individual": (tandem(3, 4, latency=0.1),
                                lambda: CountingWeightedFairShare(WEIGHTS),
                                IND, WEIGHTS),
}


def _scheme(name, signal_fn=None):
    network, make, style, weights = CASES[name]
    return FeedbackScheme(network, make(), signal_fn or LinearSaturating(),
                          style, weights=weights)


def _live_gateways(network):
    csr = network.csr
    return [a for a in range(len(csr.gateway_names))
            if csr.members(a).size]


def _positive_rates(network, m=3, seed=0):
    """Rows well inside capacity, every entry strictly positive."""
    mu_min = min(network.mu(g) for g in network.gateway_names)
    rng = np.random.default_rng(seed)
    load = max(len(network.connections_at(g))
               for g in network.gateway_names)
    return rng.uniform(0.1, 0.8, size=(m, network.num_connections)) \
        * mu_min / load


def _mixed_rates(network):
    """A positive row, a row with zero rates, and an overloaded row."""
    r = _positive_rates(network, m=3, seed=1)
    r[1, ::3] = 0.0
    r[2] *= 50.0
    r[2, 1] = 0.0
    return r


def _reference_signals(scheme, rates):
    """``b`` composed gateway by gateway from the public layer
    functions: queue law, congestion measure, signal function, MAX."""
    net = scheme.network
    csr = net.csr
    b = np.zeros_like(rates)
    for a, gname in enumerate(csr.gateway_names):
        cols = csr.members(a)
        if cols.size == 0:
            continue
        q = scheme.discipline.queue_lengths_batch(rates[:, cols],
                                                  net.mu(gname))
        if scheme.style is FeedbackStyle.AGGREGATE:
            c = np.repeat(q.sum(axis=1, keepdims=True), cols.size, axis=1)
        elif scheme.weights is not None:
            c = weighted_individual_congestion_batch(
                q, scheme.weights[cols])
        else:
            c = individual_congestion_batch(q)
        b[:, cols] = np.maximum(b[:, cols], scheme.signal_fn.apply_batch(c))
    return b


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("signal_fn", [LinearSaturating(),
                                       PowerSaturating(1.5)],
                         ids=["linear", "power"])
def test_observe_batch_matches_layer_functions_bit_for_bit(name,
                                                           signal_fn):
    scheme = _scheme(name, signal_fn)
    rates = _mixed_rates(scheme.network)
    b, d = scheme.observe_batch(rates)
    np.testing.assert_array_equal(
        d, round_trip_delays_batch(scheme.network, scheme.discipline,
                                   rates))
    np.testing.assert_array_equal(b, _reference_signals(scheme, rates))
    np.testing.assert_array_equal(scheme.signals_batch(rates), b)
    assert np.isinf(d[2]).any() and b[2].max() == 1.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_queue_law_call_per_gateway(name):
    scheme = _scheme(name)
    live = _live_gateways(scheme.network)
    scheme.observe_batch(_positive_rates(scheme.network))
    assert scheme.discipline.calls == len(live)


@pytest.mark.parametrize("name", sorted(CASES))
def test_zero_rate_probe_is_the_only_extra_call(name):
    scheme = _scheme(name)
    net = scheme.network
    rates = _mixed_rates(net)
    csr = net.csr
    with_zero = [a for a in _live_gateways(net)
                 if np.any(rates[:, csr.members(a)] == 0.0)]
    assert with_zero
    scheme.observe_batch(rates)
    assert scheme.discipline.calls == len(_live_gateways(net)) \
        + len(with_zero)


def _system(name):
    network, make, style, weights = CASES[name]
    return FlowControlSystem(network, make(), LinearSaturating(),
                             TargetRule(eta=0.05, beta=0.5), style=style,
                             weights=weights)


@pytest.mark.parametrize("name", ["fifo-aggregate", "fs-individual"])
def test_step_batch_evaluates_each_gateway_once(name):
    system = _system(name)
    live = len(_live_gateways(system.network))
    system.step_batch(_positive_rates(system.network, m=4))
    assert system.discipline.calls == live


@pytest.mark.parametrize("name", ["fifo-aggregate", "fs-individual"])
def test_structural_step_evaluates_each_gateway_once_per_group(name):
    system = _system(name)
    net = system.network
    live = len(_live_gateways(net))
    gateway = net.gateway_names[0]
    now = StructuralFaultPlan((CapacityDegradation(
        gateway=gateway, factor=0.5, start=0, duration=10),))
    later = StructuralFaultPlan((CapacityDegradation(
        gateway=gateway, factor=0.5, start=50, duration=10),))
    rates = _positive_rates(net, m=3)
    # One damage group: every member degraded.
    states = [now.start(system, member=m) for m in range(3)]
    system.step_batch(rates, structural=states, step_index=1)
    assert system.discipline.calls == live
    # Two groups: member 1 still sees the clean network.
    system.discipline.calls = 0
    states[1] = later.start(system, member=1)
    system.step_batch(rates, structural=states, step_index=1)
    assert system.discipline.calls == 2 * live


@pytest.mark.parametrize("name", ["fifo-aggregate", "fs-individual"])
def test_async_stepper_evaluates_each_gateway_once_per_step(name):
    system = _system(name)
    live = len(_live_gateways(system.network))
    res = run_async_ensemble(system, _positive_rates(system.network),
                             signal_delay=2, max_steps=40, tol=0.0,
                             history="full")
    # Every state the delayed signals can read stays positive, so no
    # step needs the zero-rate probe.
    assert all(h.min() > 0 for h in res.histories)
    assert int(res.steps.max()) == 40
    assert system.discipline.calls == live * 40
