"""Equivalence tests for the batched trajectory engine.

Every batched layer — queue laws, congestion signals, rate rules, the
one-step map — must reproduce its scalar per-layer reference row by
row to 1e-12, and the one-step map and the ensemble runner must treat
rows independently: row m of an M-row call equals the one-row call
(``step`` / ``run``) bit for bit.  Including the awkward corners: zero
rates, overloaded gateways (infinite queues), and heterogeneous rule
mixes.
"""

import math

import numpy as np
import pytest

from repro.core.delays import round_trip_delays, round_trip_delays_batch
from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairshare import (FairShare, cumulative_loads,
                                  cumulative_loads_batch)
from repro.core.fifo import Fifo
from repro.core.math_utils import as_rate_matrix
from repro.core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                    DecbitWindowRule, ProportionalTargetRule,
                                    RateAdjustment, TargetRule)
from repro.core.robustness import (satisfies_theorem5_condition,
                                   theorem5_condition_batch)
from repro.core.signals import (ExponentialSignal, FeedbackStyle,
                                LinearSaturating, PowerSaturating)
from repro.core.topology import (parking_lot, single_gateway,
                                 two_gateway_shared)
from repro.errors import RateVectorError
from repro.scenarios.oracles import reference_step

TOL = 1e-12


class DoublingRule(RateAdjustment):
    """A custom rule with no batch override — exercises the fallback."""

    def delta(self, rate, signal, delay):
        return rate + 0.05


def _rate_batch(n, rng, m=12):
    """A batch covering interior, zero-rate, and overload rows."""
    batch = rng.uniform(0.0, 0.3, size=(m, n))
    batch[0] = 0.0                      # all idle
    batch[1, 0] = 0.0                   # one idle connection
    batch[2] = 2.0 / n                  # overloaded everywhere
    batch[3, :] = 0.0
    batch[3, -1] = 1.5                  # one connection overloads alone
    return batch


class TestAsRateMatrix:
    def test_promotes_vector_to_row(self):
        out = as_rate_matrix([0.1, 0.2])
        assert out.shape == (1, 2)

    def test_checks_width(self):
        with pytest.raises(RateVectorError):
            as_rate_matrix(np.zeros((3, 2)), n=4)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(RateVectorError):
            as_rate_matrix([[0.1, -0.2]])
        with pytest.raises(RateVectorError):
            as_rate_matrix([[0.1, math.nan]])

    def test_returns_fresh_array(self):
        src = np.array([[0.1, 0.2]])
        out = as_rate_matrix(src)
        out[0, 0] = 9.0
        assert src[0, 0] == 0.1


class TestQueueLawBatches:
    @pytest.mark.parametrize("discipline", [Fifo(), FairShare()])
    def test_matches_scalar_rows(self, discipline):
        rng = np.random.default_rng(0)
        batch = _rate_batch(5, rng)
        q = discipline.queue_lengths_batch(batch, mu=1.0)
        for m in range(batch.shape[0]):
            expect = discipline.queue_lengths(batch[m], 1.0)
            assert np.allclose(q[m], expect, atol=TOL, equal_nan=True)
            assert np.array_equal(np.isinf(q[m]), np.isinf(expect))

    @pytest.mark.parametrize("discipline", [Fifo(), FairShare()])
    def test_delays_match_scalar_rows(self, discipline):
        rng = np.random.default_rng(1)
        batch = _rate_batch(4, rng)
        d = discipline.delays_batch(batch, mu=1.0)
        for m in range(batch.shape[0]):
            expect = discipline.delays(batch[m], 1.0)
            assert np.allclose(d[m], expect, atol=TOL, equal_nan=True)
            assert np.array_equal(np.isinf(d[m]), np.isinf(expect))

    def test_cumulative_loads_batch(self):
        rng = np.random.default_rng(2)
        batch = _rate_batch(6, rng)
        sorted_batch = np.sort(batch, axis=1)
        sigma = cumulative_loads_batch(batch, 1.0,
                                       sorted_rates=sorted_batch)
        for m in range(batch.shape[0]):
            expect = cumulative_loads(batch[m], 1.0)
            assert np.allclose(sigma[m], expect, atol=TOL)

    def test_round_trip_delays_batch(self):
        network = parking_lot(3, mu=1.0, latency=0.25)
        rng = np.random.default_rng(3)
        batch = _rate_batch(network.num_connections, rng)
        d = round_trip_delays_batch(network, FairShare(), batch)
        for m in range(batch.shape[0]):
            expect = round_trip_delays(network, FairShare(), batch[m])
            assert np.allclose(d[m], expect, atol=TOL, equal_nan=True)
            assert np.array_equal(np.isinf(d[m]), np.isinf(expect))


class TestRuleBatches:
    RULES = [TargetRule(eta=0.1, beta=0.5),
             ProportionalTargetRule(eta=0.2, beta=0.4),
             DecbitWindowRule(eta=0.05, beta=0.3),
             DecbitRateRule(eta=0.05, beta=0.3),
             BinaryAimdRule(increase=0.01, decrease=0.2, threshold=0.6),
             DoublingRule()]

    @pytest.mark.parametrize("rule", RULES,
                             ids=lambda r: type(r).__name__)
    def test_apply_batch_matches_scalar(self, rule):
        rng = np.random.default_rng(4)
        r = rng.uniform(0.0, 0.5, size=(7, 3))
        r[0] = 0.0
        b = rng.uniform(0.0, 1.0, size=(7, 3))
        b[1] = 1.0                       # saturated signal
        d = rng.uniform(0.5, 3.0, size=(7, 3))
        d[2, 0] = math.inf               # overloaded round trip
        out = rule.apply_batch(r, b, d)
        for m in range(r.shape[0]):
            for i in range(r.shape[1]):
                expect = rule.apply(float(r[m, i]), float(b[m, i]),
                                    float(d[m, i]))
                assert out[m, i] == pytest.approx(expect, abs=TOL)

    def test_fallback_writes_noncontiguous_input(self):
        rule = DoublingRule()
        wide = np.linspace(0.0, 0.5, 12).reshape(2, 6)
        view = wide[:, ::2]              # non-contiguous columns
        out = rule.apply_batch(view, np.zeros_like(view),
                               np.ones_like(view))
        for m in range(2):
            for i in range(3):
                expect = rule.apply(float(view[m, i]), 0.0, 1.0)
                assert out[m, i] == pytest.approx(expect, abs=TOL)


def _configs():
    hetero = [TargetRule(eta=0.1, beta=0.5),
              ProportionalTargetRule(eta=0.2, beta=0.4),
              DecbitRateRule(eta=0.05, beta=0.3)]
    for network in (single_gateway(3, mu=1.0),
                    two_gateway_shared(latency=0.5),
                    parking_lot(2, mu=1.2)):
        n = network.num_connections
        for discipline in (Fifo(), FairShare()):
            for style in (FeedbackStyle.AGGREGATE, FeedbackStyle.INDIVIDUAL):
                for signal in (LinearSaturating(), PowerSaturating(p=2.0),
                               ExponentialSignal(k=1.5)):
                    rules = (hetero * n)[:n]
                    yield FlowControlSystem(network, discipline, signal,
                                            rules, style=style)


class TestStepBatch:
    @pytest.mark.parametrize("system", list(_configs()),
                             ids=lambda s: "%s-%s-%s" % (
                                 type(s.discipline).__name__,
                                 s.style.name,
                                 type(s.signal_fn).__name__))
    def test_matches_scalar_step(self, system):
        rng = np.random.default_rng(5)
        n = system.network.num_connections
        batch = _rate_batch(n, rng)
        out = system.step_batch(batch)
        for m in range(batch.shape[0]):
            # Rows are independent of one another (bit for bit) and
            # match the map composed from the scalar layers.
            assert np.array_equal(out[m], system.step(batch[m]))
            assert np.allclose(out[m], reference_step(system, batch[m]),
                               atol=TOL)

    def test_signals_batch_matches_scalar(self):
        system = next(iter(_configs()))
        rng = np.random.default_rng(6)
        batch = _rate_batch(system.network.num_connections, rng)
        b = system.scheme.signals_batch(batch)
        for m in range(batch.shape[0]):
            assert np.allclose(b[m], system.signals(batch[m]), atol=TOL)

    def test_single_vector_promoted(self):
        system = next(iter(_configs()))
        r = np.array([0.1, 0.2, 0.05])
        assert np.array_equal(system.step_batch(r)[0], system.step(r))

    def test_scalar_only_overrides_reach_the_batch_path(self):
        # Subclasses that redefine only the scalar law of a class with a
        # vectorised batch law must not inherit that batch law.
        class Halved(LinearSaturating):
            def __call__(self, congestion):
                return 0.5 * super().__call__(congestion)

        class Doubled(Fifo):
            def queue_lengths(self, rates, mu):
                return 2.0 * super().queue_lengths(rates, mu)

        class Creep(TargetRule):
            def delta(self, rate, signal, delay):
                return 0.01 * (1.0 - signal)

        system = FlowControlSystem(single_gateway(3, mu=1.0), Doubled(),
                                   Halved(), Creep(eta=0.1, beta=0.5),
                                   style=FeedbackStyle.INDIVIDUAL)
        batch = _rate_batch(3, np.random.default_rng(4))
        out = system.step_batch(batch)
        for m in range(batch.shape[0]):
            assert np.allclose(out[m], reference_step(system, batch[m]),
                               atol=TOL)


class TestRunEnsemble:
    def _system(self, rules=None, n=3):
        return FlowControlSystem(single_gateway(n, mu=1.0), FairShare(),
                                 LinearSaturating(),
                                 rules or TargetRule(eta=0.1, beta=0.5),
                                 style=FeedbackStyle.INDIVIDUAL)

    def test_matches_run_member_by_member(self):
        # Mix converging starts with an oscillating (high-gain) member
        # by running two systems and comparing each against run().
        for rules, kwargs in [
            (TargetRule(eta=0.1, beta=0.5), dict(max_steps=5000)),
            (TargetRule(eta=1.95, beta=0.5), dict(max_steps=600)),
        ]:
            system = self._system(rules=rules)
            rng = np.random.default_rng(7)
            starts = rng.uniform(0.0, 0.6, size=(8, 3))
            starts[0] = 0.0
            result = system.run_ensemble(starts, history="full", **kwargs)
            assert len(result) == 8
            for m in range(8):
                traj = system.run(starts[m], **kwargs)
                assert result.outcomes[m] is traj.outcome
                assert result.periods[m] == traj.period
                assert result.steps[m] == traj.steps
                assert np.array_equal(result.finals[m], traj.final)
                rt = result.trajectory(m)
                assert rt.history.shape == traj.history.shape
                assert np.array_equal(rt.history, traj.history)

    def test_divergence_masked_per_member(self):
        system = self._system(rules=DoublingRule())
        starts = np.array([[0.1, 0.1, 0.1], [0.4, 0.2, 0.3]])
        result = system.run_ensemble(starts, max_steps=300)
        for m in range(2):
            traj = system.run(starts[m], max_steps=300)
            assert traj.outcome is Outcome.DIVERGED
            assert result.outcomes[m] is Outcome.DIVERGED
            assert result.steps[m] == traj.steps
            assert np.array_equal(result.finals[m], traj.final)

    def test_outcome_mask_and_counts(self):
        system = self._system()
        starts = np.random.default_rng(8).uniform(0.0, 0.5, size=(5, 3))
        result = system.run_ensemble(starts, max_steps=5000)
        counts = result.outcome_counts()
        assert counts[Outcome.CONVERGED] == 5
        assert result.outcome_mask(Outcome.CONVERGED).all()

    def test_trajectory_requires_record(self):
        system = self._system()
        result = system.run_ensemble(np.full((2, 3), 0.1), max_steps=2000)
        with pytest.raises(RateVectorError):
            result.trajectory(0)

    def test_rejects_bad_batch(self):
        system = self._system()
        with pytest.raises(RateVectorError):
            system.run_ensemble(np.zeros((2, 4)))
        with pytest.raises(RateVectorError):
            system.run_ensemble(np.array([[0.1, -0.1, 0.2]]))

    def test_empty_ensemble_well_shaped(self):
        system = self._system()
        result = system.run_ensemble(np.empty((0, 3)), max_steps=500,
                                     history="full")
        assert len(result) == 0
        assert result.finals.shape == (0, 3)
        assert result.initials.shape == (0, 3)
        assert result.steps.shape == (0,)
        assert result.outcomes == []
        assert result.periods == []
        assert result.histories == []
        assert result.outcome_counts()[Outcome.CONVERGED] == 0

    def test_empty_ensemble_is_fast(self):
        # The M=0 early-out must not spin through max_steps iterations
        # over empty arrays.
        import time
        system = self._system()
        t0 = time.perf_counter()
        system.run_ensemble(np.empty((0, 3)), max_steps=200000)
        assert time.perf_counter() - t0 < 1.0

    def test_single_member_matches_run(self):
        system = self._system()
        r0 = np.array([[0.2, 0.1, 0.05]])
        result = system.run_ensemble(r0, max_steps=3000)
        traj = system.run(r0[0], max_steps=3000)
        assert len(result) == 1
        assert result.outcomes[0] is traj.outcome
        assert result.steps[0] == traj.steps
        assert np.array_equal(result.finals[0], traj.final)

    def test_single_connection_matches_run(self):
        system = self._system(n=1)
        starts = np.array([[0.05], [0.3], [0.9]])
        result = system.run_ensemble(starts, max_steps=3000)
        for m in range(3):
            traj = system.run(starts[m], max_steps=3000)
            assert result.outcomes[m] is traj.outcome
            assert result.steps[m] == traj.steps
            assert np.array_equal(result.finals[m], traj.final)

    def test_overloaded_members_agree_with_scalar(self):
        # rho_total >= 1 members have infinite queues; the batch path
        # must keep signals finite and track the scalar path to TOL.
        system = self._system()
        starts = np.array([[0.4, 0.4, 0.4],    # overloaded exactly
                           [1.0, 1.0, 1.0],    # far past saturation
                           [0.334, 0.333, 0.333],
                           [0.1, 0.1, 0.1]])
        out = system.step_batch(starts)
        assert np.all(np.isfinite(out))
        for m in range(starts.shape[0]):
            assert np.array_equal(out[m], system.step(starts[m]))
            assert np.allclose(out[m], reference_step(system, starts[m]),
                               atol=TOL)
        result = system.run_ensemble(starts, max_steps=2000)
        for m in range(starts.shape[0]):
            traj = system.run(starts[m], max_steps=2000)
            assert result.outcomes[m] is traj.outcome
            assert np.array_equal(result.finals[m], traj.final)


class TestTheorem5Batch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(9)
        batch = _rate_batch(4, rng, m=30)
        for discipline in (Fifo(), FairShare()):
            verdicts = theorem5_condition_batch(discipline, batch, 1.0)
            for m in range(batch.shape[0]):
                expect = satisfies_theorem5_condition(discipline, batch[m],
                                                      1.0)
                assert bool(verdicts[m]) is expect
