"""Integration tests: the fast struct-of-arrays kernel is bit-identical
to the legacy object engine.

Every supported configuration is run on both engines with the same seed
and compared field by field — mean queue lengths, measured arrival
rates, drop fractions, throughput, delays, *and* the processed event
count (so the engines agree on the event schedule itself, not just on
aggregate statistics).
"""

import numpy as np
import pytest

from repro import backends
from repro.backends import compiled
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import Connection, Gateway, Network, single_gateway
from repro.errors import SimulationError
from repro.observability import collect, validate_run_record
from repro.simulation.closed_loop import run_closed_loop
from repro.simulation.events import Scheduler
from repro.simulation.kernel import FastEngine
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.rng import RandomStreams, VariateBuffer

RATES4 = [0.2, 0.2, 0.25, 0.15]
RATE_SEQ = [np.array([0.3, 0.1, 0.2, 0.2]), np.array([0.15, 0.25, 0.2, 0.1])]
#: Four sources loading one unit-rate gateway to 0.93: long busy
#: periods, so high-priority arrivals keep preempting the server.
HEAVY4 = [0.3, 0.25, 0.2, 0.18]
C_TIER = compiled.fifo_lib() is not None


def _net4():
    return single_gateway(4, mu=1.0)


def _net4_latency():
    return single_gateway(4, mu=1.0).with_latencies({"g0": 0.5})


def _tandem(latency=0.5):
    return Network(gateways=[Gateway("g0", mu=1.0, latency=latency),
                             Gateway("g1", mu=1.2, latency=latency)],
                   connections=[Connection("c0", ("g0", "g1")),
                                Connection("c1", ("g0", "g1")),
                                Connection("c2", ("g1",)),
                                Connection("c3", ("g0",))])


def _run(engine, disc, net, rates, horizon=400.0, seed=7, steps=0,
         buffer_sizes=None, rate_mode="oracle", refresh=False,
         rate_seq=None):
    """One warmup + measurement run; returns every public statistic."""
    sim = NetworkSimulation(net, discipline_kind=disc, seed=seed,
                            initial_rates=rates, rate_mode=rate_mode,
                            buffer_sizes=buffer_sizes, engine=engine)
    sim.run_for(horizon / 4)
    sim.reset_statistics()
    for k in range(max(1, steps)):
        sim.run_for(horizon / max(1, steps))
        if refresh:
            sim.refresh_measured_rates()
        if rate_seq is not None and k < len(rate_seq):
            sim.set_rates(rate_seq[k])
    return {"mql": sim.mean_queue_lengths(),
            "arr": sim.measured_arrival_rates(),
            "drop": sim.drop_fractions(),
            "thr": sim.throughput(),
            "delay": sim.mean_delays(),
            "events": sim.events_processed,
            "engine": sim.engine,
            "fallbacks": getattr(sim._engine, "fallbacks", None)}


def _assert_engines_agree(**kw):
    a = _run("legacy", **kw)
    b = _run("fast", **kw)
    assert a["engine"] == "legacy" and b["engine"] == "fast"
    for key in ("mql", "arr", "drop"):
        for g in a[key]:
            assert np.array_equal(a[key][g], b[key][g]), \
                f"{key}[{g}]: {a[key][g]} vs {b[key][g]}"
    assert np.array_equal(a["thr"], b["thr"])
    assert np.array_equal(a["delay"], b["delay"], equal_nan=True)
    assert a["events"] == b["events"]


def _assert_compiled_matches_fast(**kw):
    """Run fast and compiled; assert bit-identity; return the run."""
    a = _run("fast", **kw)
    b = _run("compiled", **kw)
    assert a["engine"] == "fast" and b["engine"] == "compiled"
    for key in ("mql", "arr", "drop"):
        for g in a[key]:
            assert np.array_equal(a[key][g], b[key][g]), \
                f"{key}[{g}]: {a[key][g]} vs {b[key][g]}"
    assert np.array_equal(a["thr"], b["thr"])
    assert np.array_equal(a["delay"], b["delay"], equal_nan=True)
    assert a["events"] == b["events"]
    # With the C tier live every window ran in C, never the Python loop.
    assert b["fallbacks"] == (0 if C_TIER else b["fallbacks"])
    return b


class TestBitIdentity:
    def test_fifo_zero_latency(self):
        _assert_engines_agree(disc="fifo", net=_net4(), rates=RATES4)

    def test_fifo_with_latency_uses_burst_path(self):
        _assert_engines_agree(disc="fifo", net=_net4_latency(),
                              rates=RATES4)

    def test_fair_share_with_rate_updates(self):
        _assert_engines_agree(disc="fair-share", net=_net4_latency(),
                              rates=RATES4, steps=2, rate_seq=RATE_SEQ)

    def test_fixed_priority(self):
        _assert_engines_agree(disc="fixed-priority", net=_net4_latency(),
                              rates=RATES4)

    def test_fifo_finite_buffer_tail_drop(self):
        _assert_engines_agree(disc="fifo", net=_net4_latency(),
                              rates=[0.5, 0.5, 0.4, 0.3], buffer_sizes=4)

    def test_tandem_fifo(self):
        _assert_engines_agree(disc="fifo", net=_tandem(), rates=RATES4,
                              steps=2, rate_seq=RATE_SEQ)

    def test_tandem_fair_share(self):
        _assert_engines_agree(disc="fair-share", net=_tandem(),
                              rates=RATES4, steps=2, rate_seq=RATE_SEQ)

    def test_measured_rate_mode_with_refresh(self):
        # Satellite: the windowed arrival-rate estimator feeds Fair
        # Share thinning identically under either engine.
        _assert_engines_agree(disc="fair-share", net=_net4_latency(),
                              rates=RATES4, rate_mode="measured",
                              steps=3, refresh=True)

    def test_measured_estimates_are_sane(self):
        out = _run("fast", disc="fair-share", net=_net4_latency(),
                   rates=RATES4, rate_mode="measured", steps=3,
                   refresh=True, horizon=2000.0)
        for g, est in out["arr"].items():
            assert np.all(np.isfinite(est))
            assert np.all(est >= 0.0)


class TestCompiledEngine:
    """engine="compiled" (the runtime-built C event loop) against the
    fast kernel: the same bit-identity contract the fast engine keeps
    against legacy.  These run with or without a C compiler — when no
    library could be built the compiled engine transparently executes
    the python loop, and the contract must hold either way."""

    def test_fifo_zero_latency(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4(),
                                      rates=RATES4)

    def test_fifo_with_latency_uses_burst_path(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4_latency(),
                                      rates=RATES4)

    def test_fifo_finite_buffer_tail_drop(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4_latency(),
                                      rates=[0.5, 0.5, 0.4, 0.3],
                                      buffer_sizes=4)

    def test_tandem_fifo_with_rate_updates(self):
        _assert_compiled_matches_fast(disc="fifo", net=_tandem(),
                                      rates=RATES4, steps=2,
                                      rate_seq=RATE_SEQ)

    def test_measured_rate_mode_with_refresh(self):
        _assert_compiled_matches_fast(disc="fifo", net=_net4_latency(),
                                      rates=RATES4,
                                      rate_mode="measured", steps=3,
                                      refresh=True)

    def test_closed_loop_trajectories_identical(self):
        kw = dict(style=FeedbackStyle.INDIVIDUAL,
                  discipline_kind="fifo", control_interval=150.0,
                  n_steps=6, seed=3)
        net = _net4_latency()
        fast = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="fast", **kw)
        comp = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="compiled",
                               **kw)
        assert np.array_equal(fast.rate_history, comp.rate_history)
        assert np.array_equal(fast.signal_history, comp.signal_history)
        assert np.array_equal(fast.final_throughput,
                              comp.final_throughput)
        assert np.array_equal(fast.final_delays, comp.final_delays,
                              equal_nan=True)

    def test_fair_share_zero_latency(self):
        _assert_compiled_matches_fast(disc="fair-share", net=_net4(),
                                      rates=RATES4)

    def test_fixed_priority_zero_latency(self):
        _assert_compiled_matches_fast(disc="fixed-priority", net=_net4(),
                                      rates=RATES4)

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_tandem_class_discipline_with_rate_updates(self, disc):
        # set_rates between windows: resample_arrivals cancels the
        # pending arrivals by calendar slot and (Fair Share)
        # rebuild_fs_tables re-derives the thinning tables.
        _assert_compiled_matches_fast(disc=disc, net=_tandem(),
                                      rates=RATES4, steps=3,
                                      rate_seq=RATE_SEQ)

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_class_discipline_finite_buffer_tail_drop(self, disc):
        out = _assert_compiled_matches_fast(
            disc=disc, net=_net4_latency(), rates=[0.5, 0.5, 0.4, 0.3],
            buffer_sizes=4)
        assert np.any(out["drop"]["g0"] > 0.0)

    def test_fair_share_measured_rate_mode_with_refresh(self):
        _assert_compiled_matches_fast(disc="fair-share",
                                      net=_net4_latency(), rates=RATES4,
                                      rate_mode="measured", steps=3,
                                      refresh=True)

    def test_preemption_heavy_fixed_priority(self, monkeypatch):
        out = _assert_compiled_matches_fast(
            disc="fixed-priority", net=_tandem(), rates=HEAVY4,
            horizon=2000.0, steps=2, rate_seq=[HEAVY4[::-1]])
        # Count the preemptions the Python loop makes on the same run
        # (an arrival that takes the server from the packet in
        # service), so the test provably exercises preemptive resume.
        preemptions = []
        orig = FastEngine._arrive

        def counting(engine, g, pid, now):
            before = engine.serving[g]
            orig(engine, g, pid, now)
            if before >= 0 and engine.serving[g] != before:
                preemptions.append(now)

        monkeypatch.setattr(FastEngine, "_arrive", counting)
        fast = _run("fast", disc="fixed-priority", net=_tandem(),
                    rates=HEAVY4, horizon=2000.0, steps=2,
                    rate_seq=[HEAVY4[::-1]])
        assert fast["events"] == out["events"]
        assert len(preemptions) > 100

    def test_small_block_refills_thinning_stream_mid_run(self,
                                                         monkeypatch):
        # A 7-variate block makes every stream — the Fair Share
        # thinning stream included — yield back for a refill many times
        # inside one run_until call.
        orig_buffer = RandomStreams.buffer
        monkeypatch.setattr(
            RandomStreams, "buffer",
            lambda self, name, block=7: orig_buffer(self, name, block))
        refills = []
        orig_refill = VariateBuffer._refill

        def counting(buf, kind):
            refills.append(kind)
            return orig_refill(buf, kind)

        monkeypatch.setattr(VariateBuffer, "_refill", counting)
        _assert_compiled_matches_fast(disc="fair-share", net=_tandem(),
                                      rates=RATES4, steps=2,
                                      rate_seq=RATE_SEQ)
        assert refills.count("uniform") > 50

    @pytest.mark.parametrize("disc", ["fair-share", "fixed-priority"])
    def test_class_discipline_closed_loop_identical(self, disc):
        kw = dict(style=FeedbackStyle.INDIVIDUAL, discipline_kind=disc,
                  control_interval=150.0, n_steps=6, seed=3)
        net = _tandem()
        fast = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="fast", **kw)
        comp = run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine="compiled",
                               **kw)
        assert np.array_equal(fast.rate_history, comp.rate_history)
        assert np.array_equal(fast.signal_history, comp.signal_history)
        assert np.array_equal(fast.final_throughput,
                              comp.final_throughput)
        assert np.array_equal(fast.final_delays, comp.final_delays,
                              equal_nan=True)

    def test_handback_leaves_slots_naming_live_events(self):
        # After a compiled window the Python side must be able to keep
        # going: resample_arrivals cancels by slot, and a Python-loop
        # window on the handed-back state must match the fast engine.
        sims = {}
        for engine in ("fast", "compiled"):
            sim = NetworkSimulation(_tandem(), discipline_kind="fair-share",
                                    seed=5, initial_rates=RATES4,
                                    engine=engine)
            sim.run_for(120.0)
            sims[engine] = sim
        fast, comp = sims["fast"]._engine, sims["compiled"]._engine
        assert comp.pending_slot == fast.pending_slot
        assert comp.completion_slot == fast.completion_slot
        live = comp.calendar._live
        assert all(live[s] for s in comp.pending_slot if s >= 0)
        assert all(live[s] for s in comp.completion_slot if s >= 0)
        assert sorted(comp.calendar._heap) == sorted(fast.calendar._heap)
        for engine in ("fast", "compiled"):
            sims[engine].set_rates(RATE_SEQ[0])
        # one more window on the inherited Python loop
        FastEngine._run_general(comp, comp.now + 80.0, 10**6)
        fast.run_until(fast.now + 80.0)
        assert comp.events_processed == fast.events_processed
        assert comp.st_integral == fast.st_integral
        assert comp.pool.conn == fast.pool.conn

    @pytest.mark.parametrize("disc,fault", [
        ("fifo", "cap"), ("fifo", "idle"), ("fair-share", "cap"),
        ("fair-share", "idle"), ("fixed-priority", "idle"),
        ("fair-share", "time")])
    def test_loop_errors_match_fast(self, disc, fault):
        # The C loops raise the Python loops' errors — the event cap, a
        # completion at an idle server, a non-finite event time (class
        # loop) — at the same event, with the same clock.
        seen = []
        for engine in ("fast", "compiled"):
            sim = NetworkSimulation(_net4(), discipline_kind=disc, seed=2,
                                    initial_rates=RATES4, engine=engine)
            sim.run_for(50.0)
            eng = sim._engine
            if fault == "idle":
                eng.serving[0] = -1  # its completion is still pending
            elif fault == "time":
                eng.scale[0] = float("inf")
            with pytest.raises(SimulationError) as err:
                eng.run_until(eng.now + 500.0,
                              max_events=40 if fault == "cap" else 10**6)
            seen.append((str(err.value), eng.events_processed, eng.now))
        assert seen[0] == seen[1]
        assert eng.fallbacks == 0 or not C_TIER

    def test_compiled_engine_is_selectable(self):
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4,
                                engine="compiled")
        assert sim.engine == "compiled"

    def test_forced_compiled_on_unsupported_raises(self):
        with pytest.raises(SimulationError):
            NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                              initial_rates=RATES4, engine="compiled")


class TestEngineSelection:
    def test_auto_picks_fast_for_supported_disciplines(self):
        for disc in ("fifo", "fair-share", "fixed-priority"):
            sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                    initial_rates=RATES4)
            assert sim.engine == "fast"

    @pytest.mark.skipif(not C_TIER, reason="no C tier could be built")
    def test_auto_picks_compiled_under_compiled_backend(self):
        with backends.using("compiled") as backend:
            assert backend.compiled
            for disc in ("fifo", "fair-share", "fixed-priority"):
                sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                        initial_rates=RATES4)
                assert sim.engine == "compiled"
            sim = NetworkSimulation(_net4(),
                                    discipline_kind="fair-queueing",
                                    initial_rates=RATES4)
            assert sim.engine == "legacy"

    def test_auto_stays_fast_under_numpy_backend(self):
        with backends.using("numpy"):
            for disc in ("fifo", "fair-share", "fixed-priority"):
                sim = NetworkSimulation(_net4(), discipline_kind=disc,
                                        initial_rates=RATES4)
                assert sim.engine == "fast"

    def test_auto_falls_back_for_fair_queueing(self):
        sim = NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                                initial_rates=RATES4)
        assert sim.engine == "legacy"

    def test_auto_falls_back_for_longest_drop(self):
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4, buffer_sizes=4,
                                drop_policy="longest")
        assert sim.engine == "legacy"

    def test_longest_drop_with_infinite_buffers_stays_fast(self):
        # The eviction policy only matters when some buffer is finite.
        sim = NetworkSimulation(_net4(), discipline_kind="fifo",
                                initial_rates=RATES4,
                                drop_policy="longest")
        assert sim.engine == "fast"

    def test_forced_fast_on_unsupported_raises(self):
        with pytest.raises(SimulationError):
            NetworkSimulation(_net4(), discipline_kind="fair-queueing",
                              initial_rates=RATES4, engine="fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            NetworkSimulation(_net4(), initial_rates=RATES4,
                              engine="turbo")


class TestRunForValidation:
    """Non-finite durations are rejected before any event runs.  The
    engines' run loops are replaced by a tripwire, so a missing guard
    fails the test instead of spinning to the 50M-event cap."""

    @pytest.fixture(autouse=True)
    def tripwire(self, monkeypatch):
        def runaway(*args, **kwargs):
            raise AssertionError("the event loop started")

        monkeypatch.setattr(FastEngine, "run_until", runaway)
        monkeypatch.setattr(Scheduler, "run_until", runaway)

    @pytest.mark.parametrize("engine", ["legacy", "fast", "compiled"])
    @pytest.mark.parametrize("duration", [float("nan"), float("inf"),
                                          float("-inf"), np.nan])
    def test_non_finite_duration_rejected(self, engine, duration):
        sim = NetworkSimulation(_net4(), discipline_kind="fair-share",
                                initial_rates=RATES4, engine=engine)
        with pytest.raises(SimulationError, match="finite"):
            sim.run_for(duration)
        assert sim.events_processed == 0 and sim.now == 0.0

    @pytest.mark.parametrize("engine", ["legacy", "fast", "compiled"])
    def test_negative_duration_still_rejected(self, engine):
        sim = NetworkSimulation(_net4(), initial_rates=RATES4,
                                engine=engine)
        with pytest.raises(SimulationError, match="nonnegative"):
            sim.run_for(-1.0)


class TestClosedLoopValidation:
    ARGS = (_net4(), TargetRule(eta=0.1, beta=0.4), LinearSaturating())

    @pytest.mark.parametrize("interval", [0.0, -5.0, float("nan"),
                                          float("inf"), True, "200"])
    def test_bad_control_interval_raises(self, interval):
        with pytest.raises(SimulationError, match="control_interval"):
            run_closed_loop(*self.ARGS, control_interval=interval,
                            n_steps=3)

    @pytest.mark.parametrize("steps", [-1, 2.5, float("nan"), True, "3"])
    def test_bad_n_steps_raises(self, steps):
        with pytest.raises(SimulationError, match="n_steps"):
            run_closed_loop(*self.ARGS, control_interval=10.0,
                            n_steps=steps)

    def test_zero_steps_and_integer_interval_stay_valid(self):
        res = run_closed_loop(*self.ARGS, control_interval=np.int64(10),
                              n_steps=0)
        assert res.steps == 0
        assert res.rate_history.shape == (1, 4)
        res = run_closed_loop(*self.ARGS, control_interval=10,
                              n_steps=np.int64(2))
        assert res.steps == 2


class TestFuzzGeneratedConfigs:
    """The bit-identity contract holds on configurations drawn from the
    scenario fuzzer (fixed seed), not just the hand-picked ones above —
    topology, rates, and discipline come straight from the generator."""

    @pytest.fixture(scope="class")
    def fuzz_specs(self):
        from repro.scenarios import generate
        specs = [s for s in generate(7, 30)
                 if s.discipline in ("fifo", "fair-share")]
        assert len(specs) >= 2
        return specs

    def test_fuzz_fifo_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if s.discipline == "fifo")
        _assert_engines_agree(disc="fifo", net=spec.network(),
                              rates=list(spec.initial_rates))

    def test_fuzz_fair_share_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs
                    if s.discipline == "fair-share")
        _assert_engines_agree(disc="fair-share", net=spec.network(),
                              rates=list(spec.initial_rates), steps=2,
                              rate_seq=[0.8 * np.asarray(spec.initial_rates),
                                        1.1 * np.asarray(spec.initial_rates)])

    def test_fuzz_multi_gateway_config_bit_identical(self, fuzz_specs):
        spec = next(s for s in fuzz_specs if len(s.gateways) > 1)
        _assert_engines_agree(disc=spec.discipline, net=spec.network(),
                              rates=list(spec.initial_rates))


class TestClosedLoopEngines:
    KW = dict(style=FeedbackStyle.INDIVIDUAL, discipline_kind="fair-share",
              control_interval=150.0, n_steps=6, seed=3)

    def _loop(self, engine):
        net = _net4_latency()
        return run_closed_loop(net, TargetRule(eta=0.1, beta=0.4),
                               LinearSaturating(), engine=engine,
                               **self.KW)

    def test_trajectories_identical_across_engines(self):
        legacy = self._loop("legacy")
        fast = self._loop("fast")
        assert np.array_equal(legacy.rate_history, fast.rate_history)
        assert np.array_equal(legacy.signal_history, fast.signal_history)
        assert np.array_equal(legacy.final_throughput,
                              fast.final_throughput)
        assert np.array_equal(legacy.final_delays, fast.final_delays,
                              equal_nan=True)

    def test_run_record_phases_emitted(self):
        with collect() as session:
            self._loop("auto")
        (rec,) = session.run_records
        assert validate_run_record(rec.to_dict()) == []
        assert rec.kind == "run"
        for phase in ("simulate", "signals", "rules"):
            assert rec.phase_seconds[phase] > 0.0
        assert rec.outcome_counts == {"completed": 1}
