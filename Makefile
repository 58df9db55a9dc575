PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test selftest gate fuzz-quick scale-quick chaos-quick \
	async-quick compiled-quick perfbench-test verify bench

test:
	$(PYTHON) -m pytest -q

selftest:
	$(PYTHON) -m repro selftest --quick

gate:
	$(PYTHON) benchmarks/regression_gate.py --quick

# Seeded, bounded fuzzing sweep (~15 s): 12 deterministic scenarios
# through the full differential/theorem oracle catalogue.  Runs
# alongside `gate` in the tier-1 flow; a failing scenario prints its
# ScenarioSpec JSON for reproduction.
fuzz-quick:
	$(PYTHON) -m repro fuzz --seed 7 --count 12 --shrink

# Quick blocked-vs-one-shot scale check: small workloads judged
# against the committed BENCH_scale.json quick floors (no rewrite).
scale-quick:
	$(PYTHON) benchmarks/bench_scale.py --quick --check

# Quick chaos sweep (~30 s): the structural-fault demo, the Theorem 5
# robustness-floor monitor (Fair Share holds / FIFO violates), and the
# kill-anywhere orchestrator recovery harness at 2 rounds.
chaos-quick:
	$(PYTHON) -m repro chaos --quick

# Quick asynchronous-engine check: batched run_async_ensemble vs the
# scalar per-member loop (bit-identity verified before timing) and the
# delay-ring overhead, judged against the BENCH_async.json quick
# floors (no rewrite).
async-quick:
	$(PYTHON) benchmarks/bench_async.py --quick --check

# Quick compiled-backend check: small workloads judged against the
# BENCH_compiled.json quick floors (no rewrite).  Exits 0 with a
# notice when no compiled tier can be built (no C compiler)
# so a bare install stays green.
compiled-quick:
	$(PYTHON) benchmarks/bench_compiled.py --quick

# The traced benchmark's own tests (~25 s): every workload runs once
# traced and once untraced with identical outputs, which fails when a
# refactor stops entering a layer a workload declares or renames a
# function the tracer wraps.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

# The tier-1 flow: full test suite, the engine smoke check, the
# benchmark regression gate (quick CI workload), the bounded fuzzing
# sweep, the blocked-ensemble scale check, the chaos sweep, the
# asynchronous-engine check, the compiled-backend check, and the
# traced benchmark's tests.
verify: test selftest gate fuzz-quick scale-quick chaos-quick \
	async-quick compiled-quick perfbench-test

# Full-scale benchmarks + gate; refreshes BENCH_core.json,
# BENCH_sim.json, BENCH_scale.json, BENCH_controllers.json,
# BENCH_chaos.json, BENCH_async.json, and BENCH_compiled.json.
bench:
	$(PYTHON) benchmarks/bench_core_engine.py
	$(PYTHON) benchmarks/bench_sim_kernel.py
	$(PYTHON) benchmarks/bench_scale.py
	$(PYTHON) benchmarks/bench_controllers.py
	$(PYTHON) benchmarks/bench_chaos.py
	$(PYTHON) benchmarks/bench_async.py
	$(PYTHON) benchmarks/bench_compiled.py
	$(PYTHON) benchmarks/regression_gate.py
