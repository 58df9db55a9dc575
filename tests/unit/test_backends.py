"""Unit tests for repro.backends: the resolver, the compiled kernel
tier, and the pick_kernel boundary."""

import numpy as np
import pytest

from repro import backends
from repro.backends import _fs_python, compiled
from repro.core.fairshare import FairShare, cumulative_loads
from repro.core.math_utils import SPARSE_MIN_N, pick_kernel
from repro.core.signals import (individual_congestion,
                                individual_congestion_batch)
from repro.core.topology import single_gateway
from repro.errors import CLIError, RateVectorError

needs_compiled_fs = pytest.mark.skipif(
    not compiled.fs_available(),
    reason="no compiled Fair Share tier in this environment")
needs_fifo_lib = pytest.mark.skipif(
    compiled.fifo_lib() is None,
    reason="no C compiler: FIFO event loop runs pure python")


@pytest.fixture(autouse=True)
def _pristine_activation():
    """No test leaks a process-wide backend activation."""
    backends.reset()
    yield
    backends.reset()


class TestResolver:
    def test_default_is_numpy(self):
        backend = backends.resolve()
        assert backend.name == "numpy"
        assert backend.kernel_tier == "python"

    def test_name_is_normalised(self):
        assert backends.resolve("  NumPy ").name == "numpy"

    def test_unknown_name_is_loud(self):
        with pytest.raises(CLIError) as exc:
            backends.resolve("tensorflow")
        msg = str(exc.value)
        assert "tensorflow" in msg
        assert "numpy, compiled, cext" in msg

    def test_removed_backends_are_loud(self, monkeypatch):
        assert backends.BACKEND_NAMES == ("numpy", "compiled", "cext")
        with pytest.raises(CLIError, match="numpy, compiled, cext"):
            backends.resolve("cupy")
        monkeypatch.setenv("REPRO_BACKEND", "jax")
        backends.reset()
        with pytest.raises(CLIError, match="numpy, compiled, cext"):
            backends.active()
        monkeypatch.delenv("REPRO_BACKEND")
        from repro.cli import main
        with pytest.raises(CLIError, match="numpy, compiled, cext"):
            main(["selftest", "--backend", "numba"])

    def test_unavailable_dependency_is_loud(self, monkeypatch):
        from repro.backends import _cext
        monkeypatch.setattr(_cext, "compiler_available", lambda: False)
        with pytest.raises(CLIError) as exc:
            backends.resolve("cext")
        msg = str(exc.value)
        assert "not available" in msg
        assert "no C compiler" in msg

    def test_compiled_degrades_gracefully(self):
        backend = backends.resolve("compiled")
        assert backend.name == "compiled"
        assert backend.kernel_tier in ("cext", "python")

    def test_always_available_names(self):
        names = backends.available_backends()
        for name in ("numpy", "compiled"):
            assert name in names

    def test_env_variable_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        backends.reset()
        assert backends.active().name == "compiled"

    def test_env_variable_unknown_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu9000")
        backends.reset()
        with pytest.raises(CLIError):
            backends.active()

    def test_use_and_reset(self):
        backends.use("compiled")
        assert backends.active().name == "compiled"
        backends.reset()
        assert backends.active().name == "numpy"

    def test_using_restores_previous(self):
        with backends.using("compiled"):
            assert backends.active().name == "compiled"
        assert backends.active().name == "numpy"

    def test_backend_instance_passes_through(self):
        backend = backends.resolve("compiled")
        assert backends.use(backend) is backend


class TestPythonTwins:
    """The loop twins of the C kernels diff against the numpy
    pipeline."""

    def test_fs_queue_twin_matches_sorted_pipeline(self):
        rng = np.random.default_rng(11)
        for m, n in ((1, 5), (3, 17), (2, 80)):
            rates = rng.uniform(0.0, 2.0 / n, size=(m, n))
            rates[0, 0] = 0.0
            want = FairShare().queue_lengths_batch(rates, mu=1.0,
                                                   method="sorted")
            out = _fs_python.fs_queue_batch(rates, 1.0,
                                            np.empty_like(rates))
            assert np.array_equal(out, want)

    def test_fs_queue_twin_overload_rows(self):
        rates = np.full((2, 70), 0.5)
        want = FairShare().queue_lengths_batch(rates, mu=1.0,
                                               method="sorted")
        out = _fs_python.fs_queue_batch(rates, 1.0,
                                        np.empty_like(rates))
        assert np.array_equal(out, want)

    def test_ind_congestion_twin_matches_sorted_pipeline(self):
        rng = np.random.default_rng(12)
        queues = rng.uniform(0.0, 5.0, size=(3, 90))
        queues[0, 7] = np.inf
        want = individual_congestion_batch(queues, method="sorted")
        out = _fs_python.ind_congestion_batch(queues,
                                              np.empty_like(queues))
        assert np.array_equal(out, want)

    def test_loads_twin_matches_sorted_pipeline(self):
        rng = np.random.default_rng(13)
        rates = np.sort(rng.uniform(0.0, 0.01, size=(2, 75)), axis=1)
        from repro.core.fairshare import cumulative_loads_batch
        want = cumulative_loads_batch(rates, mu=1.0, method="sorted")
        out = _fs_python.fs_loads_batch(rates, 1.0,
                                        np.empty_like(rates))
        assert np.array_equal(out, want)


@needs_compiled_fs
class TestCompiledFairShare:
    def test_queue_law_fuzz_bit_identity(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 220))
            rates = rng.uniform(0.0, 1.8 / n, size=(m, n))
            if trial % 3 == 0:    # heavy rate ties
                pool = np.array([0.0, 0.2 / n, 0.4 / n])
                rates[:, : n // 2] = rng.choice(pool,
                                                size=(m, n // 2))
            if trial % 5 == 0:    # overloaded rows
                rates[0] = 2.0 / max(n, 1)
            want = FairShare().queue_lengths_batch(rates, mu=1.0,
                                                   method="sorted")
            got = compiled.fs_queue_batch(rates, 1.0)
            assert got is not None
            assert np.array_equal(got, want), f"trial {trial}"

    def test_queue_law_signed_zero_ties(self):
        # -0.0 and +0.0 are one tie class under IEEE comparison; the
        # radix key transform must keep them so.
        row = np.array([0.3, 0.0, -0.0, 0.1, 0.0, 0.2] * 20)[None, :]
        want = FairShare().queue_lengths_batch(row, mu=1.0,
                                               method="sorted")
        got = compiled.fs_queue_batch(row, 1.0)
        assert np.array_equal(got, want)

    def test_ind_congestion_with_inf(self):
        rng = np.random.default_rng(22)
        queues = rng.uniform(0.0, 4.0, size=(3, 150))
        queues[0, 3] = np.inf
        queues[2, :] = np.inf
        want = individual_congestion_batch(queues, method="sorted")
        got = compiled.ind_congestion_batch(queues)
        assert np.array_equal(got, want)

    def test_scalar_entry_points_accept_method_compiled(self):
        rng = np.random.default_rng(23)
        rates = rng.uniform(0.0, 0.01, size=130)
        assert np.array_equal(
            FairShare().queue_lengths(rates, mu=1.0,
                                      method="compiled"),
            FairShare().queue_lengths(rates, mu=1.0, method="sorted"))
        assert np.array_equal(
            cumulative_loads(rates, mu=1.0, method="compiled"),
            cumulative_loads(rates, mu=1.0, method="sorted"))
        queues = rng.uniform(0.0, 3.0, size=130)
        assert np.array_equal(
            individual_congestion(queues, method="compiled"),
            individual_congestion(queues, method="sorted"))


class TestPickKernelBoundary:
    """The auto switch must flip at exactly SPARSE_MIN_N, with or
    without a compiled backend active, and the flip must not move
    results by even one ulp."""

    def test_boundary_names_default_backend(self):
        assert pick_kernel("auto", SPARSE_MIN_N - 1) == "dense"
        assert pick_kernel("auto", SPARSE_MIN_N) == "sorted"
        assert pick_kernel("auto", SPARSE_MIN_N + 1) == "sorted"

    @needs_compiled_fs
    def test_boundary_names_compiled_backend(self):
        with backends.using("compiled"):
            assert pick_kernel("auto", SPARSE_MIN_N - 1) == "dense"
            assert pick_kernel("auto", SPARSE_MIN_N) == "compiled"
            assert pick_kernel("auto", SPARSE_MIN_N + 1) == "compiled"

    def test_compiled_method_on_sparse_paths_degrades(self):
        assert pick_kernel("compiled", 10, large="sparse") == "sparse"

    def test_unknown_method_lists_compiled(self):
        with pytest.raises(RateVectorError) as exc:
            pick_kernel("fastest", 10)
        assert "'compiled'" in str(exc.value)

    @pytest.mark.parametrize("n", [SPARSE_MIN_N - 1, SPARSE_MIN_N,
                                   SPARSE_MIN_N + 1])
    def test_bit_identity_across_the_switch(self, n):
        # Dyadic rates (k/32n with dyadic n-scaling is exact in
        # binary64) make any kernel discrepancy a hard bit flip
        # rather than harmless noise.  The contract pinned here:
        # "auto" is bitwise the kernel it resolves to on either side
        # of the switch, and the compiled kernel is bitwise the
        # sorted pipeline at every n (dense vs sorted are different
        # formulations, equal only to float tolerance — that gap is
        # the historical behaviour, not something this PR may move).
        rng = np.random.default_rng(31)
        rates = rng.integers(0, 32, size=n) / (32.0 * n)
        dense = FairShare().queue_lengths(rates, mu=1.0,
                                          method="dense")
        auto = FairShare().queue_lengths(rates, mu=1.0, method="auto")
        srt = FairShare().queue_lengths(rates, mu=1.0,
                                        method="sorted")
        expected = dense if n < SPARSE_MIN_N else srt
        assert np.array_equal(auto, expected)
        assert np.allclose(dense, srt, rtol=1e-12, atol=1e-12)
        if compiled.fs_available():
            comp = FairShare().queue_lengths(rates, mu=1.0,
                                             method="compiled")
            assert np.array_equal(srt, comp)
            with backends.using("compiled"):
                active_auto = FairShare().queue_lengths(rates, mu=1.0,
                                                        method="auto")
            assert np.array_equal(expected, active_auto)


class TestObservability:
    def test_warmup_reports_tier(self):
        assert compiled.warmup() in ("cext", "python")

    @needs_fifo_lib
    def test_fifo_runs_are_timed(self):
        from repro.simulation.network_sim import NetworkSimulation
        timer = compiled.metrics().timer("run.fifo")
        before = timer.count
        sim = NetworkSimulation(single_gateway(3, mu=1.0),
                                discipline_kind="fifo", seed=2,
                                initial_rates=[0.2, 0.1, 0.15],
                                engine="compiled")
        sim.run_for(50.0)
        assert timer.count > before
        assert timer.total_seconds >= 0.0

    def test_snapshot_shape(self):
        snap = compiled.metrics().snapshot()
        assert set(snap) == {"counters", "timers"}
