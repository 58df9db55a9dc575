"""Compiled-kernel tier selection and dispatch.

One question, answered once per process: which implementation serves
the compiled hot paths?  The runtime-built C extension
(:mod:`repro.backends._cext`) when a C compiler exists — it serves
both the Fair Share kernels and the FIFO event loop — and otherwise
``python``, meaning callers keep using the existing pure-python/numpy
kernels unchanged.  :mod:`repro.backends._fs_python` holds the plain
loop twins of the C Fair Share kernels, the reference the tests diff
them against.

Observability: :data:`METRICS` carries per-phase
:class:`~repro.observability.metrics.Timer` spans — ``compile.cext``
(actual C build time, zero on a cache hit) and ``run.fifo``
(steady-state time inside the compiled event loop) — so
``BENCH_compiled.json`` can separate warmup from throughput.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _cext

__all__ = ["tier", "fs_available", "fifo_lib", "metrics",
           "fs_queue_batch", "fs_loads_batch", "ind_congestion_batch",
           "warmup"]

_METRICS = None


def metrics():
    """The module's :class:`~repro.observability.metrics.
    MetricsRegistry` (created lazily to keep imports cycle-free)."""
    global _METRICS
    if _METRICS is None:
        from ..observability.metrics import MetricsRegistry
        _METRICS = MetricsRegistry()
    return _METRICS


def tier() -> str:
    """The live tier: ``"cext"`` when the C extension builds, else
    ``"python"``."""
    return "cext" if _cext.load() is not None else "python"


def fs_available() -> bool:
    """A compiled Fair Share kernel tier is live."""
    return tier() != "python"


def fifo_lib():
    """The C library serving the FIFO event loop, or None (the
    pure-python ``_run_fifo`` is the graceful fallback)."""
    return _cext.load()


def warmup() -> str:
    """Force tier resolution (and any compilation); returns the tier."""
    t = tier()
    if t == "cext" and not _cext.built_from_cache():
        reg = metrics()
        timer = reg.timer("compile.cext")
        if timer.count == 0:
            timer.add(_cext.build_seconds())
    return t


# ------------------------------------------------------------------
# Fair Share kernel dispatch (numpy in / numpy out; None = no tier)
# ------------------------------------------------------------------
def fs_queue_batch(rates: np.ndarray,
                   mu: float) -> Optional[np.ndarray]:
    """Compiled Fair Share queue lengths, or None when no tier is
    live (caller falls back to the numpy ``sorted`` pipeline)."""
    r = np.ascontiguousarray(rates, dtype=np.float64)
    out = np.empty_like(r)
    return _cext.fs_queue_batch(r, float(mu), out)


def fs_loads_batch(sorted_rates: np.ndarray,
                   mu: float) -> Optional[np.ndarray]:
    """Compiled cumulative loads over pre-sorted rows, or None."""
    r = np.ascontiguousarray(sorted_rates, dtype=np.float64)
    out = np.empty_like(r)
    return _cext.fs_loads_batch(r, float(mu), out)


def ind_congestion_batch(queues: np.ndarray) -> Optional[np.ndarray]:
    """Compiled individual-congestion prefix sums, or None."""
    q = np.ascontiguousarray(queues, dtype=np.float64)
    out = np.empty_like(q)
    return _cext.ind_congestion_batch(q, out)
