"""Loop-form twins of the Fair Share sorted prefix-sum kernels.

These functions replicate, scalar operation for scalar operation, the
numpy ``method="sorted"`` pipelines in :mod:`repro.core.fairshare`
(:func:`~repro.core.fairshare.FairShare.queue_lengths_batch` and
:func:`~repro.core.fairshare.cumulative_loads_batch`) and
:mod:`repro.core.signals` (:func:`~repro.core.signals.
individual_congestion_batch`) in plain loops (``np.argsort(
kind="mergesort")``, no fancy indexing), the same form as the C twin in
``_cext.py``.  They are executable reference implementations the unit
tests diff against both the numpy pipeline and the C extension.

Bit-identity notes (shared with the C twin in ``_cext.py``):

* ``np.argsort(kind="mergesort")`` and ``kind="stable"`` produce the
  same permutation — both are stable, and the permutation of a stable
  ascending sort is unique.
* the numpy pipeline's ``np.cumsum`` is a sequential left-to-right
  accumulation, so a running-scalar ``prefix += x`` reproduces it
  exactly (numpy's *pairwise* ``.sum()`` is never used on these
  paths).
* masked accumulation (``np.where(finite, shares, 0.0)`` feeding
  ``cumsum``) is mirrored by adding literal ``0.0`` in the masked
  branch; the accumulator is never ``-0.0`` (shares are quotients of
  a nonnegative difference by a positive count), so ``acc + 0.0``
  is bitwise ``acc``.

Every function takes a preallocated ``out`` and returns it, so the
jitted and plain versions share a calling convention with the C tier.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fs_queue_batch", "fs_loads_batch", "ind_congestion_batch"]


def fs_queue_batch(rates, mu, out):
    """Fair Share queue lengths, row by row, original order.

    Twin of ``FairShare.queue_lengths_batch(..., method="sorted")``:
    stable-sort each row, accumulate cumulative loads and marginal
    queue shares along the sorted ranks, scatter back through the
    sort permutation.  Rates must be nonnegative (the caller
    validates, matching the numpy path's ``g()`` domain check).
    """
    m, n = rates.shape
    for row in range(m):
        rr = rates[row]
        order = np.argsort(rr, kind="mergesort")
        prefix = 0.0
        g_prev = 0.0
        acc = 0.0
        for k in range(n):
            j = order[k]
            sr = rr[j]
            prefix += sr
            sigma = (prefix + sr * float(n - 1 - k)) / mu
            if sigma < 1.0:
                gs = sigma / (1.0 - sigma)
            else:
                gs = np.inf
            if np.isfinite(gs):
                acc += (gs - g_prev) / float(n - k)
                q = acc
            else:
                acc += 0.0  # the masked cumsum adds literal zero here
                q = np.inf
            if sr == 0.0:
                q = 0.0
            out[row, j] = q
            g_prev = gs
    return out


def fs_loads_batch(sorted_rates, mu, out):
    """Cumulative loads over rows already sorted ascending.

    Twin of ``cumulative_loads_batch(..., method="sorted")``'s
    ``_sorted_loads``: ``(cumsum + r_(k) * (n - 1 - k)) / mu`` along
    each row, returned in sorted-rank order (not scattered back).
    """
    m, n = sorted_rates.shape
    for row in range(m):
        prefix = 0.0
        for k in range(n):
            sr = sorted_rates[row, k]
            prefix += sr
            out[row, k] = (prefix + sr * float(n - 1 - k)) / mu
    return out


def ind_congestion_batch(queues, out):
    """Individual congestion via the sorted prefix-sum identity.

    Twin of ``individual_congestion_batch(..., method="sorted")``:
    ``c_i = sum_j min(q_i, q_j)`` evaluated as ``prefix + q_(k) *
    (n - 1 - k)`` over stable-sorted queues, with infinite queues
    pinned to ``inf`` and results scattered back to original order.
    """
    m, n = queues.shape
    for row in range(m):
        qq = queues[row]
        order = np.argsort(qq, kind="mergesort")
        prefix = 0.0
        for k in range(n):
            j = order[k]
            v = qq[j]
            prefix += v
            if np.isinf(v):
                c = np.inf
            else:
                c = prefix + v * float(n - 1 - k)
            out[row, j] = c
    return out
