"""Linear stability analysis of the iterated map (Section 3.3).

A steady state ``r_ss`` of ``r <- F(r)`` is **linearly (systemically)
stable** when every eigenvalue of the Jacobian ``DF_ij = dF_i/dr_j`` has
magnitude below one, and **unilaterally stable** when each *diagonal*
entry does — the quantity an individual connection can measure by
perturbing its own rate.

The paper's central stability findings, all checkable with this module:

* Aggregate feedback with ``B(C)=C/(C+1)`` and ``f = eta (beta - b)``
  at a shared gateway has ``DF = I - eta * 11^T``-like structure:
  diagonal ``1 - eta`` but leading eigenvalue ``1 - eta N`` — unilateral
  stability does not imply systemic stability (Section 3.3 example).
* Individual feedback with Fair Share makes ``DF`` *triangular* in
  increasing-rate order (a connection's signal never depends on faster
  connections), so the eigenvalues are the diagonal and unilateral
  stability *is* systemic stability (Theorem 4).

Because of the MAX/MIN kinks in ``b_i`` and ``C^a_i`` the derivatives
can be one-sided at the steady state; :func:`jacobian` therefore
supports forward, backward and central differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import RateVectorError
from .dynamics import FlowControlSystem
from .math_utils import as_rate_vector, sorted_order

__all__ = [
    "jacobian",
    "eigenvalues",
    "spectral_radius",
    "transverse_eigenvalues",
    "transverse_spectral_radius",
    "zero_sum_tangent_basis",
    "unilateral_margins",
    "is_unilaterally_stable",
    "is_systemically_stable",
    "triangularity_defect",
    "is_triangular_in_rate_order",
    "StabilityReport",
    "analyze",
]


def jacobian(system: FlowControlSystem, rates: Sequence[float],
             rel_step: float = 1e-6, scheme: str = "central") -> np.ndarray:
    """Numerical Jacobian ``DF_ij = dF_i/dr_j`` at ``rates``.

    ``scheme`` is one of ``"central"``, ``"forward"``, ``"backward"``.
    Steps are relative to ``max(r_j, 1e-3 * mu_max)`` so zero rates get
    a sensible absolute step; backward steps are clipped to keep probe
    rates nonnegative (falling back to forward differencing at 0).
    Every probe point, and ``r`` itself, is mapped by one
    :meth:`~repro.core.dynamics.FlowControlSystem.step_batch` call;
    rows are independent, so each equals its one-row step.
    """
    if scheme not in ("central", "forward", "backward"):
        raise RateVectorError(f"unknown differencing scheme {scheme!r}")
    r = as_rate_vector(rates, n=system.network.num_connections)
    n = r.shape[0]
    mu_max = max(system.network.mu(g) for g in system.network.gateway_names)
    # Row 0 of the probe batch is r itself, the base of one-sided
    # differences; column j differences rows hi[j] and lo[j].
    probes = [r]

    def probe(j: int, dr: float) -> int:
        point = r.copy()
        point[j] += dr
        probes.append(point)
        return len(probes) - 1

    hi = np.zeros(n, dtype=np.intp)
    lo = np.zeros(n, dtype=np.intp)
    spacing = np.empty(n)
    for j in range(n):
        h = rel_step * max(float(r[j]), 1e-3 * mu_max)
        lo_h = min(h, float(r[j]))  # cannot probe below zero
        if scheme == "forward" or lo_h <= 0.0:
            hi[j], spacing[j] = probe(j, h), h
        elif scheme == "backward":
            lo[j], spacing[j] = probe(j, -lo_h), lo_h
        else:
            hi[j], lo[j] = probe(j, h), probe(j, -lo_h)
            spacing[j] = h + lo_h
    mapped = system.step_batch(np.array(probes))
    return ((mapped[hi] - mapped[lo]) / spacing[:, None]).T


def eigenvalues(df: np.ndarray) -> np.ndarray:
    """Eigenvalues of the stability matrix, sorted by descending modulus."""
    vals = np.linalg.eigvals(np.asarray(df, dtype=float))
    return vals[np.argsort(-np.abs(vals))]


def spectral_radius(df: np.ndarray) -> float:
    """Largest eigenvalue modulus of ``DF``."""
    return float(np.max(np.abs(eigenvalues(df))))


def zero_sum_tangent_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace of ``R^n``.

    At a single shared gateway the aggregate steady-state manifold is
    ``{sum r = const}``, whose tangent space is exactly the zero-sum
    vectors; the returned ``(n, n-1)`` matrix spans it.
    """
    if n < 2:
        raise RateVectorError(f"need n >= 2, got {n!r}")
    basis = np.eye(n)[:, : n - 1] - 1.0 / n
    q, _ = np.linalg.qr(basis)
    return q


def transverse_eigenvalues(df: np.ndarray,
                           tangent_basis: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``DF`` restricted transverse to a manifold.

    The paper (Section 2.4.3): with a manifold of steady states, only
    deviations *perpendicular* to it must dissipate.  ``tangent_basis``
    spans the manifold's tangent space; we project ``DF`` onto the
    orthogonal complement and return that block's eigenvalues.
    """
    m = np.asarray(df, dtype=float)
    t = np.asarray(tangent_basis, dtype=float)
    n = m.shape[0]
    if t.shape[0] != n or t.shape[1] >= n:
        raise RateVectorError(
            f"tangent basis shape {t.shape} incompatible with DF "
            f"{m.shape}")
    q, _ = np.linalg.qr(np.hstack([t, np.eye(n)]))
    complement = q[:, t.shape[1]:n]
    block = complement.T @ m @ complement
    return eigenvalues(block)


def transverse_spectral_radius(df: np.ndarray,
                               tangent_basis: np.ndarray) -> float:
    """Largest transverse eigenvalue modulus (manifold-aware stability)."""
    return float(np.max(np.abs(transverse_eigenvalues(df, tangent_basis))))


def unilateral_margins(df: np.ndarray) -> np.ndarray:
    """``|DF_ii|`` — what connection ``i`` measures by self-perturbation."""
    return np.abs(np.diag(np.asarray(df, dtype=float)))


def is_unilaterally_stable(df: np.ndarray, tol: float = 1e-9) -> bool:
    """All diagonal entries have modulus < 1."""
    return bool(np.all(unilateral_margins(df) < 1.0 - tol))


def is_systemically_stable(df: np.ndarray, tol: float = 1e-9) -> bool:
    """All eigenvalues have modulus < 1 (linear stability)."""
    return spectral_radius(df) < 1.0 - tol


def triangularity_defect(df: np.ndarray, rates: Sequence[float]) -> float:
    """Largest ``|DF_ij|`` with ``r_j > r_i`` (in increasing-rate order).

    Zero (up to differencing noise) means a connection's update never
    depends on any *faster* connection — the Fair Share structure behind
    Theorem 4.  Ties in rates are skipped: triangularity is only
    meaningful across strictly separated rates.
    """
    r = as_rate_vector(rates)
    m = np.asarray(df, dtype=float)
    if m.shape != (r.shape[0], r.shape[0]):
        raise RateVectorError(
            f"Jacobian shape {m.shape} does not match {r.shape[0]} rates")
    order = sorted_order(r)
    sorted_rates = r[order]
    permuted = m[np.ix_(order, order)]
    worst = 0.0
    n = r.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if sorted_rates[j] > sorted_rates[i] + 1e-12:
                worst = max(worst, abs(float(permuted[i, j])))
    return worst


def is_triangular_in_rate_order(df: np.ndarray, rates: Sequence[float],
                                tol: float = 1e-4) -> bool:
    """True when :func:`triangularity_defect` is below ``tol``."""
    return triangularity_defect(df, rates) <= tol


@dataclass
class StabilityReport:
    """Everything Section 3.3 asks about one steady state."""

    df: np.ndarray
    eigenvalues: np.ndarray
    spectral_radius: float
    unilateral_margins: np.ndarray
    unilaterally_stable: bool
    systemically_stable: bool
    triangularity_defect: float

    @property
    def unilateral_implies_systemic(self) -> bool:
        """Did unilateral stability correctly predict systemic stability?

        True when the two verdicts agree (the Fair Share guarantee) or
        unilateral stability failed anyway.
        """
        if not self.unilaterally_stable:
            return True
        return self.systemically_stable


def analyze(system: FlowControlSystem, steady_state: Sequence[float],
            rel_step: float = 1e-6,
            scheme: str = "central") -> StabilityReport:
    """Compute the full stability picture at a steady state."""
    df = jacobian(system, steady_state, rel_step=rel_step, scheme=scheme)
    eig = eigenvalues(df)
    return StabilityReport(
        df=df,
        eigenvalues=eig,
        spectral_radius=float(np.max(np.abs(eig))),
        unilateral_margins=unilateral_margins(df),
        unilaterally_stable=is_unilaterally_stable(df),
        systemically_stable=is_systemically_stable(df),
        triangularity_defect=triangularity_defect(df, steady_state),
    )
