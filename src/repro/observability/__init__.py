"""Observability: run records, metrics, provenance, JSON artifacts.

The engine (``FlowControlSystem.run`` / ``run_ensemble``), the parallel
sweep runner (:func:`repro.parallel.sweep`), and the experiment CLI all
report structured observables through this package:

* :class:`RunRecord` — per-iteration residuals, convergence/divergence
  mask events, and wall-time per phase of one trajectory or ensemble;
* :class:`SweepRecord` — per-chunk timing, worker utilisation, and
  serial-fallback reasons of one parallel sweep;
* :class:`MetricsRegistry` / :class:`Counter` / :class:`Timer` — a
  dependency-free counters-and-timers registry;
* :func:`collect` — an ambient collector session: everything the engine
  emits inside the ``with`` block is gathered into one
  :class:`CollectorSession`;
* :func:`provenance` / :func:`config_hash` — git revision, library
  versions, seed, and config fingerprint for reproducible artifacts;
* :func:`experiment_artifact` / :func:`write_experiment_artifact` /
  :func:`validate_artifact` — the schema-checked JSON files behind the
  CLI's ``--json-dir`` flag.

Everything here is pure standard library + numpy; collection is opt-in
(no session active means near-zero overhead in the hot loops).
"""

from .artifacts import (ARTIFACT_SCHEMA, experiment_artifact,
                        validate_artifact, write_artifact,
                        write_experiment_artifact)
from .metrics import Counter, MetricsRegistry, Timer
from .provenance import config_hash, git_revision, provenance
from .record import (RUN_RECORD_SCHEMA, RunRecord, SweepRecord,
                     validate_run_record)
from .session import (CollectorSession, active_session, capture, collect,
                      emit_run_record, emit_sweep_record, is_collecting,
                      replay)

__all__ = [
    "RunRecord", "SweepRecord", "RUN_RECORD_SCHEMA",
    "validate_run_record",
    "Counter", "Timer", "MetricsRegistry",
    "CollectorSession", "collect", "active_session", "is_collecting",
    "emit_run_record", "emit_sweep_record", "capture", "replay",
    "provenance", "git_revision", "config_hash",
    "ARTIFACT_SCHEMA", "experiment_artifact", "write_artifact",
    "write_experiment_artifact", "validate_artifact",
]
