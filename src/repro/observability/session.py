"""Ambient collector sessions.

The engine and the sweep runner do not know who wants their telemetry;
they emit to whatever :class:`CollectorSession` is active.  Sessions
nest (an outer session sees everything inner ones see) and collection
is strictly opt-in: with no session active, :func:`is_collecting` is a
single list check and the hot loops skip all bookkeeping.

:func:`capture` diverts one thread's emissions into a private session,
and :func:`replay` delivers such a session's contents to the active
sessions later: this is how :func:`repro.parallel.sweep` brings the
records of its pool workers (threads or processes) back to the caller,
in grid order.

    from repro import observability as obs

    with obs.collect() as session:
        system.run_ensemble(starts)
    print(session.run_records[0].phase_seconds)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional

from .metrics import MetricsRegistry
from .record import RunRecord, SweepRecord

__all__ = ["CollectorSession", "collect", "active_session",
           "is_collecting", "emit_run_record", "emit_sweep_record",
           "capture", "replay"]


class CollectorSession:
    """Everything emitted while the session was active."""

    def __init__(self):
        self.run_records: List[RunRecord] = []
        self.sweep_records: List[SweepRecord] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()

    def add_run_record(self, record: RunRecord) -> None:
        with self._lock:
            self.run_records.append(record)

    def add_sweep_record(self, record: SweepRecord) -> None:
        with self._lock:
            self.sweep_records.append(record)

    def export(self) -> tuple:
        """Picklable ``(run_records, sweep_records, metrics snapshot)``
        for :func:`replay` (the session itself holds a lock)."""
        with self._lock:
            return (list(self.run_records), list(self.sweep_records),
                    self.metrics.snapshot())

    def to_dict(self) -> dict:
        """JSON-safe view of the whole session."""
        with self._lock:
            return {
                "run_records": [r.to_dict() for r in self.run_records],
                "sweep_records": [r.to_dict()
                                  for r in self.sweep_records],
                "metrics": self.metrics.snapshot(),
            }


_STACK: List[CollectorSession] = []
_STACK_LOCK = threading.Lock()
_LOCAL = threading.local()


def _captured() -> Optional[CollectorSession]:
    return getattr(_LOCAL, "session", None)


def _targets() -> List[CollectorSession]:
    """Where this thread's emissions go: its capture, else every
    active session."""
    session = _captured()
    if session is not None:
        return [session]
    with _STACK_LOCK:
        return list(_STACK)


@contextmanager
def collect():
    """Activate a new :class:`CollectorSession` for the ``with`` body."""
    session = CollectorSession()
    with _STACK_LOCK:
        _STACK.append(session)
    try:
        yield session
    finally:
        with _STACK_LOCK:
            _STACK.remove(session)


@contextmanager
def capture():
    """Divert everything the calling thread emits in the ``with`` body
    into a fresh private :class:`CollectorSession` (collection is on
    inside, whatever the active sessions)."""
    session = CollectorSession()
    previous = _captured()
    _LOCAL.session = session
    try:
        yield session
    finally:
        _LOCAL.session = previous


def replay(exported: tuple) -> None:
    """Deliver a :meth:`CollectorSession.export` to this thread's
    targets: its records in their order, its metrics added in."""
    run_records, sweep_records, metrics = exported
    for record in run_records:
        emit_run_record(record)
    for record in sweep_records:
        emit_sweep_record(record)
    for session in _targets():
        session.metrics.absorb(metrics)


def active_session() -> Optional[CollectorSession]:
    """The innermost active session (this thread's capture first), or
    ``None``."""
    session = _captured()
    if session is not None:
        return session
    return _STACK[-1] if _STACK else None


def is_collecting() -> bool:
    """True when at least one session is active (or this thread is
    capturing)."""
    return bool(_STACK) or _captured() is not None


def emit_run_record(record: RunRecord) -> None:
    """Deliver a finished run record to every active session."""
    for session in _targets():
        session.add_run_record(record)


def emit_sweep_record(record: SweepRecord) -> None:
    """Deliver a finished sweep record to every active session."""
    for session in _targets():
        session.add_sweep_record(record)
