"""Compiled packet engine: ``NetworkSimulation(engine="compiled")``.

:class:`CompiledEngine` is a :class:`~repro.simulation.kernel.
FastEngine` whose two event loops — the FIFO ``_run_fifo`` and the
class-discipline ``_run_general`` (Fair Share thinning, fixed
priority, preemptive resume) — execute inside the runtime-compiled C
library from :mod:`repro.backends._cext` instead of Python bytecode.
Everything else — construction, rate pushes, the measurement surface —
is inherited unchanged, and when the C library is unavailable (no
compiler, failed build) every call falls back to the inherited Python
loop and counts one :attr:`CompiledEngine.fallbacks`, so
``engine="compiled"`` degrades gracefully to ``engine="fast"``
behaviour with identical results.  ``NetworkSimulation(engine="auto")``
picks this engine exactly when the active backend carries the live C
tier.

Bit-identity is by construction, not accident:

* each C loop is a statement-for-statement transcription of its
  Python twin (same drop-before-draw order, same statistics
  accumulation order, FIFO's eager-sink and burst-absorption
  branches, the Fair Share thinning walk and the preemptive-resume
  banking), compiled with FMA contraction disabled;
* heap entries are ordered by the unique key ``(time, seq)``, so any
  valid binary min-heap — python's ``heapq`` array or the C one —
  pops the identical event sequence, and the array handed back is a
  valid ``heapq`` heap for the next Python-side push;
* the class loop keeps the :class:`~repro.simulation.events.
  EventCalendar` slot columns and free-list and recycles slots in the
  same order, so after hand-back ``pending_slot`` and
  ``completion_slot`` name the same calendar events the Python loop
  would have left (``resample_arrivals`` cancels by slot);
* random variates never cross the language boundary as state: the C
  loops consume the pre-drawn :class:`~repro.simulation.rng.
  VariateBuffer` blocks and *yield back to Python* before any event
  whose draws would exhaust a block, so the generator objects (and
  hence the exact bitstream, shared with the legacy and fast engines)
  advance only via the normal ``_refill`` path.

One marshal layer (:meth:`CompiledEngine._run_compiled`) serves both
loops.  Its cost is O(state size) per ``run_until`` call — amortised
over the thousands-to-millions of events a call processes.  It copies
into persistent numpy buffers behind a cached pointer table, writes
the topology tables once and the Fair Share thinning tables once per
rate push, so a closed loop's short control intervals stay cheap.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Sequence

import numpy as np

from ..backends import _cext, compiled
from ..errors import SimulationError
from .kernel import _EMIT, _HANDOFF, FastEngine

__all__ = ["CompiledEngine"]

_I8, _F8 = np.int64, np.float64
_PTRS = ctypes.c_void_p * len(_cext.ENGINE_FIELDS)
_PAD = (-1, -1, -1)

#: Pointer-table fields holding doubles; every other field is int64.
_FLOAT_FIELDS = frozenset((
    "latency", "mu_scale", "scale", "completion_time", "st_last",
    "st_integral", "e2e_delay", "rng_vals", "fs_widths", "fs_total",
    "h_time", "p_created", "p_rem", "ev_time"))

#: The fields ``eng_extract`` copies out, by length register.
_COPIED = {
    "h_time": "heap_len", "h_seq": "heap_len", "h_slot": "heap_len",
    "h_kind": "heap_len", "h_a": "heap_len", "h_b": "heap_len",
    "p_conn": "pool_len", "p_seq": "pool_len", "p_created": "pool_len",
    "p_hop": "pool_len", "p_rem": "pool_len", "p_klass": "pool_len",
    "q_next": "pool_len", "p_free": "free_len",
    "ev_time": "ev_len", "ev_kind": "ev_len", "ev_a": "ev_len",
    "ev_b": "ev_len", "ev_live": "ev_len", "ev_free": "ev_free_len",
}

#: Engine lists the loops mutate in place, by field.
_STATE = {
    "serving": "serving", "in_sys": "in_system_count",
    "completion_slot": "completion_slot",
    "completion_time": "completion_time",
    "seq_counter": "seq_counter", "pending_slot": "pending_slot",
    "st_last": "st_last", "e2e_delivered": "e2e_delivered",
    "e2e_delay": "e2e_delay",
}
#: Per-gateway rows of local-position statistics (fields of the same
#: name, flattened in ``gw_ptr`` order).
_ROWS = ("st_integral", "st_count", "st_arrivals", "st_departures",
         "st_drops")


class _Fields:
    """One persistent numpy buffer per pointer-table field, grown on
    demand, and the ctypes pointer table over them (rebuilt only after
    a buffer moves)."""

    def __init__(self):
        self.arrays = {name: np.zeros(0, _F8 if name in _FLOAT_FIELDS
                                      else _I8)
                       for name in _cext.ENGINE_FIELDS}
        self._table = None

    def reserve(self, name: str, n: int) -> np.ndarray:
        """The first ``n`` slots of field ``name`` (a view)."""
        arr = self.arrays[name]
        if arr.shape[0] < n:
            # exact on first use (most fields never change size),
            # doubling after (the heap and pool columns grow)
            arr = np.zeros(max(n, 2 * arr.shape[0]), arr.dtype)
            self.arrays[name] = arr
            self._table = None
        return arr[:n]

    def put(self, name: str, values) -> None:
        self.reserve(name, len(values))[:] = values

    def get(self, name: str, n: int) -> list:
        return self.arrays[name][:n].tolist()

    @property
    def table(self) -> ctypes.Array:
        if self._table is None:
            self._table = _PTRS(*[self.arrays[name].ctypes.data
                                  for name in _cext.ENGINE_FIELDS])
        return self._table


class CompiledEngine(FastEngine):
    """FastEngine with both event loops in compiled C."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``run_until`` calls that ran a Python loop instead of C.
        self.fallbacks = 0
        # Resolve (and if necessary build) the library once up front
        # so compile time lands in construction, not the first run.
        self._lib = compiled.fifo_lib()
        compiled.warmup()
        self._fields = fields = _Fields()
        self._regs = np.zeros(len(_cext.ENGINE_REGS), _I8)
        self._dregs = np.zeros(2, _F8)
        self._reg_ptrs = (self._regs.ctypes.data, self._dregs.ctypes.data)
        # The ``rng_vals`` buffer and the value list each stream's block
        # in it was copied from: a refill installs a new list, so an
        # unchanged one needs no copy (the C loops never write values).
        self._rng_seen = (None, [])
        gw_ptr = [0]
        for lc in self.local_conns:
            gw_ptr.append(gw_ptr[-1] + len(lc))
        self._rows = list(zip(gw_ptr[:-1], gw_ptr[1:]))
        path_ptr = [0]
        for length in self.path_len:
            path_ptr.append(path_ptr[-1] + length)
        # The topology never changes: written once.
        fields.put("latency", self.latency)
        fields.put("mu_scale", self.mu_scale)
        fields.put("buffer_cap", self.buffer_cap)
        fields.put("pos_flat", [x for row in self.local_pos_flat
                                for x in row])
        fields.put("first_hop", self.first_hop)
        fields.put("gw_ptr", gw_ptr)
        fields.put("path_ptr", path_ptr)
        fields.put("path_arr", [g for path in self.paths for g in path])
        self._fs_stale = True

    def rebuild_fs_tables(self,
                          per_gateway_rates: Sequence[np.ndarray]) -> None:
        super().rebuild_fs_tables(per_gateway_rates)
        self._fs_stale = True  # re-flattened by the next compiled run

    def _put_fs_tables(self) -> None:
        """The thinning tables, flattened per (gateway, local
        position): the offset of its widths, their total, and the
        fallback class (-1 where the packet joins class 0 without a
        draw)."""
        widths, wptr, total, fallback = [], [], [], []
        for table in self.fs_tables:
            for entry in table:
                wptr.append(len(widths))
                if entry is None:
                    total.append(0.0)
                    fallback.append(-1)
                else:
                    widths.extend(entry[0])
                    total.append(entry[1])
                    fallback.append(entry[2])
        fields = self._fields
        fields.put("fs_widths", widths)
        fields.put("fs_wptr", wptr)
        fields.put("fs_total", total)
        fields.put("fs_fallback", fallback)
        self._fs_stale = False

    # -- the compiled loops ---------------------------------------------
    def _run_fifo(self, t_end: float, max_events: int) -> None:
        if not self._run_compiled("fifo", t_end, max_events):
            super()._run_fifo(t_end, max_events)

    def _run_general(self, t_end: float, max_events: int) -> None:
        if not self._run_compiled("general", t_end, max_events):
            super()._run_general(t_end, max_events)

    def _run_compiled(self, loop: str, t_end: float,
                      max_events: int) -> bool:
        """Run ``loop`` ("fifo" or "general") in C up to ``t_end``.

        Returns False, with no state touched, when the C tier cannot
        take this call (no library, mixed variate block sizes, columns
        or thinning tables whose lengths the C loop would index past);
        the caller then runs the Python loop.
        """
        lib = self._lib
        pool = self.pool
        cal = self.calendar
        n_exp = len(self.svc_buf) + len(self.arr_buf)
        bufs = self.svc_buf + self.arr_buf + (self.thin_buf or [])
        kinds = (["exponential"] * n_exp
                 + ["uniform"] * (len(bufs) - n_exp))
        block = bufs[0]._block
        pool_len = len(pool.conn)
        if (lib is None
                or any(b._block != block or len(b._values) not in (0, block)
                       or b._kind not in ("", kind)
                       for b, kind in zip(bufs, kinds))
                or any(len(col) != pool_len
                       for col in (pool.seq, pool.created, pool.hop,
                                   pool.remaining, pool.klass))
                or (self.thin_buf is not None
                    and any(len(table) != len(lc) for table, lc
                            in zip(self.fs_tables, self.local_conns)))):
            self.fallbacks += 1
            return False

        fields = self._fields
        put = fields.put
        # ---- RNG blocks (values only; generators stay in Python).
        # An empty buffer reads as exhausted, so its first draw refills.
        rng_vals = fields.reserve("rng_vals", len(bufs) * block)
        rng_idx = fields.reserve("rng_idx", len(bufs))
        if self._rng_seen[0] is not fields.arrays["rng_vals"]:
            self._rng_seen = (fields.arrays["rng_vals"], [None] * len(bufs))
        seen = self._rng_seen[1]
        for s_i, buf in enumerate(bufs):
            if buf._values:
                if seen[s_i] is not buf._values:
                    rng_vals[s_i * block:(s_i + 1) * block] = buf._values
                    seen[s_i] = buf._values
                rng_idx[s_i] = buf._index
            else:
                rng_idx[s_i] = block

        # ---- queues as intrusive chains over packet ids: one per
        # gateway (FIFO) or one per gateway and class (gw_ptr order)
        queues = (self.queues if self.queues is not None
                  else [q for row in self.cqueues for q in row])
        heads = [-1] * len(queues)
        tails = [-1] * len(queues)
        nxt = [-1] * pool_len
        for q, dq in enumerate(queues):
            prev = -1
            for pid in dq:
                if prev < 0:
                    heads[q] = pid
                else:
                    nxt[prev] = pid
                prev = pid
            tails[q] = prev
        put("q_head", heads)
        put("q_tail", tails)
        put("q_next", nxt)

        # ---- event heap: payload entries (time, seq, -1, kind, a[, b])
        # and slot entries (time, seq, slot) share one column form
        hp = cal._heap
        put("h_time", [e[0] for e in hp])
        put("h_seq", [e[1] for e in hp])
        put("h_slot", [e[2] for e in hp])
        kab = [(e[3:] + _PAD)[:3] for e in hp]
        put("h_kind", [x[0] for x in kab])
        put("h_a", [x[1] for x in kab])
        put("h_b", [x[2] for x in kab])

        # ---- packet pool, slot calendar, per-gateway/connection state
        for name, col in (("p_conn", pool.conn), ("p_seq", pool.seq),
                          ("p_created", pool.created),
                          ("p_hop", pool.hop),
                          ("p_rem", pool.remaining),
                          ("p_klass", pool.klass), ("p_free", pool._free),
                          ("ev_time", cal._time), ("ev_kind", cal._kind),
                          ("ev_a", cal._a), ("ev_b", cal._b),
                          ("ev_live", cal._live), ("ev_free", cal._free),
                          ("scale", self.scale),
                          ("arr_epoch", self.arr_epoch)):
            put(name, col)
        for name, attr in _STATE.items():
            put(name, getattr(self, attr))
        for name in _ROWS:
            put(name, [x for row in getattr(self, name) for x in row])
        if self._fs_stale:
            self._put_fs_tables()

        regs = self._regs
        reg = dict(n_gw=len(self.gw_names), n_conn=self.n_conn,
                   block=block, fs=int(self.thin_buf is not None),
                   max_events=int(max_events), seq=cal._seq,
                   heap_len=len(hp), pool_len=pool_len,
                   free_len=len(pool._free), ev_len=len(cal._time),
                   ev_free_len=len(cal._free))
        regs[:] = [reg.get(name, 0) for name in _cext.ENGINE_REGS]

        handle = lib.eng_enter(self._reg_ptrs[0], float(t_end),
                               float(self.now), fields.table)
        if not handle:
            self.fallbacks += 1
            return False
        run = lib.fifo_run if loop == "fifo" else lib.general_run
        try:
            with compiled.metrics().timer(f"run.{loop}").time():
                status = run(handle)
                while status == _cext.ST_REFILL:
                    s_i = int(lib.eng_need_stream(handle))
                    buf = bufs[s_i]
                    buf._refill(kinds[s_i])
                    rng_vals[s_i * block:(s_i + 1) * block] = buf._values
                    seen[s_i] = buf._values
                    rng_idx[s_i] = 0
                    status = run(handle)
            lib.eng_regs(handle, *self._reg_ptrs)
            r = dict(zip(_cext.ENGINE_REGS, regs.tolist()))
            for name, length in _COPIED.items():
                fields.reserve(name, r[length])
            lib.eng_extract(handle, fields.table)
        finally:
            lib.eng_release(handle)
        self._sync_back(r, bufs, queues)

        if status == _cext.ST_MAX_EVENTS:
            raise SimulationError(
                f"exceeded {max_events} events before t={t_end}; "
                f"runaway simulation?")
        if status == _cext.ST_IDLE_SERVER:
            raise SimulationError("completion event with idle server")
        if status == _cext.ST_BAD_TIME:
            raise SimulationError(
                f"event time must be finite, got {float(self._dregs[1])!r}")
        if status == _cext.ST_OOM:
            raise MemoryError(f"compiled {loop} event loop ran out of "
                              f"memory")
        return True

    def _sync_back(self, r: dict, bufs: list, queues: list) -> None:
        """Hand the C loop's state back to the Python structures (the
        ``finally`` contract of the Python loops)."""
        fields = self._fields
        get = fields.get
        pool = self.pool
        cal = self.calendar
        self.now = float(self._dregs[0])
        self.events_processed += r["processed"]
        cal._seq = r["seq"]
        for name, attr in _STATE.items():
            target = getattr(self, attr)
            target[:] = get(name, len(target))
        for name in _ROWS:
            flat = get(name, self._rows[-1][1])
            rows = getattr(self, name)
            for g, (s0, s1) in enumerate(self._rows):
                rows[g][:] = flat[s0:s1]
        idx = get("rng_idx", len(bufs))
        for s_i, buf in enumerate(bufs):
            if buf._values:
                buf._index = idx[s_i]

        # Heap entries rebuilt by form: slot entries are (time, seq,
        # slot); payload EMIT carries its epoch and HANDOFF its hop
        # (6-tuples), COMPLETE/SINK are 5-tuples.  The C array
        # satisfies the binary-heap invariant, so it is a valid heapq
        # list as-is.
        hl = r["heap_len"]
        tl, sl, slots = get("h_time", hl), get("h_seq", hl), get("h_slot", hl)
        kl, al, bl = get("h_kind", hl), get("h_a", hl), get("h_b", hl)
        heap = []
        for j, slot in enumerate(slots):
            k = kl[j]
            if slot >= 0:
                heap.append((tl[j], sl[j], slot))
            elif k == _EMIT or k == _HANDOFF:
                heap.append((tl[j], sl[j], -1, k, al[j], bl[j]))
            else:
                heap.append((tl[j], sl[j], -1, k, al[j]))
        cal._heap[:] = heap

        pl = r["pool_len"]
        pool.conn[:] = get("p_conn", pl)
        pool.seq[:] = get("p_seq", pl)
        pool.created[:] = get("p_created", pl)
        pool.hop[:] = get("p_hop", pl)
        pool.remaining[:] = get("p_rem", pl)
        pool.klass[:] = get("p_klass", pl)
        pool._free[:] = get("p_free", r["free_len"])

        el = r["ev_len"]
        cal._time[:] = array("d", get("ev_time", el))
        cal._kind[:] = array("b", get("ev_kind", el))
        cal._a[:] = array("q", get("ev_a", el))
        cal._b[:] = array("q", get("ev_b", el))
        cal._live[:] = array("b", get("ev_live", el))
        cal._free[:] = get("ev_free", r["ev_free_len"])

        heads = get("q_head", len(queues))
        nxt = get("q_next", pl)
        for q, dq in enumerate(queues):
            dq.clear()
            pid = heads[q]
            while pid >= 0:
                dq.append(pid)
                pid = nxt[pid]
