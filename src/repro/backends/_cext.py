"""Runtime-compiled C kernels (the ``cext`` tier).

At first use this module compiles a small C file with the system C
compiler (``cc``/``gcc``/``clang``), caches the shared library under
``src/repro/backends/_build`` (override with ``REPRO_CC_CACHE``; falls
back to a temporary directory when the tree is read-only), and binds
it with :mod:`ctypes`.  Nothing is installed; when no compiler exists
the tier simply reports unavailable and callers fall back to the
pure-python kernels.

Two kernel families live in the library:

* ``fs_queue_batch`` / ``fs_loads_batch`` / ``ind_congestion_batch``
  — the Fair Share sorted prefix-sum laws, loop twins of
  :mod:`repro.backends._fs_python` (see that module's bit-identity
  notes; the C side adds a stable argsort — bottom-up mergesort for
  short rows, LSD radix on order-preserving integer keys for long
  ones — which yields the same permutation as
  ``np.argsort(kind="stable")`` because the stable ascending
  permutation is unique; the key transform collapses ``-0.0`` onto
  ``+0.0`` so the radix tie classes match IEEE comparison ties).
* the packet event loops — C transcriptions of
  ``FastEngine._run_fifo`` (``fifo_run``) and of the class-discipline
  loop ``FastEngine._run_general`` with its ``_arrive`` /
  ``_start_next`` / ``_emit`` / ``_complete`` handlers
  (``general_run``: Fair Share thinning, fixed priority, preemptive
  resume), sharing one engine state and one resume trampoline:
  ``eng_enter`` binds the fixed-size per-gateway/per-connection state
  (caller-owned numpy buffers, mutated in place; see
  :data:`ENGINE_FIELDS`) and copies the event heap, packet pool and
  slot calendar into C-owned growable arrays; a loop executes events
  until the horizon, returning ``REFILL`` *before* any event whose
  random draws would exhaust a variate block, so Python can refill the
  :class:`~repro.simulation.rng.VariateBuffer` (keeping the generator
  objects — and hence the exact bitstream — on the Python side) and
  resume; ``eng_extract`` hands the heap/pool/calendar back.

Float discipline: compiled with ``-ffp-contract=off -fno-fast-math``
so no FMA contraction or reassociation — every arithmetic operation
maps one-to-one onto the Python/numpy original, which is what makes
the engines bit-identical rather than merely close.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time as _time
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "compiler_available", "load", "load_error", "build_seconds",
    "fs_queue_batch", "fs_loads_batch", "ind_congestion_batch",
    "ST_DONE", "ST_REFILL", "ST_MAX_EVENTS", "ST_IDLE_SERVER",
    "ST_OOM", "ST_BAD_TIME", "ENGINE_FIELDS", "ENGINE_REGS",
]

# Status codes shared with the C side.
ST_DONE = 0
ST_REFILL = 1
ST_MAX_EVENTS = 3
ST_IDLE_SERVER = 4
ST_OOM = 5
ST_BAD_TIME = 6

#: The packet engines' pointer table, in C enum order (``F_<NAME>``).
#: The fields up to ``fs_fallback`` are borrowed: caller-owned numpy
#: buffers the loops mutate in place.  From ``h_time`` on they are the
#: event heap, packet pool and slot calendar, which ``eng_enter`` copies
#: into C-owned growable arrays and ``eng_extract`` copies back out.
ENGINE_FIELDS = (
    "latency", "mu_scale", "scale", "buffer_cap", "pos_flat",
    "first_hop", "gw_ptr", "path_ptr", "path_arr",
    "serving", "in_sys", "completion_slot", "completion_time",
    "arr_epoch", "seq_counter", "pending_slot",
    "st_last", "st_integral", "st_count", "st_arrivals",
    "st_departures", "st_drops", "e2e_delivered", "e2e_delay",
    "q_head", "q_tail", "rng_vals", "rng_idx",
    "fs_widths", "fs_wptr", "fs_total", "fs_fallback",
    "h_time", "h_seq", "h_slot", "h_kind", "h_a", "h_b",
    "p_conn", "p_seq", "p_created", "p_hop", "p_rem", "p_klass",
    "q_next", "p_free",
    "ev_time", "ev_kind", "ev_a", "ev_b", "ev_live", "ev_free",
)
#: The integer registers ``eng_enter`` reads and ``eng_regs`` writes,
#: in C enum order (``R_<NAME>``).
ENGINE_REGS = (
    "n_gw", "n_conn", "block", "fs", "max_events", "seq",
    "heap_len", "pool_len", "free_len", "ev_len", "ev_free_len",
    "processed",
)

_SOURCE = r"""
#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <math.h>

typedef int64_t i64;
typedef uint64_t u64;

#define K_EMIT 0
#define K_COMPLETE 1
#define K_HANDOFF 2
#define K_SINK 3

#define ST_DONE 0
#define ST_REFILL 1
#define ST_MAX_EVENTS 3
#define ST_IDLE_SERVER 4
#define ST_OOM 5
#define ST_BAD_TIME 6

/* ------------------------------------------------------------------ */
/* Fair Share sorted prefix-sum kernels                               */
/* ------------------------------------------------------------------ */

/* Stable ascending argsort (bottom-up mergesort on an index array).
 * Stability + ascending order determine the permutation uniquely, so
 * this matches numpy's kind="stable" argsort exactly. */
static void stable_argsort(const double *v, i64 n, i64 *idx, i64 *tmp)
{
    i64 *src = idx, *dst = tmp, width;
    for (i64 i = 0; i < n; i++) idx[i] = i;
    for (width = 1; width < n; width *= 2) {
        for (i64 lo = 0; lo < n; lo += 2 * width) {
            i64 mid = lo + width, hi = lo + 2 * width;
            if (mid > n) mid = n;
            if (hi > n) hi = n;
            i64 i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* left wins ties: keeps original order (stable) */
                if (v[src[j]] < v[src[i]]) dst[k++] = src[j++];
                else dst[k++] = src[i++];
            }
            while (i < mid) dst[k++] = src[i++];
            while (j < hi) dst[k++] = src[j++];
        }
        i64 *sw = src; src = dst; dst = sw;
    }
    if (src != idx)
        memcpy(idx, src, (size_t)n * sizeof(i64));
}

/* Order-preserving integer key for a non-NaN double: flip the sign
 * bit for nonnegative values, flip every bit for negative ones, and
 * collapse -0.0 onto +0.0 first so the two zeros stay one tie class
 * (IEEE comparison says -0.0 == +0.0, and the radix sort below must
 * reproduce the comparison sort's tie behaviour exactly). */
static inline u64 sort_key(double x)
{
    u64 b;
    memcpy(&b, &x, sizeof b);
    if (b == 0x8000000000000000ULL) b = 0;          /* -0.0 -> +0.0 */
    return (b >> 63) ? ~b : (b | 0x8000000000000000ULL);
}

/* Stable ascending argsort via LSD radix on the 64-bit keys: 8-bit
 * digits, counting passes (stable by construction), single-bucket
 * passes skipped.  Same permutation as the mergesort for any input
 * without NaNs (the dispatch guards keep NaNs out of these kernels);
 * ~4x faster for the row lengths the scale paths use. */
static void radix_argsort(const double *v, i64 n, i64 *idx, i64 *tmp,
                          u64 *keys, u64 *keys_tmp)
{
    i64 count[256];
    i64 *idx0 = idx;
    for (i64 i = 0; i < n; i++) { idx[i] = i; keys[i] = sort_key(v[i]); }
    for (int shift = 0; shift < 64; shift += 8) {
        memset(count, 0, sizeof count);
        for (i64 i = 0; i < n; i++)
            count[(keys[i] >> shift) & 0xff]++;
        if (count[(keys[0] >> shift) & 0xff] == n)
            continue;                     /* whole row in one bucket */
        i64 pos = 0;
        for (int b = 0; b < 256; b++) {
            i64 c = count[b]; count[b] = pos; pos += c;
        }
        for (i64 i = 0; i < n; i++) {
            u64 k = keys[i];
            i64 p = count[(k >> shift) & 0xff]++;
            keys_tmp[p] = k;
            tmp[p] = idx[i];
        }
        u64 *ks = keys; keys = keys_tmp; keys_tmp = ks;
        i64 *is = idx; idx = tmp; tmp = is;
    }
    if (idx != idx0)
        memcpy(idx0, idx, (size_t)n * sizeof(i64));
}

/* Radix wins once the row is long enough to amortise its 8 counting
 * passes; below that the branchy mergesort is cheaper. */
#define RADIX_MIN_N 48

static void sort_row(const double *v, i64 n, i64 *idx, i64 *tmp,
                     u64 *keys, u64 *keys_tmp)
{
    if (n >= RADIX_MIN_N)
        radix_argsort(v, n, idx, tmp, keys, keys_tmp);
    else
        stable_argsort(v, n, idx, tmp);
}

void fs_queue_batch(const double *rates, i64 m, i64 n, double mu,
                    double *out)
{
    i64 *idx = (i64 *)malloc((size_t)n * sizeof(i64));
    i64 *tmp = (i64 *)malloc((size_t)n * sizeof(i64));
    u64 *keys = (u64 *)malloc((size_t)n * sizeof(u64));
    u64 *keys_tmp = (u64 *)malloc((size_t)n * sizeof(u64));
    if (!idx || !tmp || !keys || !keys_tmp) {
        free(idx); free(tmp); free(keys); free(keys_tmp); return;
    }
    for (i64 row = 0; row < m; row++) {
        const double *rr = rates + row * n;
        double *oo = out + row * n;
        sort_row(rr, n, idx, tmp, keys, keys_tmp);
        double prefix = 0.0, g_prev = 0.0, acc = 0.0;
        for (i64 k = 0; k < n; k++) {
            i64 j = idx[k];
            double sr = rr[j];
            prefix += sr;
            double sigma = (prefix + sr * (double)(n - 1 - k)) / mu;
            double gs = (sigma < 1.0) ? (sigma / (1.0 - sigma))
                                      : INFINITY;
            double q;
            if (isfinite(gs)) {
                acc += (gs - g_prev) / (double)(n - k);
                q = acc;
            } else {
                acc += 0.0; /* the masked cumsum adds literal zero */
                q = INFINITY;
            }
            if (sr == 0.0) q = 0.0;
            oo[j] = q;
            g_prev = gs;
        }
    }
    free(idx);
    free(tmp);
    free(keys);
    free(keys_tmp);
}

void fs_loads_batch(const double *sorted_rates, i64 m, i64 n,
                    double mu, double *out)
{
    for (i64 row = 0; row < m; row++) {
        const double *rr = sorted_rates + row * n;
        double *oo = out + row * n;
        double prefix = 0.0;
        for (i64 k = 0; k < n; k++) {
            double sr = rr[k];
            prefix += sr;
            oo[k] = (prefix + sr * (double)(n - 1 - k)) / mu;
        }
    }
}

void ind_congestion_batch(const double *queues, i64 m, i64 n,
                          double *out)
{
    i64 *idx = (i64 *)malloc((size_t)n * sizeof(i64));
    i64 *tmp = (i64 *)malloc((size_t)n * sizeof(i64));
    u64 *keys = (u64 *)malloc((size_t)n * sizeof(u64));
    u64 *keys_tmp = (u64 *)malloc((size_t)n * sizeof(u64));
    if (!idx || !tmp || !keys || !keys_tmp) {
        free(idx); free(tmp); free(keys); free(keys_tmp); return;
    }
    for (i64 row = 0; row < m; row++) {
        const double *qq = queues + row * n;
        double *oo = out + row * n;
        sort_row(qq, n, idx, tmp, keys, keys_tmp);
        double prefix = 0.0;
        for (i64 k = 0; k < n; k++) {
            i64 j = idx[k];
            double v = qq[j];
            prefix += v;
            oo[j] = isinf(v) ? INFINITY
                             : (prefix + v * (double)(n - 1 - k));
        }
    }
    free(idx);
    free(tmp);
    free(keys);
    free(keys_tmp);
}

/* ------------------------------------------------------------------ */
/* Packet event loops: transcriptions of FastEngine._run_fifo and     */
/* FastEngine._run_general over one shared engine state               */
/* ------------------------------------------------------------------ */

/* One event-heap entry, ordered by the unique key (time, seq).  The
 * FIFO loop pushes self-describing payload entries (slot -1, kind, a,
 * b); the class loop pushes calendar entries whose kind and operands
 * live in the slot columns, exactly as EventCalendar does. */
typedef struct {
    double t;
    i64 seq, slot, kind, a, b;
} Ev;

/* Slots of the pointer table eng_enter and eng_extract take, and of
 * the integer registers eng_enter and eng_regs exchange; generated
 * from _cext.ENGINE_FIELDS / _cext.ENGINE_REGS so the two sides
 * cannot drift apart. */
enum { @ENGINE_FIELDS@ };
enum { @ENGINE_REGS@ };

typedef struct {
    /* dimensions / horizon */
    i64 n_gw, n_conn, block, fs, max_events;
    double t_end;
    /* borrowed fixed-size state (numpy-owned, mutated in place) */
    const double *latency, *mu_scale, *scale;
    const i64 *buffer_cap, *pos_flat, *first_hop;
    const i64 *gw_ptr, *path_ptr, *path_arr;
    i64 *serving, *in_sys, *completion_slot;
    double *completion_time;
    const i64 *arr_epoch;
    i64 *seq_counter, *pending_slot;
    double *st_last, *st_integral;
    i64 *st_count, *st_arrivals, *st_departures, *st_drops;
    i64 *e2e_delivered;
    double *e2e_delay;
    i64 *q_head, *q_tail;
    double *rng_vals;
    i64 *rng_idx;
    const double *fs_widths, *fs_total;
    const i64 *fs_wptr, *fs_fallback;
    /* C-owned growable state: event heap, packet pool, slot calendar */
    Ev *heap;
    i64 heap_len, heap_cap;
    i64 *p_conn, *p_seq, *p_hop, *p_klass, *q_next, *p_free;
    double *p_created, *p_rem;
    i64 pool_len, pool_cap, free_len;
    double *ev_time;
    i64 *ev_kind, *ev_a, *ev_b, *ev_live, *ev_free;
    i64 ev_len, ev_cap, ev_free_len;
    /* loop registers */
    double now, bad_time;
    i64 seq, processed, need_stream;
} Eng;

#define GROW(p, cap) do {                                          \
        void *grown_ = realloc((p), (size_t)(cap) * sizeof *(p));  \
        if (!grown_) return 0;                                     \
        (p) = grown_;                                              \
    } while (0)

static i64 next_cap(i64 cap, i64 need)
{
    cap = cap > 0 ? cap : 16;
    while (cap < need) cap *= 2;
    return cap;
}

static int heap_reserve(Eng *s, i64 need)
{
    if (need <= s->heap_cap) return 1;
    i64 cap = next_cap(s->heap_cap, need);
    GROW(s->heap, cap);
    s->heap_cap = cap;
    return 1;
}

static int pool_reserve(Eng *s, i64 need)
{
    if (need <= s->pool_cap) return 1;
    i64 cap = next_cap(s->pool_cap, need);
    GROW(s->p_conn, cap);
    GROW(s->p_seq, cap);
    GROW(s->p_created, cap);
    GROW(s->p_hop, cap);
    GROW(s->p_rem, cap);
    GROW(s->p_klass, cap);
    GROW(s->q_next, cap);
    GROW(s->p_free, cap);
    s->pool_cap = cap;
    return 1;
}

static int slots_reserve(Eng *s, i64 need)
{
    if (need <= s->ev_cap) return 1;
    i64 cap = next_cap(s->ev_cap, need);
    GROW(s->ev_time, cap);
    GROW(s->ev_kind, cap);
    GROW(s->ev_a, cap);
    GROW(s->ev_b, cap);
    GROW(s->ev_live, cap);
    GROW(s->ev_free, cap);
    s->ev_cap = cap;
    return 1;
}

static inline int ev_before(const Ev *x, const Ev *y)
{
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

/* seq is unique, so any valid binary min-heap pops entries in the same
 * order python's heapq pops the (time, seq, ...) tuples. */
static int heap_push(Eng *s, double t, i64 slot, i64 kind, i64 a, i64 b)
{
    if (!heap_reserve(s, s->heap_len + 1)) return 0;
    Ev e = {t, s->seq++, slot, kind, a, b};
    i64 i = s->heap_len++;
    while (i > 0) {
        i64 up = (i - 1) >> 1;
        if (ev_before(&s->heap[up], &e)) break;
        s->heap[i] = s->heap[up];
        i = up;
    }
    s->heap[i] = e;
    return 1;
}

static void heap_pop(Eng *s)
{
    i64 n = --s->heap_len;
    if (n == 0) return;
    Ev last = s->heap[n];
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && ev_before(&s->heap[c + 1], &s->heap[c])) c++;
        if (!ev_before(&s->heap[c], &last)) break;
        s->heap[i] = s->heap[c];
        i = c;
    }
    s->heap[i] = last;
}

/* EventCalendar.schedule: reuse the most recently freed slot, else
 * grow; *slot_out (when given) receives the slot. */
static i64 schedule(Eng *s, double t, i64 kind, i64 a, i64 b,
                    i64 *slot_out)
{
    if (!isfinite(t)) {
        s->bad_time = t;
        return ST_BAD_TIME;
    }
    i64 slot;
    if (s->ev_free_len > 0) {
        slot = s->ev_free[--s->ev_free_len];
    } else {
        if (!slots_reserve(s, s->ev_len + 1)) return ST_OOM;
        slot = s->ev_len++;
    }
    s->ev_time[slot] = t;
    s->ev_kind[slot] = kind;
    s->ev_a[slot] = a;
    s->ev_b[slot] = b;
    s->ev_live[slot] = 1;
    if (!heap_push(s, t, slot, -1, -1, -1)) return ST_OOM;
    if (slot_out) *slot_out = slot;
    return ST_DONE;
}

static i64 refill(Eng *s, i64 stream)
{
    s->need_stream = stream;
    return ST_REFILL;
}

/* The next variate of a stream; the preflight guarantees one is left. */
static inline double draw(Eng *s, i64 stream)
{
    i64 i = s->rng_idx[stream]++;
    return s->rng_vals[stream * s->block + i];
}

/* Preflight of an arrival of conn at g: yield for a refill *before*
 * the event when its service draw (or Fair Share thinning draw) would
 * exhaust a block, so an event never stops half-committed.  An early
 * refill never changes which variate is the k-th draw of a stream. */
static i64 arrival_preflight(Eng *s, i64 g, i64 conn)
{
    if (s->in_sys[g] >= s->buffer_cap[g]) return ST_DONE; /* no draw */
    if (s->rng_idx[g] >= s->block) return refill(s, g);
    if (s->fs) {
        i64 loc = s->gw_ptr[g] + s->pos_flat[g * s->n_conn + conn];
        i64 thin = s->n_gw + s->n_conn + g;
        if (s->fs_fallback[loc] >= 0 && s->rng_idx[thin] >= s->block)
            return refill(s, thin);
    }
    return ST_DONE;
}

/* KernelGatewayStats.accumulate: advance the time-weighted integral to
 * now.  The loop is skipped when the gateway is empty (every count is
 * then zero, in_sys being their sum), which is bitwise exact. */
static void accumulate(Eng *s, i64 g, double now)
{
    double dt = now - s->st_last[g];
    if (dt > 0.0) {
        if (s->in_sys[g]) {
            i64 base = s->gw_ptr[g], nloc = s->gw_ptr[g + 1] - base;
            for (i64 j = 0; j < nloc; j++) {
                i64 c = s->st_count[base + j];
                if (c) s->st_integral[base + j] += (double)c * dt;
            }
        }
        s->st_last[g] = now;
    }
}

/* Queue q as an intrusive chain over packet ids. */
static void q_push_back(Eng *s, i64 q, i64 pid)
{
    s->q_next[pid] = -1;
    if (s->q_tail[q] < 0) s->q_head[q] = pid;
    else s->q_next[s->q_tail[q]] = pid;
    s->q_tail[q] = pid;
}

static void q_push_front(Eng *s, i64 q, i64 pid)
{
    s->q_next[pid] = s->q_head[q];
    if (s->q_head[q] < 0) s->q_tail[q] = pid;
    s->q_head[q] = pid;
}

static i64 q_pop_front(Eng *s, i64 q)
{
    i64 pid = s->q_head[q];
    if (pid >= 0) {
        s->q_head[q] = s->q_next[pid];
        if (s->q_head[q] < 0) s->q_tail[q] = -1;
    }
    return pid;
}

/* PacketPool.alloc's slot choice: the most recently freed id, else a
 * fresh one (capacity reserved by the preflight) whose diagnostic
 * columns start at the zeros the Python loops append. */
static i64 alloc_packet(Eng *s)
{
    if (s->free_len > 0) return s->p_free[--s->free_len];
    i64 pid = s->pool_len++;
    s->p_seq[pid] = 0;
    s->p_rem[pid] = 0.0;
    s->p_klass[pid] = 0;
    return pid;
}

/* ---- FIFO loop (FastEngine._run_fifo) ---------------------------- */

/* A packet reaches gateway g: drop check, service draw, statistics,
 * enqueue-or-serve — the inlined arrive block of _run_fifo.  Returns
 * 0 on allocation failure. */
static int fifo_arrive(Eng *s, i64 g, i64 pid, i64 conn, double now)
{
    i64 loc = s->gw_ptr[g] + s->pos_flat[g * s->n_conn + conn];
    if (s->in_sys[g] >= s->buffer_cap[g]) {
        accumulate(s, g, now);
        s->st_drops[loc] += 1;
        s->p_free[s->free_len++] = pid;
        return 1;
    }
    s->p_rem[pid] = s->mu_scale[g] * draw(s, g);
    accumulate(s, g, now);
    s->st_count[loc] += 1;
    s->st_arrivals[loc] += 1;
    s->in_sys[g] += 1;
    if (s->serving[g] < 0) {
        s->serving[g] = pid;
        return heap_push(s, now + s->p_rem[pid], -1, K_COMPLETE, g, -1);
    }
    q_push_back(s, g, pid);
    return 1;
}

i64 fifo_run(void *handle)
{
    Eng *s = (Eng *)handle;
    for (;;) {
        if (s->heap_len == 0) return ST_DONE;
        Ev e = s->heap[0];
        if (e.t > s->t_end) return ST_DONE;

        if (e.kind == K_EMIT) {
            if (e.b == s->arr_epoch[e.a]) {
                i64 st = arrival_preflight(s, s->first_hop[e.a], e.a);
                if (st) return st;
                if (s->rng_idx[s->n_gw + e.a] >= s->block)
                    return refill(s, s->n_gw + e.a);
                if (s->free_len == 0 &&
                    !pool_reserve(s, s->pool_len + 1))
                    return ST_OOM;
            }
        } else if (e.kind == K_HANDOFF) {
            i64 conn = s->p_conn[e.a];
            i64 st = arrival_preflight(
                s, s->path_arr[s->path_ptr[conn] + e.b], conn);
            if (st) return st;
        }

        heap_pop(s);
        double now = e.t;

        if (e.kind == K_EMIT) {
            i64 conn = e.a;
            if (e.b != s->arr_epoch[conn])
                continue; /* arrival cancelled by a rate change */
            s->now = now;
            s->processed += 1;
            i64 pid = alloc_packet(s);
            s->p_conn[pid] = conn;
            s->p_created[pid] = now;
            s->p_hop[pid] = 0;
            if (!fifo_arrive(s, s->first_hop[conn], pid, conn, now))
                return ST_OOM;
            /* schedule the next arrival (epoch-validated payload) */
            double gap = s->scale[conn] * draw(s, s->n_gw + conn);
            if (!heap_push(s, now + gap, -1, K_EMIT, conn,
                           s->arr_epoch[conn]))
                return ST_OOM;

        } else if (e.kind == K_COMPLETE) {
            s->now = now;
            s->processed += 1;
            i64 g = e.a;
            i64 base = s->gw_ptr[g];
            double lat = s->latency[g];
            for (;;) {
                i64 pid = s->serving[g];
                if (pid < 0) return ST_IDLE_SERVER;
                i64 conn = s->p_conn[pid];
                accumulate(s, g, now);
                i64 loc = base + s->pos_flat[g * s->n_conn + conn];
                s->st_count[loc] -= 1;
                s->st_departures[loc] += 1;
                s->in_sys[g] -= 1;
                i64 h = s->p_hop[pid] + 1;
                double t = now + lat;
                if (h < s->path_ptr[conn + 1] - s->path_ptr[conn]) {
                    if (!heap_push(s, t, -1, K_HANDOFF, pid, h))
                        return ST_OOM;
                } else if (t <= s->t_end) {
                    /* eager sink delivery */
                    s->e2e_delivered[conn] += 1;
                    s->e2e_delay[conn] += t - s->p_created[pid];
                    s->p_free[s->free_len++] = pid;
                    s->processed += 1;
                } else {
                    if (!heap_push(s, t, -1, K_SINK, pid, -1))
                        return ST_OOM;
                }
                i64 nxt = q_pop_front(s, g);
                if (nxt < 0) {
                    s->serving[g] = -1;
                    break;
                }
                s->serving[g] = nxt;
                double t_next = now + s->p_rem[nxt];
                /* burst: absorb the next completion without heap
                 * traffic when it strictly precedes every pending
                 * event */
                if (t_next <= s->t_end &&
                    s->processed < s->max_events) {
                    if (s->heap_len == 0 || t_next < s->heap[0].t) {
                        now = t_next;
                        s->now = now;
                        s->processed += 1;
                        continue;
                    }
                }
                if (!heap_push(s, t_next, -1, K_COMPLETE, g, -1))
                    return ST_OOM;
                break;
            }

        } else if (e.kind == K_HANDOFF) {
            s->now = now;
            s->processed += 1;
            i64 pid = e.a;
            i64 conn = s->p_conn[pid];
            s->p_hop[pid] = e.b;
            if (!fifo_arrive(s, s->path_arr[s->path_ptr[conn] + e.b], pid,
                             conn, now))
                return ST_OOM;

        } else { /* K_SINK */
            s->now = now;
            s->processed += 1;
            i64 pid = e.a;
            i64 conn = s->p_conn[pid];
            s->e2e_delivered[conn] += 1;
            s->e2e_delay[conn] += now - s->p_created[pid];
            s->p_free[s->free_len++] = pid;
        }

        if (s->processed > s->max_events) return ST_MAX_EVENTS;
    }
}

/* ---- class-discipline loop (FastEngine._run_general) ------------- */

/* FastEngine._start_next: serve the head of the best non-empty class
 * (queue id gw_ptr[g] + class). */
static i64 gen_start_next(Eng *s, i64 g, double now)
{
    i64 pid = -1;
    for (i64 q = s->gw_ptr[g]; q < s->gw_ptr[g + 1] && pid < 0; q++)
        pid = q_pop_front(s, q);
    if (pid < 0) {
        s->serving[g] = -1;
        s->completion_slot[g] = -1;
        return ST_DONE;
    }
    s->serving[g] = pid;
    double t = now + s->p_rem[pid];
    s->completion_time[g] = t;
    return schedule(s, t, K_COMPLETE, g, 0, &s->completion_slot[g]);
}

/* FastEngine._arrive: drop before any draw, service draw, statistics,
 * classification, enqueue, then start or preempt. */
static i64 gen_arrive(Eng *s, i64 g, i64 pid, double now)
{
    i64 conn = s->p_conn[pid];
    i64 pos = s->pos_flat[g * s->n_conn + conn];
    i64 base = s->gw_ptr[g];
    if (s->in_sys[g] >= s->buffer_cap[g]) {
        accumulate(s, g, now);
        s->st_drops[base + pos] += 1;
        s->p_free[s->free_len++] = pid;
        return ST_DONE;
    }
    s->p_rem[pid] = s->mu_scale[g] * draw(s, g);
    accumulate(s, g, now);
    s->st_count[base + pos] += 1;
    s->st_arrivals[base + pos] += 1;
    s->in_sys[g] += 1;

    i64 klass = pos; /* fixed-priority: class = local position */
    if (s->fs) {     /* Fair Share thinning walk */
        i64 fallback = s->fs_fallback[base + pos];
        if (fallback < 0) {
            klass = 0;
        } else {
            const double *widths = s->fs_widths + s->fs_wptr[base + pos];
            i64 nloc = s->gw_ptr[g + 1] - base;
            double u = draw(s, s->n_gw + s->n_conn + g)
                       * s->fs_total[base + pos];
            double acc = 0.0;
            klass = fallback;
            for (i64 k = 0; k < nloc; k++) {
                acc += widths[k];
                if (u <= acc) {
                    klass = k;
                    break;
                }
            }
        }
    }
    s->p_klass[pid] = klass;
    q_push_back(s, base + klass, pid);
    i64 serving = s->serving[g];
    if (serving < 0) return gen_start_next(s, g, now);
    if (klass < s->p_klass[serving]) {
        /* preemptive resume: bank the unserved remainder (python's
         * max(left, 0.0)), cancel the stale completion, put the victim
         * back at the front of its class, serve the best head */
        double left = s->completion_time[g] - now;
        s->p_rem[serving] = (0.0 > left) ? 0.0 : left;
        if (s->completion_slot[g] >= 0)
            s->ev_live[s->completion_slot[g]] = 0;
        q_push_front(s, base + s->p_klass[serving], serving);
        s->serving[g] = -1;
        s->completion_slot[g] = -1;
        return gen_start_next(s, g, now);
    }
    return ST_DONE;
}

/* FastEngine._emit + _schedule_next_arrival. */
static i64 gen_emit(Eng *s, i64 conn, double now)
{
    i64 pid = alloc_packet(s);
    s->p_conn[pid] = conn;
    s->p_seq[pid] = s->seq_counter[conn];
    s->p_created[pid] = now;
    s->p_hop[pid] = 0;
    s->p_rem[pid] = 0.0;
    s->p_klass[pid] = 0;
    s->seq_counter[conn] += 1;
    i64 st = gen_arrive(s, s->first_hop[conn], pid, now);
    if (st) return st;
    if (s->scale[conn] <= 0.0) {
        s->pending_slot[conn] = -1;
        return ST_DONE;
    }
    double gap = s->scale[conn] * draw(s, s->n_gw + conn);
    return schedule(s, now + gap, K_EMIT, conn, 0, &s->pending_slot[conn]);
}

/* FastEngine._complete. */
static i64 gen_complete(Eng *s, i64 g, double now)
{
    i64 pid = s->serving[g];
    if (pid < 0) return ST_IDLE_SERVER;
    s->serving[g] = -1;
    s->completion_slot[g] = -1;
    i64 conn = s->p_conn[pid];
    i64 loc = s->gw_ptr[g] + s->pos_flat[g * s->n_conn + conn];
    accumulate(s, g, now);
    s->st_count[loc] -= 1;
    s->st_departures[loc] += 1;
    s->in_sys[g] -= 1;
    i64 next_hop = s->p_hop[pid] + 1;
    i64 st;
    if (next_hop < s->path_ptr[conn + 1] - s->path_ptr[conn])
        st = schedule(s, now + s->latency[g], K_HANDOFF, pid, next_hop,
                      NULL);
    else
        st = schedule(s, now + s->latency[g], K_SINK, pid, 0, NULL);
    if (st) return st;
    return gen_start_next(s, g, now);
}

i64 general_run(void *handle)
{
    Eng *s = (Eng *)handle;
    for (;;) {
        if (s->heap_len == 0) return ST_DONE;
        i64 slot = s->heap[0].slot;
        if (!s->ev_live[slot]) {
            heap_pop(s);
            s->ev_free[s->ev_free_len++] = slot;
            continue;
        }
        double time = s->heap[0].t;
        if (time > s->t_end) return ST_DONE;
        i64 kind = s->ev_kind[slot], a = s->ev_a[slot], b = s->ev_b[slot];

        i64 st = ST_DONE;
        if (kind == K_EMIT) {
            st = arrival_preflight(s, s->first_hop[a], a);
            if (!st && s->scale[a] > 0.0 &&
                s->rng_idx[s->n_gw + a] >= s->block)
                st = refill(s, s->n_gw + a);
            if (!st && s->free_len == 0 &&
                !pool_reserve(s, s->pool_len + 1))
                st = ST_OOM;
        } else if (kind == K_HANDOFF) {
            i64 conn = s->p_conn[a];
            st = arrival_preflight(
                s, s->path_arr[s->path_ptr[conn] + b], conn);
        }
        if (st) return st;

        heap_pop(s);
        s->ev_live[slot] = 0;
        s->ev_free[s->ev_free_len++] = slot;
        s->now = time;
        s->processed += 1;
        if (kind == K_COMPLETE) {
            st = gen_complete(s, a, time);
        } else if (kind == K_EMIT) {
            st = gen_emit(s, a, time);
        } else if (kind == K_HANDOFF) {
            s->p_hop[a] = b;
            st = gen_arrive(
                s, s->path_arr[s->path_ptr[s->p_conn[a]] + b], a, time);
        } else { /* K_SINK */
            i64 conn = s->p_conn[a];
            s->e2e_delivered[conn] += 1;
            s->e2e_delay[conn] += time - s->p_created[a];
            s->p_free[s->free_len++] = a;
        }
        if (st) return st;
        if (s->processed > s->max_events) return ST_MAX_EVENTS;
    }
}

/* ---- entry, readback, release ------------------------------------ */

void eng_release(void *handle)
{
    Eng *s = (Eng *)handle;
    if (!s) return;
    free(s->heap);
    free(s->p_conn); free(s->p_seq); free(s->p_created); free(s->p_hop);
    free(s->p_rem); free(s->p_klass); free(s->q_next); free(s->p_free);
    free(s->ev_time); free(s->ev_kind); free(s->ev_a); free(s->ev_b);
    free(s->ev_live); free(s->ev_free);
    free(s);
}

/* Bind the borrowed buffers and copy the heap, pool and slot calendar
 * into C-owned growable arrays.  NULL on allocation failure or an
 * inconsistent free-list (the caller then runs the Python loop). */
void *eng_enter(const i64 *r, double t_end, double now, void **f)
{
    i64 hl = r[R_HEAP_LEN], pl = r[R_POOL_LEN], fl = r[R_FREE_LEN];
    i64 el = r[R_EV_LEN], efl = r[R_EV_FREE_LEN];
    if (fl > pl || efl > el) return NULL;
    Eng *s = (Eng *)calloc(1, sizeof(Eng));
    if (!s) return NULL;
    s->n_gw = r[R_N_GW];
    s->n_conn = r[R_N_CONN];
    s->block = r[R_BLOCK];
    s->fs = r[R_FS];
    s->max_events = r[R_MAX_EVENTS];
    s->seq = r[R_SEQ];
    s->t_end = t_end;
    s->now = now;
    s->need_stream = -1;
    s->latency = f[F_LATENCY];
    s->mu_scale = f[F_MU_SCALE];
    s->scale = f[F_SCALE];
    s->buffer_cap = f[F_BUFFER_CAP];
    s->pos_flat = f[F_POS_FLAT];
    s->first_hop = f[F_FIRST_HOP];
    s->gw_ptr = f[F_GW_PTR];
    s->path_ptr = f[F_PATH_PTR];
    s->path_arr = f[F_PATH_ARR];
    s->serving = f[F_SERVING];
    s->in_sys = f[F_IN_SYS];
    s->completion_slot = f[F_COMPLETION_SLOT];
    s->completion_time = f[F_COMPLETION_TIME];
    s->arr_epoch = f[F_ARR_EPOCH];
    s->seq_counter = f[F_SEQ_COUNTER];
    s->pending_slot = f[F_PENDING_SLOT];
    s->st_last = f[F_ST_LAST];
    s->st_integral = f[F_ST_INTEGRAL];
    s->st_count = f[F_ST_COUNT];
    s->st_arrivals = f[F_ST_ARRIVALS];
    s->st_departures = f[F_ST_DEPARTURES];
    s->st_drops = f[F_ST_DROPS];
    s->e2e_delivered = f[F_E2E_DELIVERED];
    s->e2e_delay = f[F_E2E_DELAY];
    s->q_head = f[F_Q_HEAD];
    s->q_tail = f[F_Q_TAIL];
    s->rng_vals = f[F_RNG_VALS];
    s->rng_idx = f[F_RNG_IDX];
    s->fs_widths = f[F_FS_WIDTHS];
    s->fs_wptr = f[F_FS_WPTR];
    s->fs_total = f[F_FS_TOTAL];
    s->fs_fallback = f[F_FS_FALLBACK];
    /* +1: every buffer gets a real allocation, even when empty */
    if (!heap_reserve(s, hl + 1) || !pool_reserve(s, pl + 1) ||
        !slots_reserve(s, el + 1)) {
        eng_release(s);
        return NULL;
    }
    const double *h_time = f[F_H_TIME];
    const i64 *h_seq = f[F_H_SEQ], *h_slot = f[F_H_SLOT];
    const i64 *h_kind = f[F_H_KIND], *h_a = f[F_H_A], *h_b = f[F_H_B];
    for (i64 j = 0; j < hl; j++) {
        Ev e = {h_time[j], h_seq[j], h_slot[j], h_kind[j], h_a[j], h_b[j]};
        s->heap[j] = e;
    }
    s->heap_len = hl;
    memcpy(s->p_conn, f[F_P_CONN], (size_t)pl * sizeof(i64));
    memcpy(s->p_seq, f[F_P_SEQ], (size_t)pl * sizeof(i64));
    memcpy(s->p_created, f[F_P_CREATED], (size_t)pl * sizeof(double));
    memcpy(s->p_hop, f[F_P_HOP], (size_t)pl * sizeof(i64));
    memcpy(s->p_rem, f[F_P_REM], (size_t)pl * sizeof(double));
    memcpy(s->p_klass, f[F_P_KLASS], (size_t)pl * sizeof(i64));
    memcpy(s->q_next, f[F_Q_NEXT], (size_t)pl * sizeof(i64));
    memcpy(s->p_free, f[F_P_FREE], (size_t)fl * sizeof(i64));
    s->pool_len = pl;
    s->free_len = fl;
    memcpy(s->ev_time, f[F_EV_TIME], (size_t)el * sizeof(double));
    memcpy(s->ev_kind, f[F_EV_KIND], (size_t)el * sizeof(i64));
    memcpy(s->ev_a, f[F_EV_A], (size_t)el * sizeof(i64));
    memcpy(s->ev_b, f[F_EV_B], (size_t)el * sizeof(i64));
    memcpy(s->ev_live, f[F_EV_LIVE], (size_t)el * sizeof(i64));
    memcpy(s->ev_free, f[F_EV_FREE], (size_t)efl * sizeof(i64));
    s->ev_len = el;
    s->ev_free_len = efl;
    return s;
}

i64 eng_need_stream(void *handle)
{
    return ((Eng *)handle)->need_stream;
}

/* Registers after a run: the counters and lengths by R_* index, then
 * d[0] = clock, d[1] = the non-finite time behind ST_BAD_TIME. */
void eng_regs(void *handle, i64 *r, double *d)
{
    Eng *s = (Eng *)handle;
    r[R_SEQ] = s->seq;
    r[R_HEAP_LEN] = s->heap_len;
    r[R_POOL_LEN] = s->pool_len;
    r[R_FREE_LEN] = s->free_len;
    r[R_EV_LEN] = s->ev_len;
    r[R_EV_FREE_LEN] = s->ev_free_len;
    r[R_PROCESSED] = s->processed;
    d[0] = s->now;
    d[1] = s->bad_time;
}

/* Copy the heap, pool and slot calendar out into the copied-in fields
 * of f, sized by the lengths eng_regs reported. */
void eng_extract(void *handle, void **f)
{
    Eng *s = (Eng *)handle;
    double *h_time = f[F_H_TIME];
    i64 *h_seq = f[F_H_SEQ], *h_slot = f[F_H_SLOT];
    i64 *h_kind = f[F_H_KIND], *h_a = f[F_H_A], *h_b = f[F_H_B];
    for (i64 j = 0; j < s->heap_len; j++) {
        const Ev *e = &s->heap[j];
        h_time[j] = e->t;
        h_seq[j] = e->seq;
        h_slot[j] = e->slot;
        h_kind[j] = e->kind;
        h_a[j] = e->a;
        h_b[j] = e->b;
    }
    i64 pl = s->pool_len, el = s->ev_len;
    memcpy(f[F_P_CONN], s->p_conn, (size_t)pl * sizeof(i64));
    memcpy(f[F_P_SEQ], s->p_seq, (size_t)pl * sizeof(i64));
    memcpy(f[F_P_CREATED], s->p_created, (size_t)pl * sizeof(double));
    memcpy(f[F_P_HOP], s->p_hop, (size_t)pl * sizeof(i64));
    memcpy(f[F_P_REM], s->p_rem, (size_t)pl * sizeof(double));
    memcpy(f[F_P_KLASS], s->p_klass, (size_t)pl * sizeof(i64));
    memcpy(f[F_Q_NEXT], s->q_next, (size_t)pl * sizeof(i64));
    memcpy(f[F_P_FREE], s->p_free, (size_t)s->free_len * sizeof(i64));
    memcpy(f[F_EV_TIME], s->ev_time, (size_t)el * sizeof(double));
    memcpy(f[F_EV_KIND], s->ev_kind, (size_t)el * sizeof(i64));
    memcpy(f[F_EV_A], s->ev_a, (size_t)el * sizeof(i64));
    memcpy(f[F_EV_B], s->ev_b, (size_t)el * sizeof(i64));
    memcpy(f[F_EV_LIVE], s->ev_live, (size_t)el * sizeof(i64));
    memcpy(f[F_EV_FREE], s->ev_free, (size_t)s->ev_free_len * sizeof(i64));
}
""".replace(
    "@ENGINE_FIELDS@",
    ", ".join(f"F_{name.upper()}" for name in ENGINE_FIELDS)).replace(
    "@ENGINE_REGS@",
    ", ".join(f"R_{name.upper()}" for name in ENGINE_REGS))

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-fast-math"]

_LOADED = False
_LIB: Optional[ctypes.CDLL] = None
_ERR: Optional[str] = None
_BUILD_SECONDS = 0.0
_FROM_CACHE = False


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def compiler_available() -> bool:
    """A C compiler exists on PATH (cheap; does not build)."""
    return _find_compiler() is not None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CC_CACHE")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "_build"


def _ensure_built(cc: str) -> Path:
    """Compile (or reuse) the shared library; returns its path."""
    global _BUILD_SECONDS, _FROM_CACHE
    digest = hashlib.sha256(
        (_SOURCE + "\0" + cc + "\0" + " ".join(_CFLAGS))
        .encode()).hexdigest()[:16]
    name = f"repro_cext_{digest}.so"
    try:
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        probe = cache / f".probe-{os.getpid()}"
        probe.write_text("")
        probe.unlink()
    except OSError:
        cache = Path(tempfile.mkdtemp(prefix="repro-cext-"))
    target = cache / name
    if target.exists():
        _FROM_CACHE = True
        return target
    src = cache / f"repro_cext_{digest}.c"
    src.write_text(_SOURCE)
    tmp = cache / f".{name}.{os.getpid()}.tmp"
    t0 = _time.perf_counter()
    proc = subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(src),
                           "-lm"], capture_output=True, text=True)
    _BUILD_SECONDS = _time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"{cc} failed ({proc.returncode}): "
            f"{(proc.stderr or proc.stdout).strip()[:500]}")
    os.replace(tmp, target)  # atomic under concurrent builders
    return target


_I = ctypes.c_longlong
_D = ctypes.c_double
_P = ctypes.c_void_p


def _configure(lib: ctypes.CDLL) -> None:
    lib.fs_queue_batch.argtypes = [_P, _I, _I, _D, _P]
    lib.fs_queue_batch.restype = None
    lib.fs_loads_batch.argtypes = [_P, _I, _I, _D, _P]
    lib.fs_loads_batch.restype = None
    lib.ind_congestion_batch.argtypes = [_P, _I, _I, _P]
    lib.ind_congestion_batch.restype = None
    lib.eng_enter.argtypes = [_P, _D, _D, _P]
    lib.eng_enter.restype = _P
    for fn in ("fifo_run", "general_run", "eng_need_stream"):
        getattr(lib, fn).argtypes = [_P]
        getattr(lib, fn).restype = _I
    lib.eng_regs.argtypes = [_P, _P, _P]
    lib.eng_regs.restype = None
    lib.eng_extract.argtypes = [_P, _P]
    lib.eng_extract.restype = None
    lib.eng_release.argtypes = [_P]
    lib.eng_release.restype = None


def load() -> Optional[ctypes.CDLL]:
    """The compiled library, building it on first call; None when no
    compiler exists or the build failed (see :func:`load_error`)."""
    global _LOADED, _LIB, _ERR
    if _LOADED:
        return _LIB
    _LOADED = True
    cc = _find_compiler()
    if cc is None:
        _ERR = "no C compiler (cc/gcc/clang) on PATH"
        return None
    try:
        lib = ctypes.CDLL(str(_ensure_built(cc)))
        _configure(lib)
        _LIB = lib
    except Exception as exc:  # loud via load_error(), never raises
        _ERR = f"{type(exc).__name__}: {exc}"
    return _LIB


def load_error() -> Optional[str]:
    """Why :func:`load` returned None (None when it succeeded)."""
    return _ERR


def build_seconds() -> float:
    """Wall time of the actual C compilation (0.0 on a cache hit)."""
    return _BUILD_SECONDS


def built_from_cache() -> bool:
    return _FROM_CACHE


# ------------------------------------------------------------------
# Fair Share kernel wrappers (validated, numpy in / numpy out)
# ------------------------------------------------------------------
def fs_queue_batch(rates: np.ndarray, mu: float,
                   out: np.ndarray) -> Optional[np.ndarray]:
    lib = load()
    if lib is None:
        return None
    r = np.ascontiguousarray(rates, dtype=np.float64)
    m, n = r.shape
    lib.fs_queue_batch(r.ctypes.data, m, n, float(mu),
                       out.ctypes.data)
    return out


def fs_loads_batch(sorted_rates: np.ndarray, mu: float,
                   out: np.ndarray) -> Optional[np.ndarray]:
    lib = load()
    if lib is None:
        return None
    r = np.ascontiguousarray(sorted_rates, dtype=np.float64)
    m, n = r.shape
    lib.fs_loads_batch(r.ctypes.data, m, n, float(mu),
                       out.ctypes.data)
    return out


def ind_congestion_batch(queues: np.ndarray,
                         out: np.ndarray) -> Optional[np.ndarray]:
    lib = load()
    if lib is None:
        return None
    q = np.ascontiguousarray(queues, dtype=np.float64)
    m, n = q.shape
    lib.ind_congestion_batch(q.ctypes.data, m, n, out.ctypes.data)
    return out
