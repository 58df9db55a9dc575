"""One benchmark process: set up, run units of work, print one JSON line.

``run.py`` starts this script once per set-up sample and once for the
measured work, one process at a time.  Modes:

* ``warm``  — import ``repro`` and load the compiled tier (building the
  C extension on a fresh checkout); nothing is measured.
* ``setup`` — stop at the first timed call and report the set-up phases.
* ``work``  — untraced units of work for ``--seconds``.
* ``trace`` — untraced units for the first half of ``--seconds``, then
  traced units (layer wrappers installed) for the second half.

Set-up is everything before the first timed call: importing ``repro``
(and this benchmark's workload module), ``backends.compiled.warmup()``
plus activating the ``compiled`` backend, and building the workload's
systems and inputs.  ``first_call`` is a ``time.monotonic()`` reading,
which on Linux is one clock for all processes, so the parent turns it
into process-start-to-first-call time.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")

#: Layers whose entries per step, self time and share the traced run
#: reports (``rules`` reports no per-step count).
STEP_LAYERS = ("queue_law", "signals", "delays", "validate", "compiled")
SIM_KINDS = ("fifo", "fair-share", "fixed-priority")


def fingerprint(tier: str) -> dict:
    """Host and toolchain facts stamped on every result."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled_tier": tier,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


class HostProbe:
    """Times three fixed micro-loops that touch no ``repro`` code.

    On a shared 2-vCPU VM (see RESULTS.md) the host's speed drifted by
    20-50% in phases of seconds to a minute, which no amount of work
    inside one run averages out.  The probe runs before the first unit
    and after every unit; a unit's time divided by the probe time around
    it cancels most of that drift.  Calling it returns the geometric
    mean of the three loop times (about 12 ms each on that VM): Python
    integer arithmetic, Python calls into small numpy operations (the
    per-call overhead of the scalar paths) and row sorts with prefix
    sums (the vectorised paths).  Its arrays take 130 kB, so it does
    not move ``peak_rss_mb``.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.random((64, 256))
        self.small = rng.random(4)

    def _ints(self):
        s = 0
        for i in range(120000):
            s += i * i

    def _calls(self):
        acc = 0.0
        for _ in range(2400):
            v = np.asarray(self.small, dtype=float)
            if np.all(np.isfinite(v)):
                acc += float(np.max(v))

    def _sorts(self):
        for _ in range(100):
            np.cumsum(np.sort(self.rows, axis=1), axis=1)

    def __call__(self) -> float:
        log_sum = 0.0
        for loop in (self._ints, self._calls, self._sorts):
            t0 = time.perf_counter()
            loop()
            log_sum += math.log(time.perf_counter() - t0)
        return math.exp(log_sum / 3)


def run_units(workload, deadline: float, min_units: int, probe,
              probe_before: float, rec=None, reference=None):
    """Run units until ``deadline`` (monotonic) would be overrun.

    Returns ``(units, reference_digest, last_probe)``; each unit is a
    dict with its wall time, work count, the host probe time around it
    (geometric mean of the probes just before and just after it), its
    checks and, when traced, its layer numbers.  Every unit's digest is
    checked against the first one of the process (``reference``), so
    the traced units also prove the wrappers are transparent.
    """
    units = []
    root = rec.intern("bench.unit", "bench") if rec is not None else None
    while True:
        if rec is not None:
            lo, before = len(rec), dict(rec.counts)
            idx = rec.open(root)
        t0 = time.perf_counter()
        out = workload.run(rec)
        wall = time.perf_counter() - t0
        unit = {"wall": wall, "work": workload.work(out)}
        if rec is not None:
            rec.close(idx)
            unit["layers"] = layer_metrics(
                rec, lo, len(rec), before, wall, workload)
        digest = workload.digest(out)
        if reference is None:
            reference = digest
        checks = workload.checks(out)
        if len(units) or rec is not None:
            checks.append(("digest_matches_first_unit", digest == reference))
        unit["checks"] = checks
        probe_after = probe()
        unit["probe"] = math.sqrt(probe_before * probe_after)
        probe_before = probe_after
        units.append(unit)
        if len(units) >= min_units and time.monotonic() + wall > deadline:
            return units, reference, probe_before


def layer_metrics(rec, lo: int, hi: int, before: dict, wall: float,
                  workload) -> dict:
    """Per-layer numbers of one traced unit (spans ``lo:hi``)."""
    counts = {k: v - before.get(k, 0) for k, v in rec.counts.items()}
    summary = rec.summarize(lo, hi)
    own = summary["layer_self_s"]
    steps = counts.get("dynamics.step", 0) or counts.get("sim.set_rates", 0)
    m = {}
    for layer in STEP_LAYERS:
        m[f"{layer}.calls_per_step"] = (counts.get(layer, 0) / steps
                                        if steps else 0.0)
    for layer in STEP_LAYERS + ("rules",):
        m[f"{layer}.self_s"] = own[layer]
        m[f"{layer}.share"] = own[layer] / wall
    m["dynamics.step_self_s"] = own["dynamics.step"]
    m["dynamics.driver_self_s"] = own["dynamics.driver"]
    capacity = counts.get("row_capacity", 0)
    m["dynamics.live_row_frac"] = (counts.get("rows", 0) / capacity
                                   if capacity else 0.0)
    m["sim.events"] = float(counts.get("sim.events", 0))
    for name in ("run_for", "set_rates"):
        m[f"sim.{name}.self_s"] = summary["name_self_s"].get(
            f"NetworkSimulation.{name}", 0.0)
    for kind in SIM_KINDS:
        seconds = counts.get(f"sim.{kind}.seconds", 0.0)
        m[f"sim.{kind}.events_per_s"] = (
            counts.get(f"sim.{kind}.events", 0) / seconds
            if seconds else 0.0)
    for phase in ("simulate", "signals", "rules"):
        m[f"sim.closed_loop.{phase}_s"] = counts.get(
            f"sim.closed_loop.{phase}_s", 0.0)
    # A layer the workload runs but no wrapper saw means a broken
    # wrapper (or a caller that looks the function up somewhere else).
    m["_missing_layers"] = [layer for layer in workload.LAYERS_USED
                            if counts.get(layer, 0) == 0]
    m["_steps"] = steps
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True,
                        choices=("warm", "setup", "work", "trace"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401
    import workloads
    t_import = time.monotonic()
    from repro import backends
    from repro.backends import compiled
    tier = compiled.warmup()
    backends.use("compiled")
    t_compiled = time.monotonic()
    if args.mode == "warm":
        print(json.dumps({"tier": tier}))
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    t_built = time.monotonic()
    result = {"setup": {"first_call": t_built,
                        "import_s": t_import - T_START,
                        "compiled_load_s": t_compiled - t_import,
                        "build_s": t_built - t_compiled},
              "fingerprint": fingerprint(tier)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    probe = HostProbe()
    first_probe = probe()
    if args.mode == "work":
        units, _, _ = run_units(workload, t_built + args.seconds, 2,
                                probe, first_probe)
        traced = []
    else:
        import tracing
        units, reference, last_probe = run_units(
            workload, t_built + args.seconds / 2, 1, probe, first_probe)
        rec = tracing.SpanRecorder()
        tracing.install(rec)
        try:
            traced, _, _ = run_units(workload, t_built + args.seconds, 1,
                                     probe, last_probe, rec=rec,
                                     reference=reference)
        finally:
            rec.restore()
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"),
                  {"workload": args.workload, "seed": args.seed,
                   "fingerprint": result["fingerprint"]})
    result["units"] = [{"wall": u["wall"], "work": u["work"],
                        "probe": u["probe"]} for u in units]
    checks = [c for u in units + traced for c in u["checks"]]
    for u in traced:
        checks += [(f"wrapper_counts_{layer}",
                    layer not in u["layers"]["_missing_layers"])
                   for layer in workload.LAYERS_USED
                   if layer != "compiled" or tier != "python"]
    result["checks"] = {"attempted": len(checks),
                        "failed": [name for name, ok in checks if not ok]}
    if traced:
        result["traced_units"] = [{"wall": u["wall"], "probe": u["probe"]}
                                  for u in traced]
        keys = [k for k in traced[0]["layers"] if not k.startswith("_")]
        result["layers"] = {k: statistics.median(u["layers"][k]
                                                 for u in traced)
                            for k in keys}
        result["steps_per_unit"] = [u["layers"]["_steps"] for u in traced]
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
