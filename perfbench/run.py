"""Benchmark of the fluid flow-control model and its packet simulator.

    python3 perfbench/run.py --workload fs_ensemble --seed 1 --seconds 25 \\
        --trace 0

Run from the repository root.  Workloads (see ``workloads.py`` and
``RESULTS.md``): ``fs_ensemble``, ``scalar_paper``, ``fifo_tcp_ensemble``,
``packet_validation``, or ``all`` to run each in turn.

One run is a sequence of child processes, never two at a time:

1. a warm-up child imports ``repro`` and loads the compiled tier, so a
   fresh checkout builds its C extension outside every measurement;
2. two set-up children stop at their first timed call;
3. the work child sets up the same way, then repeats the workload's
   fixed unit of work for ``--seconds`` (``--trace 1``: untraced for the
   first half, traced for the second).

``setup_s`` is the median over the three set-ups, from the parent's
spawn to the child's first timed call.  ``wall_s`` and ``work_per_s``
are medians over the units, ``peak_rss_mb`` is the work child's peak
resident set.  Times are calibrated to a reference host speed with the
host probe the work child runs between units (``worker.HostProbe``;
see ``RESULTS.md``); the raw medians are printed too.  With
``--trace 1`` the metrics are the per-layer ones, in raw seconds.

Every unit's outputs are checked (see ``workloads.py``); the last line
printed is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit code is 1 when any check failed.  Metric
names and units come from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
WORKLOADS = ("fs_ensemble", "scalar_paper", "fifo_tcp_ensemble",
             "packet_validation")
SETUP_SAMPLES = 3
#: Median ``HostProbe`` time (worker.py) on the host RESULTS.md was
#: measured on.  Times are reported at that host speed: a unit's raw
#: seconds x REFERENCE_PROBE_S / (the probe time around that unit).
REFERENCE_PROBE_S = 0.0117
#: Every run must end within this many seconds of its warm-up.
RUN_LIMIT_S = 170.0
#: A fresh checkout's first warm-up builds the C extension.
BUILD_LIMIT_S = 600.0


class BenchError(Exception):
    """A child failed or the checkout cannot run the benchmark."""


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def child_env() -> dict:
    """One thread per process, fixed hashing, scratch files in _out."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    return env


def run_child(args: list, env: dict, timeout: float) -> tuple:
    """Run worker.py with ``args``; returns ``(spawn_time, result)``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s")\
            from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing")
    return spawned, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of one workload; returns the child results, aggregated."""
    env = child_env()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]
    run_child(["--mode", "warm"], env, BUILD_LIMIT_S)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        spawned, res = run_child(["--mode", "setup"] + common, env,
                                 deadline - time.monotonic())
        setups.append((spawned, res["setup"]))
    mode = "trace" if trace else "work"
    spawned, work = run_child(
        ["--mode", mode, "--seconds", str(seconds)] + common, env,
        deadline - time.monotonic())
    setups.append((spawned, work["setup"]))
    work["setup_s"] = [s["first_call"] - t for t, s in setups]
    for phase in ("import_s", "compiled_load_s", "build_s"):
        work[f"setup.{phase}"] = statistics.median(s[phase]
                                                   for _, s in setups)
    return work


def raw_metrics(work: dict) -> dict:
    """Medians of the run in plain seconds, before host calibration."""
    units = work["units"]
    return {
        "setup_s": statistics.median(work["setup_s"]),
        "wall_s": statistics.median(u["wall"] for u in units),
        "work_per_s": statistics.median(u["work"] / u["wall"]
                                        for u in units),
        "probe_s": statistics.median(u["probe"] for u in units),
    }


def metrics_of(work: dict, trace: bool, name: str) -> dict:
    """The printed metrics (values only) of one aggregated run.

    End-to-end times are calibrated unit by unit with the probe time
    around the unit; ``setup_s``, whose processes run no probe, with the
    run's median probe time.
    """
    units = work["units"]
    raw = raw_metrics(work)
    if not trace:
        return {
            "setup_s": raw["setup_s"] * REFERENCE_PROBE_S
            / raw["probe_s"],
            "wall_s": statistics.median(
                u["wall"] * REFERENCE_PROBE_S / u["probe"] for u in units),
            "work_per_s": statistics.median(
                u["work"] / u["wall"] * u["probe"] / REFERENCE_PROBE_S
                for u in units),
            "peak_rss_mb": work["peak_rss_mb"],
        }
    rate = raw["work_per_s"]
    m = dict(work["layers"])
    for phase in ("import_s", "compiled_load_s", "build_s"):
        m[f"setup.{phase}"] = work[f"setup.{phase}"]
    untraced = statistics.median(u["wall"] / u["probe"] for u in units)
    traced = statistics.median(u["wall"] / u["probe"]
                               for u in work["traced_units"])
    m["trace.overhead_frac"] = (traced - untraced) / untraced
    packet = name == "packet_validation"
    m["cell_steps_per_s"] = 0.0 if packet else rate
    m["events_per_s"] = rate if packet else 0.0
    m["fail_frac"] = (len(work["checks"]["failed"])
                      / work["checks"]["attempted"])
    return m


def report(name: str, seed: int, trace: bool, work: dict, metrics: dict,
           units: dict) -> None:
    """Human-readable block: host, checks, every metric with its unit."""
    fp = work["fingerprint"]
    print(f"== {name} seed={seed} trace={int(trace)} "
          f"nproc={fp['nproc']} python={fp['python']} "
          f"numpy={fp['numpy']} tier={fp['compiled_tier']}")
    walls = sorted(u["wall"] for u in work["units"])
    if len(walls) > 10:
        # The highest percentile with at least ten units beyond it.
        q = 1.0 - 10.0 / len(walls)
        print(f"   unit wall p{100 * q:.0f} = "
              f"{walls[int(q * len(walls)) - 1]:.4g} s")
    print(f"   units={len(work['units'])}"
          + (f" traced_units={len(work['traced_units'])}"
             f" steps/unit={work['steps_per_unit']}" if trace else "")
          + f" checks={work['checks']['attempted']}"
          f" failed={len(work['checks']['failed'])}")
    for failed in work["checks"]["failed"][:10]:
        print(f"   FAILED {failed}")
    rows = [(key, value, units[key]) for key, value in metrics.items()]
    if not trace:
        raw = raw_metrics(work)
        rows += [(f"raw {key}", raw[key], unit) for key, unit in
                 (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"),
                  ("probe_s", "s"))]
        # Per-workload names for two numbers the JSON line carries as
        # work_per_s and failed/attempted: an end-to-end metric must be
        # non-zero on every workload, and these are not.
        rate = ("events_per_s" if name == "packet_validation"
                else "cell_steps_per_s")
        rows += [(rate, metrics["work_per_s"], "1/s"),
                 ("fail_frac", len(work["checks"]["failed"])
                  / work["checks"]["attempted"], "ratio")]
    for key, value, unit in rows:
        print(f"   {key:<34} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged, attempted, failed = {}, 0, 0
    try:
        for name in names:
            work = run_workload(name, args.seed, args.seconds, trace)
            metrics = metrics_of(work, trace, name)
            if set(metrics) != set(declared):
                raise BenchError(
                    f"metrics {sorted(set(metrics) ^ set(declared))} are "
                    "computed but not declared in BENCHMARK.json, or "
                    "declared but not computed")
            metrics = {k: metrics[k] for k in declared}
            report(name, args.seed, trace, work, metrics, declared)
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(
                    OUT_DIR, f"result-{name}-trace{int(trace)}.json"),
                    "w") as fh:
                json.dump({"workload": name, "seed": args.seed,
                           "seconds": args.seconds, "metrics": metrics,
                           "run": work}, fh, indent=1)
            attempted += work["checks"]["attempted"]
            failed += len(work["checks"]["failed"])
            prefix = f"{name}." if len(names) > 1 else ""
            merged.update({prefix + k: {"value": v, "unit": declared[k]}
                           for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
