"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate the registered paper artifacts (T1, F1..F14);
* ``run <id> [--csv PATH] [--json-dir DIR]`` — run one experiment with
  default parameters, print its table, optionally dump the rows as CSV
  and/or a schema-valid JSON run-record artifact (provenance +
  per-iteration engine observables);
* ``all [--csv-dir DIR] [--json-dir DIR]`` — run everything, print a
  summary line per artifact, exit nonzero if any shape check fails;
* ``table1 [--rates r1,r2,...] [--mu MU]`` — regenerate Table 1 for
  custom rates;
* ``selftest`` — fast smoke check of the batch trajectory engine and
  the fault/resilience layer (equivalence against the scalar paths, a
  tiny ensemble, a faulty run, a checkpoint/resume round-trip); exits
  nonzero when any check fails;
* ``fuzz [--seed S] [--count K] [--shrink] [--json-dir D]`` — generate
  K deterministic random scenarios and cross-check every engine and
  theorem oracle on each (see :mod:`repro.scenarios`); exits nonzero
  on any oracle violation and prints a minimal repro spec when
  ``--shrink`` is given;
* ``scale [--n N] [--members M] [--block-size B] [--history P]
  [--steps K] [--discipline D]`` — run one blocked ensemble at scale
  (default ``N=100000``) and print the projected buffer sizes,
  outcome counts, and member-steps per second;
* ``chaos [--quick] [--rounds R] [--seed S] [--workdir DIR]`` — the
  structural chaos layer end to end: a scheduled
  degradation/blackhole run with its recorded transitions, the
  Theorem 5 robustness-floor monitor on Fair Share vs FIFO against a
  blaster adversary, and the kill-anywhere harness (SIGKILL a sweep
  worker at fuzzed crashpoints, prove the resumed results
  bit-identical); exits nonzero when any leg fails.

``selftest``, ``fuzz`` and ``scale`` also take ``--backend NAME`` (or
honour the ``REPRO_BACKEND`` environment variable) to pick the kernel
backend for the run; unknown or unavailable names fail loudly with the
list of backends (see :mod:`repro.backends`).

``run`` also takes ``--faults SPEC`` (inject a seeded fault plan, e.g.
``loss=0.3,delay=2,seed=7`` — see :func:`repro.faults.parse_fault_spec`)
and ``--resume DIR`` (checkpoint the experiment's parameter sweep in
``DIR`` and resume it from there after an interruption); both only work
with experiments whose harness accepts the corresponding keyword
(``--faults``: X6; ``--resume``: X6 and X7).

:func:`main` raises :class:`~repro.errors.ReproError` subclasses on
user mistakes — the process entry point :func:`console_main` turns
those into a one-line message on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .errors import CLIError, ReproError
from .experiments import (REGISTRY, format_summary, format_table, run,
                          run_all, run_table1, to_csv, to_json)
from .faults import parse_fault_spec
from .observability import collect

__all__ = ["main", "console_main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Shenker, 'A Theoretical Analysis "
                    "of Feedback Flow Control' (SIGCOMM 1990)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment_id",
                       help="artifact id, e.g. T1 or F5")
    run_p.add_argument("--csv", type=Path, default=None,
                       help="also write the rows to this CSV file")
    run_p.add_argument("--json-dir", type=Path, default=None,
                       help="write a JSON run-record artifact "
                            "(provenance + engine observables) here")
    run_p.add_argument("--faults", default=None, metavar="SPEC",
                       help="inject a seeded fault plan, e.g. "
                            "'loss=0.3,delay=2,seed=7' (experiments "
                            "that accept a fault plan only)")
    run_p.add_argument("--resume", type=Path, default=None,
                       metavar="DIR",
                       help="checkpoint the experiment's sweep in DIR "
                            "and resume from it if interrupted "
                            "(experiments that sweep only)")

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--csv-dir", type=Path, default=None,
                       help="write one CSV per experiment here")
    all_p.add_argument("--json-dir", type=Path, default=None,
                       help="write one JSON run-record artifact per "
                            "experiment here")

    t1_p = sub.add_parser("table1", help="regenerate Table 1")
    t1_p.add_argument("--rates", default="0.1,0.2,0.3,0.4",
                      help="comma-separated sending rates")
    t1_p.add_argument("--mu", type=float, default=1.5,
                      help="gateway service rate")

    backend_help = ("kernel backend (see repro.backends): numpy, "
                    "compiled, or cext; default: $REPRO_BACKEND or "
                    "numpy")

    selftest_p = sub.add_parser(
        "selftest", help="fast batch-engine smoke check (< 30 s)")
    selftest_p.add_argument("--quick", action="store_true",
                            help="smaller ensembles (CI-friendly)")
    selftest_p.add_argument("--backend", default=None, metavar="NAME",
                            help=backend_help)
    selftest_p.add_argument("--force-fail", action="store_true",
                            help=argparse.SUPPRESS)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="fuzz random scenarios against the differential and "
             "theorem oracles")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="stream seed; the same (seed, count) "
                             "always fuzzes the same scenarios")
    fuzz_p.add_argument("--count", type=int, default=25,
                        help="number of scenarios to generate")
    fuzz_p.add_argument("--shrink", action="store_true",
                        help="minimise every failing scenario to a "
                             "small reproducer before reporting")
    fuzz_p.add_argument("--json-dir", type=Path, default=None,
                        help="write one artifact per scenario here, "
                             "plus a *.repro.json spec per failure")
    fuzz_p.add_argument("--oracle", action="append", default=None,
                        metavar="NAME", dest="oracles",
                        help="restrict to one oracle (repeatable); "
                             "default: the full catalogue")
    fuzz_p.add_argument("--max-shrink-iters", type=int, default=None,
                        help="cap on shrink-search oracle evaluations "
                             "(clamped to a safe range)")
    fuzz_p.add_argument("--backend", default=None, metavar="NAME",
                        help=backend_help)

    scale_p = sub.add_parser(
        "scale",
        help="run a large blocked ensemble and report memory/throughput")
    scale_p.add_argument("--n", type=int, default=100_000,
                         help="connections through the gateway "
                              "(default 100000)")
    scale_p.add_argument("--members", type=int, default=64,
                         help="ensemble members (default 64)")
    scale_p.add_argument("--block-size", type=int, default=8,
                         help="members stepped per block (default 8)")
    scale_p.add_argument("--history", default="none",
                         help="retention policy: full, tail, or none "
                              "(default none)")
    scale_p.add_argument("--steps", type=int, default=50,
                         help="step budget per member (default 50)")
    scale_p.add_argument("--discipline", default="fair-share",
                         help="fair-share or fifo (default fair-share)")
    scale_p.add_argument("--backend", default=None, metavar="NAME",
                         help=backend_help)

    chaos_p = sub.add_parser(
        "chaos",
        help="structural faults, the adversary floor monitor, and the "
             "kill-anywhere recovery harness")
    chaos_p.add_argument("--quick", action="store_true",
                         help="fewer kill rounds (CI-friendly)")
    chaos_p.add_argument("--rounds", type=int, default=None,
                         help="kill-anywhere rounds (default 6, "
                              "--quick 2)")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="seed for the crashpoint fuzzing")
    chaos_p.add_argument("--workdir", type=Path, default=None,
                         help="directory for the victim sweeps "
                              "(default: a temporary directory)")
    return parser


def _cmd_list() -> int:
    for eid in sorted(REGISTRY):
        exp = REGISTRY[eid]
        print(f"{eid:>4}  {exp.paper_artifact}")
    return 0


def _cmd_run(experiment_id: str, csv: Optional[Path],
             json_dir: Optional[Path],
             faults_spec: Optional[str] = None,
             resume: Optional[Path] = None) -> int:
    kwargs = {}
    described = "defaults"
    if faults_spec is not None:
        kwargs["faults"] = parse_fault_spec(faults_spec)
        described = f"faults={faults_spec}"
    if resume is not None:
        kwargs["checkpoint_dir"] = resume

    def run_it():
        try:
            return run(experiment_id, **kwargs)
        except TypeError as exc:
            if "unexpected keyword argument" in str(exc) and kwargs:
                raise CLIError(
                    f"experiment {experiment_id} does not accept "
                    f"{sorted(kwargs)} — --faults/--resume only work "
                    f"with harnesses that take a fault plan or a "
                    f"checkpointed sweep (e.g. X6)") from exc
            raise

    if json_dir is not None:
        with collect() as session:
            result = run_it()
        path = to_json(result, json_dir, session=session,
                       config={"experiment_id": experiment_id,
                               "parameters": described})
        print(format_table(result))
        print(f"\nrun record written to {path}")
    else:
        result = run_it()
        print(format_table(result))
    if csv is not None:
        to_csv(result, csv)
        print(f"\nrows written to {csv}")
    return 0 if result.all_checks_pass else 1


def _cmd_all(csv_dir: Optional[Path], json_dir: Optional[Path]) -> int:
    if json_dir is not None:
        results = []
        for eid in sorted(REGISTRY):
            with collect() as session:
                result = run(eid)
            to_json(result, json_dir, session=session,
                    config={"experiment_id": eid,
                            "parameters": "defaults"})
            results.append(result)
        print(format_summary(results))
        print(f"\nrun records written to {json_dir}")
    else:
        results = run_all()
        print(format_summary(results))
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            to_csv(result, csv_dir / f"{result.experiment_id}.csv")
        print(f"\nCSV files written to {csv_dir}")
    return 0 if all(r.all_checks_pass for r in results) else 1


def _cmd_table1(rates: str, mu: float) -> int:
    values = [float(tok) for tok in rates.split(",") if tok.strip()]
    result = run_table1(rates=values, mu=mu)
    print(format_table(result))
    return 0 if result.all_checks_pass else 1


def _cmd_fuzz(seed: int, count: int, shrink: bool,
              json_dir: Optional[Path],
              oracles: Optional[List[str]],
              max_shrink_iters: Optional[int]) -> int:
    from .scenarios import fuzz as run_fuzz
    from .scenarios import oracle_names
    if oracles:
        unknown = sorted(set(oracles) - set(oracle_names()))
        if unknown:
            raise CLIError(
                f"unknown oracle(s) {unknown} — known: "
                f"{oracle_names()}")
    report = run_fuzz(seed, count, shrink_failures=shrink,
                      json_dir=json_dir, oracles=oracles,
                      max_shrink_iters=max_shrink_iters, progress=print)
    print()
    print("\n".join(report.summary_lines()))
    if json_dir is not None:
        print(f"\n{len(report.artifacts)} artifact(s) written to "
              f"{json_dir}")
    for outcome in report.failures:
        print(f"\nreproduce {outcome.spec.name} with:")
        print(outcome.repro_spec.to_json())
    return 0 if report.passed else 1


def _cmd_scale(n: int, members: int, block_size: int, history: str,
               steps: int, discipline: str) -> int:
    """Run one blocked ensemble at scale and print what it cost.

    Flag values are validated here with :class:`~repro.errors.CLIError`
    (the CLI contract); ``block_size`` is deliberately passed through
    so the engine's own :class:`~repro.errors.SweepError` validation
    (reject ``<= 0``, warn when it exceeds M) stays the single source
    of truth for that contract.
    """
    import time as _time

    import numpy as np

    from .core.dynamics import (HISTORY_POLICIES, FlowControlSystem,
                                ensemble_buffer_bytes)
    from .core.fairshare import FairShare
    from .core.fifo import Fifo
    from .core.ratecontrol import TargetRule
    from .core.signals import FeedbackStyle, LinearSaturating
    from .core.topology import single_gateway

    if n < 1:
        raise CLIError(f"--n must be >= 1, got {n}")
    if members < 1:
        raise CLIError(f"--members must be >= 1, got {members}")
    if steps < 1:
        raise CLIError(f"--steps must be >= 1, got {steps}")
    if history not in HISTORY_POLICIES:
        raise CLIError(f"--history must be one of "
                       f"{', '.join(HISTORY_POLICIES)}, got {history!r}")
    disciplines = {"fair-share": FairShare, "fifo": Fifo}
    if discipline not in disciplines:
        raise CLIError(f"--discipline must be one of "
                       f"{', '.join(sorted(disciplines))}, "
                       f"got {discipline!r}")

    system = FlowControlSystem(
        single_gateway(n, mu=float(n)), disciplines[discipline](),
        LinearSaturating(), TargetRule(eta=0.05, beta=0.4),
        style=FeedbackStyle.INDIVIDUAL)
    rng = np.random.default_rng(7)
    initials = rng.uniform(0.2, 0.8, size=(members, n))
    projected = ensemble_buffer_bytes(members, n, max_steps=steps,
                                      history=history)
    one_shot = ensemble_buffer_bytes(members, n, max_steps=steps,
                                     history="full")
    print(f"N={n} connections, M={members} members, "
          f"block_size={block_size}, history={history!r}, "
          f"{steps}-step budget ({discipline})")
    print(f"projected buffers: {projected / 2**20:.1f} MB "
          f"({history!r}) vs {one_shot / 2**20:.1f} MB (full history)")
    t0 = _time.perf_counter()
    result = system.run_ensemble(initials, max_steps=steps, tol=1e-10,
                                 history=history, block_size=block_size)
    elapsed = _time.perf_counter() - t0
    counts = {}
    for outcome in result.outcomes:
        counts[outcome.value] = counts.get(outcome.value, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    total_steps = int(np.sum(result.steps))
    print(f"outcomes: {summary}")
    print(f"{total_steps} member-steps in {elapsed:.2f}s "
          f"({total_steps / elapsed:.0f} member-steps/s)")
    return 0


def _cmd_chaos(quick: bool, rounds: Optional[int], seed: int,
               workdir: Optional[Path]) -> int:
    """The chaos layer end to end; see the module docstring."""
    import tempfile

    import numpy as np

    from .chaos import (BlasterRule, CapacityDegradation,
                        GatewayBlackhole, StructuralFaultPlan,
                        check_robustness_floor)
    from .chaos.harness import kill_anywhere
    from .core.dynamics import FlowControlSystem
    from .core.fairshare import FairShare
    from .core.fifo import Fifo
    from .core.ratecontrol import ProportionalTargetRule
    from .core.signals import FeedbackStyle, LinearSaturating
    from .core.topology import single_gateway

    if rounds is None:
        rounds = 2 if quick else 6
    if rounds < 1:
        raise CLIError(f"--rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise CLIError(f"--seed must be >= 0, got {seed}")
    ok = True

    # 1. Structural faults: a degradation plus a blackhole window on a
    # shared gateway, with the recorded transition log.
    n = 4
    honest = ProportionalTargetRule(eta=0.5, beta=0.3)
    plan = StructuralFaultPlan(injectors=(
        CapacityDegradation("g0", factor=0.5, start=30, duration=30),
        GatewayBlackhole("g0", start=70, duration=20),
    ), seed=seed)
    system = FlowControlSystem(
        single_gateway(n, mu=1.0), FairShare(), LinearSaturating(),
        honest, style=FeedbackStyle.INDIVIDUAL)
    traj = system.run(np.full(n, 0.1), max_steps=800, tol=1e-10,
                      structural=plan)
    print(f"structural: {plan.describe()}")
    for event in traj.structural_events or []:
        print(f"  step {event.step:>4}  {event.gateway}  "
              f"{event.kind} (factor {event.detail:g})")
    print(f"  outcome after damage and restore: {traj.outcome.value}")

    # 2. The Theorem 5 floor monitor: honest connections behind Fair
    # Share keep their floors against a blaster; FIFO lets them starve.
    print("\nrobustness floor vs one blaster adversary "
          f"({n - 1} honest + 1 blaster):")
    rules = [honest] * (n - 1) + [BlasterRule(increment=0.2, cap=5.0)]
    for disc_name, disc, expect_hold in (
            ("fair-share", FairShare(), True), ("fifo", Fifo(), False)):
        sys_d = FlowControlSystem(
            single_gateway(n, mu=1.0), disc, LinearSaturating(), rules,
            style=FeedbackStyle.INDIVIDUAL)
        final = sys_d.run(np.full(n, 0.1), max_steps=4000,
                          tol=1e-11).final
        check = check_robustness_floor(
            sys_d.network, LinearSaturating(), rules, final)
        verdict = ("as Theorem 5 predicts" if check.holds == expect_hold
                   else "UNEXPECTED")
        ok &= check.holds == expect_hold
        print(f"  {disc_name:>10}: {check.describe()} — {verdict}")

    # 3. Kill-anywhere: SIGKILL a real sweep worker at fuzzed
    # crashpoints, resume, demand bit-identical results.
    print(f"\nkill-anywhere: {rounds} fuzzed SIGKILL rounds "
          f"(seed {seed}):")
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        reports = kill_anywhere(workdir, rounds=rounds, seed=seed)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            reports = kill_anywhere(tmp, rounds=rounds, seed=seed)
    for report in reports:
        print(f"  {report.describe()}")
    kills = sum(r.killed for r in reports)
    ok &= all(r.ok for r in reports)
    print(f"  {kills}/{len(reports)} rounds killed the worker; "
          f"recovery {'bit-identical in every round' if ok else 'FAILED'}")

    print(f"\nchaos: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) is not None:
        # Resolve loudly before the command runs: an unknown or
        # unavailable backend is a CLIError listing the alternatives,
        # never a silent fall-through to numpy.
        from . import backends
        backends.use(backends.resolve(args.backend))
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment_id, args.csv, args.json_dir,
                        args.faults, args.resume)
    if args.command == "all":
        return _cmd_all(args.csv_dir, args.json_dir)
    if args.command == "table1":
        return _cmd_table1(args.rates, args.mu)
    if args.command == "selftest":
        from .selftest import main as selftest_main
        return selftest_main(quick=args.quick,
                             force_fail=args.force_fail)
    if args.command == "fuzz":
        return _cmd_fuzz(args.seed, args.count, args.shrink,
                         args.json_dir, args.oracles,
                         args.max_shrink_iters)
    if args.command == "scale":
        return _cmd_scale(args.n, args.members, args.block_size,
                          args.history, args.steps, args.discipline)
    if args.command == "chaos":
        return _cmd_chaos(args.quick, args.rounds, args.seed,
                          args.workdir)
    raise CLIError(f"unhandled command {args.command!r}")


def console_main(argv: Optional[List[str]] = None) -> int:
    """Process entry point: :func:`main` with clean error reporting.

    Library callers and tests use :func:`main` (and get the raised
    :class:`~repro.errors.ReproError` to inspect); the ``python -m
    repro`` process boundary turns any ReproError into a single line on
    stderr and exit code 2 — no traceback for user mistakes.
    """
    try:
        return main(argv)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
