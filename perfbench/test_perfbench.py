"""Tests of the benchmark itself (not of ``repro``).

    python3 -m pytest perfbench -q

Covers the self-time arithmetic, wrapper transparency (traced and
untraced units give the same output digest, and restore() puts every
attribute back), and the printed metric names against BENCHMARK.json.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- self time ------------------------------------------------------------
def test_self_times_of_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9] -> b1 [5, 6], b2 [7, 9]
    # second root c [11, 12]
    start = [0, 1, 2, 5, 5, 7, 11]
    end = [10, 4, 3, 9, 6, 9, 12]
    parent = [-1, 0, 1, 0, 3, 3, -1]
    own = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(own, [3, 2, 1, 1, 1, 2, 1])
    # Self times of a tree add up to its root's duration.
    assert own[:6].sum() == pytest.approx(10)


def test_summarize_slices_whole_trees_and_groups_layers():
    rec = tracing.SpanRecorder()
    ids = [rec.intern("bench.unit", "bench"),
           rec.intern("Fifo.queue_lengths_batch", "queue_law"),
           rec.intern("as_rate_vector", "validate")]
    # Two units, spans appended directly: (name id, parent, start, end).
    rows = [(0, -1, 0.0, 4.0), (1, 0, 1.0, 3.0), (2, 1, 1.5, 2.0),
            (0, -1, 10.0, 11.0), (2, 3, 10.0, 10.5)]
    for nid, parent, t0, t1 in rows:
        rec.name_id.append(nid)
        rec.parent.append(parent)
        rec.start.append(t0)
        rec.end.append(t1)
    first = rec.summarize(0, 3)["layer_self_s"]
    assert first == pytest.approx({**{k: 0.0 for k in tracing.LAYERS},
                                   "bench": 2.0, "queue_law": 1.5,
                                   "validate": 0.5})
    second = rec.summarize(3, 5)
    assert second["layer_self_s"]["bench"] == pytest.approx(0.5)
    assert second["name_self_s"]["as_rate_vector"] == pytest.approx(0.5)
    assert ids == [0, 1, 2]


def test_entries_count_only_layer_changes():
    rec = tracing.SpanRecorder()
    outer = rec.intern("FairShare.queue_lengths", "queue_law")
    inner = rec.intern("FairShare.queue_lengths_batch", "queue_law")
    check = rec.intern("as_rate_vector", "validate")
    a = rec.open(outer)
    b = rec.open(inner)
    c = rec.open(check)
    for idx in (c, b, a):
        rec.close(idx)
    assert rec.counts["queue_law"] == 1
    assert rec.counts["validate"] == 1
    assert list(rec.parent) == [-1, 0, 1]


# -- wrapper transparency -------------------------------------------------
class SmallFs(workloads.FsEnsemble):
    N, M, MAX_STEPS = 64, 4, 300


class SmallTcp(workloads.FifoTcpEnsemble):
    M, MAX_STEPS = 4, 60


class SmallPacket(workloads.PacketValidation):
    HORIZON, WARMUP, LOOP_STEPS = 2000.0, 200.0, 6

    def checks(self, out):  # too short to meet the tolerances
        return []


@pytest.mark.parametrize("cls", [SmallFs, SmallTcp, SmallPacket])
def test_traced_run_gives_identical_outputs(cls):
    from repro.backends import compiled
    from repro import backends
    compiled.warmup()
    backends.use("compiled")
    try:
        workload = cls(3)
        plain = workload.digest(workload.run(None))
        rec = tracing.SpanRecorder()
        from repro.core.dynamics import FlowControlSystem
        original_step = FlowControlSystem.__dict__["step_batch"]
        tracing.install(rec)
        try:
            traced = workload.digest(workload.run(rec))
        finally:
            rec.restore()
        assert FlowControlSystem.__dict__["step_batch"] is original_step
        assert traced == plain
        for layer in cls.LAYERS_USED:
            if layer != "compiled" or compiled.tier() != "python":
                assert rec.counts[layer] > 0, layer
        assert all(e >= s for s, e in zip(rec.start, rec.end))
    finally:
        backends.use("numpy")


def test_restore_leaves_no_wrapper_behind():
    rec = tracing.SpanRecorder()
    tracing.install(rec)
    patched = list(rec._installed)
    rec.restore()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


# -- metric names ---------------------------------------------------------
def test_declared_names_are_valid_and_unique():
    s = spec()
    names = ([w["name"] for w in s["workloads"]]
             + [m["name"] for m in s["end_to_end"] + s["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert set(s["paths"]) == {"perfbench"}
    assert [w["name"] for w in s["workloads"]] == list(
        workloads.WORKLOADS)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_declaration(trace):
    proc = _run(["--workload", "fifo_tcp_ensemble", "--seed", "2",
                 "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec()[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(["--workload", "fs_ensemble", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
