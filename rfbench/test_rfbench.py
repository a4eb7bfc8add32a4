"""Checks of the benchmark itself, on shrunken sizes.

    python3 -m pytest rfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rfbench import layers
from rfbench.run import END_TO_END, measure
from rfbench.workloads import Sizes

ROOT = Path(__file__).resolve().parent.parent

TINY = Sizes(
    store_keys=4096,
    store_runs=4,
    batch=256,
    point_batches_per_s=8,
    range_batches_per_s=8,
    warmup_batches=1,
    ingest_keys=4096,
    ingest_memtable=512,
    ingest_round_s=1.0,
    ingest_probes=512,
    served_memtable=256,
    served_memtables=7,
    served_hot_keys=64,
    served_requests_per_s=150,
    served_cache_bytes=4096,
)

#: End-to-end metrics that are counts, not clock readings.
COUNTED = ("fpr", "blocks_per_op", "space_amp", "write_amp")


def _run(tmp_path: Path, workload: str, seed: int, trace: bool = False) -> tuple[dict, dict]:
    return measure(workload, seed, 1.0, trace, tmp_path / "work", TINY)


@pytest.mark.parametrize("workload", ["point-lookup", "range-scan", "ingest"])
def test_fixed_work_repeats_exactly(tmp_path: Path, workload: str) -> None:
    first, diag1 = _run(tmp_path, workload, 7)
    second, diag2 = _run(tmp_path, workload, 7)
    other, diag3 = _run(tmp_path, workload, 8)
    assert first["correct"] and second["correct"] and other["correct"]
    assert first["attempted"] == second["attempted"]
    for name in COUNTED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert diag1["input_digest"] == diag2["input_digest"]
    assert diag1["input_digest"] != diag3["input_digest"]


@pytest.mark.parametrize("workload", ["point-lookup", "range-scan", "ingest"])
def test_traced_counts_repeat_and_reconcile(tmp_path: Path, workload: str) -> None:
    first, diag = _run(tmp_path, workload, 3, trace=True)
    second, _ = _run(tmp_path, workload, 3, trace=True)
    assert first["correct"] and diag["trace"]["reconciled"]
    counts = [
        name for name, unit in layers.PER_LAYER
        if unit not in ("s", "ms")
    ]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    trace = diag["trace"]
    assert sum(trace["self_s"].values()) + trace["unattributed_s"] == pytest.approx(
        trace["wall_s"], rel=1e-9
    )


def test_served_mixed_answers_and_trace(tmp_path: Path) -> None:
    plain, _ = _run(tmp_path, "served-mixed", 5)
    assert plain["correct"], plain
    assert plain["attempted"] == 150
    traced, diag = _run(tmp_path, "served-mixed", 5, trace=True)
    assert traced["correct"] and diag["trace"]["reconciled"]
    metrics = traced["metrics"]
    assert metrics["server.server.engine_s"]["value"] > 0
    assert metrics["server.protocol.bytes_per_request"]["value"] > 0
    assert metrics["lsm.blocks.block.self_s"]["value"] > 0


def test_one_corrupted_answer_is_one_failure(tmp_path: Path, monkeypatch) -> None:
    from repro.lsm.db import LsmDB

    original = LsmDB.get_many
    calls = []

    def get_many(self, keys):
        answers = original(self, keys)
        calls.append(len(keys))
        if len(calls) == TINY.warmup_batches + 1:  # the first measured batch
            answers = answers.copy()
            answers[0] = not answers[0]
        return answers

    monkeypatch.setattr(LsmDB, "get_many", get_many)
    result, _ = _run(tmp_path, "point-lookup", 1)
    assert len(calls) > TINY.warmup_batches + 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_timings_are_scaled_by_the_slices_around_each_call() -> None:
    from rfbench.common import SLICE_REF_S, Outcome, end_to_end, slice_scale

    out = Outcome(ops=20, read_ops=20, user_bytes=1, written_user_bytes=1)
    out.stats = {"filter_false_positives": 0, "filter_true_negatives": 1, "blocks_read": 0}
    out.setup_s = [1.0]
    # A call between two slices twice the reference length ran on a host
    # half as fast as the reference: it counts half its wall time.
    out.add_call(0.010, slice_scale(2 * SLICE_REF_S, 2 * SLICE_REF_S))
    out.add_call(0.010, slice_scale(SLICE_REF_S, SLICE_REF_S))
    assert out.busy_s == pytest.approx(0.020)
    metrics = end_to_end(out)
    assert metrics["ops_per_s"] == pytest.approx(20 / 0.015)
    assert metrics["latency_ms_p50"] == pytest.approx(7.5)


def test_a_slice_shared_with_another_thread_fails_the_run() -> None:
    import contextlib
    import threading

    from rfbench.common import HostClock, Outcome

    out = Outcome()
    clock = HostClock(out, contextlib.nullcontext)
    clock.slice()
    assert out.slices_clean()
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            pass

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        for _ in range(5):
            clock.slice()
    finally:
        stop.set()
        thread.join()
    assert not out.slices_clean()


def test_metric_table_matches_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_refuses_to_run_without_the_source_tree(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "rfbench", tmp_path / "rfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "rfbench/run.py", "--workload", "point-lookup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_sweep_splits_overlapping_threads() -> None:
    from rfbench.spans import _SPAN_END, _WINDOW_CLOSE, _WINDOW_OPEN, Tracer

    tracer = Tracer()
    tracer._code("a")
    tracer._code("b")
    main = tracer._log()
    window, other = tracer._window_log, type(main)()
    tracer._logs.append(other)
    window.times.extend([0.0, 10.0])
    window.codes.extend([_WINDOW_OPEN - 1, _WINDOW_CLOSE])
    main.times.extend([1.0, 5.0])  # a on one thread over [1, 5]
    main.codes.extend([0, _SPAN_END])
    other.times.extend([3.0, 9.0])  # b on another over [3, 9]
    other.codes.extend([1, _SPAN_END])
    summary = tracer.summary()
    assert summary["self_s"] == {"a": 3.0, "b": 5.0}
    assert summary["unattributed_s"] == 2.0
    assert summary["wall_s"] == 10.0
    assert summary["reconciled"]
    assert np.isclose(sum(summary["self_s"].values()) + 2.0, 10.0)
