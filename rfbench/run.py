"""Run one workload of the repo benchmark and print its metrics.

    python3 rfbench/run.py --workload point-lookup --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload once untraced and once with the
layer tracer installed, and reports the per-layer metrics.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds diagnostics (host calibration, input digest, the full
self-time table).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".rfbench_work"  # stores, removed at exit
TRACES = ROOT / ".rfbench_traces"  # span dumps of traced runs

WORKLOAD_NAMES = ("point-lookup", "range-scan", "ingest", "served-mixed")
SETUP_REPEATS = 3
#: Set-up time a plain run measures at least (see workloads.SETUP_MAX).
SETUP_MIN_S = 1.0

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("fpr", "ratio"),
    ("blocks_per_op", "count/op"),
    ("space_amp", "ratio"),
    ("write_amp", "ratio"),
    ("rss_mb", "MiB"),
]


def _workloads() -> dict[str, Any]:
    from rfbench.served import run_served_mixed
    from rfbench.workloads import run_ingest, run_point_lookup, run_range_scan

    return {
        "point-lookup": run_point_lookup,
        "range-scan": run_range_scan,
        "ingest": run_ingest,
        "served-mixed": run_served_mixed,
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, work: Path, sizes: Any = None
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One run: ``(result line, diagnostics)``."""
    from rfbench import layers
    from rfbench.common import calibrate, end_to_end, timing_notes
    from rfbench.spans import Tracer
    from rfbench.workloads import Context, Sizes

    run = _workloads()[workload]
    sizes = sizes or Sizes()
    diag: dict[str, Any] = {"workload": workload, "seed": seed, "seconds": seconds}
    diag["calibration_before_s"] = calibrate()
    if not trace:
        out = run(Context(
            seed, seconds, work, sizes, setup_repeats=SETUP_REPEATS, setup_min_s=SETUP_MIN_S
        ))
        values = end_to_end(out)
        units = END_TO_END
        attempted, failed = out.attempted, out.failed
        checks_ok = out.slices_clean()
        diag.update(timing_notes(out))
    else:
        plain = run(Context(seed, seconds, work, sizes, setup_repeats=1))
        tracer = Tracer()
        layers.install(tracer)
        try:
            out = run(Context(seed, seconds, work, sizes, tracer=tracer, setup_repeats=1))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        TRACES.mkdir(exist_ok=True)
        tracer.dump(TRACES / f"{workload}-seed{seed}.npz")
        extra = dict(out.layer)
        extra.update(
            read_ops=out.read_ops,
            ops=out.ops,
            filter_probes=out.stats["filter_probes"],
            false_positives=out.stats["filter_false_positives"],
            blocks_read=out.stats["blocks_read"],
            cache_hits=out.stats["cache_hits"],
            cache_misses=out.stats["cache_misses"],
            trace_overhead_ms_per_op=1000.0 * (
                out.busy_scaled_s / out.ops - plain.busy_scaled_s / plain.ops
            ),
        )
        values = layers.metrics(summary, tracer.items(), extra)
        units = layers.PER_LAYER
        attempted = plain.attempted + out.attempted
        failed = plain.failed + out.failed
        checks_ok = summary["reconciled"] and plain.slices_clean() and out.slices_clean()
        diag["trace"] = summary
    diag["calibration_after_s"] = calibrate()
    diag["input_digest"] = out.digest
    diag["ops"] = out.ops
    diag["setup_s_each"] = out.setup_s
    diag["setup_wall_s_each"] = out.setup_wall_s
    diag["slice_overlap"] = out.slice_other_cpu_s / out.slice_s
    diag.update(out.notes)
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units},
    }
    return result, diag


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repo benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"rfbench: no repro source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Replace the script's own directory (sys.path[0]) so the benchmark's
    # modules are only importable as the rfbench package.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    work = WORK / f"{args.workload}-seed{args.seed}"
    try:
        result, diag = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
