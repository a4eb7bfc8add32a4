"""Shared helpers: seeded inputs, process counters, the host calibration
loop and the record each workload returns."""

from __future__ import annotations

import hashlib
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, thread_time
from typing import Any, Callable

import numpy as np
from repro.api import FilterSpec

#: Keys are uniform 62-bit integers (the paper's synthetic key domain).
KEY_BITS = 62
#: Value size of the workloads that store values.
VALUE_BYTES = 64
#: Largest range width; also the bloomRF ``max_range`` of every store.
MAX_RANGE = 1 << 16
#: The filter of every store: bloomRF at 16 bits/key (the paper's default).
FILTER = FilterSpec("bloomrf", {"bits_per_key": 16.0, "max_range": MAX_RANGE})


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named input stream)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, tag])


def distinct_keys(gen: np.random.Generator, n: int, lo: int = 0, hi: int = 1 << KEY_BITS) -> np.ndarray:
    """``n`` distinct uniform keys in ``[lo, hi)``, in random order."""
    keys = gen.integers(lo, hi, size=n + n // 64 + 16, dtype=np.uint64)
    _, first = np.unique(keys, return_index=True)
    keys = keys[np.sort(first)]
    if keys.size < n:  # pragma: no cover - needs ~n^2/2^62 collisions
        raise RuntimeError("key generator produced too many duplicates")
    return keys[:n]


def key_values(keys: np.ndarray) -> list[bytes]:
    """The value stored under each key: 64 pseudo-random bytes derived from
    the key (splitmix64 of key + i, i = 0..7), so the oracle can recompute
    it and block compression sees realistic, incompressible data."""
    words = keys.astype(np.uint64)[:, None] + np.arange(VALUE_BYTES // 8, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = words + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    blob = z.astype("<u8").tobytes()
    return [blob[i : i + VALUE_BYTES] for i in range(0, len(blob), VALUE_BYTES)]


def log_uniform_widths(gen: np.random.Generator, n: int, top: int) -> np.ndarray:
    """Range widths (``hi - lo + 1``) log-uniform in ``[1, top]``."""
    widths = np.exp(gen.uniform(0.0, np.log(top + 1.0), size=n)).astype(np.uint64)
    return np.clip(widths, 1, top)


def range_bounds(gen: np.random.Generator, sorted_keys: np.ndarray, n: int, top: int) -> np.ndarray:
    """``n`` ``[lo, hi]`` rows inside ``[0, top)``: widths log-uniform in
    ``[1, MAX_RANGE]``; 90% uniform starts (almost always empty, the
    paper's worst case), 10% starting just below a stored key."""
    widths = log_uniform_widths(gen, n, MAX_RANGE)
    lo = gen.integers(0, top - MAX_RANGE, size=n, dtype=np.uint64)
    anchored = gen.random(n) < 0.10
    anchors = sorted_keys[gen.integers(0, sorted_keys.size, size=n)]
    below = (gen.random(n) * widths).astype(np.uint64)  # < width
    lo = np.where(anchored, anchors - np.minimum(below, anchors), lo)
    hi = np.minimum(lo + widths - np.uint64(1), np.uint64(top - 1))
    return np.stack([lo, hi], axis=1)


def nonempty_truth(sorted_keys: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact answer of ``[lo, hi]`` emptiness over a sorted key array."""
    idx = np.searchsorted(sorted_keys, bounds[:, 0])
    safe = np.minimum(idx, sorted_keys.size - 1)
    return (idx < sorted_keys.size) & (sorted_keys[safe] <= bounds[:, 1])


def member_truth(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Exact membership of ``keys`` in a sorted key array."""
    idx = np.searchsorted(sorted_keys, keys)
    safe = np.minimum(idx, sorted_keys.size - 1)
    return (idx < sorted_keys.size) & (sorted_keys[safe] == keys)


def digest(*arrays: Any) -> str:
    """A short fingerprint of generated inputs (seed-change check)."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def wchar() -> int:
    """Bytes this process has passed to write-type system calls."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def reset_peak_rss() -> float:
    """Reset this process's peak RSS to its current RSS and return that, MiB.

    Linux resets the high-water mark on ``5`` written to
    ``/proc/self/clear_refs``.  Where that is refused the old peak stays,
    and the returned baseline is then the peak so far.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return peak_rss_mb()
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / (1 << 20)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def calibrate() -> float:
    """Seconds for a fixed NumPy sort plus pure-Python loop.

    Not a metric: it is printed before and after each workload so a slow
    host can be told from a slow program.
    """
    gen = np.random.default_rng(12345)
    start = perf_counter()
    data = gen.integers(0, 1 << 62, size=1 << 20, dtype=np.uint64)
    for _ in range(8):
        np.sort(data)
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    elapsed = perf_counter() - start
    if acc < 0:  # pragma: no cover - keeps the loop result live
        raise AssertionError
    return elapsed


#: Every timing is scaled to a reference host on which one calibration
#: slice takes this long (see ``HostClock``).
SLICE_REF_S = 0.005
_slice_gen = np.random.default_rng(54321)
_SLICE_SORT = _slice_gen.integers(0, 1 << 62, size=1 << 17, dtype=np.uint64)  # 1 MiB
_SLICE_TABLE = _slice_gen.integers(0, 1 << 62, size=1 << 21, dtype=np.uint64)  # 16 MiB
_SLICE_INDEX = _slice_gen.integers(0, _SLICE_TABLE.size, size=1 << 15)
_SLICE_OUT = np.empty(_SLICE_INDEX.size, dtype=np.uint64)


def host_slice() -> float:
    """Seconds for one calibration slice: a 1 MiB NumPy sort, random reads
    from a 16 MiB table and a short pure-Python loop, the kinds of work the
    store's calls are made of (the read store's keys and filters are about
    that size).  It runs no ``repro`` code, so a change to the program
    cannot move it."""
    start = perf_counter()
    np.sort(_SLICE_SORT)
    np.take(_SLICE_TABLE, _SLICE_INDEX, out=_SLICE_OUT)
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    elapsed = perf_counter() - start
    if acc < 0:  # pragma: no cover - keeps the loop result live
        raise AssertionError
    return elapsed


def proc_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run so far."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):  # the thread ended
            pass
    return total / 1e9


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    ops: int = 0  # operations in the measured region
    call_s: list[float] = field(default_factory=list)  # per timed call / request, wall
    call_scale: list[float] = field(default_factory=list)  # host-speed factor of each
    busy_s: float = 0.0  # measured wall time: sum of timed calls, or served chunks
    busy_scaled_s: float = 0.0  # the same, scaled to the reference host
    setup_s: list[float] = field(default_factory=list)  # scaled
    setup_wall_s: list[float] = field(default_factory=list)
    slice_s: float = 0.0  # calibration slices run, and ...
    slice_other_cpu_s: float = 0.0  # ... CPU other threads or the store used meanwhile
    rss_base_mb: float = 0.0  # RSS once the inputs exist, before set-up
    attempted: int = 0
    failed: int = 0
    read_ops: int = 0  # operations the IOStats deltas below cover
    stats: dict[str, int] = field(default_factory=dict)
    user_bytes: int = 0
    dir_bytes: int = 0
    written_bytes: int = 0  # wchar delta attributed to the store
    written_user_bytes: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    notes: dict[str, Any] = field(default_factory=dict)

    def add_stats(self, counters: dict[str, int], cache: tuple[int, int]) -> None:
        for key, value in counters.items():
            self.stats[key] = self.stats.get(key, 0) + value
        self.stats["cache_hits"] = self.stats.get("cache_hits", 0) + cache[0]
        self.stats["cache_misses"] = self.stats.get("cache_misses", 0) + cache[1]

    def add_call(self, wall_s: float, scale: float) -> None:
        self.call_s.append(wall_s)
        self.call_scale.append(scale)
        self.busy_s += wall_s
        self.busy_scaled_s += wall_s * scale

    def slices_clean(self) -> bool:
        """Did the calibration slices run alone?  If another thread or the
        store process worked during them, they read the host as slower
        than it was and the scaled timings would flatter the program."""
        return self.slice_other_cpu_s <= MAX_SLICE_OVERLAP * self.slice_s


#: Largest share of the slices' time other work may overlap them.
MAX_SLICE_OVERLAP = 0.05


def slice_scale(before: float, after: float) -> float:
    """Host-speed factor of work timed between two calibration slices."""
    return 2.0 * SLICE_REF_S / (before + after)


class HostClock:
    """Times calls with a calibration slice before and after each one.

    The host this runs on is shared, and its speed drifts by tens of
    percent within seconds; a call's wall time tracks that drift.  The
    slices around a call measure the host's speed at that moment, and
    the call's *scaled* time, wall time times ``slice_scale``, is what it
    would have taken on the reference host.  The slices are not timed as
    part of any call.  ``watch_pid`` names another process whose CPU use
    during a slice also counts as overlap (the served store).
    """

    def __init__(
        self, out: Outcome, window: Callable[[], Any], watch_pid: int | None = None
    ) -> None:
        self.out = out
        self.window = window
        self.watch_pid = watch_pid
        self.last: float | None = None

    def _other_cpu_s(self) -> float:
        """CPU used by this process's other threads and the watched one."""
        watched = proc_cpu_s(self.watch_pid) if self.watch_pid is not None else 0.0
        return process_time() - thread_time() + watched

    def slice(self) -> float:
        other0 = self._other_cpu_s()
        elapsed = host_slice()
        other = self._other_cpu_s() - other0
        self.out.slice_s += elapsed
        self.out.slice_other_cpu_s += max(0.0, other)
        return elapsed

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``, timed and scaled; the result."""
        if self.last is None:
            self.last = self.slice()
        with self.window():
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
        after = self.slice()
        self.out.add_call(elapsed, slice_scale(self.last, after))
        self.last = after
        return result

    def pause(self) -> None:
        """Untimed work follows: the next call takes a fresh slice first."""
        self.last = None


def end_to_end(out: Outcome) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Every timing is scaled to the reference host (``HostClock``):
    throughput is operations over the summed scaled call times, and the
    latency percentiles are over the scaled per-call times of the whole
    run.  p99 is not among them: the in-process workloads make a few
    hundred calls, too few to estimate it (``timing_notes``).  ``rss_mb`` is the peak RSS above the baseline taken once the
    inputs existed: what the store and one call's inputs added.
    """
    ms = np.asarray(out.call_s) * np.asarray(out.call_scale) * 1000.0
    p50, p90 = np.percentile(ms, [50, 90])
    fp = out.stats["filter_false_positives"]
    tn = out.stats["filter_true_negatives"]
    return {
        "setup_s": float(np.median(out.setup_s)),
        "ops_per_s": out.ops / out.busy_scaled_s,
        "latency_ms_p50": float(p50),
        "latency_ms_p90": float(p90),
        "fpr": fp / (fp + tn),
        "blocks_per_op": out.stats["blocks_read"] / out.read_ops,
        "space_amp": out.dir_bytes / out.user_bytes,
        "write_amp": out.written_bytes / out.written_user_bytes,
        "rss_mb": peak_rss_mb() - out.rss_base_mb,
    }


def timing_notes(out: Outcome) -> dict[str, Any]:
    """For the diagnostics line: the scaled p99 with the number of calls
    beyond it, the unscaled timings, and the host's mean speed relative
    to the reference."""
    wall = np.asarray(out.call_s) * 1000.0
    scaled = wall * np.asarray(out.call_scale)
    p50, p90, p99 = np.percentile(wall, [50, 90, 99])
    return {
        "latency_ms_p99": float(np.percentile(scaled, 99)),
        "calls_beyond_p99": len(out.call_s) // 100,
        "host_speed": out.busy_scaled_s / out.busy_s,
        "wall_clock": {
            "setup_s": float(np.median(out.setup_wall_s)),
            "ops_per_s": out.ops / out.busy_s,
            "latency_ms_p50": float(p50),
            "latency_ms_p90": float(p90),
            "latency_ms_p99": float(p99),
        },
    }
