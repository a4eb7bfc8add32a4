"""The in-process workloads: point-lookup, range-scan and ingest.

Each run executes a fixed, seeded operation sequence whose length depends
only on ``--seconds`` (a nominal rate times the seconds), so every count
it reports repeats exactly for a given seed and only the clock varies.
The store is driven only through ``repro.api.open_store`` and the
``Store`` methods; every answer is compared with an exact oracle.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np
from repro.api import open_store

from rfbench.common import (
    FILTER,
    KEY_BITS,
    VALUE_BYTES,
    HostClock,
    Outcome,
    dir_bytes,
    digest,
    distinct_keys,
    fresh_dir,
    key_values,
    member_truth,
    nonempty_truth,
    range_bounds,
    reset_peak_rss,
    rng,
    slice_scale,
    wchar,
)


#: Most set-ups of one run: a cheap set-up (ingest's, ~40 ms and
#: fsync-bound) is repeated until ``Context.setup_min_s`` so its median
#: rests on enough samples.
SETUP_MAX = 15


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use; tests shrink them."""

    store_keys: int = 1 << 20  # point-lookup / range-scan store
    store_runs: int = 16
    batch: int = 4096
    point_batches_per_s: float = 40.0
    range_batches_per_s: float = 26.0
    warmup_batches: int = 3
    ingest_keys: int = 1 << 20  # per round
    ingest_memtable: int = 1 << 14
    ingest_round_s: float = 3.3
    ingest_probes: int = 16384  # per round, untimed
    served_memtable: int = 4096
    served_memtables: int = 63  # served store = 63 flushed memtables
    served_hot_keys: int = 1024  # per connection
    served_requests_per_s: float = 650.0
    served_cache_bytes: int = 1 << 20


@dataclass
class Context:
    """One workload run's inputs and environment."""

    seed: int
    seconds: float
    work: Path  # scratch directory inside the checkout
    sizes: Sizes = Sizes()
    tracer: Any = None  # rfbench.spans.Tracer for the traced pass
    setup_repeats: int = 3  # at least this many set-ups ...
    setup_min_s: float = 0.0  # ... and more, up to SETUP_MAX, until this much set-up time

    def window(self, phase: str = "measured") -> contextlib.AbstractContextManager[Any]:
        return self.tracer.window(phase) if self.tracer else contextlib.nullcontext()

    def clock(self, out: Outcome) -> HostClock:
        return HostClock(out, self.window)

    def count(self, per_second: float) -> int:
        return max(1, round(self.seconds * per_second))


def timed_setup(ctx: Context, build: Callable[[Path], dict[str, Any]]) -> tuple[Any, Outcome]:
    """Run ``build`` in fresh directories, as often as ``ctx`` asks, and
    keep the last store; ``build`` returns the reopened store and counts.
    Call once the run's inputs exist: it takes the RSS baseline."""
    out = Outcome()
    out.rss_base_mb = reset_peak_rss()
    clock = ctx.clock(out)
    store = None
    while len(out.setup_s) < ctx.setup_repeats or (
        sum(out.setup_s) < ctx.setup_min_s and len(out.setup_s) < SETUP_MAX
    ):
        if store is not None:
            store.close()
            # Free the previous store before the next build, so peak RSS
            # holds one store, not two.
            store = None
            gc.collect()
        path = fresh_dir(ctx.work / "store")
        before = clock.slice()
        with ctx.window("setup"):
            start = perf_counter()
            built = build(path)
            elapsed = perf_counter() - start
        out.setup_wall_s.append(elapsed)
        out.setup_s.append(elapsed * slice_scale(before, clock.slice()))
        store = built.pop("store")
        out.layer.update(built)
    if ctx.tracer:
        ctx.tracer.end_setup()
    out.dir_bytes = dir_bytes(ctx.work / "store")
    return store, out


def reopen(path: Path, layer: dict[str, Any], **kw: Any) -> Any:
    """Reopen the store at ``path``, recording ``layer["reopen_s"]``."""
    start = perf_counter()
    store = open_store(str(path), **kw)
    layer["reopen_s"] = perf_counter() - start
    return store


# ----------------------------------------------------------------------
# point-lookup and range-scan: one read-only store
# ----------------------------------------------------------------------
def _read_store_keys(ctx: Context) -> np.ndarray:
    return distinct_keys(rng(ctx.seed, "store-keys"), ctx.sizes.store_keys)


def _setup_read_store(ctx: Context, keys: np.ndarray) -> tuple[Any, Outcome]:
    """~1M keys in 16 L0 runs, manual compaction (the paper's setup)."""

    def build(path: Path) -> dict[str, Any]:
        w0 = wchar()
        store = open_store(
            str(path), filter=FILTER, compaction="manual", wal_sync="batch",
            memtable_capacity=keys.size // ctx.sizes.store_runs,
        )
        store.put_many(keys)
        store.close()
        layer: dict[str, Any] = {"written": wchar() - w0}
        layer["store"] = reopen(path, layer)
        return layer

    store, out = timed_setup(ctx, build)
    # Values are virtual (the paper's 512-byte values only set the block
    # geometry), so user data is the 8-byte keys.
    out.user_bytes = out.written_user_bytes = keys.size * 8
    out.written_bytes = out.layer.pop("written")
    return store, out


def _finish_read(ctx: Context, store: Any, out: Outcome) -> Outcome:
    snap = store.reset_stats()
    out.add_stats(snap.counters(), (snap.block_cache_hits, snap.block_cache_misses))
    out.read_ops = out.attempted = out.ops
    out.layer.update(
        bits_per_key=store.filter_bits_per_key(),
        wal_fsyncs=0.0,
    )
    store.close()
    return out


def _point_batch(gen: np.random.Generator, sorted_keys: np.ndarray, batch: int) -> np.ndarray:
    """25% stored keys, 75% uniform (almost surely absent)."""
    present = batch // 4
    stored = sorted_keys[gen.integers(0, sorted_keys.size, size=present)]
    uniform = gen.integers(0, 1 << KEY_BITS, size=batch - present, dtype=np.uint64)
    return gen.permuted(np.concatenate([stored, uniform]))


def _range_batch(gen: np.random.Generator, sorted_keys: np.ndarray, batch: int) -> np.ndarray:
    return range_bounds(gen, sorted_keys, batch, 1 << KEY_BITS)


def _run_reads(ctx: Context, kind: str) -> Outcome:
    """Each batch and its oracle answer are made just before the call
    (untimed), so the harness holds one batch, not the whole run's."""
    s = ctx.sizes
    keys = _read_store_keys(ctx)
    sorted_keys = np.sort(keys)
    if kind == "point":
        make, call, truth, rate = _point_batch, "get_many", member_truth, s.point_batches_per_s
    else:
        make, call, truth = _range_batch, "scan_nonempty_many", nonempty_truth
        rate = s.range_batches_per_s
    store, out = _setup_read_store(ctx, keys)
    inputs = hashlib.sha256(keys.tobytes())
    del keys
    probe = getattr(store, call)
    warmup = rng(ctx.seed, f"{kind}-warmup")
    for _ in range(s.warmup_batches):
        probe(make(warmup, sorted_keys, s.batch))
    store.reset_stats()
    gen = rng(ctx.seed, f"{kind}-queries")
    clock = ctx.clock(out)
    for _ in range(ctx.count(rate)):
        b = make(gen, sorted_keys, s.batch)
        want = truth(sorted_keys, b)
        inputs.update(b.tobytes())
        got = clock.call(probe, b)
        out.failed += int(np.count_nonzero(got != want))
        out.ops += len(b)
    out.digest = inputs.hexdigest()[:16]
    return _finish_read(ctx, store, out)


def run_point_lookup(ctx: Context) -> Outcome:
    """``get_many`` on 4096-key batches over the 16-run store."""
    return _run_reads(ctx, "point")


def run_range_scan(ctx: Context) -> Outcome:
    """``scan_nonempty_many`` on 4096-range batches over the same store."""
    return _run_reads(ctx, "range")


# ----------------------------------------------------------------------
# ingest: fill empty size-tiered stores, one memtable per timed call
# ----------------------------------------------------------------------
def _ingest_store(path: Path, s: Sizes) -> Any:
    return open_store(
        str(path), filter=FILTER, compaction="size-tiered", wal_sync="batch",
        memtable_capacity=s.ingest_memtable, store_values=True,
        value_bytes=VALUE_BYTES,
    )


def run_ingest(ctx: Context) -> Outcome:
    """Rounds of ~1M keys with 64-byte values, each into an empty store.

    A timed call is ``put_many`` of one memtable's worth, then
    ``commit_barrier()``, then ``drain_compaction()``: the merge schedule
    depends only on the seed.  After each round an untimed probe pass
    (points and ranges, oracle-checked) measures the filters the merges
    produced, which is where the union-merge ``fpr`` shows.
    """
    s = ctx.sizes
    # Set-up builds one memtable's worth through the same write path, so
    # the few fsyncs of creating a store are not all that setup_s measures.
    first = distinct_keys(rng(ctx.seed, "ingest-setup"), s.ingest_memtable)
    first_values = key_values(first)

    def build(path: Path) -> dict[str, Any]:
        store = _ingest_store(path, s)
        store.put_many(first, first_values)
        store.commit_barrier()
        store.drain_compaction()
        store.close()
        layer: dict[str, Any] = {}
        layer["store"] = reopen(path, layer)
        return layer

    store, out = timed_setup(ctx, build)
    store.close()
    rounds = ctx.count(1.0 / s.ingest_round_s)
    per_call = s.ingest_memtable
    n = s.ingest_keys - s.ingest_keys % per_call
    digests = []
    fsyncs = 0
    clock = ctx.clock(out)

    def ingest(store: Any, chunk: np.ndarray, values: list[bytes]) -> None:
        store.put_many(chunk, values)
        store.commit_barrier()
        store.drain_compaction()

    for r in range(rounds):
        gen = rng(ctx.seed, f"ingest-{r}")
        keys = distinct_keys(gen, n)
        path = fresh_dir(ctx.work / "ingest")
        store = _ingest_store(path, s)
        clock.pause()
        w0 = wchar()
        for start in range(0, n, per_call):
            chunk = keys[start : start + per_call]
            clock.call(ingest, store, chunk, key_values(chunk))
        out.written_bytes += wchar() - w0
        out.ops += n
        # Untimed probe pass over what the merges left behind.
        round_digest = digest(keys)
        sorted_keys = keys
        sorted_keys.sort()  # in place: the round's keys are not needed in order
        points = np.concatenate([
            sorted_keys[gen.integers(0, n, size=s.ingest_probes // 2)],
            gen.integers(0, 1 << KEY_BITS, size=s.ingest_probes // 2, dtype=np.uint64),
        ])
        bounds = range_bounds(gen, sorted_keys, s.ingest_probes, 1 << KEY_BITS)
        digests.append(round_digest + digest(points, bounds))
        store.reset_stats()
        out.failed += int(np.count_nonzero(store.get_many(points) != member_truth(sorted_keys, points)))
        out.failed += int(np.count_nonzero(store.scan_nonempty_many(bounds) != nonempty_truth(sorted_keys, bounds)))
        out.failed += abs(store.num_keys - n)
        snap = store.reset_stats()
        out.add_stats(snap.counters(), (snap.block_cache_hits, snap.block_cache_misses))
        out.read_ops += len(points) + len(bounds)
        fsyncs += store.wal_info()["fsyncs"]
        out.dir_bytes = dir_bytes(path)
        out.layer["bits_per_key"] = store.filter_bits_per_key()
        out.notes["runs_after_round"] = [int(t.num_keys) for t in store.sstables]
        store.close()
        shutil.rmtree(path)
    out.attempted = out.ops + out.read_ops
    out.user_bytes = n * (8 + VALUE_BYTES)
    out.written_user_bytes = out.ops * (8 + VALUE_BYTES)
    out.digest = digest(np.array(digests))
    out.layer.update(wal_fsyncs=float(fsyncs), ingested_keys=float(out.ops))
    return out
