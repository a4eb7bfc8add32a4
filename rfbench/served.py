"""served-mixed: the store behind ``repro.server.StoreServer``, driven by a
closed-loop load generator in a separate process (``rfbench/loadgen.py``).

The request plan is a pure function of the seed, shared by both sides.
Each connection writes only inside its own key sub-space, and the server
executes one connection's requests in the order they were sent, so every
expected answer is fixed when the plan is made, whatever the interleaving
of the two connections.  The same property makes the store's probe and
block-read counts independent of how requests were coalesced.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import open_store

from rfbench.common import (
    FILTER,
    KEY_BITS,
    VALUE_BYTES,
    HostClock,
    Outcome,
    distinct_keys,
    key_values,
    member_truth,
    nonempty_truth,
    range_bounds,
    rng,
    wchar,
)
from rfbench.workloads import Context, Sizes, reopen, timed_setup

#: Preloaded keys live in [0, 2^61); connection c writes only in
#: [2^61 + c * 2^60, 2^61 + (c + 1) * 2^60).
PRELOAD_TOP = 1 << (KEY_BITS - 1)
SUBSPACE = 1 << (KEY_BITS - 2)
SCAN_LIMIT = 16
#: The closed loop: connections, and requests kept in flight on each.
CONNECTIONS = 2
INFLIGHT = 4
#: Requests per connection between two calibration slices: the load
#: generator runs a chunk, waits for its answers, then runs a slice
#: while the store is idle.
CHUNK = 48

#: Request mix (weights sum to 1): the serving mix of
#: ``repro.server.bench`` (25% put_many, 5% delete_many, 35% get_many,
#: 15% may_contain_many, 15% scan_nonempty, 5% scan_range), which has no
#: get_value; get_value takes that mix's smallest share, 5%, from
#: get_many, the other read of a key's value.
MIX = [
    ("put_many", 0.25),
    ("delete_many", 0.05),
    ("get_many", 0.30),
    ("get_value", 0.05),
    ("may_contain_many", 0.15),
    ("scan_nonempty", 0.15),
    ("scan_range", 0.05),
]
WRITE_OPS = frozenset({"put_many", "delete_many"})
#: Keys per batched request, as in ``repro.server.bench``: 8, deletes 4.
BATCH = 8
#: Share of read keys drawn from stored keys, as in point-lookup.
PRESENT_SHARE = 0.25

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"


def preloaded_keys(seed: int, sizes: Sizes) -> np.ndarray:
    """The served store's keys, in insertion order."""
    n = sizes.served_memtable * sizes.served_memtables
    return distinct_keys(rng(seed, "served-keys"), n, hi=PRELOAD_TOP)


def stored_value(key: int) -> bytes:
    return key_values(np.array([key], dtype=np.uint64))[0]


def hot_value(key: int, version: int) -> bytes:
    """The value of a connection's ``version``-th write of ``key``."""
    return stored_value(key ^ (version << 32))


@dataclass
class Request:
    op: str
    args: tuple
    expected: Any  # for may_contain_many: which answers must be True


def make_plan(seed: int, sizes: Sizes, n_requests: int, conn: int) -> list[Request]:
    """Connection ``conn``'s request sequence with its expected answers.

    A read key is, as in point-lookup, a stored key with probability 1/4,
    drawn uniformly from every key written so far (the preloaded keys and
    this connection's hot keys), and otherwise uniform over the preloaded
    key range.  Both scan kinds draw their range as range-scan does.
    Writes go to this connection's hot keys.
    """
    gen = rng(seed, f"served-conn-{conn}")
    keys = np.sort(preloaded_keys(seed, sizes))
    base = PRELOAD_TOP + conn * SUBSPACE
    hot = distinct_keys(gen, sizes.served_hot_keys, base, base + SUBSPACE)
    written = np.concatenate([keys, hot])
    values: dict[int, bytes | None] = {}  # hot key -> live value, None once deleted
    versions: dict[int, int] = {}
    ops = gen.choice(len(MIX), size=n_requests, p=[w for _, w in MIX])

    def read_keys(n: int) -> tuple[list[int], list[bool]]:
        """``n`` read keys and whether each is live."""
        stored = gen.random(n) < PRESENT_SHARE
        picks = np.where(
            stored,
            written[gen.integers(0, written.size, size=n)],
            gen.integers(0, PRELOAD_TOP, size=n, dtype=np.uint64),
        )
        live = member_truth(keys, picks).tolist()
        out = picks.tolist()
        for i, k in enumerate(out):
            if k >= PRELOAD_TOP:
                live[i] = values.get(k) is not None
        return out, live

    def hot_keys(n: int) -> list[int]:
        return hot[gen.choice(hot.size, size=n, replace=False)].tolist()

    plan = []
    for op in (MIX[i][0] for i in ops.tolist()):
        if op in ("get_many", "may_contain_many"):
            # A filter must answer maybe for every live key; for get_many
            # the answer is exactly liveness.
            ks, live = read_keys(BATCH)
            plan.append(Request(op, (ks,), live))
        elif op == "get_value":
            (k,), (live,) = read_keys(1)
            if k >= PRELOAD_TOP:
                want = values.get(k)
            else:
                want = stored_value(k) if live else None
            plan.append(Request(op, (k,), want))
        elif op in ("scan_nonempty", "scan_range"):
            bounds = range_bounds(gen, keys, 1, PRELOAD_TOP)
            lo, hi = bounds[0].tolist()
            if op == "scan_nonempty":
                plan.append(Request(op, (lo, hi), bool(nonempty_truth(keys, bounds)[0])))
            else:
                a, b = np.searchsorted(keys, np.array([lo, hi + 1], dtype=np.uint64))
                rows = keys[a : min(b, a + SCAN_LIMIT)].tolist()
                plan.append(Request(op, (lo, hi, SCAN_LIMIT), [(k, stored_value(k)) for k in rows]))
        elif op == "put_many":
            ks = hot_keys(BATCH)
            vs = []
            for k in ks:
                versions[k] = versions.get(k, 0) + 1
                values[k] = hot_value(k, versions[k])
                vs.append(values[k])
            plan.append(Request(op, (ks, vs), BATCH))
        else:
            ks = hot_keys(BATCH // 2)
            for k in ks:
                values[k] = None
            plan.append(Request(op, (ks,), BATCH // 2))
    return plan


def check(req: Request, got: Any) -> bool:
    """Is ``got`` the right answer to ``req``?"""
    if req.op == "may_contain_many":
        return len(got) == len(req.expected) and all(
            g for g, must in zip(got, req.expected, strict=True) if must
        )
    return got == req.expected


def user_bytes_written(plan: list[Request]) -> int:
    """Key and value bytes the plan's writes carry."""
    total = 0
    for req in plan:
        if req.op == "put_many":
            total += sum(8 + len(v) for v in req.args[1])
        elif req.op == "delete_many":
            total += 8 * len(req.args[0])
    return total


# ----------------------------------------------------------------------
# the store side
# ----------------------------------------------------------------------
def _setup_served_store(ctx: Context) -> tuple[Any, Outcome]:
    """Build through the normal write path (size-tiered, drained after
    every memtable, zlib blocks), close, and reopen on the mmap read tier
    with a block cache smaller than the value working set."""
    s = ctx.sizes
    keys = preloaded_keys(ctx.seed, s)
    # Made before set-up (untimed); the RSS baseline is taken after it.
    values = key_values(keys)
    m = s.served_memtable

    def build(path: Path) -> dict[str, Any]:
        store = open_store(
            str(path), filter=FILTER, compaction="size-tiered", wal_sync="batch",
            memtable_capacity=m, store_values=True, value_bytes=VALUE_BYTES,
            compression="zlib",
        )
        for start in range(0, keys.size, m):
            store.put_many(keys[start : start + m], values[start : start + m])
            store.commit_barrier()
            store.drain_compaction()
        store.close()
        layer: dict[str, Any] = {}
        layer["store"] = reopen(path, layer, mmap=True, block_cache_bytes=s.served_cache_bytes)
        return layer

    store, out = timed_setup(ctx, build)
    out.user_bytes = keys.size * (8 + VALUE_BYTES)
    return store, out


def run_served_mixed(ctx: Context) -> Outcome:
    store, out = _setup_served_store(ctx)
    try:
        asyncio.run(asyncio.wait_for(_serve(ctx, store, out), timeout=150))
    finally:
        store.close()
    return out


async def _serve(ctx: Context, store: Any, out: Outcome) -> None:
    from repro.server import StoreServer

    server = StoreServer(store, max_inflight=64)
    await server.start()
    try:
        await _measure(ctx, store, server, out)
    finally:
        await server.aclose()


def _pin_process(cpus: set[int]) -> None:
    """Restrict every thread of this process (and threads it starts
    later) to ``cpus``."""
    for task in Path("/proc/self/task").iterdir():
        with contextlib.suppress(ProcessLookupError):  # the thread ended
            os.sched_setaffinity(int(task.name), cpus)


async def _measure(ctx: Context, store: Any, server: Any, out: Outcome) -> None:
    """Start the load generator, let it run its plan, collect the counts.

    With two or more CPUs the store process and the load generator each
    get one of their own while measured, so the scheduler cannot move
    them onto one CPU in some runs and apart in others.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:2] if len(allowed) >= 2 else []
    if cpus:
        _pin_process({cpus[0]})
    try:
        await _run_loadgen(ctx, store, server, out, cpus[1] if cpus else -1)
    finally:
        if cpus:
            _pin_process(allowed)


async def _run_loadgen(ctx: Context, store: Any, server: Any, out: Outcome, cpu: int) -> None:
    s = ctx.sizes
    assert server.address is not None
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(LOADGEN), "--port", str(server.address[1]),
        "--seed", str(ctx.seed), "--requests", str(ctx.count(s.served_requests_per_s)),
        "--sizes", json.dumps(dataclasses.asdict(s)), "--cpu", str(cpu),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        limit=1 << 26,  # the result line carries every latency
    )
    try:
        assert proc.stdin is not None and proc.stdout is not None
        ready = await proc.stdout.readline()
        if ready.strip() != b"ready":
            raise RuntimeError(f"load generator did not start: {ready!r}")
        runs = list(store.sstables)
        store.reset_stats()
        info0 = server.info()
        fsyncs0 = store.wal_info()["fsyncs"]
        w0 = wchar()
        with ctx.window():
            busy0 = time.thread_time()
            proc.stdin.write(b"go\n")
            await proc.stdin.drain()
            # Between chunks the load generator asks for a slice on the
            # store's CPU; the line that is not a request is its result.
            clock = HostClock(out, ctx.window, watch_pid=proc.pid)
            while (line := await proc.stdout.readline()) == b"slice\n":
                proc.stdin.write(b"%r\n" % clock.slice())
                await proc.stdin.drain()
            loop_busy = time.thread_time() - busy0
        written = wchar() - w0
        if await proc.wait() != 0:
            raise RuntimeError("load generator failed")
        result = json.loads(line)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    after = list(store.sstables)
    if len(after) != len(runs) or any(a is not b for a, b in zip(after, runs, strict=True)):
        raise RuntimeError("the served store flushed or merged while it was measured")
    info1 = server.info()
    snap = store.reset_stats()
    out.add_stats(snap.counters(), (snap.block_cache_hits, snap.block_cache_misses))
    requests = result["requests"]
    out.ops = out.attempted = out.read_ops = requests
    out.failed = result["failed"]
    out.call_s = result["latency_s"]
    out.call_scale = result["scale"]
    out.busy_s = result["wall_s"]
    out.busy_scaled_s = result["scaled_s"]
    out.slice_s += result["slice_s"]
    out.slice_other_cpu_s += result["slice_other_cpu_s"]
    out.digest = result["digest"]
    # Socket sends are not write-type calls, so wchar is the store's own.
    out.written_bytes = written
    out.written_user_bytes = result["user_bytes_written"]
    out.notes["failures"] = result["failures"]
    out.layer.update(
        bits_per_key=store.filter_bits_per_key(),
        wal_fsyncs=float(store.wal_info()["fsyncs"] - fsyncs0),
        requests=float(requests),
        write_requests=float(result["write_requests"]),
        client_cpu_s=result["cpu_s"],
        loop_busy_s=loop_busy,
        coalesced_ops=float(info1["coalesced_ops"] - info0["coalesced_ops"]),
        engine_calls=float(info1["engine_calls"] - info0["engine_calls"]),
        barriers=float(info1["barriers"] - info0["barriers"]),
    )
