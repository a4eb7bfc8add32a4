"""Closed-loop load generator for served-mixed (a separate process).

Usage (started by ``rfbench/served.py``, not by hand)::

    python3 rfbench/loadgen.py --port P --seed S --requests N --sizes JSON --cpu C

It builds every connection's request plan, opens the connections, prints
``ready``, waits for ``go`` on stdin, then runs the plans in chunks of
``CHUNK`` requests per connection: within a chunk it keeps a fixed number
of requests in flight on each connection until the chunk is answered, and
between chunks, with the store idle, it has the store process run a
calibration slice (``rfbench.common.HostClock``; asked for with ``slice``
on stdout, answered on stdin) and then runs one itself.  The two CPUs'
slices scale the timings of the chunks on either side.  Each
request is timed from send to answer and checked against the plan.  The
last line of stdout is a JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.server.client import AsyncStoreClient  # noqa: E402
from rfbench.common import HostClock, Outcome, slice_scale  # noqa: E402
from rfbench.served import (  # noqa: E402
    CHUNK,
    CONNECTIONS,
    INFLIGHT,
    WRITE_OPS,
    Request,
    check,
    make_plan,
    user_bytes_written,
)
from rfbench.workloads import Sizes  # noqa: E402


async def _run_chunk(
    client: Any,
    plan: list[Request],
    indices: range,
    inflight: int,
    latency: list[float],
    failures: list[str],
) -> None:
    # One shared iterator: a worker takes the next request and sends it
    # before yielding, so requests leave in plan order.
    order = iter(indices)

    async def worker() -> None:
        for i in order:
            req = plan[i]
            start = perf_counter()
            try:
                # Plan op names are AsyncStoreClient method names.
                got = await getattr(client, req.op)(*req.args)
            except Exception as exc:  # a refused request is a failure
                got = exc
            latency[i] = perf_counter() - start
            if isinstance(got, Exception) or not check(req, got):
                failures.append(f"{req.op}{req.args!r:.120} -> {got!r:.120}")

    await asyncio.gather(*(worker() for _ in range(inflight)))


async def _drive(port: int, plans: list[list[Request]], inflight: int) -> dict[str, Any]:
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    clients = [await AsyncStoreClient.connect("127.0.0.1", port) for _ in plans]
    slices = Outcome()  # only its slice accounting is used
    clock = HostClock(slices, contextlib.nullcontext, watch_pid=os.getppid())

    async def both_slices() -> float:
        """Mean of one slice on the store's CPU and one on this one."""
        print("slice", flush=True)
        store_s = float(await stdin.readline())
        return (store_s + clock.slice()) / 2

    try:
        print("ready", flush=True)
        if (await stdin.readline()).strip() != b"go":
            raise RuntimeError("expected 'go' on stdin")
        latencies = [[0.0] * len(plan) for plan in plans]
        scales = [[0.0] * len(plan) for plan in plans]
        failures: list[str] = []
        wall = scaled = cpu = 0.0
        before = await both_slices()
        for lo in range(0, max(len(plan) for plan in plans), CHUNK):
            chunks = [range(lo, min(lo + CHUNK, len(plan))) for plan in plans]
            cpu0, start = time.process_time(), perf_counter()
            await asyncio.gather(*(
                _run_chunk(client, plan, chunk, inflight, lat, failures)
                for client, plan, chunk, lat in zip(clients, plans, chunks, latencies, strict=True)
            ))
            elapsed = perf_counter() - start
            cpu += time.process_time() - cpu0
            after = await both_slices()
            scale = slice_scale(before, after)
            before = after
            wall += elapsed
            scaled += elapsed * scale
            for chunk, sc in zip(chunks, scales, strict=True):
                sc[chunk.start : chunk.stop] = [scale] * len(chunk)
    finally:
        for client in clients:
            await client.aclose()
    return {
        "requests": sum(len(plan) for plan in plans),
        "failed": len(failures),
        "failures": failures[:5],
        "wall_s": wall,
        "scaled_s": scaled,
        "cpu_s": cpu,
        "latency_s": list(itertools.chain.from_iterable(latencies)),
        "scale": list(itertools.chain.from_iterable(scales)),
        "slice_s": slices.slice_s,
        "slice_other_cpu_s": slices.slice_other_cpu_s,
        "write_requests": sum(r.op in WRITE_OPS for plan in plans for r in plan),
        "user_bytes_written": sum(user_bytes_written(plan) for plan in plans),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--sizes", required=True, help="Sizes as JSON")
    parser.add_argument("--cpu", type=int, default=-1, help="CPU to run on (-1: any)")
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    sizes = Sizes(**json.loads(args.sizes))
    per_conn = [
        args.requests // CONNECTIONS + (c < args.requests % CONNECTIONS)
        for c in range(CONNECTIONS)
    ]
    plans = [make_plan(args.seed, sizes, n, c) for c, n in enumerate(per_conn)]
    result = asyncio.run(_drive(args.port, plans, INFLIGHT))
    inputs = hashlib.sha256()
    for plan in plans:
        for req in plan:
            inputs.update(repr((req.op, req.args)).encode())
    result["digest"] = inputs.hexdigest()[:16]
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
