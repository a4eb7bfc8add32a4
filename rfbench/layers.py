"""The per-layer metrics: which ``repro`` functions the traced run wraps,
and how their spans and counts become the metrics in BENCHMARK.json.

Every layer is a module of ``src/repro``.  The wrapped functions are the
public entry points of each layer, plus one private one: the coalescer's
tick (``Coalescer._execute``), the only boundary between the server's
event loop and its executor thread.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from rfbench.spans import Tracer

#: (metric name, unit) for every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("core.bloomrf.contains_point_many.self_s", "s"),
    ("core.bloomrf.contains_point_many.keys_per_call", "count"),
    ("core.bloomrf.contains_range_many.self_s", "s"),
    ("core.bloomrf.contains_range_many.ranges_per_call", "count"),
    ("core.bloomrf.insert_many.self_s", "s"),
    ("core.bloomrf.merge.self_s", "s"),
    ("core.bloomrf.to_bytes.self_s", "s"),
    ("core.bloomrf.from_bytes.self_s", "s"),
    ("core.bloomrf.bits_per_key", "bits/key"),
    ("baselines.fence.blocks_for_point.calls", "count"),
    ("baselines.fence.blocks_for_point.self_s", "s"),
    ("baselines.fence.blocks_for_range.calls", "count"),
    ("baselines.fence.blocks_for_range.self_s", "s"),
    ("lsm.sstable.get_many.self_s", "s"),
    ("lsm.sstable.scan_many.self_s", "s"),
    ("lsm.sstable.entries_in_range.calls", "count"),
    ("lsm.memtable.put_many.self_s", "s"),
    ("lsm.memtable.lookup_many.self_s", "s"),
    ("lsm.db.get_many.self_s", "s"),
    ("lsm.db.scan_nonempty_many.self_s", "s"),
    ("lsm.db.scan.self_s", "s"),
    ("lsm.db.runs_per_call", "count"),
    ("lsm.iostats.filter_probes_per_op", "count/op"),
    ("lsm.iostats.false_positives_per_op", "count/op"),
    ("lsm.iostats.blocks_read_per_op", "count/op"),
    ("lsm.store.put_many.self_s", "s"),
    ("lsm.store.flush.self_s", "s"),
    ("lsm.store.reopen_s", "s"),
    ("lsm.wal.append_put.self_s", "s"),
    ("lsm.wal.bytes_per_op", "B/op"),
    ("lsm.wal.commit_barrier.self_s", "s"),
    ("lsm.wal.fsyncs", "count"),
    ("lsm.compaction.maybe_compact.self_s", "s"),
    ("lsm.compaction.merges", "count"),
    ("lsm.compaction.rewritten_keys_per_ingested_key", "ratio"),
    ("lsm.blocks.block.self_s", "s"),
    ("lsm.blocks.cache_hit_ratio", "ratio"),
    ("serial.pack_frame.self_s", "s"),
    ("serial.map_frame.self_s", "s"),
    ("server.protocol.encode_frame.self_s", "s"),
    ("server.protocol.decode_frame_body.self_s", "s"),
    ("server.protocol.bytes_per_request", "B"),
    ("server.server.ops_per_engine_call", "count"),
    ("server.server.barriers_per_write", "ratio"),
    ("server.server.engine_s", "s"),
    ("server.server.queue_wait_s", "s"),
    ("server.server.loop_busy_s", "s"),
    ("server.client.cpu_s_per_request", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_ms_per_op", "ms"),
]

_DB_CALLS = ("lsm.db.get_many", "lsm.db.scan_nonempty_many", "lsm.db.scan")


def install(tracer: Tracer) -> None:
    """Wrap every traced ``repro`` function.  Call before any store is
    opened: filter handles capture bound probe methods when they are
    built or loaded."""
    import repro.api as api
    import repro.serial as serial
    import repro.server.protocol as protocol
    from repro.baselines.fence import FencePointers
    from repro.core.bloomrf import BloomRF
    from repro.lsm.blocks import BlockedPayload
    from repro.lsm.db import LsmDB
    from repro.lsm.memtable import MemTable
    from repro.lsm.sstable import SSTable
    from repro.lsm.store import PersistentLsmDB
    from repro.lsm.wal import WriteAheadLog
    from repro.server.server import Coalescer

    method = tracer.patch_method
    method(
        BloomRF, "contains_point_many", "core.bloomrf.contains_point_many",
        before=lambda _f, keys: {"core.bloomrf.keys": len(keys)},
    )
    method(
        BloomRF, "contains_range_many", "core.bloomrf.contains_range_many",
        before=lambda _f, bounds: {"core.bloomrf.ranges": len(bounds)},
    )
    for attr in ("insert_many", "merge", "to_bytes", "from_bytes"):
        method(BloomRF, attr, f"core.bloomrf.{attr}")
    # The registry captured BloomRF.from_bytes when it was imported; point
    # it at the wrapped classmethod, and back again on uninstall.
    entry = api.registered_kind("bloomrf")

    def register(from_bytes: Any) -> None:
        api.register_filter(
            entry.kind, entry.build, serial_kind=entry.serial_kind,
            from_bytes=from_bytes, merge=entry.merge,
            description=entry.description, replace_existing=True,
        )

    register(BloomRF.from_bytes)
    tracer.on_uninstall(lambda: register(entry.from_bytes))

    for attr in ("blocks_for_point", "blocks_for_range"):
        method(FencePointers, attr, f"baselines.fence.{attr}")
    method(SSTable, "get_many", "lsm.sstable.get_many")
    method(SSTable, "scan_many", "lsm.sstable.scan_many")
    # A generator: its work runs in the caller as it is consumed, so it is
    # counted, not timed.
    method(SSTable, "entries_in_range", "lsm.sstable.entries_in_range", span=False)
    method(MemTable, "put_many", "lsm.memtable.put_many")
    method(MemTable, "lookup_many", "lsm.memtable.lookup_many")
    for name in _DB_CALLS:
        attr = name.rsplit(".", 1)[1]
        method(
            LsmDB, attr, name,
            before=lambda db, *a, **k: {"lsm.db.runs": len(db.sstables)},
        )
    method(
        LsmDB, "maybe_compact", "lsm.compaction.maybe_compact",
        after=lambda merged, *a, **k: (
            {"lsm.compaction.merges": 1,
             "lsm.compaction.output_keys": merged["output_keys"]}
            if merged else {}
        ),
    )
    method(PersistentLsmDB, "put_many", "lsm.store.put_many")
    method(PersistentLsmDB, "flush", "lsm.store.flush")

    def wal_bytes_before(wal: Any, *a: Any, **k: Any) -> dict[str, float]:
        return {"lsm.wal.bytes": -wal.bytes_written}

    def wal_bytes_after(_seq: Any, wal: Any, *a: Any, **k: Any) -> dict[str, float]:
        return {"lsm.wal.bytes": wal.bytes_written}

    method(
        WriteAheadLog, "append_put", "lsm.wal.append_put",
        before=wal_bytes_before, after=wal_bytes_after,
    )
    method(
        WriteAheadLog, "append_delete", "lsm.wal.append_delete", span=False,
        before=wal_bytes_before, after=wal_bytes_after,
    )
    method(WriteAheadLog, "commit_barrier", "lsm.wal.commit_barrier")
    method(BlockedPayload, "block", "lsm.blocks.block")
    tracer.patch_function(serial, "pack_frame", "serial.pack_frame")
    tracer.patch_function(serial, "map_frame", "serial.map_frame")
    tracer.patch_function(
        protocol, "encode_frame", "server.protocol.encode_frame",
        after=lambda frame, *a, **k: {"server.protocol.bytes": len(frame)},
    )
    tracer.patch_function(
        protocol, "decode_frame_body", "server.protocol.decode_frame_body",
        # + the 4-byte length prefix read_frame already stripped
        before=lambda body: {"server.protocol.bytes": len(body) + 4},
    )

    # Queue wait without linking operations to ticks: the sum over
    # operations of (tick start - submit time) is
    # sum(tick start * tick size) - sum(submit time).
    t0 = perf_counter()
    method(
        Coalescer, "_execute", "server.server.tick",
        before=lambda _c, batch: {
            "server.server.tick_start_x_ops": (perf_counter() - t0) * len(batch),
            "server.server.tick_ops": len(batch),
        },
    )
    submit = Coalescer.submit

    async def traced_submit(self: Any, kind: str, payload: Any) -> Any:
        if tracer.enabled:
            tracer.add("server.server.submit_time", perf_counter() - t0)
            tracer.add("server.server.submits", 1)
        return await submit(self, kind, payload)

    Coalescer.submit = traced_submit  # type: ignore[method-assign]
    tracer.on_uninstall(lambda: setattr(Coalescer, "submit", submit))


def metrics(
    summary: dict[str, Any], items: dict[str, float], extra: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric, from the trace plus the workload's own
    counts (``extra``: IOStats deltas, WAL fsyncs, server accounting...).

    A layer the workload never reaches reads 0.
    """
    self_s = summary["self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(name: str) -> float:
        return items.get(name + ".calls", 0.0)

    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
    read_ops = extra.get("read_ops", 0.0)
    db_calls = sum(calls(n) for n in _DB_CALLS)
    requests = extra.get("requests", 0.0)
    out.update({
        "core.bloomrf.contains_point_many.keys_per_call": ratio(
            items.get("core.bloomrf.keys", 0.0),
            calls("core.bloomrf.contains_point_many"),
        ),
        "core.bloomrf.contains_range_many.ranges_per_call": ratio(
            items.get("core.bloomrf.ranges", 0.0),
            calls("core.bloomrf.contains_range_many"),
        ),
        "core.bloomrf.bits_per_key": extra["bits_per_key"],
        "lsm.db.runs_per_call": ratio(items.get("lsm.db.runs", 0.0), db_calls),
        "lsm.iostats.filter_probes_per_op": ratio(extra["filter_probes"], read_ops),
        "lsm.iostats.false_positives_per_op": ratio(
            extra["false_positives"], read_ops
        ),
        "lsm.iostats.blocks_read_per_op": ratio(extra["blocks_read"], read_ops),
        "lsm.store.reopen_s": extra["reopen_s"],
        "lsm.wal.bytes_per_op": ratio(items.get("lsm.wal.bytes", 0.0), extra["ops"]),
        "lsm.wal.fsyncs": extra["wal_fsyncs"],
        "lsm.compaction.merges": items.get("lsm.compaction.merges", 0.0),
        "lsm.compaction.rewritten_keys_per_ingested_key": ratio(
            items.get("lsm.compaction.output_keys", 0.0),
            extra.get("ingested_keys", 0.0),
        ),
        "lsm.blocks.cache_hit_ratio": ratio(
            extra["cache_hits"], extra["cache_hits"] + extra["cache_misses"]
        ),
        "server.protocol.bytes_per_request": ratio(
            items.get("server.protocol.bytes", 0.0), requests
        ),
        "server.server.ops_per_engine_call": ratio(
            extra.get("coalesced_ops", 0.0), extra.get("engine_calls", 0.0)
        ),
        "server.server.barriers_per_write": ratio(
            extra.get("barriers", 0.0), extra.get("write_requests", 0.0)
        ),
        "server.server.engine_s": items.get("server.server.tick.total_s", 0.0),
        "server.server.queue_wait_s": (
            items.get("server.server.tick_start_x_ops", 0.0)
            - items.get("server.server.submit_time", 0.0)
        ),
        "server.server.loop_busy_s": extra.get("loop_busy_s", 0.0),
        "server.client.cpu_s_per_request": ratio(
            extra.get("client_cpu_s", 0.0), requests
        ),
        "unattributed_s": summary["unattributed_s"],
        "trace_overhead_ms_per_op": extra["trace_overhead_ms_per_op"],
    })
    return out
