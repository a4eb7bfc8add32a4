"""Batched scans skip version reconciliation when nothing can shadow a hit,
and the memtable's cached live-key snapshot is never served stale.

``LsmDB.scan_nonempty_many`` answers straight from the runs' ground truth
when no run and no memtable entry holds a tombstone; with a tombstone
anywhere it reconciles through ``_merge_scan``.  Either way its answers
and ``counters()`` equal the scalar ``scan_nonempty`` loop.
"""

import sys
import threading

import numpy as np
import pytest

from repro.lsm import LsmDB, MemTable, SpecPolicy
from repro.lsm.memtable import TOMBSTONE

U64 = (1 << 64) - 1


def make_db():
    return LsmDB(
        policy=SpecPolicy("bloomrf", bits_per_key=14, max_range=1 << 20),
        memtable_capacity=1 << 12,
    )


def query_bounds(keys):
    rng = np.random.default_rng(17)
    near = keys[rng.integers(0, keys.size, 150)]
    lo = np.concatenate([near, rng.integers(0, 1 << 63, 150, dtype=np.uint64)])
    width = np.uint64(1) << rng.integers(0, 24, lo.size, dtype=np.uint64)
    hi = np.minimum(lo + width, np.uint64(U64))
    points = np.stack([keys[:40], keys[:40]], axis=1)
    return np.concatenate([np.stack([lo, hi], axis=1), points])


def assert_batch_equals_loop(db, bounds):
    db.reset_stats()
    looped = [db.scan_nonempty(int(lo), int(hi)) for lo, hi in bounds.tolist()]
    want = db.reset_stats().counters()
    got = db.scan_nonempty_many(bounds)
    assert got.tolist() == looped
    assert db.reset_stats().counters() == want
    return got


def test_tombstone_free_store_never_merge_scans(monkeypatch):
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, 1 << 64, 6_000, dtype=np.uint64))
    db = make_db()
    db.bulk_load(keys[:5_000], num_sstables=4)
    db.put_many(keys[5_000:])  # a live-only memtable
    bounds = query_bounds(keys)
    db.reset_stats()
    looped = [db.scan_nonempty(int(lo), int(hi)) for lo, hi in bounds.tolist()]
    want = db.reset_stats().counters()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("_merge_scan ran on a tombstone-free store")

    monkeypatch.setattr(db, "_merge_scan", forbidden)
    got = db.scan_nonempty_many(bounds)
    assert got.tolist() == looped
    assert db.reset_stats().counters() == want
    truth = [
        bool(np.any((keys >= lo) & (keys <= hi))) for lo, hi in bounds.tolist()
    ]
    assert got.tolist() == truth


def test_tombstone_in_newer_run_shadows_older_key():
    keys = np.arange(1_000, 200_000, 97, dtype=np.uint64)
    db = make_db()
    db.put_many(keys)
    db.flush()
    dead = keys[::3]
    db.delete_many(dead)
    db.flush()  # the tombstones now sit in the newer run
    assert [sst.has_tombstones for sst in db.sstables] == [True, False]
    assert not db.memtable.has_tombstones
    got = assert_batch_equals_loop(db, query_bounds(keys))
    points = np.stack([dead[:30], dead[:30]], axis=1)
    assert not assert_batch_equals_loop(db, points).any()
    assert got.any()


def test_tombstone_only_in_memtable():
    keys = np.arange(5, 300_000, 131, dtype=np.uint64)
    db = make_db()
    db.put_many(keys)
    db.flush()
    db.delete_many(keys[1::4])  # stays buffered: shadows from the memtable
    assert not any(sst.has_tombstones for sst in db.sstables)
    assert db.memtable.has_tombstones
    assert_batch_equals_loop(db, query_bounds(keys))
    points = np.stack([keys[1::4][:25], keys[1::4][:25]], axis=1)
    assert not assert_batch_equals_loop(db, points).any()


MUTATORS = {
    "put": lambda mt: mt.put(50),
    "put_many": lambda mt: mt.put_many(np.array([50, 60], dtype=np.uint64)),
    "delete": lambda mt: mt.delete(10),
    "delete_many": lambda mt: mt.delete_many(np.array([10, 20], dtype=np.uint64)),
    "drain_sorted": lambda mt: mt.drain_sorted(),
}


def reference_snapshot(mt):
    live = sorted(k for k, v in mt._entries.items() if v is not TOMBSTONE)
    return live, len(mt) - len(live)


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_snapshot_invalidated_by_every_mutator(mutator):
    mt = MemTable(capacity=100)
    mt.put_many(np.array([10, 20, 30], dtype=np.uint64))
    bounds = np.array([[10, 10], [20, 20], [45, 65]], dtype=np.uint64)
    before = mt.contains_range_many(bounds).tolist()
    live, _ = mt.live_snapshot()
    assert mt.live_snapshot()[0] is live  # unchanged memtable: cached
    MUTATORS[mutator](mt)
    live, tombstones = mt.live_snapshot()
    assert (live.tolist(), tombstones) == reference_snapshot(mt)
    after = mt.contains_range_many(bounds).tolist()
    assert after == [mt.contains_range(int(lo), int(hi)) for lo, hi in bounds.tolist()]
    assert after != before


def test_writer_reader_hammer_never_sees_stale_answers():
    """A writer deletes old keys and adds new ones while readers probe;
    every change published before a probe is visible to it."""
    n = 3_000
    mt = MemTable(capacity=1 << 20)
    mt.put_many(np.arange(n, dtype=np.uint64))
    progress = {"deleted": 0, "added": 0}
    errors = []
    stop = threading.Event()

    def writer():
        try:
            for k in range(n):
                mt.delete(k)
                progress["deleted"] = k + 1
                mt.put_many(np.array([n + k], dtype=np.uint64))
                progress["added"] = k + 1
        finally:
            stop.set()

    def reader():
        rng = np.random.default_rng(11)
        while not stop.is_set():
            deleted, added = progress["deleted"], progress["added"]
            if not added:
                continue
            # The newest change of each kind is the likeliest to be stale.
            gone = np.append(rng.integers(0, deleted, 15), deleted - 1)
            new = n + np.append(rng.integers(0, added, 15), added - 1)
            keys = np.concatenate([gone, new]).astype(np.uint64)
            got = mt.contains_range_many(np.stack([keys, keys], axis=1))
            if got[:16].any() or not got[16:].all():
                errors.append((deleted, added, got.tolist()))
                return
            if mt.live_snapshot()[1] < deleted:
                errors.append(("tombstones", deleted, added))
                return

    def recorded(target):
        def run():
            try:
                target()
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))
        return run

    threads = [threading.Thread(target=recorded(writer))]
    threads += [threading.Thread(target=recorded(reader)) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert mt.live_snapshot()[1] == n
