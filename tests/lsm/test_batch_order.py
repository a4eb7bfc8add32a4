"""The batched reads sort each batch once and scatter answers back.

Every batched read (``get_many``, ``may_contain_many``,
``scan_may_contain``, ``scan_nonempty_many``) must answer in caller order
and charge exactly the counters of the per-key loop, whatever the batch
order: reversed, with duplicates, or already sorted.  Checked on runs with
tombstones and a non-empty memtable, in memory and sharded, under the
native probe kernel (when it loaded) and under the NumPy sweep.
"""

import numpy as np
import pytest

from repro.lsm import LsmDB, ShardedLsmDB, SpecPolicy

U64 = (1 << 64) - 1


def make_policy():
    return SpecPolicy("bloomrf", bits_per_key=14, max_range=1 << 20)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(29)
    keys = rng.integers(0, 1 << 64, 3_000, dtype=np.uint64)
    deleted = keys[::7]
    points = np.concatenate(
        [keys[::6], deleted[:40], rng.integers(0, 1 << 64, 200, dtype=np.uint64)]
    )
    points = points[rng.permutation(points.size)]
    near = keys[rng.integers(0, keys.size, 60)]
    lo = np.concatenate([near, rng.integers(0, 1 << 63, 60, dtype=np.uint64)])
    width = np.uint64(1) << rng.integers(0, 22, lo.size, dtype=np.uint64)
    bounds = np.stack([lo, np.minimum(lo + width, np.uint64(U64))], axis=1)
    bounds = bounds[rng.permutation(lo.size)]
    return keys, deleted, points, bounds


@pytest.fixture(scope="module", params=["memory", "sharded-1", "sharded-4"])
def store(request, workload):
    keys, deleted, _, _ = workload
    if request.param == "memory":
        db = LsmDB(policy=make_policy(), memtable_capacity=512)
    else:
        db = ShardedLsmDB(
            policy=make_policy(),
            num_shards=int(request.param.split("-")[1]),
            memtable_capacity=512,
        )
    db.put_many(keys)
    db.delete_many(deleted)  # tombstones land in runs and in the memtable
    with db:
        yield db


def orderings(batch):
    """The batch as given, reversed-sorted, with duplicates, and sorted."""
    order = np.argsort(batch if batch.ndim == 1 else batch[:, 0], kind="stable")
    ascending = batch[order]
    return {
        "given": batch,
        "reversed": ascending[::-1],
        "duplicated": np.concatenate([batch, batch[::3], batch[:5]]),
        "sorted": ascending,
    }


def loop_and_batch(db, batch_call, scalar_call, batch):
    db.reset_stats()
    looped = np.array([scalar_call(item) for item in batch], dtype=bool)
    looped_counters = db.reset_stats().counters()
    got = batch_call(batch)
    return looped, looped_counters, got, db.reset_stats().counters()


@pytest.mark.parametrize("ordering", ["given", "reversed", "duplicated", "sorted"])
class TestOrderLadder:
    def test_get_many(self, store, workload, ordering):
        batch = orderings(workload[2])[ordering]
        looped, want, got, counters = loop_and_batch(
            store, store.get_many, lambda k: store.get(int(k)), batch
        )
        assert np.array_equal(got, looped)
        assert counters == want

    def test_may_contain_many(self, store, workload, ordering):
        batch = orderings(workload[2])[ordering]
        looped, want, got, counters = loop_and_batch(
            store,
            store.may_contain_many,
            lambda k: store.may_contain_many(np.array([k], dtype=np.uint64))[0],
            batch,
        )
        assert np.array_equal(got, looped)
        assert counters == want

    def test_scan_may_contain(self, store, workload, ordering):
        batch = orderings(workload[3])[ordering]
        looped, want, got, counters = loop_and_batch(
            store,
            store.scan_may_contain,
            lambda row: store.scan_may_contain(row[None, :])[0],
            batch,
        )
        assert np.array_equal(got, looped)
        assert counters == want

    def test_scan_nonempty_many(self, store, workload, ordering):
        batch = orderings(workload[3])[ordering]
        looped, want, got, counters = loop_and_batch(
            store,
            store.scan_nonempty_many,
            lambda row: store.scan_nonempty(int(row[0]), int(row[1])),
            batch,
        )
        assert np.array_equal(got, looped)
        assert counters == want
        # Deleted keys read as empty point ranges; live ones do not.
        keys, deleted = workload[0], set(workload[1].tolist())
        probe = np.array([[k, k] for k in keys[:50].tolist()], dtype=np.uint64)
        assert store.scan_nonempty_many(probe[::-1]).tolist() == [
            k not in deleted for k in keys[:50].tolist()[::-1]
        ]


@pytest.mark.usefixtures("numpy_probe")
class TestOrderLadderNumpy(TestOrderLadder):
    """The same ladder with the filters probed by the NumPy sweep."""
