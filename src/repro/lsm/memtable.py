"""Write buffer of the LSM substrate.

RocksDB absorbs writes in a main-memory delta (memtable) and builds the SST
filter only at flush time, when the SST's full key set is known — the system
property that lets *offline* PRFs work inside an LSM at all (the paper's
Problem 2 discussion).  The memtable here is a plain hash map with
sort-on-flush semantics, standing in for RocksDB's HashSkipList: the paper
itself notes that searching the delta "is handled otherwise, e.g. through
its organization", so probe structure inside the memtable is not part of any
reproduced experiment.

Supports values and deletes: a delete writes a *tombstone* that shadows any
older version of the key in lower levels until compaction drops it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MemTable", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking a deleted key (survives until compaction)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class MemTable:
    """Unsorted write buffer with sorted flush; newest write wins.

    Batched range reads use a cached snapshot — the sorted live keys and
    the tombstone count — tagged with a mutation counter that every
    mutator bumps *after* it mutates.  A snapshot is used only while its
    tag equals the counter, so one built while a writer was mid-update is
    dropped as soon as that writer finishes and is never served stale.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: dict[int, bytes | _Tombstone] = {}
        self._mutations = 0
        self._snapshot: tuple[int, np.ndarray, int] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes = b"") -> None:
        self._entries[key] = value
        self._mutations += 1

    def put_many(
        self, keys: np.ndarray, values: list[bytes] | None = None
    ) -> None:
        """Bulk :meth:`put`: one dict update for the whole batch.

        ``values`` aligns with ``keys`` when given (later duplicates win,
        exactly like the scalar loop); without it every key stores ``b""``
        — the benchmark-mode write shape, which skips per-key Python
        bookkeeping entirely.
        """
        keys = np.asarray(keys, dtype=np.uint64).tolist()
        if values is None:
            self._entries.update(dict.fromkeys(keys, b""))
        elif len(values) != len(keys):
            raise ValueError("values must align with keys")
        else:
            self._entries.update(zip(keys, values, strict=True))
        self._mutations += 1

    def delete(self, key: int) -> None:
        """Record a tombstone (shadows older versions on lower levels)."""
        self._entries[key] = TOMBSTONE
        self._mutations += 1

    def delete_many(self, keys: np.ndarray) -> None:
        """Bulk :meth:`delete`: tombstone every key in one dict update."""
        keys = np.asarray(keys, dtype=np.uint64).tolist()
        self._entries.update(dict.fromkeys(keys, TOMBSTONE))
        self._mutations += 1

    # ------------------------------------------------------------------
    def get(self, key: int) -> bytes | _Tombstone | None:
        """Value, TOMBSTONE, or None when the memtable knows nothing."""
        return self._entries.get(key)

    def contains_point(self, key: int) -> bool:
        """Is a *live* version of ``key`` buffered here?"""
        value = self._entries.get(key)
        return value is not None and value is not TOMBSTONE

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bulk :meth:`get` status: ``(known, live)`` boolean arrays.

        ``known[i]`` — the memtable holds *some* version of ``keys[i]``
        (live or tombstone) and therefore settles the lookup; ``live[i]`` —
        that version is not a tombstone.  Memtables answer exactly, so this
        is plain dict probing, vector-shaped for the DB's batched reads.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        known = np.zeros(keys.size, dtype=bool)
        live = np.zeros(keys.size, dtype=bool)
        if not self._entries:
            return known, live
        entries = self._entries
        for i, key in enumerate(keys.tolist()):
            value = entries.get(key)
            if value is not None:
                known[i] = True
                live[i] = value is not TOMBSTONE
        return known, live

    def contains_range(self, l_key: int, r_key: int) -> bool:
        """Exact live-key range check (memtables answer precisely)."""
        if not self._entries:
            return False
        width = r_key - l_key + 1
        if width <= 64 and width < len(self._entries):
            return any(self.contains_point(k) for k in range(l_key, r_key + 1))
        return any(
            l_key <= key <= r_key and value is not TOMBSTONE
            for key, value in self._entries.items()
        )

    def live_snapshot(self) -> tuple[np.ndarray, int]:
        """``(sorted live keys, tombstone count)``, rebuilt only after a
        mutation (see the class docstring)."""
        tag = self._mutations
        snapshot = self._snapshot
        if snapshot is not None and snapshot[0] == tag:
            return snapshot[1], snapshot[2]
        # dict.copy() runs no Python code, so no writer thread can resize
        # the dict mid-copy (iterating it directly can raise).
        items = self._entries.copy()
        live = np.fromiter(
            (k for k, v in items.items() if v is not TOMBSTONE), dtype=np.uint64
        )
        live.sort()
        tombstones = len(items) - live.size
        self._snapshot = (tag, live, tombstones)
        return live, tombstones

    @property
    def has_tombstones(self) -> bool:
        """Does any buffered entry delete a key?"""
        return bool(self._entries) and self.live_snapshot()[1] > 0

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains_range` over ``(n, 2)`` inclusive bounds.

        The cached sorted snapshot of the live keys serves the whole batch —
        a ``searchsorted`` per query instead of an O(entries) Python scan per
        query, and no rebuild while the memtable is unchanged.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        n = bounds.shape[0]
        result = np.zeros(n, dtype=bool)
        if not self._entries or n == 0:
            return result
        live, _ = self.live_snapshot()
        if live.size == 0:
            return result
        idx = np.searchsorted(live, bounds[:, 0])
        safe = np.minimum(idx, live.size - 1)
        return (idx < live.size) & (live[safe] <= bounds[:, 1])

    def entries_in_range(self, l_key: int, r_key: int) -> list[tuple[int, object]]:
        """All buffered entries (incl. tombstones) in [l_key, r_key], sorted."""
        return sorted(
            (k, v) for k, v in self._entries.items() if l_key <= k <= r_key
        )

    # ------------------------------------------------------------------
    def drain_sorted(self):
        """Flush: return (keys, values, tombstone flags) sorted; clear.

        ``keys`` is a uint64 array; ``values`` a list aligned with it;
        tombstoned slots carry ``b""`` in values and True in the flag array.
        The sort runs as one NumPy ``argsort`` over the key array (keys are
        dict keys, hence distinct) instead of a Python-level item sort.
        """
        n = len(self._entries)
        keys = np.fromiter(self._entries.keys(), dtype=np.uint64, count=n)
        raw = list(self._entries.values())
        self._entries.clear()
        self._mutations += 1
        order = np.argsort(keys)
        keys = keys[order]
        tombstones = np.fromiter(
            (v is TOMBSTONE for v in raw), dtype=bool, count=n
        )[order]
        values = [
            b"" if raw[i] is TOMBSTONE else raw[i] for i in order.tolist()
        ]
        return keys, values, tombstones
