"""Fence pointers / min-max indices (ZoneMaps [34], BRIN [38]).

The simplest range-capable baseline: the key space of each data block is
summarized by its ``[min, max]``.  A range query reports the blocks whose key
span intersects it; a point query reports the blocks whose span contains the
key.  Precision is limited by block-level granularity, which is why fence
pointers lose to PRFs on point and small-range queries (Fig. 9.D) while
remaining cheap and exact at block granularity.

The bounds are two ``uint64`` arrays, so a whole batch of probes resolves
with a couple of ``np.searchsorted`` calls; the scalar probes are the batch
arithmetic applied to a one-element batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FencePointers"]


class FencePointers:
    """Sorted-run min/max index with binary-searched probes."""

    def __init__(self, block_size: int = 128) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self._mins = np.zeros(0, dtype=np.uint64)
        self._maxs = np.zeros(0, dtype=np.uint64)
        self._num_keys = 0

    @classmethod
    def build(
        cls,
        sorted_keys: np.ndarray,
        block_size: int = 128,
        *,
        presorted: bool = False,
    ) -> "FencePointers":
        """Build from a sorted key array, one fence per ``block_size`` keys.

        ``presorted=True`` skips the sortedness re-check for callers that
        already validated it (``SSTable`` does on construction) — on the
        store reopen path that check would otherwise touch every key a
        second time.
        """
        fences = cls(block_size=block_size)
        keys = np.asarray(sorted_keys, dtype=np.uint64)
        if not presorted and keys.size and np.any(keys[1:] < keys[:-1]):
            raise ValueError("FencePointers.build requires sorted keys")
        if keys.size:
            # Gather-index the block bounds instead of looping per block:
            # the mins sit at each block start, the maxs one key before the
            # next start (or at the final key).
            starts = np.arange(0, keys.size, block_size)
            ends = np.minimum(starts + block_size, keys.size) - 1
            fences._mins = keys[starts]
            fences._maxs = keys[ends]
        fences._num_keys = int(keys.size)
        return fences

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_keys

    @property
    def num_blocks(self) -> int:
        return int(self._mins.size)

    @property
    def size_bits(self) -> int:
        """Two 64-bit bounds per block."""
        return 128 * self.num_blocks

    # ------------------------------------------------------------------
    def _point_blocks(self, keys: np.ndarray) -> np.ndarray:
        """Per key, the index of the block whose span holds it, else -1."""
        # Blocks are sorted and non-overlapping for a sorted run; at most one
        # block matches: the last one whose minimum is <= key.
        idx = np.searchsorted(self._mins, keys, side="right") - 1
        if self.num_blocks == 0:
            return idx  # all -1
        inside = (idx >= 0) & (keys <= self._maxs[np.maximum(idx, 0)])
        return np.where(inside, idx, -1)

    def _range_spans(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per range, the half-open block-index span ``[first, stop)`` that
        intersects ``[lo, hi]`` (empty when ``stop <= first``)."""
        if np.any(lo > hi):
            i = int(np.argmax(lo > hi))
            raise ValueError(f"empty query range [{int(lo[i])}, {int(hi[i])}]")
        # First block ending at or after lo; blocks from there on whose
        # minimum is <= hi intersect the range.
        first = np.searchsorted(self._maxs, lo, side="left")
        stop = np.searchsorted(self._mins, hi, side="right")
        return first, stop

    def blocks_for_point_many(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: does some block's ``[min, max]`` contain ``keys[i]``?"""
        return self._point_blocks(np.asarray(keys, dtype=np.uint64)) >= 0

    def blocks_for_range_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Number of blocks intersecting each ``[lo[i], hi[i]]``."""
        first, stop = self._range_spans(
            np.asarray(lo, dtype=np.uint64), np.asarray(hi, dtype=np.uint64)
        )
        return np.maximum(stop - first, 0)

    def blocks_for_point(self, key: int) -> list[int]:
        """Indices of blocks whose [min, max] contains ``key``."""
        idx = int(self._point_blocks(np.array([key], dtype=np.uint64))[0])
        return [idx] if idx >= 0 else []

    def blocks_for_range(self, l_key: int, r_key: int) -> list[int]:
        """Indices of blocks intersecting ``[l_key, r_key]``."""
        first, stop = self._range_spans(
            np.array([l_key], dtype=np.uint64), np.array([r_key], dtype=np.uint64)
        )
        return list(range(int(first[0]), int(stop[0])))

    def contains_point(self, key: int) -> bool:
        return bool(self.blocks_for_point(key))

    def contains_range(self, l_key: int, r_key: int) -> bool:
        return bool(self.blocks_for_range(l_key, r_key))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FencePointers(blocks={self.num_blocks}, "
            f"block_size={self.block_size}, keys={self._num_keys})"
        )
