"""Tests for Prefix-BF, fence pointers, and the Cuckoo filter baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cuckoo import CuckooFilter
from repro.baselines.fence import FencePointers
from repro.baselines.prefix_bloom import PrefixBloomFilter

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
U64 = (1 << 64) - 1


class TestPrefixBloom:
    @given(st.sets(u64, min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_no_false_negatives(self, keys):
        filt = PrefixBloomFilter(
            n_keys=len(keys), bits_per_key=10, prefix_level=8
        )
        for key in keys:
            filt.insert(key)
        for key in keys:
            assert filt.contains_point(key)
            assert filt.contains_range(key, min(key + 300, U64))

    def test_probe_count_grows_with_range(self):
        filt = PrefixBloomFilter(n_keys=100, bits_per_key=10, prefix_level=4)
        filt.insert(1 << 40)
        filt.contains_range(0, 63)
        small = filt.last_probe_count
        filt.contains_range(0, 1023)
        large = filt.last_probe_count
        assert large > small

    def test_for_range_picks_sane_level(self):
        filt = PrefixBloomFilter.for_range(
            n_keys=100, bits_per_key=10, expected_range=256
        )
        assert filt.prefix_level == 8

    def test_gigantic_range_is_conservative(self):
        filt = PrefixBloomFilter(n_keys=10, bits_per_key=10, prefix_level=0)
        assert filt.contains_range(0, 1 << 40) is True
        assert filt.last_probe_count <= 1

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            PrefixBloomFilter(n_keys=10, bits_per_key=10, prefix_level=64)

    def test_vectorized_insert(self):
        keys = np.arange(0, 10_000, 7, dtype=np.uint64)
        filt = PrefixBloomFilter(n_keys=keys.size, bits_per_key=12, prefix_level=6)
        filt.insert_many(keys)
        for key in keys[:200]:
            assert filt.contains_point(int(key))


class TestFencePointers:
    def test_build_and_point(self):
        keys = np.arange(0, 1000, 3, dtype=np.uint64)
        fences = FencePointers.build(keys, block_size=32)
        assert fences.num_blocks == -(-keys.size // 32)
        assert fences.contains_point(999) == (999 in set(keys.tolist()))
        assert fences.contains_point(3)

    def test_point_outside_all_blocks(self):
        fences = FencePointers.build(np.array([100, 200, 300], dtype=np.uint64), 2)
        assert not fences.contains_point(50)
        assert not fences.contains_point(400)

    @given(
        st.lists(u64, min_size=1, max_size=300, unique=True),
        u64,
        u64,
    )
    @settings(max_examples=100)
    def test_range_matches_naive(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        keys = np.array(sorted(keys), dtype=np.uint64)
        fences = FencePointers.build(keys, block_size=16)
        got = fences.contains_range(lo, hi)
        # Fences answer at block granularity: never a false negative.
        truly = bool(np.any((keys >= lo) & (keys <= hi)))
        assert got or not truly

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FencePointers.build(np.array([5, 3], dtype=np.uint64))

    def test_rejects_empty_range_query(self):
        fences = FencePointers.build(np.array([1], dtype=np.uint64))
        with pytest.raises(ValueError):
            fences.blocks_for_range(5, 4)

    def test_size_bits(self):
        fences = FencePointers.build(np.arange(100, dtype=np.uint64), 10)
        assert fences.size_bits == 128 * 10

    @given(
        st.lists(u64, min_size=1, max_size=200),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_methods_match_scalar(self, keys, data):
        """blocks_for_point_many / blocks_for_range_many == the scalar
        probes, on runs with block sizes from 1 to beyond the run."""
        keys = sorted(keys)
        block_size = data.draw(
            st.one_of(
                st.just(1),
                st.integers(min_value=2, max_value=16),
                st.integers(min_value=len(keys), max_value=len(keys) + 5),
            )
        )
        fences = FencePointers.build(np.array(keys, dtype=np.uint64), block_size)
        # Stored keys, their neighbours (keys in the gaps between blocks),
        # the domain ends and arbitrary keys.
        probes = sorted(
            {0, U64}
            | set(keys)
            | {k + 1 for k in keys if k < U64}
            | {k - 1 for k in keys if k > 0}
            | set(data.draw(st.lists(u64, max_size=20)))
        )
        # Naive oracle: every block's [min, max], checked one by one.
        spans = [
            (keys[s], keys[min(s + block_size, len(keys)) - 1])
            for s in range(0, len(keys), block_size)
        ]
        got = fences.blocks_for_point_many(np.array(probes, dtype=np.uint64))
        assert got.dtype == bool
        assert got.tolist() == [
            bool(fences.blocks_for_point(key)) for key in probes
        ]
        assert got.tolist() == [
            any(mn <= key <= mx for mn, mx in spans) for key in probes
        ]
        ranges = [(0, U64), (0, 0), (U64, U64), (keys[0], keys[-1])]
        ranges += [
            (min(a, b), max(a, b))
            for a, b in data.draw(st.lists(st.tuples(u64, u64), max_size=20))
        ]
        ranges += [
            (min(a, b), max(a, b)) for a, b in zip(probes, reversed(probes), strict=True)
        ]
        lo = np.array([r[0] for r in ranges], dtype=np.uint64)
        hi = np.array([r[1] for r in ranges], dtype=np.uint64)
        counts = fences.blocks_for_range_many(lo, hi)
        assert counts.tolist() == [
            len(fences.blocks_for_range(a, b)) for a, b in ranges
        ]
        assert counts.tolist() == [
            sum(mn <= b and mx >= a for mn, mx in spans) for a, b in ranges
        ]
        # The full-domain range covers every block.
        assert int(counts[0]) == fences.num_blocks

    def test_batch_methods_on_empty_inputs(self):
        fences = FencePointers.build(np.arange(10, dtype=np.uint64), 3)
        empty = np.zeros(0, dtype=np.uint64)
        assert fences.blocks_for_point_many(empty).shape == (0,)
        assert fences.blocks_for_range_many(empty, empty).shape == (0,)
        unbuilt = FencePointers()
        assert unbuilt.blocks_for_point_many(np.array([5], dtype=np.uint64)).tolist() == [False]
        assert unbuilt.blocks_for_range(0, U64) == []
        assert unbuilt.blocks_for_point(5) == []

    def test_batch_range_rejects_inverted_bounds(self):
        fences = FencePointers.build(np.arange(10, dtype=np.uint64), 3)
        with pytest.raises(ValueError, match=r"empty query range \[5, 4\]"):
            fences.blocks_for_range_many(
                np.array([0, 5], dtype=np.uint64), np.array([9, 4], dtype=np.uint64)
            )

    def test_scalar_probes_return_block_indices(self):
        fences = FencePointers.build(np.array([10, 20, 30, 40, 50], dtype=np.uint64), 2)
        # Blocks: [10, 20], [30, 40], [50, 50].
        assert fences.blocks_for_point(20) == [0]
        assert fences.blocks_for_point(25) == []
        assert fences.blocks_for_point(50) == [2]
        assert fences.blocks_for_range(15, 35) == [0, 1]
        assert fences.blocks_for_range(21, 29) == []
        assert fences.blocks_for_range(0, U64) == [0, 1, 2]


class TestCuckoo:
    @given(st.sets(u64, min_size=1, max_size=400))
    @settings(max_examples=30)
    def test_no_false_negatives(self, keys):
        filt = CuckooFilter(n_keys=len(keys), fingerprint_bits=12)
        for key in keys:
            assert filt.insert(key)
        for key in keys:
            assert filt.contains_point(key)

    def test_delete(self):
        filt = CuckooFilter(n_keys=100, fingerprint_bits=12)
        filt.insert(42)
        assert filt.contains_point(42)
        assert filt.delete(42)
        assert not filt.contains_point(42)
        assert not filt.delete(42)

    def test_delete_preserves_duplicates(self):
        filt = CuckooFilter(n_keys=100, fingerprint_bits=12)
        filt.insert(42)
        filt.insert(42)
        assert filt.delete(42)
        assert filt.contains_point(42)  # one copy remains

    def test_high_occupancy_fill(self):
        """The paper drives cuckoo filters to 95% occupancy."""
        n = 10_000
        filt = CuckooFilter(n_keys=n, fingerprint_bits=12, load_factor=0.95)
        rng = np.random.default_rng(10)
        keys = rng.integers(0, 1 << 64, n, dtype=np.uint64)
        inserted = filt.insert_many(keys)
        assert inserted == n
        assert filt.load() > 0.55  # power-of-two bucket rounding caps density

    def test_overload_fails_gracefully(self):
        filt = CuckooFilter(n_keys=64, fingerprint_bits=8, load_factor=1.0)
        failures = 0
        for key in range(1000):
            failures += not filt.insert(key)
        assert failures > 0  # must refuse rather than corrupt

    def test_fpr_tracks_fingerprint_size(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1 << 64, 20_000, dtype=np.uint64)
        rates = []
        for bits in (8, 16):
            filt = CuckooFilter(n_keys=20_000, fingerprint_bits=bits)
            filt.insert_many(keys)
            probes = rng.integers(0, 1 << 64, 30_000, dtype=np.uint64)
            rates.append(sum(filt.contains_point(int(p)) for p in probes) / 30_000)
        assert rates[1] < rates[0]
        assert rates[0] < 0.05

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CuckooFilter(n_keys=0)
        with pytest.raises(ValueError):
            CuckooFilter(n_keys=10, fingerprint_bits=0)
        with pytest.raises(ValueError):
            CuckooFilter(n_keys=10, load_factor=0.0)

    def test_size_accounting(self):
        filt = CuckooFilter(n_keys=1000, fingerprint_bits=10)
        assert filt.size_bits == filt.num_buckets * 4 * 10
