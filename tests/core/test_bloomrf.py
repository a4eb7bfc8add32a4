"""Tests for the BloomRF filter: soundness, equivalences, serialization.

The central invariant — approximate membership structures may err only
towards "present" — is tested property-based for both point and range
queries, on basic and advisor-tuned configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloomrf import BloomRF
from repro.core.config import BloomRFConfig

U64 = (1 << 64) - 1
u64 = st.integers(min_value=0, max_value=U64)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


def small_filter(keys, domain_bits=16, delta=4, bits_per_key=12):
    filt = BloomRF.basic(
        n_keys=max(len(keys), 1),
        bits_per_key=bits_per_key,
        domain_bits=domain_bits,
        delta=delta,
    )
    for key in keys:
        filt.insert(key)
    return filt


class TestPointNoFalseNegatives:
    @given(st.sets(u16, min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_small_domain(self, keys):
        filt = small_filter(keys)
        for key in keys:
            assert filt.contains_point(key)

    @given(st.sets(u64, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_full_domain_basic(self, keys):
        filt = BloomRF.basic(n_keys=len(keys), bits_per_key=10)
        for key in keys:
            filt.insert(key)
        for key in keys:
            assert filt.contains_point(key)

    @given(st.sets(u64, min_size=1, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_full_domain_tuned(self, keys):
        filt = BloomRF.tuned(n_keys=1000, bits_per_key=16, max_range=1 << 20)
        for key in keys:
            filt.insert(key)
        for key in keys:
            assert filt.contains_point(key)


class TestRangeNoFalseNegatives:
    @given(
        st.sets(u16, min_size=1, max_size=100),
        st.integers(min_value=0, max_value=1 << 12),
        st.integers(min_value=0, max_value=1 << 12),
    )
    @settings(max_examples=200)
    def test_ranges_containing_keys(self, keys, pad_left, pad_right):
        filt = small_filter(keys)
        for key in list(keys)[:20]:
            lo = max(0, key - pad_left)
            hi = min((1 << 16) - 1, key + pad_right)
            assert filt.contains_range(lo, hi)

    @given(st.sets(u16, min_size=1, max_size=150), u16, u16)
    @settings(max_examples=300)
    def test_range_consistent_with_truth(self, keys, a, b):
        """filter says empty => truly empty (the contrapositive of no-FN)."""
        lo, hi = min(a, b), max(a, b)
        filt = small_filter(keys)
        if not filt.contains_range(lo, hi):
            assert not any(lo <= k <= hi for k in keys)

    @given(st.sets(u64, min_size=1, max_size=60), st.integers(0, 1 << 40))
    @settings(max_examples=30, deadline=None)
    def test_tuned_ranges(self, keys, width):
        filt = BloomRF.tuned(n_keys=500, bits_per_key=18, max_range=1 << 30)
        for key in keys:
            filt.insert(key)
        for key in list(keys)[:10]:
            lo = max(0, key - width // 2)
            hi = min(U64, key + width // 2)
            assert filt.contains_range(lo, hi)

    def test_single_point_range(self):
        filt = small_filter({42})
        assert filt.contains_range(42, 42)
        assert not filt.contains_range(50_000, 50_001) or True  # may FP

    def test_whole_domain_range(self):
        filt = small_filter({42})
        assert filt.contains_range(0, (1 << 16) - 1)


class TestVectorizedEquivalence:
    @given(st.lists(u64, min_size=1, max_size=300, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_insert_many_matches_scalar(self, keys):
        a = BloomRF.basic(n_keys=len(keys), bits_per_key=12)
        b = BloomRF.basic(n_keys=len(keys), bits_per_key=12)
        a.insert_many(np.array(keys, dtype=np.uint64))
        for key in keys:
            b.insert(key)
        assert np.array_equal(a.pmhf_bits.words, b.pmhf_bits.words)

    @given(st.lists(u64, min_size=1, max_size=100, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_contains_point_many_matches_scalar(self, keys):
        filt = BloomRF.basic(n_keys=len(keys), bits_per_key=10)
        filt.insert_many(np.array(keys[: len(keys) // 2 + 1], dtype=np.uint64))
        probe = np.array(keys, dtype=np.uint64)
        got = filt.contains_point_many(probe)
        expected = [filt.contains_point(int(k)) for k in probe]
        assert list(got) == expected

    def test_tuned_vectorized_equivalence(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1 << 64, 2000, dtype=np.uint64)
        a = BloomRF.tuned(n_keys=2000, bits_per_key=16, max_range=1 << 20)
        b = BloomRF.tuned(n_keys=2000, bits_per_key=16, max_range=1 << 20)
        a.insert_many(keys)
        for key in keys:
            b.insert(int(key))
        assert np.array_equal(a.pmhf_bits.words, b.pmhf_bits.words)
        assert list(a.contains_point_many(keys[:50])) == [True] * 50


class TestPrunedPointProbe:
    """contains_point_many hashes only the keys no earlier probe rejected;
    its answers must stay those of the scalar contains_point."""

    def exact_guard_filter(self):
        config = BloomRFConfig(
            domain_bits=16,
            deltas=(4, 4, 4),
            replicas=(2, 1, 1),
            segment_of=(0, 0, 0),
            segment_bits=(1024,),
            exact_level=12,
            degenerate_guard=True,
        )
        return BloomRF(config)

    @staticmethod
    def count_hashed(monkeypatch):
        """Patch the module's vector hash to count the elements it hashes."""
        import repro.core.bloomrf as module

        hashed = []
        real = module.splitmix64_array

        def counting(values, seed=0):
            hashed.append(values.size)
            return real(values, seed=seed)

        monkeypatch.setattr(module, "splitmix64_array", counting)
        return hashed

    @given(
        st.lists(u16, min_size=1, max_size=120, unique=True),
        st.lists(u16, max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_bitmap_and_guard_match_scalar(self, keys, extra):
        filt = self.exact_guard_filter()
        filt.insert_many(np.array(keys, dtype=np.uint64))
        probe = keys + extra + list(reversed(keys))
        got = filt.contains_point_many(np.array(probe, dtype=np.uint64))
        assert got.tolist() == [filt.contains_point(k) for k in probe]

    @pytest.mark.usefixtures("numpy_probe")  # counts the NumPy sweep's hashing
    def test_exact_bitmap_empties_batch_before_layer_zero(self, monkeypatch):
        filt = self.exact_guard_filter()
        filt.insert(42)  # level-12 prefix 0: keys >= 4096 are rejected exactly
        probe = np.arange(1 << 12, 1 << 16, 97, dtype=np.uint64)
        hashed = self.count_hashed(monkeypatch)
        got = filt.contains_point_many(probe)
        assert not got.any()
        assert hashed == [], "no key survives the exact bitmap to be hashed"
        assert got.tolist() == [filt.contains_point(int(k)) for k in probe]

    @pytest.mark.usefixtures("numpy_probe")  # counts the NumPy sweep's hashing
    def test_rejected_keys_are_not_hashed_again(self, monkeypatch):
        filt = BloomRF.basic(n_keys=64, bits_per_key=10, domain_bits=16, delta=4)
        filt.insert_many(np.arange(0, 64, dtype=np.uint64))
        probe = np.arange(1 << 12, 1 << 16, 3, dtype=np.uint64)
        hashed = self.count_hashed(monkeypatch)
        got = filt.contains_point_many(probe)
        assert hashed[0] == probe.size
        assert sum(hashed) < probe.size * len(hashed)
        assert got.tolist() == [filt.contains_point(int(k)) for k in probe]

    def test_empty_batch(self):
        filt = self.exact_guard_filter()
        filt.insert(7)
        got = filt.contains_point_many(np.array([], dtype=np.uint64))
        assert got.shape == (0,) and got.dtype == bool


class TestExactLayer:
    def make(self):
        config = BloomRFConfig(
            domain_bits=16,
            deltas=(4, 4),
            replicas=(1, 1),
            segment_of=(0, 0),
            segment_bits=(2048,),
            exact_level=8,
        )
        return BloomRF(config)

    def test_exact_layer_blocks_foreign_regions(self):
        filt = self.make()
        filt.insert(42)
        # Any key whose level-8 prefix differs is rejected exactly.
        for probe in (256, 1000, 65535):
            assert not filt.contains_point(probe)
        assert not filt.contains_range(4096, 8191)

    def test_exact_layer_no_false_negatives(self):
        filt = self.make()
        for key in (0, 255, 256, 65535):
            filt.insert(key)
            assert filt.contains_point(key)
            assert filt.contains_range(max(0, key - 3), min(65535, key + 3))


class TestDegenerateGuard:
    def test_guard_preserves_soundness(self):
        config = BloomRFConfig.basic(200, 12, domain_bits=16, delta=4)
        config = BloomRFConfig.from_dict({**config.to_dict(), "degenerate_guard": True})
        filt = BloomRF(config)
        keys = list(range(0, 4000, 17))
        for key in keys:
            filt.insert(key)
        for key in keys:
            assert filt.contains_point(key)
            assert filt.contains_range(max(0, key - 5), min(65535, key + 5))

    def test_guard_breaks_degenerate_pileup(self):
        """Sect. 3.2: a degenerate distribution whose keys share the in-word
        offset bits lambda on every layer makes every PMHF set bit lambda of
        its word; the guard's per-group word reversal spreads the offsets."""
        delta = 4
        lam = 0b101
        # Keys with offset bits == lam on every layer, varying group bits.
        keys = []
        for i in range(256):
            key = 0
            for layer in range(4):
                group_bit = (i >> layer) & 1
                key |= ((group_bit << 3) | lam) << (layer * delta)
            keys.append(key)
        keys = sorted(set(keys))

        def offsets(filt):
            word = 1 << (delta - 1)
            out = set()
            for key in keys:
                for pos in filt._iter_positions(key):
                    out.add(pos % word)
            return out

        plain_cfg = BloomRFConfig.basic(len(keys), 8, domain_bits=16, delta=delta)
        plain = BloomRF(plain_cfg)
        guard_cfg = BloomRFConfig.from_dict(
            {**plain_cfg.to_dict(), "degenerate_guard": True}
        )
        guarded = BloomRF(guard_cfg)
        for key in keys:
            plain.insert(key)
            guarded.insert(key)
        for key in keys:
            assert guarded.contains_point(key)
            assert guarded.contains_range(max(0, key - 2), min(65535, key + 2))
        assert offsets(plain) == {lam}, "degenerate keys pile on one offset"
        assert offsets(guarded) == {lam, 7 - lam}, "guard reverses half the words"


class TestSerialization:
    def test_round_trip_basic(self):
        filt = BloomRF.basic(n_keys=500, bits_per_key=10)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 64, 500, dtype=np.uint64)
        filt.insert_many(keys)
        restored = BloomRF.from_bytes(filt.to_bytes())
        assert restored.config == filt.config
        assert restored.num_keys == filt.num_keys
        for key in keys[:100]:
            assert restored.contains_point(int(key))

    def test_round_trip_tuned_with_exact_layer(self):
        filt = BloomRF.tuned(n_keys=2000, bits_per_key=16, max_range=1 << 24)
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 1 << 64, 2000, dtype=np.uint64)
        filt.insert_many(keys)
        restored = BloomRF.from_bytes(filt.to_bytes())
        for key in keys[:100]:
            key = int(key)
            assert restored.contains_point(key)
            assert restored.contains_range(max(0, key - 9), min(U64, key + 9))
        probe = [(i * 977 + 13) & U64 for i in range(200)]
        assert [restored.contains_point(p) for p in probe] == [
            filt.contains_point(p) for p in probe
        ]


class TestApiContracts:
    def test_rejects_out_of_domain_keys(self):
        filt = small_filter({1}, domain_bits=16)
        with pytest.raises(ValueError):
            filt.insert(1 << 16)
        with pytest.raises(ValueError):
            filt.contains_point(-1)

    def test_rejects_inverted_range(self):
        filt = small_filter({1})
        with pytest.raises(ValueError):
            filt.contains_range(10, 9)

    def test_len_and_bits_per_key(self):
        filt = BloomRF.basic(n_keys=100, bits_per_key=10)
        assert len(filt) == 0
        assert filt.bits_per_key == float("inf")
        filt.insert(7)
        assert len(filt) == 1
        assert filt.bits_per_key == filt.size_bits

    def test_contains_dunder(self):
        filt = small_filter({99})
        assert 99 in filt

    def test_contains_range_many(self):
        filt = small_filter({100, 5000})
        bounds = np.array([[90, 110], [400, 450], [4999, 5001]], dtype=np.uint64)
        got = filt.contains_range_many(bounds)
        assert got[0] and got[2]

    def test_tuned_asks_the_advisor_once_per_argument_set(self, monkeypatch):
        from repro.core.advisor import TuningAdvisor

        calls = []
        real = TuningAdvisor.configure

        def counting(self, *args, **kwargs):
            calls.append(args or kwargs)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TuningAdvisor, "configure", counting)
        args = {"n_keys": 777, "bits_per_key": 13, "max_range": 1 << 17, "seed": 99}
        first, second = BloomRF.tuned(**args), BloomRF.tuned(**args)
        assert len(calls) == 1
        assert first.config is second.config
        assert first.pmhf_bits is not second.pmhf_bits
        fresh = TuningAdvisor().configure(777, 777 * 13, 1 << 17)
        assert first.config == BloomRFConfig.from_dict({**fresh.to_dict(), "seed": 99})


class TestFprSanity:
    def test_point_fpr_tracks_model(self):
        """Measured point FPR within 3x of the analytic estimate."""
        from repro.core.model import basic_point_fpr

        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1 << 64, 20_000, dtype=np.uint64)
        filt = BloomRF.basic(n_keys=20_000, bits_per_key=12)
        filt.insert_many(keys)
        probes = rng.integers(0, 1 << 64, 40_000, dtype=np.uint64)
        measured = float(np.mean(filt.contains_point_many(probes)))
        modeled = basic_point_fpr(
            20_000, filt.size_bits, filt.config.num_layers
        )
        assert measured <= max(3 * modeled, 0.01)

    def test_more_bits_lower_fpr(self):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 1 << 64, 10_000, dtype=np.uint64)
        probes = rng.integers(0, 1 << 64, 20_000, dtype=np.uint64)
        rates = []
        for bpk in (8, 16):
            filt = BloomRF.basic(n_keys=10_000, bits_per_key=bpk)
            filt.insert_many(keys)
            rates.append(float(np.mean(filt.contains_point_many(probes))))
        assert rates[1] < rates[0]
