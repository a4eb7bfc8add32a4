"""The native probe kernel against the NumPy sweep and the scalar walk.

``contains_point_many`` / ``contains_range_many`` run the C kernel when it
loaded; ``_sweep_points`` / ``_sweep_ranges`` are the NumPy engine (the
fallback) and ``contains_point`` / ``contains_range`` the scalar reference
walk.  All three must agree bit for bit on every configuration and input
shape: exact bitmap on and off, guard flip, replicas, every delta, narrow
domains, a top level of 64, mask probes past ``_MAX_MASK_GROUPS``,
read-only and unaligned word arrays, strided inputs and empty batches.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serial
from repro._util import domain_max
from repro.bitarray import BitArray
from repro.core import native
from repro.core.bloomrf import _MAX_MASK_GROUPS, BloomRF
from repro.core.config import BloomRFConfig


def test_kernel_loads_when_a_compiler_is_on_path():
    """CI must not silently test only the fallback."""
    if native.compiler() is None:
        pytest.skip(native.engine)
    assert native.kernel is not None, (
        f"C compiler present but the probe kernel did not load: "
        f"{native.engine}\n{native.build_log}"
    )
    assert native.engine == "native"


def test_build_is_cached_per_user(tmp_path, monkeypatch):
    if native.compiler() is None:
        pytest.skip(native.engine)
    monkeypatch.setenv("HOME", str(tmp_path))
    lib, engine, _ = native._load()
    assert lib is not None and engine == "native"
    assert len(list((tmp_path / ".cache" / "repro").glob("_probe-*.so"))) == 1

    def no_compiler(*_args, **_kwargs):
        raise AssertionError("a cached kernel was rebuilt")

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native._load()[1] == "native"


def test_unusable_cache_dir_builds_privately(tmp_path, monkeypatch):
    if native.compiler() is None:
        pytest.skip(native.engine)
    home = tmp_path / "not-a-dir"
    home.write_text("")
    monkeypatch.setenv("HOME", str(home))
    lib, engine, _ = native._load()
    assert lib is not None and engine == "native"
    assert lib.brf_fields() == native.FIELDS


def test_fallback_reasons(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(native, "compiler", lambda: None)
    assert native._load() == (None, "numpy: no C compiler on PATH", "")
    failing = [sys.executable, "-c", "import sys; sys.exit('no such flag -O2')"]
    monkeypatch.setattr(native, "compiler", lambda: failing)
    lib, engine, log = native._load()
    assert lib is None and engine == "numpy: kernel build failed"
    assert "no such flag" in log


def test_kernel_source_ships_as_package_data():
    import tomllib
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no source checkout")
    data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]
    assert "core/_probe.c" in data["package-data"]["repro"]
    assert (Path(native.__file__).parent / "_probe.c").is_file()


def assert_engines_agree(filt: BloomRF, points, bounds) -> None:
    points = np.asarray(points, dtype=np.uint64)
    bounds = np.asarray(bounds, dtype=np.uint64).reshape(-1, 2)
    scalar = [filt.contains_point(int(k)) for k in points]
    kernel = filt.contains_point_many(points)
    assert kernel.dtype == np.bool_ and kernel.shape == (points.size,)
    assert kernel.tolist() == scalar
    assert filt._sweep_points(np.ascontiguousarray(points)).tolist() == scalar
    scalar = [filt.contains_range(int(lo), int(hi)) for lo, hi in bounds.tolist()]
    kernel = filt.contains_range_many(bounds)
    assert kernel.dtype == np.bool_ and kernel.shape == (bounds.shape[0],)
    assert kernel.tolist() == scalar
    assert filt._sweep_ranges(np.ascontiguousarray(bounds)).tolist() == scalar


@st.composite
def configs(draw):
    d = draw(st.sampled_from([8, 13, 16, 31, 64]))
    deltas = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    while len(deltas) > 1 and sum(deltas) > d:
        deltas.pop()
    k = len(deltas)
    exact = draw(st.booleans()) and d - sum(deltas) <= 14
    return BloomRFConfig(
        domain_bits=d,
        deltas=tuple(deltas),
        replicas=tuple(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))),
        segment_of=(0,) * k,
        segment_bits=(64 * draw(st.integers(1, 16)),),
        exact_level=sum(deltas) if exact else None,
        degenerate_guard=draw(st.booleans()),
    )


def rows(d: int):
    top = domain_max(d)
    key = st.integers(0, top)
    return st.one_of(
        st.sampled_from([(0, 0), (top, top), (0, top), (0, 1), (top - 1, top)]),
        st.tuples(key, key).map(sorted),
        st.tuples(key, st.integers(0, 70)).map(lambda t: (t[0], min(top, t[0] + t[1]))),
        st.integers(0, d).flatmap(  # aligned dyadic intervals, every level
            lambda lv: st.integers(0, top >> lv).map(
                lambda p: (p << lv, ((p + 1) << lv) - 1)
            )
        ),
        st.tuples(key, st.integers(0, d)).map(  # widths 2^w, up to the domain
            lambda t: (t[0], min(top, t[0] + (1 << t[1])))
        ),
    )


@given(configs(), st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_numpy_and_scalar(config, data):
    filt = BloomRF(config)
    top = domain_max(config.domain_bits)
    keys = data.draw(st.lists(st.integers(0, top), max_size=40))
    filt.insert_many(np.array(keys, dtype=np.uint64))
    probes = data.draw(st.lists(st.integers(0, top), max_size=40))
    bounds = data.draw(st.lists(rows(config.domain_bits), min_size=1, max_size=40))
    bounds += [(k, k) for k in keys[:5]]
    assert_engines_agree(filt, keys + probes + [0, top], bounds)


def top_level_64_filter(exact: bool) -> BloomRF:
    """Nine delta-7 layers plus a delta-1 layer: levels reach 63, and the
    exact bitmap (one bit) sits at level 64."""
    deltas = (7,) * 9 + (1,)
    filt = BloomRF(
        BloomRFConfig(
            domain_bits=64,
            deltas=deltas,
            replicas=(1,) * 10,
            segment_of=(0,) * 10,
            segment_bits=(4096,),
            exact_level=64 if exact else None,
            degenerate_guard=True,
        )
    )
    rng = np.random.default_rng(5)
    filt.insert_many(rng.integers(0, 1 << 64, 30, dtype=np.uint64))
    return filt


@pytest.mark.parametrize("exact", [True, False])
def test_top_level_64(exact):
    filt = top_level_64_filter(exact)
    top = (1 << 64) - 1
    rng = np.random.default_rng(6)
    lo = rng.integers(0, 1 << 64, 200, dtype=np.uint64)
    width = np.uint64(1) << rng.integers(0, 64, 200, dtype=np.uint64)
    hi = np.maximum(lo, lo + width)  # wrapped rows become (lo, lo)
    bounds = np.stack([lo, hi], axis=1).tolist()
    bounds += [[0, top], [0, 0], [top, top], [0, (1 << 63) - 1], [1 << 63, top]]
    assert_engines_agree(filt, np.append(lo, np.array([0, top], dtype=np.uint64)), bounds)


def test_mask_groups_cutoff_answers_maybe():
    """A mask probe over >= _MAX_MASK_GROUPS word groups is a sound
    "maybe" in every engine, even on an empty filter; one just below the
    cutoff is probed group by group and answers "empty"."""
    filt = BloomRF(
        BloomRFConfig(
            domain_bits=64, deltas=(2, 2), replicas=(1, 1),
            segment_of=(0, 0), segment_bits=(256,),
        )
    )
    # Top level 2, two-bit words: prefixes [0, p] span p // 2 + 1 groups.
    below = 8 * (_MAX_MASK_GROUPS - 1) - 1
    above = 8 * (_MAX_MASK_GROUPS + 1) - 1
    assert filt.contains_range_many([[0, below], [0, above]]).tolist() == [False, True]
    assert_engines_agree(filt, [0], [[0, below], [0, above], [0, (1 << 64) - 1]])


def guarded_exact_filter() -> BloomRF:
    filt = BloomRF(
        BloomRFConfig(
            domain_bits=16, deltas=(4, 3, 4), replicas=(2, 1, 3),
            segment_of=(0, 0, 0), segment_bits=(512,), exact_level=11,
            degenerate_guard=True,
        )
    )
    filt.insert_many(np.arange(0, 1 << 16, 997, dtype=np.uint64))
    return filt


def probe_inputs():
    points = np.arange(0, 1 << 16, 61, dtype=np.uint64)
    lo = np.arange(0, 1 << 16, 173, dtype=np.uint64)
    hi = np.minimum(lo + (lo % 300), np.uint64((1 << 16) - 1))
    return points, np.stack([lo, hi], axis=1)


def test_read_only_mapped_words(tmp_path):
    filt = guarded_exact_filter()
    path = tmp_path / "filter.brf"
    path.write_bytes(filt.to_bytes())
    frame = serial.map_frame(path)
    mapped = BloomRF.from_bytes(frame.view)
    assert not mapped.pmhf_bits.words.flags.writeable
    points, bounds = probe_inputs()
    assert_engines_agree(mapped, points, bounds)
    assert mapped.contains_range_many(bounds).tolist() == (
        filt.contains_range_many(bounds).tolist()
    )


def test_unaligned_read_only_words():
    filt = guarded_exact_filter()
    raw = filt.pmhf_bits.to_bytes()
    shifted = memoryview(b"\0" + raw)[1:]
    copy = BloomRF.from_bytes(filt.to_bytes())
    copy._bits = BitArray.from_buffer(shifted, filt.pmhf_bits.num_bits)
    assert copy.pmhf_bits.words.ctypes.data % 8 != 0
    points, bounds = probe_inputs()
    assert_engines_agree(copy, points, bounds)
    assert copy.contains_point_many(points).tolist() == (
        filt.contains_point_many(points).tolist()
    )


def test_strided_inputs():
    filt = guarded_exact_filter()
    points, bounds = probe_inputs()
    strided_points = np.repeat(points, 2)[::2]
    wide = np.stack([bounds[:, 0], bounds[:, 0], bounds[:, 1]], axis=1)
    strided_bounds = wide[:, ::2]
    fortran = np.asfortranarray(bounds)
    assert not strided_points.flags.c_contiguous
    assert not strided_bounds.flags.c_contiguous
    assert not fortran.flags.c_contiguous
    want_points = filt.contains_point_many(np.ascontiguousarray(points))
    want_ranges = filt.contains_range_many(np.ascontiguousarray(bounds))
    assert filt.contains_point_many(strided_points).tolist() == want_points.tolist()
    assert filt.contains_range_many(strided_bounds).tolist() == want_ranges.tolist()
    assert filt.contains_range_many(fortran).tolist() == want_ranges.tolist()
    assert_engines_agree(filt, strided_points, strided_bounds)


def test_empty_batches():
    filt = guarded_exact_filter()
    for got in (
        filt.contains_point_many(np.zeros(0, dtype=np.uint64)),
        filt.contains_range_many(np.zeros((0, 2), dtype=np.uint64)),
        filt.contains_range_many([]),
    ):
        assert got.shape == (0,) and got.dtype == np.bool_


def test_validation_still_runs_before_the_kernel():
    filt = guarded_exact_filter()
    with pytest.raises(ValueError, match="outside"):
        filt.contains_point_many(np.array([1 << 16], dtype=np.uint64))
    with pytest.raises(ValueError, match="empty query range"):
        filt.contains_range_many(np.array([[5, 4]], dtype=np.uint64))
    with pytest.raises(TypeError):
        filt.contains_range_many(np.array([[0.5, 1.0]]))


def test_probes_race_inserts_without_false_negatives():
    """The kernel runs without the GIL while other threads insert: every
    key inserted before a probe started must be found by it."""
    filt = BloomRF.basic(n_keys=4096, bits_per_key=12)
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 1 << 64, 4096, dtype=np.uint64)
    published = [0]
    errors = []

    def writer():
        for start in range(0, keys.size, 16):
            filt.insert_many(keys[start : start + 16])
            published[0] = start + 16

    def reader():
        while published[0] < keys.size and not errors:
            done = keys[: published[0]]
            if not filt.contains_point_many(done).all():
                errors.append("point")
            if not filt.contains_range_many(np.stack([done, done], axis=1)).all():
                errors.append("range")

    def recorded(target):
        def run():
            try:
                target()
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))
                published[0] = keys.size
        return run

    threads = [threading.Thread(target=recorded(writer))]
    threads += [threading.Thread(target=recorded(reader)) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert filt.contains_point_many(keys).all()

