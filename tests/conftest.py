"""Shared fixtures: deterministic key sets and query helpers."""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.workloads import empty_point_queries, empty_range_queries, uniform_keys

U64_MAX = (1 << 64) - 1


def pytest_addoption(parser):
    """Keep the pyproject timeout keys valid when pytest-timeout is absent.

    CI installs the plugin (it is in the ``[test]`` extra) and enforces
    the per-test timeout; a bare local environment without it would
    otherwise warn about the unknown ``timeout`` / ``timeout_method``
    ini options on every run.  Registering them here (only when the
    plugin is missing — double registration errors) makes the config
    portable: same pyproject, enforcement wherever the plugin exists.
    """
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "per-test timeout in seconds (no-op fallback)")
        parser.addini("timeout_method", "timeout method (no-op fallback)")


@pytest.fixture
def numpy_probe(monkeypatch):
    """Pin BloomRF's batched probes to the NumPy sweep (the kernel's
    fallback and oracle) for one test."""
    from repro.core import native

    monkeypatch.setattr(native, "kernel", None)


@pytest.fixture(scope="session")
def small_keys() -> np.ndarray:
    """5k distinct uniform 64-bit keys, sorted."""
    return uniform_keys(5_000, seed=101)


@pytest.fixture(scope="session")
def medium_keys() -> np.ndarray:
    """40k distinct uniform 64-bit keys, sorted."""
    return uniform_keys(40_000, seed=202)


@pytest.fixture(scope="session")
def absent_points(medium_keys) -> np.ndarray:
    """2k keys guaranteed absent from ``medium_keys``."""
    return empty_point_queries(medium_keys, 2_000, seed=303)


@pytest.fixture(scope="session")
def empty_ranges_small(medium_keys):
    """1k empty ranges of size 64."""
    return empty_range_queries(medium_keys, 1_000, range_size=64, seed=404)


@pytest.fixture(scope="session")
def empty_ranges_large(medium_keys):
    """1k empty ranges of size 10^6."""
    return empty_range_queries(medium_keys, 1_000, range_size=10**6, seed=505)


def assert_no_false_negatives_point(filt_contains, keys, limit: int = 2_000) -> None:
    """Every inserted key must test positive."""
    for key in keys[:limit]:
        assert filt_contains(int(key)), f"false negative for key {int(key)}"


def assert_no_false_negatives_range(
    filt_range, keys, width_left: int, width_right: int, limit: int = 1_000
) -> None:
    """Every range containing an inserted key must test positive."""
    for key in keys[:limit]:
        key = int(key)
        lo = max(0, key - width_left)
        hi = min(U64_MAX, key + width_right)
        assert filt_range(lo, hi), f"false negative for range around {key}"
