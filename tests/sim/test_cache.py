"""ResultCache hygiene and eviction tests.

The sharded/evicting rewrite of :class:`~repro.sim.runner.ResultCache`
keeps the historical on-disk format (``root/<key[:2]>/<key>.pkl``,
atomic tmp + ``os.replace`` publication) and adds: corrupt entries
unlinked on read, orphaned ``*.tmp`` debris swept on open (age-gated),
and an optional ``max_bytes`` cap enforced by LRU eviction with entry
mtime as the recency clock. ``tests/sim/test_runner.py`` covers the
basic store/concurrency behaviour; this module covers the new
machinery.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import MetricsRegistry
from repro.sim.runner import ResultCache


def entry_bytes(value) -> int:
    """On-disk size of one cached entry holding ``value``."""
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def set_age(path: Path, age_s: float) -> None:
    """Backdate ``path``'s mtime by ``age_s`` seconds."""
    then = time.time() - age_s
    os.utime(path, (then, then))


class TestCorruptEntries:
    def test_garbage_entry_is_unlinked_and_missed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa11", {"x": 1})
        path = Path(cache._path("aa11"))
        path.write_bytes(b"definitely not a pickle")

        assert cache.get("aa11") is None
        assert not path.exists(), "corrupt entry left on disk"
        assert cache.corrupt_dropped == 1
        assert cache.misses == 1
        # The slot is now a plain (cheap) miss, not a repeated failure.
        assert cache.get("aa11") is None
        assert cache.corrupt_dropped == 1
        assert cache.misses == 2

    def test_truncated_pickle_is_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("bb22", list(range(100)))
        path = Path(cache._path("bb22"))
        path.write_bytes(path.read_bytes()[:-10])

        assert cache.get("bb22") is None
        assert not path.exists()
        assert cache.corrupt_dropped == 1

    def test_unlink_adjusts_size_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa11", b"x" * 100)
        cache.put("ab22", b"y" * 100)
        before = cache.total_bytes
        path = Path(cache._path("aa11"))
        path.write_bytes(b"junk")  # external corruption: untracked
        cache.get("aa11")
        # The unlink subtracts what was actually on disk (the 4 junk
        # bytes); the delta between entry and junk size self-heals at
        # the next eviction re-scan.
        assert cache.total_bytes == before - len(b"junk")

    def test_overwrite_then_read_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cc33", "old")
        cache.put("cc33", "new")
        assert cache.get("cc33") == "new"
        assert len(cache) == 1


class TestStaleTmpSweep:
    def test_open_sweeps_old_debris_keeps_young_and_entries(self, tmp_path):
        cache = ResultCache(tmp_path, sweep_stale=False)
        cache.put("aa11", 1)
        shard = tmp_path / "aa"
        old = shard / "orphan-old.tmp"
        old.write_bytes(b"debris")
        set_age(old, 7200.0)
        young = shard / "orphan-young.tmp"
        young.write_bytes(b"in-flight write")

        reopened = ResultCache(tmp_path)  # default: sweep on open
        assert reopened.stale_tmp_removed == 1
        assert not old.exists(), "stale tmp survived the sweep"
        assert young.exists(), "live writer's tmp was swept"
        assert reopened.get("aa11") == 1, "real entry was swept"

    def test_sweep_disabled_leaves_debris(self, tmp_path):
        cache = ResultCache(tmp_path, sweep_stale=False)
        cache.put("aa11", 1)
        old = tmp_path / "aa" / "orphan.tmp"
        old.write_bytes(b"debris")
        set_age(old, 7200.0)
        ResultCache(tmp_path, sweep_stale=False)
        assert old.exists()

    def test_explicit_sweep_respects_age(self, tmp_path):
        cache = ResultCache(tmp_path, sweep_stale=False)
        (tmp_path / "aa").mkdir()
        for age in (10.0, 100.0, 1000.0):
            path = tmp_path / "aa" / f"orphan-{age:.0f}.tmp"
            path.write_bytes(b"x")
            set_age(path, age)
        assert cache.sweep_stale_tmp(age_s=500.0) == 1
        assert cache.sweep_stale_tmp(age_s=50.0) == 1
        assert cache.sweep_stale_tmp(age_s=50.0) == 0
        assert cache.stale_tmp_removed == 2


class TestLRUEviction:
    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put(f"{i:02x}c0de", b"x" * 1000)
        assert len(cache) == 20
        assert cache.evictions == 0

    def test_oldest_entry_is_evicted_first(self, tmp_path):
        payload = b"x" * 1000
        size = entry_bytes(payload)
        cache = ResultCache(tmp_path, max_bytes=int(2.5 * size))
        cache.put("aa01", payload)
        cache.put("bb02", payload)
        set_age(Path(cache._path("aa01")), 100.0)
        set_age(Path(cache._path("bb02")), 50.0)

        cache.put("cc03", payload)  # over cap -> evict LRU (aa01)
        assert cache.get("aa01") is None
        assert cache.get("bb02") == payload
        assert cache.get("cc03") == payload
        assert cache.evictions == 1
        assert cache.evicted_bytes == size
        assert cache.total_bytes == 2 * size

    def test_get_refreshes_recency(self, tmp_path):
        payload = b"x" * 1000
        size = entry_bytes(payload)
        cache = ResultCache(tmp_path, max_bytes=int(2.5 * size))
        cache.put("aa01", payload)
        cache.put("bb02", payload)
        set_age(Path(cache._path("aa01")), 100.0)
        set_age(Path(cache._path("bb02")), 50.0)
        assert cache.get("aa01") == payload  # bumps aa01's mtime to now

        cache.put("cc03", payload)
        assert cache.get("aa01") == payload, "recently-read entry evicted"
        assert cache.get("bb02") is None

    def test_just_written_entry_is_never_its_own_victim(self, tmp_path):
        small = b"s" * 100
        cache = ResultCache(tmp_path, max_bytes=entry_bytes(small) + 1)
        cache.put("aa01", small)
        big = b"b" * 10_000
        cache.put("bb02", big)  # alone exceeds the cap
        assert cache.get("bb02") == big
        assert cache.get("aa01") is None
        assert len(cache) == 1

    def test_registry_instruments_track_eviction(self, tmp_path):
        registry = MetricsRegistry()
        payload = b"x" * 1000
        size = entry_bytes(payload)
        cache = ResultCache(
            tmp_path, registry=registry, max_bytes=int(2.5 * size)
        )
        cache.put("aa01", payload)
        cache.put("bb02", payload)
        set_age(Path(cache._path("aa01")), 100.0)
        cache.put("cc03", payload)
        cache.get("bb02")
        cache.get("aa01")
        snapshot = registry.as_dict()
        assert snapshot["cache_puts_total"] == 3
        assert snapshot["cache_evictions_total"] == 1
        assert snapshot["cache_evicted_bytes_total"] == size
        assert snapshot["cache_hits_total"] == 1
        assert snapshot["cache_misses_total"] == 1
        assert snapshot["cache_bytes"] == 2 * size

    def test_eviction_pressure_gauge_tracks_window(self, tmp_path):
        """Evictions raise evicted-bytes/s; the gauge decays as they age."""
        from repro.sim.runner import EVICTION_PRESSURE_WINDOW_S

        registry = MetricsRegistry()
        payload = b"x" * 1000
        size = entry_bytes(payload)
        cache = ResultCache(
            tmp_path, registry=registry, max_bytes=int(2.5 * size)
        )
        assert cache.eviction_pressure == 0.0
        assert registry.as_dict()["cache_evictions_pressure"] == 0.0

        cache.put("aa01", payload)
        cache.put("bb02", payload)
        set_age(Path(cache._path("aa01")), 100.0)
        cache.put("cc03", payload)  # evicts aa01
        expected = size / EVICTION_PRESSURE_WINDOW_S
        assert cache.eviction_pressure == pytest.approx(expected)
        assert registry.as_dict()["cache_evictions_pressure"] == (
            pytest.approx(expected)
        )

        # Slide the window past the eviction: the next put decays it.
        cache._eviction_events[0] = (
            cache._eviction_events[0][0] - 2 * EVICTION_PRESSURE_WINDOW_S,
            cache._eviction_events[0][1],
        )
        cache.put("bb02", payload)
        assert cache.eviction_pressure == 0.0
        assert registry.as_dict()["cache_evictions_pressure"] == 0.0

    def test_shard_byte_gauges_track_puts_and_evictions(self, tmp_path):
        """Per-shard gauges follow puts; evicted-empty shards report 0."""
        registry = MetricsRegistry()
        payload = b"x" * 1000
        size = entry_bytes(payload)
        cache = ResultCache(
            tmp_path, registry=registry, max_bytes=int(2.5 * size)
        )
        cache.put("aa01", payload)
        cache.put("bb02", payload)
        snapshot = registry.as_dict()
        assert snapshot['cache_shard_bytes{shard="aa"}'] == size
        assert snapshot['cache_shard_bytes{shard="bb"}'] == size

        set_age(Path(cache._path("aa01")), 100.0)
        cache.put("cc03", payload)  # evicts aa01, emptying shard aa
        snapshot = registry.as_dict()
        assert snapshot['cache_shard_bytes{shard="aa"}'] == 0
        assert snapshot['cache_shard_bytes{shard="bb"}'] == size
        assert snapshot['cache_shard_bytes{shard="cc"}'] == size

    def test_shard_gauges_published_without_size_cap(self, tmp_path):
        """An uncapped cache (the serve default) still exports shards."""
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        payload = b"x" * 500
        cache.put("aa01", payload)
        assert registry.as_dict()['cache_shard_bytes{shard="aa"}'] == (
            entry_bytes(payload)
        )

    def test_bad_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_reopened_cache_scans_existing_size(self, tmp_path):
        payload = b"x" * 1000
        ResultCache(tmp_path).put("aa01", payload)
        reopened = ResultCache(tmp_path, max_bytes=10 * entry_bytes(payload))
        assert reopened.total_bytes == entry_bytes(payload)


class TestEvictionUnderPressure:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=0, max_value=4000),
            min_size=1, max_size=25,
        ),
        cap=st.integers(min_value=64, max_value=8192),
    )
    def test_cap_invariants_hold_for_any_put_sequence(self, sizes, cap):
        """After every put: under the cap, or only the new entry remains.

        And the just-written entry is always readable — eviction must
        never throw away what the caller is about to use.
        """
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root, max_bytes=cap, sweep_stale=False)
            for i, size in enumerate(sizes):
                key = f"{i:02x}cafe"
                payload = b"x" * size
                cache.put(key, payload)
                assert cache.get(key) == payload
                files = list(Path(root).glob("*/*.pkl"))
                on_disk = sum(p.stat().st_size for p in files)
                assert on_disk <= cap or [p.name for p in files] == [
                    f"{key}.pkl"
                ], (
                    f"cap {cap} violated with {len(files)} entries "
                    f"({on_disk} bytes) after put #{i}"
                )
            # Tracked accounting equals the on-disk truth at the end.
            actual = sum(
                p.stat().st_size for p in Path(root).glob("*/*.pkl")
            )
            assert cache.total_bytes == actual
            assert cache.evicted_bytes == sum(
                entry_bytes(b"x" * s) for s in sizes
            ) - actual
