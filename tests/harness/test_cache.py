"""Tests for the content-addressed run cache."""

import dataclasses
import pickle

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import RunCache, fingerprint
from repro.harness.parallel import RunRequest, execute_request, run_matrix

REQUEST = RunRequest(workload="gzip", scale=0.05, mode="base")


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "cache")


def test_hit_returns_identical_stats(cache):
    """Cached stats equal fresh stats, field for field."""
    fresh = execute_request(REQUEST)
    cache.put(REQUEST, fresh)
    cached = cache.get(REQUEST)
    assert cached is not None
    assert dataclasses.asdict(cached) == dataclasses.asdict(fresh)
    assert cache.hits == 1 and cache.misses == 0


def test_miss_then_hit_counters(cache):
    assert cache.get(REQUEST) is None
    cache.put(REQUEST, execute_request(REQUEST))
    assert cache.get(REQUEST) is not None
    assert (cache.hits, cache.misses) == (1, 1)


def test_source_hash_change_invalidates(cache, monkeypatch):
    """Any simulator-source change must turn hits back into misses."""
    cache.put(REQUEST, execute_request(REQUEST))
    assert cache.get(REQUEST) is not None
    monkeypatch.setattr(cache_mod, "_source_hash_cache", "0" * 64)
    assert cache.get(REQUEST) is None


def test_different_requests_different_keys():
    slice_request = dataclasses.replace(REQUEST, mode="slice")
    assert fingerprint(REQUEST) != fingerprint(slice_request)
    scaled = dataclasses.replace(REQUEST, scale=0.06)
    assert fingerprint(REQUEST) != fingerprint(scaled)


def test_corrupted_entry_recovers_by_rerunning(cache):
    """A truncated/garbage entry is deleted and treated as a miss."""
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    path.write_bytes(b"not a pickle")
    assert cache.get(REQUEST) is None
    assert not path.exists()
    # The full matrix path falls back to re-running, not crashing.
    cache.put(REQUEST, stats)
    path.write_bytes(pickle.dumps({"schema": -1, "stats": object()}))
    (result,) = run_matrix([REQUEST], jobs=1, cache=cache)
    assert dataclasses.asdict(result) == dataclasses.asdict(stats)


def test_disabled_cache_never_reads_or_writes(tmp_path):
    cache = RunCache(tmp_path / "cache", enabled=False)
    cache.put(REQUEST, execute_request(REQUEST))
    assert not (tmp_path / "cache").exists()
    assert cache.get(REQUEST) is None


def test_clear_removes_entries(cache):
    cache.put(REQUEST, execute_request(REQUEST))
    assert cache.clear() == 1
    assert cache.get(REQUEST) is None


# ---------------------------------------------------------------------------
# Corruption taxonomy: every flavor of rot is quarantined (moved to
# corrupt/, counted, warned) and falls back to a fresh identical run.
# ---------------------------------------------------------------------------


def _corrupt_dir(cache):
    return cache.root / cache_mod.CORRUPT_SUBDIR


def _assert_quarantined_and_recovers(cache, path, expected):
    assert cache.get(REQUEST) is None  # corrupt -> miss
    assert cache.corruptions == 1
    assert not path.exists()
    assert (_corrupt_dir(cache) / path.name).exists()
    # The matrix path falls back to a fresh, bit-identical run and
    # repopulates the cache.
    (result,) = run_matrix([REQUEST], jobs=1, cache=cache)
    assert dataclasses.asdict(result) == dataclasses.asdict(expected)
    assert cache.get(REQUEST) is not None
    assert cache.corruptions == 1  # no new corruption


def test_truncated_entry_is_quarantined(cache, caplog):
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with caplog.at_level("WARNING", logger="repro.harness.cache"):
        _assert_quarantined_and_recovers(cache, path, stats)
    assert any("quarantined" in r.message for r in caplog.records)


def test_bit_flipped_entry_fails_checksum(cache):
    """A single flipped byte in the payload blob trips the checksum."""
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    _assert_quarantined_and_recovers(cache, path, stats)


def test_foreign_schema_entry_is_quarantined(cache):
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    path.write_bytes(
        pickle.dumps({"schema": 99, "sha256": "0" * 64, "blob": b"x"})
    )
    _assert_quarantined_and_recovers(cache, path, stats)


def test_non_runstats_payload_is_quarantined(cache):
    """A checksum-valid payload holding the wrong object type is still
    rejected: the checksum proves integrity, not provenance."""
    import hashlib

    cache.put(REQUEST, execute_request(REQUEST))
    path = cache._path(fingerprint(REQUEST))
    blob = pickle.dumps({"request": REQUEST, "stats": {"ipc": 2.0}})
    digest = hashlib.sha256(blob).hexdigest().encode()
    path.write_bytes(cache_mod._MAGIC + digest + b"\n" + blob)
    assert cache.get(REQUEST) is None
    assert cache.corruptions == 1


def test_clear_sweeps_quarantine_too(cache):
    cache.put(REQUEST, execute_request(REQUEST))
    path = cache._path(fingerprint(REQUEST))
    path.write_bytes(b"rot")
    assert cache.get(REQUEST) is None
    cache.put(REQUEST, execute_request(REQUEST))
    # One live entry + one quarantined entry.
    assert cache.clear() == 2


# ----------------------------------------------------------------------
# Golden cache keys: warm caches and committed goldens must survive
# refactors of the execution path.
# ----------------------------------------------------------------------

_GOLDEN_SOURCE = "0" * 64
_PINNED = dict(event_driven=True, fused_blocks=True)


def test_golden_cache_keys():
    """``fingerprint``, ``window_fingerprint`` and
    ``snapshot_fingerprint`` for a full-detail, a single-window sampled
    and a multi-region request, under a fixed source hash. A change to
    any of these hex values invalidates every existing cache entry, so
    it needs a schema bump and a note, not a silent re-key."""
    from repro.harness.cache import window_fingerprint
    from repro.harness.fastforward import snapshot_fingerprint
    from repro.uarch.config import EIGHT_WIDE, FOUR_WIDE

    full = RunRequest(
        "mcf", 0.2, mode="base", fast_forward=0, sample=0,
        sample_regions=0, sample_period=0, **_PINNED,
    )
    single = RunRequest(
        "gzip", 0.1, mode="slice", fast_forward=2_000, sample=500,
        sample_regions=0, sample_period=0, **_PINNED,
    )
    multi = RunRequest(
        "mcf", 0.2, mode="limit", config="8-wide",
        overrides=(("memory_latency", 400),), fast_forward=1_000,
        sample=300, sample_regions=4, sample_period=1_000, **_PINNED,
    )
    assert fingerprint(full, _GOLDEN_SOURCE) == (
        "ced294da0644caa7fd764e77571580fbc5496497d1d7d4a6256fd1e51fe6ee8e"
    )
    assert fingerprint(single, _GOLDEN_SOURCE) == (
        "4cc7e3e01b5d3bb57dad4555308508dc8b37fccd18ea9fad5f184e1f21b93ffd"
    )
    assert fingerprint(multi, _GOLDEN_SOURCE) == (
        "dd2650f495c32e6d8f6050670095f225db405856f6c12988d3172d90a7aff43a"
    )
    assert window_fingerprint(single, 2_000, _GOLDEN_SOURCE) == (
        "3de30b7f88058f9612474b2d04025f39390d415e260ec1b1e0c09a5efa45b8b4"
    )
    assert window_fingerprint(multi, 3_000, _GOLDEN_SOURCE) == (
        "808c1adcda2aedd15b47a56266011520c5a4f5904b44faf5425e84a74f596104"
    )
    assert snapshot_fingerprint(
        "gzip", 0.1, 2_000, FOUR_WIDE, True, _GOLDEN_SOURCE
    ) == "5cbe0a578db42450fc8d6b16eb7fd22f57f2748e795e060820f482b64592f026"
    assert snapshot_fingerprint(
        "mcf", 0.2, 3_000, EIGHT_WIDE, True, _GOLDEN_SOURCE
    ) == "9c9636a09fced54d11ed7eaafec630d1c2b3cbb6cd751a880445c0cb186d198e"
    assert snapshot_fingerprint(
        "mcf", 0.2, 3_100, EIGHT_WIDE, False, _GOLDEN_SOURCE
    ) == "3eadd4131828146be4537bf4705267e9eef16f354399f80177b8035410821d0a"
