"""Tests for the sensitivity-sweep helpers."""

from repro.harness.sweep import (
    render_sweep,
    sweep_memory_latency,
    sweep_prediction_slots,
    sweep_window_size,
)
from repro.workloads import registry


def test_memory_latency_sweep_moves_base_ipc():
    workload = registry.build("mcf", scale=0.1)
    points = sweep_memory_latency(workload, (50, 200))
    assert points[0].base.ipc > points[1].base.ipc
    assert all(p.assisted.ipc >= p.base.ipc * 0.95 for p in points)


def test_window_sweep_monotone_baseline():
    workload = registry.build("vpr", scale=0.08)
    points = sweep_window_size(workload, (32, 256))
    assert points[1].base.ipc > points[0].base.ipc


def test_prediction_slot_sweep_runs():
    workload = registry.build("vpr", scale=0.08)
    points = sweep_prediction_slots(workload, (2, 8))
    assert [p.value for p in points] == [2, 8]
    for p in points:
        assert p.assisted.committed == p.base.committed


def test_sweep_results_cacheable(tmp_path):
    """A repeated sweep is served from the cache with identical points."""
    from repro.harness.cache import RunCache

    workload = registry.build("vpr", scale=0.05)
    cache = RunCache(tmp_path / "cache")
    first = sweep_memory_latency(workload, (50, 200), cache=cache)
    assert cache.hits == 0 and cache.misses == 4
    second = sweep_memory_latency(workload, (50, 200), cache=cache)
    assert cache.hits == 4
    for a, b in zip(first, second):
        assert (a.base.ipc, a.assisted.ipc) == (b.base.ipc, b.assisted.ipc)


def test_sweep_falls_back_for_unregistered_workload():
    """Workloads built outside the registry still sweep (sequentially)."""
    workload = registry.build("vpr", scale=0.05)
    workload.name = "hand-rolled"
    points = sweep_window_size(workload, (64,))
    assert points[0].base.committed > 0


def test_render_sweep_format():
    workload = registry.build("vpr", scale=0.05)
    points = sweep_window_size(workload, (64,))
    text = render_sweep("Sweep: window", "entries", points)
    assert "Sweep: window" in text
    assert "64" in text and "%" in text


def test_direct_sweep_matches_matrix_path(tmp_path, monkeypatch):
    """A non-preset config cannot become a RunRequest, so the sweep
    measures it directly; with the preset's values under another name
    it must give the matrix path's stats (config name masked), halted
    chain included: mcf@0.2 halts at ~11.1k instructions, so the
    depth-15k window is dropped and 3 of 4 regions remain."""
    import dataclasses

    from repro.harness.cache import RunCache
    from repro.uarch.config import FOUR_WIDE
    from repro.uarch.stats import stats_digest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    sampling = dict(sample=500, sample_regions=4, sample_period=5_000)
    workload = registry.build("mcf", 0.2)
    direct = sweep_memory_latency(
        workload, (100, 400),
        config=dataclasses.replace(FOUR_WIDE, name="custom"), **sampling,
    )
    matrix = sweep_memory_latency(
        workload, (100, 400), cache=RunCache(enabled=False), **sampling
    )

    def digest(stats):
        return stats_digest(dataclasses.replace(stats, config_name=""))

    for got, want in zip(direct, matrix):
        assert got.value == want.value
        for arm in ("base", "assisted"):
            a, b = getattr(got, arm), getattr(want, arm)
            assert digest(a) == digest(b), (got.value, arm)
            assert a.sample_regions == b.sample_regions == 3
