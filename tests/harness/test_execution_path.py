"""The one execution path: every request is a window schedule walked by
``execute_request``, and the halt-drop rule is decided in
``kept_windows`` alone.

These pin the work the path does, not only its results: full detail
opens no snapshot store, a multi-region request is one functional pass
down its chain, and no window past a halt is measured or even read.
"""

import pytest

from repro.harness import fastforward, parallel
from repro.harness.fastforward import request_plan
from repro.harness.parallel import (
    RunRequest,
    assemble_window_stats,
    execute_request,
    kept_windows,
)


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_schedules():
    """Full detail is one depth-0 window over the whole region, a
    single-window sampled run a chain of length 1, and a multi-region
    run with an explicit period is closed-form."""
    full = request_plan(RunRequest("gzip", 0.05, fast_forward=0, sample=0))
    assert (full.depths, full.sample, full.warmup) == ((0,), 0, 0)
    single = request_plan(
        RunRequest("gzip", 0.05, fast_forward=700, sample=1_000)
    )
    assert (single.depths, single.sample, single.warmup) == (
        (700,), 1_000, 100,
    )
    multi = request_plan(
        RunRequest(
            "gzip", 0.05, fast_forward=100, sample=300,
            sample_regions=3, sample_period=1_000,
        )
    )
    assert multi.depths == (100, 1_100, 2_100)


def test_full_detail_opens_no_snapshot_store(cache_env, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full detail opened a snapshot store")

    monkeypatch.setattr(fastforward.SnapshotStore, "__init__", refuse)
    stats = execute_request(
        RunRequest("gzip", 0.05, fast_forward=0, sample=0)
    )
    assert stats.committed > 0 and stats.ff_insts == 0
    assert not cache_env.exists()


def test_multi_region_is_one_functional_pass(cache_env, monkeypatch):
    """A cold 3-region request builds its chain with one live pass, and
    its snapshots are never rebuilt from the entry point per window."""
    runs = count_calls(monkeypatch, fastforward._LiveRun, "__init__")
    request = RunRequest(
        "gzip", 0.1, sample=300, sample_regions=3, sample_period=2_000,
        fast_forward=1_000,
    )
    stats = execute_request(request)
    assert stats.sample_regions == 3
    assert len(runs) == 1


def test_inline_run_measures_no_window_past_a_halt(cache_env, monkeypatch):
    """mcf@0.2 halts at ~11.1k instructions: of four windows 5k apart,
    the depth-15k one is dropped before it is measured."""
    windows = count_calls(monkeypatch, parallel, "run_window")
    stats = execute_request(
        RunRequest(
            "mcf", 0.2, sample=500, sample_regions=4, sample_period=5_000
        )
    )
    assert stats.sample_regions == 3
    assert len(windows) == 3


class _Window:
    def __init__(self, ff_insts):
        self.ff_insts = ff_insts


def test_kept_windows_stops_at_the_first_short_window():
    def stream():
        yield _Window(0)
        yield _Window(100)
        yield _Window(150)  # halted short of depth 200
        raise AssertionError("read past the dropped window")

    kept = list(
        kept_windows(stream(), (0, 100, 200, 300), lambda w: w.ff_insts)
    )
    assert [w.ff_insts for w in kept] == [0, 100]


def test_first_window_is_always_kept():
    """A fast_forward past the program's end still measures the lone
    first window, whose stats are returned unchanged."""
    first = _Window(10)
    assert list(kept_windows([first], (500,), lambda w: w.ff_insts)) == [
        first
    ]
    assert assemble_window_stats([first], (500,)) is first


def test_missing_window_fails_the_assembly_unless_dropped():
    """A missing (``None``) window ends the walk and fails the
    assembly; one past a halt-drop is never read."""
    depths = (0, 100, 200)

    def kept(windows):
        return list(kept_windows(windows, depths, lambda w: w.ff_insts))

    gap = [_Window(0), None, _Window(200)]
    assert kept(gap)[-1] is None
    assert assemble_window_stats(gap, depths) is None
    halted = [_Window(0), _Window(50), None]
    assert [w.ff_insts for w in kept(halted)] == [0]
