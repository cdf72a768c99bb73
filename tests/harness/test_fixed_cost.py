"""A window's setup is paid once per process, and no result depends on
what the process ran before.

``execute_request`` reuses the last built workload (a one-entry memo,
each call a fresh-``Program`` shell over it) and every generated
segment's code object (:func:`repro.uarch.fusion.compiled`, a bounded
LRU). These tests pin both halves: the reuse really happens, and it
never leaks into a result."""

import builtins
import dataclasses

import pytest

from repro.harness import parallel
from repro.harness.parallel import RunRequest, execute_request
from repro.uarch import fusion
from repro.workloads import registry


@pytest.fixture
def fresh_process(monkeypatch, tmp_path):
    """An empty workload memo and code cache, and a private store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(parallel, "_last_workload", None)
    monkeypatch.setattr(fusion, "_code_cache", {})


def _count_compiles(monkeypatch) -> list[tuple[str, str]]:
    """Record ``(filename, source)`` of every ``compile()`` call of
    generated code (``<fused:...>``, ``<warm:...>``) from now on."""
    calls: list[tuple[str, str]] = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename.startswith(("<fused:", "<warm:")):
            calls.append((filename, source))
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return calls


def _count_builds(monkeypatch) -> list[tuple[str, float]]:
    builds: list[tuple[str, float]] = []
    real = registry.build

    def counting(name, scale=1.0):
        builds.append((name, scale))
        return real(name, scale=scale)

    monkeypatch.setattr(registry, "build", counting)
    return builds


def test_results_do_not_depend_on_process_history(
    fresh_process, monkeypatch
):
    """gcc's limit run after its base run in the same process equals a
    limit run with nothing before it, simulator meta included. Sharing
    one ``Program`` across the two would carry segment heat over
    (``block_deopts`` 5405 against 5401)."""
    base = RunRequest("gcc", scale=0.1, mode="base")
    limit = dataclasses.replace(base, mode="limit")
    alone = dataclasses.asdict(execute_request(limit))
    monkeypatch.setattr(parallel, "_last_workload", None)
    execute_request(base)
    after_base = dataclasses.asdict(execute_request(limit))
    assert after_base == alone


def test_a_repeated_window_compiles_nothing_and_builds_once(
    fresh_process, monkeypatch
):
    window = RunRequest(
        "vpr", scale=0.1, mode="base", fast_forward=2_000, sample=1_000
    )
    builds = _count_builds(monkeypatch)
    compiles = _count_compiles(monkeypatch)
    first = dataclasses.asdict(execute_request(window))
    fused = [name for name, _ in compiles if name.startswith("<fused:")]
    assert fused, "the window compiled no fused segment at all"
    del compiles[:]
    second = dataclasses.asdict(execute_request(window))
    assert compiles == []
    assert builds == [("vpr", 0.1)]
    # The first run built the window's snapshot; the second read it.
    assert second == dict(first, snapshot_hit=True)


def test_distinct_programs_never_grow_the_code_cache_past_its_bound(
    fresh_process, monkeypatch
):
    bound = 16
    monkeypatch.setattr(fusion, "CODE_CACHE_SIZE", bound)
    compiles = _count_compiles(monkeypatch)
    for seed in range(1, 6):
        execute_request(RunRequest(f"fuzz-{seed:#x}", scale=1.0, mode="base"))
        assert len(fusion._code_cache) <= bound
    assert len(set(compiles)) > bound, "too few programs to test eviction"


def test_code_cache_is_a_bounded_lru(fresh_process):
    cache = fusion._code_cache
    keep = fusion.compiled("kept = 0", "<lru-test>")
    for i in range(fusion.CODE_CACHE_SIZE + 8):
        fusion.compiled(f"x = {i}", "<lru-test>")
        assert fusion.compiled("kept = 0", "<lru-test>") is keep
    assert len(cache) == fusion.CODE_CACHE_SIZE
    assert ("x = 0", "<lru-test>") not in cache


def test_code_cache_holds_its_bound_under_threads(fresh_process, monkeypatch):
    """Threads compiling overlapping sources past the bound never fail
    an eviction, never overfill the cache, and always get the code of
    the source they asked for."""
    import sys
    import threading

    bound = 8
    monkeypatch.setattr(fusion, "CODE_CACHE_SIZE", bound)
    errors: list[BaseException] = []

    def churn(offset: int) -> None:
        try:
            for i in range(400):
                value = (offset + i) % 40
                ns: dict = {}
                exec(fusion.compiled(f"v = {value}", "<stress>"), ns)
                assert ns["v"] == value
                assert len(fusion._code_cache) <= bound
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn, args=(k * 7,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(fusion._code_cache) <= bound
