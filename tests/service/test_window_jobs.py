"""Service-side window decomposition: ``repro serve`` turns a
multi-region sweep into per-window ``kind="window"`` jobs, workers
publish each window into the ``windows`` store namespace, and the poll
path reassembles the whole-run aggregate — so a half-warm re-sweep
(8 -> 10 regions, say) enqueues only the missing windows and a fully
warm one is answered with zero simulation.

These drive :meth:`ExperimentServer._route` directly (no HTTP): the
routing layer is exercised end-to-end by ``tests/service/test_service.py``
and the CI service-smoke job.
"""

import dataclasses
import json

import pytest

from repro.harness.cache import fingerprint, window_fingerprint
from repro.harness.parallel import (
    RunRequest,
    execute_request,
    window_depths,
)
from repro.service.codec import decode_stats, encode_request
from repro.service.queue import JobQueue
from repro.service.server import ExperimentServer
from repro.service.store import ContentStore
from repro.service.worker import Worker

#: gzip@0.1 runs ~17.6k dynamic instructions; depths up to 8k all fit.
SWEEP = RunRequest(
    workload="gzip", scale=0.1, mode="base",
    sample=300, sample_regions=3, sample_period=2_000,
)


@pytest.fixture
def server(tmp_path, monkeypatch):
    """A routed-but-unbound server over a temp store + queue (the
    snapshot store shares the same root via REPRO_CACHE_DIR so worker
    chain builds land in tmp too)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    store = ContentStore(tmp_path / "server")
    queue = JobQueue(store.root)
    server = ExperimentServer(store=store, queue=queue, port=0)
    yield server
    queue.close()


def submit(server, requests):
    body = json.dumps(
        {"requests": [encode_request(r) for r in requests]}
    ).encode()
    status, payload = server._route("POST", "/api/sweep", body)
    assert status == 200
    return payload


def poll(server, sid):
    status, payload = server._route("GET", f"/api/sweep/{sid}", b"")
    assert status == 200
    return payload


def drain(server, jobs=None):
    worker = Worker(store=server.store, queue=server.queue, lease=10.0)
    resolved = worker.run(drain=True)
    if jobs is not None:
        assert resolved == jobs
    return worker


def test_sweep_decomposes_into_window_jobs(server):
    first = submit(server, [SWEEP])
    assert first["enqueued"] == 3  # one job per window, not one per run
    assert server.counters["window_jobs"] == 3
    key = fingerprint(SWEEP)
    assert first["pending"] == [key]
    for depth in window_depths(SWEEP):
        job = server.queue.job(window_fingerprint(SWEEP, depth))
        assert job is not None and job.kind == "window"

    drain(server, jobs=3)
    polled = poll(server, first["sweep"])
    assert polled["pending"] == []
    got = decode_stats(polled["results"][key])
    # Bit-identical to the in-process serial loop, every field.
    want = execute_request(SWEEP)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert server.counters["assembled"] == 1
    # Assembly published the aggregate: the run cache now owns the key.
    assert server.store.runs.get_by_key(key) is not None


def test_half_warm_resweep_enqueues_only_missing_windows(server):
    submit(server, [SWEEP])
    drain(server, jobs=3)
    poll(server, submit(server, [SWEEP])["sweep"])

    wider = dataclasses.replace(SWEEP, sample_regions=5)
    second = submit(server, [wider])
    # Parent run-cache key differs (sample_regions fingerprints), but
    # the 3 shared windows are already in the windows namespace: only
    # the 2 new depths become jobs.
    assert second["enqueued"] == 2
    drain(server, jobs=2)
    polled = poll(server, second["sweep"])
    got = decode_stats(polled["results"][fingerprint(wider)])
    want = execute_request(wider)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_fully_warm_sweep_served_at_submit(server):
    """Once every window is published, a *new* parent over the same
    windows is assembled and served inline at submit time — zero jobs,
    zero simulation."""
    submit(server, [SWEEP])
    drain(server, jobs=3)
    # A distinct parent (different region count) whose schedule is a
    # prefix of the published windows.
    narrower = dataclasses.replace(SWEEP, sample_regions=2)
    response = submit(server, [narrower])
    assert response["enqueued"] == 0
    assert response["pending"] == []
    key = fingerprint(narrower)
    got = decode_stats(response["results"][key])
    want = execute_request(narrower)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_requests_without_closed_form_schedule_stay_whole(server):
    """No explicit period -> the schedule depends on workload length,
    which the server must not compute (it never simulates): the request
    stays one ordinary kind='run' job. Unsampled requests likewise."""
    derived = dataclasses.replace(SWEEP, sample_period=0)
    plain = RunRequest(workload="gzip", scale=0.05, mode="base")
    response = submit(server, [derived, plain])
    assert response["enqueued"] == 2
    assert server.counters["window_jobs"] == 0
    for request in (derived, plain):
        job = server.queue.job(fingerprint(request))
        assert job is not None and job.kind == "run"


def test_worker_short_circuits_published_window(server):
    """A claimed window job whose result already landed (another worker
    or an in-process run sharing the store) completes without running."""
    submit(server, [SWEEP])
    depths = window_depths(SWEEP)
    keys = [window_fingerprint(SWEEP, d) for d in depths]
    donor = ContentStore(server.store.root)
    from repro.harness.parallel import window_request

    for depth, wkey in zip(depths, keys):
        donor.windows.put(wkey, execute_request(window_request(SWEEP, depth)))
    worker = drain(server, jobs=3)
    assert worker.completed == 3
    # All three were answered from the store: the queue shows them done.
    assert server.queue.status_counts()["done"] == 3


def test_queue_kind_and_assembly_roundtrip(tmp_path):
    queue = JobQueue(tmp_path)
    try:
        with pytest.raises(ValueError):
            queue.submit(SWEEP, kind="nonsense")
        with pytest.raises(ValueError):
            queue.submit(SWEEP, kind="window")  # window jobs need a key
        queue.save_assembly("k1", {"windows": [[0, "a"], [100, "b"]]})
        assert queue.load_assembly("k1") == {"windows": [[0, "a"], [100, "b"]]}
        assert queue.load_assembly("missing") is None
        queue.save_assembly("k1", {"windows": []})  # idempotent overwrite
        assert queue.load_assembly("k1") == {"windows": []}
    finally:
        queue.close()


def test_halted_chain_assembles_like_serial_run(server):
    """Service-side halt-drop: mcf@0.2 halts at ~11.1k dynamic
    instructions, so the depth-15k window is measured by its job but
    dropped at assembly, exactly as the in-process run drops it."""
    from repro.harness.cache import RunCache
    from repro.harness.parallel import run_matrix

    request = RunRequest(
        workload="mcf", scale=0.2, mode="base",
        sample=500, sample_regions=4, sample_period=5_000,
    )
    first = submit(server, [request])
    assert first["enqueued"] == 4
    drain(server, jobs=4)
    polled = poll(server, first["sweep"])
    assert polled["pending"] == [] and polled["failed"] == {}
    got = decode_stats(polled["results"][fingerprint(request)])
    want = run_matrix(
        [request], jobs=1, cache=RunCache(enabled=False), window_jobs=1
    )[0]
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert got.sample_regions == 3
