"""Span tracing for the layered benchmark, installed from outside the program.

``install(out_dir)`` wraps public functions of each layer (see ``LAYERS``)
so that every call records a span: name, process, start, end, the span
that was open when it was called, and a few counts taken from its
arguments or result. Spans are kept in memory per process and appended
to ``spans-<pid>.jsonl`` in *out_dir* each time a process's outermost
open span closes, so spans from pool workers that exit without running
``atexit`` (``ProcessPoolExecutor`` workers, a terminated server) still
reach the trace. Forked children inherit the open spans of the parent
thread that forked them, which become the parents of their first spans.

``load(out_dir)`` reads the files back and ``self_times`` computes each
span's self time: its duration minus the union of its children's
intervals. Children from other processes count, and a child that does
not lie inside its parent is reported as a nesting error.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

_tracer = None


class Tracer:
    """Per-process span recorder (a forked child resets its buffer)."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.lock = threading.Lock()
        self.local = threading.local()
        self.pid = os.getpid()
        self.forked = False
        self.seq = 0
        self.buffer: list[dict] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The forking thread's open spans stay on its stack as foreign
        # parents; this process only ever flushes its own spans.
        self.lock = threading.Lock()
        self.pid = os.getpid()
        self.forked = True
        self.buffer = []
        self.local.base = len(self._stack())

    def _stack(self) -> list[str]:
        local = self.local
        if not hasattr(local, "stack"):
            local.stack, local.adds, local.base = [], [], 0
        return local.stack

    def open(self) -> str:
        stack = self._stack()
        with self.lock:
            self.seq += 1
            sid = f"{self.pid}.{self.seq}"
        stack.append(sid)
        self.local.adds.append({})
        return sid

    def add(self, key: str, value: float) -> None:
        """Add *value* to a count on the innermost open span."""
        self._stack()
        if self.local.adds:
            adds = self.local.adds[-1]
            adds[key] = adds.get(key, 0) + value

    def close(self, sid: str, name: str, start: float, attrs: dict) -> None:
        end = time.monotonic()
        stack = self._stack()
        stack.pop()
        attrs.update(self.local.adds.pop())
        record = {
            "id": sid,
            "parent": stack[-1] if stack else None,
            "name": name,
            "pid": self.pid,
            "forked": self.forked,
            "start": start,
            "end": end,
            **attrs,
        }
        with self.lock:
            self.buffer.append(record)
            if len(stack) > self.local.base:
                return
            lines, self.buffer = self.buffer, []
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as out:
            out.write("".join(json.dumps(line) + "\n" for line in lines))
            out.flush()


def _wrap(name: str, fn, note=None):
    """Record a span named *name* around every call of *fn*;
    ``note(args, kwargs, result)`` returns extra counts for the span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _tracer
        sid = tracer.open()
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, name, start, {"error": 1})
            raise
        tracer.close(sid, name, start, note(args, kwargs, result) if note else {})
        return result

    return traced


def _hit(args, kwargs, result) -> dict:
    return {"hit": int(result is not None)}


def _run_stats(args, kwargs, result) -> dict:
    return {"insts": result.committed, "cycles": result.cycles}


def _request_id(args, kwargs, result) -> dict:
    return {"request": repr(args[0])}


def _submitted(args, kwargs, result) -> dict:
    key, enqueued = result
    return {"key": key, "enqueued": int(enqueued)}


def _claimed(args, kwargs, result) -> dict:
    return {"key": result.key} if result is not None else {}


def _busy(args, kwargs, result) -> dict:
    return {"busy": int(bool(result))}


def _routed(args, kwargs, result) -> dict:
    method, path = args[1], args[2]
    status, payload = result
    if method == "POST" and path == "/api/sweep" and status == 200:
        return {
            "inline": len(payload["results"]),
            "requests": len(set(payload["keys"])),
        }
    return {}


def _advance(fn):
    """The functional-warming pass: counts the instructions it ran."""

    @functools.wraps(fn)
    def traced(self, ff_insts):
        tracer = _tracer
        sid = tracer.open()
        before = self.executed
        start = time.monotonic()
        try:
            fn(self, ff_insts)
        finally:
            tracer.close(
                sid, "fastforward.warm", start,
                {"insts": self.executed - before},
            )

    return traced


def _count_bytes(fn):
    """``IntegrityStore.store``: charge the blob size to the open span
    (a store ``put``) instead of recording a span of its own."""

    @functools.wraps(fn)
    def counted(self, key, blob):
        _tracer.add("bytes", len(blob))
        return fn(self, key, blob)

    return counted


#: (module, attribute or Class.method, span name, note) per traced call.
LAYERS = (
    ("repro.workloads.registry", "build", "workloads.build", None),
    ("repro.uarch.core", "Core.__init__", "core.init", None),
    ("repro.uarch.core", "Core.run", "core.run", _run_stats),
    ("repro.harness.fastforward", "prebuild_snapshots",
     "fastforward.prebuild", None),
    ("repro.harness.fastforward", "ensure_snapshot",
     "fastforward.ensure", None),
    ("repro.harness.fastforward", "SnapshotStore.get",
     "fastforward.snapshot_get", _hit),
    ("repro.harness.fastforward", "SnapshotStore.put",
     "fastforward.snapshot_put", None),
    ("repro.harness.parallel", "run_matrix", "parallel.run_matrix", None),
    ("repro.harness.parallel", "execute_request", "parallel.execute",
     _request_id),
    ("repro.harness.cache", "RunCache.get", "cache.runs.get", _hit),
    ("repro.harness.cache", "RunCache.get_by_key", "cache.runs.get", _hit),
    ("repro.harness.cache", "RunCache.put", "cache.put", None),
    ("repro.harness.cache", "WindowCache.get", "cache.windows.get", _hit),
    ("repro.harness.cache", "WindowCache.put", "cache.put", None),
    ("repro.harness.cache", "source_tree_hash", "cache.source_hash", None),
    ("repro.harness.experiments", "experiment_figure11",
     "experiments.figure11", None),
    ("repro.service.queue", "JobQueue.submit", "queue.submit", _submitted),
    ("repro.service.queue", "JobQueue.claim", "queue.claim", _claimed),
    ("repro.service.queue", "JobQueue.complete", "queue.complete", None),
    ("repro.service.worker", "Worker.run_once", "worker.run_once", _busy),
    ("repro.service.codec", "encode_request", "codec.encode", None),
    ("repro.service.codec", "encode_stats", "codec.encode", None),
    ("repro.service.codec", "decode_request", "codec.decode", None),
    ("repro.service.codec", "decode_stats", "codec.decode", None),
    ("repro.service.server", "ExperimentServer._route", "server.route",
     _routed),
    ("repro.service.client", "ServiceClient.run", "client.sweep", None),
    ("repro.service.client", "ServiceClient.poll_sweep", "client.poll", None),
)

#: Modules whose ``from x import y`` bindings must see the wrappers.
_BINDING_MODULES = (
    "repro.harness.cli",
    "repro.harness.experiments",
    "repro.harness.parallel",
    "repro.harness.fastforward",
    "repro.harness.runner",
    "repro.harness.cache",
    "repro.service.server",
    "repro.service.worker",
    "repro.service.client",
    "repro.service.queue",
    "repro.service.codec",
    "repro.service.store",
)


def install(out_dir: str) -> None:
    """Wrap every call in ``LAYERS`` (idempotent per process)."""
    global _tracer
    if _tracer is not None:
        return
    _tracer = Tracer(out_dir)
    modules = [importlib.import_module(name) for name in _BINDING_MODULES]
    for module_name, attr, span, note in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, _wrap(span, vars(owner)[method], note))
            continue
        original = getattr(module, attr)
        traced = _wrap(span, original, note)
        for bound in (module, *modules):
            for name, value in list(vars(bound).items()):
                if value is original:
                    setattr(bound, name, traced)
    # The CLI dispatches experiments through a table of functions.
    cli = importlib.import_module("repro.harness.cli")
    experiments = importlib.import_module("repro.harness.experiments")
    cli.EXPERIMENTS["figure11"] = experiments.experiment_figure11
    fastforward = importlib.import_module("repro.harness.fastforward")
    fastforward._LiveRun.advance = _advance(fastforward._LiveRun.advance)
    blobstore = importlib.import_module("repro.harness.blobstore")
    blobstore.IntegrityStore.store = _count_bytes(blobstore.IntegrityStore.store)


# ----------------------------------------------------------------------
# Reading a trace back
# ----------------------------------------------------------------------


def load(out_dir: str) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as lines:
            spans.extend(json.loads(line) for line in lines if line.strip())
    return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> list[str]:
    """Set ``span["self"]`` on every span; return nesting errors.

    A child must start and end inside its parent; only then is the
    union of its children's intervals (clipped to the span) a share of
    the span, and self time never negative. Children whose parent is
    not in the trace (a span still open when its process was stopped)
    are treated as roots.
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[str, list[dict]] = {}
    errors = []
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        if span["start"] < parent["start"] or span["end"] > parent["end"]:
            errors.append(
                f"{span['name']} ({span['pid']}) is not inside its parent "
                f"{parent['name']} ({parent['pid']})"
            )
        children.setdefault(parent["id"], []).append(span)
    for span in spans:
        kids = children.get(span["id"], ())
        covered = _covered(
            [(kid["start"], kid["end"]) for kid in kids],
            span["start"], span["end"],
        )
        span["self"] = span["end"] - span["start"] - covered
    return errors
