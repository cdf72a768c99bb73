"""The repository's layered benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig11-sampled-cold --seed 1 \\
        --seconds 20 --trace 0

Runs one workload the way a user would, through the ``repro`` CLI or
``repro serve`` plus ``repro worker``, for ``--seconds`` seconds, and
checks every result against ``perfbench/digests.json``. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``;
the per-layer metrics with ``--trace 1``, from a second, traced pass).
The lines before it print every metric by name and unit, and a
``record`` line with the host, the samples and the digests.

``python3 perfbench/run.py --update-digests`` re-records the digests
after a change that is meant to alter simulated results.

The model is unvalidated against hardware: simulated statistics serve
here only as identity checks, never as accuracy figures.
See ``perfbench/README.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
SHIM = HERE / "shim.py"

NPROC = os.cpu_count() or 1
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Per-workload instruction horizon of the sampled sweep: the smallest
#: at which the 10-region plan's span (22000 instructions, ten windows
#: 2200 apart) divides by 20. The 4-region plan of the same horizon
#: then shares 2 of its 4 windows with it, the 5- and 2-region plans
#: share all of theirs, and every window lies before the programs'
#: halt. A cold sweep's cost is its 360 detailed windows, not the
#: horizon: about 25 s on a 2-CPU host.
HORIZON = 24_949
#: Scale of the unsampled (full-detail) sweep: ~7.5 s on a 2-CPU host.
DETAIL_SCALE = 0.1
#: serve-mixed: closed-loop clients (one re-sweeps, the rest read).
CLIENTS = max(2, NPROC)
#: serve-mixed: resubmissions of the filled sweep each reading client
#: makes per round: fixed, so every round does the same work, and about
#: the first third of a round on a 2-CPU host.
READS = 300
#: serve-mixed: the region counts at which the re-sweeping client
#: re-runs Figure 11 each round, in an order drawn from the seed.
RESWEEP_REGIONS = (4, 5, 2)
#: serve-mixed: the filled sweep's 10 regions.
FILL_REGIONS = 10
#: Seconds between the benchmark's own readiness polls at set-up.
POLL_SECONDS = 0.05
#: Warm sweeps whose every digest is recomputed: the first of each
#: client, then every CHECK_EVERY-th.
CHECK_EVERY = 10
SETUP_REPEATS = 5
#: Iterations of one calibration pass, and the CPU seconds a pass took
#: on a quiet 2-vCPU host (Intel Xeon, Python 3.11.7; 62 ns an
#: iteration): the reference speed the gated times are scaled to. A
#: shared host's vCPUs run at a speed that drifts, by up to 2x within
#: minutes, and CPU time drifts with it; scaling by the passes' time,
#: measured in the same run, follows most of that drift.
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.062
#: Seconds of calibration passes after each operation, per second the
#: operation took: the host's speed also wavers from one second to the
#: next, so the passes sample a long stretch, spread over the run like
#: the operations.
CALIBRATION_SHARE = 0.3
#: A subprocess that takes longer than this is a failure, not a hang.
STEP_TIMEOUT = 150

JOBS = ["--jobs", str(NPROC)]
SAMPLED_ARGS = ["figure11", "--sampled", "--horizon", str(HORIZON), *JOBS]
DETAIL_ARGS = ["figure11", "--scale", str(DETAIL_SCALE), "--no-cache", *JOBS]
ENTRY_SUFFIXES = (".pkl", ".win", ".snap")


# ----------------------------------------------------------------------
# Run context: counts, errors, cache roots, child processes
# ----------------------------------------------------------------------


class Run:
    """One benchmark run: its counts, errors, cache roots and record."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.child_rss_kb = 0
        self.record: dict = {}
        self.roots = 0
        self.calibrations: list[float] = []

    def op(self, ok: bool, why: str = "") -> None:
        """Count one operation (a sweep); a failed one keeps its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(why)

    def error(self, why: str) -> None:
        """A check outside any operation failed."""
        self.errors.append(why)

    def fresh_root(self) -> Path:
        """A new, empty cache root for ``REPRO_CACHE_DIR``."""
        self.roots += 1
        root = self.dir / f"root{self.roots}"
        root.mkdir(parents=True)
        return root

    def calibrate(self, took: float) -> None:
        """Time calibration passes for ``CALIBRATION_SHARE`` of *took*
        seconds, and at least one."""
        end = time.monotonic() + CALIBRATION_SHARE * took
        self.calibrations.append(calibration_pass())
        while time.monotonic() < end:
            self.calibrations.append(calibration_pass())

    def scale(self) -> float:
        """From this host's CPU seconds during the run to the reference
        host's. The passes' mean, like a CPU time, sums the host's speed
        over time."""
        return CALIBRATION_REF_S / statistics.mean(self.calibrations)

    def env(self, root: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(root)
        return env


def calibration_pass() -> float:
    """CPU seconds this process takes for a fixed pure-Python loop."""
    start = time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.process_time() - start


class Usage(NamedTuple):
    rss_kb: int
    #: user plus system CPU seconds
    cpu_s: float


def _reap(proc: subprocess.Popen, timeout: float = STEP_TIMEOUT) -> Usage:
    """Reap *proc*, started in its own session, and return the kernel's
    accounting of its tree: the peak RSS of its largest process and the
    CPU time of it and every child it reaped. Its whole process group,
    pool workers included, is killed past *timeout* or when the wait is
    interrupted."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            try:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            except ChildProcessError:  # already reaped by ``poll``
                return Usage(0, 0.0)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return Usage(usage.ru_maxrss, usage.ru_utime + usage.ru_stime)
            if time.monotonic() > deadline:
                _signal_group(proc, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.005)
    except BaseException:
        _signal_group(proc, signal.SIGKILL)
        proc.wait()
        raise


def group_cpu(pgid: int) -> float:
    """CPU seconds, user plus system, of the live processes of process
    group *pgid*, each with the children it has reaped."""
    ticks = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:  # exited meanwhile
            continue
        # Fields after the command name: state, ppid, pgrp, ... then
        # utime, stime, cutime, cstime at 11-14.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid:
            ticks += sum(map(int, fields[11:15]))
    return ticks / CLOCK_TICKS


def _signal_group(proc: subprocess.Popen, signum: int) -> None:
    try:
        os.killpg(proc.pid, signum)
    except ProcessLookupError:
        pass


def cli(run: Run, args: list[str], root: Path, trace_dir: Path | None = None):
    """Run ``repro <args>`` through the shim; returns ``(wall_s, cpu_s,
    result, stdout)`` or ``(None, None, None, reason)`` when the command
    failed.

    Wall time runs from spawning the process to ``cli.main`` returning,
    so it counts interpreter start-up but not the shim's digesting. CPU
    time is the whole process tree's, pool workers included."""
    run.roots += 1
    result_path = run.dir / f"result{run.roots}.json"
    out_path = run.dir / f"stdout{run.roots}.txt"
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(SHIM), str(result_path),
             str(trace_dir) if trace_dir else "-", "--", *args],
            env=run.env(root), stdout=out, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        usage = _reap(proc)
    run.child_rss_kb = max(run.child_rss_kb, usage.rss_kb)
    if proc.returncode != 0 or not result_path.exists():
        return None, None, None, f"repro {' '.join(args)} exited {proc.returncode}"
    result = json.loads(result_path.read_text())
    return result["done"] - start, usage.cpu_s, result, out_path.read_bytes()


def entry_count(root: Path) -> int:
    return sum(1 for p in root.rglob("*") if p.suffix in ENTRY_SUFFIXES)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def sweep_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def golden(kind: str) -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(kind, {})


def check_sweep(run: Run, kind: str, result, stdout: bytes) -> str:
    """Compare one CLI sweep with the recorded digests; returns the
    reason it differs, or ``""``."""
    expect = golden(kind)
    if not expect:
        return f"no recorded digests for {kind} (run --update-digests)"
    got = {
        "sweep": sweep_digest(result["digests"]),
        "output": hashlib.sha256(stdout).hexdigest(),
    }
    run.record.setdefault("digests", {})[kind] = got
    for name, value in got.items():
        if value != expect[name]:
            return f"{kind} {name} digest {value[:12]} != {expect[name][:12]}"
    return ""


def sampled_requests(regions: int | None = None):
    """The 36 requests of ``figure11 --sampled --horizon HORIZON``
    (with *regions* windows each instead of 10, if given), in the order
    Figure 11 renders them."""
    from repro.harness.experiments import sampled_plan
    from repro.harness.parallel import RunRequest
    from repro.workloads import registry

    return [
        RunRequest(name, mode=mode, **sampled_plan(name, HORIZON, regions))
        for name in registry.all_names()
        for mode in ("base", "slice", "limit")
    ]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def cli_setup(run: Run) -> float:
    """Median CPU time a fresh CLI process takes to open a fresh cache
    root and answer ``repro cache stats``: the start-up every sweep
    pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        root = run.fresh_root()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cache", "stats"],
            env=run.env(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        usage = _reap(proc)
        times.append(usage.cpu_s)
        run.child_rss_kb = max(run.child_rss_kb, usage.rss_kb)
        if proc.returncode != 0:
            run.error(f"repro cache stats exited {proc.returncode}")
        shutil.rmtree(root)
    return statistics.median(times)


def fill_memo(run: Run) -> Path:
    """The checkout's filled root: every result of the sampled sweep,
    built once per source tree by an untimed cold sweep and copied for
    each run, so runs never share a root."""
    from repro.harness.cache import source_tree_hash

    memo = WORK / f"fill-{source_tree_hash()[:16]}-h{HORIZON}"
    if not memo.is_dir():
        root = run.fresh_root()
        _wall, _cpu, result, stdout = cli(run, SAMPLED_ARGS, root)
        why = stdout if result is None else check_sweep(run, "figure11-sampled", result, stdout)
        if why:
            run.error(f"filling the warm root: {why}")
        else:
            try:
                os.rename(root, memo)
            except OSError:  # another run kept its fill first
                shutil.rmtree(root, ignore_errors=True)
    return memo


def filled_root(run: Run, memo: Path) -> Path:
    root = run.fresh_root()
    if memo.is_dir():
        shutil.copytree(memo, root, dirs_exist_ok=True)
    return root


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


def cli_loop(run: Run, kind: str, args: list[str], make_root, after,
             trace_dir=None, cold=False):
    """Repeat one CLI sweep for ``--seconds``: another sweep starts
    while at least half of one still fits, so sweeps nearly as long as
    ``--seconds`` do not flip a run between one and two of them. A
    *cold* sweep must find its cache root empty when the CLI starts.
    Returns the wall and CPU times and the instruction count of one
    sweep."""
    walls: list[float] = []
    cpus: list[float] = []
    insts = sweeps = 0
    start = time.monotonic()
    while True:
        sweeps += 1
        began = time.monotonic()
        root = make_root()
        before = entry_count(root)
        wall, cpu, result, stdout = cli(run, args, root, trace_dir)
        if result is None:
            run.op(False, stdout)
        else:
            why = (
                check_sweep(run, kind, result, stdout)
                or (cold and cold_start(result, root))
                or after(root, before)
            )
            run.op(not why, why)
            walls.append(wall)
            cpus.append(cpu)
            insts = result["insts"]
        if trace_dir is None:
            run.calibrate(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / sweeps / 2 >= run.seconds:
            return walls, cpus, insts


def cold_start(result: dict, root: Path) -> str:
    """Why the cache root the CLI reported was not *root*, empty."""
    if Path(result["cache_root"]).resolve() != root.resolve():
        return f"the CLI used cache root {result['cache_root']}, not {root}"
    if result["root_files"]:
        return f"cold root held {result['root_files']} files at start"
    return ""


def cli_workload(run: Run, kind: str, args: list[str], make_root, after,
                 cold=False):
    setup = cli_setup(run)
    walls, cpus, insts = cli_loop(run, kind, args, make_root, after, cold=cold)
    cpu = statistics.median(cpus) if cpus else 0.0
    wall = statistics.median(walls) if walls else 0.0
    metrics = timing(run, cpu, setup, insts, wall, 1.0 / wall if wall else 0.0)
    run.record["samples"] = {"wall_s": walls, "cpu_s": cpus}
    traced = None
    if run.trace:
        trace_dir = run.dir / "trace"
        trace_dir.mkdir()
        _w, t_cpus, _i = cli_loop(run, kind, args, make_root, after, trace_dir, cold)
        traced = layer_metrics(run, trace_dir, len(t_cpus))
        traced["trace.overhead_frac"] = (
            statistics.median(t_cpus) / cpu - 1.0, "ratio",
        )
    return metrics, traced


def timing(run: Run, cpu: float, setup: float, insts: float, wall: float,
           sweeps: float):
    """The time metrics of one workload's untraced pass: the gated ones
    in CPU time scaled to the reference host's speed, and, printed
    beside them, the raw CPU and the wall-clock ones."""
    scale = run.scale()
    ref_cpu = cpu * scale
    return {
        "cpu_s": (ref_cpu, "s"),
        "setup_s": (setup * scale, "s"),
        "sim_inst_per_cpu_s": (insts / ref_cpu if ref_cpu else 0.0, "inst/s"),
        "raw_cpu_s": (cpu, "s"),
        "calibration_s": (statistics.mean(run.calibrations), "s"),
        "wall_s": (wall, "s"),
        "sim_inst_per_s": (insts / wall if wall else 0.0, "inst/s"),
        "sweeps_per_s": (sweeps, "1/s"),
    }


def fig11_cold(run: Run):
    def discard(root, _before):
        shutil.rmtree(root)
        return ""

    return cli_workload(
        run, "figure11-sampled", SAMPLED_ARGS, run.fresh_root, discard,
        cold=True,
    )


def fig11_warm(run: Run):
    def unchanged(root, before):
        after = entry_count(root)
        if after != before:
            return f"warm sweep stored {after - before} new entries"
        return ""

    root = filled_root(run, fill_memo(run))
    return cli_workload(
        run, "figure11-sampled", SAMPLED_ARGS,
        lambda: root, unchanged,
    )


def detail_full(run: Run):
    def nothing_stored(root, _before):
        stored = entry_count(root)
        shutil.rmtree(root)
        return f"--no-cache sweep stored {stored} entries" if stored else ""

    return cli_workload(
        run, "figure11-detail", DETAIL_ARGS,
        run.fresh_root, nothing_stored,
    )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class Service:
    """``repro serve`` and one ``repro worker`` on one cache root."""

    def __init__(self, run: Run, root: Path, trace_dir: Path | None = None):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}"
        self.env = run.env(root)
        self.trace_dir = trace_dir
        self.procs = [self._spawn("serve", "--port", str(port))]

    def _spawn(self, *args) -> subprocess.Popen:
        argv = (
            [sys.executable, str(SHIM), "-", str(self.trace_dir), "--", *args]
            if self.trace_dir else [sys.executable, "-m", "repro", *args]
        )
        return subprocess.Popen(
            argv, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )

    def start(self, client, request) -> bool:
        """Wait for the server, queue *request*, then start the worker
        and wait for the result. Queueing first makes the worker's first
        claim find the job, so set-up time does not depend on where its
        idle poll happens to be."""
        deadline = time.monotonic() + 30
        while not client.healthz():
            if time.monotonic() > deadline or self.procs[0].poll() is not None:
                return False
            time.sleep(0.01)
        response = client.submit_sweep([request])
        self.procs.append(self._spawn("worker", *JOBS))
        while response["pending"] and time.monotonic() < deadline:
            time.sleep(POLL_SECONDS)
            response = client.poll_sweep(response["sweep"])
        return len(response["results"]) == 1 and not response["failed"]

    def cpu(self) -> float:
        """CPU seconds both processes' trees have used so far."""
        return sum(group_cpu(proc.pid) for proc in self.procs)

    def stop(self) -> int:
        """Stop both processes; returns the sum of their peak RSS (KB),
        since they run side by side."""
        for proc in self.procs:
            _signal_group(proc, signal.SIGTERM)
        return sum(_reap(proc, 10).rss_kb for proc in self.procs)


def probe_request():
    """The request each service start queues: one new single-window
    run, at a depth no Figure 11 plan uses."""
    from repro.harness.experiments import sampled_plan
    from repro.harness.parallel import RunRequest
    from repro.workloads import registry

    name = registry.all_names()[0]
    scale = sampled_plan(name, HORIZON)["scale"]
    return RunRequest(name, mode="base", scale=scale, fast_forward=1100, sample=2000)


def new_windows(regions) -> int:
    """Windows the re-sweeps at *regions* add to the filled root."""
    from repro.harness.experiments import sampled_plan
    from repro.workloads import registry

    def depths(name, count):
        plan = sampled_plan(name, HORIZON, count)
        return {
            plan["fast_forward"] + k * plan["sample_period"]
            for k in range(plan["sample_regions"])
        }

    return 3 * sum(
        len(set().union(*(depths(name, r) for r in regions))
            - depths(name, FILL_REGIONS))
        for name in registry.all_names()
    )


def window_keys(root: Path) -> set[str]:
    return {p.stem for p in (root / "windows").rglob("*.win")}


def sweep_check(kind: str, keys, results, failed, digest: bool) -> str:
    """Check that one service sweep returned the result of every key
    and, if *digest*, that they match the recorded digests."""
    from repro.uarch.stats import stats_digest

    if failed or any(k not in results for k in keys):
        return f"{kind} sweep: {len(results)} results, {len(failed)} failed"
    if not digest:
        return ""
    got = sweep_digest([stats_digest(results[k]) for k in keys])
    want = golden(kind).get("sweep")
    return "" if got == want else f"{kind} service sweep digest differs"


def serve_round(run: Run, url: str, order, sweeps: dict, cold: set):
    """One round of the closed loop. Client 0 re-sweeps Figure 11 at
    each region count of *order*, one sweep after another; each other
    client resubmits the filled sweep ``READS`` times, so every round
    does the same work. *sweeps* maps a region count to its requests
    and their keys. Returns the round's start and end and the round
    trip of every sweep: ``cold`` for the re-sweeps at the region
    counts in *cold*, which need new windows, ``warm`` for those the
    server answers inline from the store."""
    from repro.service.client import ServiceClient

    rtts: dict[str, list[float]] = {"warm": [], "cold": []}
    lock = threading.Lock()

    def one(client, bucket: str, regions: int, check: bool) -> None:
        kind = "figure11-sampled" + (
            f"-r{regions}" if regions != FILL_REGIONS else "")
        requests, keys = sweeps[regions]
        t0 = time.monotonic()
        try:
            results, failed = client.run(requests, deadline=STEP_TIMEOUT)
            rtt = time.monotonic() - t0
            why = sweep_check(kind, keys, results, failed, check)
        except Exception as exc:  # noqa: BLE001 — one failed sweep
            why = f"{kind}: {exc}"
        with lock:
            run.op(not why, why)
            if not why:
                rtts[bucket].append(rtt)

    def resweeper() -> None:
        client = ServiceClient(url)
        for regions in order:
            one(client, "cold" if regions in cold else "warm", regions, True)

    def reader() -> None:
        client = ServiceClient(url)
        for count in range(READS):
            one(client, "warm", FILL_REGIONS, count % CHECK_EVERY == 0)

    threads = [threading.Thread(target=resweeper)] + [
        threading.Thread(target=reader) for _ in range(CLIENTS - 1)
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (start, time.monotonic()), rtts


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at
    least ten samples beyond it: the eleventh-largest sample (the
    largest, at 100, when there are fewer than eleven)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def serve_mixed(run: Run):
    from repro.errors import ServiceError
    from repro.harness.cache import WindowCache, fingerprint
    from repro.service.client import ServiceClient

    memo = fill_memo(run)
    filled = window_keys(memo)
    expect_new = new_windows(RESWEEP_REGIONS)
    cold = {r for r in RESWEEP_REGIONS if new_windows((r,))}
    sweeps = {}
    for regions in (FILL_REGIONS, *RESWEEP_REGIONS):
        requests = sampled_requests(regions)
        sweeps[regions] = requests, [fingerprint(r) for r in requests]
    rng = random.Random(f"serve-mixed:{run.seed}")

    def start(trace_dir=None):
        """Start a service on a copy of the filled root; returns it, the
        root, and the CPU time the start took in the service's and this
        process."""
        root = filled_root(run, memo)
        t0 = time.process_time()
        service = Service(run, root, trace_dir)
        try:
            ok = service.start(ServiceClient(service.url), probe_request())
            took = service.cpu() + time.process_time() - t0
        except ServiceError:
            ok, took = False, 0.0
        except BaseException:
            service.stop()
            raise
        if not ok:
            run.error("service did not come up")
        return service, root, took

    def simulated(root: Path, traced: bool) -> int:
        """Instructions in the windows the worker added to *root* (not
        read back in a traced pass, where the reads would be spans)."""
        added = window_keys(root) - filled
        if len(added) != expect_new:
            run.error(f"re-sweeps added {len(added)} windows, not {expect_new}")
        if traced:
            return 0
        cache = WindowCache(root)
        return sum(
            s.committed + s.ff_insts for s in map(cache.get, added) if s
        )

    def rounds(trace_dir=None):
        """Rounds while at least half of one more fits in ``--seconds``;
        returns their set-up CPU, CPU and wall times, RTTs, and
        instructions. A round's CPU time is the server's, the worker's
        and the clients' (this process's) during the round."""
        out = {"setup": [], "cpu": [], "wall": [], "span": [], "warm": [],
               "cold": [], "insts": 0}
        begin = time.monotonic()
        while True:
            began = time.monotonic()
            order = list(RESWEEP_REGIONS)
            rng.shuffle(order)
            service, root, took = start(trace_dir)
            try:
                cpu = service.cpu() + time.process_time()
                span, rtts = serve_round(run, service.url, order, sweeps, cold)
                cpu = service.cpu() + time.process_time() - cpu
            finally:
                run.child_rss_kb = max(run.child_rss_kb, service.stop())
            out["setup"].append(took)
            out["cpu"].append(cpu)
            out["span"].append(span)
            out["wall"].append(span[1] - span[0])
            for kind, values in rtts.items():
                out[kind].extend(values)
            out["insts"] += simulated(root, trace_dir is not None)
            shutil.rmtree(root)
            if trace_dir is None:
                run.calibrate(time.monotonic() - began)
            elapsed = time.monotonic() - begin
            if elapsed + elapsed / len(out["wall"]) / 2 >= run.seconds:
                return out

    done = rounds()
    setups = list(done["setup"])
    while len(setups) < SETUP_REPEATS:
        service, root, took = start()
        setups.append(took)
        run.child_rss_kb = max(run.child_rss_kb, service.stop())
        shutil.rmtree(root)
    sweeps_done = len(done["warm"]) + len(done["cold"])
    cpu = statistics.median(done["cpu"])
    metrics = timing(
        run, cpu, statistics.median(setups), done["insts"] / len(done["cpu"]),
        statistics.median(done["wall"]), sweeps_done / sum(done["wall"]),
    )
    for kind in ("warm", "cold"):
        if not done[kind]:
            run.error(f"no {kind} sweep completed")
            continue
        value, pct = tail(done[kind])
        metrics[f"{kind}_rtt_p50_ms"] = (1e3 * statistics.median(done[kind]), "ms")
        metrics[f"{kind}_rtt_tail_ms"] = (1e3 * value, "ms")
        run.record[f"{kind}_rtt"] = {
            "n": len(done[kind]), "tail_percentile": round(pct, 2),
        }
    run.record["samples"] = {
        k: [round(v, 6) for v in done[k]]
        for k in ("cpu", "wall", "setup", "cold")
    }

    traced = None
    if run.trace:
        import spans

        trace_dir = run.dir / "trace"
        trace_dir.mkdir()
        spans.install(str(trace_dir))
        t_done = rounds(trace_dir)
        traced = layer_metrics(run, trace_dir, len(t_done["wall"]), t_done["span"])
        if traced["cache.windows.get.hit_ratio"][0] <= 0:
            run.error("the re-sweeps read no window from the filled root")
        traced["trace.overhead_frac"] = (
            statistics.median(t_done["cpu"]) / cpu - 1.0, "ratio",
        )
    return metrics, traced


# ----------------------------------------------------------------------
# Per-layer metrics from a trace
# ----------------------------------------------------------------------


def layer_metrics(run: Run, trace_dir: Path, ops: int, rounds=()):
    """Every per-layer metric from the spans in *trace_dir*. Counts,
    seconds and bytes are per operation of the traced pass: a CLI
    sweep, or a ``serve-mixed`` round (whose ``(start, end)`` are
    *rounds*)."""
    import spans as tracing

    recorded = tracing.load(str(trace_dir))
    for why in tracing.self_times(recorded):
        run.error(f"trace: {why}")
    by_name: dict[str, list[dict]] = {}
    for span in recorded:
        by_name.setdefault(span["name"], []).append(span)
    per = max(ops, 1)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name)) / per

    def self_s(name):
        return sum(s["self"] for s in named(name)) / per

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    children: dict[str, list[dict]] = {}
    for span in recorded:
        children.setdefault(span["parent"], []).append(span)

    def descendants(span):
        for kid in children.get(span["id"], ()):
            yield kid
            yield from descendants(kid)

    units = [s for s in named("parallel.execute") if s["forked"]]
    unit_ms = sorted(1e3 * (s["end"] - s["start"]) for s in units)
    fixed = sum(
        d["end"] - d["start"]
        for unit in units
        for d in descendants(unit)
        if d["name"] in ("workloads.build", "core.init", "fastforward.snapshot_get")
    )
    busy = capacity = 0.0
    retries = 0
    for matrix in named("parallel.run_matrix"):
        mine = [u for u in units if u["parent"] == matrix["id"]]
        if mine:
            phase = max(u["end"] for u in mine) - min(u["start"] for u in mine)
            busy += sum(u["end"] - u["start"] for u in mine)
            capacity += phase * len({u["pid"] for u in mine})
            retries += len(mine) - len({u["request"] for u in mine})
    run_self = sum(s["self"] for s in named("core.run"))
    warm_self = sum(s["self"] for s in named("fastforward.warm"))
    gets = named("cache.runs.get")
    wgets = named("cache.windows.get")

    # Each round re-enqueues the same keys on a fresh root, so every
    # claim is matched with the oldest unclaimed submit of its key.
    events = sorted(
        [(s["end"], 1, s["key"]) for s in named("queue.submit") if s.get("enqueued")]
        + [(s["end"], -1, s["key"]) for s in named("queue.claim") if "key" in s]
    )
    unclaimed: dict[str, list[float]] = {}
    waits = []
    depth = peak = 0
    for t, step, key in events:
        if step > 0:
            unclaimed.setdefault(key, []).append(t)
        elif unclaimed.get(key):
            waits.append(t - unclaimed[key].pop(0))
        else:  # a re-claim after a lease expired
            continue
        depth += step
        peak = max(peak, depth)
    exec_spans = [s for s in named("worker.run_once") if s.get("busy")]
    span_s = sum(end - start for start, end in rounds)
    worker_busy = sum(
        max(0.0, min(s["end"], end) - max(s["start"], start))
        for s in exec_spans
        for start, end in rounds
    )
    sweep_ids = {s["id"] for s in named("client.sweep")}
    polls = [s["parent"] for s in named("client.poll") if s["parent"] in sweep_ids]

    m = {
        "workloads.build.calls": (calls("workloads.build"), "count"),
        "workloads.build.self_s": (self_s("workloads.build"), "s"),
        "core.init.calls": (calls("core.init"), "count"),
        "core.init.self_s": (self_s("core.init"), "s"),
        "core.window_fixed_frac": (
            ratio(fixed, sum(u["end"] - u["start"] for u in units)), "ratio"),
        "core.run.self_s": (self_s("core.run"), "s"),
        "core.run.insts": (total("core.run", "insts") / per, "inst"),
        "core.run.inst_per_s": (ratio(total("core.run", "insts"), run_self), "inst/s"),
        "core.run.host_us_per_cycle": (
            1e6 * ratio(run_self, total("core.run", "cycles")), "us/cycle"),
        "fastforward.prebuild.self_s": (self_s("fastforward.prebuild"), "s"),
        "fastforward.warm_inst_per_s": (
            ratio(total("fastforward.warm", "insts"), warm_self), "inst/s"),
        "fastforward.snapshot_get.calls": (calls("fastforward.snapshot_get"), "count"),
        "fastforward.snapshot_get.self_s": (self_s("fastforward.snapshot_get"), "s"),
        "fastforward.snapshot_put.self_s": (self_s("fastforward.snapshot_put"), "s"),
        "fastforward.snapshot_put.bytes": (
            total("fastforward.snapshot_put", "bytes") / per, "bytes"),
        "parallel.units": (len(units) / per, "count"),
        "parallel.unit.p50_ms": (
            statistics.median(unit_ms) if unit_ms else 0.0, "ms"),
        "parallel.unit.max_ms": (unit_ms[-1] if unit_ms else 0.0, "ms"),
        "parallel.worker_busy_frac": (ratio(busy, capacity), "ratio"),
        "parallel.dispatch_overhead_s": (self_s("parallel.run_matrix"), "s"),
        "parallel.retries": (retries / per, "count"),
        "cache.runs.get.calls": (calls("cache.runs.get"), "count"),
        "cache.runs.get.self_s": (self_s("cache.runs.get"), "s"),
        "cache.runs.get.hit_ratio": (
            ratio(sum(s["hit"] for s in gets), len(gets)), "ratio"),
        "cache.windows.get.hit_ratio": (
            ratio(sum(s["hit"] for s in wgets), len(wgets)), "ratio"),
        "cache.put.self_s": (self_s("cache.put"), "s"),
        "cache.put.bytes": (total("cache.put", "bytes") / per, "bytes"),
        "cache.source_hash.self_s": (self_s("cache.source_hash"), "s"),
        "experiments.render.self_s": (self_s("experiments.figure11"), "s"),
        "queue.submit.self_s": (self_s("queue.submit"), "s"),
        "queue.claim.self_s": (self_s("queue.claim"), "s"),
        "queue.complete.self_s": (self_s("queue.complete"), "s"),
        "queue.wait_s": (statistics.mean(waits) if waits else 0.0, "s"),
        "queue.depth.max": (peak, "count"),
        "worker.exec.self_s": (
            sum(s["self"] for s in exec_spans) / per, "s"),
        "worker.idle_frac": (
            1.0 - ratio(worker_busy, span_s) if span_s else 0.0, "ratio"),
        "client.polls_per_cold_sweep": (
            ratio(len(polls), len(set(polls))), "count"),
        "codec.encode.self_s": (self_s("codec.encode"), "s"),
        "codec.decode.self_s": (self_s("codec.decode"), "s"),
        "server.inline_hit_ratio": (
            ratio(total("server.route", "inline"), total("server.route", "requests")),
            "ratio"),
    }
    run.record["trace"] = {"spans": len(recorded), "ops": ops}
    return m


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = {
    "fig11-sampled-cold": fig11_cold,
    "fig11-sampled-warm": fig11_warm,
    "detail-full": detail_full,
    "serve-mixed": serve_mixed,
}


def host() -> dict:
    from repro.harness.cache import source_tree_hash

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "commit": commit,
        "source_hash": source_tree_hash(),
        "loadavg": os.getloadavg(),
    }


def update_digests() -> int:
    """Record the digests of the sampled and the full-detail sweep
    through the CLI, and of each ``serve-mixed`` re-sweep in this
    process through ``run_matrix`` on an empty root."""
    from repro.harness.parallel import run_matrix
    from repro.uarch.stats import stats_digest

    run = Run("update-digests", 0, 0, False)
    recorded = {}
    try:
        for kind, args in (
            ("figure11-sampled", SAMPLED_ARGS), ("figure11-detail", DETAIL_ARGS)
        ):
            _wall, _cpu, result, stdout = cli(run, args, run.fresh_root())
            if result is None:
                print(stdout, file=sys.stderr)
                return 1
            recorded[kind] = {
                "sweep": sweep_digest(result["digests"]),
                "output": hashlib.sha256(stdout).hexdigest(),
                "requests": result["digests"],
            }
        recorded["figure11-sampled"]["horizon"] = HORIZON
        recorded["figure11-detail"]["scale"] = DETAIL_SCALE
        for regions in RESWEEP_REGIONS:
            os.environ["REPRO_CACHE_DIR"] = str(run.fresh_root())
            digests = [
                stats_digest(s)
                for s in run_matrix(sampled_requests(regions), jobs=NPROC)
            ]
            recorded[f"figure11-sampled-r{regions}"] = {
                "sweep": sweep_digest(digests), "requests": digests,
                "horizon": HORIZON, "regions": regions,
            }
        DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(f"wrote {DIGESTS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "harness" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Requests built here and in the children see no caller's settings.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    if args.update_digests:
        return update_digests()
    if args.workload is None:
        parser.error("--workload is required")

    # A terminated benchmark still stops its children (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.dir.mkdir(parents=True)
    info = host()
    run.calibrate(1.0 / CALIBRATION_SHARE)  # a second before the first operation
    try:
        metrics, traced = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.record["rss_kb"] = {"self": self_kb, "children": run.child_rss_kb}
    metrics["peak_rss_mb"] = ((self_kb + run.child_rss_kb) / 1024, "MB")
    metrics["ok_frac"] = (
        (run.attempted - run.failed) / max(run.attempted, 1), "ratio"
    )
    metrics["failed_frac"] = (run.failed / max(run.attempted, 1), "ratio")
    correct = not run.errors and run.attempted > 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"nproc={NPROC} python={info['python']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, (value, unit) in (traced or {}).items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for why in run.errors:
        print(f"  FAILED: {why}")
    run.record.update(
        workload=args.workload, seed=args.seed, host=info,
        attempted=run.attempted, failed=run.failed,
        calibrations=[round(c, 6) for c in run.calibrations],
        note="simulated statistics are identity checks only; the model "
        "is unvalidated against hardware",
    )
    print("record " + json.dumps(run.record, sort_keys=True))
    chosen = traced if args.trace else metrics
    names = declared("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": chosen[name][0], "unit": chosen[name][1]}
            for name in names
        },
    }))
    return 0 if correct else 1


def declared(section: str) -> list[str]:
    """Metric names BENCHMARK.json declares in *section*."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[section]]


if __name__ == "__main__":
    raise SystemExit(main())
