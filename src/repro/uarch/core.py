"""The out-of-order SMT core (Table 1) with slice-execution hardware.

Execution-driven simulation: the front end follows *predicted* PCs and
executes instructions functionally at fetch against journaled state, so
wrong paths are really fetched and executed; branch resolution rolls the
journal back and redirects fetch. Scheduling is dataflow-driven with
same-cycle schedule/execute and a perfect load hit/miss predictor, as in
the paper.

Slice extensions (Sections 4-5): the slice table CAMs every fetched
main-thread PC; on a match an idle context is forked (live-in registers
copied), and the helper thread's fetched instructions share bandwidth,
window slots, functional units, and the L1 D-cache. PGIs route computed
directions to the prediction correlator; fetched main-thread PCs are
also CAMed against the correlator's kill and branch-queue entries.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from itertools import count as _counter

from repro.arch.exceptions import Fault
from repro.arch.interpreter import execute
from repro.errors import DeadlockError, SliceRunawayError
from repro.arch.memory import Memory
from repro.isa.opcodes import INSTRUCTION_BYTES, OpClass, Opcode
from repro.isa.program import Program
from repro.slices.correlator import PredictionCorrelator
from repro.slices.hw import PGITable, SliceTable
from repro.slices.spec import PGIKind, SliceSpec
from repro.uarch.branch.frontend_predictor import BranchPrediction, FrontEndPredictor
from repro.uarch.cache import DataHierarchy
from repro.uarch.confidence import ForkConfidenceEstimator
from repro.uarch.config import FOUR_WIDE, MachineConfig
from repro.uarch.fusion import (
    FUSABLE_OPS,
    HOT_THRESHOLD,
    MIN_FUSE_LEN,
    compile_segment,
    fusion_default,
)
from repro.uarch.perfect import NO_PERFECT, PerfectSpec
from repro.uarch.prefetch import StreamPrefetcher
from repro.uarch.smt import ThreadContext, ThreadKind, any_fetchable, icount_order
from repro.uarch.stats import RunStats
from repro.uarch.window import WindowEntry


class Core:
    """A simulated machine instance, ready to :meth:`run` one program."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig = FOUR_WIDE,
        slices: tuple[SliceSpec, ...] = (),
        perfect: PerfectSpec = NO_PERFECT,
        memory_image: dict[int, int] | None = None,
        region: int | None = None,
        warmup: int = 0,
        dedicated_slice_resources: bool = False,
        fork_confidence: "ForkConfidenceEstimator | None" = None,
        direction_predictor=None,
        cycle_accounting: bool = False,
        workload_name: str = "",
        event_driven: bool = True,
        strict_slices: bool = False,
        fused_blocks: bool | None = None,
        snapshot=None,
        memory_normalized: bool = False,
    ):
        #: Optional restore point: a warmed-state snapshot from
        #: :mod:`repro.harness.fastforward` (duck-typed so the uarch
        #: layer stays independent of the harness). The run starts at
        #: the snapshot's architectural state — PC, registers, memory —
        #: with its warmed cache/predictor images installed below, and
        #: the program's block caches dropped so fused segments rebuild
        #: cleanly against the restored machine.
        self.snapshot = snapshot
        if snapshot is not None:
            program.drop_block_caches()
        self.program = program
        self.config = config
        self.perfect = perfect
        self.region = region
        #: Committed instructions to run before measurement begins (the
        #: paper warms caches and predictors before its 100M regions).
        #: All statistics are reset at the warmup boundary; ``region``
        #: counts post-warmup commits.
        self.warmup = warmup
        self._warmed = warmup == 0
        self.dedicated_slice_resources = dedicated_slice_resources
        #: Optional Section 6.3 extension: confidence-gated forking.
        self.fork_confidence = fork_confidence
        #: Per-instance cold-miss evidence, kept until the correlator
        #: retires the instance and its usefulness is finally known.
        self._instance_missed: dict[int, bool] = {}
        self.cycle_accounting = cycle_accounting
        #: Event-driven cycle skipping: when the machine is provably
        #: idle (nothing fetchable, issuable, or committable), jump
        #: straight to the next wake-up event instead of stepping every
        #: cycle. ``False`` preserves the classic stepping loop (the
        #: ``--no-skip`` escape hatch); both produce identical stats.
        self.event_driven = event_driven
        #: Debug mode for slice authors: raise
        #: :class:`~repro.errors.SliceRunawayError` when a helper
        #: thread blows its instruction fuse instead of silently
        #: containing it.
        self.strict_slices = strict_slices
        #: Fused basic-block execution tier (:mod:`repro.uarch.fusion`):
        #: fetch groups inside a basic block execute as one generated
        #: call. ``False`` keeps the per-instruction tier everywhere
        #: (the ``--no-fuse`` escape hatch); both produce identical
        #: stats up to :data:`~repro.uarch.stats.SIMULATOR_META_FIELDS`.
        #: ``None`` defers to :func:`~repro.uarch.fusion.fusion_default`
        #: (the ``REPRO_NO_FUSE`` environment switch).
        if fused_blocks is None:
            fused_blocks = fusion_default()
        self.fused_blocks = fused_blocks

        if snapshot is not None:
            # Snapshot images are Memory.snapshot() output: already
            # aligned and signed, so skip per-word re-normalization
            # (a 10^7-instruction prefix carries millions of words).
            self.memory = Memory(snapshot.memory_words, normalized=True)
        else:
            # memory_normalized promises the image is already in
            # Memory's internal form (aligned keys, signed values) —
            # true of Workload images, which normalize at build time —
            # so the restore is a dict copy, not a per-word pass over
            # what can be millions of words.
            self.memory = Memory(
                memory_image if memory_image is not None else program.data,
                normalized=memory_normalized and memory_image is not None,
            )
        self.hierarchy = DataHierarchy(config)
        self.prefetcher = StreamPrefetcher(config.prefetch, self.hierarchy)
        self.prefetcher.attach()
        self.predictor = FrontEndPredictor(
            config.branch, direction_predictor=direction_predictor
        )

        self.slice_table = SliceTable(config.slice_hw.slice_table_entries)
        self.pgi_table = PGITable(config.slice_hw.pgi_table_entries)
        self.correlator = PredictionCorrelator(config.slice_hw)
        for spec in slices:
            self.slice_table.load(spec)
            self.pgi_table.load(spec)
            self.correlator.register_slice(spec)
        if fork_confidence is not None:
            self.correlator.instance_retired_listener = self._on_instance_retired
        self._slices_enabled = bool(slices)
        #: Fetch-path CAM views: live references to the slice table's
        #: fork-PC map and the correlator's kill map (dict membership is
        #: checked on every main-thread fetch).
        self._fork_pc_map = self.slice_table._by_fork_pc
        self._kill_pc_map = self.correlator._kill_map
        #: Loads covered by VALUE-kind PGIs (the value-prediction
        #: extension from the paper's conclusion).
        self._value_load_pcs = {
            pgi.branch_pc
            for spec in slices
            for pgi in spec.pgis
            if pgi.kind is PGIKind.VALUE
        }
        #: Indirect branches covered by TARGET-kind PGIs.
        self._target_branch_pcs = {
            pgi.branch_pc
            for spec in slices
            for pgi in spec.pgis
            if pgi.kind is PGIKind.TARGET
        }

        self.threads = [ThreadContext(i) for i in range(config.thread_contexts)]
        self._main = self.threads[0]
        self._main.activate_main(program, self.memory)
        if snapshot is not None:
            # Architectural restore: the functional fast-forward's
            # registers and PC. Memory was restored above; the warmed
            # microarchitectural images (if the snapshot carries them)
            # overwrite the cold-start hierarchy/predictor.
            state = self._main.state
            state.pc = snapshot.pc
            state.regs.load_values(dict(enumerate(snapshot.regs)))
            if snapshot.hierarchy_image is not None:
                self.hierarchy.load_warm_image(snapshot.hierarchy_image)
            if snapshot.predictor_image is not None:
                self.predictor.load_warm_image(snapshot.predictor_image)
            prefetcher_image = getattr(snapshot, "prefetcher_image", None)
            if prefetcher_image is not None:
                self.prefetcher.load_warm_image(prefetcher_image)

        self.stats = RunStats(
            config_name=config.name, workload_name=workload_name
        )
        self.cycle = 0
        self._next_vn = 0
        self._next_instance = 0
        self._window_count = 0
        #: Live helper-thread contexts; lets the per-cycle fetch/commit
        #: loops take a main-thread-only fast path between activations.
        self._active_slice_count = 0
        #: The same contexts as a list in thread order, maintained at
        #: activation/release so the per-cycle loops never rebuild it.
        self._active_slices: list[ThreadContext] = []
        #: The perfect overlay covers at least one load (issue-path
        #: fast-out: the common no-overlay run skips the per-load call).
        self._has_perfect_loads = bool(
            perfect.all_loads or perfect.load_pcs
        )
        self._ready: list[tuple[int, int, WindowEntry]] = []
        self._completions: list[tuple[int, int, WindowEntry]] = []
        self._seq = _counter()
        self._done = False
        #: Slice-thread live-in producers: thread id -> {reg: producer}.
        self._livein_producers: dict[int, dict[int, WindowEntry]] = {}
        #: Fork bookkeeping that outlives the slice's thread context: a
        #: fork squash must reach the correlator even if the helper
        #: thread already finished and released its context.
        self._forked: deque[tuple[int, int]] = deque()  # (fork_vn, instance)

        #: Fused-tier state: compiled segments keyed by entry PC, the
        #: set of PCs worth compiling (block leaders, later extended
        #: with resume points of partial groups) and the program block
        #: version the compiles are valid for. The containers are
        #: mutated in place — ``_fetch`` holds local references.
        self._fused: dict[int, object] = {}
        self._fusable_pcs: set[int] = set()
        self._fuse_version = program.block_version
        if self._slices_enabled:
            cam_pcs = frozenset(
                set(self._kill_pc_map)
                | set(self._fork_pc_map)
                | self._value_load_pcs
            )
        else:
            cam_pcs = frozenset()
        #: Program-wide segment-cache key: two Cores over the same
        #: Program share compiled segments iff their fetch width,
        #: front-end depth, and CAM exclusions agree.
        self._fuse_key = (config.width, config.frontend_stages, cam_pcs)
        if fused_blocks:
            self._fusable_pcs.update(program.basic_blocks().keys())

    # ==================================================================
    # Top-level loop
    # ==================================================================

    def run(self, max_cycles: int = 50_000_000) -> RunStats:
        """Simulate until the region commits (or *max_cycles*).

        The cyclic-garbage collector is paused for the duration of the
        loop: the window churns through short-lived entry/result objects
        whose periodic generation scans cost ~20% of simulation time.
        Entries break their reference cycles when they die (commit or
        squash clears ``waiters``/``prev_writer``), so plain reference
        counting reclaims the steady state; one collection at the end
        sweeps whatever remains.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            process_completions = self._process_completions
            commit = self._commit
            fetch = self._fetch
            issue = self._issue
            accounting = self.cycle_accounting
            skipping = self.event_driven
            skip_target = self._skip_target
            while not self._done:
                if self.cycle >= max_cycles:
                    self.stats.hit_cycle_limit = True
                    break
                process_completions()
                if accounting:
                    self._account_cycle()
                commit()
                if self._done:
                    break
                fetched = fetch()
                issue()
                next_cycle = self.cycle + 1
                # Only probe for a skip on cycles where fetch made no
                # progress: a fetching front end blocks skipping anyway,
                # and stepping is always correct, so a missed probe
                # costs at most one stepped cycle at a stall's onset.
                if skipping and not fetched:
                    target = skip_target(max_cycles)
                    if target > next_cycle:
                        if accounting:
                            self._account_span(next_cycle, target)
                        self.stats.cycles_skipped += target - next_cycle
                        self.stats.skip_events += 1
                        next_cycle = target
                self.cycle = next_cycle
                if self._is_deadlocked():
                    raise DeadlockError(
                        self._deadlock_message(), cycle=self.cycle
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
        self.stats.cycles = self.cycle - self._measure_start_cycle
        self.stats.correlator = self.correlator.stats
        self.stats.hierarchy = self.hierarchy.stats.snapshot()
        return self.stats

    def _main_rob_head(self) -> WindowEntry | None:
        """Oldest live main-thread ROB entry.

        Squashed heads are drained eagerly (commit performs the exact
        same pops, so the order is immaterial), making this O(1)
        amortized instead of the previous per-cycle linear rescan of
        the ROB for the first unsquashed entry.
        """
        rob = self._main.rob
        while rob and rob[0].squashed:
            rob.popleft()
        return rob[0] if rob else None

    def _account_cycle(self) -> None:
        """Attribute this cycle for the CPI stack (main-thread view)."""
        breakdown = self.stats.cycle_breakdown
        rob = self._main.rob
        head = self._main_rob_head()
        if head is None:
            kind = "frontend"
        elif (
            not head.completed
            and head.fetch_cycle + self.config.frontend_stages > self.cycle
        ):
            # The oldest instruction is still traversing the front end:
            # a redirect/refill period (mispredict penalty).
            kind = "frontend"
        elif head.completed:
            # The head can commit this cycle; count how much of the
            # commit width the ready prefix covers.
            ready = 0
            for entry in rob:
                if entry.squashed:
                    continue
                if not entry.completed or ready >= self.config.width:
                    break
                ready += 1
            kind = "busy" if ready >= self.config.width else "drain"
        elif head.inst.is_load:
            kind = "memory"
        else:
            kind = "execute"
        breakdown[kind] = breakdown.get(kind, 0) + 1

    def _account_span(self, start: int, end: int) -> None:
        """Bulk CPI attribution for the skipped cycles ``[start, end)``.

        Bit-identical to stepping :meth:`_account_cycle` through the
        span: while cycles are skipped no completion, commit, fetch, or
        issue occurs, so the main ROB head is frozen and the per-cycle
        classification can only flip once — at the cycle the head
        leaves the front end (``fetch_cycle + frontend_stages``). The
        head is never completed here (commit drained every completed
        head before the skip was taken), so the busy/drain buckets
        cannot appear inside a span.
        """
        breakdown = self.stats.cycle_breakdown
        span = end - start
        head = self._main_rob_head()
        if head is None:
            breakdown["frontend"] = breakdown.get("frontend", 0) + span
            return
        boundary = head.fetch_cycle + self.config.frontend_stages
        frontend = boundary - start
        if frontend > span:
            frontend = span
        if frontend > 0:
            breakdown["frontend"] = breakdown.get("frontend", 0) + frontend
        else:
            frontend = 0
        rest = span - frontend
        if rest:
            kind = "memory" if head.inst.is_load else "execute"
            breakdown[kind] = breakdown.get(kind, 0) + rest

    # ==================================================================
    # Event-driven cycle skipping
    # ==================================================================

    def _next_event_cycle(self) -> int | None:
        """Earliest future cycle at which any machine state can change.

        Aggregates every wake-up source: the completion heap's head
        (execution results, branch resolutions, squashes), the ready
        heap's head (instructions still traversing the front end or
        deferred by structural hazards), and the data hierarchy's
        earliest in-flight fill arrival. Returns ``None`` when nothing
        at all is pending.
        """
        target = None
        completions = self._completions
        if completions:
            target = completions[0][0]
        ready = self._ready
        if ready:
            arrival = ready[0][0]
            if target is None or arrival < target:
                target = arrival
        fill = self.hierarchy.next_fill_arrival(self.cycle)
        if fill is not None and (target is None or fill < target):
            target = fill
        return target

    def _skip_target(self, max_cycles: int) -> int:
        """Next cycle the loop must actually simulate (``>= cycle+1``).

        Returns ``cycle + 1`` (no skip) whenever anything could happen
        next cycle: an event fires immediately, a thread can fetch into
        a non-full window, or a completed (or squashed) ROB head is
        waiting on commit bandwidth. Otherwise jumps to the next event,
        clamped to *max_cycles* so the cycle-limit path is identical to
        stepping.

        Unlike :meth:`_next_event_cycle`, in-flight cache fills are
        deliberately *not* wake-up events here: no core-visible state
        changes when a fill lands — a fill is only observed by a later
        demand access, and every access cycle is preserved exactly by
        the completion/ready/fetch conditions — so waking for them
        would only fragment skips (and scan the arrival map) for no
        semantic effect.
        """
        step = self.cycle + 1
        target = None
        completions = self._completions
        if completions:
            target = completions[0][0]
        ready = self._ready
        if ready:
            arrival = ready[0][0]
            if target is None or arrival < target:
                target = arrival
        if target is not None and target <= step:
            return step
        if self._window_count < self.config.window_entries and any_fetchable(
            self.threads
        ):
            return step
        for ctx in self.threads:
            if ctx.active:
                rob = ctx.rob
                if rob and (rob[0].completed or rob[0].squashed):
                    return step
        if target is None:
            # Nothing in flight and nothing fetchable: either a genuine
            # deadlock (the caller's check raises on the next cycle) or
            # a spin straight to the cycle ceiling.
            return step if self._is_deadlocked() else max_cycles
        return target if target < max_cycles else max_cycles

    def _is_deadlocked(self) -> bool:
        """O(1) liveness check: any pending event or fetchable thread
        short-circuits before the per-thread ROB scan."""
        if self._ready or self._completions:
            return False
        if any_fetchable(self.threads):
            return False
        return all(not t.rob for t in self.threads if t.active)

    def _deadlock_message(self) -> str:
        """Diagnostic for a deadlocked core, including the computed
        next-event state (what the event-driven loop would wait on)."""
        fetchable = [t.thread_id for t in self.threads if t.can_fetch]
        return (
            f"core deadlock at cycle {self.cycle}: main thread stalled at "
            f"pc={self._main.state.pc:#x} with nothing in flight "
            f"(next_event_cycle={self._next_event_cycle()!r}, "
            f"ready={len(self._ready)}, completions={len(self._completions)}, "
            f"fetchable_threads={fetchable}, "
            f"window={self._window_count}/{self.config.window_entries})"
        )

    # ==================================================================
    # Completion / branch resolution
    # ==================================================================

    def _process_completions(self) -> None:
        completions = self._completions
        if not completions:
            return
        cycle = self.cycle
        heappop = heapq.heappop
        heappush = heapq.heappush
        ready = self._ready
        seq = self._seq
        frontend = self.config.frontend_stages
        while completions and completions[0][0] <= cycle:
            _, _, entry = heappop(completions)
            if entry.squashed:
                continue
            entry.completed = True
            for waiter in entry.waiters:
                if waiter.squashed or waiter.completed:
                    continue
                waiter.pending_deps -= 1
                if waiter.pending_deps == 0:
                    # _make_ready, inlined for the wakeup storm.
                    earliest = waiter.fetch_cycle + frontend
                    if earliest < cycle:
                        earliest = cycle
                    heappush(ready, (earliest, next(seq), waiter))
            entry.waiters.clear()
            if entry.pgi_slot is not None:
                self._route_pgi(entry)
            if entry.value_predicted and not entry.value_correct:
                self._resolve_value_mispredict(entry)
            elif entry.prediction is not None and not entry.squashed:
                self._resolve_branch(entry)

    def _resolve_branch(self, entry: WindowEntry) -> None:
        """Compare the path fetch followed with the actual outcome."""
        inst = entry.inst
        actual_target = entry.rnext_pc
        effective_target = self._effective_target(entry)
        if effective_target == actual_target:
            return
        entry.mispredicted = True
        self._squash_after(
            entry,
            resume_pc=actual_target,
            replay_taken=bool(entry.rtaken),
            replay_target=actual_target,
        )
        entry.effective_taken = entry.rtaken

    def _resolve_value_mispredict(self, entry: WindowEntry) -> None:
        """A wrong slice value prediction: consumers ran with a bogus
        value, so everything younger re-executes (like a branch
        misprediction, but fetch resumes on the same path)."""
        self.stats.value_mispredict_squashes += 1
        self._squash_after(
            entry,
            resume_pc=entry.rnext_pc,
            replay_taken=True,
            replay_target=entry.rnext_pc,
        )

    def _effective_target(self, entry: WindowEntry) -> int:
        inst = entry.inst
        if inst.is_conditional:
            if entry.effective_taken:
                return inst.target
            return inst.pc + INSTRUCTION_BYTES
        return entry.prediction.target

    def _route_pgi(self, entry: WindowEntry) -> None:
        """A slice PGI executed: hand its result to the correlator."""
        slot, pgi = entry.pgi_slot
        if slot is None:
            return
        if pgi.kind in (PGIKind.VALUE, PGIKind.TARGET):
            self.correlator.on_value_pgi_executed(
                slot, entry.rvalue or 0
            )
            return
        direction = pgi.direction_of(entry.rvalue or 0)
        late_mismatch = self.correlator.on_pgi_executed(slot, direction)
        if late_mismatch:
            self._early_resolution(slot, direction)

    def _early_resolution(self, slot, direction: bool) -> None:
        """Late prediction disagrees with the in-flight traditional one:
        reverse the prediction and redirect fetch (Section 5.3)."""
        consumer = None
        for candidate in self._main.rob:
            if candidate.vn == slot.consumer_vn:
                consumer = candidate
                break
        if consumer is None or consumer.completed or consumer.squashed:
            return
        inst = consumer.inst
        if not inst.is_conditional:
            return
        new_target = (
            inst.target if direction else inst.pc + INSTRUCTION_BYTES
        )
        if new_target == self._effective_target(consumer):
            return
        self.stats.early_resolutions += 1
        consumer.early_resolved = True
        self._squash_after(
            consumer,
            resume_pc=new_target,
            replay_taken=direction,
            replay_target=new_target,
        )
        consumer.effective_taken = direction

    # ==================================================================
    # Squash
    # ==================================================================

    def _squash_after(
        self,
        branch: WindowEntry,
        resume_pc: int,
        replay_taken: bool,
        replay_target: int,
    ) -> None:
        """Squash everything younger than *branch* and redirect fetch."""
        main = self._main
        min_vn = branch.vn + 1

        # Main thread: unwind the ROB tail, restoring the rename map.
        while main.rob and main.rob[-1].vn > branch.vn:
            victim = main.rob.pop()
            self._discard_entry(main, victim)

        # Helper threads forked on the squashed path die with it — both
        # still-running contexts and already-finished slices whose
        # predictions must be discarded.
        for ctx in self.threads:
            if (
                ctx.active
                and ctx.kind is ThreadKind.SLICE
                and ctx.fork_vn >= min_vn
            ):
                self._release_slice_context(ctx)
        while self._forked and self._forked[-1][0] >= min_vn:
            _, instance_id = self._forked.pop()
            self.correlator.on_fork_squashed(instance_id)
            self.stats.forks_squashed += 1

        # Architectural state, predictor histories, correlator.
        main.state.rollback(branch.checkpoint)
        main.state.pc = resume_pc
        self.predictor.restore(branch.prediction)
        self.predictor.replay_actual(branch.inst, replay_taken, replay_target)
        self.correlator.on_squash(min_vn)
        main.fetch_stalled = False

    def _discard_entry(self, ctx: ThreadContext, victim: WindowEntry) -> None:
        victim.squashed = True
        self._window_count -= 1
        ctx.in_flight -= 1
        if victim.prev_writer is not None:
            reg, previous = victim.prev_writer
            if ctx.last_writer.get(reg) is victim:
                if previous is None or previous.squashed:
                    ctx.last_writer.pop(reg, None)
                else:
                    ctx.last_writer[reg] = previous
        # Break reference cycles so refcounting reclaims the entry while
        # the GC is paused (see Core.run): a squashed entry never
        # completes, so its waiter list is dead weight.
        victim.prev_writer = None
        victim.waiters.clear()

    def _on_instance_retired(
        self, slice_name: str, instance_id: int, consumed_any: bool
    ) -> None:
        """Late usefulness judgment for confidence gating: an instance
        was useful if a prediction of its was consumed or its loads
        prefetched something cold."""
        missed = self._instance_missed.pop(instance_id, False)
        if self.fork_confidence is not None:
            self.fork_confidence.update(slice_name, consumed_any or missed)

    def _kill_runaway_slice(self, ctx: ThreadContext) -> None:
        """Containment fuse (§3.2 backstop): a helper activation that
        fetched ``slice_hw.max_slice_insts`` instructions is a runaway.
        Kill it — squash its window entries, discard its pending
        predictions, free the context — and count the event. The main
        thread only ever observes the freed resources."""
        self.stats.slices_killed_fuse += 1
        if self.strict_slices:
            raise SliceRunawayError(
                f"slice {ctx.spec.name!r} blew its instruction fuse "
                f"({ctx.fetched} fetched, fuse "
                f"{self.config.slice_hw.max_slice_insts}) at cycle "
                f"{self.cycle}",
                slice_name=ctx.spec.name,
                fetched=ctx.fetched,
            )
        self._release_slice_context(ctx)

    def _release_slice_context(self, ctx: ThreadContext) -> None:
        """Free a helper thread's window entries and return its context."""
        if ctx.active:
            self._active_slice_count -= 1
            self._active_slices.remove(ctx)
        for victim in ctx.rob:
            if not victim.squashed:
                victim.squashed = True
                self._window_count -= 1
            victim.prev_writer = None
            victim.waiters.clear()
        self._livein_producers.pop(ctx.thread_id, None)
        ctx.release()

    # ==================================================================
    # Commit
    # ==================================================================

    def _commit(self) -> None:
        budget = self.config.width
        watermark = None
        main = self._main
        if self._active_slice_count:
            ordered = [main] + self._active_slices
        else:
            ordered = (main,)
        for ctx in ordered:
            rob = ctx.rob
            is_main = ctx.is_main
            while rob:
                head = rob[0]
                if head.squashed:
                    rob.popleft()
                    continue
                if not head.completed or budget <= 0:
                    break
                rob.popleft()
                head.committed = True
                # A committed entry can never be squashed; drop its
                # rename-rollback link so refcounting can reclaim the
                # chain while the GC is paused (see Core.run).
                head.prev_writer = None
                self._window_count -= 1
                ctx.in_flight -= 1
                budget -= 1
                if is_main:
                    watermark = head.vn
                    self._commit_main(head)
                    if self._done:
                        break
                else:
                    ctx.retired += 1
                    self.stats.slice_retired += 1
            if not is_main and ctx.active and ctx.fetch_stalled and not rob:
                self.stats.slices_completed += 1
                if self.fork_confidence is not None:
                    if ctx.spec.pgis:
                        # Predictions may be consumed after the helper
                        # finishes: defer judgment to instance retirement.
                        self._instance_missed[ctx.instance_id] = (
                            ctx.slice_misses > 0
                        )
                    else:
                        # Prefetch-only slice: cold misses are the signal.
                        self.fork_confidence.update(
                            ctx.spec.name, ctx.slice_misses > 0
                        )
                self._release_slice_context(ctx)
            if self._done:
                break
        if watermark is not None:
            self.correlator.on_retire(watermark)
            # Forks older than the commit point can no longer be squashed.
            while self._forked and self._forked[0][0] <= watermark:
                self._forked.popleft()

    def _commit_main(self, entry: WindowEntry) -> None:
        stats = self.stats
        stats.committed += 1
        inst = entry.inst
        if inst.is_mem:
            stats.count_mem(inst.pc, entry.counts_as_miss)
            if entry.value_predicted and entry.match_slot is not None:
                self.correlator.record_value_outcome(
                    entry.match_slot, entry.value_correct
                )
            if inst.is_load:
                stats.loads_committed += 1
                if entry.counts_as_miss:
                    stats.load_misses += 1
            else:
                stats.stores_committed += 1
                if entry.counts_as_miss:
                    stats.store_misses += 1
        elif entry.prediction is not None and (
            inst.is_conditional or inst.is_indirect
        ):
            stats.branches_committed += 1
            caused_squash = entry.mispredicted or entry.early_resolved
            stats.count_branch(inst.pc, caused_squash)
            if caused_squash:
                stats.branch_mispredictions += 1
            self.predictor.train(
                inst, bool(entry.rtaken), entry.rnext_pc, entry.prediction
            )
            if entry.match_slot is not None and entry.prediction.from_correlator:
                self.correlator.record_override_outcome(
                    entry.match_slot,
                    correct=not (entry.mispredicted or entry.early_resolved),
                )
        if (
            not self._warmed
            and stats.committed >= self.warmup
        ):
            self._reset_measurement()
            stats = self.stats
        if inst.op is Opcode.HALT:
            self._done = True
        # ``region`` counts post-warmup commits only: until the warmup
        # boundary resets the stats, the running count is discard-window
        # work and must not terminate the region (a sampled run's
        # region is routinely smaller than its warmup prefix).
        if (
            self.region is not None
            and self._warmed
            and stats.committed >= self.region
        ):
            self._done = True

    def _reset_measurement(self) -> None:
        """Warmup boundary: discard statistics, keep all machine state."""
        self._warmed = True
        self._measure_start_cycle = self.cycle
        self.stats = RunStats(
            config_name=self.stats.config_name,
            workload_name=self.stats.workload_name,
        )
        self.hierarchy.stats = type(self.hierarchy.stats)()
        self.correlator.stats = type(self.correlator.stats)()

    _measure_start_cycle = 0

    # ==================================================================
    # Fetch
    # ==================================================================

    def _fetch(self) -> bool:
        """Fetch this cycle; returns True if any instruction was fetched
        (the event-driven loop only probes for a skip on empty cycles)."""
        budget = self.config.width
        window_limit = self.config.window_entries
        fetch_one = self._fetch_one
        fetched = False
        fused = self._fused if self.fused_blocks else None
        fusable = self._fusable_pcs
        # With dedicated slice resources (the Section 6.3 ablation),
        # helper threads draw on their own fetch budget instead of
        # stealing main-thread slots.
        slice_budget = (
            self.config.width if self.dedicated_slice_resources else None
        )
        main = self._main
        if self._active_slice_count:
            ordered = icount_order(
                [main] + self._active_slices, self.config.icount_main_bias
            )
        else:
            ordered = (main,) if main.active and not main.fetch_stalled else ()
        for ctx in ordered:
            uses_shared = ctx.is_main or slice_budget is None
            while True:
                if self._window_count >= window_limit:
                    return fetched
                if not ctx.active or ctx.fetch_stalled:
                    break
                if uses_shared:
                    if budget <= 0:
                        break
                elif slice_budget <= 0:
                    break
                if fused is not None and ctx.is_main:
                    # Fused tier: a whole fetch group inside a basic
                    # block costs one generated call. Mid-block PCs not
                    # known as leaders or resume points fall through to
                    # the instruction tier (wrong-path safety).
                    pc = ctx.state.pc
                    fn = fused.get(pc)
                    if fn is None and pc in fusable:
                        fn = self._compile_fused(pc)
                    if fn is not None:
                        room = window_limit - self._window_count
                        n = fn(self, ctx, budget if budget < room else room)
                        fetched = True
                        budget -= n
                        continue
                if not fetch_one(ctx):
                    break
                fetched = True
                if uses_shared:
                    budget -= 1
                else:
                    slice_budget -= 1
            if budget <= 0 and slice_budget is None:
                break
        return fetched

    def _compile_fused(self, pc: int):
        """Compile the fetch segment entered at *pc*, or rule it out.

        Invalidation mirrors the ``Instruction.__copy__`` cache-drop
        contract at block granularity: if the program's
        ``block_version`` moved (a pass renamed/cloned instructions in
        place and called :meth:`Program.drop_block_caches`), every
        compiled segment and the fusable-entry set are rebuilt before
        anything stale can execute.
        """
        program = self.program
        if program.block_version != self._fuse_version:
            self._fused.clear()
            self._fusable_pcs.clear()
            self._fusable_pcs.update(program.basic_blocks().keys())
            self._fuse_version = program.block_version
            if pc not in self._fusable_pcs:
                return None
        # Same-process Cores over the same Program (and the same
        # width / front-end depth / CAM exclusions) share generated
        # segments; ``drop_block_caches`` clears this cache too. A hit
        # installs immediately — the hot-threshold below only amortizes
        # codegen, and a cached segment has none left to amortize.
        cache = program._segment_cache
        key = (pc, self._fuse_key)
        cached = cache.get(key)
        if cached is None:
            # Hot-threshold: a first codegen costs ~2 ms a segment
            # (``fusion.compiled`` keeps the code object process-wide
            # after that); a cold or wrong-path-only entry PC never
            # earns it back. Warm up through the instruction tier
            # first. Heat lives on the Program so it accumulates
            # across Cores over it.
            heat = program._segment_heat
            n = heat.get(key, 0) + 1
            if n < HOT_THRESHOLD:
                heat[key] = n
                return None
            heat.pop(key, None)
            insts = self._fusable_run_from(pc)
            if len(insts) < MIN_FUSE_LEN:
                # Too short to out-run the instruction tier. If the
                # walk stopped on a CAM exclusion (the instruction
                # there is present and fusable by opcode), the block
                # resumes — and may fuse — right after it.
                stop_pc = pc + len(insts) * INSTRUCTION_BYTES
                inst = self._main.prog_by_pc.get(stop_pc)
                resume = (
                    stop_pc + INSTRUCTION_BYTES
                    if inst is not None and inst.op in FUSABLE_OPS
                    else 0
                )
                cached = cache[key] = (None, resume)
            else:
                fn = compile_segment(
                    insts, self._main.thread_id, self.config.frontend_stages
                )
                cached = cache[key] = (fn, len(insts))
        fn, n_insts = cached
        if fn is None:
            # Cached rule-out: n_insts carries the post-exclusion
            # resume PC (0 when there is none).
            self._fusable_pcs.discard(pc)
            if n_insts:
                self._fusable_pcs.add(n_insts)
            return None
        self._fused[pc] = fn
        self.stats.blocks_compiled += 1
        # Every internal offset is a legitimate resume point after a
        # budget- or window-limited partial group; the PC one past the
        # segment is the natural continuation when the block is wider
        # than the fetch width. Register them all as fusable entries
        # (compiled lazily, and only if actually reached).
        step = INSTRUCTION_BYTES
        fusable = self._fusable_pcs
        for k in range(1, n_insts + 1):
            resume = pc + k * step
            if resume not in self._fused:
                fusable.add(resume)
        return fn

    def _fusable_run_from(self, pc: int) -> list:
        """Consecutive fusable instructions from *pc*, up to one fetch
        group wide.

        Stops at control transfers / ``HALT`` / ``FORK`` (block
        terminators) and at any PC the slice hardware CAMs at fetch
        (kill map, fork map, value-PGI loads) — those must reach
        :meth:`_fetch_one` individually. All three maps are static
        after ``__init__``, so compile-time exclusion is sound.
        """
        by_pc = self._main.prog_by_pc
        width = self.config.width
        if self._slices_enabled:
            kill = self._kill_pc_map
            fork = self._fork_pc_map
            vload = self._value_load_pcs
        else:
            kill = fork = vload = ()
        insts = []
        step = INSTRUCTION_BYTES
        while len(insts) < width:
            inst = by_pc.get(pc)
            if inst is None or inst.op not in FUSABLE_OPS:
                break
            if pc in kill or pc in fork or pc in vload:
                break
            insts.append(inst)
            pc += step
        return insts

    def _fetch_one(self, ctx: ThreadContext) -> bool:
        if not ctx.is_main and ctx.fuse_blown(
            self.config.slice_hw.max_slice_insts
        ):
            self._kill_runaway_slice(ctx)
            return False
        state = ctx.state
        inst = ctx.prog_by_pc.get(state.pc)
        if inst is None:
            ctx.fetch_stalled = True
            return False
        vn = self._next_vn
        self._next_vn = vn + 1
        stats = self.stats

        if ctx.is_main:
            stats.main_fetched += 1
            if self._slices_enabled:
                pc = inst.pc
                if pc in self._kill_pc_map:
                    self.correlator.on_kill_fetched(pc, vn)
                if inst.op is Opcode.FORK:
                    # Explicit fork instruction (Section 4.2 alternative).
                    spec = self.slice_table.at_index(inst.imm or 0)
                    if spec is not None:
                        self._try_fork(spec, ctx, vn)
                else:
                    specs = self._fork_pc_map.get(pc)
                    if specs:
                        for spec in specs:
                            self._try_fork(spec, ctx, vn)
        else:
            ctx.fetched += 1
            stats.slice_fetched += 1

        fn = inst._exec
        if fn is None:
            result = execute(inst, state)
        else:
            result = fn(state)
        entry = WindowEntry(
            inst,
            ctx.thread_id,
            vn,
            self.cycle,
            result.value,
            result.addr,
            result.store_value,
            result.taken,
            result.next_pc,
            result.fault,
        )
        self._window_count += 1
        ctx.rob.append(entry)
        ctx.in_flight += 1

        if inst.is_branch:
            if ctx.is_main:
                self._fetch_branch_main(ctx, entry)
            else:
                self._fetch_branch_slice(ctx, entry)
        elif (
            ctx.is_main
            and inst.is_load
            and inst.pc in self._value_load_pcs
        ):
            match = self.correlator.on_load_fetched(inst.pc, vn)
            if match is not None and match.value is not None:
                entry.match_slot = match.slot
                entry.value_predicted = True
                entry.value_correct = match.value == result.value
                # A wrong value prediction squashes like a branch: it
                # needs a checkpoint and a history snapshot to recover.
                entry.checkpoint = ctx.state.checkpoint(result.next_pc)
                entry.prediction = BranchPrediction(
                    taken=True,
                    target=result.next_pc,
                    ghr_before=self.predictor.direction.history,
                    path_before=self.predictor.indirect.path_history,
                    ras_before=self.predictor.ras.checkpoint(),
                )
        if not ctx.is_main:
            pgi = self.pgi_table.lookup(ctx.spec.name, inst.pc)
            if pgi is not None:
                slot = self.correlator.on_pgi_fetched(
                    ctx.spec, pgi, ctx.instance_id
                )
                entry.pgi_slot = (slot, pgi)
            if result.fault is Fault.NULL_DEREF:
                # Exceptions terminate slices (Section 3.2): the fault
                # is quarantined to the helper context — fetch stops,
                # in-flight work drains, nothing reaches the main
                # thread. Counted so containment is observable.
                ctx.fetch_stalled = True
                self.stats.slices_killed_fault += 1
        if result.fault is Fault.HALT:
            ctx.fetch_stalled = True

        self._dispatch(ctx, entry)
        return True

    def _fetch_branch_main(self, ctx: ThreadContext, entry: WindowEntry) -> None:
        inst = entry.inst
        if self.perfect.branch_is_perfect(inst.pc) and (
            inst.is_conditional or inst.is_indirect
        ):
            entry.prediction = BranchPrediction(
                taken=bool(entry.rtaken),
                target=entry.rnext_pc,
                ghr_before=self.predictor.direction.history,
                path_before=self.predictor.indirect.path_history,
                ras_before=self.predictor.ras.checkpoint(),
            )
            entry.effective_taken = entry.rtaken
            entry.checkpoint = ctx.state.checkpoint(entry.rnext_pc)
            return

        prediction = self.predictor.predict(inst)
        if (
            inst.is_indirect
            and inst.pc in self._target_branch_pcs
        ):
            match = self.correlator.on_target_fetched(inst.pc, entry.vn)
            if match is not None and match.value is not None:
                self.predictor.override_target(prediction, match.value)
                entry.match_slot = match.slot
        if inst.is_conditional and self._slices_enabled:
            match = self.correlator.on_branch_fetched(inst.pc, entry.vn)
            if match is not None:
                if match.direction is not None:
                    self.predictor.override_direction(
                        prediction, inst, match.direction
                    )
                    entry.match_slot = match.slot
                else:
                    self.correlator.bind_late(
                        match.slot, entry.vn, prediction.taken
                    )
        entry.prediction = prediction
        entry.effective_taken = prediction.taken
        entry.checkpoint = ctx.state.checkpoint(entry.rnext_pc)
        if prediction.target != entry.rnext_pc:
            # Steer fetch down the (wrong) predicted path.
            ctx.state.pc = prediction.target
            entry.mispredicted = True

    def _fetch_branch_slice(self, ctx: ThreadContext, entry: WindowEntry) -> None:
        """Slice branches follow their computed outcome; the loop
        back-edge honors the slice's maximum iteration count."""
        spec = ctx.spec
        inst = entry.inst
        if (
            spec.loop_back_pc is not None
            and inst.pc == spec.loop_back_pc
            and entry.rtaken
        ):
            ctx.iterations += 1
            if (
                spec.max_iterations is not None
                and ctx.iterations >= spec.max_iterations
            ):
                # Iteration bound reached: fall through out of the loop.
                ctx.state.pc = inst.pc + INSTRUCTION_BYTES

    def _try_fork(self, spec: SliceSpec, main: ThreadContext, vn: int) -> None:
        self.stats.fork_points_fetched += 1
        if (
            self.fork_confidence is not None
            and not self.fork_confidence.should_fork(spec.name)
        ):
            self.stats.forks_gated += 1
            return
        idle = next(
            (t for t in self.threads if not t.active and not t.is_main), None
        )
        if idle is None:
            self.stats.forks_ignored += 1
            return
        live_in_values = {
            reg: main.state.regs.read(reg) for reg in spec.live_in_regs
        }
        instance_id = self._next_instance
        self._next_instance += 1
        idle.activate_slice(
            spec,
            self.memory,
            live_in_values,
            instance_id,
            fork_vn=vn,
            livein_ready_cycle=self.cycle,
        )
        self._active_slice_count += 1
        self._active_slices.append(idle)
        if len(self._active_slices) > 1:
            self._active_slices.sort(key=lambda t: t.thread_id)
        producers = {}
        for reg in spec.live_in_regs:
            producer = main.last_writer.get(reg)
            if producer is not None and not producer.completed:
                producers[reg] = producer
        self._livein_producers[idle.thread_id] = producers
        self.correlator.on_fork(spec, instance_id)
        self._forked.append((vn, instance_id))
        self.stats.forks_taken += 1

    # ==================================================================
    # Dispatch / issue
    # ==================================================================

    def _dispatch(self, ctx: ThreadContext, entry: WindowEntry) -> None:
        inst = entry.inst
        pending = 0
        last_writer = ctx.last_writer
        livein_producers = (
            None if ctx.is_main else self._livein_producers.get(ctx.thread_id)
        )
        for reg in inst.unique_source_regs():
            producer = last_writer.get(reg)
            if producer is None and livein_producers:
                producer = livein_producers.get(reg)
            if producer is not None and not producer.completed and not producer.squashed:
                pending += 1
                producer.waiters.append(entry)
        if inst._op_writes and inst.rd is not None:
            rd = inst.rd
            entry.prev_writer = (rd, last_writer.get(rd))
            last_writer[rd] = entry
        entry.pending_deps = pending
        if pending == 0:
            self._make_ready(entry)

    def _make_ready(self, entry: WindowEntry) -> None:
        earliest = entry.fetch_cycle + self.config.frontend_stages
        cycle = self.cycle
        if earliest < cycle:
            earliest = cycle
        heapq.heappush(self._ready, (earliest, next(self._seq), entry))

    def _issue(self) -> None:
        ready = self._ready
        if not ready:
            return
        cycle = self.cycle
        if ready[0][0] > cycle:
            return
        config = self.config
        budget = config.width
        simple = config.simple_alus
        complex_units = config.complex_alus
        mem_ports = config.load_store_ports
        deferred: list[tuple[int, int, WindowEntry]] = []
        completions = self._completions
        seq_counter = self._seq
        heappop = heapq.heappop
        heappush = heapq.heappush
        dedicated = self.dedicated_slice_resources
        main_thread_id = self._main.thread_id
        next_cycle = cycle + 1
        while ready and budget > 0:
            earliest, seq, entry = ready[0]
            if earliest > cycle:
                break
            heappop(ready)
            if entry.squashed or entry.completed:
                continue
            if dedicated and entry.thread_id != main_thread_id:
                # Dedicated slice execution resources: no FU contention.
                latency = self._execution_latency(entry)
                heappush(
                    completions, (cycle + latency, next(seq_counter), entry)
                )
                continue
            inst = entry.inst
            op_class = inst.op_class
            if op_class is OpClass.MEM:
                if mem_ports <= 0:
                    deferred.append((next_cycle, seq, entry))
                    continue
                mem_ports -= 1
                latency = self._execution_latency(entry)
            elif op_class is OpClass.COMPLEX:
                if complex_units <= 0:
                    deferred.append((next_cycle, seq, entry))
                    continue
                complex_units -= 1
                latency = inst.latency
            else:
                if simple <= 0:
                    deferred.append((next_cycle, seq, entry))
                    continue
                simple -= 1
                latency = inst.latency
            budget -= 1
            heappush(completions, (cycle + latency, next(seq_counter), entry))
        for item in deferred:
            heappush(ready, item)

    def _execution_latency(self, entry: WindowEntry) -> int:
        inst = entry.inst
        if not inst.is_mem:
            return inst.latency
        addr = entry.raddr
        if entry.rfault is Fault.NULL_DEREF or addr is None:
            return self.config.l1d.latency
        is_slice = entry.thread_id != self._main.thread_id
        if entry.value_predicted and entry.value_correct:
            # Consumers already have the (correct) predicted value; the
            # line fetch proceeds in the background.
            self.hierarchy.access(addr, is_store=False, now=self.cycle)
            entry.counts_as_miss = False
            return self.config.l1d.latency
        if (
            self._has_perfect_loads
            and not is_slice
            and inst.is_load
            and self.perfect.load_is_perfect(inst.pc)
        ):
            # Perfect-cache overlay: still install the line, charge a hit.
            self.hierarchy.access(addr, is_store=False, now=self.cycle)
            entry.counts_as_miss = False
            return self.config.l1d.latency
        access = self.hierarchy.access(
            addr, inst.is_store, is_slice, self.cycle
        )
        entry.counts_as_miss = access.counts_as_miss
        if is_slice and access.counts_as_miss:
            ctx = self.threads[entry.thread_id]
            if ctx.active and ctx.instance_id >= 0:
                ctx.slice_misses += 1
        return access.latency
