"""Fused basic-block *functional warming* tier.

Multi-region sampled simulation (:mod:`repro.harness.fastforward`)
spends nearly all of its wall clock fast-forwarding between detailed
windows with functional warming on. The per-instruction closure tier
(:mod:`repro.arch.interpreter`) tops out well below the rate that
makes a 10^7-instruction sampled run ≥ 20x cheaper than full detail:
every instruction pays a dict lookup, a closure call, an
``ExecResult`` allocation, and (for memory ops) a ``warm_access``
call even on an L1 MRU hit.

This module is the warming analogue of the detailed core's fused
segment tier (:mod:`repro.uarch.fusion`), pushed one step further
into *trace* compilation: one ``exec``-generated function per trace —
a likely dynamic path that crosses statically-targeted branches
(conditional branches continue on their likely direction, so hot
loops unroll into the function; only register-indirect control flow
ends discovery) — that performs, per instruction, exactly the
architectural effects of the interpreter closures plus the warm
updates of :meth:`DataHierarchy.warm_access` and the direct
branch-predictor training of the warming protocol, with operand
indices, immediates, branch targets, and L1 geometry folded in as
literals. When execution leaves the compiled path the function exits
with the correct next PC and reports its exact instruction count
through ``WarmContext.xc``. No ``ExecResult`` is ever allocated; an
L1 MRU hit is two list subscripts.

Equivalence contract (the split-vs-straight warm-image differential
depends on it): for every instruction, the generated code leaves
register file, memory, cache/prefetcher, and predictor state
byte-identical to what the per-instruction warming path
(:func:`repro.harness.fastforward._warm_steps`) leaves. In
particular the inline L1 fast path only handles the exact case
``warm_access`` would reduce to a value-preserving no-op (tag already
MRU), and falls back to ``warm_access`` for everything else.

Warming always runs with journaling off (fast-forward state is never
rolled back), so the generated code elides the journal entirely; the
driver asserts that invariant rather than compiling both variants.
"""

from __future__ import annotations

from repro.arch.exceptions import NULL_PAGE_LIMIT
from repro.arch.interpreter import _div
from repro.arch.memory import to_signed
from repro.isa.instruction import ZERO_REG, Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.uarch.fusion import compiled

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

#: Longest trace compiled as one function. Traces longer than this are
#: split; the driver chains them by PC like any other block boundary,
#: so the cap only bounds codegen size (and, because loop unrolling
#: duplicates instructions, the worst-case tail handled by the
#: per-instruction tier when a warming budget ends mid-trace).
MAX_RUN = 96

#: Value expressions per ALU opcode, mirroring
#: ``repro.arch.interpreter._ALU_OPS`` exactly.
_ALU_EXPR = {
    Opcode.ADD: "{a} + ({b})",
    Opcode.SUB: "{a} - ({b})",
    Opcode.AND: "{a} & ({b})",
    Opcode.OR: "{a} | ({b})",
    Opcode.XOR: "{a} ^ ({b})",
    Opcode.SLL: "{a} << (({b}) & 63)",
    Opcode.SRL: "({a} & {m}) >> (({b}) & 63)",
    Opcode.SRA: "{a} >> (({b}) & 63)",
    Opcode.CMPEQ: "int({a} == ({b}))",
    Opcode.CMPLT: "int({a} < ({b}))",
    Opcode.CMPLE: "int({a} <= ({b}))",
    Opcode.CMPULT: "int(({a} & {m}) < (({b}) & {m}))",
    Opcode.S4ADD: "({a} << 2) + ({b})",
    Opcode.S8ADD: "({a} << 3) + ({b})",
    Opcode.MUL: "{a} * ({b})",
    Opcode.DIV: "_div({a}, {b})",
}

#: ALU opcodes whose result provably stays in the signed-64 range
#: whenever both operands do (bitwise ops on 64-bit-representable
#: values stay 64-bit-representable; compares yield 0/1; SRA only
#: shrinks magnitude). The register file and memory words only ever
#: hold in-range values — every write path normalises — so the
#: generated code elides the ``_ts`` overflow guard for these.
_NO_OVERFLOW = frozenset({
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SRA,
    Opcode.CMPEQ, Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPULT,
})

_CMOV_TEST = {
    Opcode.CMOVEQ: "== 0",
    Opcode.CMOVNE: "!= 0",
    Opcode.CMOVLT: "< 0",
    Opcode.CMOVGE: ">= 0",
}

_BRANCH_TEST = {
    Opcode.BEQ: "== 0",
    Opcode.BNE: "!= 0",
    Opcode.BLT: "< 0",
    Opcode.BGE: ">= 0",
    Opcode.BLE: "<= 0",
    Opcode.BGT: "> 0",
}

#: Opcodes that end a warm trace: their next PC is dynamic (register
#: or RAS), so discovery cannot follow them. Statically-targeted
#: control flow — BR, CALL, and conditional branches — is *crossed*:
#: discovery keeps compiling at the followed target and the generated
#: code exits mid-trace when execution goes the other way. FORK is
#: architecturally a no-op and (unlike in the detailed tier) has no
#: microarchitectural event during warming, so it stays in the body.
_TERMINATORS = frozenset(
    {Opcode.JR, Opcode.CALLR, Opcode.RET, Opcode.HALT}
)


class WarmContext:
    """Per-``fast_forward`` bindings the generated runs read their
    state through. Rebuilt after every warm-image load (loading
    replaces the predictor component objects)."""

    __slots__ = (
        "r", "mw", "mw_get", "wa",
        "sets", "direction",
        "choice", "tc", "ntc", "cmask", "kmask", "tmask", "hmask",
        "indirect", "iud", "ish", "rpush", "rpop", "xc",
    )

    def __init__(self, state, hierarchy, predictor):
        #: Executed-count cell: every generated trace writes the number
        #: of instructions it actually ran here before returning, so a
        #: mid-trace exit (a branch that went the un-followed way) still
        #: reports an exact count to the driver's budget accounting.
        self.xc = [0]
        self.r = state.regs._regs
        self.mw = state.memory._words
        self.mw_get = self.mw.get
        self.wa = hierarchy.warm_access
        self.sets = hierarchy.l1._sets
        direction = predictor.direction
        self.direction = direction
        # YAGS internals for the inlined conditional-branch update
        # (see the codegen comment at the _BRANCH_TEST case).
        self.choice = direction._choice
        self.tc = direction._t_cache
        self.ntc = direction._nt_cache
        self.cmask = direction._choice_mask
        self.kmask = direction._cache_mask
        self.tmask = direction._tag_mask
        self.hmask = direction.history_mask
        self.indirect = predictor.indirect
        self.iud = predictor.indirect.update
        self.ish = predictor.indirect.shift_history
        self.rpush = predictor.ras.push
        self.rpop = predictor.ras.predict_and_pop


def warm_block_table(program, line_shift: int, set_mask: int) -> dict:
    """The program's compiled-warm-run cache for one L1 geometry.

    Keyed by ``block_version`` (instruction mutation invalidates, same
    contract as the fused segment cache) and the geometry literals the
    generated code bakes in. One geometry is cached at a time —
    sweeps share a single warm config by design
    (:func:`repro.harness.fastforward.warm_config_key`).
    """
    key = (program.block_version, line_shift, set_mask)
    cache = getattr(program, "_warm_block_cache", None)
    if cache is None or cache[0] != key:
        cache = (key, {})
        program._warm_block_cache = cache
    return cache[1]


def discover_run(program, pc: int) -> list[Instruction] | None:
    """The trace starting at *pc*: instructions in the order one likely
    dynamic execution would run them, up to and including the first
    dynamic-target terminator (or the :data:`MAX_RUN` cap / the edge
    of the program). ``None`` when *pc* is off-program.

    Statically-targeted control flow is crossed rather than ended at:
    BR and CALL continue at their target, and a conditional branch
    continues on its *likely* direction — taken when the target is
    backward (a loop, which therefore unrolls into the trace, the
    same instruction appearing once per unrolled iteration), not-taken
    otherwise. The guess only affects how long the compiled fast path
    is: the generated code exits with the correct next PC whenever
    execution goes the other way.
    """
    inst = program.at(pc)
    if inst is None:
        return None
    run = [inst]
    while len(run) < MAX_RUN:
        op = inst.op
        if op in _TERMINATORS:
            break
        if op is Opcode.BR or op is Opcode.CALL:
            next_pc = inst.target
        elif op in _BRANCH_TEST:
            next_pc = (
                inst.target
                if inst.target <= inst.pc
                else inst.pc + INSTRUCTION_BYTES
            )
        else:
            next_pc = inst.pc + INSTRUCTION_BYTES
        inst = program.at(next_pc)
        if inst is None:
            break
        run.append(inst)
    return run


def compile_warm_run(
    program, pc: int, line_shift: int, set_mask: int
):
    """Compile the trace at *pc* into ``(bind, length, halt_pc)``.

    ``bind(ctx)`` returns a zero-argument closure over the context's
    bindings; calling it executes the trace up to its first
    not-followed branch direction (architectural effects + warm
    updates), writes the number of instructions it actually ran into
    ``ctx.xc[0]``, and returns the next PC — or ``None`` when the
    trace ended at HALT, in which case the driver uses ``halt_pc``
    (the HALT's own PC, where the interpreter closure parks
    ``state.pc``). ``length`` is the trace's *maximum* instruction
    count: the driver uses it as the conservative bound for its
    budget-tail check and ``ctx.xc[0]`` for the exact accounting.
    The compile is cached per program/geometry; the driver re-binds
    each compiled trace once per warming pass (contexts change across
    warm-image loads, see :class:`WarmContext`). Returns ``None`` for
    an off-program *pc*.
    """
    run = discover_run(program, pc)
    if run is None:
        return None
    ns: dict[str, object] = {"_ts": to_signed, "_div": _div}
    body: list[str] = []
    emit = body.append
    used: set[str] = {"xc"}
    halt_pc = None
    final_next = None  # set when the run ends without a control transfer
    last = len(run) - 1
    ended = False  # a return has been emitted for the final instruction

    for k, inst in enumerate(run):
        op = inst.op
        rd = inst.rd
        dead = rd == ZERO_REG
        a = f"r[{inst.ra}]"
        b = f"r[{inst.rb}]" if inst.rb is not None else repr(inst.imm)
        next_pc = inst.pc + INSTRUCTION_BYTES
        final_next = next_pc
        if op in _ALU_EXPR:
            used.add("r")
            expr = _ALU_EXPR[op].format(a=a, b=b, m=_MASK64)
            if op in _NO_OVERFLOW:
                if not dead:
                    emit(f"    r[{rd}] = {expr}")
            else:
                emit(f"    v = {expr}")
                emit(f"    if v < {_MIN64} or v > {_MAX64}: v = _ts(v)")
                if not dead:
                    emit(f"    r[{rd}] = v")
        elif op in _CMOV_TEST:
            if not dead:
                used.add("r")
                emit(
                    f"    if {a} {_CMOV_TEST[op]}: r[{rd}] = r[{inst.rb}]"
                )
        elif op is Opcode.MOV:
            if not dead:
                used.add("r")
                emit(f"    r[{rd}] = {a}")
        elif op is Opcode.LI:
            if not dead:
                used.add("r")
                emit(f"    r[{rd}] = {to_signed(inst.imm)}")
        elif op in (Opcode.NOP, Opcode.FORK):
            pass
        elif op is Opcode.LD:
            used.update(("r", "mw_get", "wa", "sets"))
            emit(f"    a0 = {a} + ({inst.imm})")
            emit(f"    if a0 < {NULL_PAGE_LIMIT}:")
            if not dead:
                emit(f"        r[{rd}] = 0")
            else:
                emit("        pass")
            emit("    else:")
            if not dead:
                emit(f"        r[{rd}] = mw_get(a0 & -8, 0)")
            emit(f"        ln = a0 >> {line_shift}")
            emit(f"        bk = sets[ln & {set_mask}]")
            emit("        if not (bk and bk[-1] >> 1 == ln):")
            emit("            wa(a0, False)")
        elif op is Opcode.ST:
            used.update(("r", "mw", "wa", "sets"))
            emit(f"    a0 = {a} + ({inst.imm})")
            emit(f"    if a0 >= {NULL_PAGE_LIMIT}:")
            # Register values are always in-range (every write path
            # normalises), so the store needs no overflow guard.
            emit(f"        mw[a0 & -8] = r[{rd}]")
            emit(f"        ln = a0 >> {line_shift}")
            emit(f"        bk = sets[ln & {set_mask}]")
            emit("        if bk and bk[-1] >> 1 == ln:")
            emit("            bk[-1] |= 1")
            emit("        else:")
            emit("            wa(a0, True)")
        elif op in _BRANCH_TEST:
            # ``YagsPredictor.update`` + ``shift_history`` inlined with
            # the branch's word-PC folded in — one update per dynamic
            # conditional branch is the second-hottest warm operation
            # after the L1 access. Semantics mirror yags.py line for
            # line; the split-vs-straight warm-image differential
            # cross-checks this path against the real method (the
            # per-instruction tail tier calls it).
            used.update((
                "r", "direction", "choice",
                "tc", "ntc", "cmask", "kmask", "tmask", "hmask",
            ))
            wp = inst.pc >> 2
            emit(f"    t = {a} {_BRANCH_TEST[op]}")
            emit("    h = direction.history")
            emit(f"    ci = {wp} & cmask")
            emit("    cc = choice[ci]")
            emit("    ct = cc >= 2")
            emit("    ca = ntc if ct else tc")
            emit(f"    ki = ({wp} ^ h) & kmask")
            emit(f"    tg = {wp} & tmask")
            emit("    e = ca[ki]")
            emit("    if e is not None and e[0] == tg:")
            emit("        c1 = e[1]")
            emit(
                "        ca[ki] = (tg, (3 if c1 > 2 else c1 + 1) if t"
                " else (0 if c1 < 1 else c1 - 1))"
            )
            emit("        if (c1 >= 2) != t or t == ct:")
            emit(
                "            choice[ci] = (3 if cc > 2 else cc + 1) if t"
                " else (0 if cc < 1 else cc - 1)"
            )
            emit("    else:")
            emit("        if t != ct:")
            emit("            ca[ki] = (tg, 2 if t else 1)")
            emit(
                "        choice[ci] = (3 if cc > 2 else cc + 1) if t"
                " else (0 if cc < 1 else cc - 1)"
            )
            emit("    direction.history = ((h << 1) | t) & hmask")
            # Mid-trace: exit only when execution leaves the followed
            # direction (run[k+1] records which way discovery went). A
            # branch to its own fall-through has no other way to go.
            if k == last:
                emit(f"    xc[0] = {k + 1}")
                emit(f"    return {inst.target} if t else {next_pc}")
                ended = True
            elif inst.target != next_pc:
                if run[k + 1].pc == inst.target:
                    emit(
                        f"    if not t: xc[0] = {k + 1}; return {next_pc}"
                    )
                else:
                    emit(
                        f"    if t: xc[0] = {k + 1}; return {inst.target}"
                    )
        elif op is Opcode.BR:
            if k == last:
                emit(f"    xc[0] = {k + 1}")
                emit(f"    return {inst.target}")
                ended = True
            # else: crossed — execution continues inline at the target.
        elif op is Opcode.CALL:
            used.add("rpush")
            if not dead:
                used.add("r")
                emit(f"    r[{rd}] = {next_pc}")
            emit(f"    rpush({next_pc})")
            if k == last:
                emit(f"    xc[0] = {k + 1}")
                emit(f"    return {inst.target}")
                ended = True
        elif op is Opcode.RET:
            used.update(("r", "rpop"))
            emit("    rpop()")
            emit(f"    xc[0] = {k + 1}")
            emit(f"    return {a}")
            ended = True
        elif op is Opcode.JR:
            used.update(("r", "indirect", "iud", "ish"))
            emit(f"    tg = {a}")
            emit(f"    iud({inst.pc}, tg, indirect.path_history)")
            emit("    ish(tg)")
            emit(f"    xc[0] = {k + 1}")
            emit("    return tg")
            ended = True
        elif op is Opcode.CALLR:
            used.update(("r", "indirect", "iud", "ish", "rpush"))
            emit(f"    tg = {a}")
            if not dead:
                emit(f"    r[{rd}] = {next_pc}")
            emit(f"    iud({inst.pc}, tg, indirect.path_history)")
            emit("    ish(tg)")
            emit(f"    rpush({next_pc})")
            emit(f"    xc[0] = {k + 1}")
            emit("    return tg")
            ended = True
        elif op is Opcode.HALT:
            halt_pc = inst.pc
            emit(f"    xc[0] = {k + 1}")
            emit("    return None")
            ended = True
        else:  # pragma: no cover - every opcode is handled above
            raise NotImplementedError(f"warm codegen: {op}")

    if not ended:
        emit(f"    xc[0] = {len(run)}")
        emit(f"    return {final_next}")

    # The generated run is a zero-argument *closure*: ``_bind(ctx)``
    # hoists the context bindings into cells once per warming pass, so
    # executing the run pays no per-call prologue at all — the old
    # ``name = ctx.name`` preamble re-read up to 17 slots on *every*
    # block execution, which dominated short (3–5 instruction) runs.
    prologue = [
        f"    {name} = ctx.{name}"
        for name in (
            "r", "mw", "mw_get", "wa", "sets",
            "direction", "choice", "tc", "ntc",
            "cmask", "kmask", "tmask", "hmask",
            "indirect", "iud", "ish", "rpush", "rpop", "xc",
        )
        if name in used
    ]
    code = "\n".join(
        [
            "def _bind(ctx):",
            *prologue,
            "    def _warm_run():",
            *("    " + line for line in body),
            "    return _warm_run",
        ]
    )
    exec(compiled(code, f"<warm:{pc:#x}>"), ns)
    bind = ns["_bind"]
    bind._source = code  # debugging aid
    return bind, len(run), halt_pc
