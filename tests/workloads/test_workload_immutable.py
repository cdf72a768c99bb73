"""A ``Core`` never mutates the ``Workload`` it runs.

The per-process workload memo (:func:`repro.harness.parallel.
request_workload`) hands every request a shell that shares the built
instructions, memory image, and slices, so this must hold for every
registered workload and mode, in full detail and restored from a
snapshot. Lazy per-instruction caches (filled on first execution) and
the Program's block/segment caches are not part of what a workload
is; everything a result can depend on is compared here."""

import dataclasses

import pytest

from repro.harness.fastforward import fast_forward, request_plan
from repro.harness.parallel import RunRequest, run_window
from repro.isa.instruction import Instruction
from repro.workloads import registry

SCALE = 0.05
DEPTH = 2_000
SAMPLE = 500

#: Per-instruction lazy caches (operand-derived, reset on copy).
_LAZY = {"_sources", "_unique_sources", "_exec"}
_FIELDS = [
    f.name for f in dataclasses.fields(Instruction) if f.name not in _LAZY
]


def _code(program) -> dict:
    return {
        inst.pc: tuple(getattr(inst, name) for name in _FIELDS)
        for inst in program.instructions
    }


def fingerprint(workload) -> dict:
    """A structural copy of everything a run reads from *workload*."""
    program = workload.program
    return {
        "code": _code(program),
        "entry_pc": program.entry_pc,
        "labels": dict(program.labels),
        "data": dict(program.data),
        "memory_image": dict(workload.memory_image),
        "region": workload.region,
        "slices": [
            (
                spec.name,
                spec.fork_pc,
                spec.entry_pc,
                spec.live_in_regs,
                _code(spec.code),
                [dataclasses.astuple(pgi) for pgi in spec.pgis],
                [dataclasses.astuple(kill) for kill in spec.kills],
            )
            for spec in workload.slices
        ],
    }


@pytest.mark.parametrize("name", registry.all_names())
def test_core_never_mutates_its_workload(name):
    workload = registry.build(name, scale=SCALE)
    before = fingerprint(workload)
    probe = RunRequest(name, scale=SCALE, mode="base")
    snapshot = fast_forward(workload, probe.resolve_config(), DEPTH)
    assert fingerprint(workload) == before, "fast-forward mutated it"
    for mode in ("base", "slice", "limit"):
        for depth, restored in ((0, None), (DEPTH, snapshot)):
            request = dataclasses.replace(
                probe, mode=mode, fast_forward=depth,
                sample=SAMPLE if restored is not None else 0,
            )
            plan = request_plan(request, workload)
            stats = run_window(
                request, workload, request.resolve_config(), plan,
                restored, False,
            )
            assert stats.committed > 0
            assert fingerprint(workload) == before, (mode, depth)
