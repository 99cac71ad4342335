"""Cycle-counting simulator for rvk machine code.

Value semantics are the interpreter's: the simulator runs the same
decoded core (:mod:`repro.interp.core`) — the differential harness in
``tests/test_backend.py`` holds the two equal on the whole suite — while
the clock follows the :class:`Target` cost model:

* single issue, in order: each instruction issues one cycle after the
  previous one at the earliest;
* full forwarding with per-opcode latency: a result is readable
  ``latency(op)`` cycles after issue, and an instruction that reads a
  not-yet-ready register *stalls* until every operand is ready (this is
  what makes the list scheduler measurable);
* a transfer to any block other than the next in layout order is a
  *taken branch* and pays :attr:`Target.branch_penalty`;
* ``call`` rotates the register window: the callee starts with an empty
  register file and its frame slots 0..n-1 holding the arguments; the
  rotation costs ``call_overhead + call_arg_cost·n`` cycles on top of
  the callee's own execution.  The caller's registers are untouched —
  exactly the interpreter's private-frame semantics.

Spilled values live in frame slots past the argument area (``lds`` /
``sts``); their dynamic counts are reported separately so Table 1 can
show the §4 effect: optimization levels that win dynamic *operations*
can lose *cycles* once their longer live ranges start spilling.

:attr:`SimResult.counters` breaks the totals down by decoded block, so
a difference in cycles can be traced to the block that causes it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backend.lower import is_machine_form
from repro.backend.target import Target
from repro.interp.core import INTRINSICS, Decoder, count_visits, reset_visits
from repro.interp.memory import Memory, Value
from repro.ir.function import Module
from repro.ir.opcodes import Opcode


class SimulationError(RuntimeError):
    """Raised on malformed machine code or resource exhaustion."""


@dataclass
class SimResult:
    """Outcome of one simulated invocation (whole call tree)."""

    value: Optional[Value]
    cycles: int
    instructions: int
    stall_cycles: int
    branch_cycles: int
    call_cycles: int
    lds_ops: int  # dynamic frame-slot loads (args + spill reloads)
    sts_ops: int  # dynamic spill stores
    memory: Optional[Memory] = None
    #: ``function/label`` -> ``{"visits", "stall_cycles", "lds_ops",
    #: "sts_ops"}`` for every visited block; each column sums to the
    #: run's total of the same name
    counters: dict = field(default_factory=dict)


class _MachineDecoder(Decoder):
    """The core's decoder plus frame slots and per-instruction timing.

    A frame is one dict: registers under their names, frame slots under
    their integer index (so a slot and a register can never collide).
    Each body item is ``(op, srcs, target, latency)``.
    """

    error = SimulationError

    def __init__(self, target: Target) -> None:
        super().__init__(INTRINSICS)
        self.latencies = target.latencies

    def operation(self, inst, where):
        if inst.opcode is Opcode.LDS:
            return _load_slot(inst, where)
        if inst.opcode is Opcode.STS:
            return _store_slot(inst.imm, inst.srcs[0])
        return super().operation(inst, where)

    def pack(self, op, inst):
        latency = max(1, self.latencies[inst.opcode])
        return (op, tuple(inst.srcs), inst.target, latency)

    def decode(self, func):
        """Decode, then drop every source operand that cannot stall.

        Each instruction issues at least one cycle after the one before,
        so a value defined ``d`` instructions earlier in the same block
        with a latency of at most ``d`` is always ready; only the rest
        are checked at run time.  (A call's result is ready one cycle
        after the call returns, so its latency counts one more.)
        """
        code = super().decode(func)
        call_latency = self.latencies[Opcode.CALL] + 1
        for block in code.blocks:
            ready_at: dict[str, int] = {}  # register -> first stall-free position
            position = 0
            runs = []
            for items, call in block.runs:
                pruned = []
                for op, srcs, dest, latency in items:
                    waits = tuple(
                        src for src in srcs if ready_at.get(src, position + 1) > position
                    )
                    pruned.append((op, waits, dest, latency))
                    if dest is not None:
                        ready_at[dest] = position + latency
                    position += 1
                if call is not None:
                    if call.target is not None:
                        ready_at[call.target] = position + call_latency
                    position += 1
                runs.append((tuple(pruned), call))
            block.runs = tuple(runs)
        return code


def _load_slot(inst, where):
    target, slot = inst.target, inst.imm

    def op(frame, memory):
        try:
            frame[target] = frame[slot]
        except KeyError:
            raise SimulationError(
                f"{where}: read of uninitialized frame slot {slot} in {inst}"
            ) from None

    return op


def _store_slot(slot, src):
    def op(frame, memory):
        frame[slot] = frame[src]

    return op


class Simulator:
    """Executes rvk machine code, counting cycles under the cost model.

    Each routine is decoded on its first call and kept for the life of
    the instance, so a module must not change between runs of one
    instance.  The instruction limit is checked on block entry, against
    the whole block: a run that completes raises if and only if its
    instruction count exceeds ``max_instructions``.
    """

    def __init__(
        self,
        module: Module,
        target: Optional[Target] = None,
        max_instructions: int = 50_000_000,
    ) -> None:
        self.module = module
        self.target = target if target is not None else Target()
        self.max_instructions = max_instructions
        self._code: dict = {}
        self._decoder = _MachineDecoder(self.target)

    def run(
        self,
        name: str,
        args: Sequence[Value] = (),
        memory: Optional[Memory] = None,
    ) -> SimResult:
        """Simulate routine ``name``; cycles cover the whole call tree."""
        memory = memory if memory is not None else Memory()
        self._instructions = 0
        self._branch = 0
        self._call_cycles = 0
        reset_visits(self._code.values())
        value, clock = self._call(name, list(args), memory, depth=0, clock=0)
        counts: Counter = Counter()
        count_visits(self._code.values(), counts)
        return SimResult(
            value=value,
            cycles=clock,
            instructions=self._instructions,
            # every cycle is an issue, a stall, a taken-branch or a call cycle
            stall_cycles=clock - self._instructions - self._branch - self._call_cycles,
            branch_cycles=self._branch,
            call_cycles=self._call_cycles,
            lds_ops=counts[Opcode.LDS],
            sts_ops=counts[Opcode.STS],
            memory=memory,
            counters=_block_counters(self._code.values()),
        )

    # -- internals -----------------------------------------------------------

    def _call(
        self, name: str, args: list, memory: Memory, depth: int, clock: int
    ) -> tuple[Optional[Value], int]:
        if depth > 200:
            raise SimulationError(f"call depth exceeded calling {name!r}")
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = self._decode(name)
        if len(args) != len(code.params):
            raise SimulationError(
                f"{name} expects {len(code.params)} args, got {len(args)}"
            )
        frame: dict = dict(enumerate(args))
        ready: dict[str, int] = {}
        target = self.target
        penalty = target.branch_penalty
        limit = self.max_instructions
        block = code.entry

        while True:
            block.visits += 1
            self._instructions += block.steps
            if self._instructions > limit:
                raise SimulationError(
                    f"instruction limit {limit} exceeded in {name}"
                )
            # the block's own cycles: calls move ``entered`` past the callee
            entered = clock
            try:
                for items, call in block.runs:
                    for op, srcs, dest, latency in items:
                        # operand stall: wait until every source is ready
                        start = clock
                        for src in srcs:
                            when = ready.get(src, 0)
                            if when > start:
                                start = when
                        clock = start + 1  # issue
                        op(frame, memory)
                        if dest is not None:
                            ready[dest] = start + latency
                    if call is not None:
                        start = clock
                        for src in call.srcs:
                            when = ready.get(src, 0)
                            if when > start:
                                start = when
                        clock = start + 1
                        overhead = (
                            target.call_overhead
                            + target.call_arg_cost * len(call.srcs)
                        )
                        self._call_cycles += overhead
                        issued = clock
                        result, clock = self._call(
                            call.callee,
                            [frame[s] for s in call.srcs],
                            memory,
                            depth + 1,
                            clock + overhead,
                        )
                        entered += clock - issued
                        if call.target is not None:
                            if result is None:
                                raise SimulationError(
                                    f"{call.callee} returned no value "
                                    "but one was expected"
                                )
                            frame[call.target] = result
                            ready[call.target] = clock + target.latencies[Opcode.CALL]
                # the terminator reads at most one register
                reg = block.reg
                if reg is not None:
                    when = ready.get(reg, 0)
                    if when > clock:
                        clock = when
                clock += 1
                block.stalls += clock - entered - block.steps
                term = block.term
                if term is Opcode.CBR:
                    taken, other = block.succ
                    nxt = taken if frame[reg] != 0 else other
                elif term is Opcode.JMP:
                    nxt = block.succ[0]
                elif term is Opcode.RET:
                    return (frame[reg] if reg is not None else None), clock
                else:
                    raise SimulationError(
                        f"{block.where}: fell off the end of a block"
                    )
            except KeyError as exc:
                raise block.undefined(exc, frame) from None
            if nxt is not block.layout_next:
                self._branch += penalty
                clock += penalty
            block = nxt

    def _decode(self, name: str):
        if name not in self.module:
            raise SimulationError(f"call to unknown routine {name!r}")
        func = self.module[name]
        if not is_machine_form(func):
            raise SimulationError(
                f"{name}: not machine code (run 'repro codegen' stages first)"
            )
        return self._decoder.decode(func)


def _block_counters(code_objects) -> dict:
    """Visits, stall cycles and frame-slot ops of every visited block."""
    counters = {}
    for code in code_objects:
        for block in code.blocks:
            visits = block.visits
            if visits:
                histogram = dict(block.histogram)
                counters[block.where] = {
                    "visits": visits,
                    "stall_cycles": block.stalls,
                    "lds_ops": visits * histogram.get(Opcode.LDS, 0),
                    "sts_ops": visits * histogram.get(Opcode.STS, 0),
                }
    return counters


def simulate_function(func, args: Sequence[Value] = (), **kwargs) -> SimResult:
    """Convenience: simulate a single machine function as a module."""
    target = kwargs.pop("target", None)
    return Simulator(Module([func]), target=target, **kwargs).run(func.name, args)
