"""The virtual RISC target: registers, calling convention, cost model.

The backend lowers optimized ILOC onto **rvk** — a small, self-contained
load/store machine documented in full in ``docs/BACKEND.md``:

* ``k`` general-purpose registers ``x0 .. x{k-1}``, all symmetric and all
  allocatable (``k`` is configurable; 8/16/32 are the benchmark points);
* a **register-windowed** calling convention (SPARC-style): ``call``
  rotates to a fresh window, so the callee cannot clobber the caller's
  registers and nothing needs saving around calls.  The window rotation
  is charged in cycles (see :attr:`Target.call_overhead`);
* arguments travel through the callee's **frame slots**: slot ``i``
  holds argument ``i`` on entry, so the prologue materializes each
  parameter it needs with ``lds i``.  Spill slots are appended after the
  argument area;
* a single-issue, in-order pipeline with full forwarding: every
  instruction issues in one cycle, its result becomes ready
  ``latency(op)`` cycles after issue, and a consumer that reads a
  not-yet-ready register stalls until it is.  Taken branches (a transfer
  to any block other than the next one in layout order) pay
  :attr:`Target.branch_penalty` extra cycles.

The ISA reuses the ILOC opcode set (ILOC is already three-address,
register-based, load/store) minus ``phi``/``nop``, plus the frame-slot
ops ``lds``/``sts`` — 35 operations total.  :func:`machine_opcodes`
returns the exact set; lowering guarantees only these appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.opcodes import Opcode

#: Minimum register count: one binary op needs two sources plus one
#: target live at once, and spill/reload code must itself be colorable.
MIN_K = 4

#: Per-opcode result latency in cycles (issue-to-ready).  Stores and
#: branches produce no value; their entry is the issue cost beyond the
#: single issue cycle (0 for all — taken-branch cost is separate).
DEFAULT_LATENCIES: dict[Opcode, int] = {
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.NEG: 1,
    Opcode.MIN: 1,
    Opcode.MAX: 1,
    Opcode.ABS: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.NOT: 1,
    Opcode.SHL: 1,
    Opcode.SHR: 1,
    Opcode.CMPLT: 1,
    Opcode.CMPLE: 1,
    Opcode.CMPGT: 1,
    Opcode.CMPGE: 1,
    Opcode.CMPEQ: 1,
    Opcode.CMPNE: 1,
    Opcode.LOADI: 1,
    Opcode.COPY: 1,
    Opcode.ITOF: 2,
    Opcode.FTOI: 2,
    Opcode.MUL: 4,
    Opcode.IDIV: 12,
    Opcode.MOD: 12,
    Opcode.FDIV: 16,
    Opcode.LOAD: 3,
    Opcode.LDS: 2,
    Opcode.STORE: 0,
    Opcode.STS: 0,
    Opcode.JMP: 0,
    Opcode.CBR: 0,
    Opcode.RET: 0,
    Opcode.CALL: 1,  # latency of the *returned value* past the callee's cycles
    Opcode.INTRIN: 20,
}

#: Opcodes that may appear in machine code (the rvk ISA).
_MACHINE_OPCODES = frozenset(DEFAULT_LATENCIES)


def machine_opcodes() -> frozenset:
    """The exact opcode set of the rvk ISA (35 operations)."""
    return _MACHINE_OPCODES


@dataclass(frozen=True)
class Target:
    """One configuration of the rvk machine.

    Attributes:
        k: number of general-purpose registers (``x0 .. x{k-1}``).
        latencies: per-opcode result latency (cycles from issue to ready).
        branch_penalty: extra cycles for a taken branch (a control
            transfer to any block other than the next in layout order).
        call_overhead: fixed window-rotation cost per ``call``/``intrin``
            entry-exit pair, before per-argument costs.
        call_arg_cost: extra cycles per argument of a ``call``.
    """

    k: int = 16
    latencies: dict = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    branch_penalty: int = 2
    call_overhead: int = 6
    call_arg_cost: int = 1

    def __post_init__(self) -> None:
        if self.k < MIN_K:
            raise ValueError(f"target needs at least {MIN_K} registers, got k={self.k}")

    @property
    def name(self) -> str:
        return f"rv{self.k}"

    @property
    def registers(self) -> list[str]:
        """The physical register names, ``x0 .. x{k-1}``."""
        return [f"x{i}" for i in range(self.k)]

    def latency(self, opcode: Opcode) -> int:
        try:
            return self.latencies[opcode]
        except KeyError:
            raise KeyError(
                f"opcode {opcode.value!r} is not part of the {self.name} ISA"
            ) from None

    def describe(self) -> str:
        """One-line summary for ``repro passes`` and reports."""
        return (
            f"{self.name}: {self.k} GPRs (x0..x{self.k - 1}), load/store, "
            f"register windows, {len(self.latencies)} ops, "
            f"taken-branch +{self.branch_penalty}, call +{self.call_overhead}"
        )


def is_physical(reg: str) -> bool:
    """True for a physical register name (``x`` followed by digits)."""
    return reg.startswith("x") and reg[1:].isdigit()


#: The Table 1 benchmark configurations.
BENCH_KS = (8, 16, 32)


def bench_targets() -> list[Target]:
    """The three targets the cycles benchmark sweeps (k=8/16/32)."""
    return [Target(k=k) for k in BENCH_KS]
