"""Basic-block list scheduling, before and after register allocation.

The allocator orders each block with :func:`schedule_block` before it
colors (:mod:`repro.backend.regalloc`), and :func:`schedule_function`
runs again once every name is physical, when the dependence graph is
exact: RAW edges carry the producer's latency, WAR/WAW edges and
memory/effect edges only force issue order.  The scheduler is the
classic greedy list algorithm — at each step it issues, among the
instructions whose predecessors have all issued, the one that can start
earliest, breaking ties by longest critical path to the block's end and
then by original position (fully deterministic).  Greedy is a heuristic:
when its order would finish later than the block's own order under the
same stall model, the block keeps its own order.

:func:`_conflict` defines which pairs must stay ordered;
:func:`dependences` finds the same pairs without testing all of them.

Ordering constraints beyond registers:

* ``store`` is a barrier against every other memory operation
  (``load``/``store``/``call``) — the byte-addressed heap is shared;
* ``load``s may reorder freely with each other;
* ``lds``/``sts`` order only against accesses of the *same* frame slot
  (slots are private and the slot index is a literal, so disambiguation
  is exact); ``sts``/``sts`` on one slot keep order, ``lds``/``lds``
  reorder freely.  Calls do **not** order against the frame — register
  windows give every activation a private frame;
* ``call``s stay in order with each other and with heap accesses
  (callees may read or write the heap);
* the terminator always issues last.

Scheduling never crosses block boundaries, so values, traps and memory
effects are untouched — the differential harness checks this on every
suite routine and fuzz function.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.opcodes import Opcode

from repro.backend.target import Target

_HEAP = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.CALL})


def _conflict(a, b) -> bool:
    """Must ``a`` (earlier) stay ordered before ``b`` (later)?"""
    # register dependences: RAW / WAR / WAW
    if a.target is not None and (a.target in b.srcs or a.target == b.target):
        return True
    if b.target is not None and b.target in a.srcs:
        return True
    # heap: stores and calls are barriers, load-load reorders freely
    if a.opcode in _HEAP and b.opcode in _HEAP:
        if not (a.opcode is Opcode.LOAD and b.opcode is Opcode.LOAD):
            return True
    # frame slots: exact disambiguation on the literal slot index
    if a.opcode in (Opcode.LDS, Opcode.STS) and b.opcode in (Opcode.LDS, Opcode.STS):
        if a.imm == b.imm and (a.opcode is Opcode.STS or b.opcode is Opcode.STS):
            return True
    return False


def dependences(body: list) -> tuple[list, list]:
    """The block's dependence graph: ``(succs, preds_left)``.

    ``succs[i]`` lists, in ascending order, every later instruction that
    :func:`_conflict` keeps after ``body[i]``; ``preds_left[j]`` counts
    the earlier ones ``body[j]`` waits for.  Rather than test all pairs,
    each instruction looks its predecessors up among the earlier ones,
    indexed by the register they define or read, by heap access kind
    and by frame slot.
    """
    n = len(body)
    succs: list[list[int]] = [[] for _ in range(n)]
    preds_left = [0] * n
    defs: dict = {}  # register -> indices that write it
    uses: dict = {}  # register -> indices that read it
    heap: list[int] = []  # load, store, call
    barriers: list[int] = []  # store, call
    slot_stores: dict = {}  # frame slot -> sts indices
    slot_accesses: dict = {}  # frame slot -> lds and sts indices
    for j, inst in enumerate(body):
        preds: set[int] = set()
        for src in inst.srcs:  # RAW
            preds.update(defs.get(src, ()))
        target = inst.target
        if target is not None:  # WAW, WAR
            preds.update(defs.get(target, ()))
            preds.update(uses.get(target, ()))
        opcode = inst.opcode
        if opcode in _HEAP:
            preds.update(barriers if opcode is Opcode.LOAD else heap)
            heap.append(j)
            if opcode is not Opcode.LOAD:
                barriers.append(j)
        elif opcode is Opcode.LDS:
            preds.update(slot_stores.get(inst.imm, ()))
            slot_accesses.setdefault(inst.imm, []).append(j)
        elif opcode is Opcode.STS:
            preds.update(slot_accesses.get(inst.imm, ()))
            slot_accesses.setdefault(inst.imm, []).append(j)
            slot_stores.setdefault(inst.imm, []).append(j)
        for i in preds:
            succs[i].append(j)
        preds_left[j] = len(preds)
        for src in inst.srcs:
            uses.setdefault(src, []).append(j)
        if target is not None:
            defs.setdefault(target, []).append(j)
    return succs, preds_left


def schedule_block(instructions: list, target: Target) -> list:
    """Return a scheduled copy of one block's instruction list."""
    if not instructions:
        return instructions
    body = list(instructions)
    terminator = None
    if body[-1].is_terminator:
        terminator = body.pop()
    n = len(body)
    if n < 2:
        return body + ([terminator] if terminator else [])

    succs, preds_left = dependences(body)

    latency = target.latencies
    lat = [max(1, latency.get(inst.opcode, 1)) for inst in body]
    # critical path to the end of the block (drives the tie-break)
    path = [0] * n
    for i in range(n - 1, -1, -1):
        path[i] = lat[i] + max([path[j] for j in succs[i]], default=0)

    done_at = [0] * n  # cycle the instruction's result is ready
    earliest = [0] * n  # lower bound on issue from scheduled predecessors
    order: list[int] = []
    clock = 0
    available = [i for i in range(n) if preds_left[i] == 0]

    while available:
        # earliest possible issue for each candidate under the stall model
        best = min(
            available,
            key=lambda i: (max(clock, earliest[i]), -path[i], i),
        )
        available.remove(best)
        start = max(clock, earliest[best])
        clock = start + 1
        done_at[best] = start + lat[best]
        order.append(best)
        written = body[best].target
        for j in succs[best]:
            raw = written is not None and written in body[j].srcs
            bound = done_at[best] if raw else start + 1
            if bound > earliest[j]:
                earliest[j] = bound
            preds_left[j] -= 1
            if preds_left[j] == 0:
                available.append(j)

    if order == list(range(n)):
        result = body
    else:
        result = [body[i] for i in order]
        # greedy is a heuristic: never hand back an order slower than the input
        if _finish(body, terminator, latency) < _finish(result, terminator, latency):
            result = body
    if terminator is not None:
        result.append(terminator)
    return result


def _finish(body: list, terminator, latency: dict) -> int:
    """Cycles to issue ``body`` then ``terminator`` in order, every
    register ready on entry: the block's cost under the stall model."""
    ready: dict = {}
    clock = 0
    for inst in body:
        start = clock
        for src in inst.srcs:
            when = ready.get(src, 0)
            if when > start:
                start = when
        clock = start + 1
        if inst.target is not None:
            ready[inst.target] = start + max(1, latency.get(inst.opcode, 1))
    if terminator is not None:
        for src in terminator.srcs:
            clock = max(clock, ready.get(src, 0))
        clock += 1
    return clock


def schedule_function(func: Function, target: Target | None = None) -> int:
    """List-schedule every block of ``func``; returns # of blocks changed."""
    target = target if target is not None else Target()
    changed = 0
    for blk in func.blocks:
        new = schedule_block(blk.instructions, target)
        if new != blk.instructions:
            changed += 1
        blk.instructions = new
    return changed
