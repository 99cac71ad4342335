"""Basic blocks, functions and modules."""

from __future__ import annotations

import itertools
from typing import Container, Iterable, Iterator, Optional

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode


class BasicBlock:
    """A labelled, single-entry single-exit straight-line code sequence.

    The final instruction is the terminator (JMP, CBR or RET); PHI nodes,
    when present, appear as a prefix of the instruction list.
    """

    __slots__ = ("label", "instructions")

    def __init__(self, label: str, instructions: Optional[list[Instruction]] = None) -> None:
        self.label = label
        self.instructions = instructions if instructions is not None else []

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's terminator, or None if the block is unterminated."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successor_labels(self) -> list[str]:
        """Labels of CFG successors, in branch order (taken first for CBR)."""
        term = self.terminator
        if term is None or term.opcode is Opcode.RET:
            return []
        return list(term.labels)

    def phis(self) -> list[Instruction]:
        """The block's PHI instructions (always a prefix)."""
        result = []
        for inst in self.instructions:
            if inst.is_phi:
                result.append(inst)
            else:
                break
        return result

    def drop_phi_inputs(self, labels: Container[str]) -> None:
        """Drop the PHI inputs flowing in from any block in ``labels``."""
        for inst in self.instructions:
            if inst.is_phi:
                kept = [
                    (src, lbl)
                    for src, lbl in zip(inst.srcs, inst.phi_labels)
                    if lbl not in labels
                ]
                inst.srcs = [src for src, _ in kept]
                inst.phi_labels = [lbl for _, lbl in kept]

    def body(self) -> list[Instruction]:
        """Instructions after the PHI prefix."""
        return self.instructions[len(self.phis()):]

    def insert_before_terminator(self, inst: Instruction) -> None:
        """Insert an instruction just before the terminator (or append)."""
        if self.terminator is not None:
            self.instructions.insert(len(self.instructions) - 1, inst)
        else:
            self.instructions.append(inst)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instructions)} insts)>"


class Function:
    """A routine: an ordered list of basic blocks; the first is the entry.

    Attributes:
        name: the routine name.
        params: virtual registers holding incoming parameters (the paper's
            ``enter(r0, r1)``).
        blocks: basic blocks; ``blocks[0]`` is the entry.
    """

    def __init__(self, name: str, params: Optional[list[str]] = None) -> None:
        self.name = name
        self.params = params if params is not None else []
        self.blocks: list[BasicBlock] = []
        self._reg_counter = itertools.count()
        self._label_counter = itertools.count()
        #: this function's :class:`~repro.analysis.manager.AnalysisManager`,
        #: created by :func:`repro.analysis.manager.analyses` on first use
        self.analysis_manager = None

    # -- structure ------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        """Find a block by label.  Raises KeyError if absent."""
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(label)

    def block_map(self) -> dict[str, BasicBlock]:
        return {blk.label: blk for blk in self.blocks}

    def add_block(self, label: str) -> BasicBlock:
        blk = BasicBlock(label)
        self.blocks.append(blk)
        return blk

    def instructions(self) -> Iterator[Instruction]:
        """All instructions, block order then instruction order."""
        for blk in self.blocks:
            yield from blk.instructions

    def clone(self) -> "Function":
        """A deep structural copy, much cheaper than a print/parse trip."""
        copy = Function(self.name, list(self.params))
        for blk in self.blocks:
            copy.blocks.append(BasicBlock(blk.label, [
                Instruction(
                    inst.opcode,
                    target=inst.target,
                    srcs=inst.srcs,
                    imm=inst.imm,
                    callee=inst.callee,
                    labels=inst.labels,
                    phi_labels=inst.phi_labels,
                )
                for inst in blk.instructions
            ]))
        copy.sync_counters()
        return copy

    def static_count(self) -> int:
        """Static number of operations (every instruction counts)."""
        return sum(len(blk) for blk in self.blocks)

    # -- fresh names -------------------------------------------------------------

    def sync_counters(self) -> None:
        """Bump the fresh-name counters past every name already in use.

        Call after constructing or parsing a function so that
        :meth:`new_reg` / :meth:`new_label` never collide.
        """
        max_reg = -1
        for name in self.all_registers():
            if name.startswith("r") and name[1:].isdigit():
                max_reg = max(max_reg, int(name[1:]))
        self._reg_counter = itertools.count(max_reg + 1)
        max_label = -1
        for blk in self.blocks:
            if blk.label.startswith("b") and blk.label[1:].isdigit():
                max_label = max(max_label, int(blk.label[1:]))
        self._label_counter = itertools.count(max_label + 1)

    def new_reg(self) -> str:
        """A fresh virtual register name."""
        return f"r{next(self._reg_counter)}"

    def new_label(self) -> str:
        """A fresh block label."""
        return f"b{next(self._label_counter)}"

    def all_registers(self) -> set[str]:
        """Every register mentioned anywhere in the function."""
        regs = set(self.params)
        for blk in self.blocks:
            for inst in blk.instructions:
                if inst.target is not None:
                    regs.add(inst.target)
                regs.update(inst.srcs)
        return regs

    # -- CFG ------------------------------------------------------------------------

    def successors(self, label: str) -> list[str]:
        return self.block(label).successor_labels()

    def predecessor_map(self) -> dict[str, list[str]]:
        """Map from block label to the labels of its CFG predecessors.

        Predecessors are listed in deterministic order (block order, with a
        block that branches to the same target twice listed twice — the
        parser/validator forbid that, so in practice entries are unique).
        """
        preds: dict[str, list[str]] = {blk.label: [] for blk in self.blocks}
        for blk in self.blocks:
            for succ in blk.successor_labels():
                if succ in preds:  # unknown targets are the validator's job
                    preds[succ].append(blk.label)
        return preds

    def remove_unreachable_blocks(self) -> list[str]:
        """Drop blocks not reachable from the entry; returns removed labels.

        PHI inputs flowing from removed predecessors are dropped too.
        """
        if not self.blocks:
            return []
        reachable: set[str] = set()
        stack = [self.entry.label]
        blocks = self.block_map()
        while stack:
            label = stack.pop()
            if label in reachable or label not in blocks:
                continue  # unknown targets are the validator's job
            reachable.add(label)
            stack.extend(blocks[label].successor_labels())
        removed = [blk.label for blk in self.blocks if blk.label not in reachable]
        if not removed:
            return []
        self.blocks = [blk for blk in self.blocks if blk.label in reachable]
        gone = set(removed)
        for blk in self.blocks:
            blk.drop_phi_inputs(gone)
        return removed

    def __repr__(self) -> str:
        return f"<Function {self.name}({', '.join(self.params)}) {len(self.blocks)} blocks>"

    def __str__(self) -> str:
        from repro.ir.printer import print_function

        return print_function(self)


class Module:
    """A collection of functions; the unit the interpreter executes."""

    def __init__(self, functions: Optional[Iterable[Function]] = None) -> None:
        self.functions: dict[str, Function] = {}
        for func in functions or ():
            self.add(func)

    def add(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def __getitem__(self, name: str) -> Function:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:
        return f"<Module {sorted(self.functions)}>"

    def __str__(self) -> str:
        from repro.ir.printer import print_module

        return print_module(self)
