"""A bugpoint-style delta-debugging reducer for incidents.

Given a recorded incident, shrink **both** the pass sequence and the
function IR to a minimal artifact that still reproduces the original
oracle — same exception kind, or same refutation by the same pass
(:meth:`repro.triage.bisect.ReplayOutcome.matches`).  The loop is the
classic greedy ddmin skeleton:

1. **sequence** — try dropping each pass spec; keep any drop after
   which the oracle still fires; iterate to a fixpoint.  This runs
   first because a shorter sequence makes every later IR probe cheaper.
2. **IR, coarse (blocks)** — fold each conditional branch to one of
   its successors, then sweep unreachable blocks (pruning φ operands
   from removed predecessors); keep when the oracle still fires.
3. **IR, fine (instructions)** — try deleting each non-terminator
   instruction; keep the deletions that preserve the failure.

Every candidate is structurally validated *before* the oracle runs, so
nonsense mutants are rejected for free; the oracle budget
(``max_checks``) bounds total replays, and the best artifact found so
far is returned even when the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.validate import IRValidationError, validate_function
from repro.pm.registry import spec_label
from repro.triage.bisect import replay
from repro.triage.incidents import Incident


@dataclass
class ReducedArtifact:
    """The minimal reproducer the reducer converged on."""

    function: str
    ir: str
    specs: list
    verify: str
    error_type: str
    pass_label: str
    oracle_checks: int
    instructions_before: int
    instructions_after: int
    specs_before: int
    specs_after: int

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "ir": self.ir,
            "specs": [[name, options] for name, options in self.specs],
            "verify": self.verify,
            "error_type": self.error_type,
            "pass_label": self.pass_label,
            "oracle_checks": self.oracle_checks,
            "instructions_before": self.instructions_before,
            "instructions_after": self.instructions_after,
            "specs_before": self.specs_before,
            "specs_after": self.specs_after,
        }


class _Budget:
    def __init__(self, limit: int):
        self.limit = max(1, int(limit))
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def reduce_incident(
    incident: Incident, *, max_checks: int = 400
) -> Optional[ReducedArtifact]:
    """Shrink the incident to a minimal reproducer, or ``None`` if the
    recorded artifact does not reproduce at all."""
    budget = _Budget(max_checks)
    specs = [(name, dict(options)) for name, options in incident.specs]
    ir_text = incident.input_ir

    def oracle(candidate_ir: str, candidate_specs: list) -> bool:
        if not budget.take():
            return False
        outcome = replay(
            incident, ir_text=candidate_ir, specs=candidate_specs
        )
        return outcome.matches(incident)

    if not oracle(ir_text, specs):
        return None
    before_instructions = parse_function(ir_text).static_count()
    specs = _reduce_specs(ir_text, specs, oracle)
    ir_text = _reduce_ir(ir_text, specs, oracle)
    return ReducedArtifact(
        function=incident.function,
        ir=ir_text,
        specs=specs,
        verify=incident.verify,
        error_type=incident.error_type,
        pass_label=incident.pass_label,
        oracle_checks=budget.spent,
        instructions_before=before_instructions,
        instructions_after=parse_function(ir_text).static_count(),
        specs_before=len(incident.specs),
        specs_after=len(specs),
    )


# -- sequence reduction --------------------------------------------------------


def _reduce_specs(ir_text: str, specs: list, oracle) -> list:
    """Greedy one-at-a-time spec removal to a fixpoint."""
    changed = True
    while changed and len(specs) > 1:
        changed = False
        for index in range(len(specs) - 1, -1, -1):
            candidate = specs[:index] + specs[index + 1:]
            if candidate and oracle(ir_text, candidate):
                specs = candidate
                changed = True
    return specs


# -- IR reduction --------------------------------------------------------------


def _reduce_ir(ir_text: str, specs: list, oracle) -> str:
    """Coarse (branch folding + unreachable sweep) then fine (per
    instruction) IR shrinking, keeping the oracle green throughout."""
    ir_text = _fold_branches(ir_text, specs, oracle)
    ir_text = _delete_instructions(ir_text, specs, oracle)
    return ir_text


def _candidate_text(func: Function) -> Optional[str]:
    """Printed text of a mutant, or ``None`` when structurally invalid."""
    try:
        validate_function(func)
    except IRValidationError:
        return None
    return print_function(func)


def _fold_branches(ir_text: str, specs: list, oracle) -> str:
    """Fold each CBR to a JMP (both arms), sweeping what goes dead."""
    progress = True
    while progress:
        progress = False
        func = parse_function(ir_text)
        sites = [
            (block_index, arm)
            for block_index, blk in enumerate(func.blocks)
            if blk.instructions and blk.instructions[-1].opcode is Opcode.CBR
            for arm in (0, 1)
        ]
        for block_index, arm in sites:
            mutant = parse_function(ir_text)
            branch = mutant.blocks[block_index].instructions[-1]
            mutant.blocks[block_index].instructions[-1] = Instruction(
                Opcode.JMP, labels=[branch.labels[arm]]
            )
            mutant.remove_unreachable_blocks()
            mutant.sync_counters()
            text = _candidate_text(mutant)
            if text is not None and oracle(text, specs):
                ir_text = text
                progress = True
                break
    return ir_text


def _delete_instructions(ir_text: str, specs: list, oracle) -> str:
    """Try deleting each non-terminator instruction, last block first."""
    progress = True
    while progress:
        progress = False
        func = parse_function(ir_text)
        sites = [
            (block_index, inst_index)
            for block_index in range(len(func.blocks) - 1, -1, -1)
            for inst_index in range(
                len(func.blocks[block_index].instructions) - 1, -1, -1
            )
            if not func.blocks[block_index].instructions[
                inst_index
            ].is_terminator
        ]
        for block_index, inst_index in sites:
            mutant = parse_function(ir_text)
            del mutant.blocks[block_index].instructions[inst_index]
            text = _candidate_text(mutant)
            if text is not None and oracle(text, specs):
                ir_text = text
                progress = True
                break
    return ir_text


def describe(artifact: ReducedArtifact) -> str:
    """A human-readable reduction report (``repro triage reduce``)."""
    specs = ", ".join(spec_label(spec) for spec in artifact.specs)
    return (
        f"reduced {artifact.function}: "
        f"{artifact.instructions_before} -> {artifact.instructions_after} "
        f"instructions, {artifact.specs_before} -> {artifact.specs_after} "
        f"passes [{specs}] ({artifact.oracle_checks} oracle checks); "
        f"still fails with {artifact.error_type} in {artifact.pass_label!r}"
    )
