"""SSA construction: φ placement and renaming with copy folding.

Follows Cytron et al. [11]: φ-nodes are placed on the iterated dominance
frontier of each variable's definition blocks; *pruned* SSA (the form the
paper builds, section 3.1) additionally requires the variable to be live at
the φ's block, which avoids dead φ-nodes ("minimal SSA would have required
many more φ-nodes", Figure 4's caption).

Copy folding: while renaming, a ``x <- copy y`` does not produce a new
name; the current name of ``y`` is simply pushed onto ``x``'s stack and
the copy is removed.  This removes the dependence on the programmer's
choice of variable names (section 2.2 / 3.1 of the paper).
"""

from __future__ import annotations

from repro.analysis.manager import analyses
from repro.dataflow.problems import live_variables
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode


def to_ssa(func: Function, pruned: bool = True, fold_copies: bool = True) -> Function:
    """Rewrite ``func`` into SSA form, in place; returns ``func``.

    Args:
        func: the function to rewrite (mutated).
        pruned: place a φ only where the variable is live (pruned SSA);
            with ``False`` build minimal SSA.
        fold_copies: fold ``copy`` instructions into the renaming instead
            of keeping them (the paper's choice).
    """
    if any(inst.is_phi for inst in func.instructions()):
        # the renaming below assumes φ-free input; lower existing φs to
        # copies first (they fold right back into fresh φs)
        from repro.ssa.destruction import destroy_ssa

        destroy_ssa(func)
    func.remove_unreachable_blocks()
    manager = analyses(func)
    cfg = manager.cfg()
    dom = manager.dominators()

    def_blocks: dict[str, set[str]] = {}
    for blk in func.blocks:
        for inst in blk.instructions:
            for target in inst.defs():
                def_blocks.setdefault(target, set()).add(blk.label)
    for param in func.params:
        def_blocks.setdefault(param, set()).add(func.entry.label)

    live_in: dict[str, frozenset] = {}
    if pruned:
        liveness = live_variables(func, cfg)
        live_in = {label: liveness.at_entry(label) for label in cfg.labels}
        # a name live into no block gets no φ anywhere: skip its frontier
        live_somewhere = set().union(*live_in.values())

    # -- φ placement -------------------------------------------------------
    phi_vars: dict[str, set[str]] = {label: set() for label in cfg.labels}
    for var, blocks in def_blocks.items():
        if pruned and var not in live_somewhere:
            continue
        for label in dom.iterated_frontier(set(blocks)):
            if pruned and var not in live_in.get(label, frozenset()):
                continue
            phi_vars[label].add(var)

    preds = func.predecessor_map()
    blocks = func.block_map()
    phi_for_var: dict[str, dict[str, Instruction]] = {label: {} for label in cfg.labels}
    for label, vars_here in phi_vars.items():
        blk = blocks[label]
        n_preds = len(preds[label])
        for var in sorted(vars_here):
            phi = Instruction(
                Opcode.PHI,
                target=var,  # renamed below
                srcs=[var] * n_preds,
                phi_labels=list(preds[label]),
            )
            blk.instructions.insert(0, phi)
            phi_for_var[label][var] = phi

    # -- renaming ------------------------------------------------------------
    stacks: dict[str, list[str]] = {var: [] for var in def_blocks}
    for param in func.params:
        stacks[param].append(param)

    counters: dict[str, int] = {}

    def fresh_name(var: str) -> str:
        # keep names readable: derive from the source variable
        counters[var] = counters.get(var, 0) + 1
        return f"{var}_{counters[var]}"

    def current(var: str) -> str:
        if var not in stacks or not stacks[var]:
            # use before any def (valid only on paths that never execute);
            # materialize a name so the IR stays well formed
            stacks.setdefault(var, []).append(var)
        return stacks[var][-1]

    def rename_block(label: str) -> None:
        blk = blocks[label]
        pushed: list[str] = []
        removed: list[Instruction] = []
        for inst in blk.instructions:
            if inst.is_phi:
                var = inst.target
                new = fresh_name(var)
                stacks.setdefault(var, []).append(new)
                pushed.append(var)
                inst.target = new
                continue
            inst.srcs = [current(src) for src in inst.srcs]
            if fold_copies and inst.is_copy:
                var = inst.target
                stacks.setdefault(var, []).append(inst.srcs[0])
                pushed.append(var)
                removed.append(inst)
                continue
            if inst.target is not None:
                var = inst.target
                new = fresh_name(var)
                stacks.setdefault(var, []).append(new)
                pushed.append(var)
                inst.target = new
        for inst in removed:
            blk.instructions.remove(inst)
        # fill φ inputs of CFG successors
        for succ in cfg.succs[label]:
            for var, phi in phi_for_var[succ].items():
                for i, pred_label in enumerate(phi.phi_labels):
                    if pred_label == label:
                        phi.srcs[i] = current(var)
        for child in dom.children(label):
            rename_block(child)
        for var in reversed(pushed):
            stacks[var].pop()

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(func.blocks) + 1000))
    try:
        rename_block(func.entry.label)
    finally:
        sys.setrecursionlimit(old_limit)

    func.sync_counters()
    return func
