"""Backend tests: lowering, allocation, scheduling, simulation, assembly.

The heart is the differential harness: for real suite routines *and* a
hypothesis fuzz corpus, machine code produced by lower → Chaitin–Briggs
allocation → list scheduling must compute exactly what the interpreter
computes, at every benchmarked register count.  Around it sit unit tests
for each backend stage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    assert_codegen_preserves_behavior,
    observe,
    observe_machine,
)
from tests.test_ir_fuzz import build_fuzz_function

from repro.backend import (
    AllocationError,
    AsmError,
    SimulationError,
    Simulator,
    Target,
    allocate_function,
    build_interference,
    codegen_module,
    lower_function,
    print_asm,
    read_asm,
)
from repro.backend.lower import frame_size, is_machine_form
from repro.backend.schedule import _conflict, dependences, schedule_function
from repro.backend.target import BENCH_KS, MIN_K, is_physical, machine_opcodes
from repro.interp import Memory
from repro.ir import (
    Instruction,
    Module,
    Opcode,
    parse_function,
    parse_module,
    print_module,
    validate_function,
)
from repro.pipeline import OptLevel, compile_source


def _machine(text: str):
    """Parse hand-written machine code (already lowered / allocated)."""
    module = parse_module(text)
    for func in module:
        assert is_machine_form(func), "test input must be machine form"
    return module


def _sim(text: str, name: str, args=(), k: int = 8, memory=None):
    module = _machine(text)
    return Simulator(module, Target(k=k)).run(
        name, list(args), memory if memory is not None else Memory()
    )


# ---------------------------------------------------------------------------
# differential: suite routines, sim == interp at k = 8 / 16 / 32
# ---------------------------------------------------------------------------

#: Cheap-to-run routines spanning all three suite origins.
_DIFF_ROUTINES = ["saxpy", "zeroin", "si", "supp", "fmtgen"]


@pytest.mark.parametrize("name", _DIFF_ROUTINES)
@pytest.mark.parametrize(
    "level", [OptLevel.BASELINE, OptLevel.DISTRIBUTION], ids=lambda lv: lv.value
)
def test_suite_routine_sim_matches_interp(name, level):
    from repro.bench.suite import suite_routines

    routine = next(r for r in suite_routines() if r.name == name)
    module = compile_source(routine.source, level.value)
    case = {"args": list(routine.args), "arrays": routine.fresh_arrays()}
    assert_codegen_preserves_behavior(
        module, routine.entry_name, cases=[case], ks=BENCH_KS
    )


# ---------------------------------------------------------------------------
# differential: deterministic fuzz corpus (arbitrary CFGs, small k)
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n_blocks=st.integers(2, 6),
    choices=st.lists(st.integers(0, 2 ** 16), min_size=80, max_size=80),
    args=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_fuzzed_cfgs_sim_matches_interp(n_blocks, choices, args):
    """Small k stresses the spill/remat paths the suite rarely forces."""
    func = build_fuzz_function(n_blocks, choices)
    expected = observe(func, args=list(args)).value
    for k in (MIN_K, 8):
        for schedule in (False, True):
            actual, _ = observe_machine(
                func, args=list(args), k=k, schedule=schedule
            )
            assert actual.value == expected, f"k={k} schedule={schedule}"


@settings(max_examples=10, deadline=None)
@given(
    n_blocks=st.integers(2, 5),
    choices=st.lists(st.integers(0, 2 ** 16), min_size=80, max_size=80),
)
def test_fuzzed_codegen_asm_round_trips(n_blocks, choices):
    """Allocated fuzz output must survive print_asm/read_asm unchanged."""
    func = build_fuzz_function(n_blocks, choices)
    module = Module([func])
    target = Target(k=8)
    codegen_module(module, target)
    text = print_asm(module, target)
    reread, retarget = read_asm(text)
    assert retarget.k == target.k
    assert print_module(reread) == print_module(module)


# ---------------------------------------------------------------------------
# target
# ---------------------------------------------------------------------------


def test_target_basics():
    target = Target(k=8)
    assert target.name == "rv8"
    assert target.registers == [f"x{i}" for i in range(8)]
    assert target.latency(Opcode.MUL) == 4
    assert "rv8" in target.describe()


def test_target_rejects_tiny_k():
    with pytest.raises(ValueError, match="at least"):
        Target(k=MIN_K - 1)


def test_machine_opcodes_exclude_phi_and_nop():
    ops = machine_opcodes()
    assert Opcode.PHI not in ops and Opcode.NOP not in ops
    assert {Opcode.LDS, Opcode.STS} <= ops
    with pytest.raises(KeyError, match="not part of"):
        Target().latency(Opcode.PHI)


def test_is_physical():
    assert is_physical("x0") and is_physical("x31")
    assert not is_physical("r0") and not is_physical("x") and not is_physical("xa")


# ---------------------------------------------------------------------------
# interference graph
# ---------------------------------------------------------------------------


def test_copy_target_does_not_interfere_with_source():
    func = parse_function(
        "function f(a) {\n"
        "entry:\n"
        "    b <- copy a\n"
        "    c <- add a, b\n"
        "    ret c\n"
        "}"
    )
    graph = build_interference(func)
    assert not graph.interferes("b", "a")  # copy exemption
    assert graph.interferes("c", "a") or graph.degree("c") == 0
    assert ("b", "a") in graph.moves


def test_param_clique_only_in_coalescer_view():
    func = parse_function(
        "function f(a, b, c) {\nentry:\n    r <- add a, b\n    ret r\n}"
    )
    coalescer_view = build_interference(func)
    assert coalescer_view.interferes("a", "c")  # live on entry together
    allocator_view = build_interference(func, params_live_in=False)
    assert not allocator_view.interferes("a", "c")  # c is never used


def test_interference_rejects_phi():
    func = parse_function(
        "function f(a) {\n"
        "entry:\n"
        "    cbr a -> one, two\n"
        "one:\n"
        "    x <- loadi 1\n"
        "    jmp -> join\n"
        "two:\n"
        "    y <- loadi 2\n"
        "    jmp -> join\n"
        "join:\n"
        "    z <- phi [one: x, two: y]\n"
        "    ret z\n"
        "}"
    )
    with pytest.raises(ValueError, match="phi-free"):
        build_interference(func)


def test_graph_merge_unions_neighborhoods():
    func = parse_function(
        "function f(a) {\n"
        "entry:\n"
        "    b <- loadi 1\n"
        "    c <- copy b\n"
        "    d <- add a, c\n"
        "    e <- add d, b\n"
        "    ret e\n"
        "}"
    )
    graph = build_interference(func)
    expected = (graph.neighbors("b") | graph.neighbors("c")) - {"b", "c"}
    graph.merge("b", "c")
    assert "c" not in graph.nodes()
    assert graph.neighbors("b") == expected


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


def test_lower_emits_prologue_only_for_used_params():
    func = parse_function(
        "function f(a, b) {\nentry:\n    nop\n    r <- add a, a\n    ret r\n}"
    )
    lower_function(func)
    validate_function(func)
    assert is_machine_form(func)
    prologue = func.entry.instructions[0]
    assert prologue.opcode is Opcode.LDS and prologue.target == "a"
    assert prologue.imm == 0  # slot 0 holds argument 0
    lds_targets = [
        inst.target for inst in func.instructions() if inst.opcode is Opcode.LDS
    ]
    assert lds_targets == ["a"]  # b is unused: no load
    assert all(inst.opcode is not Opcode.NOP for inst in func.instructions())
    assert frame_size(func) == 2  # arg area still spans both slots


def test_lower_destroys_ssa():
    func = parse_function(
        "function f(a) {\n"
        "entry:\n"
        "    cbr a -> one, join\n"
        "one:\n"
        "    x <- loadi 1\n"
        "    jmp -> join\n"
        "join:\n"
        "    z <- phi [entry: a, one: x]\n"
        "    ret z\n"
        "}"
    )
    lower_function(func)
    assert is_machine_form(func)
    assert all(not inst.is_phi for inst in func.instructions())


# ---------------------------------------------------------------------------
# register allocation
# ---------------------------------------------------------------------------

#: Ten values live across a block boundary: no order of either block
#: needs fewer than ten registers, so k=4 must spill.
_PRESSURE = (
    "function pressure() {\n"
    "entry:\n"
    + "".join(f"    v{i} <- loadi {i + 1}\n" for i in range(10))
    + "    jmp -> sum\n"
    "sum:\n"
    "    s <- add v0, v1\n"
    + "".join(f"    s <- add s, v{i}\n" for i in range(2, 10))
    + "    ret s\n"
    "}"
)


def _alloc(text: str, k: int):
    func = parse_function(text)
    lower_function(func)
    stats = allocate_function(func, Target(k=k))
    validate_function(func)
    return func, stats


def test_allocation_uses_only_in_range_physical_registers():
    func, stats = _alloc(_PRESSURE, k=4)
    assert stats.k == 4
    for inst in func.instructions():
        for reg in list(inst.srcs) + ([inst.target] if inst.target else []):
            assert is_physical(reg), f"virtual register survived: {reg}"
            assert int(reg[1:]) < 4, f"out-of-range register: {reg}"


def test_allocation_spills_under_pressure_and_stays_correct():
    # 10 constants simultaneously live cannot fit in 4 registers
    _, stats = _alloc(_PRESSURE, k=4)
    assert stats.spill_count > 0
    assert stats.iterations >= 1
    result = _sim(_PRESSURE, "pressure", k=4)
    assert result.value == sum(range(1, 11))


def test_pressure_function_spill_free_at_wide_k():
    _, stats = _alloc(_PRESSURE, k=16)
    assert stats.spill_count == 0


def test_spilled_constants_rematerialize_without_stores():
    func, stats = _alloc(_PRESSURE, k=4)
    assert stats.remat_defs > 0  # loadi spills recompute, not reload
    # remat spills need no frame traffic beyond the (empty) arg area
    sts = [i for i in func.instructions() if i.opcode is Opcode.STS]
    assert stats.spill_stores == len(sts)


#: Five loads summed as they arrive.  The list scheduler hoists the loads
#: to hide their latency, which needs more registers than the summing
#: order does.
_LOADS = (
    "function loads(p) {\n"
    "entry:\n"
    "    v0 <- load p\n"
    "    s <- add v0, v0\n"
    + "".join(f"    v{i} <- load p\n    s <- add s, v{i}\n" for i in range(1, 5))
    + "    ret s\n"
    "}"
)


def _lowered_opcodes(text: str) -> list:
    func = parse_function(text)
    lower_function(func)
    return _opcodes(func)


def _opcodes(func) -> list:
    return [inst.opcode for inst in func.entry.instructions]


def test_allocation_follows_the_scheduled_order_when_registers_allow():
    original = _lowered_opcodes(_LOADS)
    wide, stats = _alloc(_LOADS, k=16)
    assert stats.spill_count == 0
    assert _opcodes(wide) != original  # loads hoisted before allocation
    assert _opcodes(wide)[:4] == [Opcode.LDS, Opcode.LOAD, Opcode.LOAD, Opcode.LOAD]


def test_allocation_keeps_the_original_order_where_scheduling_would_spill():
    # at k=4 the hoisted loads would need more registers than the block's
    # own order (p, s and one loaded value): the guard keeps the original
    func, stats = _alloc(_LOADS, k=4)
    assert stats.spill_count == 0
    assert _opcodes(func) == _lowered_opcodes(_LOADS)
    memory = Memory()
    base = memory.allocate_array([3], 8)
    result = Simulator(Module([func]), Target(k=4)).run("loads", [base], memory)
    assert result.value == 6 * 3  # v0 twice, v1..v4 once each


def test_allocator_renames_colliding_physical_names():
    text = (
        "function f() {\n"
        "entry:\n"
        "    x12 <- loadi 40\n"
        "    x0 <- loadi 2\n"
        "    r <- add x12, x0\n"
        "    ret r\n"
        "}"
    )
    func, _ = _alloc(text, k=4)
    for inst in func.instructions():
        for reg in list(inst.srcs) + ([inst.target] if inst.target else []):
            assert int(reg[1:]) < 4
    assert _sim(print_module(Module([func])), "f", k=4).value == 42


def test_allocator_requires_machine_form():
    func = parse_function(
        "function f(a) {\nentry:\n    nop\n    r <- add a, a\n    ret r\n}"
    )
    with pytest.raises(AllocationError, match="machine form"):
        allocate_function(func, Target(k=8))


def test_allocation_stats_as_dict_round_trips_keys():
    _, stats = _alloc(_PRESSURE, k=4)
    data = stats.as_dict()
    assert data["k"] == 4
    assert data["spilled_registers"] == stats.spill_count
    assert data["frame_slots"] == stats.frame_slots


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


def test_schedule_hides_load_latency():
    text = (
        "function f() {\n"
        "entry:\n"
        "    x0 <- loadi 800\n"
        "    x1 <- load x0\n"
        "    x2 <- add x1, x1\n"
        "    x3 <- loadi 5\n"
        "    x4 <- loadi 7\n"
        "    x2 <- add x2, x3\n"
        "    x2 <- add x2, x4\n"
        "    ret x2\n"
        "}"
    )
    memory = Memory()
    memory.write(800, 21)
    before = _sim(text, "f", memory=memory)
    func = parse_function(text)
    changed = schedule_function(func, Target(k=8))
    assert changed == 1  # the independent loadis move into the load shadow
    memory = Memory()
    memory.write(800, 21)
    after = _sim(print_module(Module([func])), "f", memory=memory)
    assert after.value == before.value == 21 * 2 + 12
    assert after.cycles < before.cycles
    assert after.stall_cycles < before.stall_cycles


def test_schedule_keeps_terminator_last_and_is_deterministic():
    text = (
        "function f() {\n"
        "entry:\n"
        "    x0 <- loadi 1\n"
        "    x1 <- loadi 2\n"
        "    x2 <- mul x0, x1\n"
        "    x3 <- loadi 3\n"
        "    x4 <- add x2, x3\n"
        "    ret x4\n"
        "}"
    )
    func1 = parse_function(text)
    func2 = parse_function(text)
    schedule_function(func1, Target(k=8))
    schedule_function(func2, Target(k=8))
    one = print_module(Module([func1]))
    assert one == print_module(Module([func2]))
    assert func1.entry.instructions[-1].opcode is Opcode.RET


def test_schedule_respects_memory_dependences():
    text = (
        "function f() {\n"
        "entry:\n"
        "    x0 <- loadi 800\n"
        "    x1 <- loadi 1\n"
        "    store x1, x0\n"
        "    x2 <- load x0\n"
        "    x3 <- loadi 2\n"
        "    store x3, x0\n"
        "    ret x2\n"
        "}"
    )
    func = parse_function(text)
    schedule_function(func, Target(k=8))
    assert _sim(print_module(Module([func])), "f").value == 1


def _pairwise_dependences(body: list) -> tuple[list, list]:
    """The dependence graph by definition: ``_conflict`` on every pair."""
    succs: list = [[] for _ in body]
    preds_left = [0] * len(body)
    for i in range(len(body)):
        for j in range(i + 1, len(body)):
            if _conflict(body[i], body[j]):
                succs[i].append(j)
                preds_left[j] += 1
    return succs, preds_left


def _block_bodies(module):
    for func in module:
        for blk in func.blocks:
            body = list(blk.instructions)
            if body and body[-1].is_terminator:
                body.pop()
            yield body


@pytest.mark.parametrize("name", _DIFF_ROUTINES + ["sgemm", "tomcatv"])
def test_dependences_match_the_pairwise_definition_on_suite_blocks(name):
    from repro.bench.suite import suite_routines

    routine = next(r for r in suite_routines() if r.name == name)
    for level in ("baseline", "distribution"):
        text = print_module(compile_source(routine.source, level))
        virtual = parse_module(text)
        for func in virtual:
            lower_function(func)
        bodies = list(_block_bodies(virtual))
        for k in (8, 32):  # physical registers, with and without spills
            machine = parse_module(text)
            codegen_module(machine, Target(k=k), schedule=False)
            bodies += _block_bodies(machine)
        for body in bodies:
            assert dependences(body) == _pairwise_dependences(body)


_REGS = ["r0", "r1", "r2", "r3"]


@st.composite
def _machine_instructions(draw):
    """One straight-line instruction over a few registers and slots,
    covering every kind of ordering edge: registers, heap and frame."""
    reg = st.sampled_from(_REGS)
    kind = draw(st.sampled_from(["add", "loadi", "load", "store", "lds", "sts", "call"]))
    if kind == "add":
        return Instruction(Opcode.ADD, target=draw(reg), srcs=[draw(reg), draw(reg)])
    if kind == "loadi":
        return Instruction(Opcode.LOADI, target=draw(reg), imm=draw(st.integers(0, 9)))
    if kind == "load":
        return Instruction(Opcode.LOAD, target=draw(reg), srcs=[draw(reg)])
    if kind == "store":
        return Instruction(Opcode.STORE, srcs=[draw(reg), draw(reg)])
    if kind == "lds":
        return Instruction(Opcode.LDS, target=draw(reg), imm=draw(st.integers(0, 2)))
    if kind == "sts":
        return Instruction(Opcode.STS, srcs=[draw(reg)], imm=draw(st.integers(0, 2)))
    return Instruction(
        Opcode.CALL,
        target=draw(st.none() | reg),
        srcs=draw(st.lists(reg, max_size=2)),
        callee="f",
    )


@settings(max_examples=200, deadline=None)
@given(body=st.lists(_machine_instructions(), max_size=24))
def test_dependences_match_the_pairwise_definition_on_fuzz_blocks(body):
    assert dependences(body) == _pairwise_dependences(body)


def test_schedule_never_returns_a_slower_order_than_its_input():
    # greedy issues the second mul first (longest path through the WAW
    # edge to the last load), which delays the first load's consumer one
    # cycle; the input order is already stall-free, so it stays
    text = (
        "function f() {\n"
        "entry:\n"
        "    x4 <- loadi 800\n"
        "    x3 <- loadi 2\n"
        "    x1 <- loadi 3\n"
        "    jmp -> body\n"
        "body:\n"
        "    x0 <- load x4\n"
        "    x3 <- mul x3, x4\n"
        "    x2 <- mul x1, x1\n"
        "    x2 <- load x0\n"
        "    ret x2\n"
        "}"
    )
    func = parse_function(text)
    body = [str(inst) for inst in func.block("body").instructions]
    schedule_function(func, Target(k=8))
    assert [str(inst) for inst in func.block("body").instructions] == body
    memory = Memory()
    memory.write(800, 808)
    memory.write(808, 5)
    assert _sim(print_module(Module([func])), "f", memory=memory).value == 5


# ---------------------------------------------------------------------------
# simulator cost model
# ---------------------------------------------------------------------------


def test_sim_counts_instructions_and_stalls():
    result = _sim(
        "function f() {\n"
        "entry:\n"
        "    x0 <- loadi 6\n"
        "    x1 <- loadi 7\n"
        "    x2 <- mul x0, x1\n"
        "    ret x2\n"
        "}",
        "f",
    )
    assert result.value == 42
    assert result.instructions == 4
    # ret consumes the mul result 1 cycle after issue; mul takes 4
    assert result.stall_cycles == 3
    assert result.branch_cycles == 0 and result.call_cycles == 0


def test_sim_charges_taken_branches_only():
    fall_through = _sim(
        "function f() {\n"
        "entry:\n"
        "    x0 <- loadi 1\n"
        "    jmp -> next\n"
        "next:\n"
        "    ret x0\n"
        "}",
        "f",
    )
    assert fall_through.branch_cycles == 0
    taken = _sim(
        "function f() {\n"
        "entry:\n"
        "    x0 <- loadi 1\n"
        "    jmp -> far\n"
        "mid:\n"
        "    ret x0\n"
        "far:\n"
        "    jmp -> mid\n"
        "}",
        "f",
    )
    assert taken.branch_cycles == 2 * Target().branch_penalty
    assert taken.cycles > fall_through.cycles


def test_sim_charges_call_overhead_per_argument():
    leaf = (
        "function leaf(a, b) {\n"
        "entry:\n"
        "    a <- lds 0\n"
        "    b <- lds 1\n"
        "    r <- add a, b\n"
        "    ret r\n"
        "}\n"
    )
    two_args = _sim(
        leaf
        + "function main() {\n"
        "entry:\n"
        "    x0 <- loadi 40\n"
        "    x1 <- loadi 2\n"
        "    x2 <- call leaf(x0, x1)\n"
        "    ret x2\n"
        "}",
        "main",
    )
    target = Target()
    assert two_args.value == 42
    assert two_args.call_cycles == target.call_overhead + 2 * target.call_arg_cost
    assert two_args.lds_ops == 2


_NESTED_CALLS = (
    "function main(n) {\n"
    "entry:\n"
    "    n <- lds 0\n"
    "    i <- loadi 0\n"
    "    s <- loadi 0\n"
    "    one <- loadi 1\n"
    "    jmp -> head\n"
    "head:\n"
    "    c <- cmplt i, n\n"
    "    cbr c -> body, done\n"
    "body:\n"
    "    v <- call mid(i)\n"
    "    s <- add s, v\n"
    "    i <- add i, one\n"
    "    jmp -> head\n"
    "done:\n"
    "    ret s\n"
    "}\n"
    "function mid(a) {\n"
    "entry:\n"
    "    a <- lds 0\n"
    "    b <- call leaf(a, a)\n"
    "    c <- add a, b\n"
    "    ret c\n"
    "}\n"
    "function leaf(a, b) {\n"
    "entry:\n"
    "    a <- lds 0\n"
    "    b <- lds 1\n"
    "    r <- mul a, b\n"
    "    ret r\n"
    "}"
)


def test_sim_accounts_calls_inside_a_loop_through_nested_calls():
    result = _sim(_NESTED_CALLS, "main", [3])
    assert result.value == 0 + 2 + 6  # sum of i + i*i
    assert result.instructions == 26 + 3 * 4 + 3 * 4
    # per call: leaf 1 (lds b) + 3 (mul); mid 1 (lds a) + 1 (call result);
    # main 1 per iteration (call result)
    assert result.stall_cycles == 3 * 4 + 3 * 2 + 3
    # body -> head three times, head -> done once
    assert result.branch_cycles == 4 * Target().branch_penalty
    # 3 x (6 + 1 arg) into mid, 3 x (6 + 2 args) into leaf
    assert result.call_cycles == 3 * 7 + 3 * 8
    assert result.cycles == 124
    assert (result.lds_ops, result.sts_ops) == (1 + 3 + 6, 0)


def _assert_counters_add_up(result) -> None:
    """The per-block counters sum exactly to the run's totals."""
    blocks = result.counters.values()
    assert sum(block["stall_cycles"] for block in blocks) == result.stall_cycles
    assert sum(block["lds_ops"] for block in blocks) == result.lds_ops
    assert sum(block["sts_ops"] for block in blocks) == result.sts_ops
    assert all(block["visits"] > 0 for block in blocks)


def test_sim_counts_stalls_per_block_through_nested_calls():
    result = _sim(_NESTED_CALLS, "main", [3])
    _assert_counters_add_up(result)
    stalls = {name: block["stall_cycles"] for name, block in result.counters.items()}
    # the callee's stalls are its own, not the calling block's
    assert stalls == {
        "main/entry": 0,
        "main/head": 0,
        "main/body": 3,
        "main/done": 0,
        "mid/entry": 3 * 2,
        "leaf/entry": 3 * 4,
    }
    assert result.counters["main/head"]["visits"] == 4
    assert result.counters["leaf/entry"]["lds_ops"] == 3 * 2


@pytest.mark.parametrize("name", ["sgemm", "tomcatv", "spline"])
def test_sim_block_counters_add_up_with_spills(name):
    from repro.bench.suite import suite_routines

    routine = next(r for r in suite_routines() if r.name == name)
    module = compile_source(routine.source, "distribution")
    _, result = observe_machine(
        module,
        routine.entry_name,
        args=list(routine.args),
        arrays=routine.fresh_arrays(),
        k=8,
    )
    assert result.sts_ops > 0  # k=8 spills in all three
    _assert_counters_add_up(result)


def test_sgemm_baseline_is_no_slower_at_k32_than_at_k16():
    """The allocator's lowest-free colors used to pile body4's temporaries
    onto one register at k=32 (15 of its 24 instructions wrote x11), and
    the scheduler had to keep that order: 44,277 cycles against 39,277."""
    from repro.bench.suite import suite_routines

    routine = next(r for r in suite_routines() if r.name == "sgemm")
    module = compile_source(routine.source, "baseline")
    results = {
        k: observe_machine(
            module,
            routine.entry_name,
            args=list(routine.args),
            arrays=routine.fresh_arrays(),
            k=k,
        )[1]
        for k in (16, 32)
    }
    assert results[32].cycles <= results[16].cycles
    body4 = {k: result.counters["sgemm/body4"] for k, result in results.items()}
    assert body4[32]["visits"] == body4[16]["visits"] == 1000
    assert body4[32]["stall_cycles"] <= body4[16]["stall_cycles"]


def test_backend_report_names_the_block_behind_each_k32_slowdown():
    from repro.bench.backend import BackendCell, BackendRow, k32_slower_than_k16

    def cell(cycles: int, stalls: dict):
        blocks = {b: {"visits": 1, "stall_cycles": n} for b, n in stalls.items()}
        return BackendCell(cycles, 0, 0, 0, sum(stalls.values()), True, blocks)

    row = BackendRow(name="r")
    for level in OptLevel:
        row.cells[(level.value, 16)] = cell(100, {"f/a": 10, "f/b": 5})
        row.cells[(level.value, 32)] = cell(90, {"f/a": 4, "f/b": 1})
    # one level slower at k=32; b's stalls differ by 7 there, a's by 3
    row.cells[("partial", 32)] = cell(104, {"f/a": 13, "f/b": 6, "f/c": 0})
    row.cells[("partial", 16)] = cell(100, {"f/a": 10, "f/b": 13})
    assert k32_slower_than_k16([row]) == [
        {
            "routine": "r",
            "level": "partial",
            "cycles": {"16": 100, "32": 104},
            "block": "f/b",
            "block_stall_cycles": {"16": 13, "32": 6},
        }
    ]


def test_sim_rejects_uninitialized_frame_slot():
    with pytest.raises(SimulationError, match="uninitialized frame"):
        _sim(
            "function f() {\nentry:\n    x0 <- lds 3\n    ret x0\n}",
            "f",
        )


def test_sim_rejects_runaway_recursion():
    text = "function f() {\nentry:\n    x0 <- call f()\n    ret x0\n}"
    with pytest.raises(SimulationError, match="call depth"):
        _sim(text, "f")


def test_sim_traps_on_division_by_zero():
    from repro.interp.machine import TrapError

    with pytest.raises(TrapError):
        _sim(
            "function f() {\n"
            "entry:\n"
            "    x0 <- loadi 1\n"
            "    x1 <- loadi 0\n"
            "    x2 <- idiv x0, x1\n"
            "    ret x2\n"
            "}",
            "f",
        )


def test_sim_spill_traffic_is_counted():
    module = parse_module(_PRESSURE)
    target = Target(k=4)
    stats = codegen_module(module, target)
    result = Simulator(module, target).run("pressure", [], Memory())
    assert result.value == sum(range(1, 11))
    if stats["pressure"].spill_stores:
        assert result.sts_ops > 0
    assert result.lds_ops >= result.sts_ops


# ---------------------------------------------------------------------------
# assembly round-trip
# ---------------------------------------------------------------------------


def test_asm_round_trip_preserves_text_and_target():
    module = parse_module(_PRESSURE)
    target = Target(k=8)
    codegen_module(module, target)
    text = print_asm(module, target)
    assert text.startswith("# target: rv8")
    assert "arity 0" in text
    reread, retarget = read_asm(text)
    assert retarget.k == 8
    assert print_module(reread) == print_module(module)


def test_asm_requires_target_directive():
    with pytest.raises(AsmError, match="target"):
        read_asm("function f() {\nentry:\n    ret\n}")


def test_asm_rejects_non_machine_code():
    module = parse_module("function f() {\nentry:\n    nop\n    ret\n}")
    with pytest.raises(AsmError, match="not machine code"):
        print_asm(module, Target(k=8))
    with pytest.raises(AsmError, match="non-rv8"):
        read_asm("# target: rv8\nfunction f() {\nentry:\n    nop\n    ret\n}")


# ---------------------------------------------------------------------------
# registry integration
# ---------------------------------------------------------------------------


def test_codegen_passes_and_sequences_are_registered():
    from repro.pm.registry import (
        _ensure_registered,
        all_passes,
        sequence_names,
    )

    _ensure_registered()
    names = {info.name for info in all_passes()}
    assert {"lower", "regalloc", "schedule"} <= names
    assert {"codegen8", "codegen16", "codegen32"} <= set(sequence_names())


def test_codegen_via_pass_manager_cache_round_trips():
    """Machine code must survive the manager's print/parse cache layer."""
    from repro.backend.codegen import codegen_sequence
    from repro.pm.cache import PassCache
    from repro.pm.manager import PassManager

    source = _PRESSURE
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(2):  # second run hits the cache
            manager = PassManager(
                codegen_sequence(8), verify="final", cache=PassCache(tmp)
            )
            module = parse_module(source)
            manager.run_module(module)
            result = Simulator(module, Target(k=8)).run("pressure", [], Memory())
            assert result.value == sum(range(1, 11))
