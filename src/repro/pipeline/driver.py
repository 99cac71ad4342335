"""Compile-and-run conveniences used by examples, tests and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.frontend import compile_program
from repro.interp import ExecutionResult, Interpreter, Memory
from repro.ir.function import Module
from repro.ir.parser import parse_module
from repro.ir.validate import validate_module
from repro.pm.cache import PassCache
from repro.pm.manager import PassManager, parse_verify
from repro.pm.remarks import RemarkCollector

if TYPE_CHECKING:
    from repro.backend.sim import SimResult, Simulator


def parse_payload(kind: str, text: str) -> Module:
    """The unoptimized module of a payload: ``kind`` is ``"source"`` or ``"ir"``."""
    if kind == "source":
        return compile_program(text)
    if kind == "ir":
        return parse_module(text)
    raise ValueError(f"unknown payload kind {kind!r}")


def compile_payload(
    kind: str,
    text: str,
    level: str = "distribution",
    verify: str = "final",
    *,
    manager: Optional[PassManager] = None,
) -> Module:
    """Compile one payload: the one compile every entry point runs.

    ``level`` is a registered sequence name (a Table 1 level, ``spec``,
    ``extended``, ...) or ``"none"``, which runs no pass and only checks
    the module under ``verify``.  A ``manager`` runs in place of the one
    built from ``level`` and ``verify``: the daemon workers pass their
    warm, cache-backed one (keyed on (level, verify), so its sequence is
    ``level``'s), the CLI one carrying remarks and stats.
    Every server reply is byte-identical to this function's output
    because the daemon's workers call it too.
    """
    module = parse_payload(kind, text)
    if manager is None and level != "none":
        manager = PassManager(level, verify=verify)
    if manager is not None:
        return manager.run_module(module)
    plan = parse_verify(verify)
    if plan.lint_each or plan.lint_final:
        from repro.verify.lint import lint_module

        lint_module(module, raise_on_error=True)
    elif not plan.off:
        validate_module(module)
    return module


def compile_source(
    source: str,
    level: Optional[str] = None,
    *,
    manager: Optional[PassManager] = None,
    verify: str = "final",
    cache: Optional[PassCache] = None,
    collector: Optional[RemarkCollector] = None,
    stats=None,
) -> Module:
    """Compile mini-FORTRAN source, optionally optimizing at ``level``.

    The ``kind="source"`` convenience over :func:`compile_payload`:
    ``level`` is a registered sequence name, and ``None`` (like
    ``"none"``) keeps the frontend's output.  The ``manager`` given
    wins (its sequence/verify/cache settings apply, and its stats
    accumulate across calls); otherwise one is built from ``level`` and
    the keyword knobs.  ``verify="final"`` (the default) validates every
    compiled module; cache hits replay already-validated IR and skip
    re-validation.
    """
    level = level or "none"
    if manager is None and level != "none":
        manager = PassManager(
            level, verify=verify, cache=cache, collector=collector, stats=stats
        )
    return compile_payload("source", source, level, verify, manager=manager)


@dataclass
class RoutineRun:
    """A routine execution with the array state that went in and came out."""

    result: ExecutionResult | SimResult
    arrays: list[list] = field(default_factory=list)

    @property
    def value(self):
        return self.result.value

    @property
    def dynamic_count(self) -> int:
        return self.result.dynamic_count


def run_routine(
    module: Module,
    name: str,
    args: Sequence = (),
    arrays: Sequence[tuple[Sequence, int]] = (),
    machine: Optional[Interpreter | Simulator] = None,
) -> RoutineRun:
    """Run a routine; array parameters are appended after scalar ``args``.

    ``arrays`` is a sequence of ``(initial_values, elemsize)`` pairs; each
    is allocated in a fresh memory and its base address passed as the next
    argument.  Final array contents are returned for checking.  The run is
    ``machine``'s: an :class:`Interpreter` over ``module`` by default, or
    a backend ``Simulator`` over the allocated module, whose ``SimResult``
    (cycles) becomes the run's ``result``.
    """
    memory = Memory()
    bases: list[tuple[int, int, int]] = []
    full_args = list(args)
    for values, elemsize in arrays:
        values = list(values)
        base = memory.allocate_array(values, elemsize)
        bases.append((base, len(values), elemsize))
        full_args.append(base)
    machine = machine if machine is not None else Interpreter(module)
    result = machine.run(name, full_args, memory)
    return RoutineRun(
        result=result,
        arrays=[
            memory.read_array(base, count, elemsize)
            for base, count, elemsize in bases
        ],
    )
