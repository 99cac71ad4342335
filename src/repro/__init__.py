"""repro — Effective Partial Redundancy Elimination (Briggs & Cooper, PLDI 1994).

A complete reproduction of the paper's optimizer: an ILOC-like IR, SSA and
data-flow machinery, the paper's baseline optimization sequence, partial
redundancy elimination, partition-based global value numbering, and the
paper's primary contribution — global reassociation — plus the front end,
interpreter, benchmark suite and experiment harnesses used to regenerate
Table 1 and Table 2.

Quickstart::

    from repro import compile_source, OptLevel, run_routine

    counts = {}
    for level in OptLevel:
        module = compile_source(SOURCE, level=level.value)
        counts[level] = run_routine(module, "saxpy", args=[...]).dynamic_count
"""

__version__ = "1.0.0"

from repro.ir import (
    BasicBlock,
    Function,
    IRBuilder,
    Instruction,
    Module,
    Opcode,
    parse_function,
    parse_module,
    print_function,
    print_module,
    validate_function,
)

__all__ = [
    "BasicBlock",
    "Function",
    "IRBuilder",
    "Instruction",
    "Module",
    "Opcode",
    "parse_function",
    "parse_module",
    "print_function",
    "print_module",
    "validate_function",
    "__version__",
]


def __getattr__(name: str):
    """Lazily re-export the high-level pipeline API.

    Importing :mod:`repro` must not pull in every subsystem eagerly; the
    pipeline, front end and interpreter are resolved on first access.
    """
    lazy = {
        "OptLevel": ("repro.pipeline", "OptLevel"),
        "compile_source": ("repro.pipeline", "compile_source"),
        "run_routine": ("repro.pipeline", "run_routine"),
        "Interpreter": ("repro.interp", "Interpreter"),
    }
    if name in lazy:
        import importlib

        module_name, attr = lazy[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
