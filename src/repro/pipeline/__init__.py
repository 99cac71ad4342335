"""The optimizer pipeline: the paper's four optimization levels.

The optimizer "is structured as a sequence of passes, where each pass is
a Unix filter that consumes and produces ILOC" (section 4).  Table 1
compares four configurations, the registry sequences :class:`OptLevel`
names:

* ``BASELINE`` — constant propagation, global peephole optimization,
  dead-code elimination, coalescing, empty-block elimination;
* ``PARTIAL`` — PRE, then the baseline sequence;
* ``REASSOCIATION`` — global reassociation (without distribution) and
  global value numbering before PRE and the rest;
* ``DISTRIBUTION`` — global reassociation including distribution of
  multiplication over addition, then as above.
"""

from repro.pipeline.levels import OptLevel
from repro.pipeline.driver import compile_payload, compile_source, run_routine

__all__ = [
    "OptLevel",
    "compile_payload",
    "compile_source",
    "run_routine",
]
