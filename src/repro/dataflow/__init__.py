"""Global data-flow analysis.

* :mod:`repro.dataflow.framework` — the one iterative solver for
  gen/kill problems, stated on ``frozenset``\\ s of hashable facts or
  on int bit masks;
* :mod:`repro.dataflow.bitset` — the fact-interning table the PRE
  equations' bit masks index;
* :mod:`repro.dataflow.problems` — the analyses the optimizer needs:
  liveness, available expressions, anticipable expressions, definite
  assignment;
* :mod:`repro.dataflow.expressions` — the per-block local properties
  (ANTLOC / COMP / TRANSP) over lexical expression keys that PRE consumes.
"""

from repro.dataflow.expressions import ExpressionTable
from repro.dataflow.framework import DataflowProblem, DataflowResult, solve
from repro.dataflow.problems import (
    anticipable_expressions,
    available_expressions,
    live_variables,
)

__all__ = [
    "DataflowProblem",
    "DataflowResult",
    "ExpressionTable",
    "anticipable_expressions",
    "available_expressions",
    "live_variables",
    "solve",
]
