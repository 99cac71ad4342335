"""The experimental study (paper section 4).

* :mod:`repro.bench.suite` — the test-routine registry (the paper used 50
  routines from SPEC and from Forsythe–Malcolm–Moler; see DESIGN.md for
  the substitution);
* :mod:`repro.bench.table1` — dynamic operation counts at the four
  optimization levels (Table 1);
* :mod:`repro.bench.table2` — static code expansion caused by forward
  propagation (Table 2);
* :mod:`repro.bench.ablation` — ablations of the design choices;
* :mod:`repro.bench.report` — the paper-style percentage formatting,
  and :func:`~repro.bench.report.finish`, the one report writer of the
  ``repro bench`` gate runners.
"""

from repro.bench.suite import SUITE, SuiteRoutine, suite_routines

__all__ = ["SUITE", "SuiteRoutine", "suite_routines"]
