"""Optimization levels as *data*: named sequences in the pass registry.

The paper's four Table 1 configurations are registered with
:mod:`repro.pm.registry` as named sequences of ``(pass, options)``
specs — no closures, no duplicated wrappers.  Every compile entry point
takes a sequence *name* and runs it through
:class:`repro.pm.manager.PassManager` (timing, verification, caching);
:class:`OptLevel` only enumerates the four names that are Table 1's
columns.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.pm.registry import register_sequence

#: The paper's baseline: "global constant propagation, global peephole
#: optimization, global dead code elimination, coalescing, and a final
#: pass to eliminate empty basic blocks" (section 4.1).
BASELINE_SPECS: tuple = ("constprop", "peephole", "dce", "coalesce", "clean")

#: The four configurations of Table 1, as registry specs.
LEVEL_SEQUENCES: dict[str, list] = {
    "baseline": [*BASELINE_SPECS],
    "partial": ["pre", *BASELINE_SPECS],
    "reassociation": [
        ("reassociate", {"distribute": False}),
        "gvn",
        "pre",
        *BASELINE_SPECS,
    ],
    "distribution": [
        ("reassociate", {"distribute": True}),
        "gvn",
        "pre",
        *BASELINE_SPECS,
    ],
}

#: The DISTRIBUTION pipeline plus the passes the paper lacked (section
#: 4.1 names hash-based value numbering and strength reduction; LVN
#: slots in around PRE, strength reduction after it).  Not one of
#: Table 1's columns — it measures the paper's "our results understate
#: the eventual benefits" prediction (``python -m repro.bench.ablation``).
EXTENDED_SPECS: list = [
    ("reassociate", {"distribute": True}),
    "gvn",
    "lvn",
    "pre",
    "lvn",
    "strength",
    *BASELINE_SPECS,
]

register_sequence(
    "baseline", LEVEL_SEQUENCES["baseline"], "the paper's section 4.1 baseline"
)
register_sequence(
    "partial", LEVEL_SEQUENCES["partial"], "PRE, then the baseline sequence"
)
register_sequence(
    "reassociation",
    LEVEL_SEQUENCES["reassociation"],
    "reassociation (no distribution) + GVN before PRE",
)
register_sequence(
    "distribution",
    LEVEL_SEQUENCES["distribution"],
    "reassociation with distribution + GVN before PRE (the paper's best)",
)
register_sequence(
    "extended",
    EXTENDED_SPECS,
    "distribution plus the LVN and strength reduction the paper lacked",
)

#: The DISTRIBUTION pipeline with profile-guided speculative PRE
#: (``lospre``) in place of the conservative solver: the ``-Ospec``
#: level.  Not a Table 1 column — the paper never speculated — so it
#: lives beside :class:`OptLevel`, not inside it.
SPEC_SPECS: list = [
    ("reassociate", {"distribute": True}),
    "gvn",
    "lospre",
    *BASELINE_SPECS,
]

register_sequence(
    "spec",
    SPEC_SPECS,
    "distribution with lifetime-optimal speculative PRE (profile-guided)",
)


class OptLevel(enum.Enum):
    """The four configurations of Table 1, by registry sequence name.

    Compile entry points take the name (``level.value``); the enum only
    fixes which four sequences are the paper's columns.
    """

    BASELINE = "baseline"
    PARTIAL = "partial"
    REASSOCIATION = "reassociation"
    DISTRIBUTION = "distribution"


#: The degradation ladder, as registry-style data: for each level, the
#: next-lower level the containment layer retries at when a pass fails
#: (spec → O2 → O1 → O0 → none).  ``"none"`` runs zero passes, so it
#: cannot fail — walking the ladder always terminates in a valid
#: compile, which is the service's never-fail guarantee
#: (:mod:`repro.triage.containment`).
DEGRADATION_LADDER: dict[str, Optional[str]] = {
    "spec": "distribution",
    "extended": "distribution",
    "distribution": "partial",
    "reassociation": "partial",
    "partial": "baseline",
    "baseline": "none",
    "none": None,
}


def ladder_next(level_name: str) -> Optional[str]:
    """The next rung down, or ``None`` from the bottom.

    Unregistered sequence names step straight to ``"baseline"`` — an
    unknown custom sequence still degrades into something honest.
    """
    if level_name in DEGRADATION_LADDER:
        return DEGRADATION_LADDER[level_name]
    return "baseline"


def ladder_levels(level_name: str) -> list[str]:
    """The full fallback chain starting at ``level_name`` (inclusive)."""
    chain = [level_name]
    seen = {level_name}
    current: Optional[str] = level_name
    while True:
        current = ladder_next(current)
        if current is None or current in seen:
            return chain
        chain.append(current)
        seen.add(current)
