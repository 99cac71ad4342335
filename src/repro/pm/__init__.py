"""The instrumented pass manager.

The subsystem the paper's Unix-filter optimizer lacked (see
``docs/PIPELINE.md``):

* :mod:`repro.pm.registry` — named pass descriptors and named sequences;
* :mod:`repro.pm.manager` — per-pass timing, IR-size deltas,
  composable ``verify=`` policies (structural, ``lint``, ``transval``;
  each/final), cache integration;
* :mod:`repro.pm.cache` — content-addressed printed-IR cache, a view
  over the one entry store :mod:`repro.store`;
* :mod:`repro.pm.parallel` — per-function fan-out with deterministic
  (bit-identical to serial) output;
* :mod:`repro.pm.remarks` — structured JSONL optimization remarks.
"""

from repro.pm.cache import PassCache, cache_key
from repro.pm.manager import (
    VERIFY_POLICIES,
    ManagerStats,
    PassManager,
    PassStat,
    PassVerificationError,
    VerifyPlan,
    parse_verify,
)
from repro.pm.registry import (
    PassInfo,
    all_passes,
    get_pass,
    get_sequence,
    register_pass,
    register_sequence,
    resolve_spec,
    sequence_fingerprint,
    sequence_names,
    spec_label,
)
from repro.pm.remarks import Remark, RemarkCollector, emit, load_jsonl, remark_context

__all__ = [
    "ManagerStats",
    "PassCache",
    "PassInfo",
    "PassManager",
    "PassStat",
    "PassVerificationError",
    "Remark",
    "VERIFY_POLICIES",
    "VerifyPlan",
    "RemarkCollector",
    "all_passes",
    "cache_key",
    "emit",
    "get_pass",
    "get_sequence",
    "load_jsonl",
    "parse_verify",
    "register_pass",
    "register_sequence",
    "remark_context",
    "resolve_spec",
    "sequence_fingerprint",
    "sequence_names",
    "spec_label",
]
