"""Execution profiling: edge/block counters feeding speculative PRE.

The paper's Table 1 counts *static* operations; this package adds the
dynamic side.  The interpreter (:mod:`repro.interp.machine`) accepts a
:class:`~repro.profile.collect.ProfileRecorder` and streams block-entry
and edge-traversal counts into it while a routine executes.  Profiles
are keyed by ``(function name, source hash)`` and persisted in a
content-addressed :class:`~repro.profile.store.ProfileStore` (a view
over :mod:`repro.store`, like every other store in the repo).  When no fresh
profile exists, :mod:`repro.profile.estimate` supplies the classic
static estimate — ``10 ** loop_depth`` weights — so every consumer has
a total frequency assignment and staleness can never crash a build.

:mod:`repro.profile.witness` carries the per-insertion justification
trail from the ``lospre`` pass to the certify placement audit.
"""

from repro.profile.collect import (
    PROFILE_PREFIX_SPECS,
    ProfileRecorder,
    collect_module_profiles,
    prepare_profiled_module,
)
from repro.profile.estimate import static_profile
from repro.profile.model import (
    PROFILE_FORMAT_VERSION,
    FunctionProfile,
    function_source_hash,
)
from repro.profile.store import ProfileStore, default_store, set_default_store

__all__ = [
    "PROFILE_FORMAT_VERSION",
    "PROFILE_PREFIX_SPECS",
    "FunctionProfile",
    "ProfileRecorder",
    "ProfileStore",
    "collect_module_profiles",
    "default_store",
    "function_source_hash",
    "prepare_profiled_module",
    "set_default_store",
    "static_profile",
]
