"""Profiling subsystem tests: recorder determinism, store round-trips,
merge arithmetic, staleness, and the static-estimate fallback."""

import json
import os

from repro.frontend import compile_program
from repro.pipeline import compile_source
from repro.profile import (
    FunctionProfile,
    ProfileRecorder,
    ProfileStore,
    collect_module_profiles,
    function_source_hash,
    prepare_profiled_module,
    set_default_store,
    static_profile,
)
from repro.store import seal, unseal

LOOP_SOURCE = """
routine accum(n: integer, a: real, b: real) -> real
  integer i
  real s
  s = 0.0
  i = 0
  while i < n
    if a > 0.0 then
      s = s + a * b
    end
    i = i + 1
  end
  return s
end
"""

RUNS = [("accum", (50, 3.0, 2.0), [])]


def _collect(store=None):
    module = prepare_profiled_module(compile_program(LOOP_SOURCE))
    recorder = ProfileRecorder()
    profiles = collect_module_profiles(
        module, RUNS, store=store, recorder=recorder
    )
    return module, recorder, profiles


def test_recorder_determinism():
    """Same program, same inputs: identical counters, twice over."""
    _, first, _ = _collect()
    _, second, _ = _collect()
    assert first.blocks == second.blocks
    assert first.edges == second.edges
    assert first.blocks["accum"]  # the loop actually ran


def test_profile_counts_reflect_execution():
    module, recorder, profiles = _collect()
    (profile,) = profiles
    assert profile.function == "accum"
    assert profile.source == "measured"
    # 50 iterations: the loop body block count dominates the entry count
    assert max(profile.block_counts.values()) >= 50
    assert profile.source_hash == function_source_hash(
        module.functions["accum"]
    )


def test_store_round_trip(tmp_path):
    store = ProfileStore(str(tmp_path))
    _, _, (profile,) = _collect(store=store)
    fresh = ProfileStore(str(tmp_path))  # no memory tier: disk only
    loaded = fresh.get(profile.function, profile.source_hash)
    assert loaded is not None
    assert loaded.block_counts == profile.block_counts
    assert loaded.edge_counts == profile.edge_counts


def test_store_merge_sums_counters(tmp_path):
    store = ProfileStore(str(tmp_path))
    _collect(store=store)
    _, _, (merged,) = _collect(store=store)
    _, _, (single,) = _collect()
    assert merged.runs == 2
    assert merged.block_counts == {
        label: 2 * count for label, count in single.block_counts.items()
    }


def test_merge_rejects_mismatched_hash():
    a = FunctionProfile("f", "aaa", {"b0": 1}, {})
    b = FunctionProfile("f", "bbb", {"b0": 1}, {})
    try:
        a.merge(b)
    except ValueError:
        return
    raise AssertionError("merge across different body hashes must raise")


def test_stale_hash_misses(tmp_path):
    store = ProfileStore(str(tmp_path))
    _, _, (profile,) = _collect(store=store)
    assert store.get("accum", "0" * 64) is None
    assert store.get("accum", profile.source_hash) is not None


def test_version_mismatch_reads_as_miss(tmp_path):
    store = ProfileStore(str(tmp_path))
    _, _, (profile,) = _collect(store=store)
    (entry,) = [
        name for name in os.listdir(tmp_path)
        if name.endswith(ProfileStore.suffix)
    ]
    path = tmp_path / entry
    payload = json.loads(unseal(path.read_text()))
    payload["version"] = 999
    path.write_text(seal(json.dumps(payload)))  # intact seal, stale layout
    fresh = ProfileStore(str(tmp_path))
    assert fresh.get(profile.function, profile.source_hash) is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    store = ProfileStore(str(tmp_path))
    _, _, (profile,) = _collect(store=store)
    (entry,) = [
        name for name in os.listdir(tmp_path)
        if name.endswith(ProfileStore.suffix)
    ]
    (tmp_path / entry).write_text("not json {")
    fresh = ProfileStore(str(tmp_path))
    assert fresh.get(profile.function, profile.source_hash) is None


def test_empty_store_falls_back_to_static(tmp_path):
    """lospre with no (or stale) profile compiles fine: static estimate."""
    from repro.analysis.freq import resolve_frequencies

    empty = ProfileStore(str(tmp_path))
    with set_default_store(empty):
        module = compile_source(LOOP_SOURCE, level="spec")
    assert "accum" in module.functions

    func = prepare_profiled_module(
        compile_program(LOOP_SOURCE)
    ).functions["accum"]
    freq = resolve_frequencies(func, store=empty)
    assert freq.source == "static"


def test_static_profile_weights_by_loop_depth():
    module = prepare_profiled_module(compile_program(LOOP_SOURCE))
    profile = static_profile(module.functions["accum"])
    assert profile.source == "static"
    weights = set(profile.block_counts.values())
    assert 1 in weights  # entry/exit code
    assert 10 in weights  # the loop body


def test_default_store_override_scopes():
    from repro.profile.store import default_store

    override = ProfileStore(None)
    with set_default_store(override):
        assert default_store() is override
    assert default_store() is not override


def test_profile_collect_fails_loudly_when_the_store_cannot_write(
    tmp_path, capsys
):
    from repro.cli import main as cli_main

    source = tmp_path / "accum.f"
    source.write_text(LOOP_SOURCE)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code = cli_main([
        "profile", "collect", str(source), "accum", "5", "3.0", "2.0",
        "--dir", str(blocker / "profiles"),
    ])
    assert code == 1
    assert "could not be written" in capsys.readouterr().err
