"""Tests for the instrumented pass manager (repro.pm)."""

import json

import pytest

from repro.frontend import compile_program
from repro.ir import print_module
from repro.ir.function import Function
from repro.ir.printer import print_function
from repro.pipeline import compile_payload, compile_source
from repro.pm import (
    ManagerStats,
    PassCache,
    PassManager,
    PassVerificationError,
    RemarkCollector,
    all_passes,
    get_pass,
    get_sequence,
    load_jsonl,
    register_pass,
    sequence_fingerprint,
    spec_label,
)
from repro.pm.registry import _PASSES
from repro.profile.store import ProfileStore, set_default_store

SOURCE = """
routine saxpy(n: int, a: real, x: real[8], y: real[8])
  integer i
  do i = 1, n
    y(i) = a * x(i) + y(i)
  end
end

routine dot(n: int, x: real[8], y: real[8]) -> real
  real s
  integer i
  s = 0.0
  do i = 1, n
    s = s + x(i) * y(i)
  end
  return s
end
"""

# -- registry ----------------------------------------------------------------


def test_every_pipeline_pass_is_registered():
    names = {info.name for info in all_passes()}
    assert {
        "clean",
        "coalesce",
        "constprop",
        "cse-available",
        "cse-dominator",
        "dce",
        "gvn",
        "lvn",
        "peephole",
        "pre",
        "pre-mr",
        "reassociate",
        "strength",
    } <= names


def test_level_sequences_come_from_the_registry():
    assert [name for name, _ in get_sequence("baseline")] == [
        "constprop",
        "peephole",
        "dce",
        "coalesce",
        "clean",
    ]
    assert get_sequence("distribution")[0] == ("reassociate", {"distribute": True})


def test_spec_labels_and_fingerprints_are_stable():
    specs = get_sequence("distribution")
    assert spec_label(specs[0]) == "reassociate[distribute=True]"
    assert sequence_fingerprint(specs) == sequence_fingerprint(
        get_sequence("distribution")
    )
    assert sequence_fingerprint(specs) != sequence_fingerprint(
        get_sequence("baseline")
    )


def test_unknown_option_rejected():
    with pytest.raises(KeyError, match="no option"):
        get_pass("reassociate").bind({"nonsense": 1})


def test_unknown_pass_name_reports_known_names():
    with pytest.raises(KeyError, match="registered:"):
        PassManager(["no-such-pass"])


# -- cache -------------------------------------------------------------------


def test_cache_miss_then_hit_produces_identical_ir():
    cache = PassCache()
    manager = PassManager("distribution", cache=cache)
    cold = compile_source(SOURCE, manager=manager)
    assert cache.hits == 0 and cache.misses == 2
    warm = compile_source(SOURCE, manager=manager)
    assert cache.hits == 2 and cache.misses == 2
    assert print_module(cold) == print_module(warm)
    assert manager.stats.cache_hits == 2


def test_cache_distinguishes_sequences():
    cache = PassCache()
    compile_source(SOURCE, manager=PassManager("baseline", cache=cache))
    compile_source(SOURCE, manager=PassManager("partial", cache=cache))
    assert cache.hits == 0
    assert cache.misses == 4


def test_disk_cache_survives_a_fresh_manager(tmp_path):
    cache_dir = str(tmp_path / "irc")
    first = compile_source(
        SOURCE, manager=PassManager("distribution", cache=PassCache(cache_dir))
    )
    rebuilt = PassCache(cache_dir)
    manager = PassManager("distribution", cache=rebuilt)
    second = compile_source(SOURCE, manager=manager)
    assert rebuilt.hits == 2 and rebuilt.misses == 0
    assert print_module(first) == print_module(second)


def test_profile_guided_sequences_never_touch_the_cache():
    # the one cache rule (pm.manager.cacheable): lospre reads the profile
    # store, which the cache key does not capture
    cache = PassCache()
    manager = PassManager("spec", cache=cache)
    with set_default_store(ProfileStore(None)):
        compile_source(SOURCE, manager=manager)
        compile_source(SOURCE, manager=manager)
    assert len(cache) == 0 and cache.puts == 0
    assert cache.hits == 0 and cache.misses == 0
    assert manager.stats.cache_hits == 0 and manager.stats.cache_misses == 0
    assert manager.stats.functions == 4


# -- verification ------------------------------------------------------------


def _breaking_pass(func: Function) -> Function:
    """Deliberately corrupt the IR: drop every block's terminator."""
    for blk in func.blocks:
        blk.instructions = [i for i in blk.instructions if not i.is_terminator]
    return func


if "broken" not in _PASSES:
    register_pass("broken")(_breaking_pass)


def test_verify_each_catches_a_broken_pass():
    with pytest.raises(PassVerificationError) as excinfo:
        compile_source(
            SOURCE,
            manager=PassManager(["constprop", "broken", "clean"], verify="each"),
        )
    assert excinfo.value.pass_label == "broken"
    assert "terminator" in str(excinfo.value)


def test_verify_off_lets_the_breakage_through():
    module = compile_program(SOURCE)
    manager = PassManager(["constprop", "broken"], verify="off")
    manager.run_module(module)  # no exception — caller opted out


def test_verify_final_blames_the_sequence_tail():
    with pytest.raises(PassVerificationError):
        compile_source(
            SOURCE, manager=PassManager(["broken"], verify="final")
        )


# -- stats -------------------------------------------------------------------


def test_stats_record_timing_and_size_deltas():
    stats = ManagerStats()
    compile_source(SOURCE, manager=PassManager("distribution", stats=stats))
    assert stats.functions == 2
    assert set(stats.passes) == {
        "reassociate[distribute=True]",
        "gvn",
        "pre",
        "constprop",
        "peephole",
        "dce",
        "coalesce",
        "clean",
    }
    for stat in stats.passes.values():
        assert stat.runs == 2
        assert stat.seconds > 0
    # the optimizer must shrink the code overall
    assert sum(s.delta_instructions for s in stats.passes.values()) < 0
    text = stats.format()
    assert "cache 0 hits / 0 misses" in text


def test_stats_json_round_trip():
    # daemon workers ship their stats to the supervisor this way
    stats = ManagerStats()
    compile_source(SOURCE, manager=PassManager("partial", stats=stats))
    loaded = ManagerStats.from_jsonable(json.loads(json.dumps(stats.to_jsonable())))
    assert loaded.functions == stats.functions
    assert set(loaded.passes) == set(stats.passes)


# -- remarks -----------------------------------------------------------------


def test_remarks_jsonl_schema(tmp_path):
    collector = RemarkCollector()
    compile_source(
        SOURCE, manager=PassManager("distribution", collector=collector)
    )
    path = tmp_path / "remarks.jsonl"
    collector.write(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines
    for record in lines:
        assert isinstance(record["pass"], str)
        assert record["function"] in ("saxpy", "dot")
        assert isinstance(record["event"], str)
        for key, value in record.items():
            if key not in ("pass", "function", "event"):
                assert isinstance(value, (int, float, bool, str))
    events = {(r["pass"], r["event"]) for r in lines}
    assert ("pre", "placement") in events
    assert ("gvn", "congruence") in events
    assert ("reassociate[distribute=True]", "rewrite") in events
    # round-trip through the loader
    reloaded = load_jsonl(str(path))
    assert [r.as_dict() for r in reloaded] == lines


def test_remarks_carry_pre_counts():
    collector = RemarkCollector()
    compile_source(
        SOURCE, manager=PassManager("partial", collector=collector)
    )
    placements = [r for r in collector.remarks if r.event == "placement"]
    assert placements
    assert all(
        isinstance(r.data["insertions"], int)
        and isinstance(r.data["deletions"], int)
        for r in placements
    )


def test_passes_run_outside_the_manager_stay_silent():
    from repro.passes import partial_redundancy_elimination
    from repro.pm.registry import get_sequence, resolve_spec

    module = compile_program(SOURCE)
    for func in module:
        partial_redundancy_elimination(func)  # no context: must not raise
        for spec in get_sequence("baseline"):
            resolve_spec(spec)(func)


# -- the compile entry point routes through the manager ----------------------


def test_optimize_matches_manager_output():
    via_payload = compile_payload("source", SOURCE, "distribution")
    via_manager = compile_program(SOURCE)
    PassManager("distribution").run_module(via_manager)
    assert print_module(via_payload) == print_module(via_manager)


def test_cache_adopt_preserves_fresh_name_counters():
    cache = PassCache()
    manager = PassManager("distribution", cache=cache)
    compile_source(SOURCE, manager=manager)
    warm = compile_source(SOURCE, manager=manager)
    func = warm["saxpy"]
    new_reg = func.new_reg()
    assert new_reg not in func.all_registers()
    assert print_function(func)  # still printable
