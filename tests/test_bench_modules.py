"""Unit tests for the report formatting and harness modules."""

import pytest

from repro.bench.report import (
    finish,
    format_count,
    format_pct,
    format_table,
    improvement,
)
from repro.bench.suite import SUITE, SuiteRoutine, register, suite_routines
from repro.bench.table1 import Table1Row, format_table1, measure_routine
from repro.bench.table2 import Table2Row, format_table2, measure_expansion, totals

# the registry is populated lazily; load it before indexing SUITE directly
suite_routines()


def test_improvement_math():
    assert improvement(100, 80) == pytest.approx(0.2)
    assert improvement(100, 120) == pytest.approx(-0.2)
    assert improvement(0, 0) == 0.0


def test_format_pct_paper_conventions():
    assert format_pct(100, 100) == ""  # no improvement -> empty
    assert format_pct(100_000, 99_999) == "0%"  # tiny improvement
    assert format_pct(100_000, 100_001) == "-0%"  # tiny degradation
    assert format_pct(100, 80) == "20%"
    assert format_pct(100, 130) == "-30%"


def test_format_count():
    assert format_count(858364988) == "858,364,988"
    assert format_count(47) == "47"


def test_format_table_alignment():
    text = format_table(["name", "n"], [["a", "1"], ["bb", "22"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert all(len(l) == len(lines[0]) for l in lines[1:])


def test_finish_writes_sorted_json_and_fails_only_on_failures(tmp_path, capsys):
    out = tmp_path / "BENCH_x.json"
    assert finish({"b": 1, "a": {"d": 2, "c": 3}}, [], str(out)) == 0
    assert out.read_text() == (
        '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n'
    )
    assert capsys.readouterr().err == ""

    assert finish({"a": 1}, ["2 wrong replies", "no restart"], str(out)) == 1
    assert out.read_text() == '{\n  "a": 1\n}\n'
    captured = capsys.readouterr()
    assert captured.err == "FAIL: 2 wrong replies\nFAIL: no restart\n"
    assert "FAIL" not in captured.out


def test_table1_row_properties():
    row = Table1Row(name="x", baseline=1000, partial=800, reassociation=700, distribution=600)
    assert row.new_improvement == pytest.approx((800 - 600) / 800)
    assert row.total_improvement == pytest.approx(0.4)


def test_measure_routine_smoke():
    row = measure_routine(SUITE["saxpy"])
    assert row.name == "saxpy"
    assert row.partial <= row.baseline
    assert row.distribution <= row.reassociation
    assert row.distribution < row.baseline


def test_format_table1_contains_rows():
    rows = [
        Table1Row(name="x", baseline=1000, partial=800, reassociation=700, distribution=600),
        Table1Row(name="same", baseline=10, partial=10, reassociation=10, distribution=10),
    ]
    text = format_table1(rows)
    assert "x" in text and "1,000" in text
    # the no-change row has empty percentage cells
    same_line = next(l for l in text.splitlines() if l.startswith("same"))
    assert "%" not in same_line


def test_measure_expansion_smoke():
    row = measure_expansion(SUITE["sgemm"])
    assert row.before > 0 and row.after > 0
    assert row.expansion > 1.0  # per-use emission duplicates
    assert row.after_shared <= row.after


def test_table2_totals_and_format():
    rows = [
        Table2Row(name="a", before=100, after=120, after_shared=90),
        Table2Row(name="b", before=50, after=80, after_shared=55),
    ]
    total = totals(rows)
    assert total.before == 150 and total.after == 200
    assert total.expansion == pytest.approx(200 / 150)
    text = format_table2(rows)
    assert "totals" in text


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        register(SuiteRoutine(name="saxpy", source=""))


def test_suite_has_fifty_routines_like_the_paper():
    assert len(suite_routines()) == 50


def test_every_routine_has_reference_and_driver():
    for routine in suite_routines():
        assert routine.reference is not None, routine.name
        assert routine.source.strip(), routine.name
