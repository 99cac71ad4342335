"""CLI tests."""

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SOURCE = """
routine triple(x: int) -> int
  return 3 * x
end

routine scale(n: int, s: real, v: real[8])
  integer i
  do i = 1, n
    v(i) = v(i) * s
  end
end
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.f"
    path.write_text(SOURCE)
    return str(path)


def test_compile_prints_iloc(source_file, capsys):
    assert main(["compile", source_file, "--level", "distribution"]) == 0
    out = capsys.readouterr().out
    assert "function triple" in out
    assert "function scale" in out


def test_compile_level_none_is_raw_frontend(source_file, capsys):
    main(["compile", source_file, "--level", "none"])
    out = capsys.readouterr().out
    assert "copy" in out  # variable-name copies survive unoptimized


def test_run_scalar(source_file, capsys):
    assert main(["run", source_file, "triple", "14"]) == 0
    out = capsys.readouterr().out
    assert "value: 42" in out
    assert "dynamic operations:" in out


def test_run_with_array(source_file, capsys):
    main(
        [
            "run",
            source_file,
            "scale",
            "3",
            "2.0",
            "--array",
            "1.0,2.0,3.0,0,0,0,0,0:8",
        ]
    )
    out = capsys.readouterr().out
    assert "array 0: [2.0, 4.0, 6.0" in out


def test_run_counts(source_file, capsys):
    main(["run", source_file, "triple", "2", "--counts"])
    out = capsys.readouterr().out
    assert "mul" in out


def test_run_counts_orders_ties_by_mnemonic(source_file, capsys):
    main(
        [
            "run",
            source_file,
            "scale",
            "3",
            "2.0",
            "--array",
            "1.0,2.0,3.0,0,0,0,0,0:8",
            "--counts",
            "--level",
            "none",
        ]
    )
    rows = [
        line.split()
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  ")
    ]
    counts = [(mnemonic, int(count)) for mnemonic, count in rows]
    assert counts == sorted(counts, key=lambda row: (-row[1], row[0]))
    # mul executes before add, and both run 9 times
    assert counts[1:3] == [("add", 9), ("mul", 9)]


def test_compile_ir_folds_float_integer_division(tmp_path, capsys):
    path = tmp_path / "x.ir"
    path.write_text(
        "function f() {\nentry:\n    r0 <- loadi 7.9\n    r1 <- loadi 0.5\n"
        "    r2 <- idiv r0, r1\n    ret r2\n}\n"
    )
    assert main(["compile", str(path), "--ir", "--level", "baseline"]) == 0
    assert "loadi 15.0" in capsys.readouterr().out


def test_bad_array_spec_rejected(source_file):
    with pytest.raises(SystemExit):
        main(["run", source_file, "scale", "1", "1.0", "--array", "1,2,3"])


def test_parser_has_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("compile", "run", "passes", "table1", "table2", "ablation"):
        assert command in text


def test_passes_subcommand_lists_registry_and_sequences(capsys):
    assert main(["passes"]) == 0
    out = capsys.readouterr().out
    assert "pre" in out
    assert "reassociate" in out
    assert "distribution" in out
    assert "ablation/no_gvn" in out


def test_passes_subcommand_single_sequence(capsys):
    assert main(["passes", "--sequence", "partial"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "pre -> constprop -> peephole -> dce -> coalesce -> clean"


def test_compile_stats_go_to_stderr_not_stdout(source_file, capsys):
    assert main(["compile", source_file, "--stats"]) == 0
    captured = capsys.readouterr()
    assert "function triple" in captured.out
    assert "function-compilations" not in captured.out
    assert "function-compilations" in captured.err


def test_codegen_reports_an_uncolorable_target_as_one_line(tmp_path, capsys):
    # MIN_K admits k=4, but seval's calls need k >= 7 (docs/BACKEND.md)
    from repro.bench.suite import SUITE, suite_routines

    suite_routines()
    path = tmp_path / "seval.f"
    path.write_text(SUITE["seval"].source)
    assert main(["codegen", str(path), "--k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("codegen: ") and "k=4" in lines[0]
    # the line names the function and its 7-argument call of seval
    assert lines[0].startswith("codegen: sevalsum: ")
    assert "call seval(" in lines[0] and "7 registers" in lines[0]
    assert main(["codegen", str(path), "--k", "7"]) == 0


def test_codegen_run_takes_its_scalars_after_the_routine(source_file, capsys):
    assert main(["codegen", source_file, "--k", "8", "--run", "triple", "14"]) == 0
    out = capsys.readouterr().out
    assert "value: 42" in out and "cycles: " in out
    assert main([
        "codegen", source_file, "--k", "8", "--run", "scale", "2", "2.0",
        "--array", "1,2,3,4,5,6,7,8:8",
    ]) == 0
    assert "cycles: " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["serve", "--max-batch", "4"],
    ["fleet", "serve", "--tier1-level", "baseline"],
    ["fleet", "serve", "--max-upgrades", "3"],
])
def test_parser_rejects_the_removed_serving_options(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(argv)
    assert raised.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["serve", "--max-pending", "8"],
    ["serve", "--retries", "2"],
    ["bench", "chaos", "--crash-pass", "dce"],
    ["bench", "chaos", "--rate", "0.1"],
    ["bench", "chaos", "--seed", "3"],
    ["bench", "lospre", "--profile-dir", "profiles"],
    ["triage", "reduce", "abc123", "--max-checks", "50"],
])
def test_parser_rejects_the_options_no_caller_set(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(argv)
    assert raised.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lint", "certify"])
def test_lint_and_certify_take_the_same_program_options(
    command, source_file, tmp_path, capsys
):
    options = build_parser().parse_args([
        command, source_file, "--suite", "--level", "partial",
        "--format", "json", "--json", "out.json", "--werror",
    ])
    assert (options.sources, options.suite, options.level, options.format,
            options.json_out, options.werror) == (
        [source_file], True, "partial", "json", "out.json", True)
    assert build_parser().parse_args([command]).level == "all"
    report_path = tmp_path / "report.json"
    assert main([command, source_file, "--level", "partial", "--format",
                 "json", "--json", str(report_path), "--werror"]) == 0
    report = json.loads(report_path.read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert (report["programs"], report["levels"], report["werror"]) == (
        1, ["partial"], True)
    # certify proves passes; an unoptimized level has none to prove
    if command == "certify":
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--level", "none"])
    else:
        assert build_parser().parse_args([command, "--level", "none"])


@pytest.mark.parametrize("server", ["--daemon", "--fleet"])
@pytest.mark.parametrize("sink", ["--stats", "--remarks"])
def test_compile_via_a_server_rejects_local_sinks(
    server, sink, source_file, tmp_path, capsys
):
    # a server compiles in another process; the sinks it cannot fill are
    # refused before connecting, whether or not a server is up
    remarks = tmp_path / "remarks.jsonl"
    extra = ["--stats"] if sink == "--stats" else ["--remarks", str(remarks)]
    assert main(["compile", source_file, server, "--daemon-socket",
                 str(tmp_path / "no.sock"), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("compile: ") and sink in lines[0]
    assert server in lines[0]
    assert not remarks.exists()


def test_run_writes_remarks_jsonl(source_file, capsys, tmp_path):
    path = tmp_path / "remarks.jsonl"
    assert main(["run", source_file, "triple", "2", "--remarks", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records
    assert all({"pass", "function", "event"} <= set(r) for r in records)


def test_module_entry_point(source_file):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", source_file, "triple", "5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "value: 15" in result.stdout
