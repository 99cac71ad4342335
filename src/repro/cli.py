"""Command-line interface.

::

    python -m repro compile prog.f --level distribution        # print optimized ILOC
    python -m repro compile prog.iloc --ir                     # optimize printed IR
    python -m repro run prog.f saxpy 100 2.0 --array 0,0,0:8   # execute + count
    python -m repro lint prog.f --level all --werror           # IR diagnostics
    python -m repro passes                                     # registry + checkers
    python -m repro table1 | table2 | ablation                 # the experiments
    python -m repro serve                                      # compile daemon
    python -m repro compile prog.f --daemon                    # use the daemon
    python -m repro fleet serve --shards 4                     # compile fleet
    python -m repro compile prog.f --fleet                     # use the fleet
    python -m repro cache stats | clear | prune                # disk IR cache
    python -m repro bench serve | fleet                        # service load tests
    python -m repro profile collect --suite                    # bank profiles
    python -m repro compile prog.f --level spec                # profile-guided PRE
    python -m repro bench lospre                               # speculative PRE gate

The source language is the mini-FORTRAN of :mod:`repro.frontend`; array
arguments are comma-separated element lists suffixed with the element
size (``:8`` for REAL, ``:4`` for INTEGER), appended after the scalars.

Pipeline knobs (``compile``/``run``/``table1``/``ablation``): ``--jobs N``
fans compilation out per function, ``--verify SPEC`` controls inter-pass
verification (``each``/``final`` structural validation, ``lint`` for the
semantic checkers, ``transval`` for the interpreting translation
validator; comma-combinable, e.g. ``lint,transval:final``), ``--remarks
out.jsonl`` saves structured optimization remarks, and ``--stats``
prints per-pass wall-clock and IR-delta totals to stderr (stdout stays
byte-identical).  ``table1`` keeps a content-addressed IR cache in
``.repro_cache/`` by default, so a second run replays compiles from disk
(``--no-cache`` to disable).

``lint`` compiles sources (files, ``--suite`` bench programs,
``--examples`` the SOURCE strings embedded in ``examples/*.py``) at one
or every optimization level and reports checker diagnostics as text or
JSON; ``--werror`` promotes warnings and the exit status is 1 when any
error remains.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
import threading
from typing import Optional, Sequence

from repro.interp import Interpreter, Memory
from repro.ir import print_module
from repro.pipeline import OptLevel, compile_source
from repro.pm import ManagerStats, PassCache, PassManager, RemarkCollector
from repro.pm.manager import VERIFY_POLICIES, parse_verify
from repro.triage.incidents import DEFAULT_INCIDENT_DIR

#: Backward-compatible alias; the full policy grammar is ``VERIFY_POLICIES``.
VERIFY_CHOICES = ("each", "final", "off")


def _verify_spec(text: str) -> str:
    """argparse type for ``--verify``: any :func:`parse_verify` spec."""
    try:
        parse_verify(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_array(text: str):
    if ":" not in text:
        raise argparse.ArgumentTypeError(
            f"array {text!r} needs an elemsize suffix like '1,2,3:8'"
        )
    body, _, size = text.rpartition(":")
    values = [_parse_scalar(v) for v in body.split(",") if v.strip()]
    return values, int(size)


def _level(name: Optional[str]):
    if name is None or name == "none":
        return None
    if name == "spec":
        from repro.pipeline.levels import SPEC_LEVEL

        return SPEC_LEVEL
    return OptLevel(name)


def _add_level_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--level",
        choices=["none"] + [level.value for level in OptLevel] + ["spec"],
        default="distribution",
        help="optimization level (default: distribution, the paper's best; "
        "'spec' adds profile-guided speculative PRE, see docs/PROFILE.md)",
    )


def _add_pipeline_arguments(
    parser: argparse.ArgumentParser, verify_default: str = "final"
) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="optimize N functions concurrently (output identical to serial)",
    )
    parser.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="worker type for --jobs > 1 (default: thread)",
    )
    parser.add_argument(
        "--verify",
        type=_verify_spec,
        default=verify_default,
        metavar="SPEC",
        help="inter-pass verification: comma-separated subset of "
        f"{', '.join(VERIFY_POLICIES)} (default: {verify_default})",
    )
    parser.add_argument(
        "--remarks",
        metavar="OUT.JSONL",
        help="write structured optimization remarks as JSON Lines",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-pass timing/IR-delta totals to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Effective Partial Redundancy Elimination (PLDI 1994) toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser("compile", help="compile and print ILOC")
    compile_cmd.add_argument("source", help="mini-FORTRAN source file")
    compile_cmd.add_argument(
        "--ir",
        action="store_true",
        help="input is printed ILOC (skip the frontend, optimize as-is)",
    )
    compile_cmd.add_argument(
        "--daemon",
        action="store_true",
        help="compile via a running 'repro serve' daemon when one is up "
        "(transparent in-process fallback otherwise; output identical)",
    )
    compile_cmd.add_argument(
        "--daemon-socket",
        metavar="PATH",
        default=None,
        help="daemon socket path (default: $REPRO_DAEMON_SOCKET or the "
        "per-user runtime path)",
    )
    compile_cmd.add_argument(
        "--fleet",
        action="store_true",
        help="compile via a running 'repro fleet serve' gateway when one "
        "is up (in-process fallback otherwise); a tiered first answer is "
        "noted on stderr",
    )
    compile_cmd.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="tenant to account the request to (fleet quotas; "
        "default: 'default')",
    )
    compile_cmd.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default="interactive",
        help="fleet priority class: interactive may briefly wait for "
        "quota tokens, batch is shed immediately (default: interactive)",
    )
    _add_level_argument(compile_cmd)
    _add_pipeline_arguments(compile_cmd)

    run_cmd = commands.add_parser("run", help="compile, execute and count")
    run_cmd.add_argument("source", help="mini-FORTRAN source file")
    run_cmd.add_argument("routine", help="routine to invoke")
    run_cmd.add_argument("args", nargs="*", help="scalar arguments")
    run_cmd.add_argument(
        "--array",
        action="append",
        default=[],
        type=_parse_array,
        metavar="V,V,...:SIZE",
        help="array argument (appended after scalars); repeatable",
    )
    run_cmd.add_argument(
        "--counts", action="store_true", help="print per-opcode dynamic counts"
    )
    _add_level_argument(run_cmd)
    _add_pipeline_arguments(run_cmd)

    lint_cmd = commands.add_parser(
        "lint", help="compile sources and report IR checker diagnostics"
    )
    lint_cmd.add_argument(
        "sources", nargs="*", help="mini-FORTRAN source files to lint"
    )
    lint_cmd.add_argument(
        "--suite",
        action="store_true",
        help="also lint every benchmark-suite routine",
    )
    lint_cmd.add_argument(
        "--examples",
        nargs="?",
        const="examples",
        metavar="DIR",
        help="also lint the SOURCE programs embedded in DIR/*.py "
        "(default DIR: examples)",
    )
    lint_cmd.add_argument(
        "--level",
        default="all",
        choices=["all", "none"]
        + [level.value for level in OptLevel]
        + ["spec"],
        help="optimization level to lint after; 'all' means every level "
        "(default: all)",
    )
    lint_cmd.add_argument(
        "--checker",
        action="append",
        default=None,
        metavar="ID",
        dest="checkers",
        help="run only this checker (repeatable; default: all)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="diagnostic output format on stdout (default: text)",
    )
    lint_cmd.add_argument(
        "--json",
        metavar="OUT.JSON",
        dest="json_out",
        help="also write the JSON diagnostics report to a file",
    )
    lint_cmd.add_argument(
        "--werror",
        action="store_true",
        help="promote warnings to errors (exit 1 when any error remains)",
    )

    certify_cmd = commands.add_parser(
        "certify",
        help="statically certify every pass run (value graph + PRE "
        "placement audit, replay fallback)",
    )
    certify_cmd.add_argument(
        "sources", nargs="*", help="mini-FORTRAN source files to certify"
    )
    certify_cmd.add_argument(
        "--suite",
        action="store_true",
        help="also certify every benchmark-suite routine",
    )
    certify_cmd.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also certify N seeded random integer programs "
        "(the deterministic fuzz corpus)",
    )
    certify_cmd.add_argument(
        "--level",
        default="all",
        choices=["all"] + [level.value for level in OptLevel] + ["spec"],
        help="optimization level to certify; 'all' means every level "
        "(default: all)",
    )
    certify_cmd.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format on stdout (default: text)",
    )
    certify_cmd.add_argument(
        "--json",
        metavar="OUT.JSON",
        dest="json_out",
        help="also write the JSON report to a file",
    )
    certify_cmd.add_argument(
        "--werror",
        action="store_true",
        help="promote warning diagnostics to errors "
        "(exit 1 when any error remains)",
    )

    passes_cmd = commands.add_parser(
        "passes", help="list registered passes, sequences and checkers"
    )
    passes_cmd.add_argument(
        "--sequence",
        metavar="NAME",
        help="show only this named sequence",
    )

    codegen_cmd = commands.add_parser(
        "codegen", help="lower to rvk machine code (docs/BACKEND.md)"
    )
    codegen_cmd.add_argument("source", help="mini-FORTRAN source file")
    codegen_cmd.add_argument(
        "--ir",
        action="store_true",
        help="input is printed ILOC (skip the frontend)",
    )
    codegen_cmd.add_argument(
        "--k",
        type=int,
        default=16,
        metavar="K",
        help="physical register count of the target (default: 16)",
    )
    codegen_cmd.add_argument(
        "--no-schedule",
        action="store_true",
        help="skip post-allocation list scheduling",
    )
    codegen_cmd.add_argument(
        "--asm",
        nargs="?",
        const="-",
        metavar="OUT.RVK",
        help="write the assembly document to a file (default: stdout)",
    )
    codegen_cmd.add_argument(
        "--run",
        metavar="ROUTINE",
        help="simulate ROUTINE after codegen and report cycles",
    )
    codegen_cmd.add_argument(
        "args", nargs="*", help="scalar arguments for --run"
    )
    codegen_cmd.add_argument(
        "--array",
        action="append",
        default=[],
        type=_parse_array,
        metavar="V,V,...:SIZE",
        help="array argument for --run (appended after scalars); repeatable",
    )
    _add_level_argument(codegen_cmd)
    _add_pipeline_arguments(codegen_cmd)

    profile_cmd = commands.add_parser(
        "profile",
        help="collect or inspect execution profiles for --level spec "
        "(docs/PROFILE.md)",
    )
    profile_sub = profile_cmd.add_subparsers(
        dest="profile_command", required=True
    )
    profile_collect_cmd = profile_sub.add_parser(
        "collect",
        help="run programs under the interpreter and bank block/edge "
        "counters in the profile store",
    )
    profile_collect_cmd.add_argument(
        "source", nargs="?", help="mini-FORTRAN source file"
    )
    profile_collect_cmd.add_argument(
        "routine", nargs="?", help="routine to invoke"
    )
    profile_collect_cmd.add_argument(
        "args", nargs="*", help="scalar arguments"
    )
    profile_collect_cmd.add_argument(
        "--array",
        action="append",
        default=[],
        type=_parse_array,
        metavar="V,V,...:SIZE",
        help="array argument (appended after scalars); repeatable",
    )
    profile_collect_cmd.add_argument(
        "--suite",
        action="store_true",
        help="also profile every benchmark-suite routine on its driver "
        "inputs",
    )
    profile_collect_cmd.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="profile store directory (default: $REPRO_PROFILE_DIR or "
        ".repro_profiles)",
    )
    profile_show_cmd = profile_sub.add_parser(
        "show", help="list the profiles banked in the store"
    )
    profile_show_cmd.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="profile store directory (default: $REPRO_PROFILE_DIR or "
        ".repro_profiles)",
    )
    profile_show_cmd.add_argument(
        "--json", action="store_true", help="print full profiles as JSON"
    )

    table1_cmd = commands.add_parser("table1", help="regenerate the paper's Table 1")
    _add_pipeline_arguments(table1_cmd)
    table1_cmd.add_argument(
        "--cycles",
        action="store_true",
        help="also simulate rvk cycles and spills at k=8/16/32 "
        "(appends the backend table; see docs/BACKEND.md)",
    )
    table1_cmd.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="DIR",
        help="content-addressed IR cache directory (default: .repro_cache)",
    )
    table1_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="compile everything from scratch, no cache reads or writes",
    )
    table1_cmd.add_argument(
        "--stats-json",
        metavar="OUT.JSON",
        help="write per-pass timing totals as JSON (CI benchmark artifact)",
    )
    table1_cmd.add_argument(
        "--dynamic",
        action="store_true",
        help="append a profile-weighted section: static vs dynamic "
        "operation counts at -O2 and at the spec level (docs/PROFILE.md)",
    )

    commands.add_parser("table2", help="regenerate the paper's Table 2")

    serve_cmd = commands.add_parser(
        "serve", help="run the persistent compile daemon (docs/SERVICE.md)"
    )
    serve_cmd.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="Unix socket to listen on (default: $REPRO_DAEMON_SOCKET or the "
        "per-user runtime path)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="compile worker processes (default: 2)",
    )
    serve_cmd.add_argument(
        "--batch-window-ms",
        type=float,
        default=4.0,
        metavar="MS",
        help="batching window: max extra latency paid to fill a batch "
        "(default: 4ms)",
    )
    serve_cmd.add_argument(
        "--max-batch",
        type=int,
        default=16,
        metavar="N",
        help="max requests per worker batch (default: 16)",
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=int,
        default=256,
        metavar="N",
        help="pending-request bound before load shedding with 'overloaded' "
        "replies (default: 256)",
    )
    serve_cmd.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request deadline (default: 30s)",
    )
    serve_cmd.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="max executions per request across worker deaths (default: 3)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="DIR",
        help="shared on-disk IR cache for the workers "
        "(default: .repro_cache)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true", help="run the workers cache-less"
    )
    serve_cmd.add_argument(
        "--cache-max-mb",
        type=int,
        default=256,
        metavar="MB",
        help="LRU size cap for the disk cache (default: 256 MB)",
    )
    serve_cmd.add_argument(
        "--metrics-json",
        metavar="OUT.JSON",
        help="write the final metrics snapshot on shutdown",
    )
    serve_cmd.add_argument(
        "--incident-dir",
        default=DEFAULT_INCIDENT_DIR,
        metavar="DIR",
        help="where workers record containment incidents for "
        f"`repro triage` (default: {DEFAULT_INCIDENT_DIR})",
    )
    serve_cmd.add_argument(
        "--no-incidents",
        action="store_true",
        help="disable incident recording (containment still degrades, "
        "but leaves nothing to triage)",
    )

    fleet_cmd = commands.add_parser(
        "fleet", help="run or query the distributed compile fleet "
        "(docs/SERVICE.md)"
    )
    fleet_sub = fleet_cmd.add_subparsers(dest="fleet_command", required=True)
    fleet_serve_cmd = fleet_sub.add_parser(
        "serve", help="run the gateway plus its shard daemons"
    )
    fleet_serve_cmd.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="gateway Unix socket (default: $REPRO_FLEET_SOCKET or the "
        "per-user runtime path)",
    )
    fleet_serve_cmd.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="shard daemons behind the gateway (default: 2)",
    )
    fleet_serve_cmd.add_argument(
        "--workers-per-shard",
        type=int,
        default=1,
        metavar="N",
        help="compile workers inside each shard (default: 1)",
    )
    fleet_serve_cmd.add_argument(
        "--store-dir",
        default=".repro_store",
        metavar="DIR",
        help="shared artifact store directory (default: .repro_store)",
    )
    fleet_serve_cmd.add_argument(
        "--store-max-mb",
        type=int,
        default=512,
        metavar="MB",
        help="LRU size cap for the artifact store (default: 512 MB)",
    )
    fleet_serve_cmd.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="DIR",
        help="pass cache shared by all shards' workers "
        "(default: .repro_cache)",
    )
    fleet_serve_cmd.add_argument(
        "--tier1-level",
        default="none",
        metavar="LEVEL",
        help="the fast tier answering cold requests while the requested "
        "level compiles in the background (default: none)",
    )
    fleet_serve_cmd.add_argument(
        "--no-tiering",
        action="store_true",
        help="always compile at the requested level before replying",
    )
    fleet_serve_cmd.add_argument(
        "--max-upgrades",
        type=int,
        default=2,
        metavar="N",
        help="concurrent background O2 upgrade compiles (default: 2)",
    )
    fleet_serve_cmd.add_argument(
        "--quota-rate",
        type=float,
        default=200.0,
        metavar="RPS",
        help="default per-tenant request rate (default: 200/s)",
    )
    fleet_serve_cmd.add_argument(
        "--quota-burst",
        type=float,
        default=400.0,
        metavar="N",
        help="default per-tenant burst allowance (default: 400)",
    )
    fleet_serve_cmd.add_argument(
        "--quota",
        action="append",
        default=[],
        metavar="TENANT=RATE:BURST",
        dest="quota_overrides",
        help="per-tenant quota override (repeatable), e.g. ci=50:100",
    )
    fleet_stats_cmd = fleet_sub.add_parser(
        "stats", help="print a running fleet's merged stats report"
    )
    fleet_stats_cmd.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="gateway socket (default: $REPRO_FLEET_SOCKET or the "
        "per-user runtime path)",
    )

    cache_cmd = commands.add_parser(
        "cache", help="inspect, clear or prune the on-disk IR cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for name, doc in (
        ("stats", "entry count and byte totals"),
        ("clear", "delete every cached entry"),
        ("prune", "evict LRU entries down to the given caps"),
    ):
        sub = cache_sub.add_parser(name, help=doc)
        sub.add_argument(
            "--dir",
            default=".repro_cache",
            metavar="DIR",
            help="cache directory (default: .repro_cache)",
        )
        if name == "stats":
            sub.add_argument(
                "--json", action="store_true", help="print the report as JSON"
            )
        if name == "prune":
            sub.add_argument(
                "--max-bytes",
                type=int,
                default=None,
                metavar="N",
                help="byte cap to prune down to",
            )
            sub.add_argument(
                "--max-entries",
                type=int,
                default=None,
                metavar="N",
                help="entry-count cap to prune down to",
            )

    bench_cmd = commands.add_parser(
        "bench", help="microbenchmarks (dataflow, serve, fleet)"
    )
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)
    dataflow_cmd = bench_sub.add_parser(
        "dataflow",
        help="time and count the dataflow solvers: the mask engine over "
        "the PRE stage, the frozenset solver over the suite's problems",
    )
    dataflow_cmd.add_argument(
        "--repeat",
        type=int,
        default=3,
        metavar="N",
        help="repetitions per timed section; best-of-N is reported (default: 3)",
    )
    dataflow_cmd.add_argument(
        "--json",
        dest="json_out",
        metavar="OUT.JSON",
        help="write the full report as JSON (BENCH_passes.json-style)",
    )
    dataflow_cmd.add_argument(
        "--max-pops",
        type=int,
        default=None,
        metavar="BOUND",
        help="exit 1 when the PRE stage's deterministic worklist-pop count "
        "exceeds BOUND (the CI regression gate)",
    )
    bench_table1_cmd = bench_sub.add_parser(
        "table1",
        help="cycles benchmark: sim vs interp over the suite, writes "
        "BENCH_backend.json (exit 1 on any mismatch)",
    )
    bench_table1_cmd.add_argument(
        "--cycles",
        action="store_true",
        help="accepted for symmetry with 'repro table1 --cycles' "
        "(this benchmark always measures cycles)",
    )
    bench_table1_cmd.add_argument(
        "--quick",
        action="store_true",
        help="deterministic suite subset (the CI smoke run)",
    )
    bench_table1_cmd.add_argument(
        "--no-schedule",
        action="store_true",
        help="skip post-allocation list scheduling",
    )
    bench_table1_cmd.add_argument(
        "--k",
        type=int,
        action="append",
        default=None,
        metavar="K",
        dest="ks",
        help="target register count (repeatable; default: 8 16 32)",
    )
    bench_table1_cmd.add_argument(
        "--json",
        dest="json_out",
        default="BENCH_backend.json",
        metavar="OUT.JSON",
        help="report path (default: BENCH_backend.json)",
    )
    serve_bench_cmd = bench_sub.add_parser(
        "serve",
        help="drive the compile daemon with a mixed corpus and write "
        "BENCH_service.json",
    )
    serve_bench_cmd.add_argument(
        "--quick", action="store_true", help="small corpus (the CI smoke run)"
    )
    serve_bench_cmd.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="concurrent client connections (default: 4)",
    )
    serve_bench_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="daemon worker processes (default: min(4, cpus))",
    )
    serve_bench_cmd.add_argument(
        "--duplicates",
        type=int,
        default=None,
        metavar="N",
        help="times each request is repeated in the warm pass "
        "(default: 2 quick / 3 full)",
    )
    serve_bench_cmd.add_argument(
        "--crash",
        type=int,
        default=1,
        metavar="N",
        dest="crashes",
        help="worker crashes to inject during the cold pass (default: 1)",
    )
    serve_bench_cmd.add_argument(
        "--json",
        dest="json_out",
        default="BENCH_service.json",
        metavar="OUT.JSON",
        help="report path (default: BENCH_service.json)",
    )
    serve_bench_cmd.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless warm daemon throughput beats the one-shot CLI "
        "baseline by this factor (the CI gate)",
    )

    fleet_bench_cmd = bench_sub.add_parser(
        "fleet",
        help="drive the compile fleet: tiered latency, cross-shard warm "
        "hits, shard-kill failover; writes BENCH_fleet.json",
    )
    fleet_bench_cmd.add_argument(
        "--quick", action="store_true", help="small corpus (the CI smoke run)"
    )
    fleet_bench_cmd.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="concurrent client connections (default: 4)",
    )
    fleet_bench_cmd.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="shards in the primary fleet (default: 4)",
    )
    fleet_bench_cmd.add_argument(
        "--duplicates",
        type=int,
        default=None,
        metavar="N",
        help="times each request is repeated in the warm pass "
        "(default: 2 quick / 3 full)",
    )
    fleet_bench_cmd.add_argument(
        "--json",
        dest="json_out",
        default="BENCH_fleet.json",
        metavar="OUT.JSON",
        help="report path (default: BENCH_fleet.json)",
    )
    fleet_bench_cmd.add_argument(
        "--min-warm-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless warm fleet throughput beats the single-daemon "
        "baseline by this factor",
    )
    fleet_bench_cmd.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless the cross-shard store hit rate reaches this "
        "fraction (the CI gate, e.g. 0.9)",
    )
    fleet_bench_cmd.add_argument(
        "--max-tier1-p99-frac",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless tier-1 first-answer p99 is under this "
        "fraction of the same flood's O2-under-load p99 (e.g. 0.5)",
    )
    fleet_bench_cmd.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the 1/2/4-shard cold scaling section",
    )

    lospre_bench_cmd = bench_sub.add_parser(
        "lospre",
        help="profile-guided speculative PRE vs both conservative "
        "solvers over the suite; writes BENCH_lospre.json",
    )
    lospre_bench_cmd.add_argument(
        "--quick",
        action="store_true",
        help="deterministic suite subset; waives the strict-aggregate "
        "gate (the CI smoke run)",
    )
    lospre_bench_cmd.add_argument(
        "--json",
        dest="json_out",
        default="BENCH_lospre.json",
        metavar="OUT.JSON",
        help="report path (default: BENCH_lospre.json)",
    )
    lospre_bench_cmd.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help="persist the collected profiles to DIR (default: in-memory, "
        "nothing leaks between runs)",
    )

    certify_bench_cmd = bench_sub.add_parser(
        "certify",
        help="time the static certifier against the replay oracle over "
        "the suite's pass runs; writes BENCH_certify.json",
    )
    certify_bench_cmd.add_argument(
        "--quick",
        action="store_true",
        help="small deterministic suite subset for fast iteration (the "
        "speedup gate belongs to the full run: replay cost concentrates "
        "in the loop-heavy routines)",
    )
    certify_bench_cmd.add_argument(
        "--repeat",
        type=int,
        default=3,
        metavar="N",
        help="repetitions per timed section; best-of-N is reported "
        "(default: 3)",
    )
    certify_bench_cmd.add_argument(
        "--json",
        dest="json_out",
        default="BENCH_certify.json",
        metavar="OUT.JSON",
        help="report path (default: BENCH_certify.json)",
    )
    certify_bench_cmd.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless the certifier beats replay validation by "
        "this factor on the pass pairs (the CI gate)",
    )

    chaos_bench_cmd = bench_sub.add_parser(
        "chaos",
        help="inject pass crashes/miscompiles, poison pills, worker "
        "kills and torn writes; gate on the never-fail contract; "
        "writes BENCH_chaos.json",
    )
    chaos_bench_cmd.add_argument(
        "--quick",
        action="store_true",
        help="deterministic suite subset and a smaller triage sample "
        "(the CI smoke run)",
    )
    chaos_bench_cmd.add_argument(
        "--json",
        dest="json_out",
        default="BENCH_chaos.json",
        metavar="OUT.JSON",
        help="report path (default: BENCH_chaos.json)",
    )
    chaos_bench_cmd.add_argument(
        "--crash-pass",
        default="pre",
        metavar="LABEL",
        help="the pass the targeted-crash section kills on every "
        "application (default: pre)",
    )
    chaos_bench_cmd.add_argument(
        "--incident-dir",
        default=None,
        metavar="DIR",
        help="record incidents to DIR so `repro triage --dir DIR` can "
        "inspect them after the run (default: a temp dir)",
    )
    chaos_bench_cmd.add_argument(
        "--rate",
        type=float,
        default=0.05,
        metavar="P",
        help="per-(function, pass) crash AND corrupt probability for "
        "the random-chaos section (default: 0.05)",
    )
    chaos_bench_cmd.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="chaos draw seed (default: 0)",
    )

    triage_cmd = commands.add_parser(
        "triage",
        help="inspect, bisect and reduce containment incidents "
        "(docs/ROBUSTNESS.md)",
    )
    triage_cmd.add_argument(
        "--dir",
        dest="incident_dir",
        default=DEFAULT_INCIDENT_DIR,
        metavar="DIR",
        help=f"incident store directory (default: {DEFAULT_INCIDENT_DIR})",
    )
    triage_sub = triage_cmd.add_subparsers(dest="triage_command",
                                           required=True)
    triage_sub.add_parser("list", help="one row per recorded incident")
    triage_show_cmd = triage_sub.add_parser(
        "show", help="full detail for one incident (JSON)"
    )
    triage_show_cmd.add_argument("incident_id", metavar="ID")
    triage_bisect_cmd = triage_sub.add_parser(
        "bisect",
        help="binary-search the pass sequence for the first bad "
        "application",
    )
    triage_bisect_cmd.add_argument("incident_id", metavar="ID")
    triage_reduce_cmd = triage_sub.add_parser(
        "reduce",
        help="shrink the incident to a minimal reproducing IR + pass "
        "sequence and store it back",
    )
    triage_reduce_cmd.add_argument("incident_id", metavar="ID")
    triage_reduce_cmd.add_argument(
        "--max-checks",
        type=int,
        default=400,
        metavar="N",
        help="oracle-replay budget for the reducer (default: 400)",
    )

    ablation_cmd = commands.add_parser(
        "ablation", help="run the design-choice ablations"
    )
    ablation_cmd.add_argument("--jobs", type=int, default=1, metavar="N")
    ablation_cmd.add_argument("--stats", action="store_true")
    return parser


def _build_manager(options, stats: ManagerStats, collector) -> Optional[PassManager]:
    level = _level(options.level)
    if level is None:
        return None
    return PassManager(
        level.value,
        verify=options.verify,
        jobs=options.jobs,
        executor=options.executor,
        collector=collector,
        stats=stats,
    )


def _finish_pipeline(options, stats: ManagerStats, collector) -> None:
    if getattr(options, "remarks", None) and collector is not None:
        collector.write(options.remarks)
    if getattr(options, "stats", False):
        print(stats.format(), file=sys.stderr)


def _cmd_compile(options) -> int:
    with open(options.source) as handle:
        source = handle.read()
    if options.fleet:
        from repro.service import protocol
        from repro.service.client import DaemonError, try_connect

        kind = "ir" if options.ir else "source"
        level = options.level if options.level else "none"
        path = options.daemon_socket or protocol.default_fleet_socket_path()
        client = try_connect(path, connect_retries=3)
        if client is None:
            print(
                f"compile: no fleet gateway on {path}; compiling in-process",
                file=sys.stderr,
            )
        else:
            try:
                reply = client.compile(
                    kind,
                    source,
                    level,
                    options.verify,
                    tenant=options.tenant or "default",
                    priority=options.priority,
                )
            except DaemonError as error:
                print(f"compile: fleet error [{error.kind}]: {error}",
                      file=sys.stderr)
                return 1
            finally:
                client.close()
            if reply.get("tier") == 1:
                print(
                    f"compile: tier-1 answer at level "
                    f"{reply.get('level')!r}; level {level!r} is being "
                    "upgraded in the background",
                    file=sys.stderr,
                )
            print(reply["ir"])
            return 0
    if options.daemon or options.fleet:
        from repro.service.client import DaemonError, compile_with_fallback

        kind = "ir" if options.ir else "source"
        level = options.level if options.level else "none"
        try:
            text, _origin = compile_with_fallback(
                kind,
                source,
                level,
                options.verify,
                socket_path=options.daemon_socket,
            )
        except DaemonError as error:
            print(f"compile: daemon error [{error.kind}]: {error}",
                  file=sys.stderr)
            return 1
        print(text)
        return 0
    stats = ManagerStats()
    collector = RemarkCollector() if options.remarks else None
    manager = _build_manager(options, stats, collector)
    if options.ir:
        from repro.pipeline.driver import compile_ir

        module = compile_ir(
            source,
            _level(options.level),
            manager=manager,
            verify=options.verify,
        )
    else:
        module = compile_source(source, manager=manager, verify=options.verify)
    print(print_module(module))
    _finish_pipeline(options, stats, collector)
    return 0


def _cmd_serve(options) -> int:
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.faults import RetryPolicy
    from repro.service.protocol import default_socket_path

    config = DaemonConfig(
        socket_path=options.socket or default_socket_path(),
        workers=options.workers,
        batch_window=options.batch_window_ms / 1e3,
        max_batch=options.max_batch,
        max_pending=options.max_pending,
        request_timeout=options.timeout,
        retry=RetryPolicy(max_attempts=max(1, options.retries)),
        cache_dir=None if options.no_cache else options.cache_dir,
        cache_max_bytes=options.cache_max_mb * 1024 * 1024,
        incident_dir=None if options.no_incidents else options.incident_dir,
    )
    daemon = CompileDaemon(config)
    daemon.start()
    print(
        f"repro daemon: listening on {config.socket_path} "
        f"({config.workers} workers, cache "
        f"{config.cache_dir or 'off'})",
        file=sys.stderr,
    )
    # route SIGTERM (systemd stop, CI `kill`) through the same clean
    # shutdown as Ctrl-C: reap workers, dump metrics, exit 143
    import signal

    def _terminate(signum, frame):  # noqa: ARG001
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        daemon.serve_forever()
    finally:
        # KeyboardInterrupt and SIGTERM land here too: reap children,
        # then report
        signal.signal(signal.SIGTERM, previous)
        daemon.stop()
        if options.metrics_json:
            with open(options.metrics_json, "w") as handle:
                json.dump(daemon.metrics.snapshot(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
        print(daemon.metrics.format(), file=sys.stderr)
    return 0


def _cmd_triage(options) -> int:
    from repro.triage import IncidentStore

    store = IncidentStore(options.incident_dir)
    if options.triage_command == "list":
        incidents = store.entries()
        if not incidents:
            print(f"no incidents in {options.incident_dir}")
            return 0
        for incident in incidents:
            row = incident.summary()
            flag = " [reduced]" if row["reduced"] else ""
            print(
                f"{row['id']}  {row['function']:<16} {row['pass']:<16} "
                f"{row['error']:<24} x{row['count']}{flag}"
            )
        return 0

    # the remaining subcommands name one incident; accept a unique prefix
    wanted = options.incident_id
    incident = store.get(wanted)
    if incident is None:
        matches = [
            entry for entry in store.entries()
            if entry.incident_id.startswith(wanted)
        ]
        if len(matches) > 1:
            print(f"ambiguous incident id {wanted!r} "
                  f"({len(matches)} matches)", file=sys.stderr)
            return 1
        incident = matches[0] if matches else None
    if incident is None:
        print(f"no incident {wanted!r} in {options.incident_dir}",
              file=sys.stderr)
        return 1

    if options.triage_command == "show":
        print(json.dumps(incident.to_json(), indent=2, sort_keys=True))
        return 0
    if options.triage_command == "bisect":
        from repro.triage.bisect import bisect_incident

        result = bisect_incident(incident)
        if result is None:
            print("incident does not reproduce under replay",
                  file=sys.stderr)
            return 1
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        return 0
    from repro.triage.reduce import describe, reduce_incident

    artifact = reduce_incident(incident, max_checks=options.max_checks)
    if artifact is None:
        print("incident does not reproduce under replay", file=sys.stderr)
        return 1
    store.update(incident.incident_id, reduced=artifact.to_json())
    print(describe(artifact))
    return 0


def _cmd_fleet(options) -> int:
    from repro.service.protocol import default_fleet_socket_path

    if options.fleet_command == "stats":
        from repro.service.client import try_connect

        path = options.socket or default_fleet_socket_path()
        client = try_connect(path)
        if client is None:
            print(f"fleet: no gateway listening on {path}", file=sys.stderr)
            return 1
        try:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        finally:
            client.close()
        return 0

    from repro.service.fleet import FleetConfig, FleetHandle

    overrides = {}
    for spec in options.quota_overrides:
        try:
            tenant, _, limits = spec.partition("=")
            rate, _, burst = limits.partition(":")
            overrides[tenant] = (float(rate), float(burst or rate))
        except ValueError:
            print(f"fleet: bad --quota spec {spec!r} "
                  "(expected TENANT=RATE:BURST)", file=sys.stderr)
            return 2
    config = FleetConfig(
        socket_path=options.socket or default_fleet_socket_path(),
        shards=options.shards,
        workers_per_shard=options.workers_per_shard,
        store_dir=options.store_dir,
        store_max_bytes=options.store_max_mb * 1024 * 1024,
        cache_dir=options.cache_dir,
        tier1_level=options.tier1_level,
        tiering=not options.no_tiering,
        max_upgrades=options.max_upgrades,
        quota_rate=options.quota_rate,
        quota_burst=options.quota_burst,
        quotas=overrides,
    )
    handle = FleetHandle(config)
    handle.start()
    print(
        f"repro fleet: gateway on {config.socket_path} "
        f"({config.shards} shards x {config.workers_per_shard} workers, "
        f"tier1 {config.tier1_level!r}, store {config.store_dir})",
        file=sys.stderr,
    )
    import signal

    stop = threading.Event()

    def _terminate(signum, frame):  # noqa: ARG001
        stop.set()

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    previous_int = signal.signal(signal.SIGINT, _terminate)
    try:
        stop.wait()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        handle.stop()
        print(handle.gateway.metrics.format(), file=sys.stderr)
    return 0


def _cmd_cache(options) -> int:
    from repro.pm.cache import PassCache

    if options.cache_command == "stats":
        report = PassCache(options.dir).disk_stats()
        if options.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(
                f"{report['directory']}: {report['entries']} entries, "
                f"{report['bytes']} bytes"
            )
        return 0
    if options.cache_command == "clear":
        cache = PassCache(options.dir)
        before = cache.disk_stats()
        cache.clear()
        print(
            f"cleared {before['entries']} entries "
            f"({before['bytes']} bytes) from {options.dir}"
        )
        return 0
    cache = PassCache(
        options.dir,
        max_bytes=options.max_bytes,
        max_entries=options.max_entries,
    )
    evicted = cache.prune()
    after = cache.disk_stats()
    print(
        f"evicted {evicted} entries; {after['entries']} entries "
        f"({after['bytes']} bytes) remain in {options.dir}"
    )
    return 0


def _cmd_run(options) -> int:
    with open(options.source) as handle:
        source = handle.read()
    stats = ManagerStats()
    collector = RemarkCollector() if options.remarks else None
    manager = _build_manager(options, stats, collector)
    module = compile_source(source, manager=manager, verify=options.verify)
    memory = Memory()
    args = [_parse_scalar(a) for a in options.args]
    arrays = []
    for values, elemsize in options.array:
        base = memory.allocate_array(values, elemsize)
        arrays.append((base, len(values), elemsize))
        args.append(base)
    result = Interpreter(module).run(options.routine, args, memory)
    if result.value is not None:
        print(f"value: {result.value}")
    print(f"dynamic operations: {result.dynamic_count}")
    for index, (base, count, elemsize) in enumerate(arrays):
        print(f"array {index}: {memory.read_array(base, count, elemsize)}")
    if options.counts:
        for opcode, count in result.op_counts.most_common():
            print(f"  {opcode.value:<8} {count}")
    _finish_pipeline(options, stats, collector)
    return 0


def _cmd_codegen(options) -> int:
    from repro.backend import Target, codegen_module, print_asm
    from repro.backend.sim import Simulator

    try:
        target = Target(k=options.k)
    except ValueError as error:
        print(f"codegen: {error}", file=sys.stderr)
        return 2
    with open(options.source) as handle:
        source = handle.read()
    stats = ManagerStats()
    collector = RemarkCollector() if options.remarks else None
    manager = _build_manager(options, stats, collector)
    if options.ir:
        from repro.pipeline.driver import compile_ir

        module = compile_ir(
            source, _level(options.level), manager=manager, verify=options.verify
        )
    else:
        module = compile_source(source, manager=manager, verify=options.verify)
    alloc = codegen_module(module, target, schedule=not options.no_schedule)
    asm = print_asm(module, target)
    if options.asm and options.asm != "-":
        with open(options.asm, "w") as handle:
            handle.write(asm)
    else:
        print(asm, end="")
    for name, st in alloc.items():
        print(
            f"# {name}: {st.iterations} round(s), {st.spill_count} spilled, "
            f"{st.spill_loads} reload(s), {st.spill_stores} store(s), "
            f"{st.frame_slots} frame slot(s)",
            file=sys.stderr,
        )
    if options.run:
        memory = Memory()
        args = [_parse_scalar(a) for a in options.args]
        for values, elemsize in options.array:
            args.append(memory.allocate_array(values, elemsize))
        result = Simulator(module, target).run(options.run, args, memory)
        if result.value is not None:
            print(f"value: {result.value}")
        print(
            f"cycles: {result.cycles} ({result.instructions} instructions, "
            f"{result.stall_cycles} stall, {result.branch_cycles} branch, "
            f"{result.call_cycles} call; {result.lds_ops} lds / "
            f"{result.sts_ops} sts)"
        )
    _finish_pipeline(options, stats, collector)
    return 0


_TRIPLE_QUOTED = re.compile(r'"""(.*?)"""|\'\'\'(.*?)\'\'\'', re.S)


def _embedded_programs(directory: str) -> list[tuple[str, str]]:
    """Mini-FORTRAN programs embedded as string literals in ``DIR/*.py``.

    A triple-quoted block counts when its first non-empty line starts
    with ``routine`` — that keeps module docstrings that merely mention
    routines out of the lint set.
    """
    programs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path) as handle:
            text = handle.read()
        count = 0
        for match in _TRIPLE_QUOTED.finditer(text):
            block = match.group(1) or match.group(2) or ""
            stripped = block.strip()
            if not stripped.startswith("routine"):
                continue
            programs.append((f"{path}#{count}", block))
            count += 1
    return programs


def _lint_levels(option: str) -> list:
    if option == "all":
        return list(OptLevel)
    return [_level(option)]


def _cmd_lint(options) -> int:
    from repro.verify import get_checker, lint_module, promote_warnings, summarize
    from repro.verify.diagnostics import Diagnostic
    from repro.verify.diagnostics import errors as severity_errors

    if options.checkers:
        try:
            for checker_id in options.checkers:
                get_checker(checker_id)
        except KeyError as error:
            print(f"lint: {error.args[0]}", file=sys.stderr)
            return 2

    programs: list[tuple[str, str]] = []
    for path in options.sources:
        with open(path) as handle:
            programs.append((path, handle.read()))
    if options.suite:
        from repro.bench.suite import suite_routines

        for routine in suite_routines():
            programs.append((f"suite:{routine.name}", routine.source))
    if options.examples:
        programs.extend(_embedded_programs(options.examples))
    if not programs:
        print(
            "lint: nothing to lint (pass source files, --suite, or --examples)",
            file=sys.stderr,
        )
        return 2

    levels = _lint_levels(options.level)
    all_diagnostics = []
    records = []
    for origin, text in programs:
        for level in levels:
            level_name = level.value if level is not None else "none"
            try:
                module = compile_source(text, level=level, verify="off")
            except Exception as error:  # noqa: BLE001 — reported, not raised
                diagnostics = [
                    Diagnostic(
                        checker="compile",
                        severity="error",
                        function=origin,
                        message=f"compilation failed: {error}",
                    )
                ]
            else:
                diagnostics = lint_module(module, options.checkers)
            if options.werror:
                diagnostics = promote_warnings(diagnostics)
            all_diagnostics.extend(diagnostics)
            for diagnostic in diagnostics:
                record = diagnostic.as_dict()
                record["source"] = origin
                record["level"] = level_name
                records.append(record)
                if options.format == "text":
                    print(f"{origin} @ {level_name}: {diagnostic.format()}")

    error_count = len(severity_errors(all_diagnostics))
    report = {
        "programs": len(programs),
        "levels": [lvl.value if lvl is not None else "none" for lvl in levels],
        "werror": bool(options.werror),
        "errors": error_count,
        "summary": summarize(all_diagnostics),
        "diagnostics": records,
    }
    if options.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(
            f"linted {len(programs)} program(s) at {len(levels)} level(s): "
            f"{summarize(all_diagnostics)}"
        )
    if options.json_out:
        with open(options.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 1 if error_count else 0


def _cmd_certify(options) -> int:
    """``repro certify``: run the pipeline under ``verify=certify``.

    Every pass run is statically certified (value-graph proof, PRE
    placement audit); inconclusive runs fall back to the interpreting
    replay oracle inside the PassManager, so a clean exit means every
    transformation was either *proved* or *dynamically validated*.
    """
    from repro.pm.manager import PassVerificationError
    from repro.verify.diagnostics import summarize

    programs: list[tuple[str, str]] = []
    for path in options.sources:
        with open(path) as handle:
            programs.append((path, handle.read()))
    if options.suite:
        from repro.bench.suite import suite_routines

        for routine in suite_routines():
            programs.append((f"suite:{routine.name}", routine.source))
    if options.fuzz:
        from repro.verify.certify.fuzz import corpus

        programs.extend(corpus(options.fuzz))
    if not programs:
        print(
            "certify: nothing to certify (pass source files, --suite, "
            "or --fuzz N)",
            file=sys.stderr,
        )
        return 2

    levels = (
        list(OptLevel) if options.level == "all" else [_level(options.level)]
    )
    verdicts = {"proved": 0, "inconclusive": 0, "refuted": 0}
    records: list[dict] = []
    diagnostic_rows: list[dict] = []
    failures = 0
    for origin, text in programs:
        for level in levels:
            level_name = level.value
            collector = RemarkCollector()
            failed: Optional[str] = None
            try:
                compile_source(
                    text, level=level, verify="certify", collector=collector
                )
            except PassVerificationError as error:
                failed = str(error)
            except Exception as error:  # noqa: BLE001 — reported, not raised
                failed = f"compilation failed: {error}"
            if failed is not None:
                failures += 1
                records.append({
                    "source": origin,
                    "level": level_name,
                    "verdict": "error",
                    "reason": failed,
                })
                if options.format == "text":
                    print(f"{origin} @ {level_name}: ERROR {failed}")
            for remark in collector.remarks:
                if remark.event == "certify":
                    verdict = remark.data["verdict"]
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1
                    records.append({
                        "source": origin,
                        "level": level_name,
                        "pass": remark.pass_name,
                        "function": remark.function,
                        **remark.data,
                    })
                    if options.format == "text" and verdict == "refuted":
                        print(
                            f"{origin} @ {level_name}: {remark.pass_name} "
                            f"REFUTED on {remark.function}: "
                            f"{remark.data['reason']}"
                        )
                elif remark.event == "diagnostic":
                    row = dict(remark.data)
                    severity = row.get("severity")
                    if options.werror and severity == "warning":
                        row["severity"] = severity = "error"
                    row["source"] = origin
                    row["level"] = level_name
                    diagnostic_rows.append(row)
                    if options.format == "text" and severity == "error":
                        print(
                            f"{origin} @ {level_name}: "
                            f"[{row.get('checker')}] {row.get('message')}"
                        )

    error_count = failures + sum(
        1 for row in diagnostic_rows if row.get("severity") == "error"
    )
    certified = sum(verdicts.values())
    report = {
        "programs": len(programs),
        "levels": [level.value for level in levels],
        "werror": bool(options.werror),
        "pass_runs": certified,
        "verdicts": verdicts,
        "errors": error_count,
        "notes": sum(
            1 for row in diagnostic_rows if row.get("severity") == "note"
        ),
        "records": records,
        "diagnostics": diagnostic_rows,
    }
    if options.format == "json":
        print(json.dumps(report, indent=2))
    else:
        rate = (100.0 * verdicts["proved"] / certified) if certified else 0.0
        print(
            f"certified {certified} pass runs over {len(programs)} "
            f"program(s) at {len(levels)} level(s): "
            f"{verdicts['proved']} proved ({rate:.1f}%), "
            f"{verdicts['inconclusive']} replay-validated, "
            f"{verdicts['refuted']} refuted, {failures} failed"
        )
    if options.json_out:
        with open(options.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 1 if error_count else 0


def _cmd_profile(options) -> int:
    """``repro profile collect | show``: the lospre profile store."""
    from repro.profile import collect_module_profiles, prepare_profiled_module
    from repro.profile.store import ProfileStore, default_store

    store = ProfileStore(options.dir) if options.dir else default_store()
    if options.profile_command == "show":
        entries = store.entries()
        if options.json:
            print(json.dumps([p.to_json() for p in entries], indent=2))
            return 0
        if not entries:
            print(f"no profiles in {store.directory or 'memory'}")
            return 0
        for p in entries:
            print(
                f"{p.function:<12} hash {p.source_hash[:12]}  "
                f"runs {p.runs:<3} blocks {len(p.block_counts):<3} "
                f"entries {p.total}"
            )
        return 0

    from repro.frontend import compile_program

    programs: list[tuple[str, str, list, list]] = []
    if options.suite:
        from repro.bench.suite import suite_routines

        for routine in suite_routines():
            programs.append(
                (
                    routine.source,
                    routine.entry_name,
                    list(routine.args),
                    routine.fresh_arrays(),
                )
            )
    if options.source:
        if not options.routine:
            print(
                "profile collect: a routine name is required with a "
                "source file",
                file=sys.stderr,
            )
            return 2
        with open(options.source) as handle:
            text = handle.read()
        args = [_parse_scalar(a) for a in options.args]
        programs.append((text, options.routine, args, list(options.array)))
    if not programs:
        print(
            "profile collect: nothing to run (pass a source file or "
            "--suite)",
            file=sys.stderr,
        )
        return 2

    functions = 0
    for text, entry, args, arrays in programs:
        module = prepare_profiled_module(compile_program(text))
        profiles = collect_module_profiles(
            module, [(entry, args, arrays)], store=store
        )
        functions += len(profiles)
    failures = store.stats()["write_failures"]
    if failures:
        print(
            f"profile collect: {failures} profile(s) could not be written "
            f"to {store.directory}",
            file=sys.stderr,
        )
        return 1
    print(
        f"profiled {len(programs)} run(s): {functions} function "
        f"profile(s) -> {store.directory or 'memory'}"
    )
    return 0


def _cmd_passes(options) -> int:
    from repro.bench import ablation  # noqa: F401  (registers ablation/*)
    from repro.pm import all_passes, get_sequence, sequence_names, spec_label
    from repro.pm.registry import sequence_description

    if options.sequence:
        specs = get_sequence(options.sequence)
        print(" -> ".join(spec_label(spec) for spec in specs))
        return 0
    print("registered passes:")
    for info in all_passes():
        tags = info.kind + (", invalidates-ssa" if info.invalidates_ssa else "")
        print(f"  {info.name:<16} [{tags}] {info.description}")
        if info.options:
            rendered = ", ".join(
                f"{key}={value!r}" for key, value in sorted(info.options.items())
            )
            print(f"  {'':<16} options: {rendered}")
    print()
    print("sequences:")
    for name in sequence_names():
        specs = get_sequence(name)
        chain = " -> ".join(spec_label(spec) for spec in specs)
        doc = sequence_description(name)
        print(f"  {name:<22} {chain}")
        if doc:
            print(f"  {'':<22} ({doc})")
    print()
    print("backend targets (repro codegen --k / bench table1):")
    from repro.backend import bench_targets

    for target in bench_targets():
        print(f"  {target.name:<16} {target.describe()}")
    print()
    print("checkers (repro lint / --verify lint):")
    from repro.verify import all_checkers

    for checker in all_checkers():
        print(f"  {checker.id:<16} [{checker.severity}] {checker.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        return _dispatch(options)
    except KeyboardInterrupt:
        # clean Ctrl-C: executors/daemons have already reaped their
        # children on the way out; exit nonzero without a traceback spew
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # `repro triage list | head` closes our stdout mid-print; the
        # downstream consumer got what it wanted — exit like SIGPIPE
        # without a traceback (devnull keeps the interpreter's final
        # flush from raising again)
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(options) -> int:
    if options.command == "compile":
        return _cmd_compile(options)
    if options.command == "run":
        return _cmd_run(options)
    if options.command == "lint":
        return _cmd_lint(options)
    if options.command == "certify":
        return _cmd_certify(options)
    if options.command == "passes":
        return _cmd_passes(options)
    if options.command == "serve":
        return _cmd_serve(options)
    if options.command == "fleet":
        return _cmd_fleet(options)
    if options.command == "triage":
        return _cmd_triage(options)
    if options.command == "cache":
        return _cmd_cache(options)
    if options.command == "codegen":
        return _cmd_codegen(options)
    if options.command == "profile":
        return _cmd_profile(options)
    if options.command == "table1":
        from repro.bench.table1 import main as table1_main

        table1_main(
            jobs=options.jobs,
            executor=options.executor,
            cache_dir=None if options.no_cache else options.cache_dir,
            show_stats=options.stats,
            remarks_path=options.remarks,
            stats_json=options.stats_json,
            verify=options.verify,
            cycles=options.cycles,
            dynamic=options.dynamic,
        )
        return 0
    if options.command == "table2":
        from repro.bench.table2 import main as table2_main

        table2_main()
        return 0
    if options.command == "bench":
        if options.bench_command == "table1":
            from repro.backend.target import BENCH_KS
            from repro.bench.backend import main as backend_main

            return backend_main(
                quick=options.quick,
                json_out=options.json_out,
                schedule=not options.no_schedule,
                ks=options.ks or BENCH_KS,
            )
        if options.bench_command == "lospre":
            from repro.bench.lospre import main as lospre_bench_main

            return lospre_bench_main(
                quick=options.quick,
                json_out=options.json_out,
                profile_dir=options.profile_dir,
            )
        if options.bench_command == "certify":
            from repro.bench.certify import main as certify_bench_main

            return certify_bench_main(
                quick=options.quick,
                repeat=options.repeat,
                json_out=options.json_out,
                min_speedup=options.min_speedup,
            )
        if options.bench_command == "fleet":
            from repro.bench.fleet import main as fleet_bench_main

            return fleet_bench_main(
                quick=options.quick,
                clients=options.clients,
                shards=options.shards,
                duplicates=options.duplicates,
                json_out=options.json_out,
                min_warm_speedup=options.min_warm_speedup,
                min_hit_rate=options.min_hit_rate,
                max_tier1_p99_frac=options.max_tier1_p99_frac,
                scaling=not options.no_scaling,
            )
        if options.bench_command == "chaos":
            from repro.bench.chaos import main as chaos_bench_main

            return chaos_bench_main(
                quick=options.quick,
                json_out=options.json_out,
                crash_pass=options.crash_pass,
                incident_dir=options.incident_dir,
                rate=options.rate,
                seed=options.seed,
            )
        if options.bench_command == "serve":
            from repro.bench.serve import main as serve_bench_main

            return serve_bench_main(
                quick=options.quick,
                clients=options.clients,
                workers=options.workers,
                duplicates=options.duplicates,
                crashes=options.crashes,
                json_out=options.json_out,
                min_speedup=options.min_speedup,
            )
        from repro.bench.dataflow import main as dataflow_main

        return dataflow_main(
            repeat=options.repeat,
            json_out=options.json_out,
            max_pops=options.max_pops,
        )
    from repro.bench.ablation import main as ablation_main

    ablation_main(jobs=options.jobs, show_stats=options.stats)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
