"""Command-line interface.

::

    python -m repro compile prog.f --level distribution        # print optimized ILOC
    python -m repro compile prog.iloc --ir                     # optimize printed IR
    python -m repro run prog.f saxpy 100 2.0 --array 0,0,0:8   # execute + count
    python -m repro codegen prog.f --k 8 --run saxpy 100 2.0 --array 0,0,0:8
    python -m repro lint prog.f --level all --werror           # IR diagnostics
    python -m repro passes                                     # registry + checkers
    python -m repro table1 | table2 | ablation                 # the experiments
    python -m repro serve                                      # compile daemon
    python -m repro compile prog.f --daemon                    # use the daemon
    python -m repro fleet serve --shards 4                     # compile fleet
    python -m repro compile prog.f --fleet                     # use the fleet
    python -m repro cache stats | clear | prune                # disk IR cache
    python -m repro bench serve | fleet                        # service gates
    python -m repro profile collect --suite                    # bank profiles
    python -m repro compile prog.f --level spec                # profile-guided PRE
    python -m repro bench lospre                               # speculative PRE gate

Each subcommand's parser names its handler (``set_defaults``), and
:func:`main` calls it.  An option several subcommands take is declared
once: in a parent parser (``--level``, the pipeline options, ``--array``,
the incident ``ID``, ...), or, for lint's and certify's program options,
in :func:`_add_program_arguments`.

Each ``bench`` subcommand is a gate runner: it writes its report
(``BENCH_*.json`` by default, ``--json`` to move it) and exits 1 on a
failed gate.  Throughput and latency are measured by ``perfbench/``.

The source language is the mini-FORTRAN of :mod:`repro.frontend`; array
arguments are comma-separated element lists suffixed with the element
size (``:8`` for REAL, ``:4`` for INTEGER), appended after the scalars.

Pipeline knobs (``compile``/``run``/``codegen``/``table1``):
``--verify SPEC`` controls inter-pass verification (``each``/``final``
structural validation, ``lint`` for the semantic checkers, ``transval``
for the interpreting translation validator, ``certify`` for the static
certifier; comma-combinable, e.g. ``lint,transval:final``), ``--remarks
out.jsonl`` saves structured optimization remarks, and ``--stats``
prints per-pass wall-clock and IR-delta totals to stderr (stdout stays
byte-identical); :func:`_pipeline` writes both for every command.
``table1`` keeps a content-addressed IR cache in ``.repro_cache/`` by
default, so a second run replays compiles from disk (``--no-cache`` to
disable).

``lint`` compiles sources (files, ``--suite`` bench programs,
``--examples`` the SOURCE strings embedded in ``examples/*.py``) at one
or every optimization level and reports checker diagnostics as text or
JSON; ``--werror`` promotes warnings and the exit status is 1 when any
error remains.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import re
import signal
import sys
from typing import Optional, Sequence

from repro.ir import print_module
from repro.pipeline import OptLevel, compile_payload, compile_source, run_routine
from repro.pm import ManagerStats, PassCache, PassManager, RemarkCollector
from repro.pm.manager import VERIFY_POLICIES, parse_verify
from repro.triage.incidents import DEFAULT_INCIDENT_DIR


#: ``repro bench`` subcommands: name -> (module under ``repro.bench``,
#: default report path, help, ``--quick`` help or None).  Each module's
#: ``main`` takes the subcommand's options as keyword arguments.
_BENCHES = {
    "dataflow": (
        "dataflow", "BENCH_dataflow.json",
        "count the dataflow solvers' work: the mask engine over the PRE "
        "stage, the frozenset solver over the suite's problems",
        None,
    ),
    "table1": (
        "backend", "BENCH_backend.json",
        "cycles benchmark: sim vs interp over the suite (exit 1 on any "
        "mismatch)",
        "deterministic suite subset (the CI smoke run)",
    ),
    "serve": (
        "serve", "BENCH_service.json",
        "drive the compile daemon with a mixed corpus; exit 1 on any "
        "wrong reply",
        "small corpus (the CI smoke run)",
    ),
    "fleet": (
        "fleet", "BENCH_fleet.json",
        "drive the compile fleet: tiered latency, tier transition, "
        "cross-shard warm hits, shard-kill failover",
        "small corpus (the CI smoke run)",
    ),
    "lospre": (
        "lospre", "BENCH_lospre.json",
        "profile-guided speculative PRE vs both conservative solvers "
        "over the suite",
        "deterministic suite subset; waives the strict-aggregate gate "
        "(the CI smoke run)",
    ),
    "certify": (
        "certify", "BENCH_certify.json",
        "certify and replay the suite's pass runs; exit 1 on any "
        "refutation",
        "small deterministic suite subset for fast iteration",
    ),
    "chaos": (
        "chaos", "BENCH_chaos.json",
        "inject pass crashes/miscompiles, poison pills, worker kills and "
        "torn writes; gate on the never-fail contract",
        "deterministic suite subset and a smaller triage sample (the CI "
        "smoke run)",
    ),
}

#: The optimization levels a ``--level`` names besides ``none``.
_LEVELS = [level.value for level in OptLevel] + ["spec"]


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


def _add_program_arguments(
    parser: argparse.ArgumentParser, verb: str, levels: list[str]
) -> None:
    """The programs a ``lint`` or ``certify`` run covers, the levels it
    compiles them at (``levels`` or ``all``) and how it reports."""
    parser.add_argument(
        "sources", nargs="*", help=f"mini-FORTRAN source files to {verb}"
    )
    parser.add_argument(
        "--suite",
        action="store_true",
        help=f"also {verb} every benchmark-suite routine",
    )
    parser.add_argument(
        "--level",
        default="all",
        choices=["all"] + levels,
        help=f"optimization level to {verb} at; 'all' means every level "
        "(default: all)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT.JSON",
        dest="json_out",
        help="also write the JSON report to a file",
    )
    parser.add_argument(
        "--werror",
        action="store_true",
        help="promote warnings to errors (exit 1 when any error remains)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Effective Partial Redundancy Elimination (PLDI 1994) toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # options several subcommands take, each declared once
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument(
        "--level",
        choices=["none"] + _LEVELS,
        default="distribution",
        help="optimization level (default: distribution, the paper's best; "
        "'spec' adds profile-guided speculative PRE, see docs/PROFILE.md)",
    )
    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument(
        "--verify",
        type=_verify_spec,
        default="final",
        metavar="SPEC",
        help="inter-pass verification: comma-separated subset of "
        f"{', '.join(VERIFY_POLICIES)} (default: final)",
    )
    pipeline.add_argument(
        "--remarks",
        metavar="OUT.JSONL",
        help="write structured optimization remarks as JSON Lines",
    )
    pipeline.add_argument(
        "--stats",
        action="store_true",
        help="print per-pass timing/IR-delta totals to stderr",
    )
    payload = argparse.ArgumentParser(add_help=False)
    payload.add_argument("source", help="mini-FORTRAN source file")
    payload.add_argument(
        "--ir",
        action="store_true",
        help="input is printed ILOC (skip the frontend, optimize as-is)",
    )
    arrays = argparse.ArgumentParser(add_help=False)
    arrays.add_argument(
        "--array",
        action="append",
        default=[],
        type=_parse_array,
        metavar="V,V,...:SIZE",
        help="array argument (appended after the scalars); repeatable",
    )
    incident = argparse.ArgumentParser(add_help=False)
    incident.add_argument("incident_id", metavar="ID")
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="DIR",
        help="content-addressed IR cache directory, shared by every "
        "compile (default: .repro_cache)",
    )
    profile_dir = argparse.ArgumentParser(add_help=False)
    profile_dir.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="profile store directory (default: $REPRO_PROFILE_DIR or "
        ".repro_profiles)",
    )
    gateway_socket = argparse.ArgumentParser(add_help=False)
    gateway_socket.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="gateway Unix socket (default: $REPRO_FLEET_SOCKET or the "
        "per-user runtime path)",
    )

    compile_cmd = commands.add_parser(
        "compile", parents=[payload, level, pipeline],
        help="compile and print ILOC",
    )
    compile_cmd.set_defaults(handler=_cmd_compile)
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

    run_cmd = commands.add_parser(
        "run", parents=[arrays, level, pipeline],
        help="compile, execute and count",
    )
    run_cmd.set_defaults(handler=_cmd_run)
    run_cmd.add_argument("source", help="mini-FORTRAN source file")
    run_cmd.add_argument("routine", help="routine to invoke")
    run_cmd.add_argument("args", nargs="*", help="scalar arguments")
    run_cmd.add_argument(
        "--counts",
        action="store_true",
        help="print per-opcode dynamic counts (most frequent first, ties "
        "by mnemonic)",
    )

    lint_cmd = commands.add_parser(
        "lint", help="compile sources and report IR checker diagnostics"
    )
    lint_cmd.set_defaults(handler=_cmd_lint)
    _add_program_arguments(lint_cmd, "lint", ["none"] + _LEVELS)
    lint_cmd.add_argument(
        "--examples",
        nargs="?",
        const="examples",
        metavar="DIR",
        help="also lint the SOURCE programs embedded in DIR/*.py "
        "(default DIR: examples)",
    )
    lint_cmd.add_argument(
        "--checker",
        action="append",
        default=None,
        metavar="ID",
        dest="checkers",
        help="run only this checker (repeatable; default: all)",
    )

    certify_cmd = commands.add_parser(
        "certify",
        help="statically certify every pass run (value graph + PRE "
        "placement audit, replay fallback)",
    )
    certify_cmd.set_defaults(handler=_cmd_certify)
    _add_program_arguments(certify_cmd, "certify", _LEVELS)
    certify_cmd.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also certify N seeded random integer programs "
        "(the deterministic fuzz corpus)",
    )

    passes_cmd = commands.add_parser(
        "passes", help="list registered passes, sequences and checkers"
    )
    passes_cmd.set_defaults(handler=_cmd_passes)
    passes_cmd.add_argument(
        "--sequence",
        metavar="NAME",
        help="show only this named sequence",
    )

    codegen_cmd = commands.add_parser(
        "codegen", parents=[payload, arrays, level, pipeline],
        help="lower to rvk machine code (docs/BACKEND.md)",
    )
    codegen_cmd.set_defaults(handler=_cmd_codegen)
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
        nargs="+",
        metavar=("ROUTINE", "SCALAR"),
        help="simulate ROUTINE on the scalars (and the --array arguments) "
        "after codegen and report cycles",
    )

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
        parents=[arrays, profile_dir],
        help="run programs under the interpreter and bank block/edge "
        "counters in the profile store",
    )
    profile_collect_cmd.set_defaults(handler=_cmd_profile_collect)
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
        "--suite",
        action="store_true",
        help="also profile every benchmark-suite routine on its driver "
        "inputs",
    )
    profile_show_cmd = profile_sub.add_parser(
        "show", parents=[profile_dir],
        help="list the profiles banked in the store",
    )
    profile_show_cmd.set_defaults(handler=_cmd_profile_show)
    profile_show_cmd.add_argument(
        "--json", action="store_true", help="print full profiles as JSON"
    )

    table1_cmd = commands.add_parser(
        "table1", parents=[pipeline, cache_dir],
        help="regenerate the paper's Table 1",
    )
    table1_cmd.set_defaults(handler=_cmd_table1)
    table1_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="compile everything from scratch, no cache reads or writes",
    )
    table1_cmd.add_argument(
        "--dynamic",
        action="store_true",
        help="append a profile-weighted section: static vs dynamic "
        "operation counts at -O2 and at the spec level (docs/PROFILE.md)",
    )

    commands.add_parser(
        "table2", help="regenerate the paper's Table 2"
    ).set_defaults(handler=_cmd_table2)

    serve_cmd = commands.add_parser(
        "serve", parents=[cache_dir],
        help="run the persistent compile daemon (docs/SERVICE.md)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)
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
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request deadline (default: 30s)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true", help="run the workers cache-less"
    )
    serve_cmd.add_argument(
        "--cache-max-mb",
        type=int,
        default=256,
        metavar="MB",
        help="LRU size cap for the disk cache and for each worker's "
        "in-memory cache (default: 256 MB)",
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
        "serve", parents=[gateway_socket, cache_dir],
        help="run the gateway plus its shard daemons",
    )
    fleet_serve_cmd.set_defaults(handler=_cmd_fleet_serve)
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
        help="LRU size cap for the artifact store, on disk and in the "
        "gateway's memory (default: 512 MB)",
    )
    fleet_serve_cmd.add_argument(
        "--no-tiering",
        action="store_true",
        help="always compile at the requested level before replying",
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
    fleet_sub.add_parser(
        "stats", parents=[gateway_socket],
        help="print a running fleet's merged stats report",
    ).set_defaults(handler=_cmd_fleet_stats)

    cache_cmd = commands.add_parser(
        "cache", help="inspect, clear or prune the on-disk IR cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for name, doc, handler in (
        ("stats", "entry count and byte totals", _cmd_cache_stats),
        ("clear", "delete every cached entry", _cmd_cache_clear),
        ("prune", "evict LRU entries down to the given caps", _cmd_cache_prune),
    ):
        sub = cache_sub.add_parser(name, help=doc)
        sub.set_defaults(handler=handler)
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
        "bench",
        help="gate runners (dataflow, table1, serve, fleet, lospre, "
        "certify, chaos): each writes its BENCH_*.json report and exits 1 "
        "on a failed gate",
    )
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)
    bench = {}
    for name, (_, report, help_text, quick_help) in _BENCHES.items():
        bench[name] = bench_sub.add_parser(name, help=help_text)
        bench[name].set_defaults(handler=_cmd_bench)
        if quick_help:
            bench[name].add_argument(
                "--quick", action="store_true", help=quick_help
            )
        bench[name].add_argument(
            "--json",
            dest="json_out",
            default=report,
            metavar="OUT.JSON",
            help=f"report path (default: {report})",
        )
    bench["dataflow"].add_argument(
        "--max-pops",
        type=int,
        default=None,
        metavar="BOUND",
        help="exit 1 when the PRE stage's deterministic worklist-pop count "
        "exceeds BOUND (the CI regression gate)",
    )
    bench["table1"].add_argument(
        "--no-schedule",
        action="store_false",
        dest="schedule",
        help="skip post-allocation list scheduling",
    )
    bench["table1"].add_argument(
        "--k",
        type=int,
        action="append",
        default=None,
        metavar="K",
        dest="ks",
        help="target register count (repeatable; default: 8 16 32)",
    )
    bench["serve"].add_argument(
        "--crash",
        type=int,
        default=1,
        metavar="N",
        dest="crashes",
        help="worker crashes to inject during the cold pass (default: 1)",
    )
    bench["fleet"].add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless the cross-shard store hit rate reaches this "
        "fraction (the CI gate, e.g. 0.9)",
    )
    bench["fleet"].add_argument(
        "--max-tier1-p99-frac",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless tier-1 first-answer p99 is under this "
        "fraction of the same flood's O2-under-load p99 (e.g. 0.5)",
    )
    bench["chaos"].add_argument(
        "--incident-dir",
        default=None,
        metavar="DIR",
        help="record incidents to DIR so `repro triage --dir DIR` can "
        "inspect them after the run (default: a temp dir)",
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
    triage_sub.add_parser(
        "list", help="one row per recorded incident"
    ).set_defaults(handler=_cmd_triage_list)
    triage_sub.add_parser(
        "show", parents=[incident], help="full detail for one incident (JSON)"
    ).set_defaults(handler=_cmd_triage_show)
    triage_sub.add_parser(
        "bisect",
        parents=[incident],
        help="binary-search the pass sequence for the first bad "
        "application",
    ).set_defaults(handler=_cmd_triage_bisect)
    triage_sub.add_parser(
        "reduce",
        parents=[incident],
        help="shrink the incident to a minimal reproducing IR + pass "
        "sequence and store it back",
    ).set_defaults(handler=_cmd_triage_reduce)

    ablation_cmd = commands.add_parser(
        "ablation", help="run the design-choice ablations"
    )
    ablation_cmd.set_defaults(handler=_cmd_ablation)
    ablation_cmd.add_argument("--stats", action="store_true")
    return parser


def _pipeline(command):
    """Run ``command(options, stats, collector)`` with the ``--stats``
    totals and the ``--remarks`` collector (``None`` without the option);
    after a clean exit, write the remarks file and print the stats table
    to stderr."""

    def run(options) -> int:
        stats = ManagerStats()
        collector = (
            RemarkCollector() if getattr(options, "remarks", None) else None
        )
        status = command(options, stats, collector)
        if status == 0:
            if collector is not None:
                collector.write(options.remarks)
            if options.stats:
                print(stats.format(), file=sys.stderr)
        return status

    return run


def _payload(options) -> tuple[str, str]:
    """``(kind, text)`` of the ``source`` file; ``--ir`` marks printed ILOC."""
    with open(options.source) as handle:
        return ("ir" if getattr(options, "ir", False) else "source"), handle.read()


def _compile(options, stats: ManagerStats, collector):
    """The ``source`` file compiled at ``--level`` under ``--verify``; the
    passes' totals go to ``stats`` and their remarks to ``collector``."""
    manager = None
    if options.level != "none":
        manager = PassManager(
            options.level, verify=options.verify, collector=collector, stats=stats
        )
    return compile_payload(
        *_payload(options), options.level, options.verify, manager=manager
    )


def _cmd_compile(options) -> int:
    if not (options.daemon or options.fleet):
        return _compile_here(options)
    # a server compiles in another process, which cannot fill these
    # sinks; refusing them keeps the command's meaning the same whether
    # or not a server is up
    local = [flag for flag, given in (("--stats", options.stats),
                                      ("--remarks", options.remarks)) if given]
    if local:
        server = "--fleet" if options.fleet else "--daemon"
        print(f"compile: {' and '.join(local)} cannot be combined with "
              f"{server}: the server compiles in another process",
              file=sys.stderr)
        return 2
    return _compile_via_server(options)


@_pipeline
def _compile_here(options, stats: ManagerStats, collector) -> int:
    print(print_module(_compile(options, stats, collector)))
    return 0


def _compile_via_server(options) -> int:
    """``compile --daemon`` / ``--fleet``: the server's reply, or the same
    reply computed in-process when no server is listening."""
    from repro.service import protocol
    from repro.service.client import compile_with_fallback

    server = "fleet" if options.fleet else "daemon"
    path = options.daemon_socket or protocol.default_socket_path(server)
    request = protocol.compile_request(
        *_payload(options),
        options.level,
        options.verify,
        tenant=options.tenant or protocol.DEFAULT_TENANT,
        priority=options.priority,
    )
    reply, origin = compile_with_fallback(
        request, path, connect_retries=3 if options.fleet else 0
    )
    if origin == "local":
        print(f"compile: no {server} listening on {path}; compiling "
              "in-process", file=sys.stderr)
    if not reply["ok"]:
        error = reply["error"]
        print(f"compile: {server} error [{error['kind']}]: "
              f"{error['message']}", file=sys.stderr)
        return 1
    if reply.get("tier") == 1:
        print(
            f"compile: tier-1 answer at level {reply.get('level')!r}; "
            f"level {options.level!r} is being upgraded in the background",
            file=sys.stderr,
        )
    print(reply["ir"])
    return 0


def _serve_until_signalled(wait, stop, metrics, metrics_json=None) -> int:
    """Block in ``wait()`` until the server stops (a ``shutdown``
    request), then ``stop()`` it and report its ``metrics``: the
    snapshot to ``metrics_json`` when given, the table to stderr.

    SIGTERM (systemd stop, CI ``kill``) takes the same clean shutdown as
    Ctrl-C and exits 143.
    """

    def _terminate(signum, frame):  # noqa: ARG001
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        wait()
    finally:
        # KeyboardInterrupt and SIGTERM land here too: reap children,
        # then report
        signal.signal(signal.SIGTERM, previous)
        stop()
        if metrics_json:
            with open(metrics_json, "w") as handle:
                json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(metrics.format(), file=sys.stderr)
    return 0


def _cmd_serve(options) -> int:
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.protocol import default_socket_path

    config = DaemonConfig(
        socket_path=options.socket or default_socket_path(),
        workers=options.workers,
        request_timeout=options.timeout,
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
    return _serve_until_signalled(
        daemon.serve_forever, daemon.stop, daemon.metrics, options.metrics_json
    )


def _cmd_triage_list(options) -> int:
    from repro.triage import IncidentStore

    incidents = IncidentStore(options.incident_dir).entries()
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


def _incident_command(command):
    """Run ``command(options, store, incident)`` on the incident the
    ``ID`` argument names (a unique prefix will do); exit 1 when it names
    none."""

    def run(options) -> int:
        from repro.triage import IncidentStore

        store = IncidentStore(options.incident_dir)
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
        return command(options, store, incident)

    return run


@_incident_command
def _cmd_triage_show(options, store, incident) -> int:  # noqa: ARG001
    print(json.dumps(incident.to_json(), indent=2, sort_keys=True))
    return 0


@_incident_command
def _cmd_triage_bisect(options, store, incident) -> int:  # noqa: ARG001
    from repro.triage.bisect import bisect_incident

    result = bisect_incident(incident)
    if result is None:
        print("incident does not reproduce under replay", file=sys.stderr)
        return 1
    print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    return 0


@_incident_command
def _cmd_triage_reduce(options, store, incident) -> int:
    from repro.triage.reduce import describe, reduce_incident

    artifact = reduce_incident(incident)
    if artifact is None:
        print("incident does not reproduce under replay", file=sys.stderr)
        return 1
    store.update(incident.incident_id, reduced=artifact.to_json())
    print(describe(artifact))
    return 0


def _cmd_fleet_stats(options) -> int:
    from repro.service.client import try_connect
    from repro.service.protocol import default_socket_path

    path = options.socket or default_socket_path("fleet")
    client = try_connect(path)
    if client is None:
        print(f"fleet: no gateway listening on {path}", file=sys.stderr)
        return 1
    with client:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_fleet_serve(options) -> int:
    from repro.service.fleet import FleetConfig, FleetHandle
    from repro.service.fleet.gateway import TIER1_LEVEL
    from repro.service.protocol import default_socket_path

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
        socket_path=options.socket or default_socket_path("fleet"),
        shards=options.shards,
        workers_per_shard=options.workers_per_shard,
        store_dir=options.store_dir,
        store_max_bytes=options.store_max_mb * 1024 * 1024,
        cache_dir=options.cache_dir,
        tiering=not options.no_tiering,
        quota_rate=options.quota_rate,
        quota_burst=options.quota_burst,
        quotas=overrides,
    )
    handle = FleetHandle(config)
    handle.start()
    print(
        f"repro fleet: gateway on {config.socket_path} "
        f"({config.shards} shards x {config.workers_per_shard} workers, "
        f"tier1 {TIER1_LEVEL!r}, store {config.store_dir})",
        file=sys.stderr,
    )
    return _serve_until_signalled(
        handle.wait, handle.stop, handle.gateway.metrics
    )


def _cmd_cache_stats(options) -> int:
    report = PassCache(options.dir).stats()
    if options.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"{report['directory']}: {report['entries']} entries, "
            f"{report['bytes']} bytes"
        )
    return 0


def _cmd_cache_clear(options) -> int:
    cache = PassCache(options.dir)
    before = cache.stats()
    cache.clear()
    print(
        f"cleared {before['entries']} entries "
        f"({before['bytes']} bytes) from {options.dir}"
    )
    return 0


def _cmd_cache_prune(options) -> int:
    cache = PassCache(
        options.dir,
        max_bytes=options.max_bytes,
        max_entries=options.max_entries,
    )
    evicted = cache.prune()
    after = cache.stats()
    print(
        f"evicted {evicted} entries; {after['entries']} entries "
        f"({after['bytes']} bytes) remain in {options.dir}"
    )
    return 0


@_pipeline
def _cmd_run(options, stats: ManagerStats, collector) -> int:
    module = _compile(options, stats, collector)
    args = [_parse_scalar(a) for a in options.args]
    run = run_routine(module, options.routine, args, options.array)
    if run.value is not None:
        print(f"value: {run.value}")
    print(f"dynamic operations: {run.dynamic_count}")
    for index, values in enumerate(run.arrays):
        print(f"array {index}: {values}")
    if options.counts:
        rows = sorted(
            run.result.op_counts.items(), key=lambda row: (-row[1], row[0].value)
        )
        for opcode, count in rows:
            print(f"  {opcode.value:<8} {count}")
    return 0


@_pipeline
def _cmd_codegen(options, stats: ManagerStats, collector) -> int:
    from repro.backend import AllocationError, Target, codegen_module, print_asm
    from repro.backend.sim import Simulator

    try:
        target = Target(k=options.k)
    except ValueError as error:
        print(f"codegen: {error}", file=sys.stderr)
        return 2
    module = _compile(options, stats, collector)
    try:
        alloc = codegen_module(module, target, schedule=not options.no_schedule)
    except AllocationError as error:
        # MIN_K admits every single instruction, not every routine: a
        # call needs all of its arguments in registers at once
        print(f"codegen: {error}", file=sys.stderr)
        return 2
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
        routine, *scalars = options.run
        result = run_routine(
            module,
            routine,
            [_parse_scalar(a) for a in scalars],
            options.array,
            machine=Simulator(module, target),
        ).result
        if result.value is not None:
            print(f"value: {result.value}")
        print(
            f"cycles: {result.cycles} ({result.instructions} instructions, "
            f"{result.stall_cycles} stall, {result.branch_cycles} branch, "
            f"{result.call_cycles} call; {result.lds_ops} lds / "
            f"{result.sts_ops} sts)"
        )
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


def _levels(option: str) -> list[str]:
    """The level names a ``--level`` of lint or certify stands for."""
    if option == "all":
        return [level.value for level in OptLevel]
    return [option]


def _gather_programs(options) -> list[tuple[str, str]]:
    """``(origin, text)`` for every program a lint or certify run covers.

    Source files first, then the suite, then ``--examples`` (lint) or
    the ``--fuzz`` corpus (certify).  An empty list is reported on
    stderr; the caller exits 2.
    """
    programs: list[tuple[str, str]] = []
    for path in options.sources:
        with open(path) as handle:
            programs.append((path, handle.read()))
    if options.suite:
        from repro.bench.suite import suite_routines

        for routine in suite_routines():
            programs.append((f"suite:{routine.name}", routine.source))
    if getattr(options, "examples", None):
        programs.extend(_embedded_programs(options.examples))
    if getattr(options, "fuzz", 0):
        from repro.verify.certify.fuzz import corpus

        programs.extend(corpus(options.fuzz))
    if not programs:
        command = options.command
        extra = "--examples" if command == "lint" else "--fuzz N"
        print(
            f"{command}: nothing to {command} (pass source files, --suite, "
            f"or {extra})",
            file=sys.stderr,
        )
    return programs


def _write_report(options, report: dict, summary: str) -> int:
    """Print a lint or certify report and save it; 1 when it has errors.

    stdout gets the JSON report under ``--format json`` and the one-line
    ``summary`` otherwise; ``--json`` also writes the report to a file.
    """
    if options.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(summary)
    if options.json_out:
        with open(options.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 1 if report["errors"] else 0


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

    programs = _gather_programs(options)
    if not programs:
        return 2

    levels = _levels(options.level)
    all_diagnostics = []
    records = []
    for origin, text in programs:
        for level_name in levels:
            try:
                module = compile_source(text, level=level_name, verify="off")
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

    report = {
        "programs": len(programs),
        "levels": levels,
        "werror": bool(options.werror),
        "errors": len(severity_errors(all_diagnostics)),
        "summary": summarize(all_diagnostics),
        "diagnostics": records,
    }
    return _write_report(
        options,
        report,
        f"linted {len(programs)} program(s) at {len(levels)} level(s): "
        f"{report['summary']}",
    )


def _cmd_certify(options) -> int:
    """``repro certify``: run the pipeline under ``verify=certify``.

    Every pass run is statically certified (value-graph proof, PRE
    placement audit); inconclusive runs fall back to the interpreting
    replay oracle inside the PassManager, so a clean exit means every
    transformation was either *proved* or *dynamically validated*.
    """
    from repro.pm.manager import PassVerificationError
    from repro.verify.diagnostics import summarize

    programs = _gather_programs(options)
    if not programs:
        return 2

    levels = _levels(options.level)
    verdicts = {"proved": 0, "inconclusive": 0, "refuted": 0}
    records: list[dict] = []
    diagnostic_rows: list[dict] = []
    failures = 0
    for origin, text in programs:
        for level_name in levels:
            collector = RemarkCollector()
            failed: Optional[str] = None
            try:
                compile_source(
                    text, level=level_name, verify="certify",
                    collector=collector,
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

    certified = sum(verdicts.values())
    report = {
        "programs": len(programs),
        "levels": levels,
        "werror": bool(options.werror),
        "pass_runs": certified,
        "verdicts": verdicts,
        "errors": failures + sum(
            1 for row in diagnostic_rows if row.get("severity") == "error"
        ),
        "notes": sum(
            1 for row in diagnostic_rows if row.get("severity") == "note"
        ),
        "records": records,
        "diagnostics": diagnostic_rows,
    }
    rate = (100.0 * verdicts["proved"] / certified) if certified else 0.0
    return _write_report(
        options,
        report,
        f"certified {certified} pass runs over {len(programs)} "
        f"program(s) at {len(levels)} level(s): "
        f"{verdicts['proved']} proved ({rate:.1f}%), "
        f"{verdicts['inconclusive']} replay-validated, "
        f"{verdicts['refuted']} refuted, {failures} failed",
    )


def _cmd_profile_show(options) -> int:
    """``repro profile show``: the profiles banked in the store."""
    from repro.profile.store import ProfileStore, default_store

    store = ProfileStore(options.dir) if options.dir else default_store()
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


def _cmd_profile_collect(options) -> int:
    """``repro profile collect``: bank the lospre profiles of runs."""
    from repro.frontend import compile_program
    from repro.profile import collect_module_profiles, prepare_profiled_module
    from repro.profile.store import ProfileStore, default_store

    store = ProfileStore(options.dir) if options.dir else default_store()
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


@_pipeline
def _cmd_table1(options, stats: ManagerStats, collector) -> int:
    from repro.bench.table1 import main

    main(
        cache_dir=None if options.no_cache else options.cache_dir,
        verify=options.verify,
        dynamic=options.dynamic,
        stats=stats,
        collector=collector,
    )
    return 0


def _cmd_table2(options) -> int:  # noqa: ARG001
    from repro.bench.table2 import main

    main()
    return 0


@_pipeline
def _cmd_ablation(options, stats: ManagerStats, collector) -> int:  # noqa: ARG001
    from repro.bench.ablation import main

    main(stats=stats)
    return 0


def _cmd_bench(options) -> int:
    """``repro bench NAME``: the bench module's ``main``, called with the
    subcommand's options."""
    arguments = dict(vars(options))
    for name in ("command", "bench_command", "handler"):
        del arguments[name]
    module = importlib.import_module(
        f"repro.bench.{_BENCHES[options.bench_command][0]}"
    )
    return module.main(**arguments)


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        return options.handler(options)
    except KeyboardInterrupt:
        # clean Ctrl-C: daemons have already reaped their children on
        # the way out; exit nonzero without a traceback spew
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # `repro triage list | head` closes our stdout mid-print; the
        # downstream consumer got what it wanted — exit like SIGPIPE
        # without a traceback (devnull keeps the interpreter's final
        # flush from raising again)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
