"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  The program under test is imported
from ``src/``; nothing is installed.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is the
JSON verdict; the lines before it are a human-readable summary with the
run's provenance and ``fail_share``.  Exits non-zero, printing no
verdict, when the program cannot be imported or a run breaks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> (module, entry function, client count, loop type)
WORKLOADS = {
    "paper-suite": ("inprocess", "run_paper_suite", 1, "in-process sweep"),
    "verified-spec": ("inprocess", "run_verified_spec", 1, "in-process sweep"),
    "serve-mixed": ("serving", "run_serve_mixed", 2, "closed loop"),
    "fleet-mixed": ("serving", "run_fleet_mixed", 2, "closed loop"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashing sets the iteration order of sets inside the
        # compiler, and with it how much work some passes do: hold it
        # fixed so that runs differ only by their --seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program under test from src/: {error}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from src/",
              file=sys.stderr)
        return 2

    from harness import Result, provenance

    module_name, entry, clients, loop = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module_name), entry)
    result = Result()
    try:
        details = workload(args.seed, args.seconds, bool(args.trace), result)
    except Exception:  # noqa: BLE001 — report the break, print no verdict
        traceback.print_exc()
        return 1

    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    if args.trace:
        # a layer this workload does not exercise did no work: report 0
        for name in units:
            result.metrics.setdefault(name, 0)
    info = provenance(args.workload, args.seed, bool(args.trace), clients, loop)
    result.emit({**info, **details}, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
