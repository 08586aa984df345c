"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``service-mixed``, ``sweep-frontier``,
``dynamic-resolve``, or ``all``) against the checkout's sources.  The
workload's inputs come from ``--seed``; it measures for ``--seconds``.
With ``--trace 0`` the result holds every end-to-end metric, with
``--trace 1`` every per-layer metric (from probes around each layer's
public functions, plus the traced-vs-untraced overhead).

Standard output ends with two JSON lines: a report (host fingerprint,
every metric with unit, direction and sample count, the workload's own
named readings and every correctness check), then the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("service-mixed", "sweep-frontier", "dynamic-resolve")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_one(args: argparse.Namespace) -> int:
    from perfbench.common import host_fingerprint

    module = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_")
    )
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} crashed", file=sys.stderr)
        return 1
    report = {
        "report": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "metrics": {k: m.as_dict() for k, m in outcome.metrics.items()},
        "details": {k: m.as_dict() for k, m in outcome.details.items()},
        "checks": {
            name: {"passed": passed, "detail": detail}
            for name, (passed, detail) in outcome.checks.items()
        },
        **outcome.extra,
    }
    print(json.dumps(report))
    result = {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    for name, (passed, detail) in outcome.checks.items():
        if not passed:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    return 0 if outcome.correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter (peak RSS stays per workload);
    the last line merges the results under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    merged["attempted"] = max(merged["attempted"], 1)
    print(json.dumps(merged), flush=True)
    return code


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
            "the benchmark from a full checkout",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
