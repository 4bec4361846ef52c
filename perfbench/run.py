#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload remote_mixed --seed 1 --out mixed.json
    python3 perfbench/run.py --diff old.json new.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it are the human-readable
report: the host record, every metric with its unit, the workload's
names for its streams, the output checks and, for ``paper_inproc``, the
paper table.  ``--out`` also writes the whole record (host, config,
graph sizes, checks, metrics) as JSON; ``--diff`` compares two such
records metric by metric.  A failed output check makes the run exit 1
after printing ``"correct": false``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SRC,
    host_record,
    load_spec,
    metric_units,
    warn,
)

WORKLOADS = ("paper_inproc", "remote_mixed", "remote_isolation")


def _terminate(signum, frame):
    # Unwind through every ``finally``: the server subprocess is
    # stopped and temporary directories are removed on the way out.
    raise SystemExit(128 + signum)


def _parse_args(argv, spec) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload, or diff two results."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of the measured loop",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: a traced run reporting the per-layer metrics",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="also write the full record here"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scales, for the benchmark's own tests",
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="compare two records written with --out",
    )
    args = parser.parse_args(argv)
    if args.diff is None and args.workload is None:
        parser.error("--workload is required (or use --diff)")
    return args


def _load_record(path: str) -> dict:
    """A record from ``--out``, or the final JSON line of a run's output."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-1])


def diff(old_path: str, new_path: str, spec: dict) -> int:
    better = {
        m["name"]: m["better"]
        for section in ("end_to_end", "per_layer")
        for m in spec[section]
    }
    old = _load_record(old_path)
    new = _load_record(new_path)
    for label, record in (("old", old), ("new", new)):
        host = record.get("host", {})
        print(
            f"{label}: {record.get('workload', '?')} "
            f"seed={record.get('seed', '?')} "
            f"commit={host.get('commit', '?')} nproc={host.get('nproc', '?')}"
        )
    print(f"{'metric':<34}{'old':>14}{'new':>14}{'change':>10}  unit")
    names = list(old["metrics"]) + [
        n for n in new["metrics"] if n not in old["metrics"]
    ]
    for name in names:
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (new["metrics"].get(name) or old["metrics"][name])["unit"]
        if a is None or b is None:
            print(f"{name:<34}{str(a):>14}{str(b):>14}{'':>10}  {unit}")
            continue
        change = (b - a) / abs(a) * 100.0 if a else math.nan
        verdict = ""
        if a != b and name in better:
            gained = (b > a) == (better[name] == "higher")
            verdict = " better" if gained else " worse"
        print(
            f"{name:<34}{a:>14.6g}{b:>14.6g}{change:>+9.1f}%  {unit}"
            f"{verdict}"
        )
    return 0


def _report(args, outcome, metrics, missing, host) -> None:
    print(f"workload {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("config " + json.dumps(outcome.config, sort_keys=True))
    print("graphs " + json.dumps(outcome.graphs, sort_keys=True))
    for line in outcome.lines:
        print(line)
    for name, check_ok, detail in outcome.checks:
        print(f"check {name}: {'ok' if check_ok else 'FAILED'} ({detail})")
    for finding in outcome.findings:
        print(f"finding: {finding}")
    print(f"operations attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    for name, metric in metrics.items():
        print(f"  {name:<34}{metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        for alias, name in outcome.aliases.items():
            print(f"  {alias:<34}{metrics[name]['value']:>16.6f} "
                  f"{metrics[name]['unit']}  (= {name})")
    if missing:
        print("not exercised by this workload (reported as 0): "
              + ", ".join(missing))
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "config": outcome.config,
            "graphs": outcome.graphs,
            "checks": [list(c) for c in outcome.checks],
            "findings": outcome.findings,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "aliases": outcome.aliases,
            "not_exercised": missing,
            "metrics": metrics,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    args = _parse_args(argv, spec)
    if args.diff:
        return diff(*args.diff, spec)
    if not (SRC / "repro").is_dir():
        warn(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    # The default configuration: serial execution, here and in the
    # server subprocess (which inherits this environment).
    host = host_record(os.environ.pop("REPRO_PARALLEL", None))

    if args.workload == "paper_inproc":
        import paper

        outcome = paper.run(args.seed, args.seconds, bool(args.trace),
                            args.smoke)
    else:
        import remote

        outcome = remote.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)

    section = "per_layer" if args.trace else "end_to_end"
    units = metric_units(spec)
    metrics = {}
    missing = []
    for entry in spec[section]:
        name = entry["name"]
        if name not in outcome.metrics:
            missing.append(name)
        value = float(outcome.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": units[name]}
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    correct = all(ok for _, ok, _ in outcome.checks) and not bad
    if bad:
        warn("non-finite metrics: " + ", ".join(bad))
    if args.trace == 0 and missing:
        warn("end-to-end metrics not measured: " + ", ".join(missing))
        correct = False
    _report(args, outcome, metrics, missing, host)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
