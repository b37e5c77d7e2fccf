"""Interleaved runner and steadiness report for the benchmark.

Usage (from the repository root)::

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/report.py --workloads table2-warm --seeds 1 2 3 --trace 1

Runs ``perfbench/run.py`` once per (seed, workload), cycling through the
workloads seed by seed so that drift of the host lands on every
workload alike, and prints, for every metric by name and unit, the
median over the runs, the quartiles and the spread (interquartile
range as a share of the median, as ``statistics.quantiles(n=4)`` gives
the quartiles).  A ``*`` marks an end-to-end metric whose spread is at
least a third of its bound in ``BENCHMARK.json``.  The host class of
the runs is printed first; ``--json`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-2]), json.loads(lines[-1]), time.monotonic() - t0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None,
                        help="also write every run's detail and result here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = {w: [] for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        k = i % len(args.workloads)
        for workload in args.workloads[k:] + args.workloads[:k]:
            detail, result, wall = run_once(workload, seed, args.seconds,
                                            args.trace)
            runs[workload].append({"detail": detail, "result": result})
            status = "ok" if result["correct"] else "INCORRECT"
            print(f"# {workload} seed {seed}: {status} {wall:.0f}s "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  + (f" errors={detail['errors']}" if detail["errors"] else ""),
                  flush=True)

    first = next(iter(runs.values()))[0]["detail"]
    print(f"host: {json.dumps(first['host'], sort_keys=True)}")
    for workload, items in runs.items():
        print(f"\n{workload} ({len(items)} runs)")
        metrics = items[0]["result"]["metrics"]
        for name in metrics:
            values = [it["result"]["metrics"][name]["value"] for it in items]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            rel = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = "*" if bound and rel >= bound / 3 else " "
            print(f" {flag} {name:32s} {med:14.6g} {metrics[name]['unit']:6s}"
                  f" q1 {q1:12.6g}  q3 {q3:12.6g}  spread {rel:7.2%}"
                  + (f"  bound {bound:.0%}" if bound else ""))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
