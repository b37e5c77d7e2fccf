"""Measure the service path's capacity for the ``service-mixed`` traffic.

Usage (from the repository root)::

    python3 perfbench/capacity.py --seed 1

Sets the service path up exactly as a benchmark run does, then offers
the same duplicate/new mix at a ladder of open-loop rates, several
windows each, and prints the duplicate and new-job latency
percentiles and the generator lag at every rate.  Capacity is the
highest rate whose median duplicate latency stays within
``--limit-ms`` (about twice its unloaded 4-5 ms; past the knee most
duplicates wait behind new work's store writes and the median jumps to
tens of milliseconds) while the generator keeps up (median lag within a
tenth of the median duplicate latency, the validity rule the benchmark
applies).  ``paths.ServicePath.RATE`` is set to about half of it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[8, 12, 16, 20, 24, 28, 32, 40])
    parser.add_argument("--windows", type=int, default=3)
    parser.add_argument("--limit-ms", type=float, default=10.0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("capacity: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from paths import ServicePath, SweepPath
    from run import MAX_LAG_SHARE, quantile

    workdir = os.path.join(ROOT, ".perfbench_run", f"capacity-{os.getpid()}")
    os.makedirs(workdir)
    service = None
    rows = []
    try:
        sweep = SweepPath(args.seed, workdir)
        service = ServicePath(args.seed, workdir, sweep.rate_cache)
        service.warm_up()
        for rate in args.rates:
            service.RATE = rate
            windows = [service.unit() for _ in range(args.windows)]
            pool = {k: [x for w in windows for x in w[k]]
                    for k in ("dup_ms", "job_ms", "lag_ms")}
            row = {
                "rate": rate,
                "dup_p50_ms": quantile(pool["dup_ms"], 0.5),
                "dup_p99_ms": quantile(pool["dup_ms"], 0.99),
                "job_p50_ms": quantile(pool["job_ms"], 0.5),
                "job_p90_ms": quantile(pool["job_ms"], 0.9),
                "lag_p50_ms": quantile(pool["lag_ms"], 0.5),
                "failed": sum(w["failed"] for w in windows),
            }
            row["meets"] = (
                row["dup_p50_ms"] <= args.limit_ms
                and row["lag_p50_ms"] <= MAX_LAG_SHARE * row["dup_p50_ms"]
                and row["failed"] == 0
            )
            rows.append(row)
            print(json.dumps({k: round(v, 2) if isinstance(v, float) else v
                              for k, v in row.items()}), flush=True)
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(workdir, ignore_errors=True)
    met = [r["rate"] for r in rows if r["meets"]]
    print(json.dumps({
        "capacity_req_per_s": max(met) if met else None,
        "limit": f"dup p50 <= {args.limit_ms:g} ms, generator keeping up",
        "threads": os.cpu_count(),
        "dup_share": ServicePath.DUP_SHARE,
        "window_s": ServicePath.WINDOW_S,
        "windows_per_rate": args.windows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
