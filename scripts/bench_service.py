#!/usr/bin/env python
"""Serving-plane load benchmark -> BENCH_service.json, with a CI guard.

Measures the numbers the serving plane commits to:

- **sustained submit throughput** and **p50/p95/p99 submit latency** —
  ``--submissions`` (default 2000) POSTs issued by ``--clients``
  persistent keep-alive connections against the HTTP front end,
  spread over ``--unique`` distinct specs so the drain phase exercises
  dedup the way real duplicate traffic does;
- **drain rate** — jobs/s at which the scheduler empties the backlog
  the submit phase queued;
- **backpressure correctness** — a second, deliberately tiny service
  (queue cap ``--bp-queue-depth``, near-zero admission rate) is driven
  past its limits and must answer with 429/503, a ``Retry-After``
  header on every shed, and accurate shed counters on ``/metrics``;
- **SSE fan-out** — ``--sse-subscribers`` concurrent clients stream
  one finished job's replay; every subscriber must see the full replay
  and the terminal event.

Modes::

    PYTHONPATH=src python scripts/bench_service.py           # write BENCH_service.json
    PYTHONPATH=src python scripts/bench_service.py --check   # CI regression guard

``--check`` re-measures and compares against the committed
``BENCH_service.json``.  The backpressure and SSE invariants are
enforced on every host (they are correctness, not speed).  The
throughput/latency floors are enforced only on multi-core runners: on
a single-core host the client threads and the handler threads contend
for one CPU, so the wall-clock numbers say nothing about the serving
plane and the guard is *skipped with a warning* (mirroring
``bench_sweep.py``'s parallel guard).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service import ExperimentService  # noqa: E402

SCHEMA = 1
DEFAULT_OUT = REPO / "BENCH_service.json"


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _submit_worker(host, port, specs, client_id, latencies, statuses, lock):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    local_lat, local_status = [], []
    try:
        for spec in specs:
            body = json.dumps(spec).encode()
            t0 = time.perf_counter()
            conn.request(
                "POST",
                "/jobs",
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Client-Id": client_id,
                },
            )
            resp = conn.getresponse()
            resp.read()
            local_lat.append(time.perf_counter() - t0)
            local_status.append(
                (resp.status, resp.getheader("Retry-After"))
            )
    finally:
        conn.close()
        with lock:
            latencies.extend(local_lat)
            statuses.extend(local_status)


def _sse_worker(host, port, path, counts, lock):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    events = 0
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        saw_terminal = False
        for raw in resp.fp:
            line = raw.decode("utf-8", "replace").strip()
            if line.startswith("event:"):
                events += 1
                kind = line.split(":", 1)[1].strip()
                if kind in ("job_done", "job_failed", "end"):
                    saw_terminal = True
    except (OSError, http.client.HTTPException):
        saw_terminal = False
    finally:
        conn.close()
        with lock:
            counts.append((events, saw_terminal))


def _bench_submit_drain(args, tmp):
    """Submit phase + drain phase against a full-size service."""
    service = ExperimentService(
        db_path="memory://" if args.memory_store else os.path.join(
            tmp, "bench.sqlite"
        ),
        port=0,
        workers=args.workers,
        rate_cache=os.path.join(tmp, "rates.json"),
        max_queue_depth=max(4096, args.submissions + 64),
        admission_rate=1e9,
        admission_burst=1e9,
    )
    service.start()
    try:
        specs = [
            {
                "workload": "stereo",
                "caps_w": [160.0, 150.0],
                "scale": args.scale,
                "seed": 42 + (i % args.unique),
            }
            for i in range(args.submissions)
        ]
        per_client = [
            specs[k :: args.clients] for k in range(args.clients)
        ]
        latencies, statuses = [], []
        lock = threading.Lock()
        threads = [
            threading.Thread(
                target=_submit_worker,
                args=(
                    service.host,
                    service.port,
                    chunk,
                    f"bench-client-{k}",
                    latencies,
                    statuses,
                    lock,
                ),
            )
            for k, chunk in enumerate(per_client)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        submit_wall = time.perf_counter() - t0
        accepted = sum(1 for s, _ in statuses if s == 201)
        shed = sum(1 for s, _ in statuses if s in (429, 503))
        queued = service.scheduler.queue_depth()
        lat_sorted = sorted(latencies)
        submit = {
            "submitted": len(statuses),
            "accepted": accepted,
            "shed": shed,
            "wall_s": round(submit_wall, 3),
            "throughput_per_s": round(len(statuses) / submit_wall, 1),
            "p50_ms": round(_percentile(lat_sorted, 0.50) * 1e3, 2),
            "p95_ms": round(_percentile(lat_sorted, 0.95) * 1e3, 2),
            "p99_ms": round(_percentile(lat_sorted, 0.99) * 1e3, 2),
            "mean_ms": round(statistics.fmean(lat_sorted) * 1e3, 2),
        }
        t0 = time.perf_counter()
        drained = service.scheduler.drain(timeout=args.drain_timeout)
        drain_wall = time.perf_counter() - t0
        counts = service.scheduler.counts_by_state()
        drain = {
            "queued_at_submit_end": queued,
            "drained": bool(drained),
            "wall_s": round(drain_wall, 3),
            "jobs_per_s": round(queued / drain_wall, 2)
            if drain_wall > 0 and queued
            else 0.0,
            "completed": counts.get("done", 0),
            "failed": counts.get("failed", 0),
        }

        # SSE fan-out: every subscriber replays one finished job's
        # events and must reach its terminal frame.
        done_id = next(
            (j.id for j in service.scheduler.jobs() if j.state.value == "done"),
            None,
        )
        sse = {"subscribers": 0, "events_delivered": 0, "complete": 0}
        if done_id is not None and args.sse_subscribers > 0:
            counts_out = []
            sse_lock = threading.Lock()
            sse_threads = [
                threading.Thread(
                    target=_sse_worker,
                    args=(
                        service.host,
                        service.port,
                        f"/jobs/{done_id}/stream",
                        counts_out,
                        sse_lock,
                    ),
                )
                for _ in range(args.sse_subscribers)
            ]
            for t in sse_threads:
                t.start()
            for t in sse_threads:
                t.join()
            sse = {
                "subscribers": len(counts_out),
                "events_delivered": sum(n for n, _ in counts_out),
                "complete": sum(1 for _, ok in counts_out if ok),
            }
        return submit, drain, sse
    finally:
        service.shutdown(drain=False)


def _bench_backpressure(args, tmp):
    """Drive a tiny service past its limits; sheds must be explicit."""
    service = ExperimentService(
        db_path="memory://",
        port=0,
        workers=1,
        max_queue_depth=args.bp_queue_depth,
        admission_rate=1.0,
        admission_burst=args.bp_burst,
        recover=False,
    )
    # Workers idle: everything queues, so the bounded queue and the
    # rate limiter both trip deterministically.
    service.start(start_workers=False)
    try:
        statuses = []
        lock = threading.Lock()
        # Phase A — one hot client: its token bucket empties first, so
        # the sheds here are per-client 429 rate limits.
        specs = [
            {"workload": "stereo", "caps_w": [160.0], "seed": 1000 + i}
            for i in range(args.bp_submissions)
        ]
        _submit_worker(
            service.host,
            service.port,
            specs,
            "bench-hot-client",
            [],
            statuses,
            lock,
        )
        # Phase B — many distinct clients: each gets a fresh bucket, so
        # admissions continue until the bounded queue fills and the
        # sheds become 503 queue_full.
        fill_client = 0
        while (
            not any(s == 503 for s, _ in statuses)
            and fill_client < args.bp_queue_depth + 16
        ):
            specs = [
                {
                    "workload": "stereo",
                    "caps_w": [160.0],
                    "seed": 5000 + fill_client * 8 + i,
                }
                for i in range(int(args.bp_burst))
            ]
            _submit_worker(
                service.host,
                service.port,
                specs,
                f"bench-fill-{fill_client}",
                [],
                statuses,
                lock,
            )
            fill_client += 1
        shed_429 = sum(1 for s, _ in statuses if s == 429)
        shed_503 = sum(1 for s, _ in statuses if s == 503)
        sheds = [ra for s, ra in statuses if s in (429, 503)]
        retry_after_present = bool(sheds) and all(
            ra is not None and float(ra) > 0 for ra in sheds
        )
        depth = service.scheduler.queue_depth()
        shed_counts = service.admission.shed_counts()
        return {
            "queue_cap": args.bp_queue_depth,
            "submissions": len(statuses),
            "accepted": sum(1 for s, _ in statuses if s == 201),
            "shed_429": shed_429,
            "shed_503": shed_503,
            "retry_after_present": retry_after_present,
            "queue_depth_bounded": depth <= args.bp_queue_depth,
            "metrics_shed_total": sum(shed_counts.values()),
        }
    finally:
        service.shutdown(drain=False)


def measure(args):
    with tempfile.TemporaryDirectory() as tmp:
        submit, drain, sse = _bench_submit_drain(args, tmp)
        backpressure = _bench_backpressure(args, tmp)
    return {
        "schema": SCHEMA,
        "benchmark": "service-load",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "parameters": {
            "submissions": args.submissions,
            "clients": args.clients,
            "unique": args.unique,
            "workers": args.workers,
            "scale": args.scale,
            "sse_subscribers": args.sse_subscribers,
        },
        "submit": submit,
        "drain": drain,
        "sse": sse,
        "backpressure": backpressure,
    }


def check(doc, baseline, args):
    """Return a list of failure strings (empty = guard passes)."""
    failures = []
    # Correctness invariants, every host.
    submit = doc["submit"]
    if submit["accepted"] + submit["shed"] != submit["submitted"]:
        failures.append(
            "submissions unaccounted for: "
            f"{submit['accepted']} accepted + {submit['shed']} shed != "
            f"{submit['submitted']} submitted"
        )
    if doc["drain"]["failed"]:
        failures.append(f"{doc['drain']['failed']} jobs FAILED during drain")
    if not doc["drain"]["drained"]:
        failures.append("queue did not fully drain within the timeout")
    bp = doc["backpressure"]
    if not bp["shed_429"]:
        failures.append(
            "backpressure phase produced no 429 despite a hot client "
            "far past its 1 job/s rate limit"
        )
    if not bp["shed_503"]:
        failures.append(
            "backpressure phase produced no 503 despite filling the "
            f"{bp['queue_cap']}-deep queue"
        )
    if not bp["retry_after_present"]:
        failures.append("a shed response was missing its Retry-After header")
    if not bp["queue_depth_bounded"]:
        failures.append("queue depth exceeded the admission cap")
    if bp["metrics_shed_total"] < bp["shed_429"] + bp["shed_503"]:
        failures.append(
            "shed counters on /metrics undercount the observed sheds"
        )
    sse = doc["sse"]
    if sse["subscribers"] and sse["complete"] < sse["subscribers"]:
        failures.append(
            f"only {sse['complete']}/{sse['subscribers']} SSE subscribers "
            "reached a terminal event"
        )
    # Throughput/latency floors, multi-core hosts only.
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        base_submit = baseline.get("submit") or {}
        base_tp = base_submit.get("throughput_per_s")
        if isinstance(base_tp, (int, float)) and base_tp > 0:
            floor = base_tp * (1.0 - args.tolerance)
            if submit["throughput_per_s"] < floor:
                failures.append(
                    f"submit throughput {submit['throughput_per_s']:.1f}/s "
                    f"below {floor:.1f}/s "
                    f"(committed {base_tp:.1f}/s, "
                    f"tolerance {args.tolerance:.0%})"
                )
        base_p99 = base_submit.get("p99_ms")
        if isinstance(base_p99, (int, float)) and base_p99 > 0:
            ceiling = base_p99 * (1.0 + args.tolerance) + args.latency_slack_ms
            if submit["p99_ms"] > ceiling:
                failures.append(
                    f"submit p99 {submit['p99_ms']:.1f} ms above "
                    f"{ceiling:.1f} ms (committed {base_p99:.1f} ms)"
                )
    else:
        print(
            "SKIP: single-core host — client and handler threads "
            "share one CPU, so the submit throughput/latency floors are "
            "not applicable; correctness invariants (backpressure, "
            "Retry-After, bounded queue, SSE completeness) were still "
            "enforced"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_OUT,
        help="committed baseline for --check",
    )
    parser.add_argument("--submissions", type=int, default=2000)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument(
        "--unique",
        type=int,
        default=24,
        help="distinct specs among the submissions (the rest dedup)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--sse-subscribers", type=int, default=100)
    parser.add_argument("--drain-timeout", type=float, default=300.0)
    parser.add_argument(
        "--memory-store",
        action="store_true",
        help="bench against the in-memory store instead of SQLite",
    )
    parser.add_argument("--bp-submissions", type=int, default=64)
    parser.add_argument("--bp-queue-depth", type=int, default=8)
    parser.add_argument("--bp-burst", type=float, default=4.0)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.40,
        help="allowed fractional throughput/latency regression "
        "(default 0.40; submit latency in-process is noisy)",
    )
    parser.add_argument(
        "--latency-slack-ms",
        type=float,
        default=25.0,
        help="absolute p99 slack on top of the fractional tolerance",
    )
    parser.add_argument("--artifact", type=Path, default=None)
    parser.add_argument(
        "--archive",
        type=Path,
        default=None,
        help="also append the measured document into this observability "
        "archive (SQLite), so the bench trajectory accumulates",
    )
    args = parser.parse_args(argv)

    doc = measure(args)
    submit, drain, sse = doc["submit"], doc["drain"], doc["sse"]
    bp = doc["backpressure"]
    print(
        f"submit: {submit['submitted']} reqs via {args.clients} conns in "
        f"{submit['wall_s']:.2f}s -> {submit['throughput_per_s']:.1f}/s  "
        f"p50 {submit['p50_ms']:.1f} ms  p95 {submit['p95_ms']:.1f} ms  "
        f"p99 {submit['p99_ms']:.1f} ms  shed {submit['shed']}"
    )
    print(
        f"drain: {drain['queued_at_submit_end']} queued -> "
        f"{drain['wall_s']:.2f}s ({drain['jobs_per_s']:.2f} jobs/s), "
        f"{drain['completed']} done, {drain['failed']} failed"
    )
    print(
        f"sse: {sse['complete']}/{sse['subscribers']} subscribers "
        f"complete, {sse['events_delivered']} events delivered"
    )
    print(
        f"backpressure: {bp['accepted']} accepted, {bp['shed_429']}x429 + "
        f"{bp['shed_503']}x503, Retry-After "
        f"{'present' if bp['retry_after_present'] else 'MISSING'}, queue "
        f"{'bounded' if bp['queue_depth_bounded'] else 'UNBOUNDED'}"
    )

    if args.artifact is not None:
        args.artifact.parent.mkdir(parents=True, exist_ok=True)
        args.artifact.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote artifact {args.artifact}")

    if args.archive is not None:
        from repro.obs.archive import ObsArchive

        kind, run_id = ObsArchive(args.archive).ingest_bench(
            doc, source="bench_service"
        )
        print(f"archived as {run_id} ({kind}) in {args.archive}")

    if args.check:
        if not args.baseline.exists():
            print(f"FAIL: no committed baseline at {args.baseline}")
            return 1
        baseline = json.loads(args.baseline.read_text())
        failures = check(doc, baseline, args)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("OK: serving-plane invariants hold; floors within tolerance")
        return 0

    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
