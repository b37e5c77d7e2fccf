#!/usr/bin/env python
"""CI smoke test for the experiment service.

Boots the service on an ephemeral port with a throwaway SQLite store,
submits a tiny sweep over HTTP, polls the job to DONE, and asserts
that ``/healthz`` answers and ``/metrics`` exposes the queue/state/
cache counters.  It then shuts the service down and reopens the file
with a fresh store: the job must read back DONE with its result
document, through a connection in WAL mode with ``synchronous=FULL``.
Exits non-zero on any failure; prints a one-line summary per step so
CI logs read as a transcript.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.service.api import ExperimentService
from repro.service.jobs import JobState
from repro.service.store import SQLiteResultStore

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0],
    "repetitions": 1,
    "scale": 0.001,
}
TIMEOUT_S = 300.0

REQUIRED_METRICS = (
    "repro_queue_depth",
    'repro_jobs{state="done"}',
    'repro_jobs{state="queued"}',
    "repro_rate_cache_hits_total",
    "repro_rate_cache_misses_total",
    "repro_jobs_submitted_total",
    "repro_sweep_wall_seconds_count",
    # Engine-level series bridged in from repro.obs.metrics.
    "repro_engine_runs_total",
    "repro_engine_quanta_total",
    "repro_engine_traces_simulated_total",
    "repro_engine_rate_cache_hits_total",
    "repro_engine_rate_cache_misses_total",
    "repro_engine_run_seconds_count",
    'repro_engine_phase_seconds{phase="run"}',
)


def http(method: str, url: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.read()


def run_smoke() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    db_path = tmp / "smoke.sqlite3"
    service = ExperimentService(
        db_path=db_path,
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    service.start()
    print(f"[smoke] service up at {service.url}")
    try:
        health = json.loads(http("GET", service.url + "/healthz"))
        assert health["status"] == "ok", health
        print(f"[smoke] /healthz ok (workers={health['workers']})")

        job = json.loads(http("POST", service.url + "/jobs", SPEC))
        print(f"[smoke] submitted job {job['id']} state={job['state']}")

        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            job = json.loads(http("GET", f"{service.url}/jobs/{job['id']}"))
            if job["state"] in ("done", "failed"):
                break
            time.sleep(0.2)
        assert job["state"] == "done", f"job did not finish: {job}"
        print(f"[smoke] job done after {job['attempts']} attempt(s)")

        result = json.loads(
            http("GET", f"{service.url}/jobs/{job['id']}/result")
        )
        rows = result["results"]["StereoMatching"]
        assert "baseline" in json.dumps(rows), rows
        print("[smoke] result document retrieved")

        twin = json.loads(http("POST", service.url + "/jobs", SPEC))
        assert twin["state"] == "done" and twin["deduplicated"], twin
        print("[smoke] identical resubmission was a store hit")

        metrics = http("GET", service.url + "/metrics").decode()
        for name in REQUIRED_METRICS:
            assert name in metrics, f"missing metric: {name}"
        print(f"[smoke] /metrics exposes all {len(REQUIRED_METRICS)} "
              "required series")
    finally:
        service.shutdown(drain=False)
        print("[smoke] service stopped")
    check_durable(db_path, job["id"])


def check_durable(db_path: Path, job_id: str) -> None:
    """The finished job and its result survive a restart."""
    store = SQLiteResultStore(db_path)
    try:
        reopened = store.get_job(job_id)
        assert reopened is not None, f"job {job_id} lost on restart"
        assert reopened.state is JobState.DONE, reopened
        doc = store.get_result_dict(reopened.spec_digest)
        assert doc and "StereoMatching" in doc, "result lost on restart"
        with store._connect() as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            sync = conn.execute("PRAGMA synchronous").fetchone()[0]
        assert (mode, sync) == ("wal", 2), (mode, sync)
    finally:
        store.close()
    print("[smoke] reopened store reads the job DONE with its result "
          "(journal_mode=wal, synchronous=2)")


def main() -> int:
    run_smoke()
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
