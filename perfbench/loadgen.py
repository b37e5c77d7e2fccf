"""Open-loop HTTP load generator, run as its own process.

The benchmark starts this module once per service set-up and keeps it
for the whole run, so its client threads never share the server's
interpreter lock.  It reads one window plan per line on stdin and
answers with one JSON line on stdout:

plan   ``{"url": ..., "threads": N, "requests": [[due_s, kind, body], ...]}``
reply  ``{"requests": [...], "jobs": {...}}``

Each request is sent on a keep-alive connection owned by one of at
most ``threads`` sender threads, no earlier than its due time (seconds
after the window start).  Latency is measured from the due time, so a
stall that delays later sends is counted against them; ``lag_ms`` is
how late the request actually left.  After the last send the
generator polls every accepted ``new`` job until it reaches a terminal
state and reports the job records, so the caller can time new work
from its due time to the server's ``finished_at`` stamp (same host,
same wall clock).  An empty line or EOF ends the process.

Only the standard library is used: the generator measures the server,
it does not import it.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from urllib.parse import urlsplit

TERMINAL = ("done", "failed", "cancelled")
#: Start the schedule this long after the plan arrives, so every sender
#: thread is waiting on the first due time before it passes.
LEAD_S = 0.05
POLL_S = 0.1
DRAIN_TIMEOUT_S = 120.0


def _connect(url: str) -> http.client.HTTPConnection:
    parts = urlsplit(url)
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)


def _sender(url, plan, mono0, wall0, cursor, lock, out, client_id):
    conn = _connect(url)
    try:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(plan):
                return
            due_s, kind, body = plan[i]
            due = mono0 + due_s
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            payload = json.dumps(body).encode()
            try:
                conn.request(
                    "POST",
                    "/jobs",
                    body=payload,
                    headers={
                        "Content-Type": "application/json",
                        "X-Client-Id": client_id,
                    },
                )
                resp = conn.getresponse()
                raw = resp.read()
                status = resp.status
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                conn = _connect(url)
                status, raw = 0, json.dumps({"error": str(exc)}).encode()
            done = time.monotonic()
            try:
                doc = json.loads(raw)
            except ValueError:
                doc = {}
            out[i] = {
                "kind": kind,
                "status": status,
                "due_wall": wall0 + due_s,
                "lag_ms": (sent - due) * 1e3,
                "latency_ms": (done - due) * 1e3,
                "id": doc.get("id"),
                "state": doc.get("state"),
                "deduplicated": doc.get("deduplicated"),
            }
    finally:
        conn.close()


def _drain(url, ids):
    """Poll each job until terminal; returns ``{id: job record}``."""
    conn = _connect(url)
    records = {}
    pending = list(ids)
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    try:
        while pending and time.monotonic() < deadline:
            still = []
            for job_id in pending:
                conn.request("GET", f"/jobs/{job_id}")
                resp = conn.getresponse()
                doc = json.loads(resp.read())
                if resp.status == 200 and doc.get("state") in TERMINAL:
                    records[job_id] = doc
                else:
                    still.append(job_id)
            pending = still
            if pending:
                time.sleep(POLL_S)
    finally:
        conn.close()
    return records


def run_window(plan_doc: dict) -> dict:
    """Send one window's schedule, then drain its new jobs."""
    url = plan_doc["url"]
    plan = plan_doc["requests"]
    threads = max(1, int(plan_doc["threads"]))
    out = [None] * len(plan)
    cursor, lock = [0], threading.Lock()
    mono0 = time.monotonic() + LEAD_S
    wall0 = time.time() + LEAD_S
    workers = [
        threading.Thread(
            target=_sender,
            args=(url, plan, mono0, wall0, cursor, lock, out, f"lg{k}"),
        )
        for k in range(min(threads, len(plan)))
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    new_ids = [
        r["id"]
        for r in out
        if r["kind"] == "new" and r["status"] == 201 and r["id"]
    ]
    return {"requests": out, "jobs": _drain(url, new_ids)}


def main() -> int:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            break
        reply = run_window(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
