"""SSE fan-out at scale on the HTTP front end.

The headline test holds 100 concurrent SSE subscribers, one handler
thread each, and requires every one of them to receive the complete,
identical frame sequence with the terminal close.  The companion
tests pin down the drop-oldest backpressure contract at the bus layer:
a slow subscriber loses the *oldest* events, the loss is counted
exactly, and fast subscribers lose nothing.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.obs.stream import event_bus
from repro.service.api import ExperimentService

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0, 140.0],
    "repetitions": 1,
    "scale": 0.001,
}
SUBSCRIBERS = 100


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sse_fanout")
    svc = ExperimentService(
        db_path=tmp / "svc.sqlite3",
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    svc.start()
    yield svc
    svc.shutdown(drain=False)


def request_json(service, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        service.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def parse_sse(text):
    frames = []
    for block in text.split("\n\n"):
        fields = {}
        for line in block.splitlines():
            if not line or line.startswith(":"):
                continue
            key, _, value = line.partition(": ")
            fields[key] = value
        if "event" in fields:
            frames.append({
                "id": int(fields["id"]) if "id" in fields else None,
                "event": fields["event"],
                "data": json.loads(fields["data"]),
            })
    return frames


@pytest.fixture(scope="module")
def done_job(service):
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    for _ in range(1200):
        _, state = request_json(service, "GET", f"/jobs/{job['id']}")
        if state["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert state["state"] == "done"
    return job


class TestConcurrentSubscribers:
    def test_100_subscribers_all_complete(self, service, done_job):
        """100 concurrent streams, all identical."""
        url = f"{service.url}/jobs/{done_job['id']}/stream"
        results = [None] * SUBSCRIBERS
        errors = []
        barrier = threading.Barrier(SUBSCRIBERS)

        def consume(k: int) -> None:
            try:
                barrier.wait(timeout=60)
                req = urllib.request.Request(url)
                with urllib.request.urlopen(req, timeout=120) as resp:
                    assert (
                        resp.headers["Content-Type"] == "text/event-stream"
                    )
                    results[k] = resp.read().decode()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append((k, exc))

        threads = [
            threading.Thread(target=consume, args=(k,))
            for k in range(SUBSCRIBERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]

        parsed = [parse_sse(body) for body in results]
        # Every subscriber saw the complete history and the terminal
        # frame — and saw exactly the same bytes as everyone else.
        for frames in parsed:
            assert frames[0]["event"] == "job_started"
            assert frames[-1]["event"] == "job_done"
        assert all(body == results[0] for body in results)

    def test_subscribers_gauge_returns_to_zero(self, service, done_job):
        bus = event_bus()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if bus.subscriber_count() == 0:
                break
            time.sleep(0.25)
        assert bus.subscriber_count() == 0


class TestDropOldestBackpressure:
    def test_slow_subscriber_drops_oldest_and_counts(self):
        bus = event_bus()
        topic = "test.backpressure.slow"
        before = bus.dropped_total()
        sub = bus.subscribe(topic, queue_size=4)
        try:
            for k in range(10):
                bus.publish(topic, "tick", {"k": k})
            # 10 events into a 4-slot queue: the oldest 6 fall out.
            assert sub.dropped == 6
            assert bus.dropped_total() - before == 6
            survivors = []
            while True:
                event = sub.get(timeout=0)
                if event is None:
                    break
                survivors.append(event.data["k"])
            assert survivors == [6, 7, 8, 9]  # newest 4, in order
        finally:
            bus.unsubscribe(sub)

    def test_fast_subscriber_loses_nothing(self):
        bus = event_bus()
        topic = "test.backpressure.fast"
        sub = bus.subscribe(topic, queue_size=4)
        try:
            seen = []
            for k in range(12):
                bus.publish(topic, "tick", {"k": k})
                event = sub.get(timeout=1)
                seen.append(event.data["k"])
            assert seen == list(range(12))
            assert sub.dropped == 0
        finally:
            bus.unsubscribe(sub)
