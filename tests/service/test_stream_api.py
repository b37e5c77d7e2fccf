"""The SSE streaming API end-to-end.

Covers: live subscription to a running job (every event exactly once,
ids strictly increasing, terminal close), full-history replay on a
finished job, ``Last-Event-ID`` resume via header and query parameter,
404 on unknown jobs, the fleet stream, the live stream/rate-cache
gauges on ``/metrics``, 100 concurrent subscribers all receiving the
identical stream, the bus's drop-oldest backpressure, graceful
shutdown (queued jobs re-recorded, open streams closed with a
terminal ``end`` frame), and the no-perturbation contract — the
result document is identical whether or not anyone was subscribed
while the job ran.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.obs.stream import FLEET_TOPIC, event_bus
from repro.service.api import ExperimentService
from repro.service.store import SQLiteResultStore

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0, 140.0],
    "repetitions": 1,
    "scale": 0.001,
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stream_service")
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


def read_stream(service, path, headers=None):
    """Blocking GET; returns the whole SSE body once the server closes."""
    req = urllib.request.Request(service.url + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=120) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        return resp.read().decode()


def parse_sse(text):
    """SSE body -> [{'id': int|None, 'event': str, 'data': dict}]."""
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
def streamed_job(service):
    """Submit a job and consume its live stream until the server closes."""
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    frames = parse_sse(read_stream(service, f"/jobs/{job['id']}/stream"))
    return job, frames


class TestJobStream:
    def test_live_stream_exactly_once_and_terminal_close(self, streamed_job):
        _job, frames = streamed_job
        kinds = [f["event"] for f in frames]
        assert kinds[0] == "job_started"
        assert kinds[-1] == "job_done"
        assert kinds.count("job_done") == 1
        assert kinds.count("sample") >= 1
        ids = [f["id"] for f in frames if f["id"] is not None]
        # Strictly increasing: nothing duplicated, nothing reordered.
        assert all(b > a for a, b in zip(ids, ids[1:]))
        assert ids[0] == 1  # the live subscriber saw the very first event

    def test_sample_frames_carry_telemetry(self, streamed_job):
        _job, frames = streamed_job
        sample = next(f for f in frames if f["event"] == "sample")
        assert "t_s" in sample["data"]
        assert "channels" in sample["data"]
        assert "power_w" in sample["data"]["channels"]

    def test_finished_job_replays_full_history(self, service, streamed_job):
        job, live_frames = streamed_job
        replay = parse_sse(read_stream(service, f"/jobs/{job['id']}/stream"))
        assert replay == live_frames

    def test_last_event_id_header_resumes(self, service, streamed_job):
        job, live_frames = streamed_job
        ids = [f["id"] for f in live_frames if f["id"] is not None]
        floor = ids[len(ids) // 2]
        resumed = parse_sse(read_stream(
            service,
            f"/jobs/{job['id']}/stream",
            headers={"Last-Event-ID": str(floor)},
        ))
        resumed_ids = [f["id"] for f in resumed if f["id"] is not None]
        assert resumed_ids == [i for i in ids if i > floor]
        assert resumed[-1]["event"] == "job_done"

    def test_last_event_id_query_param_resumes(self, service, streamed_job):
        job, live_frames = streamed_job
        last = max(f["id"] for f in live_frames if f["id"] is not None)
        # Fully caught up: no events left, just the synthetic end frame.
        tail = parse_sse(read_stream(
            service, f"/jobs/{job['id']}/stream?last_event_id={last}"
        ))
        assert [f["event"] for f in tail] == ["end"]
        assert tail[0]["data"]["state"] == "done"

    def test_unknown_job_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            read_stream(service, "/jobs/nope/stream")
        assert err.value.code == 404


SUBSCRIBERS = 100


class TestConcurrentSubscribers:
    def test_100_subscribers_all_complete(self, service, streamed_job):
        """100 concurrent streams, all identical."""
        job, _frames = streamed_job
        url = f"{service.url}/jobs/{job['id']}/stream"
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

    def test_subscribers_gauge_returns_to_zero(self, service, streamed_job):
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


class TestFleetStream:
    def test_replays_published_fleet_events(self, service):
        bus = event_bus()
        first = bus.publish(FLEET_TOPIC, "fleet_health", {"headroom_w": 40.0})
        bus.publish(FLEET_TOPIC, "fleet_health", {"headroom_w": 35.0})
        last = bus.publish(
            FLEET_TOPIC, "detection", {"phenomenon": "budget_thrash"}
        )
        # The fleet topic never terminates, so read incrementally over
        # a raw connection and hang up once the frames have arrived.
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10
        )
        try:
            conn.request(
                "GET", f"/fleet/stream?last_event_id={first - 1}"
            )
            resp = conn.getresponse()
            assert resp.headers["Content-Type"] == "text/event-stream"
            buf = b""
            while f"id: {last}\n".encode() not in buf or not buf.endswith(
                b"\n\n"
            ):
                buf += resp.fp.readline()
        finally:
            conn.close()
        frames = parse_sse(buf.decode())
        assert [f["id"] for f in frames] == [first, first + 1, last]
        assert [f["event"] for f in frames] == [
            "fleet_health", "fleet_health", "detection",
        ]
        assert frames[0]["data"] == {"headroom_w": 40.0}


class TestLiveGauges:
    def get_metrics(self, service):
        req = urllib.request.Request(service.url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.read().decode()

    def scalar(self, text, name):
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        raise AssertionError(f"{name} not found in /metrics")

    def test_stream_counters_exposed(self, service, streamed_job):
        _job, frames = streamed_job
        text = self.get_metrics(service)
        assert self.scalar(text, "repro_stream_events_total") >= len(frames)
        assert self.scalar(text, "repro_stream_dropped_total") >= 0.0
        # No stream is held open here, but the fleet-stream test's
        # hang-up is only noticed at the server's next keepalive write
        # — poll until that subscription drains rather than leak.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            value = self.scalar(
                self.get_metrics(service), "repro_stream_subscribers"
            )
            if value == 0.0:
                break
            time.sleep(0.5)
        assert value == 0.0

    def test_rate_cache_gauges_live(self, service, streamed_job):
        text = self.get_metrics(service)
        hits = self.scalar(text, "repro_rate_cache_hits_total")
        misses = self.scalar(text, "repro_rate_cache_misses_total")
        # The sweep simulated at least one fresh (workload, gating)
        # rate set; the scrape-time callback must see the scheduler's
        # shared cache, not a zeroed default.
        assert misses >= 1.0
        assert hits >= 0.0


class TestByteIdentity:
    """Streaming is observation only: a subscriber cannot change results."""

    def run_job(self, tmp_path, name, subscribe):
        svc = ExperimentService(
            db_path=tmp_path / f"{name}.sqlite3",
            port=0,
            workers=1,
            rate_cache=tmp_path / f"{name}_rates.json",
        )
        svc.start()
        try:
            _, job = request_json(svc, "POST", "/jobs", SPEC)
            if subscribe:
                frames = parse_sse(
                    read_stream(svc, f"/jobs/{job['id']}/stream")
                )
                assert frames[-1]["event"] == "job_done"
            else:
                for _ in range(1200):
                    _, j = request_json(svc, "GET", f"/jobs/{job['id']}")
                    if j["state"] == "done":
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError("job never finished")
            _, payload = request_json(
                svc, "GET", f"/jobs/{job['id']}/result"
            )
            return payload["results"]
        finally:
            svc.shutdown(drain=False)

    def test_result_identical_with_and_without_subscriber(self, tmp_path):
        observed = self.run_job(tmp_path, "observed", subscribe=True)
        silent = self.run_job(tmp_path, "silent", subscribe=False)
        assert set(observed) == set(silent)
        for name in observed:
            a, b = dict(observed[name]), dict(silent[name])
            # Provenance records this production's wall times; every
            # engine-produced byte must match exactly.
            a.pop("provenance")
            b.pop("provenance")
            assert a == b


class TestGracefulShutdown:
    def test_queued_jobs_survive_and_streams_get_end_frame(self, tmp_path):
        db = tmp_path / "shutdown.sqlite3"
        svc = ExperimentService(
            db_path=db,
            port=0,
            workers=1,
            rate_cache=tmp_path / "rates.json",
        )
        svc.start(start_workers=False)  # jobs queue, never run
        job_ids = []
        for k in range(3):
            spec = dict(SPEC, seed=4200 + k)
            status, job = request_json(svc, "POST", "/jobs", spec)
            assert status == 201
            job_ids.append(job["id"])

        # Hold a live stream open across the shutdown.
        captured = {}

        def consume():
            try:
                captured["body"] = read_stream(
                    svc, f"/jobs/{job_ids[0]}/stream"
                )
            except Exception as exc:  # noqa: BLE001 — asserted below
                captured["error"] = exc

        reader = threading.Thread(target=consume)
        reader.start()
        time.sleep(0.5)  # let the subscription attach

        svc.shutdown(drain=False)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert "error" not in captured
        frames = parse_sse(captured["body"])
        assert frames[-1]["event"] == "end"
        assert frames[-1]["data"]["state"] == "shutting_down"

        # The queue was discarded, not lost: every job is back in the
        # store as QUEUED, ready for recovery on the next boot.
        reopened = SQLiteResultStore(db)
        try:
            pending = {j.id for j in reopened.pending_jobs()}
            assert set(job_ids) <= pending
        finally:
            reopened.close()
