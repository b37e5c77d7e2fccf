"""The HTTP front end's transport behaviour, end-to-end over sockets.

Covers keep-alive connection reuse and ``Connection: close``, the
405/413 replies, admission sheds with ``Retry-After``, graceful
shutdown (queued jobs re-recorded, open streams closed with a
terminal ``end`` frame), and the served result document being
byte-identical to a direct in-process sweep.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.service.api import ExperimentService
from repro.service.store import SQLiteResultStore
from repro.workloads import make_workload

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0, 140.0],
    "repetitions": 1,
    "scale": 0.001,
}
POLL_S = 0.05
POLL_TRIES = 1200


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("http_service")
    svc = ExperimentService(
        db_path=tmp / "svc.sqlite3",
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    svc.start()
    yield svc
    svc.shutdown(drain=False)


def request(service, method, path, body=None, headers=None):
    data = None if body is None else json.dumps(body).encode()
    merged = dict(headers or {})
    if data:
        merged.setdefault("Content-Type", "application/json")
    req = urllib.request.Request(
        service.url + path, data=data, method=method, headers=merged
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read(), dict(resp.headers)


def request_json(service, method, path, body=None, headers=None):
    status, raw, _ = request(service, method, path, body, headers)
    return status, json.loads(raw)


def poll_until_done(service, job_id):
    for _ in range(POLL_TRIES):
        _, job = request_json(service, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(POLL_S)
    raise AssertionError(f"job {job_id} never finished: {job}")


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


def read_stream(service, path, headers=None):
    req = urllib.request.Request(service.url + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=120) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        return resp.read().decode()


@pytest.fixture(scope="module")
def finished_job(service):
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    done = poll_until_done(service, job["id"])
    assert done["state"] == "done"
    return done


class TestParity:
    def test_result_byte_identical_to_direct_sweep(
        self, service, finished_job
    ):
        _, payload = request_json(
            service, "GET", f"/jobs/{finished_job['id']}/result"
        )
        workload = make_workload(SPEC["workload"], SPEC["scale"])
        direct = PowerCapExperiment(
            [workload],
            caps_w=tuple(SPEC["caps_w"]),
            repetitions=SPEC["repetitions"],
            seed=finished_job["spec"]["seed"],
        ).run_all()
        expected = {
            name: json.loads(json.dumps(experiment_to_dict(result)))
            for name, result in direct.items()
        }
        served = payload["results"]
        for docs in (served, expected):
            for doc in docs.values():
                doc.pop("provenance")
        assert served == expected

    def test_resubmission_dedups_on_digest(self, service, finished_job):
        status, twin = request_json(service, "POST", "/jobs", SPEC)
        assert status == 201
        assert twin["spec_digest"] == finished_job["spec_digest"]
        assert poll_until_done(service, twin["id"])["state"] == "done"

    def test_jobs_listing(self, service, finished_job):
        _, listing = request_json(service, "GET", "/jobs")
        assert any(j["id"] == finished_job["id"] for j in listing["jobs"])

    def test_metrics_scrape(self, service, finished_job):
        status, raw, headers = request(service, "GET", "/metrics")
        assert status == 200
        assert "text/plain" in headers["Content-Type"]
        text = raw.decode()
        assert "repro_admission_shed_total" in text
        assert "repro_service_shards" in text


class TestErrors:
    def test_unknown_job_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(service, "GET", "/jobs/nope")
        assert err.value.code == 404

    def test_unknown_resource_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(service, "GET", "/bogus")
        assert err.value.code == 404

    def test_malformed_json_400(self, service):
        req = urllib.request.Request(
            service.url + "/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_unsupported_method_405(self, service):
        req = urllib.request.Request(
            service.url + "/jobs", data=b"{}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 405

    def test_oversized_body_413(self, service):
        body = b'{"pad": "' + b"x" * (1 << 20) + b'"}'
        req = urllib.request.Request(
            service.url + "/jobs",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 413


class TestKeepAlive:
    def test_connection_reuse(self, service):
        """Several requests down one socket: HTTP/1.1 keep-alive."""
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=30
        )
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                json.loads(resp.read())
        finally:
            conn.close()

    def test_connection_close_honoured(self, service):
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=30
        )
        try:
            conn.request(
                "GET", "/healthz", headers={"Connection": "close"}
            )
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            assert resp.will_close
        finally:
            conn.close()


class TestStreams:
    def test_replay_ends_with_terminal_frame(self, service, finished_job):
        frames = parse_sse(
            read_stream(service, f"/jobs/{finished_job['id']}/stream")
        )
        kinds = [f["event"] for f in frames]
        assert kinds[0] == "job_started"
        assert kinds[-1] == "job_done"
        ids = [f["id"] for f in frames if f["id"] is not None]
        assert all(b > a for a, b in zip(ids, ids[1:]))

    def test_last_event_id_resumes(self, service, finished_job):
        full = parse_sse(
            read_stream(service, f"/jobs/{finished_job['id']}/stream")
        )
        ids = [f["id"] for f in full if f["id"] is not None]
        floor = ids[len(ids) // 2]
        resumed = parse_sse(read_stream(
            service,
            f"/jobs/{finished_job['id']}/stream",
            headers={"Last-Event-ID": str(floor)},
        ))
        resumed_ids = [f["id"] for f in resumed if f["id"] is not None]
        assert resumed_ids == [i for i in ids if i > floor]

    def test_caught_up_subscriber_gets_end_frame(
        self, service, finished_job
    ):
        full = parse_sse(
            read_stream(service, f"/jobs/{finished_job['id']}/stream")
        )
        last = max(f["id"] for f in full if f["id"] is not None)
        tail = parse_sse(read_stream(
            service,
            f"/jobs/{finished_job['id']}/stream?last_event_id={last}",
        ))
        assert [f["event"] for f in tail] == ["end"]
        assert tail[0]["data"]["state"] == "done"

    def test_unknown_job_stream_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            read_stream(service, "/jobs/nope/stream")
        assert err.value.code == 404


class TestAdmissionOverHttp:
    @pytest.fixture()
    def tight_service(self, tmp_path):
        svc = ExperimentService(
            db_path="memory://",
            port=0,
            workers=1,
            rate_cache=tmp_path / "rates.json",
                admission_rate=0.001,
            admission_burst=1.0,
        )
        svc.start(start_workers=False)
        yield svc
        svc.shutdown(drain=False)

    def test_rate_limited_submit_gets_429_with_retry_after(
        self, tight_service
    ):
        status, job = request_json(
            tight_service,
            "POST",
            "/jobs",
            SPEC,
            headers={"X-Client-Id": "hot"},
        )
        assert status == 201
        with pytest.raises(urllib.error.HTTPError) as err:
            request(
                tight_service,
                "POST",
                "/jobs",
                SPEC,
                headers={"X-Client-Id": "hot"},
            )
        assert err.value.code == 429
        assert float(err.value.headers["Retry-After"]) > 0
        body = json.loads(err.value.read())
        assert "rate_limit" in body["error"]

    def test_shed_counted_on_metrics(self, tight_service):
        for _ in range(2):
            try:
                request(
                    tight_service,
                    "POST",
                    "/jobs",
                    SPEC,
                    headers={"X-Client-Id": "metered"},
                )
            except urllib.error.HTTPError:
                pass
        _, raw, _ = request(tight_service, "GET", "/metrics")
        shed_lines = [
            line
            for line in raw.decode().splitlines()
            if line.startswith("repro_admission_shed_total")
            and 'reason="rate_limit"' in line
        ]
        assert shed_lines and float(shed_lines[0].split()[-1]) >= 1.0
        assert tight_service.admission.shed_counts()["rate_limit"] >= 1.0


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
        import threading

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

    def test_submissions_after_shutdown_are_shed(self, tmp_path):
        svc = ExperimentService(
            db_path="memory://",
            port=0,
            workers=1,
            rate_cache=tmp_path / "rates.json",
            )
        svc.start(start_workers=False)
        try:
            svc.admission.begin_shutdown()
            with pytest.raises(urllib.error.HTTPError) as err:
                request_json(svc, "POST", "/jobs", SPEC)
            assert err.value.code == 503
            assert "Retry-After" in err.value.headers
        finally:
            svc.shutdown(drain=False)
