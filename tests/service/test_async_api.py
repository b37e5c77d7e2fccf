"""The HTTP front end over one shared service, end-to-end over sockets.

Covers the served result document being byte-identical to a direct
in-process sweep, digest dedup on resubmission, the jobs listing and
the /metrics scrape, the 400/404 replies, and SSE replay, resume and
the caught-up ``end`` frame. Transport cases (keep-alive, 405/413,
admission sheds, graceful shutdown, fan-out) live in ``test_api.py``
and ``test_stream_api.py``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.service.api import ExperimentService
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
