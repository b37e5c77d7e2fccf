"""HTTP API end-to-end: the acceptance path of the service layer.

Covers: submit -> DONE -> result identical to a direct sweep; dedup on
resubmission; /healthz; /metrics content; cancellation; error paths
including 405/413; keep-alive connection reuse and ``Connection:
close``; admission sheds (429 and shutdown 503, both with
``Retry-After``) and their counters on /metrics.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from urllib.parse import urlparse

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
POLL_TRIES = 1200  # 60 s ceiling


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
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
        return resp.status, resp.read()


def request_json(service, method, path, body=None, headers=None):
    status, raw = request(service, method, path, body, headers)
    return status, json.loads(raw)


def poll_until_done(service, job_id):
    import time

    for _ in range(POLL_TRIES):
        _, job = request_json(service, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(POLL_S)
    raise AssertionError(f"job {job_id} never finished: {job}")


@pytest.fixture(scope="module")
def finished_job(service):
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    assert job["state"] in ("queued", "running", "done")
    return poll_until_done(service, job["id"])


class TestEndToEnd:
    def test_job_reaches_done(self, finished_job):
        assert finished_job["state"] == "done"
        assert finished_job["error"] is None
        assert finished_job["attempts"] == 1

    def test_result_identical_to_direct_sweep(self, service, finished_job):
        _, payload = request_json(
            service, "GET", f"/jobs/{finished_job['id']}/result"
        )
        workload = make_workload("stereo", SPEC["scale"])
        direct = PowerCapExperiment(
            [workload],
            caps_w=SPEC["caps_w"],
            repetitions=SPEC["repetitions"],
        ).run_workload(workload)
        served = dict(payload["results"]["StereoMatching"])
        expected = json.loads(json.dumps(experiment_to_dict(direct)))
        # Provenance records *this* production (timestamps, phase
        # seconds, cache stats), so it legitimately differs between the
        # two sweeps; the engine output must still be bit-identical.
        assert served.pop("provenance")["seed"] == expected.pop(
            "provenance"
        )["seed"]
        assert served == expected

    def test_resubmission_is_a_store_hit(self, service, finished_job):
        status, twin = request_json(service, "POST", "/jobs", SPEC)
        assert status == 201
        assert twin["state"] == "done"
        assert twin["deduplicated"] is True
        assert twin["spec_digest"] == finished_job["spec_digest"]
        _, payload = request_json(
            service, "GET", f"/jobs/{twin['id']}/result"
        )
        assert payload["deduplicated"] is True

    def test_jobs_listing(self, service, finished_job):
        _, listing = request_json(service, "GET", "/jobs")
        assert any(j["id"] == finished_job["id"] for j in listing["jobs"])


class TestTimeseriesEndpoint:
    def test_json_timelines_for_every_cap(self, service, finished_job):
        status, payload = request_json(
            service, "GET", f"/jobs/{finished_job['id']}/timeseries"
        )
        assert status == 200
        assert payload["id"] == finished_job["id"]
        entry = payload["timeseries"]["StereoMatching"]
        assert entry["baseline"] is not None
        assert set(entry["by_cap"]) == {"150", "140"}
        for cap_entry in [entry["baseline"], *entry["by_cap"].values()]:
            channels = cap_entry["timeline"]["channels"]
            assert "power_w" in channels and "freq_mhz" in channels
            ts = channels["power_w"]["t"]
            assert len(ts) > 0
            assert ts == sorted(ts)  # monotonic timestamps
            assert cap_entry["summary"]["channels"]["power_w"]["points"] > 0

    def test_channel_filter(self, service, finished_job):
        _, payload = request_json(
            service,
            "GET",
            f"/jobs/{finished_job['id']}/timeseries?channel=power_w",
        )
        entry = payload["timeseries"]["StereoMatching"]
        assert list(entry["baseline"]["timeline"]["channels"]) == ["power_w"]

    def test_csv_format(self, service, finished_job):
        status, raw = request(
            service,
            "GET",
            f"/jobs/{finished_job['id']}/timeseries?format=csv"
            "&channel=power_w&channel=freq_mhz",
        )
        assert status == 200
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "workload,cap,channel,t_s,dt_s,mean,min,max"
        assert len(lines) > 3
        assert any(",baseline,power_w," in l for l in lines[1:])
        assert any(",140,freq_mhz," in l for l in lines[1:])

    def test_unknown_channel_400(self, service, finished_job):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(
                service,
                "GET",
                f"/jobs/{finished_job['id']}/timeseries?channel=bogus",
            )
        assert err.value.code == 400
        assert "unknown channel" in json.loads(err.value.read())["error"]

    def test_unknown_format_400(self, service, finished_job):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(
                service,
                "GET",
                f"/jobs/{finished_job['id']}/timeseries?format=xml",
            )
        assert err.value.code == 400

    def test_unknown_job_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(service, "GET", "/jobs/ghost/timeseries")
        assert err.value.code == 404


class TestHealthAndMetrics:
    def test_healthz(self, service):
        status, health = request_json(service, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert isinstance(health["queue_depth"], int)

    def test_metrics_exposition(self, service, finished_job):
        req = urllib.request.Request(service.url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
            assert "text/plain" in resp.headers["Content-Type"]
            text = resp.read().decode()
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth " in text
        assert 'repro_jobs{state="done"}' in text
        assert 'repro_jobs{state="queued"}' in text
        assert "repro_rate_cache_hits_total" in text
        assert "repro_rate_cache_misses_total" in text
        assert "# TYPE repro_sweep_wall_seconds histogram" in text
        assert "repro_sweep_wall_seconds_count" in text
        assert "repro_jobs_submitted_total" in text
        # Telemetry series ride along in the same exposition; the
        # finished sweep recorded at least one timeline.
        assert "repro_telemetry_runs_total" in text
        assert "repro_telemetry_samples_total" in text
        # The serving plane's admission and shard panels.
        assert "repro_admission_shed_total" in text
        assert "repro_service_shards" in text

    def test_rate_cache_counters_move(self, service, finished_job):
        # The sweep measured at least one gating -> misses > 0.
        _, raw = request(service, "GET", "/metrics")
        line = next(
            l
            for l in raw.decode().splitlines()
            if l.startswith("repro_rate_cache_misses_total")
        )
        assert float(line.split()[-1]) > 0


class TestErrorPaths:
    def expect_status(self, service, method, path, body, expected):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(service, method, path, body)
        assert err.value.code == expected
        return json.loads(err.value.read())

    def test_unknown_job_404(self, service):
        body = self.expect_status(service, "GET", "/jobs/ghost", None, 404)
        assert "no such job" in body["error"]

    def test_unknown_route_404(self, service):
        self.expect_status(service, "GET", "/nope", None, 404)

    def test_bad_spec_400(self, service):
        body = self.expect_status(
            service, "POST", "/jobs", {"workload": "linpack"}, 400
        )
        assert "unknown workload" in body["error"]

    def test_jobs_field_400(self, service):
        # Sweeps have no process fan-out: a spec naming one is refused.
        body = self.expect_status(
            service, "POST", "/jobs", {"workload": "stereo", "jobs": 2}, 400
        )
        assert "'jobs'" in body["error"]

    def test_inverted_range_400(self, service):
        body = self.expect_status(
            service,
            "POST",
            "/jobs",
            {"workload": "stereo", "cap_max_w": 120, "cap_min_w": 160},
            400,
        )
        assert "inverted cap range" in body["error"]

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

    def test_invalid_json_400(self, service):
        req = urllib.request.Request(
            service.url + "/jobs", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_queued_job_result_409_and_cancel(self, tmp_path):
        # API up, workers idle: the job deterministically stays QUEUED.
        svc = ExperimentService(
            db_path=tmp_path / "idle.sqlite3", port=0, workers=1
        )
        svc.start(start_workers=False)
        try:
            _, job = request_json(svc, "POST", "/jobs", SPEC)
            assert job["state"] == "queued"
            body = self.expect_status(
                svc, "GET", f"/jobs/{job['id']}/result", None, 409
            )
            assert "not available" in body["error"]
            status, cancelled = request_json(
                svc, "DELETE", f"/jobs/{job['id']}"
            )
            assert status == 200
            assert cancelled["state"] == "cancelled"
        finally:
            svc.shutdown(drain=False)

    def test_cancel_unknown_404(self, service):
        self.expect_status(service, "DELETE", "/jobs/ghost", None, 404)

    def test_cancel_done_job_409(self, service, finished_job):
        body = self.expect_status(
            service, "DELETE", f"/jobs/{finished_job['id']}", None, 409
        )
        assert "only queued jobs" in body["error"]


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
        _, raw = request(tight_service, "GET", "/metrics")
        shed_lines = [
            line
            for line in raw.decode().splitlines()
            if line.startswith("repro_admission_shed_total")
            and 'reason="rate_limit"' in line
        ]
        assert shed_lines and float(shed_lines[0].split()[-1]) >= 1.0
        assert tight_service.admission.shed_counts()["rate_limit"] >= 1.0

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
