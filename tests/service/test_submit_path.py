"""The submit path under malformed input: ``JobSpec`` and ``POST /jobs``.

Every body a client can send either becomes a job (201) or is refused
with a 400 naming the problem; nothing reaches the 500 route-crash
handler.  The router is called directly, without sockets.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service.api import ExperimentService
from repro.service.jobs import JobSpec
from repro.service.routes import Request
from repro.workloads import WORKLOAD_REGISTRY

FIELDS = (
    "workload",
    "caps_w",
    "repetitions",
    "seed",
    "scale",
    "cap_max_w",
    "cap_min_w",
    "cap_step_w",
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Numbers near the edges the validators must handle: huge ints that
# overflow a float, fractions, bools, and values a real sweep uses.
edge_numbers = (
    st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10**400, 1e300, 1.5, 2.0, 0, -1, 120, 150, 0.05, True])
)
values = (
    edge_numbers
    | st.sampled_from(sorted(WORKLOAD_REGISTRY))
    | st.lists(edge_numbers, max_size=4)
    | json_values
)
spec_objects = st.dictionaries(
    st.sampled_from(FIELDS) | st.text(max_size=8), values, max_size=6
)


@pytest.fixture(scope="module")
def service():
    svc = ExperimentService(
        db_path="memory://",
        port=0,
        workers=1,
        admission_rate=1e9,
        admission_burst=1e9,
        max_queue_depth=10**9,
    )
    # Workers stay idle: accepted jobs queue and never run.
    svc.start(start_workers=False)
    yield svc
    svc.shutdown(drain=False)


def post_jobs(service, body: bytes):
    response = service.router.dispatch(
        Request("POST", "/jobs", {"content-type": "application/json"}, body)
    )
    return response.status, json.loads(response.body)


class TestJobSpecFromDict:
    @settings(max_examples=300, deadline=None)
    @given(data=spec_objects)
    def test_returns_a_spec_or_raises_config_error(self, data):
        try:
            spec = JobSpec.from_dict(data)
        except ConfigError:
            return
        assert JobSpec.from_dict(spec.to_dict()).digest() == spec.digest()


class TestPostJobs:
    @settings(max_examples=150, deadline=None)
    @given(data=spec_objects, priority=st.none() | edge_numbers)
    def test_never_answers_500(self, service, data, priority):
        if priority is not None:
            data = {**data, "priority": priority}
        status, payload = post_jobs(service, json.dumps(data).encode())
        assert status in (201, 400), payload

    @pytest.mark.parametrize("field", ["priority", "seed", "repetitions"])
    @pytest.mark.parametrize("raw", ["1e999", "-1e999", "2.5", "true"])
    def test_non_integral_field_is_400_naming_it(self, service, field, raw):
        body = f'{{"caps_w": [150], "scale": 0.001, "{field}": {raw}}}'
        status, payload = post_jobs(service, body.encode())
        assert status == 400
        assert field in payload["error"]

    def test_fractional_seed_does_not_alias_an_integer_seed(self, service):
        status, _ = post_jobs(service, b'{"caps_w": [150], "seed": 1.5}')
        assert status == 400
        status, job = post_jobs(service, b'{"caps_w": [150], "seed": 1.0}')
        assert status == 201
        assert job["spec"]["seed"] == 1
        assert job["spec_digest"] == JobSpec(caps_w=(150.0,), seed=1).digest()

    @pytest.mark.parametrize(
        "body",
        [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{", b'{"caps_w": "99"}'],
        ids=["deep-nesting", "undecodable", "caps-string"],
    )
    def test_malformed_bodies_are_400(self, service, body):
        status, _ = post_jobs(service, body)
        assert status == 400
