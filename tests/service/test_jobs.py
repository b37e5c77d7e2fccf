"""Job specs, lifecycle states, and the priority queue."""

from __future__ import annotations

import time

import pytest

from repro.config import PAPER_POWER_CAPS_W
from repro.errors import ConfigError
from repro.service.jobs import (
    Job,
    JobQueue,
    JobSpec,
    JobState,
    caps_from_range,
)


class TestJobSpec:
    def test_defaults_are_the_paper_sweep(self):
        spec = JobSpec()
        assert spec.workload == "stereo"
        assert spec.caps_w == tuple(PAPER_POWER_CAPS_W)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            JobSpec(workload="linpack")

    def test_empty_caps_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            JobSpec(caps_w=())

    def test_bad_scale_rejected(self):
        for scale in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                JobSpec(scale=scale)

    def test_bad_repetitions_and_jobs_rejected(self):
        with pytest.raises(ConfigError):
            JobSpec(repetitions=0)
        # The process fan-out field is gone; an API body naming it is
        # rejected like any other unknown field.
        with pytest.raises(ConfigError, match="'jobs'"):
            JobSpec.from_dict({"workload": "stereo", "jobs": 2})

    def test_digest_is_stable_and_content_addressed(self):
        a = JobSpec(workload="stereo", caps_w=(150.0, 140.0), scale=0.01)
        b = JobSpec(workload="stereo", caps_w=(150, 140), scale=0.01)
        assert a.digest() == b.digest()
        assert a.digest() != JobSpec(
            workload="stereo", caps_w=(150.0,), scale=0.01
        ).digest()
        assert a.digest() != JobSpec(
            workload="sire", caps_w=(150.0, 140.0), scale=0.01
        ).digest()

    def test_digest_matches_earlier_versions(self):
        # Digests recorded before the process fan-out field was
        # removed (it never entered the digest): stored results keep
        # deduplicating.
        assert JobSpec().digest() == "979424a20609d07058e368d8693862e3"
        spec = JobSpec(
            workload="sire", caps_w=(150.0, 140.0), repetitions=2,
            seed=7, scale=0.01,
        )
        assert spec.digest() == "95195fb9d892ef860a3beefd6681ea6f"

    def test_round_trips_through_dict(self):
        spec = JobSpec(workload="sire", caps_w=(145.0,), repetitions=2)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown job spec fields"):
            JobSpec.from_dict({"workload": "stereo", "capz": [150]})

    def test_from_dict_range_form(self):
        spec = JobSpec.from_dict(
            {"workload": "sire", "cap_max_w": 160, "cap_min_w": 120}
        )
        assert spec.caps_w == tuple(PAPER_POWER_CAPS_W)

    def test_from_dict_range_and_caps_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            JobSpec.from_dict(
                {"caps_w": [150], "cap_max_w": 160, "cap_min_w": 120}
            )


class TestCapsFromRange:
    def test_paper_range(self):
        assert caps_from_range(160, 120, 5) == tuple(PAPER_POWER_CAPS_W)

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigError, match="inverted cap range"):
            caps_from_range(120, 160)

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigError, match="step"):
            caps_from_range(160, 120, 0)
        with pytest.raises(ConfigError, match="step"):
            caps_from_range(160, 120, -5)

    def test_single_cap_range(self):
        assert caps_from_range(150, 150) == (150.0,)


def make_job(priority=0):
    return Job(spec=JobSpec(caps_w=(150.0,), scale=0.001), priority=priority)


class TestJobQueue:
    def test_priority_order_then_fifo(self):
        q = JobQueue()
        low1, low2, high = make_job(0), make_job(0), make_job(9)
        q.push(low1)
        q.push(low2)
        q.push(high)
        assert [q.pop().id for _ in range(3)] == [high.id, low1.id, low2.id]

    def test_pop_timeout_on_empty(self):
        q = JobQueue()
        t0 = time.monotonic()
        assert q.pop(timeout=0.05) is None
        assert time.monotonic() - t0 >= 0.04

    def test_delayed_push_invisible_until_ripe(self):
        q = JobQueue()
        job = make_job()
        q.push(job, delay_s=0.15)
        assert q.pop(timeout=0.01) is None
        assert q.depth() == 1  # still counted while backing off
        assert q.pop(timeout=1.0).id == job.id

    def test_cancelled_jobs_are_skipped(self):
        q = JobQueue()
        victim, survivor = make_job(), make_job()
        q.push(victim)
        q.push(survivor)
        victim.state = JobState.CANCELLED
        assert q.pop().id == survivor.id
        assert q.depth() == 0

    def test_close_unblocks_pop(self):
        q = JobQueue()
        q.close()
        assert q.pop() is None
        with pytest.raises(ConfigError):
            q.push(make_job())

    def test_terminal_states(self):
        assert JobState.DONE.is_terminal
        assert JobState.FAILED.is_terminal
        assert JobState.CANCELLED.is_terminal
        assert not JobState.QUEUED.is_terminal
        assert not JobState.RUNNING.is_terminal
