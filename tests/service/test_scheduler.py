"""Scheduler: worker pool, retries with backoff, dedup, drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.service.jobs import JobSpec, JobState
from repro.service.scheduler import ExperimentScheduler
from repro.service.store import SQLiteResultStore

from .test_store import make_result

TINY = dict(caps_w=(150.0,), repetitions=1, scale=0.001)


@pytest.fixture
def store(tmp_path):
    return SQLiteResultStore(tmp_path / "svc.sqlite3")


def make_scheduler(store, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("retry_backoff_s", 0.01)
    return ExperimentScheduler(store, **kwargs)


def fake_run(scheduler, delay_s=0.0, fail_times=0):
    """Replace the sweep with a stub (keeps scheduler tests fast)."""
    calls = {"n": 0}
    lock = threading.Lock()

    def _run(spec):
        with lock:
            calls["n"] += 1
            n = calls["n"]
        if n <= fail_times:
            raise RuntimeError(f"injected crash #{n}")
        if delay_s:
            time.sleep(delay_s)
        return {"StereoMatching": make_result()}

    scheduler._run_spec = _run
    return calls


class TestLifecycle:
    def test_real_tiny_sweep_reaches_done(self, store, tmp_path):
        scheduler = make_scheduler(
            store, workers=1, rate_cache=tmp_path / "rates.json"
        )
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=120)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE
        stored = store.get_result(job.spec_digest)
        assert "StereoMatching" in stored
        assert stored["StereoMatching"].by_cap[150.0].execution_s > 0

    def test_submit_before_start_queues(self, store):
        scheduler = make_scheduler(store)
        fake_run(scheduler)
        job = scheduler.submit(JobSpec(**TINY))
        assert job.state is JobState.QUEUED
        assert scheduler.queue_depth() == 1
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE

    def test_counts_by_state(self, store):
        scheduler = make_scheduler(store)
        fake_run(scheduler)
        scheduler.submit(JobSpec(**TINY))
        counts = scheduler.counts_by_state()
        assert counts["queued"] == 1
        scheduler.start()
        scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert scheduler.counts_by_state()["done"] == 1


class TestDedup:
    def test_resubmission_is_a_store_hit(self, store):
        scheduler = make_scheduler(store)
        calls = fake_run(scheduler)
        scheduler.start()
        first = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        second = scheduler.submit(JobSpec(**TINY))
        scheduler.shutdown(drain=False)
        assert first.state is JobState.DONE and not first.deduplicated
        # The twin is born DONE without ever touching the queue or
        # re-running the sweep.
        assert second.state is JobState.DONE and second.deduplicated
        assert calls["n"] == 1
        assert scheduler.metrics.dedup_hits.value == 1

    def test_worker_rechecks_store_at_run_time(self, store):
        # A duplicate queued while its twin is still running must not
        # re-simulate once the twin's result lands.
        scheduler = make_scheduler(store, workers=1)
        calls = fake_run(scheduler, delay_s=0.2)
        a = scheduler.submit(JobSpec(**TINY))
        b = scheduler.submit(JobSpec(**TINY))
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert a.state is JobState.DONE
        assert b.state is JobState.DONE
        assert calls["n"] == 1
        assert b.deduplicated


class TestRetries:
    def test_transient_crash_retries_then_succeeds(self, store):
        scheduler = make_scheduler(store, max_attempts=3)
        calls = fake_run(scheduler, fail_times=2)
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE
        assert job.attempts == 3
        assert calls["n"] == 3
        assert scheduler.metrics.job_retries.value == 2

    def test_retry_budget_exhaustion_fails_the_job(self, store):
        scheduler = make_scheduler(store, max_attempts=2)
        fake_run(scheduler, fail_times=99)
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert "injected crash" in job.error
        assert scheduler.metrics.jobs_failed.value == 1

    def test_deterministic_config_errors_do_not_retry(self, store):
        scheduler = make_scheduler(store, max_attempts=3)

        def _run(spec):
            raise ConfigError("always wrong")

        scheduler._run_spec = _run
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.FAILED
        assert job.attempts == 1  # retrying a deterministic error is futile


class TestCancel:
    def test_cancel_queued_job(self, store):
        scheduler = make_scheduler(store)  # not started: stays queued
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert store.get_job(job.id).state is JobState.CANCELLED

    def test_cancel_done_job_refused(self, store):
        scheduler = make_scheduler(store)
        fake_run(scheduler)
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert not scheduler.cancel(job.id)
        assert job.state is JobState.DONE

    def test_cancel_unknown_job_refused(self, store):
        assert not make_scheduler(store).cancel("missing")


class TestRecovery:
    def test_recover_requeues_interrupted_jobs(self, store, tmp_path):
        # A first scheduler records jobs, then "crashes" before running.
        first = make_scheduler(store)
        job = first.submit(JobSpec(**TINY))
        assert job.state is JobState.QUEUED

        second = make_scheduler(store)
        fake_run(second)
        assert second.recover() == 1
        second.start()
        assert second.drain(timeout=30)
        second.shutdown(drain=False)
        assert store.get_job(job.id).state is JobState.DONE


class TestConcurrentLoad:
    def test_50_concurrent_submissions_drain_without_loss(self, store):
        scheduler = make_scheduler(store, workers=4)
        fake_run(scheduler, delay_s=0.01)
        scheduler.start()
        jobs = []
        jobs_lock = threading.Lock()

        def submit_batch(offset):
            for i in range(10):
                # Eight distinct specs overall -> plenty of dedup races.
                cap = 150.0 - ((offset + i) % 8)
                job = scheduler.submit(
                    JobSpec(caps_w=(cap,), repetitions=1, scale=0.001),
                    priority=i % 3,
                )
                with jobs_lock:
                    jobs.append(job)

        threads = [
            threading.Thread(target=submit_batch, args=(k,)) for k in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(jobs) == 50
        assert scheduler.drain(timeout=60), "queue failed to drain"
        scheduler.shutdown(drain=False)
        states = [j.state for j in jobs]
        assert all(s is JobState.DONE for s in states), states
        assert scheduler.metrics.jobs_completed.value == 50
        # Every distinct digest landed exactly one stored result.
        assert store.result_count() == 8
