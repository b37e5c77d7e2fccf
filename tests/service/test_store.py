"""SQLite result store: round-trips, dedup, per-cap rows, job records.

The round-trip tests double as the :mod:`repro.core.serialize`
coverage the store relies on: an :class:`ExperimentResult` pushed
through SQLite and back must compare equal field-for-field, PAPI
counter dicts and cap labels included.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3
import sys
import threading
import time

import pytest

from repro.core.experiment import ExperimentResult
from repro.core.metrics import AveragedResult
from repro.perf.events import PapiEvent
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.store import SQLiteResultStore


def make_row(cap, time_s):
    counters = {e: float(i) * 7.5 for i, e in enumerate(PapiEvent, start=1)}
    return AveragedResult(
        workload="StereoMatching",
        cap_w=cap,
        n_runs=5,
        execution_s=time_s,
        avg_power_w=153.1,
        energy_j=153.1 * time_s,
        avg_freq_mhz=3101.0 if cap is None else 1200.0,
        counters=counters,
        committed_instructions=1e9,
        executed_instructions=1.07e9,
        max_escalation_level=0 if cap is None else 3,
        min_duty=1.0 if cap is None else 0.12,
        execution_s_std=0.4,
    )


def make_result() -> ExperimentResult:
    result = ExperimentResult(
        workload="StereoMatching", baseline=make_row(None, 91.0)
    )
    for cap, t in ((160.0, 91.2), (140.0, 127.5), (120.0, 3100.0)):
        result.by_cap[cap] = make_row(cap, t)
    return result


@pytest.fixture
def store(tmp_path):
    return SQLiteResultStore(tmp_path / "svc.sqlite3")


class TestResultRoundTrip:
    def test_experiment_result_round_trips_exactly(self, store):
        original = make_result()
        store.put_result("digest-1", {"StereoMatching": original})
        loaded = store.get_result("digest-1")["StereoMatching"]
        # AveragedResult is a dataclass: equality is field-by-field,
        # so this asserts the counters dict and every statistic.
        assert loaded.baseline == original.baseline
        assert loaded.by_cap == original.by_cap
        assert loaded.workload == original.workload

    def test_counters_preserve_papi_enum_keys(self, store):
        store.put_result("digest-2", {"StereoMatching": make_result()})
        loaded = store.get_result("digest-2")["StereoMatching"]
        counters = loaded.baseline.counters
        assert set(counters) == set(PapiEvent)
        assert counters[PapiEvent.PAPI_TLB_IM] == pytest.approx(
            make_result().baseline.counters[PapiEvent.PAPI_TLB_IM]
        )

    def test_cap_labels_preserved(self, store):
        store.put_result("digest-3", {"StereoMatching": make_result()})
        loaded = store.get_result("digest-3")["StereoMatching"]
        assert loaded.baseline.cap_label == "baseline"
        assert sorted(r.cap_label for r in loaded.rows()) == sorted(
            ["baseline", "160", "140", "120"]
        )

    def test_multi_workload_document(self, store):
        store.put_result(
            "digest-4",
            {"StereoMatching": make_result(), "SIRE/RSM": make_result()},
        )
        assert set(store.get_result("digest-4")) == {
            "StereoMatching",
            "SIRE/RSM",
        }

    def test_missing_digest_is_none(self, store):
        assert store.get_result("nope") is None
        assert store.get_result_dict("nope") is None
        assert not store.has_result("nope")


class TestResultRows:
    def test_per_cap_rows_exploded(self, store):
        store.put_result("digest-5", {"StereoMatching": make_result()})
        rows = store.result_rows("digest-5")
        assert len(rows) == 4  # baseline + three caps
        labels = {r["cap_label"] for r in rows}
        assert labels == {"baseline", "160", "140", "120"}
        baseline = next(r for r in rows if r["cap_label"] == "baseline")
        assert baseline["workload"] == "StereoMatching"
        assert baseline["row"]["execution_s"] == pytest.approx(91.0)

    def test_overwrite_replaces_rows(self, store):
        store.put_result("digest-6", {"StereoMatching": make_result()})
        smaller = ExperimentResult(
            workload="StereoMatching", baseline=make_row(None, 91.0)
        )
        store.put_result("digest-6", {"StereoMatching": smaller})
        assert len(store.result_rows("digest-6")) == 1
        assert store.result_count() == 1


class TestDedup:
    def test_has_result_after_put(self, store):
        assert not store.has_result("d")
        store.put_result("d", {"StereoMatching": make_result()})
        assert store.has_result("d")

    def test_idempotent_put(self, store):
        store.put_result("d", {"StereoMatching": make_result()})
        store.put_result("d", {"StereoMatching": make_result()})
        assert store.result_count() == 1


class TestJobRecords:
    def test_job_round_trip(self, store):
        job = Job(
            spec=JobSpec(workload="sire", caps_w=(150.0,), scale=0.01),
            priority=3,
        )
        job.state = JobState.RUNNING
        job.attempts = 2
        job.started_at = time.time()
        store.record_job(job)
        loaded = store.get_job(job.id)
        assert loaded.spec == job.spec
        assert loaded.state is JobState.RUNNING
        assert loaded.attempts == 2
        assert loaded.priority == 3
        assert loaded.spec_digest == job.spec_digest

    def test_unknown_job_is_none(self, store):
        assert store.get_job("missing") is None

    def test_counts_by_state(self, store):
        for state in (JobState.QUEUED, JobState.QUEUED, JobState.DONE):
            job = Job(spec=JobSpec(caps_w=(150.0,)))
            job.state = state
            store.record_job(job)
        counts = store.counts_by_state()
        assert counts["queued"] == 2
        assert counts["done"] == 1
        assert counts["failed"] == 0

    def test_pending_jobs_for_recovery(self, store):
        queued = Job(spec=JobSpec(caps_w=(150.0,)))
        running = Job(spec=JobSpec(caps_w=(140.0,)))
        running.state = JobState.RUNNING
        done = Job(spec=JobSpec(caps_w=(130.0,)))
        done.state = JobState.DONE
        for j in (queued, running, done):
            store.record_job(j)
        pending = {j.id for j in store.pending_jobs()}
        assert pending == {queued.id, running.id}

    def test_row_with_legacy_jobs_field_recovers(self, tmp_path):
        # Older versions stored a process fan-out "jobs" key in every
        # spec; such a QUEUED row must still load after a restart.
        path = tmp_path / "legacy.sqlite3"
        SQLiteResultStore(path).close()
        spec_json = json.dumps(
            {
                "workload": "sire", "caps_w": [150.0, 140.0],
                "repetitions": 2, "seed": 7, "scale": 0.01, "jobs": 4,
            },
            sort_keys=True,
        )
        digest = "95195fb9d892ef860a3beefd6681ea6f"  # as written then
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "INSERT INTO jobs (id, spec_digest, spec_json, priority, "
                "state, attempts, max_attempts, error, created_at, "
                "started_at, finished_at, deduplicated) "
                "VALUES (?, ?, ?, 0, 'queued', 0, 3, NULL, 100.0, NULL, "
                "NULL, 0)",
                ("legacy1", digest, spec_json),
            )
        conn.close()
        reopened = SQLiteResultStore(path)
        try:
            (job,) = reopened.pending_jobs()
            assert job.id == "legacy1"
            assert job.spec == JobSpec(
                workload="sire", caps_w=(150.0, 140.0), repetitions=2,
                seed=7, scale=0.01,
            )
            assert job.spec.digest() == digest
            assert reopened.get_job("legacy1").spec == job.spec
        finally:
            reopened.close()

    def test_list_jobs_newest_first(self, store):
        old = Job(spec=JobSpec(caps_w=(150.0,)), created_at=100.0)
        new = Job(spec=JobSpec(caps_w=(140.0,)), created_at=200.0)
        store.record_job(old)
        store.record_job(new)
        assert [j.id for j in store.list_jobs()] == [new.id, old.id]


def _use_store_in_fork(store, job_id, digest, out):
    """Child side of the fork test: count connects, read, write."""
    inherited = store._conn
    opened = []
    real_connect = sqlite3.connect

    def counting(*args, **kwargs):
        opened.append(args)
        return real_connect(*args, **kwargs)

    sqlite3.connect = counting
    child_job = Job(spec=JobSpec(caps_w=(130.0,)))
    store.record_job(child_job)
    out.put(
        {
            "reads_parent_job": store.get_job(job_id) is not None,
            "reads_parent_result": store.has_result(digest),
            "connects": len(opened),
            "own_connection": store._conn is not inherited,
            "child_job": child_job.id,
        }
    )


class TestConnection:
    @pytest.fixture
    def connects(self, monkeypatch):
        """Every ``sqlite3.connect`` call made while the test runs."""
        calls = []
        real_connect = sqlite3.connect

        def counting(*args, **kwargs):
            calls.append(args)
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting)
        return calls

    def test_threads_share_one_connection(self, tmp_path, connects):
        store = SQLiteResultStore(tmp_path / "svc.sqlite3")
        errors = []

        def hammer(k):
            try:
                for i in range(50):
                    job = Job(spec=JobSpec(caps_w=(150.0,), seed=k * 50 + i))
                    store.record_job(job)
                    assert not store.has_result(job.spec_digest)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(store.list_jobs(limit=1000)) == 400
        assert len(connects) == 1

    def test_close_closes_and_a_later_call_reopens(self, tmp_path, connects):
        store = SQLiteResultStore(tmp_path / "svc.sqlite3")
        job = Job(spec=JobSpec(caps_w=(150.0,)))
        store.record_job(job)
        conn = store._conn
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")
        assert store.get_job(job.id).id == job.id
        assert len(connects) == 2
        store.close()
        store.close()

    @staticmethod
    def _pragmas(store):
        with store._connect() as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            sync = conn.execute("PRAGMA synchronous").fetchone()[0]
        return mode, sync

    def test_every_connection_is_wal_with_full_sync(self, tmp_path):
        path = tmp_path / "svc.sqlite3"
        store = SQLiteResultStore(path)
        store.record_job(Job(spec=JobSpec(caps_w=(150.0,))))
        assert self._pragmas(store) == ("wal", 2)
        store.close()
        assert self._pragmas(store) == ("wal", 2)
        assert self._pragmas(SQLiteResultStore(path)) == ("wal", 2)

    def test_rollback_journal_file_is_converted(self, tmp_path):
        path = tmp_path / "old.sqlite3"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "delete"
        conn.close()
        store = SQLiteResultStore(path)
        job = Job(spec=JobSpec(caps_w=(150.0,)))
        store.record_job(job)
        assert self._pragmas(store) == ("wal", 2)
        store.close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        conn.close()
        assert SQLiteResultStore(path).get_job(job.id).id == job.id

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_opens_its_own_connection(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "svc.sqlite3")
        job = Job(spec=JobSpec(caps_w=(150.0,)))
        store.record_job(job)
        store.put_result("d1", {"StereoMatching": make_result()})
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        child = ctx.Process(
            target=_use_store_in_fork, args=(store, job.id, "d1", out)
        )
        child.start()
        seen = out.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert seen["reads_parent_job"] and seen["reads_parent_result"]
        assert seen["connects"] == 1 and seen["own_connection"]
        # The parent's connection still serves, and sees the child's row.
        assert store.get_job(seen["child_job"]) is not None
