"""Result-store conformance suite, parameterized over every backend.

The pluggable-store contract: any backend reachable through
``open_store`` must behave identically for job CRUD, result dedup,
per-cap rows, concurrent writers, and — the property everything else
leans on — byte-identical storage of serialized sweep documents.
A future Postgres backend plugs into this suite unchanged.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.errors import ConfigError
from repro.service.jobs import Job, JobSpec, JobState
from repro.service import store as store_module
from repro.service.store import (
    MemoryResultStore,
    ResultStoreBase,
    SQLiteResultStore,
    open_store,
)
from repro.workloads import make_workload

BACKENDS = ("sqlite", "memory")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "sqlite":
        yield SQLiteResultStore(tmp_path / "conformance.sqlite3")
    else:
        yield MemoryResultStore()


@pytest.fixture(scope="module")
def sweeps():
    spec = JobSpec(workload="stereo", caps_w=(150.0, 140.0), scale=0.001)
    workload = make_workload(spec.workload, spec.scale)
    experiment = PowerCapExperiment(
        [workload],
        caps_w=spec.caps_w,
        repetitions=spec.repetitions,
        seed=spec.seed,
    )
    return spec, experiment.run_all()


@pytest.fixture(scope="module")
def close_caps_sweeps():
    """Two caps that round to the same whole watt."""
    spec = JobSpec(workload="stereo", caps_w=(138.4, 137.6), scale=0.001)
    experiment = PowerCapExperiment(
        [make_workload(spec.workload, spec.scale)],
        caps_w=spec.caps_w,
        repetitions=spec.repetitions,
        seed=spec.seed,
    )
    return spec, experiment.run_all()


class TestJobCrud:
    def test_record_and_get_round_trip(self, store):
        job = Job(spec=JobSpec(workload="stereo"), priority=3)
        store.record_job(job)
        loaded = store.get_job(job.id)
        assert loaded is not None
        assert loaded.to_dict() == job.to_dict()

    def test_get_unknown_job_is_none(self, store):
        assert store.get_job("nope") is None

    def test_update_overwrites(self, store):
        job = Job(spec=JobSpec(workload="stereo"))
        store.record_job(job)
        job.state = JobState.DONE
        job.finished_at = 123.0
        store.record_job(job)
        assert store.get_job(job.id).state is JobState.DONE

    def test_list_jobs_newest_first(self, store):
        jobs = [Job(spec=JobSpec(workload="stereo")) for _ in range(3)]
        for i, job in enumerate(jobs):
            job.created_at = 1000.0 + i
            store.record_job(job)
        listed = store.list_jobs()
        assert [j.id for j in listed[:3]] == [j.id for j in reversed(jobs)]

    def test_counts_by_state(self, store):
        done = Job(spec=JobSpec(workload="stereo"), state=JobState.DONE)
        queued = Job(spec=JobSpec(workload="sire"))
        store.record_job(done)
        store.record_job(queued)
        counts = store.counts_by_state()
        assert counts.get("done") == 1
        assert counts.get("queued") == 1

    def test_pending_jobs_covers_queued_and_running(self, store):
        states = {
            JobState.QUEUED: True,
            JobState.RUNNING: True,
            JobState.DONE: False,
            JobState.CANCELLED: False,
        }
        ids = {}
        for state, pending in states.items():
            job = Job(spec=JobSpec(workload="stereo"), state=state)
            store.record_job(job)
            ids[job.id] = pending
        pending_ids = {j.id for j in store.pending_jobs()}
        for job_id, expected in ids.items():
            assert (job_id in pending_ids) is expected


class TestResults:
    def test_put_and_has_result(self, store, sweeps):
        spec, results = sweeps
        assert not store.has_result(spec.digest())
        store.put_result(spec.digest(), results)
        assert store.has_result(spec.digest())
        assert store.result_count() == 1

    def test_round_trip_is_byte_identical(self, store, sweeps):
        spec, results = sweeps
        store.put_result(spec.digest(), results)
        doc = store.get_result_dict(spec.digest())
        expected = {
            name: json.loads(
                json.dumps(experiment_to_dict(result), sort_keys=True)
            )
            for name, result in results.items()
        }
        assert doc == expected

    def test_put_result_doc_stores_identical_bytes(self, store, sweeps):
        """The sharded path's entry point stores the same document."""
        spec, results = sweeps
        doc = {
            name: json.loads(
                json.dumps(experiment_to_dict(result), sort_keys=True)
            )
            for name, result in results.items()
        }
        store.put_result_doc(spec.digest(), doc)
        assert store.get_result_dict(spec.digest()) == doc
        doc_rows = store.result_rows(spec.digest())
        store.put_result(spec.digest(), results)
        assert store.result_rows(spec.digest()) == doc_rows

    def test_result_rows_exploded_per_cap(self, store, sweeps):
        spec, results = sweeps
        store.put_result(spec.digest(), results)
        rows = store.result_rows(spec.digest())
        labels = {(r["workload"], r["cap_label"]) for r in rows}
        # One baseline row + one per cap, per workload.
        assert labels == {
            ("StereoMatching", "baseline"),
            ("StereoMatching", "150"),
            ("StereoMatching", "140"),
        }

    def test_caps_rounding_to_one_watt_keep_their_rows(
        self, store, close_caps_sweeps
    ):
        spec, results = close_caps_sweeps
        store.put_result(spec.digest(), results)
        rows = store.result_rows(spec.digest())
        assert [(r["cap_label"], r["row"]["cap_w"]) for r in rows] == [
            ("137.6", 137.6),
            ("138.4", 138.4),
            ("baseline", None),
        ]

    def test_overwrite_same_digest_is_idempotent(self, store, sweeps):
        spec, results = sweeps
        store.put_result(spec.digest(), results)
        store.put_result(spec.digest(), results)
        assert store.result_count() == 1

    def test_missing_result_is_none(self, store):
        assert store.get_result_dict("absent") is None
        assert store.result_rows("absent") == []


# Any JSON value the encoder accepts: NaN, ±inf and -0.0 included,
# non-ASCII text, and nested empty containers.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
rows = st.dictionaries(st.text(), json_values, max_size=5)
sweep_docs = st.dictionaries(
    st.text(),
    st.fixed_dictionaries(
        {
            "format_version": json_values,
            "workload": st.text(),
            "baseline": rows,
            "by_cap": st.dictionaries(st.text(), rows, max_size=4),
        },
        optional={"provenance": json_values},
    ),
    max_size=3,
)


def _stored_json(store, digest):
    """The raw ``result_json`` and ``{(workload, label): row_json}``."""
    if isinstance(store, SQLiteResultStore):
        with store._connect() as conn:
            raw_rows = conn.execute(
                "SELECT workload, cap_label, row_json FROM result_rows "
                "WHERE spec_digest = ?",
                (digest,),
            ).fetchall()
    else:
        raw_rows = store._rows[digest]
    rows_json = {(w, label): row for w, label, row in raw_rows}
    assert len(rows_json) == len(raw_rows)
    return store._get_result_json(digest), rows_json


class TestEncodeOnce:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=sweep_docs)
    @example(
        doc={
            "Stéréo": {
                "format_version": 1,
                "workload": "Stéréo ✓",
                "baseline": {"t": [float("nan"), -0.0], "p": {}},
                "by_cap": {},
                "provenance": {"x": [[], {}], "y": float("-inf")},
            },
            "SIRE": {
                "format_version": 1,
                "workload": "SIRE",
                "baseline": {},
                "by_cap": {
                    "150": {"v": float("inf")},
                    "138.4": {"v": []},
                    "137.6": {},
                    "125": {"名": "é"},
                },
            },
        }
    )
    def test_stored_bytes_equal_sorted_json_dumps(self, store, doc):
        """Splicing encoded rows gives exactly ``json.dumps`` bytes."""
        store.put_result_doc("d", doc)
        result_json, rows_json = _stored_json(store, "d")
        assert result_json == json.dumps(doc, sort_keys=True)
        expected_rows = {}
        for name, sweep in doc.items():
            labelled = [("baseline", sweep["baseline"])]
            labelled.extend(sweep["by_cap"].items())
            for label, row in labelled:
                expected_rows[(name, label)] = json.dumps(row, sort_keys=True)
        assert rows_json == expected_rows


class TestConcurrency:
    def test_concurrent_writers_all_land(self, store, sweeps):
        """Writers on many threads: every job and result survives."""
        _, results = sweeps
        doc = {
            name: json.loads(
                json.dumps(experiment_to_dict(result), sort_keys=True)
            )
            for name, result in results.items()
        }
        errors = []

        def write(k: int) -> None:
            try:
                spec = JobSpec(workload="stereo", seed=7000 + k)
                job = Job(spec=spec)
                store.record_job(job)
                store.put_result_doc(spec.digest(), doc)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(k,)) for k in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.result_count() == 16
        assert len(store.list_jobs()) == 16


class TestOpenStore:
    def test_bare_path_is_sqlite(self, tmp_path):
        store = open_store(tmp_path / "s.sqlite3")
        assert isinstance(store, SQLiteResultStore)
        assert store.backend == "sqlite"

    def test_sqlite_url(self, tmp_path):
        store = open_store(f"sqlite://{tmp_path}/s.sqlite3")
        assert isinstance(store, SQLiteResultStore)

    def test_memory_url(self):
        store = open_store("memory://")
        assert isinstance(store, MemoryResultStore)
        assert store.backend == "memory"

    def test_instance_passthrough(self):
        store = MemoryResultStore()
        assert open_store(store) is store

    def test_postgres_not_wired_yet(self):
        with pytest.raises(ConfigError):
            open_store("postgres://db.example/repro")

    def test_compat_alias(self):
        assert not hasattr(store_module, "ResultStore")
        assert issubclass(SQLiteResultStore, ResultStoreBase)
        assert issubclass(MemoryResultStore, ResultStoreBase)
