"""Pluggable job + result persistence behind one store interface.

The service persists two kinds of state:

- **jobs** — every submission's lifecycle record (spec JSON, state,
  attempts, timestamps), so a restarted service can recover queued
  work and answer status queries for past jobs;
- **results** — one document per distinct :meth:`JobSpec.digest
  <repro.service.jobs.JobSpec.digest>`: the full sweep document
  (``{workload name: experiment_to_dict(...)}``), plus the same sweep
  exploded into per-(workload, cap) rows for cheap tabular queries.

:class:`ResultStoreBase` is the backend contract.  All serialization
lives in the base class — backends only move opaque JSON strings — so
every backend round-trips results identically: the stored JSON is the
exact on-disk format ``save_experiment`` writes, and results loaded
from any store compare equal (dataclass equality, PAPI counter dicts
included) to the live objects.  The conformance suite in
``tests/service/test_store_conformance.py`` runs against every
registered backend.

Backends:

- :class:`SQLiteResultStore` (default) — one SQLite file (write-ahead
  log, ``synchronous=FULL``) behind one connection per store and
  process, shared by every scheduler worker and HTTP handler thread
  under a lock held for one transaction;
- :class:`MemoryResultStore` — process-local dicts under a lock; no
  durability, no files.  Used by tests and by load benchmarks that
  must not measure filesystem latency;
- Postgres — not bundled (the container ships no driver), but the
  interface is shaped for it: all backend methods are keyed reads /
  upserts with JSON payloads, exactly what
  ``INSERT ... ON CONFLICT DO UPDATE`` over ``jsonb`` columns needs.
  :func:`open_store` rejects ``postgres://`` URLs with a pointed
  message instead of failing at first use.

:func:`open_store` picks the backend from a URL-ish spec:
``memory://`` for the in-memory store, ``sqlite:///path`` or a bare
filesystem path for SQLite.
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.experiment import ExperimentResult
from ..core.serialize import experiment_from_dict, experiment_to_dict
from ..errors import ConfigError
from ..obs.logging import get_logger
from ..obs.tracing import span
from .jobs import Job, JobSpec, JobState

__all__ = [
    "ResultStoreBase",
    "SQLiteResultStore",
    "MemoryResultStore",
    "open_store",
]

_log = get_logger("service.store")


def _json_object(items: Iterable[Tuple[str, str]]) -> str:
    """A JSON object from ``(key, encoded value)`` pairs in key order.

    Uses ``json.dumps``' default separators, so over sorted pairs it
    matches ``json.dumps(..., sort_keys=True)`` byte for byte.
    """
    return "{" + ", ".join(
        f"{json.dumps(key)}: {value}" for key, value in items
    ) + "}"


class ResultStoreBase(abc.ABC):
    """Backend contract for job + result persistence.

    Concrete backends implement the raw keyed operations; everything
    about *what* is stored — serialization, row explosion, dedup
    semantics — is decided here, once, so two backends can never
    drift in their on-disk document format.
    """

    #: Short backend tag for provenance / logs (``sqlite``, ``memory``).
    backend: str = "abstract"

    # ------------------------------------------------------------------
    # Jobs (abstract)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def record_job(self, job: Job) -> None:
        """Insert or update one job's lifecycle record (upsert by id)."""

    @abc.abstractmethod
    def get_job(self, job_id: str) -> Optional[Job]:
        """One job by id, or None."""

    @abc.abstractmethod
    def list_jobs(self, limit: int = 200) -> List[Job]:
        """Most recent jobs, newest first."""

    @abc.abstractmethod
    def counts_by_state(self) -> Dict[str, int]:
        """``{state value: job count}`` over every recorded job."""

    @abc.abstractmethod
    def pending_jobs(self) -> List[Job]:
        """QUEUED / RUNNING jobs (for crash recovery at startup)."""

    # ------------------------------------------------------------------
    # Results (abstract, JSON-string payloads)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _put_result_json(
        self,
        spec_digest: str,
        created_at: float,
        result_json: str,
        rows: List[Tuple[str, str, str]],
    ) -> None:
        """Upsert one sweep document and replace its exploded rows.

        ``rows`` is ``[(workload, cap_label, row_json), ...]``; any
        previously stored rows for the digest must be dropped first.
        """

    @abc.abstractmethod
    def _get_result_json(self, spec_digest: str) -> Optional[str]:
        """The stored sweep document JSON, or None."""

    @abc.abstractmethod
    def has_result(self, spec_digest: str) -> bool:
        """Whether a sweep for this digest is already stored."""

    @abc.abstractmethod
    def result_rows(self, spec_digest: str) -> List[dict]:
        """The exploded per-(workload, cap) rows for one digest."""

    @abc.abstractmethod
    def result_count(self) -> int:
        """Number of distinct stored sweep documents."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent; default no-op)."""

    # ------------------------------------------------------------------
    # Shared serialization (concrete)
    # ------------------------------------------------------------------

    def put_result(
        self, spec_digest: str, sweeps: Dict[str, ExperimentResult]
    ) -> dict:
        """Serialize live sweeps once and store them; returns the document."""
        doc = {
            name: experiment_to_dict(result) for name, result in sweeps.items()
        }
        self.put_result_doc(spec_digest, doc)
        return doc

    def put_result_doc(self, spec_digest: str, doc: dict) -> None:
        """Persist one sweep document plus its exploded per-cap rows.

        ``doc`` is ``{workload name: experiment_to_dict(...)}``; the
        sharded execution path hands one over as it came from the
        shard.  Each row is stored under its document key (``baseline``
        or the ``by_cap`` key), which tells apart caps that round to the
        same watt.

        Every row is encoded once: the document's JSON is spliced from
        the row strings, and is byte-identical to
        ``json.dumps(doc, sort_keys=True)``.
        """
        rows: List[Tuple[str, str, str]] = []
        sweeps: List[Tuple[str, str]] = []
        for name, sweep in sorted(doc.items()):
            baseline = json.dumps(sweep["baseline"], sort_keys=True)
            by_cap = [
                (label, json.dumps(row, sort_keys=True))
                for label, row in sorted(sweep["by_cap"].items())
            ]
            rows.append((name, "baseline", baseline))
            rows.extend((name, label, row_json) for label, row_json in by_cap)
            encoded = {
                key: json.dumps(value, sort_keys=True)
                for key, value in sweep.items()
                if key not in ("baseline", "by_cap")
            }
            encoded["baseline"] = baseline
            encoded["by_cap"] = _json_object(by_cap)
            sweeps.append((name, _json_object(sorted(encoded.items()))))
        with span("store_write", spec_digest=spec_digest):
            self._put_result_json(
                spec_digest,
                time.time(),
                _json_object(sweeps),
                rows,
            )
        _log.debug(
            "result_stored",
            spec_digest=spec_digest,
            backend=self.backend,
            workloads=sorted(doc),
        )

    def get_result_dict(self, spec_digest: str) -> Optional[dict]:
        """The raw sweep document (JSON-decoded), or None."""
        raw = self._get_result_json(spec_digest)
        return json.loads(raw) if raw is not None else None

    def get_result(
        self, spec_digest: str
    ) -> Optional[Dict[str, ExperimentResult]]:
        """The stored sweeps as live objects, or None."""
        doc = self.get_result_dict(spec_digest)
        if doc is None:
            return None
        return {
            name: experiment_from_dict(data) for name, data in doc.items()
        }

    # ------------------------------------------------------------------
    # Shared job (de)serialization helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _job_to_record(job: Job) -> dict:
        """A job as the flat record every backend persists."""
        return {
            "id": job.id,
            "spec_digest": job.spec_digest,
            "spec_json": job.spec.canonical_json,
            "priority": job.priority,
            "state": job.state.value,
            "attempts": job.attempts,
            "max_attempts": job.max_attempts,
            "error": job.error,
            "created_at": job.created_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "deduplicated": int(job.deduplicated),
        }

    @staticmethod
    def _job_from_record(row) -> Job:
        """Rebuild a :class:`Job` from a flat record (dict or sqlite Row).

        Rows written by older versions carry a ``"jobs"`` process
        fan-out field, which no longer exists and never entered the
        digest; it is dropped so those jobs still load and recover.
        """
        spec = json.loads(row["spec_json"])
        spec.pop("jobs", None)
        return Job(
            spec=JobSpec.from_dict(spec),
            id=row["id"],
            priority=row["priority"],
            state=JobState(row["state"]),
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            error=row["error"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            deduplicated=bool(row["deduplicated"]),
        )


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,
    spec_digest TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    state       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    error       TEXT,
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL,
    deduplicated INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state);
CREATE INDEX IF NOT EXISTS idx_jobs_digest ON jobs (spec_digest);

CREATE TABLE IF NOT EXISTS results (
    spec_digest TEXT PRIMARY KEY,
    created_at  REAL NOT NULL,
    result_json TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS result_rows (
    spec_digest TEXT NOT NULL,
    workload    TEXT NOT NULL,
    cap_label   TEXT NOT NULL,
    row_json    TEXT NOT NULL,
    PRIMARY KEY (spec_digest, workload, cap_label)
);
"""


class SQLiteResultStore(ResultStoreBase):
    """SQLite-backed persistence for jobs and sweep results."""

    backend = "sqlite"

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = str(path)
        if Path(self._path).is_dir():
            raise ConfigError(f"store path is a directory: {self._path}")
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @property
    def path(self) -> str:
        """Location of the database file."""
        return self._path

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """The store's one connection, held for one transaction.

        Reopened by the first call after :meth:`close`.  A forked child
        opens its own with a fresh lock: SQLite forbids using a
        connection across ``fork``, so the parent's is left untouched
        (not even closed).
        """
        if self._pid != os.getpid():
            self._lock = threading.Lock()
            self._inherited, self._conn = self._conn, None
            self._pid = os.getpid()
        with self._lock:
            if self._conn is None:
                self._conn = sqlite3.connect(
                    self._path, timeout=30.0, check_same_thread=False
                )
                self._conn.row_factory = sqlite3.Row
                self._conn.execute("PRAGMA busy_timeout = 30000")
                # A WAL commit appends to one log file; FULL still
                # fsyncs it on every commit, so each commit is durable.
                self._conn.execute("PRAGMA journal_mode = WAL")
                self._conn.execute("PRAGMA synchronous = FULL")
            with self._conn as conn:
                yield conn

    def _fetch(self, sql: str, *params) -> List[sqlite3.Row]:
        """Every row one query returns."""
        with self._connect() as conn:
            return conn.execute(sql, params).fetchall()

    def close(self) -> None:
        """Close the connection; a later call opens a fresh one."""
        if self._pid != os.getpid():
            return  # a forked child never opened the one it holds
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def record_job(self, job: Job) -> None:
        rec = self._job_to_record(job)
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO jobs (id, spec_digest, spec_json, "
                "priority, state, attempts, max_attempts, error, created_at, "
                "started_at, finished_at, deduplicated) "
                "VALUES (:id, :spec_digest, :spec_json, :priority, :state, "
                ":attempts, :max_attempts, :error, :created_at, :started_at, "
                ":finished_at, :deduplicated)",
                rec,
            )

    def get_job(self, job_id: str) -> Optional[Job]:
        rows = self._fetch("SELECT * FROM jobs WHERE id = ?", job_id)
        return self._job_from_record(rows[0]) if rows else None

    def list_jobs(self, limit: int = 200) -> List[Job]:
        rows = self._fetch(
            "SELECT * FROM jobs ORDER BY created_at DESC LIMIT ?", int(limit)
        )
        return [self._job_from_record(r) for r in rows]

    def counts_by_state(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for row in self._fetch(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def pending_jobs(self) -> List[Job]:
        rows = self._fetch(
            "SELECT * FROM jobs WHERE state IN (?, ?) ORDER BY created_at",
            JobState.QUEUED.value,
            JobState.RUNNING.value,
        )
        return [self._job_from_record(r) for r in rows]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _put_result_json(
        self,
        spec_digest: str,
        created_at: float,
        result_json: str,
        rows: List[Tuple[str, str, str]],
    ) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results "
                "(spec_digest, created_at, result_json) VALUES (?, ?, ?)",
                (spec_digest, created_at, result_json),
            )
            conn.execute(
                "DELETE FROM result_rows WHERE spec_digest = ?", (spec_digest,)
            )
            conn.executemany(
                "INSERT OR REPLACE INTO result_rows "
                "(spec_digest, workload, cap_label, row_json) "
                "VALUES (?, ?, ?, ?)",
                [(spec_digest, *row) for row in rows],
            )

    def _get_result_json(self, spec_digest: str) -> Optional[str]:
        rows = self._fetch(
            "SELECT result_json FROM results WHERE spec_digest = ?",
            spec_digest,
        )
        return rows[0]["result_json"] if rows else None

    def has_result(self, spec_digest: str) -> bool:
        sql = "SELECT 1 FROM results WHERE spec_digest = ?"
        return bool(self._fetch(sql, spec_digest))

    def result_rows(self, spec_digest: str) -> List[dict]:
        rows = self._fetch(
            "SELECT workload, cap_label, row_json FROM result_rows "
            "WHERE spec_digest = ? ORDER BY workload, cap_label",
            spec_digest,
        )
        return [
            {
                "workload": r["workload"],
                "cap_label": r["cap_label"],
                "row": json.loads(r["row_json"]),
            }
            for r in rows
        ]

    def result_count(self) -> int:
        return self._fetch("SELECT COUNT(*) FROM results")[0][0]


class MemoryResultStore(ResultStoreBase):
    """In-process store: dicts under a lock, no durability.

    Holds exactly the JSON strings the SQLite backend would, so the
    two backends are byte-for-byte interchangeable for everything but
    persistence across restarts.
    """

    backend = "memory"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._jobs: Dict[str, dict] = {}
        self._results: Dict[str, Tuple[float, str]] = {}
        self._rows: Dict[str, List[Tuple[str, str, str]]] = {}

    # Jobs ---------------------------------------------------------------

    def record_job(self, job: Job) -> None:
        rec = self._job_to_record(job)
        with self._lock:
            self._jobs[job.id] = rec

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            rec = self._jobs.get(job_id)
        return self._job_from_record(rec) if rec else None

    def list_jobs(self, limit: int = 200) -> List[Job]:
        with self._lock:
            recs = sorted(
                self._jobs.values(),
                key=lambda r: r["created_at"],
                reverse=True,
            )[: int(limit)]
        return [self._job_from_record(r) for r in recs]

    def counts_by_state(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for rec in self._jobs.values():
                counts[rec["state"]] += 1
        return counts

    def pending_jobs(self) -> List[Job]:
        pending = (JobState.QUEUED.value, JobState.RUNNING.value)
        with self._lock:
            recs = sorted(
                (r for r in self._jobs.values() if r["state"] in pending),
                key=lambda r: r["created_at"],
            )
        return [self._job_from_record(r) for r in recs]

    # Results ------------------------------------------------------------

    def _put_result_json(
        self,
        spec_digest: str,
        created_at: float,
        result_json: str,
        rows: List[Tuple[str, str, str]],
    ) -> None:
        with self._lock:
            self._results[spec_digest] = (created_at, result_json)
            self._rows[spec_digest] = list(rows)

    def _get_result_json(self, spec_digest: str) -> Optional[str]:
        with self._lock:
            entry = self._results.get(spec_digest)
        return entry[1] if entry else None

    def has_result(self, spec_digest: str) -> bool:
        with self._lock:
            return spec_digest in self._results

    def result_rows(self, spec_digest: str) -> List[dict]:
        with self._lock:
            rows = list(self._rows.get(spec_digest, ()))
        return [
            {
                "workload": workload,
                "cap_label": cap_label,
                "row": json.loads(row_json),
            }
            for workload, cap_label, row_json in sorted(rows)
        ]

    def result_count(self) -> int:
        with self._lock:
            return len(self._results)


def open_store(spec: "str | os.PathLike | ResultStoreBase") -> ResultStoreBase:
    """Build a store from a URL-ish spec (or pass an instance through).

    - ``memory://`` → :class:`MemoryResultStore`
    - ``sqlite:///path/to.db`` or ``sqlite:path`` → SQLite at that path
    - ``postgres://…`` → rejected with a pointer (no bundled driver)
    - anything else → treated as a SQLite file path
    """
    if isinstance(spec, ResultStoreBase):
        return spec
    text = str(spec)
    if text == "memory://":
        return MemoryResultStore()
    if text.startswith(("postgres://", "postgresql://")):
        raise ConfigError(
            "no Postgres driver is bundled with this build; the "
            "ResultStore interface supports it — implement "
            "ResultStoreBase over your driver and pass the instance in"
        )
    if text.startswith("sqlite://"):
        # sqlite:///abs/path → /abs/path; sqlite://rel/path → rel/path
        text = text[len("sqlite://"):]
    return SQLiteResultStore(text)
