"""The experiment service layer: submit / schedule / store / observe.

PR 1 made sweeps cheap; this package makes them *operable*.  Instead
of one-shot CLI invocations whose results live in ad-hoc JSON files,
a long-lived service accepts sweep jobs over HTTP, schedules them on
a worker pool (sharing one rate cache across all jobs), persists every
result durably keyed by the spec's content digest (identical
resubmissions are store hits, never re-simulated), and exposes its
health and throughput as Prometheus metrics.

- :mod:`.jobs` — the frozen :class:`JobSpec`, job lifecycle states,
  and the priority queue with retry backoff;
- :mod:`.scheduler` — the worker pool driving
  :class:`~repro.core.experiment.PowerCapExperiment`;
- :mod:`.shards` — partitioned worker processes routed by consistent
  hashing over spec digests, each owning a rate-cache partition;
- :mod:`.store` — the pluggable result store (SQLite default,
  in-memory for tests; URL-selected via :func:`open_store`);
- :mod:`.admission` — token-bucket rate limiting and bounded-queue
  backpressure in front of every submission;
- :mod:`.routes` — the HTTP API: every endpoint's semantics, once;
- :mod:`.api` — the threaded :mod:`http.server` front end +
  :class:`ExperimentService` composition root
  (``repro-powercap serve``).

The Prometheus primitives live in :mod:`repro.obs.metrics` and are
re-exported here for convenience.
"""

from ..obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)
from .admission import Admission, AdmissionController, TokenBucket
from .jobs import Job, JobQueue, JobSpec, JobState, caps_from_range
from .scheduler import ExperimentScheduler
from .shards import ShardPool, ShardRing, effective_shard_count
from .store import (
    MemoryResultStore,
    ResultStoreBase,
    SQLiteResultStore,
    open_store,
)
from .api import ExperimentService

__all__ = [
    "Admission",
    "AdmissionController",
    "TokenBucket",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "caps_from_range",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "ExperimentScheduler",
    "ShardPool",
    "ShardRing",
    "effective_shard_count",
    "MemoryResultStore",
    "ResultStoreBase",
    "SQLiteResultStore",
    "open_store",
    "ExperimentService",
]
