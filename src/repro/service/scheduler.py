"""Scheduler: a thread worker pool draining the job queue.

Each worker pops the highest-priority queued job, builds the paper's
:class:`~repro.core.experiment.PowerCapExperiment` from the spec, and
runs its sweep in-process through ``run_all()``, as the CLI does.
All workers share one :class:`~repro.core.ratecache.RateCache`, so
distinct jobs over the same (workload, geometry, gating) skip trace
simulation entirely.

Failure containment: an exception inside a sweep marks the attempt,
re-queues the job with exponential backoff while attempts remain, and
moves it to FAILED once the retry budget is spent.  ``shutdown`` can
drain (finish everything queued) or stop after in-flight jobs.

Dedup: submission and execution both consult the result store by spec
digest — an identical spec is answered from SQLite, never re-simulated.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

import os

from ..core.experiment import ExperimentResult, PowerCapExperiment
from ..core.ratecache import RateCache
from ..errors import ReproError
from ..obs.archive import ObsArchive, distill_experiment_doc
from ..obs.logging import get_logger
from ..obs.metrics import ServiceMetrics
from ..obs.stream import JOB_TOPIC_PREFIX, event_bus, stream_context
from ..obs.tracing import span
from ..workloads import make_workload
from .jobs import Job, JobQueue, JobSpec, JobState
from .shards import ShardPool
from .store import ResultStoreBase

__all__ = ["ExperimentScheduler"]

_log = get_logger("service.scheduler")


class ExperimentScheduler:
    """Submit/schedule/store orchestration over a thread worker pool."""

    def __init__(
        self,
        store: ResultStoreBase,
        workers: int = 2,
        rate_cache: "RateCache | str | os.PathLike | None" = None,
        metrics: Optional[ServiceMetrics] = None,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.5,
        slice_accesses: int = 320_000,
        archive: Optional[ObsArchive] = None,
        shard_pool: Optional[ShardPool] = None,
    ) -> None:
        self._store = store
        self._archive = archive
        self._queue = JobQueue()
        self._workers = max(1, int(workers))
        if rate_cache is not None and not isinstance(rate_cache, RateCache):
            rate_cache = RateCache(rate_cache)
        self._rate_cache: Optional[RateCache] = rate_cache
        self._shard_pool = shard_pool
        self.metrics = metrics or ServiceMetrics()
        self._max_attempts = max(1, int(max_attempts))
        self._retry_backoff_s = float(retry_backoff_s)
        self._slice_accesses = int(slice_accesses)
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.RLock()
        self._threads: List[threading.Thread] = []
        self._running = 0
        self._idle = threading.Condition(self._lock)
        self._started = False
        #: Recent completion stamps, for the admission gate's
        #: drain-aware Retry-After estimate.
        self._completions: "deque[float]" = deque(maxlen=256)
        self.metrics.bind(
            queue_depth=self._queue.depth,
            jobs_by_state=self._counts_by_state_float,
            cache_hits=self._cache_hits_total,
            cache_misses=self._cache_misses_total,
        )
        self.metrics.bind_shards(lambda: float(self.effective_shards))

    def _cache_hits_total(self) -> float:
        hits = self._rate_cache.hits if self._rate_cache else 0
        if self._shard_pool is not None:
            hits += self._shard_pool.cache_hits
        return float(hits)

    def _cache_misses_total(self) -> float:
        misses = self._rate_cache.misses if self._rate_cache else 0
        if self._shard_pool is not None:
            misses += self._shard_pool.cache_misses
        return float(misses)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rate_cache(self) -> Optional[RateCache]:
        """The shared cross-job rate cache (None when disabled)."""
        return self._rate_cache

    @property
    def workers(self) -> int:
        """Size of the worker pool."""
        return self._workers

    @property
    def effective_shards(self) -> int:
        """Shard processes actually running (0 = in-process execution)."""
        return self._shard_pool.shards if self._shard_pool is not None else 0

    @property
    def shard_pool(self) -> Optional[ShardPool]:
        """The partitioned worker pool (None when unsharded)."""
        return self._shard_pool

    def drain_rate(self) -> float:
        """Recent completion throughput (jobs/s) over a 30 s window.

        Feeds the admission gate's queue-full ``Retry-After`` estimate;
        0.0 until at least two completions land inside the window.
        """
        now = time.monotonic()
        with self._lock:
            recent = [t for t in self._completions if now - t <= 30.0]
        if len(recent) < 2:
            return 0.0
        window = max(1e-6, recent[-1] - recent[0])
        return (len(recent) - 1) / window

    def queue_depth(self) -> int:
        """Jobs queued (including retry backoff) and not yet running."""
        return self._queue.depth()

    def counts_by_state(self) -> Dict[str, int]:
        """``{state value: count}`` over every job this process knows."""
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state.value] += 1
        return counts

    def _counts_by_state_float(self) -> Dict[str, float]:
        return {k: float(v) for k, v in self.counts_by_state().items()}

    def jobs(self) -> List[Job]:
        """Every job known to this process, newest first."""
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda j: j.created_at, reverse=True
            )

    def get(self, job_id: str) -> Optional[Job]:
        """One job by id — live registry first, then the store."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        return self._store.get_job(job_id)

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        priority: int = 0,
        max_attempts: Optional[int] = None,
    ) -> Job:
        """Accept one sweep request; returns its lifecycle record.

        If the result store already holds this spec's digest the job is
        born DONE (``deduplicated=True``) and never touches the queue.
        """
        job = Job(
            spec=spec,
            priority=int(priority),
            max_attempts=max_attempts or self._max_attempts,
        )
        self.metrics.jobs_submitted.inc()
        if self._store.has_result(job.spec_digest):
            job.state = JobState.DONE
            job.deduplicated = True
            job.finished_at = time.time()
            self.metrics.dedup_hits.inc()
            self.metrics.jobs_completed.inc()
        with self._lock:
            self._jobs[job.id] = job
        self._store.record_job(job)
        _log.info(
            "job_submitted",
            job_id=job.id,
            spec_digest=job.spec_digest,
            workload=spec.workload,
            priority=job.priority,
            deduplicated=job.deduplicated,
        )
        if job.state is JobState.QUEUED:
            self._queue.push(job)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job; False if unknown or already beyond QUEUED."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
        self._store.record_job(job)
        event_bus().publish(
            JOB_TOPIC_PREFIX + job.id,
            "job_cancelled",
            {"job_id": job.id},
        )
        return True

    def recover(self) -> int:
        """Re-queue jobs a previous process left QUEUED/RUNNING."""
        recovered = 0
        for job in self._store.pending_jobs():
            with self._lock:
                if job.id in self._jobs:
                    continue
                job.state = JobState.QUEUED
                self._jobs[job.id] = job
            self._store.record_job(job)
            self._queue.push(job)
            recovered += 1
        if recovered:
            _log.info("jobs_recovered", count=recovered)
        return recovered

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for i in range(self._workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queue.depth() > 0 or self._running > 0:
                wait = 0.1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._idle.wait(wait)
        return True

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = 60.0
    ) -> None:
        """Stop the pool; with ``drain`` finish all queued work first.

        Without ``drain``, queued jobs are discarded from the in-memory
        queue but stay QUEUED in the store — :meth:`recover` picks them
        up on the next start, so a fast shutdown loses no submissions.
        In-flight jobs are always allowed to finish (a sweep is not
        interruptible mid-simulation without corrupting its attempt
        accounting).
        """
        if drain:
            self.drain(timeout)
            self._queue.close()
        else:
            discarded = self._queue.close(discard=True)
            for job in discarded:
                # Still QUEUED: persist that state so recover() re-runs
                # them after restart.
                self._store.record_job(job)
            if discarded:
                _log.info("jobs_deferred", count=len(discarded))
            # Wait (bounded) for in-flight jobs to land.
            deadline = time.monotonic() + (timeout or 0.0)
            with self._idle:
                while self._running > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._idle.wait(min(0.1, remaining))
        for t in self._threads:
            t.join(timeout=5.0)
        if self._rate_cache is not None:
            self._rate_cache.save()
        if self._shard_pool is not None:
            self._shard_pool.shutdown()

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.pop(timeout=0.2)
            if job is None:
                if self._queue.closed:
                    return
                continue
            with self._lock:
                self._running += 1
            try:
                self._run_job(job)
            finally:
                with self._idle:
                    self._running -= 1
                    self._idle.notify_all()

    def _run_spec(self, spec: JobSpec) -> Dict[str, ExperimentResult]:
        workload = make_workload(spec.workload, spec.scale)
        experiment = PowerCapExperiment(
            [workload],
            caps_w=spec.caps_w,
            repetitions=spec.repetitions,
            seed=spec.seed,
            slice_accesses=self._slice_accesses,
            rate_cache=self._rate_cache,
        )
        return experiment.run_all()

    def _archive_run(self, job: Job, doc: dict, wall_s: float) -> None:
        """Distill one freshly simulated job's stored document into the
        archive.

        Dedup-answered jobs are skipped upstream — their twin already
        landed a record, and re-recording would double-count.  Archive
        faults must never fail a job that just finished simulating.
        """
        if self._archive is None:
            return
        try:
            series, meta = distill_experiment_doc(doc, wall_s=wall_s)
            meta["spec_digest"] = job.spec_digest
            self._archive.record_run(
                job.id, "job", series, meta=meta, source="service"
            )
        except Exception as exc:  # noqa: BLE001 — archive is best-effort
            _log.warning(
                "archive_record_failed", job_id=job.id, error=str(exc)
            )

    def _run_job(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_at = time.time()
        job.attempts += 1
        self._store.record_job(job)
        _log.info(
            "job_started",
            job_id=job.id,
            workload=job.spec.workload,
            attempt=job.attempts,
        )
        topic = JOB_TOPIC_PREFIX + job.id
        event_bus().publish(
            topic,
            "job_started",
            {
                "job_id": job.id,
                "workload": job.spec.workload,
                "attempt": job.attempts,
            },
        )
        t0 = time.perf_counter()
        try:
            # A duplicate that queued before its twin finished can be
            # answered from the store the moment it reaches a worker.
            if self._store.has_result(job.spec_digest):
                job.deduplicated = True
                self.metrics.dedup_hits.inc()
            else:
                pool = self._shard_pool
                with span("job", job_id=job.id, workload=job.spec.workload):
                    # The stream context routes the sampler's bucket
                    # flushes and the phenomenon detectors into this
                    # job's topic for the SSE endpoint.
                    with stream_context(topic):
                        if pool is None:
                            sweeps = self._run_spec(job.spec)
                        else:
                            # The owning shard returns the serialized
                            # document, which is stored as it came.
                            doc = pool.run(job.spec_digest, job.spec.to_dict())
                if pool is None:
                    doc = self._store.put_result(job.spec_digest, sweeps)
                else:
                    self._store.put_result_doc(job.spec_digest, doc)
                self._archive_run(job, doc, time.perf_counter() - t0)
            job.state = JobState.DONE
            job.error = None
            job.finished_at = time.time()
            with self._lock:
                self._completions.append(time.monotonic())
            self.metrics.jobs_completed.inc()
            self.metrics.sweep_seconds.observe(time.perf_counter() - t0)
            _log.info(
                "job_done",
                job_id=job.id,
                deduplicated=job.deduplicated,
                wall_s=round(time.perf_counter() - t0, 6),
            )
            event_bus().publish(
                topic,
                "job_done",
                {
                    "job_id": job.id,
                    "deduplicated": job.deduplicated,
                    "wall_s": round(time.perf_counter() - t0, 6),
                },
            )
        except Exception as exc:  # noqa: BLE001 — worker crash containment
            job.error = f"{type(exc).__name__}: {exc}"
            if job.attempts < job.max_attempts and not isinstance(
                exc, ReproError
            ):
                # Transient crash: exponential backoff, back of the line.
                job.state = JobState.QUEUED
                self.metrics.job_retries.inc()
                self._store.record_job(job)
                _log.warning(
                    "job_retry",
                    job_id=job.id,
                    attempt=job.attempts,
                    max_attempts=job.max_attempts,
                    error=job.error,
                )
                event_bus().publish(
                    topic,
                    "job_retry",
                    {
                        "job_id": job.id,
                        "attempt": job.attempts,
                        "max_attempts": job.max_attempts,
                        "error": job.error,
                    },
                )
                self._queue.push(
                    job,
                    delay_s=self._retry_backoff_s * 2 ** (job.attempts - 1),
                )
                return
            job.state = JobState.FAILED
            job.finished_at = time.time()
            with self._lock:
                self._completions.append(time.monotonic())
            self.metrics.jobs_failed.inc()
            _log.error(
                "job_failed",
                job_id=job.id,
                attempts=job.attempts,
                error=job.error,
            )
            event_bus().publish(
                topic,
                "job_failed",
                {
                    "job_id": job.id,
                    "attempts": job.attempts,
                    "error": job.error,
                },
            )
        self._store.record_job(job)
