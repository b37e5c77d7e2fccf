"""Job model and priority queue for the experiment service.

A *job* is one sweep request: the paper's methodology (workload, cap
range, repetitions) plus execution knobs (seed, instruction-budget
scale).  :class:`JobSpec` is frozen and canonically hashable — its
:meth:`~JobSpec.digest` keys the persistent result store, so two
submissions that would simulate the same thing deduplicate to one
stored result.

:class:`JobQueue` is the scheduler's work source: a thread-safe
priority queue (higher ``priority`` pops first, FIFO within a
priority) with delayed re-entry for retry backoff and lazy removal of
cancelled jobs.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import threading
import time
import uuid
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import PAPER_POWER_CAPS_W
from ..core.experiment import validate_caps
from ..errors import ConfigError
from ..rng import DEFAULT_SEED
from ..workloads import WORKLOAD_REGISTRY

__all__ = [
    "JobState",
    "JobSpec",
    "Job",
    "JobQueue",
    "caps_from_range",
]


class JobState(str, Enum):
    """Lifecycle: QUEUED -> RUNNING -> DONE / FAILED / CANCELLED."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def caps_from_range(
    cap_max_w: float, cap_min_w: float, step_w: float = 5.0
) -> Tuple[float, ...]:
    """The descending cap list for an inclusive [min, max] range.

    Mirrors the paper's 160 -> 120 W walk: ``caps_from_range(160, 120)``
    is exactly the nine studied caps.  Inverted ranges (min > max) and
    non-positive steps raise :class:`~repro.errors.ConfigError` instead
    of yielding an empty sweep silently.
    """
    try:
        hi, lo, step = float(cap_max_w), float(cap_min_w), float(step_w)
    except (TypeError, ValueError):
        raise ConfigError(
            f"cap range bounds must be numbers, got "
            f"({cap_max_w!r}, {cap_min_w!r}, {step_w!r})"
        )
    if not (math.isfinite(hi) and math.isfinite(lo) and math.isfinite(step)):
        raise ConfigError("cap range bounds must be finite")
    if step <= 0:
        raise ConfigError(f"cap range step must be > 0 W, got {step:g}")
    if lo > hi:
        raise ConfigError(
            f"inverted cap range: min {lo:g} W > max {hi:g} W"
        )
    caps: List[float] = []
    cap = hi
    while cap >= lo - 1e-9:
        caps.append(round(cap, 6))
        cap -= step
    return tuple(validate_caps(caps))


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines a sweep's result.

    ``digest()`` covers every field, so equal digests mean equal
    simulated output (the engine is deterministic in these inputs) —
    the property the store's dedup relies on.
    """

    workload: str = "stereo"
    caps_w: Tuple[float, ...] = tuple(PAPER_POWER_CAPS_W)
    repetitions: int = 1
    seed: int = DEFAULT_SEED
    scale: float = 0.05

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_REGISTRY:
            raise ConfigError(
                f"unknown workload {self.workload!r}; choose from "
                f"{sorted(WORKLOAD_REGISTRY)}"
            )
        object.__setattr__(
            self, "caps_w", tuple(validate_caps(self.caps_w))
        )
        if int(self.repetitions) < 1:
            raise ConfigError("repetitions must be >= 1")
        object.__setattr__(self, "repetitions", int(self.repetitions))
        scale = float(self.scale)
        if not math.isfinite(scale) or scale <= 0:
            raise ConfigError(
                f"scale must be finite and > 0, got {self.scale!r}"
            )
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "seed", int(self.seed))

    def digest(self) -> str:
        """Stable content hash; the result store's primary key."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "workload": self.workload,
            "caps_w": list(self.caps_w),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from an API payload.

        Accepts either an explicit ``caps_w`` list or the range form
        ``cap_max_w`` / ``cap_min_w`` / ``cap_step_w``; unknown keys are
        rejected so typos fail loudly instead of silently running the
        default sweep.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"job spec must be an object, got {data!r}")
        range_keys = {"cap_max_w", "cap_min_w", "cap_step_w"}
        known = {f.name for f in fields(cls)} | range_keys
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown job spec fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        kwargs = {
            k: v for k, v in data.items() if k in {f.name for f in fields(cls)}
        }
        if range_keys & set(data):
            if "caps_w" in data:
                raise ConfigError(
                    "give either caps_w or a cap_max_w/cap_min_w range, "
                    "not both"
                )
            missing = {"cap_max_w", "cap_min_w"} - set(data)
            if missing:
                raise ConfigError(
                    f"cap range needs both bounds; missing {sorted(missing)}"
                )
            kwargs["caps_w"] = caps_from_range(
                data["cap_max_w"],
                data["cap_min_w"],
                data.get("cap_step_w", 5.0),
            )
        return cls(**kwargs)


@dataclass
class Job:
    """One submission's mutable lifecycle record."""

    spec: JobSpec
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    priority: int = 0
    state: JobState = JobState.QUEUED
    attempts: int = 0
    max_attempts: int = 3
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: True when the result came from the store, not a fresh sweep.
    deduplicated: bool = False

    @property
    def spec_digest(self) -> str:
        """The spec's content hash (result-store key)."""
        return self.spec.digest()

    def to_dict(self) -> dict:
        """JSON-ready representation for the API and the store."""
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec_digest,
            "priority": self.priority,
            "state": self.state.value,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deduplicated": self.deduplicated,
        }


class JobQueue:
    """Thread-safe priority queue with delayed (backoff) re-entry.

    Higher ``priority`` pops first; within a priority, submission
    order.  Retries re-enter through ``push(job, delay_s=...)`` and
    stay invisible until their backoff elapses.  Cancellation is lazy:
    a job whose state is no longer QUEUED is dropped at pop time.
    """

    def __init__(self) -> None:
        self._ready: List[Tuple[int, int, Job]] = []  # (-priority, seq, job)
        self._delayed: List[Tuple[float, int, Job]] = []  # (ready_at, seq, job)
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._closed = False

    def push(self, job: Job, delay_s: float = 0.0) -> None:
        """Enqueue a job, optionally invisible for ``delay_s`` seconds."""
        with self._cond:
            if self._closed:
                raise ConfigError("queue is closed")
            seq = next(self._seq)
            if delay_s > 0:
                heapq.heappush(
                    self._delayed, (time.monotonic() + delay_s, seq, job)
                )
            else:
                heapq.heappush(self._ready, (-job.priority, seq, job))
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next runnable job; None on timeout or when closed and empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                # Promote ripe delayed entries, drop cancelled ones.
                while self._delayed and self._delayed[0][0] <= now:
                    _, seq, job = heapq.heappop(self._delayed)
                    if job.state is JobState.QUEUED:
                        heapq.heappush(self._ready, (-job.priority, seq, job))
                while self._ready:
                    _, _, job = heapq.heappop(self._ready)
                    if job.state is JobState.QUEUED:
                        return job
                if self._closed and not self._delayed:
                    return None
                waits = []
                if self._delayed:
                    waits.append(self._delayed[0][0] - now)
                if deadline is not None:
                    if now >= deadline:
                        return None
                    waits.append(deadline - now)
                self._cond.wait(min(waits) if waits else None)

    def close(self, discard: bool = False) -> List[Job]:
        """Stop accepting work and wake every blocked :meth:`pop`.

        With ``discard`` the queue also empties itself and returns the
        jobs that were still waiting (ready or in backoff, still
        QUEUED) — the graceful-shutdown path re-records them so a
        restart recovers exactly what was abandoned.  Without it, the
        default drain semantics hold: workers keep popping until the
        ready heap is empty.
        """
        with self._cond:
            self._closed = True
            discarded: List[Job] = []
            if discard:
                discarded = [
                    job
                    for _, _, job in itertools.chain(
                        self._ready, self._delayed
                    )
                    if job.state is JobState.QUEUED
                ]
                self._ready.clear()
                self._delayed.clear()
            self._cond.notify_all()
            return discarded

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    def depth(self) -> int:
        """Live QUEUED entries (ready + in backoff)."""
        with self._cond:
            return sum(
                1
                for _, _, job in itertools.chain(self._ready, self._delayed)
                if job.state is JobState.QUEUED
            )
