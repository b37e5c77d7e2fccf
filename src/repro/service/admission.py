"""Admission control for the serving plane: rate limits + backpressure.

Under heavy traffic the job queue must never grow without bound and a
single hot client must never starve everyone else.  This module is the
gate every ``POST /jobs`` passes before a job object is even built:

- **per-client token buckets** — each client (the ``X-Client-Id``
  header when present, else the peer address) gets a refilling bucket;
  an empty bucket sheds the request with ``429 Too Many Requests``;
- **a bounded admission queue** — when the scheduler's queue depth has
  reached ``max_queue_depth``, further submissions shed with ``503
  Service Unavailable`` (the queue is the backpressure signal: clients
  should retry after the drain catches up);
- **drain-aware Retry-After** — every shed response carries a
  ``Retry-After`` header: bucket refill time for rate sheds, a load
  factor times the recent drain rate for queue sheds;
- **shed accounting** — sheds are counted per reason and exposed on
  ``/metrics`` as ``repro_admission_shed_total{reason=...}``, so load
  shedding is observable, not silent.

Decisions are O(1) under one lock and never block; every HTTP handler
thread shares the one controller.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import ConfigError

__all__ = ["TokenBucket", "Admission", "AdmissionController"]

#: Shed reasons, in exposition order.
SHED_REASONS = ("rate_limit", "queue_full", "shutting_down")


class TokenBucket:
    """A refilling token bucket (``rate`` tokens/s, ``burst`` capacity).

    Not thread-safe by itself — the controller serializes access; kept
    separate so the refill arithmetic is unit-testable.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst < 1:
            raise ConfigError(
                f"token bucket needs rate > 0 and burst >= 1, got "
                f"rate={rate!r} burst={burst!r}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = time.monotonic()

    def try_acquire(self, now: Optional[float] = None) -> bool:
        """Take one token if available; refills lazily from elapsed time."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self.stamp)
        self.stamp = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def seconds_until_token(self) -> float:
        """Wall seconds until one token will be available (0 if now)."""
        deficit = 1.0 - self.tokens
        return max(0.0, deficit / self.rate)


@dataclass(frozen=True)
class Admission:
    """One admission decision."""

    admitted: bool
    #: Why the request was shed (``rate_limit`` / ``queue_full`` /
    #: ``shutting_down``); None when admitted.
    reason: Optional[str] = None
    #: HTTP status a shedding front end should answer with.
    status: int = 0
    #: Seconds the client should wait before retrying (``Retry-After``).
    retry_after_s: float = 0.0


class AdmissionController:
    """Shared admission gate for every submission path.

    ``queue_depth`` is read through a callback so the decision always
    sees the scheduler's live depth; the per-client bucket table is
    LRU-bounded (``max_clients``) so an open service cannot be grown
    without bound by spoofed client ids.
    """

    def __init__(
        self,
        rate: float = 200.0,
        burst: float = 400.0,
        max_queue_depth: int = 1024,
        max_clients: int = 4096,
        queue_depth: Optional[Callable[[], int]] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self._rate = float(rate)
        self._burst = float(burst)
        self.max_queue_depth = int(max_queue_depth)
        self._max_clients = max(1, int(max_clients))
        self._queue_depth = queue_depth or (lambda: 0)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._lock = threading.Lock()
        self._shutting_down = False
        self._shed: Dict[str, int] = {r: 0 for r in SHED_REASONS}
        self._admitted = 0
        # Recent drain rate (jobs/s) reported by the scheduler; feeds
        # the queue-full Retry-After estimate.  A bound callback (the
        # scheduler's live window) wins over noted values.
        self._drain_rate = 0.0
        self._drain_rate_cb: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind_queue_depth(self, callback: Callable[[], int]) -> None:
        """Attach the live queue-depth callback (scheduler start)."""
        self._queue_depth = callback

    def note_drain_rate(self, jobs_per_s: float) -> None:
        """Record the scheduler's recent drain throughput."""
        with self._lock:
            self._drain_rate = max(0.0, float(jobs_per_s))

    def bind_drain_rate(self, callback: Callable[[], float]) -> None:
        """Attach a live drain-rate callback (overrides noted values)."""
        self._drain_rate_cb = callback

    def begin_shutdown(self) -> None:
        """Shed all further submissions with 503 (graceful drain)."""
        with self._lock:
            self._shutting_down = True

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------

    def admit(self, client_id: str) -> Admission:
        """Admit or shed one submission for ``client_id``."""
        with self._lock:
            if self._shutting_down:
                self._shed["shutting_down"] += 1
                return Admission(
                    False, "shutting_down", 503, retry_after_s=5.0
                )
            depth = self._queue_depth()
            if depth >= self.max_queue_depth:
                self._shed["queue_full"] += 1
                # Estimate how long the backlog takes to drain below
                # the cap; clamp to something a client will honor.
                drain = self._drain_rate
                if self._drain_rate_cb is not None:
                    try:
                        drain = max(drain, float(self._drain_rate_cb()))
                    except Exception:  # noqa: BLE001 — estimate only
                        pass
                eta = depth / drain if drain > 0 else 1.0
                return Admission(
                    False,
                    "queue_full",
                    503,
                    retry_after_s=min(60.0, max(1.0, eta)),
                )
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(self._rate, self._burst)
                self._buckets[client_id] = bucket
                if len(self._buckets) > self._max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client_id)
            if not bucket.try_acquire():
                self._shed["rate_limit"] += 1
                return Admission(
                    False,
                    "rate_limit",
                    429,
                    retry_after_s=max(
                        0.05, round(bucket.seconds_until_token(), 3)
                    ),
                )
            self._admitted += 1
            return Admission(True)

    # ------------------------------------------------------------------
    # Introspection (feeds /metrics)
    # ------------------------------------------------------------------

    @property
    def shutting_down(self) -> bool:
        """Whether :meth:`begin_shutdown` has run."""
        return self._shutting_down

    def shed_counts(self) -> Dict[str, float]:
        """``{reason: sheds}`` since construction (all reasons present)."""
        with self._lock:
            return {k: float(v) for k, v in self._shed.items()}

    def admitted_total(self) -> int:
        """Submissions that passed admission since construction."""
        with self._lock:
            return self._admitted

    def client_count(self) -> int:
        """Distinct clients currently tracked (LRU-bounded)."""
        with self._lock:
            return len(self._buckets)
