"""Live event streaming: a bounded pub/sub bus behind the SSE API.

Everything the observability layer records *after* a run — telemetry
buckets, phenomenon detections, job lifecycle transitions, fleet
health rollups — can also be watched *during* the run.  This module is
the transport: a process-wide, thread-safe publish/subscribe bus whose
subscribers are bounded (drop-oldest backpressure with an accurate
dropped-events counter) and whose topics keep a bounded replay history
so an HTTP client can reconnect with ``Last-Event-ID`` and miss
nothing that is still in the ring.

Design constraints, in order:

1. **Publishing never perturbs the simulation.**  Events carry plain
   JSON-ready dicts built from values the engine already computed; the
   bus draws no random numbers and touches no model state, so results
   are bit-identical with zero, one, or fifty subscribers (the tier-1
   suite asserts byte-equality of serialized results).
2. **Slow subscribers cannot stall publishers.**  ``publish`` only
   appends to bounded deques; a full subscriber queue drops its oldest
   event and counts the drop (``repro_stream_dropped_total``).  A
   subscriber that keeps up loses nothing.
3. **Runs that nobody watches pay (almost) nothing.**  Publishers in
   the engine are gated on a thread-local *stream context* installed
   by the job scheduler: CLI runs and benchmark loops have no context,
   so the per-bucket cost is one ``None`` check.

Topics are strings: ``job:<id>`` for one run's telemetry + detector +
lifecycle events, ``fleet`` for fleet health rollups.  Sequence
numbers are per-topic and monotonic from 1; they double as SSE event
ids, so ``Last-Event-ID: 17`` resumes after event 17.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "StreamEvent",
    "Subscription",
    "EventBus",
    "event_bus",
    "reset_event_bus",
    "stream_context",
    "current_stream",
    "stream_publish",
    "JOB_TOPIC_PREFIX",
    "FLEET_TOPIC",
    "TERMINAL_EVENT_KINDS",
]

JOB_TOPIC_PREFIX = "job:"
FLEET_TOPIC = "fleet"

#: Event kinds that end a job stream (the SSE handler closes cleanly
#: after forwarding one of these).
TERMINAL_EVENT_KINDS = frozenset({"job_done", "job_failed", "job_cancelled"})


class StreamEvent(NamedTuple):
    """One published event: per-topic sequence id, kind, JSON-ready data."""

    seq: int
    kind: str
    data: dict


class Subscription:
    """One subscriber's bounded view of a topic.

    Events land in a bounded deque; when full, the **oldest** queued
    event is dropped (and counted) so the subscriber always converges
    toward the live edge instead of stalling the publisher.
    """

    def __init__(self, topic: str, maxlen: int) -> None:
        self.topic = topic
        self.maxlen = int(maxlen)
        self.dropped = 0
        self._queue: Deque[StreamEvent] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def _offer(self, event: StreamEvent) -> bool:
        """Enqueue one event, dropping the oldest when full (bus-side).

        Returns True when an event was dropped to make room, so the
        bus can keep its process-wide dropped counter exact even with
        concurrent publishers.
        """
        with self._cond:
            if self._closed:
                return False
            dropped = len(self._queue) >= self.maxlen
            if dropped:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(event)
            self._cond.notify_all()
        return dropped

    def get(self, timeout: Optional[float] = None) -> Optional[StreamEvent]:
        """Next event, or None on timeout / after :meth:`close`."""
        with self._cond:
            if not self._queue and not self._closed:
                self._cond.wait(timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until an event is queued or the subscription closes.

        Unlike :meth:`get` this consumes nothing — poll-style callers
        (the shared SSE stream sessions) drain separately and use this
        only to sleep efficiently between polls.  Returns True when an
        event is waiting.
        """
        with self._cond:
            if not self._queue and not self._closed:
                self._cond.wait(timeout)
            return bool(self._queue)

    def pending(self) -> int:
        """Events currently queued."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Detach from the bus; wakes any blocked :meth:`get`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _Topic:
    """Bus-internal per-topic state (guarded by the bus lock)."""

    __slots__ = ("seq", "history", "subscribers")

    def __init__(self, history: int) -> None:
        self.seq = 0
        self.history: Deque[StreamEvent] = deque(maxlen=history)
        self.subscribers: List[Subscription] = []


class EventBus:
    """Bounded, thread-safe pub/sub with per-topic replay history.

    One lock guards topic state: ``subscribe`` snapshots the replay
    history and registers the subscriber atomically, so an attaching
    client sees every retained event exactly once with no gap between
    replay and live delivery — the property the SSE ``Last-Event-ID``
    contract needs.
    """

    def __init__(
        self, history: int = 512, queue_size: int = 1024
    ) -> None:
        if history < 1 or queue_size < 1:
            raise ValueError("history and queue_size must be >= 1")
        self._history = int(history)
        self._queue_size = int(queue_size)
        self._lock = threading.Lock()
        self._topics: Dict[str, _Topic] = {}
        self._published = 0
        self._dropped = 0

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(self, topic: str, kind: str, data: dict) -> int:
        """Publish one event; returns its per-topic sequence id.

        Events are retained in the topic's bounded history even with
        zero subscribers, so a client attaching mid-run can replay the
        recent past.
        """
        with self._lock:
            state = self._topics.get(topic)
            if state is None:
                state = self._topics[topic] = _Topic(self._history)
            state.seq += 1
            event = StreamEvent(state.seq, kind, data)
            state.history.append(event)
            self._published += 1
            subscribers = list(state.subscribers)
        drops = sum(1 for sub in subscribers if sub._offer(event))
        if drops:
            with self._lock:
                self._dropped += drops
        return event.seq

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------

    def subscribe(
        self,
        topic: str,
        last_event_id: Optional[int] = None,
        queue_size: Optional[int] = None,
    ) -> Subscription:
        """Attach to ``topic``, replaying retained history first.

        ``last_event_id`` skips events with ``seq <= last_event_id``
        (the SSE reconnect contract); None replays everything still in
        the ring.  The replay snapshot and the live registration happen
        under one lock, so no event is missed or duplicated across the
        boundary.
        """
        sub = Subscription(topic, queue_size or self._queue_size)
        floor = -1 if last_event_id is None else int(last_event_id)
        with self._lock:
            state = self._topics.get(topic)
            if state is None:
                state = self._topics[topic] = _Topic(self._history)
            replay = [e for e in state.history if e.seq > floor]
            state.subscribers.append(sub)
        for event in replay:
            sub._offer(event)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach ``sub`` (idempotent) and close it."""
        with self._lock:
            state = self._topics.get(sub.topic)
            if state is not None and sub in state.subscribers:
                state.subscribers.remove(sub)
        sub.close()

    # ------------------------------------------------------------------
    # Introspection (feeds the stream metrics panel)
    # ------------------------------------------------------------------

    def published_total(self) -> int:
        """Events published across all topics since construction."""
        with self._lock:
            return self._published

    def dropped_total(self) -> int:
        """Events dropped by slow subscribers, bus-wide."""
        with self._lock:
            return self._dropped

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        """Live subscribers on ``topic`` (or bus-wide when None)."""
        with self._lock:
            if topic is not None:
                state = self._topics.get(topic)
                return len(state.subscribers) if state else 0
            return sum(len(t.subscribers) for t in self._topics.values())

    def has_subscribers(self, topic: str) -> bool:
        """Cheap gate for publishers with per-tick cadence."""
        with self._lock:
            state = self._topics.get(topic)
            return bool(state and state.subscribers)

    def last_seq(self, topic: str) -> int:
        """The topic's latest sequence id (0 before any publish)."""
        with self._lock:
            state = self._topics.get(topic)
            return state.seq if state else 0

    def topics(self) -> List[str]:
        """Topic names that have seen a publish or a subscribe."""
        with self._lock:
            return sorted(self._topics)


_bus_lock = threading.Lock()
_bus: "EventBus | None" = None


def event_bus() -> EventBus:
    """The process-wide :class:`EventBus` singleton."""
    global _bus
    if _bus is None:
        with _bus_lock:
            if _bus is None:
                _bus = EventBus()
    return _bus


def reset_event_bus() -> None:
    """Discard the singleton (tests only — live subscriptions orphan)."""
    global _bus
    with _bus_lock:
        _bus = None


# ----------------------------------------------------------------------
# Thread-local stream context
# ----------------------------------------------------------------------

_ctx = threading.local()


@contextmanager
def stream_context(topic: str):
    """Route this thread's engine publishers to ``topic``.

    Installed by the job scheduler around each sweep so the
    :class:`~repro.obs.timeseries.TelemetrySampler` and the phenomenon
    detectors publish into the job's stream without any plumbing
    through the engine layers.  Nests (inner context wins).
    """
    prev = getattr(_ctx, "topic", None)
    _ctx.topic = topic
    try:
        yield
    finally:
        _ctx.topic = prev


def current_stream() -> Optional[str]:
    """The active stream topic on this thread, or None."""
    return getattr(_ctx, "topic", None)


def stream_publish(kind: str, data: dict) -> Optional[int]:
    """Publish into this thread's stream context (no-op without one).

    The single call engine-side publishers make: one attribute read
    when no context is installed, so unobserved runs stay free.
    """
    topic = getattr(_ctx, "topic", None)
    if topic is None:
        return None
    return event_bus().publish(topic, kind, data)
