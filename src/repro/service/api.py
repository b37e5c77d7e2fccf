"""The experiment service: store + scheduler + the HTTP front end.

The HTTP API itself lives in :mod:`repro.service.routes` (one
:class:`~repro.service.routes.Router`).  This module provides:

- the **front end** — stdlib :mod:`http.server`, one thread per
  connection; the stdlib supplies request parsing, the 400/501/505
  replies and HTTP/1.0 close semantics, and :class:`_Handler` adds a
  read deadline and ``Content-Length`` validation;
- :class:`ExperimentService` — the composition root wiring the result
  store, scheduler, admission controller, optional shard pool,
  optional archive recorder, and the front end.

Endpoints (see ``docs/SERVICE.md`` for payloads):

====================  =====================================================
``POST /jobs``        submit a sweep (JSON :class:`JobSpec` + ``priority``);
                      passes admission control (429/503 + ``Retry-After``)
``GET /jobs``         recent jobs, newest first
``GET /jobs/{id}``    one job's lifecycle record
``GET /jobs/{id}/result``  the stored sweep document once DONE
``GET /jobs/{id}/timeseries``  the sweep's telemetry timelines
``GET /jobs/{id}/stream``  live Server-Sent Events for an in-flight run
``GET /fleet/stream``  live fleet health rollup events (SSE)
``DELETE /jobs/{id}`` cancel a still-queued job
``GET /healthz``      liveness + queue depth + shard count
``GET /metrics``      Prometheus text exposition (version 0.0.4)
``GET /metrics/history``  archived scrape snapshots for one series
``GET /runs/compare`` per-series deltas between two archived runs
====================  =====================================================
"""

from __future__ import annotations

import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..errors import ConfigError
from ..obs.archive import MetricsRecorder, ObsArchive
from ..obs.logging import get_logger
from ..obs.metrics import ServiceMetrics
from .admission import AdmissionController
from .routes import (
    MAX_BODY_BYTES,
    Request,
    Response,
    Router,
    STREAM_POLL_S,
    StreamStart,
)
from .scheduler import ExperimentScheduler
from .shards import ShardPool, effective_shard_count
from .store import open_store

__all__ = ["ExperimentService"]

#: Read deadline (seconds) for a request's line, headers and body, and
#: for an idle keep-alive connection between requests.
IDLE_TIMEOUT_S = 120.0

#: Route dispatches that run at once (the stdlib executor's default
#: size).  Later requests wait their turn instead of contending for
#: the GIL, which bounds the tail latency of a burst of clients.
MAX_CONCURRENT_DISPATCH = min(32, (os.cpu_count() or 1) + 4)

_log = get_logger("service.api")


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter: parse with http.server, answer with the Router."""

    server: "_ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # Applied to the socket in setup(); a stalled read raises
    # TimeoutError, which handle_one_request turns into a close.
    timeout = IDLE_TIMEOUT_S

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if self.server.service.verbose:
            super().log_message(fmt, *args)

    def _handle(self) -> None:
        service = self.server.service
        raw_length = self.headers.get("Content-Length", "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            # The body's framing is unknown, so the connection closes.
            self.close_connection = True
            self._write_response(
                Response.json(400, {"error": "invalid Content-Length"})
            )
            return
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            # Read past the body without keeping it, so the connection
            # stays framed for keep-alive.
            while length > 0:
                chunk = self.rfile.read(min(length, 1 << 16))
                if not chunk:
                    break
                length -= len(chunk)
            self._write_response(
                Response.json(413, {"error": "request body too large"})
            )
            return
        body = self.rfile.read(length) if length else b""
        request = Request(
            method=self.command,
            target=self.path,
            headers={k.lower(): v for k, v in self.headers.items()},
            body=body,
            client=self.client_address[0],
        )
        with self.server.dispatch_slots:
            result = service.router.dispatch(request)
        if isinstance(result, StreamStart):
            self._serve_stream(result)
        else:
            self._write_response(result)

    do_GET = _handle  # noqa: N815 — http.server dispatch names
    do_POST = _handle  # noqa: N815
    do_DELETE = _handle  # noqa: N815
    do_PUT = _handle  # noqa: N815 — the router answers 405
    do_PATCH = _handle  # noqa: N815

    def _write_response(self, response: Response) -> None:
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers:
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # Client went away mid-reply.

    def _serve_stream(self, start: StreamStart) -> None:
        """Drive one SSE session on this connection's thread.

        SSE responses have no Content-Length; closing the connection
        is how HTTP/1.1 delimits the (unbounded) body.
        """
        session = start.session
        self.send_response(start.status)
        self.send_header("Content-Type", start.content_type)
        for name, value in start.headers:
            self.send_header(name, value)
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            while True:
                frames, done = session.poll()
                for frame in frames:
                    self.wfile.write(frame)
                if frames:
                    self.wfile.flush()
                if done:
                    return
                session.subscription.wait(STREAM_POLL_S)
        except (BrokenPipeError, ConnectionResetError):
            pass  # Client went away; nothing to clean up but the sub.
        finally:
            session.close()


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Listen backlog: the stdlib default of 5 overflows when a burst
    # of clients (e.g. 100 SSE subscribers) connects at once.
    request_queue_size = 128
    service: "ExperimentService"
    dispatch_slots: threading.BoundedSemaphore


class ExperimentService:
    """The long-lived service: store + scheduler + HTTP front end.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`) — the tests and the CI smoke job rely on this.
    ``shards >= 2`` moves simulation into partitioned worker processes
    (with the usual single-core fallback to in-process execution).
    ``frontend`` accepts only ``"thread"``, the one front end.
    """

    def __init__(
        self,
        db_path: "str | os.PathLike",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        rate_cache: "str | os.PathLike | None" = None,
        max_attempts: int = 3,
        slice_accesses: int = 320_000,
        recover: bool = True,
        verbose: bool = False,
        batch: "bool | None" = None,
        archive: "ObsArchive | str | os.PathLike | None" = None,
        archive_period_s: float = 5.0,
        frontend: str = "thread",
        shards: int = 0,
        admission_rate: float = 200.0,
        admission_burst: float = 400.0,
        max_queue_depth: int = 1024,
    ) -> None:
        if frontend != "thread":
            raise ConfigError(
                f"unknown frontend {frontend!r}; the only choice is 'thread'"
            )
        self.verbose = bool(verbose)
        self.store = open_store(db_path)
        self.metrics = ServiceMetrics()
        self._stopping = threading.Event()
        if archive is not None and not isinstance(archive, ObsArchive):
            archive = ObsArchive(archive)
        self.archive: Optional[ObsArchive] = archive
        # The recorder thread scrapes every panel straight into the
        # archive (no HTTP round-trip) while the service runs.
        self._recorder: Optional[MetricsRecorder] = (
            None
            if archive is None
            else MetricsRecorder(
                archive, self.metrics.sample_all, period_s=archive_period_s
            )
        )
        # Shard pool (with the single-core in-process fallback).  When
        # sharded, each shard owns its own rate-cache partition and the
        # scheduler's in-process cache stays unopened.
        n_shards = effective_shard_count(shards)
        self._shard_pool: Optional[ShardPool] = (
            ShardPool(
                n_shards,
                rate_cache=rate_cache,
                slice_accesses=slice_accesses,
                batch=batch,
            )
            if n_shards >= 2
            else None
        )
        self.scheduler = ExperimentScheduler(
            self.store,
            workers=workers,
            rate_cache=None if self._shard_pool is not None else rate_cache,
            metrics=self.metrics,
            max_attempts=max_attempts,
            slice_accesses=slice_accesses,
            batch=batch,
            archive=archive,
            shard_pool=self._shard_pool,
        )
        self.admission = AdmissionController(
            rate=admission_rate,
            burst=admission_burst,
            max_queue_depth=max_queue_depth,
            queue_depth=self.scheduler.queue_depth,
        )
        self.admission.bind_drain_rate(self.scheduler.drain_rate)
        self.metrics.bind_admission(self.admission)
        if recover:
            self.scheduler.recover()
        self.router = Router(self)
        self._httpd = _ServiceHTTPServer((host, int(port)), _Handler)
        self._httpd.service = self
        self._httpd.dispatch_slots = threading.BoundedSemaphore(
            MAX_CONCURRENT_DISPATCH
        )
        self._serve_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stopping(self) -> bool:
        """Whether a graceful shutdown has begun (SSE streams close)."""
        return self._stopping.is_set()

    @property
    def shard_pool(self) -> Optional[ShardPool]:
        """The partitioned worker pool (None when unsharded)."""
        return self._shard_pool

    @property
    def host(self) -> str:
        """Bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when 0 was requested)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running API."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _start_backends(self, start_workers: bool) -> None:
        if self._shard_pool is not None:
            self._shard_pool.start()
        if start_workers:
            self.scheduler.start()
        if self._recorder is not None:
            self._recorder.snapshot_once()
            self._recorder.start()

    def start(self, start_workers: bool = True) -> None:
        """Start workers and serve HTTP on a background thread.

        ``start_workers=False`` brings up the API with an idle
        scheduler (jobs queue but never run) — useful for tests that
        need to observe pre-execution states deterministically.
        """
        self._start_backends(start_workers)
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-http",
                daemon=True,
            )
            self._serve_thread.start()
            _log.info(
                "service_started",
                url=self.url,
                workers=self.scheduler.workers,
                shards=self.scheduler.effective_shards,
            )

    def serve_forever(self) -> None:
        """Start workers and serve HTTP on the calling thread."""
        self._start_backends(start_workers=True)
        self._httpd.serve_forever()

    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful stop: shed, close streams, drain, flush, exit.

        Ordering matters and is part of the contract:

        1. admission starts shedding (503 ``shutting_down``) and
           :attr:`stopping` flips, so SSE sessions emit their terminal
           ``end`` frame on the next poll;
        2. the front end stops (open streams notice within one poll);
        3. the scheduler stops — with ``drain`` it finishes everything
           queued, without it queued jobs are re-recorded for restart
           recovery and only in-flight jobs are awaited — then flushes
           the rate cache (or every shard partition, via the pool);
        4. the archive recorder takes a final snapshot and stops.

        Idempotent; safe to call from a signal-handler thread.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.admission.begin_shutdown()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.scheduler.shutdown(drain=drain, timeout=timeout)
        if self._recorder is not None:
            # Final scrape after the drain so the archived history
            # ends on the service's terminal state.
            self._recorder.stop(final_snapshot=True)
        self.store.close()
