"""Partitioned worker shards: one process per rate-cache partition.

The scheduler's thread workers are fine for orchestration — lifecycle
transitions, store writes, retries — but the simulation itself is CPU
bound, and Python threads serialize it behind the GIL.  This module
moves the simulation into a pool of long-lived **shard processes**:

- jobs are routed to shards by **consistent hashing over the spec
  digest** (:class:`ShardRing`), so every spec lands on the same shard
  for the lifetime of the pool and each shard's rate-cache partition
  accumulates exactly the (workload, geometry, gating) rates its slice
  of the digest space needs — no cross-shard write contention, no
  duplicated trace simulation across restarts of the same spec;
- each shard owns a private :class:`~repro.core.ratecache.RateCache`
  partition file (``<rate_cache>.shard<k>``) opened read-write in the
  shard process only.  The parent observes partitions with
  ``RateCache(mode="ro")`` snapshots — it can count entries and report
  stats without ever writing another process's file;
- results cross the process boundary as the **serialized sweep
  document** (the exact ``experiment_to_dict`` JSON form the store
  persists), which the scheduler stores as it came, so the sharded
  path stores byte-identical documents to the in-process path.

Fan-out falls back to in-process execution where it cannot help: a
single-core host, or a requested shard count below 2.  The fallback
is recorded — ``effective_shards`` is 0 and a warning is logged.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

import multiprocessing as mp

from ..errors import ReproError, SimulationError
from ..obs.logging import get_logger

__all__ = ["ShardRing", "ShardPool", "effective_shard_count"]

_log = get_logger("service.shards")

#: Virtual nodes per shard on the hash ring.  Enough that adding one
#: shard moves ~1/N of the digest space, few enough that ring build
#: stays trivial.
_RING_REPLICAS = 64


class ShardRing:
    """Consistent hash ring mapping spec digests to shard indices."""

    def __init__(self, shards: int, replicas: int = _RING_REPLICAS) -> None:
        if shards < 1:
            raise SimulationError(f"need >= 1 shard, got {shards}")
        self.shards = int(shards)
        points: List[Tuple[int, int]] = []
        for shard in range(self.shards):
            for replica in range(int(replicas)):
                token = f"shard-{shard}-{replica}".encode()
                digest = hashlib.blake2b(token, digest_size=8).hexdigest()
                points.append((int(digest, 16), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, spec_digest: str) -> int:
        """The shard owning ``spec_digest`` (a hex digest string)."""
        key = int(
            hashlib.blake2b(
                spec_digest.encode(), digest_size=8
            ).hexdigest(),
            16,
        )
        idx = bisect.bisect(self._points, key)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]


def effective_shard_count(requested: int) -> int:
    """Shard count after the single-core fallback (0 = in-process).

    Process fan-out on a single-core host only adds dispatch overhead,
    so fall back to in-process execution with a logged warning.
    ``REPRO_SHARD_FORCE=1`` overrides (tests exercise real shard
    processes on any host).
    """
    requested = max(0, int(requested))
    if requested < 2:
        return 0
    if os.environ.get("REPRO_SHARD_FORCE", "") == "1":
        return requested
    cpus = os.cpu_count() or 1
    if cpus < 2:
        _log.warning(
            "shard_fallback",
            reason="single_core",
            cpu_count=cpus,
            requested_shards=requested,
        )
        return 0
    return min(requested, cpus)


def _shard_main(
    shard_id: int,
    req_q,
    resp_q,
    rate_cache_path: Optional[str],
    slice_accesses: int,
) -> None:
    """One shard process: warm runner state, serve until sentinel.

    Imports are deferred so a ``spawn`` start method only pays them in
    the child; the rate-cache partition is opened read-write here and
    nowhere else.
    """
    from ..core.experiment import PowerCapExperiment
    from ..core.ratecache import RateCache
    from ..core.serialize import experiment_to_dict
    from ..workloads import make_workload
    from .jobs import JobSpec

    cache = (
        RateCache(rate_cache_path) if rate_cache_path is not None else None
    )
    hits0 = misses0 = 0
    while True:
        msg = req_q.get()
        if msg is None:
            break
        t0 = time.perf_counter()
        try:
            spec = JobSpec.from_dict(msg["spec"])
            workload = make_workload(spec.workload, spec.scale)
            experiment = PowerCapExperiment(
                [workload],
                caps_w=spec.caps_w,
                repetitions=spec.repetitions,
                seed=spec.seed,
                slice_accesses=slice_accesses,
                rate_cache=cache,
            )
            sweeps = experiment.run_all()
            doc = {
                name: experiment_to_dict(result)
                for name, result in sweeps.items()
            }
            if cache is not None:
                cache.save()
                hits, misses = cache.hits, cache.misses
            else:
                hits = misses = 0
            resp_q.put(
                {
                    "ok": True,
                    "doc": doc,
                    "wall_s": time.perf_counter() - t0,
                    "cache_hits": hits - hits0,
                    "cache_misses": misses - misses0,
                }
            )
            hits0, misses0 = hits, misses
        except Exception as exc:  # noqa: BLE001 — crosses the pipe as data
            resp_q.put(
                {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "repro_error": isinstance(exc, ReproError),
                    "wall_s": time.perf_counter() - t0,
                }
            )
    if cache is not None:
        cache.close()


class ShardPool:
    """N shard processes, each owning one rate-cache partition.

    One in-flight job per shard (a shard is a single simulation loop;
    queueing more would only hide latency from the scheduler's retry
    accounting).  Thread-safe: scheduler workers serialize per shard
    through the shard's lock and block on its private response queue.
    """

    def __init__(
        self,
        shards: int,
        rate_cache: "str | os.PathLike | None" = None,
        slice_accesses: int = 320_000,
        start_timeout_s: float = 60.0,
    ) -> None:
        if shards < 2:
            raise SimulationError(
                f"a shard pool needs >= 2 shards, got {shards} "
                "(use in-process execution below that)"
            )
        self.shards = int(shards)
        self._rate_cache_base = (
            str(rate_cache) if rate_cache is not None else None
        )
        self._slice_accesses = int(slice_accesses)
        self._start_timeout_s = float(start_timeout_s)
        self._ring = ShardRing(self.shards)
        self._procs: List[mp.Process] = []
        self._req_qs: List = []
        self._resp_qs: List = []
        self._locks: List[threading.Lock] = []
        self._dispatched = [0] * self.shards
        self._stats_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def partition_path(self, shard: int) -> Optional[str]:
        """The rate-cache partition file shard ``shard`` owns."""
        if self._rate_cache_base is None:
            return None
        return f"{self._rate_cache_base}.shard{shard}"

    def start(self) -> None:
        """Spawn the shard processes (idempotent)."""
        if self._started:
            return
        ctx = mp.get_context()
        for shard in range(self.shards):
            req_q = ctx.Queue()
            resp_q = ctx.Queue()
            proc = ctx.Process(
                target=_shard_main,
                name=f"repro-shard-{shard}",
                args=(
                    shard,
                    req_q,
                    resp_q,
                    self.partition_path(shard),
                    self._slice_accesses,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
            self._req_qs.append(req_q)
            self._resp_qs.append(resp_q)
            self._locks.append(threading.Lock())
        self._started = True
        _log.info(
            "shard_pool_started",
            shards=self.shards,
            rate_cache=self._rate_cache_base or "off",
        )

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain-stop every shard: sentinel, join, terminate stragglers.

        Each shard flushes its rate-cache partition before exiting, so
        a graceful shutdown loses no memoized rates.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        for req_q in self._req_qs:
            try:
                req_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + float(timeout)
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                _log.warning(
                    "shard_terminated", shard=proc.name, graceful=False
                )
                proc.terminate()
                proc.join(timeout=5.0)
        _log.info("shard_pool_stopped", shards=self.shards)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def shard_for(self, spec_digest: str) -> int:
        """Which shard a digest routes to (exposed for tests/ops)."""
        return self._ring.shard_for(spec_digest)

    def run(self, spec_digest: str, spec_dict: dict) -> dict:
        """Run one spec on its owning shard; returns the serialized doc.

        Raises :class:`SimulationError` for deterministic simulation
        failures (no point retrying) and :class:`RuntimeError` for
        shard crashes (the scheduler's retry path treats those as
        transient).
        """
        if not self._started or self._closed:
            raise RuntimeError("shard pool is not running")
        shard = self._ring.shard_for(spec_digest)
        with self._locks[shard]:
            self._req_qs[shard].put({"spec": spec_dict})
            reply = self._await_reply(shard)
        with self._stats_lock:
            self._dispatched[shard] += 1
            self.cache_hits += int(reply.get("cache_hits", 0))
            self.cache_misses += int(reply.get("cache_misses", 0))
        if reply["ok"]:
            return reply["doc"]
        if reply.get("repro_error"):
            raise SimulationError(f"shard {shard}: {reply['error']}")
        raise RuntimeError(f"shard {shard}: {reply['error']}")

    def _await_reply(self, shard: int) -> dict:
        """Block for the shard's reply, noticing a dead process."""
        import queue as _queue

        while True:
            try:
                return self._resp_qs[shard].get(timeout=1.0)
            except _queue.Empty:
                if self._closed:
                    raise RuntimeError(
                        f"shard pool shut down mid-job (shard {shard})"
                    )
                if not self._procs[shard].is_alive():
                    raise RuntimeError(
                        f"shard {shard} process died "
                        f"(exitcode {self._procs[shard].exitcode})"
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Dispatch counts, aggregated cache deltas, partition sizes.

        Partition entry counts come from ``RateCache(mode="ro")``
        snapshots of each shard's file — observation only, never a
        write to another process's partition.
        """
        with self._stats_lock:
            dispatched = list(self._dispatched)
            hits, misses = self.cache_hits, self.cache_misses
        entries: Dict[str, int] = {}
        if self._rate_cache_base is not None:
            from ..core.ratecache import RateCache

            for shard in range(self.shards):
                path = self.partition_path(shard)
                try:
                    entries[str(shard)] = len(RateCache(path, mode="ro"))
                except (OSError, SimulationError):
                    entries[str(shard)] = 0
        return {
            "shards": self.shards,
            "dispatched": dispatched,
            "cache_hits": hits,
            "cache_misses": misses,
            "partition_entries": entries,
        }
