"""Persistent on-disk cache of measured access rates.

Trace simulation is the dominant fixed cost of a sweep: every
(workload, gating) pair costs a full slice replay even though the
result is a pure function of the node geometry, the workload slice,
and the gating.  :class:`RateCache` memoizes those results across
*processes and sessions* — repeated sweeps, the benchmark suite, and
parallel workers all skip redundant trace simulation.

Keys are ``blake2b`` digests over everything the rates depend on:

- the miss-relevant node geometry (cache/TLB geometries, repr of the
  frozen dataclasses),
- the slice identity (workload spec minus ``total_instructions`` —
  the slice is built from the behavioural parameters only — plus the
  trace seed and requested access count),
- the gating's :meth:`~repro.mem.reconfig.GatingState.config_key`.

The store is a single JSON file.  Saves are atomic (write-to-temp +
``os.replace``) and merge with any entries written concurrently by
another process, so parallel sweep workers can share one cache file.

Writers batch their saves (:meth:`put` only marks the cache dirty;
:meth:`save` flushes at run/sweep boundaries), and every flush is a
single atomic ``os.replace`` — so a concurrent reader never observes a
partially written file.  Readers that only want to *observe* a shared
cache (dashboards, benchmarks, inspection tooling) open it with
``mode="ro"``: a read-only snapshot of the file at open time that can
never dirty or rewrite the backing store, with :meth:`reload` to adopt
whatever a concurrent writer has flushed since.

The file is bounded: every entry carries a last-used timestamp, and
:meth:`save` evicts the least-recently-used entries beyond
``max_entries`` (default :data:`RateCache.DEFAULT_MAX_ENTRIES`, or the
``REPRO_RATE_CACHE_MAX`` environment variable), so long-lived service
deployments that sweep many distinct (workload, geometry, gating)
combinations never grow the cache without bound.  The cache also keeps
:attr:`hits` / :attr:`misses` counters for telemetry; all public
methods are thread-safe, so one instance can back a whole worker pool.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import tempfile
import threading
import time
import weakref
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..config import NodeConfig
from ..errors import ConfigError, SimulationError
from ..mem.hierarchy import AccessRates
from ..mem.reconfig import GatingState
from ..obs.logging import get_logger
from ..obs.metrics import engine_metrics
from ..workloads.base import Workload

__all__ = ["RateCache"]

_log = get_logger("core.ratecache")

#: Bump when the simulation semantics of the kernels change.
_SCHEMA_VERSION = 1


def rate_key(
    config: NodeConfig,
    workload: Workload,
    seed: int,
    slice_accesses: int,
    gating: GatingState,
) -> str:
    """Stable digest identifying one (geometry, slice, gating) rate."""
    spec = asdict(workload.spec)
    # The slice is built from the behavioural spec fields only; the
    # instruction budget just scales how long the run loop executes.
    spec.pop("total_instructions", None)
    spec.pop("description", None)
    payload = {
        "v": _SCHEMA_VERSION,
        "geometry": repr(
            (config.l1d, config.l1i, config.l2, config.l3, config.itlb, config.dtlb)
        ),
        "workload": (type(workload).__name__, sorted(spec.items())),
        "seed": int(seed),
        "slice_accesses": int(slice_accesses),
        "gating": gating.config_key(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _split_entry(value: dict) -> "Tuple[dict, float] | None":
    """(rates-dict, last-used ts) from either on-disk layout.

    Historical files store the rates dict directly; current files wrap
    it as ``{"rates": {...}, "ts": <last-used>}``.
    """
    if not isinstance(value, dict):
        return None
    inner = value.get("rates")
    if isinstance(inner, dict):
        try:
            return inner, float(value.get("ts", 0.0))
        except (TypeError, ValueError):
            return inner, 0.0
    return value, 0.0


class RateCache:
    """JSON-file-backed store of :class:`AccessRates` keyed by digest."""

    #: Default LRU bound on the number of persisted entries.
    DEFAULT_MAX_ENTRIES = 4096

    def __init__(
        self,
        path: str | os.PathLike,
        max_entries: int | None = None,
        mode: str = "rw",
    ) -> None:
        if mode not in ("rw", "ro"):
            raise SimulationError(
                f"rate cache mode must be 'rw' or 'ro', got {mode!r}"
            )
        self._mode = mode
        self._path = Path(path)
        # Fail before the sweep, not at the post-sweep save.
        if self._path.is_dir():
            raise SimulationError(
                f"rate cache path is a directory: {self._path}"
            )
        if max_entries is None:
            raw = os.environ.get("REPRO_RATE_CACHE_MAX", "").strip()
            try:
                max_entries = int(raw) if raw else self.DEFAULT_MAX_ENTRIES
            except ValueError:
                raise ConfigError(
                    f"REPRO_RATE_CACHE_MAX must be an integer, got {raw!r}"
                ) from None
        if max_entries < 1:
            raise SimulationError(
                f"rate cache max_entries must be >= 1, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._entries: Dict[str, dict] = {}
        self._stamps: Dict[str, float] = {}
        self._dirty = False
        self._lock = threading.RLock()
        #: Lookup telemetry (served-from-cache vs simulated).
        self.hits = 0
        self.misses = 0
        self._last_stamp = 0.0
        self._load()
        if self._stamps:
            self._last_stamp = max(self._stamps.values())
        if self._mode == "ro":
            return  # snapshots never flush — nothing to hook at exit
        # Saves are batched (put() only marks dirty); a weakly-bound
        # atexit hook flushes anything still pending if the process
        # exits before the owning runner/experiment/scheduler does.
        ref = weakref.ref(self)

        def _flush_at_exit() -> None:
            cache = ref()
            if cache is not None:
                cache.close()

        atexit.register(_flush_at_exit)

    @property
    def path(self) -> Path:
        """Location of the backing file."""
        return self._path

    @property
    def max_entries(self) -> int:
        """The LRU bound enforced at :meth:`save` time."""
        return self._max_entries

    @property
    def mode(self) -> str:
        """``"rw"`` (writer, default) or ``"ro"`` (snapshot reader)."""
        return self._mode

    @property
    def readonly(self) -> bool:
        """True for ``mode="ro"`` snapshot instances."""
        return self._mode == "ro"

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _read_disk(
        self,
    ) -> "Tuple[Dict[str, dict], Dict[str, float]] | None":
        """Parse the backing file; None when missing or unusable."""
        try:
            with open(self._path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        try:
            data = json.loads(raw.decode("utf-8", errors="replace"))
        except json.JSONDecodeError as exc:
            # A corrupt (or poisoned) cache file is ignored, never
            # fatal — but it must be *visible*: log the path and the
            # content digest so the bad bytes can be identified.
            _log.warning(
                "rate_cache_corrupt",
                path=str(self._path),
                bytes=len(raw),
                content_digest=hashlib.blake2b(raw, digest_size=16).hexdigest(),
                error=str(exc),
            )
            return None
        if not isinstance(data, dict):
            _log.warning(
                "rate_cache_malformed",
                path=str(self._path),
                content_digest=hashlib.blake2b(raw, digest_size=16).hexdigest(),
                error=f"expected a JSON object, got {type(data).__name__}",
            )
            return None
        entries: Dict[str, dict] = {}
        stamps: Dict[str, float] = {}
        for key, value in data.items():
            split = _split_entry(value)
            if split is None:
                _log.warning(
                    "rate_cache_entry_malformed",
                    path=str(self._path),
                    digest=key,
                )
                continue
            entries[key], stamps[key] = split
        return entries, stamps

    def _load(self) -> None:
        disk = self._read_disk()
        if disk is not None:
            self._entries, self._stamps = disk

    def reload(self) -> int:
        """Re-read the backing file, adopting concurrent flushes.

        Because writers flush with a single atomic ``os.replace``, a
        reloading reader sees either the previous complete file or the
        new complete file — never a torn write.  Read-only snapshots
        replace their view wholesale; ``rw`` instances merge the disk
        state *under* their own entries (local puts win until the next
        :meth:`save`).  Returns the number of entries now visible.
        """
        with self._lock:
            disk = self._read_disk()
            if disk is not None:
                entries, stamps = disk
                if self._mode == "rw":
                    entries.update(self._entries)
                    for key, ts in self._stamps.items():
                        stamps[key] = max(ts, stamps.get(key, 0.0))
                self._entries = entries
                self._stamps = stamps
                if stamps:
                    self._last_stamp = max(
                        self._last_stamp, max(stamps.values())
                    )
            return len(self._entries)

    def get(self, key: str) -> Optional[AccessRates]:
        """Look one digest up; None on miss or malformed entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                engine_metrics().rate_cache_misses.inc()
                return None
            try:
                rates = AccessRates(**{k: float(v) for k, v in entry.items()})
            except TypeError:
                self.misses += 1
                engine_metrics().rate_cache_misses.inc()
                _log.warning(
                    "rate_cache_entry_malformed",
                    path=str(self._path),
                    digest=key,
                )
                return None
            self._touch(key)
            self.hits += 1
            engine_metrics().rate_cache_hits.inc()
            return rates

    def put(self, key: str, rates: AccessRates) -> None:
        """Record one result (persisted on the next :meth:`save`)."""
        if self._mode == "ro":
            raise SimulationError(
                f"rate cache opened read-only: {self._path}"
            )
        with self._lock:
            self._entries[key] = asdict(rates)
            self._touch(key)
            self._dirty = True

    def _touch(self, key: str) -> None:
        # Strictly increasing stamps: two touches inside one clock tick
        # must still order deterministically for LRU eviction.
        now = time.time()
        if now <= self._last_stamp:
            now = self._last_stamp + 1e-6
        self._last_stamp = now
        self._stamps[key] = now

    def close(self) -> None:
        """Flush pending entries; safe to call repeatedly.

        Unlike :meth:`save` this never raises: at interpreter exit the
        backing directory may already be gone (tests park caches in
        ``TemporaryDirectory``), and losing the flush is preferable to
        failing teardown.
        """
        try:
            self.save()
        except OSError:
            pass

    def __enter__(self) -> "RateCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def save(self) -> None:
        """Atomically persist, merging concurrent writers' entries.

        A no-op unless :meth:`put` recorded something since the last
        save — callers flush at run/sweep boundaries without write
        amplification.

        After the merge the least-recently-used entries beyond
        ``max_entries`` are evicted, so the backing file stays bounded
        no matter how many distinct sweeps a long-lived process runs.

        Read-only snapshots never write: a no-op in ``mode="ro"``.
        """
        if self._mode == "ro":
            return
        with self._lock:
            self._save_locked()

    def _save_locked(self) -> None:
        if not self._dirty:
            return
        entries: Dict[str, dict] = {}
        stamps: Dict[str, float] = {}
        try:
            with open(self._path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            data = None
        except json.JSONDecodeError as exc:
            _log.warning(
                "rate_cache_corrupt",
                path=str(self._path),
                error=str(exc),
                during="save_merge",
            )
            data = None
        if isinstance(data, dict):
            for key, value in data.items():
                split = _split_entry(value)
                if split is not None:
                    entries[key], stamps[key] = split
        entries.update(self._entries)
        for key, ts in self._stamps.items():
            stamps[key] = max(ts, stamps.get(key, 0.0))
        if len(entries) > self._max_entries:
            keep = sorted(
                entries, key=lambda k: (stamps.get(k, 0.0), k), reverse=True
            )[: self._max_entries]
            entries = {k: entries[k] for k in keep}
            stamps = {k: stamps.get(k, 0.0) for k in keep}
        payload = {
            k: {"rates": v, "ts": stamps.get(k, 0.0)}
            for k, v in entries.items()
        }
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self._path.parent), prefix=self._path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self._path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._entries = entries
        self._stamps = stamps
        self._dirty = False
