"""In-run telemetry timelines: bounded, downsampling time-series.

The paper's evidence chain is time-resolved measurement — a Watts Up!
meter sampling wall power, average core frequency, and PAPI counters
per run.  Aggregates (PR 3's provenance manifests) cannot show the
phenomena *inside* a run: the 1,200 MHz frequency floor at caps
≤ 130 W, the DCM control loop's overshoot and settling, the energy
knee.  This module records those time series without unbounded memory
and without perturbing the simulation:

- :class:`SeriesChannel` — a fixed-capacity recorder of
  duration-weighted interval samples.  When full it decimates 2×
  (adjacent intervals merge into one, duration-weighted, min/max
  preserved), so a channel covers an arbitrarily long run at steadily
  coarser resolution while its time integral stays exact.
- :class:`RunTimeline` — the named channels of one run plus metadata,
  with JSON/CSV round-trips and rep merging.
- :class:`TelemetrySampler` — aggregates the runner's per-quantum
  state onto a configurable simulated-time period.  A steady-state
  fast-forwarded interval arrives as one long constant sample, so
  timelines have **no gaps** across fast-forwards and the power
  channel's integral still matches the scalar energy path.
- :class:`TelemetryConfig` — the knobs (`REPRO_TELEMETRY`,
  `REPRO_TELEMETRY_PERIOD`, `REPRO_TELEMETRY_CAPACITY`, or the CLI's
  ``--telemetry-period`` / ``--no-telemetry``).

Telemetry is pure observation: it draws no random numbers and touches
no model state, so results are bit-identical with sampling on or off.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError, SimulationError
from .stream import current_stream, event_bus

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "SeriesPoint",
    "SeriesChannel",
    "RunTimeline",
    "TelemetryConfig",
    "TelemetrySampler",
    "timeline_to_dict",
    "timeline_from_dict",
]

TIMELINE_SCHEMA_VERSION = 1

#: Channels every run records, with their units (insertion order is
#: the presentation order everywhere downstream).
STANDARD_CHANNELS: Dict[str, str] = {
    "power_w": "W",
    "freq_mhz": "MHz",
    "pstate": "index",
    "duty": "fraction",
    "c0_frac": "fraction",
    "temp_c": "degC",
    "l1_mpki": "misses/kinstr",
    "l2_mpki": "misses/kinstr",
    "l3_mpki": "misses/kinstr",
    "dtlb_mpki": "misses/kinstr",
    "itlb_mpki": "misses/kinstr",
}

#: The channels one block-step row feeds, in order: ``power_w`` through
#: ``temp_c`` from the row (its duty feeds ``duty`` and ``c0_frac``),
#: then the five ``*_mpki`` rates constant across the block.
_ROW_CHANNELS = tuple(STANDARD_CHANNELS)

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _sig(value: float) -> float:
    """Round to 8 significant digits for compact, stable JSON."""
    return float(f"{float(value):.8g}")


class SeriesPoint(NamedTuple):
    """One duration-weighted interval sample of a channel.

    Channels store their points as columns; :meth:`SeriesChannel.points`
    builds these tuples on demand for CSV export, detectors and the
    archive.
    """

    t_s: float
    dt_s: float
    mean: float
    vmin: float
    vmax: float

    @property
    def end_s(self) -> float:
        """The instant this interval's coverage ends."""
        return self.t_s + self.dt_s


class SeriesChannel:
    """Bounded time series of duration-weighted interval samples.

    ``add`` appends an interval ``[t_s, t_s + dt_s)`` during which the
    value averaged ``mean`` (bounded by ``vmin``/``vmax``).  Once
    ``capacity`` points accumulate, adjacent pairs merge (duration-
    weighted mean, min of mins, max of maxes) — memory stays bounded,
    coverage stays gap-free, and ``integral()`` is preserved exactly up
    to float associativity.

    The points live in one ``(5, n)`` float array, grown by doubling up
    to ``capacity``, whose rows are the ``t``/``dt``/``mean``/``min``/
    ``max`` columns; the 2× fold is one vectorized pass over them, and
    :meth:`points` builds :class:`SeriesPoint` tuples on demand.
    """

    __slots__ = ("name", "unit", "capacity", "decimations", "_cols", "_n")

    def __init__(self, name: str, unit: str = "", capacity: int = 256) -> None:
        if capacity < 8:
            raise SimulationError("channel capacity must be at least 8")
        self.name = name
        self.unit = unit
        self.capacity = int(capacity)
        self.decimations = 0
        self._load(np.empty((5, 0)))

    def _load(self, cols) -> None:
        """Replace the points with ``cols`` (five columns of ``n`` floats)."""
        self._cols = np.array(cols, dtype=np.float64)
        self._n = self._cols.shape[1]

    def _reserve(self, k: int) -> None:
        """Room for ``k`` more points; the buffer doubles toward capacity."""
        size = self._cols.shape[1]
        if self._n + k > size:
            width = max(self._n + k, min(2 * size + 8, self.capacity))
            grown = np.empty((5, width))
            grown[:, : self._n] = self._columns()
            self._cols = grown

    def _columns(self) -> np.ndarray:
        """The live ``(5, len)`` view: ``t, dt, mean, min, max``."""
        return self._cols[:, : self._n]

    def __len__(self) -> int:
        return self._n

    def add(
        self,
        t_s: float,
        dt_s: float,
        mean: float,
        vmin: Optional[float] = None,
        vmax: Optional[float] = None,
    ) -> None:
        """Append one interval sample (decimating 2× when full)."""
        if dt_s < 0:
            raise SimulationError("sample duration must be non-negative")
        vmin = mean if vmin is None else vmin
        vmax = mean if vmax is None else vmax
        if self._n >= self.capacity:
            self._decimate()
        self._reserve(1)
        self._cols[:, self._n] = (t_s, dt_s, mean, vmin, vmax)
        self._n += 1

    def add_block(self, points) -> None:
        """Append ``(t, dt, mean, min, max)`` rows like sequential :meth:`add`.

        ``points`` is a sequence of :class:`SeriesPoint` or a ``(k, 5)``
        array.  The rows land in slices between decimations, and each
        decimation fires at the moment a sequence of :meth:`add` calls
        would fire it: when a point arrives at a full channel.
        """
        rows = np.asarray(points, dtype=np.float64).reshape(-1, 5)
        done = 0
        while done < len(rows):
            if self._n >= self.capacity:
                self._decimate()
            n = self._n
            take = min(len(rows) - done, max(self.capacity - n, 1))
            self._reserve(take)
            self._cols[:, n : n + take] = rows[done : done + take].T
            self._n = n + take
            done += take

    def _decimate(self) -> None:
        """Merge adjacent pairs; an odd last point carries over as is.

        Per pair ``a, b``: ``dt = a.dt + b.dt``, mean ``(a.mean * a.dt +
        b.mean * b.dt) / dt`` (the plain average when ``dt <= 0``), and
        ``min``/``max`` keeping ``a`` unless ``b`` is strictly beyond it,
        as the builtins do.
        """
        n = self._n
        half = n // 2
        a = slice(0, 2 * half, 2)
        b = slice(1, 2 * half, 2)
        t, dt, mean, lo, hi = self._cols
        dt_a, dt_b, m_a, m_b = dt[a], dt[b], mean[a], mean[b]
        dts = dt_a + dt_b
        means = np.divide(
            m_a * dt_a + m_b * dt_b, dts,
            out=(m_a + m_b) / 2.0, where=~(dts <= 0),
        )
        lows = np.where(lo[b] < lo[a], lo[b], lo[a])
        highs = np.where(hi[b] > hi[a], hi[b], hi[a])
        t[:half] = t[a]
        dt[:half] = dts
        mean[:half] = means
        lo[:half] = lows
        hi[:half] = highs
        if n % 2:
            self._cols[:, half] = self._cols[:, n - 1]
            half += 1
        self._n = half
        self.decimations += 1

    def points(self) -> List[SeriesPoint]:
        """A snapshot of the current points, oldest first."""
        return list(map(SeriesPoint._make, zip(*self._columns().tolist())))

    def _end_s(self) -> float:
        """Where the last point's coverage ends."""
        n = self._n - 1
        return float(self._cols[0, n] + self._cols[1, n])

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def duration_s(self) -> float:
        """Total covered simulated time."""
        return sum(self._cols[1, : self._n].tolist())

    def integral(self) -> float:
        """``sum(mean * dt)`` — for the power channel, Joules."""
        _, dt, mean, _, _ = self._columns()
        return sum((mean * dt).tolist())

    def time_weighted_mean(self) -> float:
        """Duration-weighted mean over the whole channel."""
        total = self.duration_s()
        if total <= 0:
            raise SimulationError(f"channel {self.name!r} covers no time")
        return self.integral() / total

    def vmin(self) -> float:
        """Smallest value observed (pre-decimation minima survive)."""
        if not self._n:
            raise SimulationError(f"channel {self.name!r} is empty")
        return min(self._cols[3, : self._n].tolist())

    def vmax(self) -> float:
        """Largest value observed (pre-decimation maxima survive)."""
        if not self._n:
            raise SimulationError(f"channel {self.name!r} is empty")
        return max(self._cols[4, : self._n].tolist())

    def summary(self) -> dict:
        """JSON-ready headline statistics for this channel."""
        if not self._n:
            return {"points": 0}
        return {
            "points": self._n,
            "unit": self.unit,
            "t0_s": _sig(self._cols[0, 0]),
            "t1_s": _sig(self._end_s()),
            "min": _sig(self.vmin()),
            "mean": _sig(self.time_weighted_mean()),
            "max": _sig(self.vmax()),
            "decimations": self.decimations,
        }

    # ------------------------------------------------------------------
    # Resampling and merging
    # ------------------------------------------------------------------

    @staticmethod
    def _ramp(span: np.ndarray) -> np.ndarray:
        """``[0..span[0]-1, 0..span[1]-1, ...]`` as one flat array."""
        total = int(span.sum())
        offsets = np.repeat(np.cumsum(span) - span, span)
        return np.arange(total) - offsets

    def _resample_columns(self, n: int, end: float):
        """``(means, mins, maxs, covered)`` arrays for ``n`` uniform bins.

        Vectorised projection onto the grid.  Bit-identical to the
        historical per-point Python loop: per-(point, bin) contributions
        are expanded in point order and accumulated with unbuffered
        ``np.add.at``, so each bin's weighted sum folds in exactly the
        order the scalar ``wsum[b] += mean * overlap`` statements did.
        Empty bins carry the nearest preceding mean (seeded from the
        first point) so renderings stay gap-free.
        """
        width = end / n
        cols = self._columns()
        t, dt, mean, vmin, vmax = cols[:, cols[1] > 0]
        end_pts = t + dt
        lo = np.clip((t / width).astype(np.int64), 0, n - 1)
        hi = np.clip(((end_pts - 1e-12) / width).astype(np.int64), 0, n - 1)
        span = hi - lo + 1
        # One row per (point, bin) pair, in point order.
        bins = np.repeat(lo, span) + self._ramp(span)
        idx = np.repeat(np.arange(len(t)), span)
        b0 = bins * width
        b1 = (bins + 1) * width
        overlap = np.minimum(end_pts[idx], b1) - np.maximum(t[idx], b0)
        keep = overlap > 0
        bins, idx, overlap = bins[keep], idx[keep], overlap[keep]
        wsum = np.zeros(n)
        cover = np.zeros(n)
        mins = np.full(n, np.inf)
        maxs = np.full(n, -np.inf)
        np.add.at(wsum, bins, mean[idx] * overlap)
        np.add.at(cover, bins, overlap)
        np.minimum.at(mins, bins, vmin[idx])
        np.maximum.at(maxs, bins, vmax[idx])
        covered = cover > 0
        means = np.empty(n)
        np.divide(wsum, cover, out=means, where=covered)
        # Gap fill: each uncovered bin repeats the previous covered mean.
        if not covered.all():
            seed = self._cols[2, 0]
            filled = np.where(covered, means, np.nan)
            carry = np.concatenate(([seed], filled))
            order = np.maximum.accumulate(
                np.where(np.isnan(carry), 0, np.arange(n + 1))
            )
            means = carry[order][1:]
            mins = np.where(covered, mins, means)
            maxs = np.where(covered, maxs, means)
        return means, mins, maxs, covered

    def resample(self, n: int, t1_s: Optional[float] = None) -> List[SeriesPoint]:
        """Project onto ``n`` uniform bins over ``[0, t1_s]``.

        Bin means are coverage-weighted from the overlapping intervals
        (integral-preserving); bins with no coverage carry the nearest
        preceding value so renderings stay gap-free.
        """
        if n <= 0:
            raise SimulationError("resample bin count must be positive")
        if not self._n:
            return []
        end = float(t1_s) if t1_s is not None else self._end_s()
        if end <= 0:
            return []
        width = end / n
        means, mins, maxs, _ = self._resample_columns(n, end)
        return [
            SeriesPoint(b * width, width, means[b], mins[b], maxs[b])
            for b in range(n)
        ]

    @classmethod
    def merge(cls, channels: "Sequence[SeriesChannel]") -> "SeriesChannel":
        """Average several recordings of the same channel (rep merge).

        Channels are projected onto a common uniform grid spanning the
        longest recording and averaged bin-wise; ``vmin``/``vmax``
        envelope every contributor.  The grids fold as arrays, in
        channel order, so the result is bit-identical to the historical
        per-bin ``sum(...) / len`` loop.
        """
        channels = [c for c in channels if len(c)]
        if not channels:
            raise SimulationError("cannot merge zero non-empty channels")
        if len({c.name for c in channels}) != 1:
            raise SimulationError("merge mixes differently named channels")
        first = channels[0]
        out = cls(first.name, first.unit, first.capacity)
        if len(channels) == 1:
            out._load(first._columns())
            out.decimations = first.decimations
            return out
        end = max(c._end_s() for c in channels)
        n = min(max(len(c) for c in channels), first.capacity)
        width = end / n
        grids = [c._resample_columns(n, end) for c in channels]
        # Same association order as ``sum(p.mean for p in pts)``: the
        # builtin starts at 0 and folds left-to-right over channels.
        acc = 0.0 + grids[0][0]
        mins = grids[0][1].copy()
        maxs = grids[0][2].copy()
        for means_g, mins_g, maxs_g, _ in grids[1:]:
            acc = acc + means_g
            np.minimum(mins, mins_g, out=mins)
            np.maximum(maxs, maxs_g, out=maxs)
        means = acc / len(grids)
        # n <= capacity: the grid lands without a decimation.
        out._load(np.stack((np.arange(n) * width, np.full(n, width), means,
                            mins, maxs)))
        return out

    # ------------------------------------------------------------------
    # Serialisation (columnar, compact)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Columnar JSON-ready representation.

        Columns repeat values (``dt`` is the period, the ``*_mpki``
        rates are constant per block, min and max equal the mean in
        single-quantum buckets), so each distinct bit pattern is
        rounded once, in one ``%.8g`` pass — the format :func:`_sig`
        applies — and indexed back.  Deduplicating on bits keeps
        ``-0.0`` apart from ``0.0``.
        """
        cols = self._columns()
        bits, index = np.unique(cols.view(np.uint64), return_inverse=True)
        vals = bits.view(np.float64).tolist()
        text = ("%.8g," * len(vals)) % tuple(vals)
        sig = np.array(list(map(float, text.split(",")[:-1])))
        t, dt, mean, lo, hi = sig[index.reshape(cols.shape)].tolist()
        return {
            "unit": self.unit,
            "capacity": self.capacity,
            "decimations": self.decimations,
            "t": t,
            "dt": dt,
            "mean": mean,
            "min": lo,
            "max": hi,
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "SeriesChannel":
        """Inverse of :meth:`to_dict`."""
        try:
            out = cls(name, data.get("unit", ""), int(data.get("capacity", 256)))
            out.decimations = int(data.get("decimations", 0))
            cols = (data["t"], data["dt"], data["mean"], data["min"], data["max"])
            if len({len(c) for c in cols}) != 1:
                raise SimulationError(
                    f"channel {name!r} has ragged columns"
                )
            out._load([[float(v) for v in col] for col in cols])
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed channel {name!r}: {exc}") from exc
        return out


@dataclass
class RunTimeline:
    """All sampled channels of one run (or a rep-merged average)."""

    workload: str
    cap_w: Optional[float]
    period_s: float
    channels: Dict[str, SeriesChannel] = field(default_factory=dict)
    #: How many repetitions were merged into this timeline (1 = raw).
    reps: int = 1

    @property
    def cap_label(self) -> str:
        """Row label: the cap in watts, or 'baseline'."""
        return "baseline" if self.cap_w is None else f"{self.cap_w:.0f}"

    def channel(self, name: str) -> SeriesChannel:
        """One channel by name."""
        try:
            return self.channels[name]
        except KeyError:
            raise SimulationError(
                f"timeline has no channel {name!r}; available: "
                f"{sorted(self.channels)}"
            ) from None

    def names(self) -> List[str]:
        """Channel names in recording order."""
        return list(self.channels)

    def duration_s(self) -> float:
        """Covered simulated time (the longest channel's coverage)."""
        return max((c.duration_s() for c in self.channels.values()), default=0.0)

    def summary(self) -> dict:
        """JSON-ready per-channel headline statistics."""
        return {
            "workload": self.workload,
            "cap_w": self.cap_w,
            "reps": self.reps,
            "period_s": _sig(self.period_s),
            "duration_s": _sig(self.duration_s()),
            "channels": {n: c.summary() for n, c in self.channels.items()},
        }

    @classmethod
    def merge(cls, timelines: "Sequence[RunTimeline]") -> "RunTimeline":
        """Average repetition timelines channel-by-channel."""
        timelines = list(timelines)
        if not timelines:
            raise SimulationError("cannot merge zero timelines")
        first = timelines[0]
        if len(timelines) == 1:
            return first
        out = cls(
            workload=first.workload,
            cap_w=first.cap_w,
            period_s=first.period_s,
            reps=sum(t.reps for t in timelines),
        )
        for name in first.channels:
            members = [
                t.channels[name] for t in timelines if name in t.channels
            ]
            out.channels[name] = SeriesChannel.merge(members)
        return out

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_csv(self, channels: Optional[Iterable[str]] = None) -> str:
        """CSV rows: ``workload,cap,channel,t_s,dt_s,mean,min,max``."""
        names = list(channels) if channels is not None else self.names()
        lines = ["workload,cap,channel,t_s,dt_s,mean,min,max"]
        for name in names:
            ch = self.channel(name)
            for p in ch.points():
                lines.append(
                    f"{self.workload},{self.cap_label},{name},"
                    f"{_sig(p.t_s):g},{_sig(p.dt_s):g},{_sig(p.mean):g},"
                    f"{_sig(p.vmin):g},{_sig(p.vmax):g}"
                )
        return "\n".join(lines) + "\n"

    def counter_samples(
        self, max_points: int = 120
    ) -> List[Tuple[str, float, float]]:
        """``(channel, t_s, value)`` triples for trace counter export.

        Channels longer than ``max_points`` are resampled so a sweep's
        trace file stays small.
        """
        out: List[Tuple[str, float, float]] = []
        for name, ch in self.channels.items():
            pts = ch.points()
            if len(pts) > max_points:
                pts = ch.resample(max_points)
            out.extend((name, p.t_s, p.mean) for p in pts)
        return out


def timeline_to_dict(timeline: RunTimeline) -> dict:
    """JSON-ready representation of one timeline."""
    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "workload": timeline.workload,
        "cap_w": timeline.cap_w,
        "reps": timeline.reps,
        "period_s": _sig(timeline.period_s),
        "channels": {
            name: ch.to_dict() for name, ch in timeline.channels.items()
        },
    }


def timeline_from_dict(data: dict) -> RunTimeline:
    """Inverse of :func:`timeline_to_dict`."""
    try:
        schema = int(data.get("schema", 0))
        if schema != TIMELINE_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported timeline schema {schema!r} "
                f"(expected {TIMELINE_SCHEMA_VERSION})"
            )
        timeline = RunTimeline(
            workload=data["workload"],
            cap_w=None if data["cap_w"] is None else float(data["cap_w"]),
            period_s=float(data["period_s"]),
            reps=int(data.get("reps", 1)),
        )
        for name, ch in data.get("channels", {}).items():
            timeline.channels[name] = SeriesChannel.from_dict(name, ch)
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed timeline: {exc}") from exc
    return timeline


def _env_number(name: str, parse, default):
    """``parse`` of environment variable ``name``; ``default`` when unset."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be {'an integer' if parse is int else 'a number'}, "
            f"got {raw!r}"
        ) from None


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling knobs for in-run telemetry (picklable, frozen)."""

    enabled: bool = True
    #: Target simulated seconds per timeline point (aggregation bucket).
    period_s: float = 0.25
    #: Ring capacity per channel before 2× decimation.
    capacity: int = 256

    def __post_init__(self) -> None:
        # A NaN or infinite period would fold a whole run into one
        # bucket and serialize as non-JSON ``NaN``/``Infinity``.
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise SimulationError(
                f"telemetry period must be a finite positive number of "
                f"seconds, got {self.period_s!r}"
            )
        if self.capacity < 8:
            raise SimulationError("telemetry capacity must be at least 8")

    @classmethod
    def from_env(cls) -> "TelemetryConfig":
        """Build from ``REPRO_TELEMETRY*`` (defaults when unset)."""
        raw = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
        enabled = raw not in _FALSY if raw else True
        period = _env_number("REPRO_TELEMETRY_PERIOD", float, 0.25)
        capacity = _env_number("REPRO_TELEMETRY_CAPACITY", int, 256)
        return cls(enabled=enabled, period_s=period, capacity=capacity)

    @classmethod
    def resolve(
        cls, telemetry: "TelemetryConfig | bool | None"
    ) -> "TelemetryConfig":
        """Normalise the ``telemetry`` argument runners accept.

        ``None`` reads the environment; ``True``/``False`` force the
        default config on or off; a config passes through unchanged.
        """
        if telemetry is None:
            return cls.from_env()
        if telemetry is True:
            return cls()
        if telemetry is False:
            return cls(enabled=False)
        return telemetry


class TelemetrySampler:
    """Aggregates per-quantum engine state onto the sampling period.

    The scalar loop calls :meth:`record` once per control step with the
    step's duration and channel values; the block-step kernel hands a
    whole block's raw quantum rows to :meth:`commit_block`.  Both fold
    contributions (duration-weighted) into the current bucket, which
    flushes into the channels once ``period_s`` of simulated time has
    elapsed.  A single long step — the steady-state fast-forward —
    flushes immediately as one wide interval, so coverage is continuous
    across fast-forwarded time and ``power_w``'s integral equals the
    scalar energy integral.

    Pure bookkeeping: no RNG, no model state, O(channels) per step.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        channels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._cfg = config
        names = dict(channels if channels is not None else STANDARD_CHANNELS)
        self._channels: Dict[str, SeriesChannel] = {
            name: SeriesChannel(name, unit, config.capacity)
            for name, unit in names.items()
        }
        self._bucket_t0 = 0.0
        self._elapsed = 0.0
        self._samples = 0
        # Per-channel bucket accumulators: [weighted sum, min, max].
        self._acc: Dict[str, List[float]] = {}
        # Captured once: the stream topic active when the run started.
        # None (the common CLI/benchmark case) keeps every flush free of
        # bus lookups; publishing reads engine values already computed,
        # so results are bit-identical either way.
        self._stream_topic = current_stream()

    @property
    def config(self) -> TelemetryConfig:
        """The sampling knobs in force."""
        return self._cfg

    @property
    def samples(self) -> int:
        """Control steps folded so far."""
        return self._samples

    def record(self, dt_s: float, values: Mapping[str, float]) -> None:
        """Fold one control step's state into the current bucket."""
        if dt_s < 0:
            raise SimulationError("step duration must be non-negative")
        self._samples += 1
        self._fold(dt_s, values.items())

    def commit_block(self, rows: Sequence[tuple], mpki: Sequence[float]) -> None:
        """Fold a block of quanta exactly as sequential :meth:`record` calls.

        Each row is one committed quantum's ``(dt, power_w, freq_mhz,
        pstate, duty, temp_c)``; ``duty`` also feeds ``c0_frac``, and
        ``mpki`` — the five miss rates, which cannot change inside a
        block — feeds the ``*_mpki`` channels.  Bucket boundaries come
        from :meth:`_fold`'s running ``el += dt``; the buckets then fold
        side by side, one quantum position at a time, so each bucket's
        ``ws += v * dt`` and min/max see its quanta in :meth:`_fold`'s
        order.  The flushed buckets land in each channel with one
        :meth:`SeriesChannel.add_block`.
        """
        if not rows:
            return
        acc = self._acc
        if acc and tuple(acc) != _ROW_CHANNELS:
            raise SimulationError(
                "a block cannot continue a bucket of other channels"
            )
        self._samples += len(rows)
        block = np.array(rows)
        k = len(block)
        dt = block[:, 0]
        # One column per _ROW_CHANNELS entry: the row's duty twice.
        values = np.hstack(
            (block[:, [1, 2, 3, 4, 4, 5]], np.broadcast_to(mpki, (k, 5)))
        )
        # Bucket edges, stepped exactly as _fold and _flush step them.
        period = self._cfg.period_s
        t0, el = self._bucket_t0, self._elapsed
        bounds, t0s, els = [0], [], []
        for j, d in enumerate(dt.tolist(), 1):
            el += d
            if el >= period:
                bounds.append(j)
                t0s.append(t0)
                els.append(el)
                t0 = t0 + el
                el = 0.0
        if bounds[-1] < k:
            bounds.append(k)  # the bucket left open
        starts = np.array(bounds[:-1])
        lengths = np.diff(bounds)
        prod = values * dt[:, None]
        ws = prod[starts]
        lo = values[starts]
        hi = lo.copy()
        if acc:
            # The first bucket continues the one already open.
            ws0, lo0, hi0 = np.array(list(acc.values())).T
            ws[0] += ws0
            lo[0] = np.where(lo[0] < lo0, lo[0], lo0)
            hi[0] = np.where(hi[0] > hi0, hi[0], hi0)
        for p in range(1, lengths.max()):
            b = np.flatnonzero(lengths > p)
            i = starts[b] + p
            v = values[i]
            ws[b] += prod[i]
            lo[b] = np.where(v < lo[b], v, lo[b])
            hi[b] = np.where(v > hi[b], v, hi[b])
        done = len(els)
        if done:
            means = ws[:done] / np.array(els)[:, None]
            points = np.empty((done, 5))
            points[:, 0] = t0s
            points[:, 1] = els
            for c, name in enumerate(_ROW_CHANNELS):
                points[:, 2] = means[:, c]
                points[:, 3] = lo[:done, c]
                points[:, 4] = hi[:done, c]
                self._channel(name).add_block(points)
            if self._stream_topic is not None:
                for t, width, row in zip(t0s, els, means.tolist()):
                    self._publish(t, width, dict(zip(_ROW_CHANNELS, row)))
        if done < len(starts):
            # The last bucket stays open for the quanta still to come.
            self._acc = {
                name: [w, l, h]
                for name, w, l, h in zip(
                    _ROW_CHANNELS,
                    ws[-1].tolist(), lo[-1].tolist(), hi[-1].tolist(),
                )
            }
        else:
            self._acc = {}
        self._bucket_t0 = t0
        self._elapsed = el

    def _fold(self, dt_s: float, items: Iterable[Tuple[str, float]]) -> None:
        acc = self._acc
        for name, value in items:
            slot = acc.get(name)
            if slot is None:
                acc[name] = [value * dt_s, value, value]
            else:
                slot[0] += value * dt_s
                if value < slot[1]:
                    slot[1] = value
                if value > slot[2]:
                    slot[2] = value
        self._elapsed += dt_s
        if self._elapsed >= self._cfg.period_s:
            self._flush()

    def _channel(self, name: str) -> SeriesChannel:
        channel = self._channels.get(name)
        if channel is None:
            channel = self._channels[name] = SeriesChannel(
                name, "", self._cfg.capacity
            )
        return channel

    def _publish(self, t0: float, dt: float, means: Dict[str, float]) -> None:
        event_bus().publish(
            self._stream_topic,
            "sample",
            {"t_s": t0, "dt_s": dt, "channels": means},
        )

    def _flush(self) -> None:
        if self._elapsed <= 0:
            return
        dt = self._elapsed
        t0 = self._bucket_t0
        for name, (ws, lo, hi) in self._acc.items():
            self._channel(name).add(t0, dt, ws / dt, lo, hi)
        if self._stream_topic is not None and self._acc:
            self._publish(
                t0, dt, {name: slot[0] / dt for name, slot in self._acc.items()}
            )
        self._acc = {}
        self._bucket_t0 = t0 + dt
        self._elapsed = 0.0

    def finish(
        self, workload: str, cap_w: Optional[float]
    ) -> RunTimeline:
        """Flush the tail bucket and assemble the run's timeline."""
        self._flush()
        timeline = RunTimeline(
            workload=workload, cap_w=cap_w, period_s=self._cfg.period_s
        )
        for name, channel in self._channels.items():
            if len(channel):
                timeline.channels[name] = channel
        return timeline
