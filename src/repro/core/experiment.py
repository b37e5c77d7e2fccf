"""The paper's experiment: a cap sweep with repetitions.

Section III: "we studied their performance at nine different power
caps: 160 ..., 155, 150, 145, 140, 135, 130, 125, and 120 Watts.  Each
application, given the same input, was executed five times under each
power cap and the results ... were averaged."

Every (workload, cap, repetition) run is independent — all coupling
between runs goes through per-run RNG streams derived by name from the
experiment seed — so the sweep fans out over a process pool with
``jobs > 1`` and reassembles in deterministic task order.  A parallel
sweep is run-for-run bit-identical to the serial one.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import PAPER_POWER_CAPS_W, NodeConfig
from ..errors import ConfigError, SimulationError
from ..obs.detect import scan_experiment
from ..obs.logging import get_logger
from ..obs.provenance import build_provenance
from ..obs.timeseries import TelemetryConfig
from ..obs.tracing import phase_totals, span
from ..obs.metrics import engine_metrics
from ..rng import DEFAULT_SEED
from ..workloads.base import Workload
from .metrics import AveragedResult, RunResult
from .ratecache import RateCache
from .runner import NodeRunner

__all__ = ["PowerCapExperiment", "ExperimentResult", "validate_caps"]

_log = get_logger("core.experiment")


def _phase_delta(before: dict, after: dict) -> Dict[str, float]:
    """Per-span seconds accumulated between two phase snapshots."""
    delta = {}
    for name, acc in after.items():
        seconds = acc["seconds"] - before.get(name, {}).get("seconds", 0.0)
        if seconds > 0.0:
            delta[name] = seconds
    return delta


def validate_caps(
    caps_w: Sequence[float], *, allow_empty: bool = False
) -> List[float]:
    """Validate a cap sweep; returns the caps as floats.

    An empty sweep is rejected unless ``allow_empty`` (a baseline-only
    experiment legitimately sweeps no caps); every cap must be a
    finite positive number of Watts.  Raises
    :class:`~repro.errors.ConfigError` — previously a bad ``--caps``
    list produced an empty sweep (or a hung run) silently.
    """
    try:
        caps = [float(c) for c in caps_w]
    except (TypeError, ValueError):
        raise ConfigError(f"caps must be numbers, got {list(caps_w)!r}")
    if not caps and not allow_empty:
        raise ConfigError(
            "cap sweep is empty — give at least one power cap in Watts"
        )
    for cap in caps:
        if not math.isfinite(cap) or cap <= 0:
            raise ConfigError(
                f"power caps must be finite and > 0 W, got {cap!r}"
            )
    return caps

# One NodeRunner per worker process, created by the pool initializer so
# trace slices and rates are measured once per worker, not once per run.
_WORKER_RUNNER: NodeRunner | None = None


def _pool_init(
    config: NodeConfig | None,
    seed: int,
    slice_accesses: int,
    rate_cache_path: "str | None",
    telemetry: "TelemetryConfig | None" = None,
    block_step: "bool | None" = None,
) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = NodeRunner(
        config=config,
        seed=seed,
        slice_accesses=slice_accesses,
        rate_cache=rate_cache_path,
        telemetry=telemetry,
        block_step=block_step,
    )


def _cost_rank(cap_w: Optional[float]) -> int:
    """Expected relative cost of one run under ``cap_w``.

    Uncapped baselines go quiescent almost immediately (rank 0); loose
    caps settle after a short DVFS search (1); very tight caps walk the
    escalation ladder once and then pin (2); caps just under the DVFS
    knee dither longest before the steady-state fast-forward can engage
    (3).  Only scheduling efficiency depends on this ranking — results
    are bit-identical under any submission order because every run
    draws from its own named RNG streams.
    """
    if cap_w is None:
        return 0
    if cap_w >= 150.0:
        return 1
    if cap_w > 125.0:
        return 3
    return 2


def run_sweep(
    runner: NodeRunner,
    tasks: "Sequence[Tuple[Workload, Optional[float], int]]",
) -> List[RunResult]:
    """Run each task in order, then flush the rate cache once."""
    results = [runner.run(w, cap, rep=rep) for (w, cap, rep) in tasks]
    if runner.rate_cache is not None:
        runner.rate_cache.save()
    return results


def _pool_run_chunk(
    tasks: "List[Tuple[Workload, Optional[float], int]]",
) -> List[RunResult]:
    """One warm worker's share of a sweep: a whole task chunk.

    The worker's persistent :class:`NodeRunner` (created once by
    ``_pool_init``) carries its measured rates, trace slices, and rate
    cache across every run of the chunk.  Results come back in chunk
    order; the parent reassembles them by original task index.
    """
    assert _WORKER_RUNNER is not None
    return run_sweep(_WORKER_RUNNER, tasks)


@dataclass
class ExperimentResult:
    """All averaged rows for one workload: baseline + each cap."""

    workload: str
    baseline: AveragedResult
    by_cap: Dict[float, AveragedResult] = field(default_factory=dict)
    #: Run provenance manifest (see :mod:`repro.obs.provenance`):
    #: config digest, workload spec, seed, code version, rate-cache
    #: stats, and per-phase span seconds.  None for hand-built results.
    provenance: Optional[dict] = None

    def rows(self) -> List[AveragedResult]:
        """Baseline first, then caps from highest to lowest."""
        return [self.baseline] + [
            self.by_cap[c] for c in sorted(self.by_cap, reverse=True)
        ]

    def row(self, cap_w: float | None) -> AveragedResult:
        """One row by cap (None = baseline)."""
        if cap_w is None:
            return self.baseline
        try:
            return self.by_cap[float(cap_w)]
        except KeyError:
            raise SimulationError(f"no result for cap {cap_w}") from None

    def slowdown(self, cap_w: float) -> float:
        """Execution-time ratio vs the baseline at one cap."""
        return self.row(cap_w).execution_s / self.baseline.execution_s


class PowerCapExperiment:
    """Run the full methodology for a set of workloads."""

    def __init__(
        self,
        workloads: Sequence[Workload],
        caps_w: Sequence[float] = PAPER_POWER_CAPS_W,
        repetitions: int = 5,
        seed: int = DEFAULT_SEED,
        config: NodeConfig | None = None,
        slice_accesses: int = 320_000,
        rate_cache: "RateCache | str | os.PathLike | None" = None,
        telemetry: "TelemetryConfig | bool | None" = None,
        block_step: bool | None = None,
    ) -> None:
        if not workloads:
            raise SimulationError("need at least one workload")
        if repetitions < 1:
            raise SimulationError("need at least one repetition")
        self._workloads = list(workloads)
        #: Worker count the last ``_run_tasks`` actually used, after
        #: the single-core / tiny-chunk fallbacks (bench provenance).
        self.last_effective_jobs: int = 1
        #: How the last ``_run_tasks`` executed (jobs, warm-worker
        #: reuse) — recorded into provenance.
        self.last_execution: "dict | None" = None
        self._caps = validate_caps(caps_w, allow_empty=True)
        self._reps = int(repetitions)
        self._config = config
        self._seed = int(seed)
        self._slice_accesses = int(slice_accesses)
        if isinstance(rate_cache, RateCache):
            self._rate_cache_path = str(rate_cache.path)
        elif rate_cache is not None:
            self._rate_cache_path = str(rate_cache)
        else:
            self._rate_cache_path = None
        self._runner = NodeRunner(
            config=config,
            seed=seed,
            slice_accesses=slice_accesses,
            rate_cache=rate_cache,
            telemetry=telemetry,
            block_step=block_step,
        )

    @property
    def runner(self) -> NodeRunner:
        """The shared runner (exposes rate caches for inspection)."""
        return self._runner

    @property
    def caps_w(self) -> List[float]:
        """The caps this experiment sweeps."""
        return list(self._caps)

    def _tasks_for(
        self, workloads: Sequence[Workload]
    ) -> List[Tuple[Workload, Optional[float], int]]:
        return [
            (w, cap, rep)
            for w in workloads
            for cap in [None, *self._caps]
            for rep in range(self._reps)
        ]

    def _effective_jobs(self, jobs: int, n_tasks: int) -> int:
        """Worker count after the in-process fallbacks.

        A single-core host gains nothing from process fan-out (the seed
        benchmark's jobs=4 "regression" was exactly this), and a chunk
        of fewer than two runs per worker cannot amortize the spawn and
        warm-up cost it pays for.  Both cases fall back toward
        in-process execution, with a logged warning so sweep provenance
        explains the effective parallelism.
        """
        jobs = max(1, int(jobs))
        if jobs <= 1:
            return 1
        if os.environ.get("REPRO_POOL_FORCE", "") == "1":
            return jobs
        cpus = os.cpu_count() or 1
        if cpus < 2:
            _log.warning(
                "pool_fallback",
                reason="single_core",
                cpu_count=cpus,
                requested_jobs=jobs,
            )
            return 1
        fit = max(1, min(jobs, n_tasks // 2))
        if fit < jobs:
            _log.warning(
                "pool_shrunk",
                reason="tiny_chunks",
                runs=n_tasks,
                requested_jobs=jobs,
                effective_jobs=fit,
            )
        return fit

    def _run_tasks(
        self,
        tasks: Sequence[Tuple[Workload, Optional[float], int]],
        jobs: int,
    ) -> List[RunResult]:
        requested = max(1, int(jobs))
        jobs = self._effective_jobs(jobs, len(tasks))
        self.last_effective_jobs = jobs
        metrics = engine_metrics()

        def _record_execution(worker_reuse: int) -> None:
            metrics.effective_jobs.set(float(jobs))
            self.last_execution = {
                "requested_jobs": requested,
                "effective_jobs": jobs,
                "worker_reuse": worker_reuse,
            }

        if jobs <= 1:
            results = run_sweep(self._runner, tasks)
            _record_execution(0)
            return results
        # Skew-aware chunking: a sweep's wall clock is set by whichever
        # worker drains the slowest tail, and the knee-cap runs are an
        # order of magnitude longer than baselines.  Sorting
        # longest-expected-first (stable, so equal ranks keep task
        # order) and dealing round-robin gives every worker one chunk
        # of near-equal expected cost — and a whole chunk per worker is
        # what lets the warm runner amortize its rates and slices across
        # runs instead of paying per-task future overhead.
        order = sorted(
            range(len(tasks)),
            key=lambda i: _cost_rank(tasks[i][1]),
            reverse=True,
        )
        chunks = [order[k::jobs] for k in range(jobs)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(
            max_workers=len(chunks),
            initializer=_pool_init,
            initargs=(
                self._config,
                self._seed,
                self._slice_accesses,
                self._rate_cache_path,
                self._runner.telemetry,
                self._runner.block_step,
            ),
        ) as pool:
            futures = [
                pool.submit(_pool_run_chunk, [tasks[i] for i in c])
                for c in chunks
            ]
            results: List[Optional[RunResult]] = [None] * len(tasks)
            for chunk, future in zip(chunks, futures):
                for i, res in zip(chunk, future.result()):
                    results[i] = res
        # Every run beyond each chunk's first was served by a worker
        # whose runner was already warm (rates measured, slices built).
        metrics.worker_reuse.inc(len(tasks) - len(chunks))
        _record_execution(len(tasks) - len(chunks))
        return results  # type: ignore[return-value]

    def _assemble(
        self, workload: Workload, runs: List[RunResult]
    ) -> ExperimentResult:
        reps = self._reps
        result = ExperimentResult(
            workload=workload.name,
            baseline=AveragedResult.from_runs(runs[:reps]),
        )
        for i, cap in enumerate(self._caps):
            chunk = runs[(i + 1) * reps : (i + 2) * reps]
            result.by_cap[cap] = AveragedResult.from_runs(chunk)
        return result

    def _provenance_for(
        self, workload: Workload, phase_seconds: Dict[str, float]
    ) -> dict:
        return build_provenance(
            config=self._runner.config,
            workload=workload,
            seed=self._seed,
            caps_w=self._caps,
            repetitions=self._reps,
            slice_accesses=self._slice_accesses,
            rate_cache=self._runner.rate_cache,
            phase_seconds=phase_seconds,
            execution=self.last_execution,
        )

    def _annotate_phenomena(self, result: ExperimentResult) -> None:
        """Scan the sweep's timelines and annotate provenance.

        Detections (frequency-floor pinning, cap overshoot/settling,
        energy-knee onset) are logged, counted in the telemetry metrics
        panel, and recorded under ``provenance["phenomena"]`` so they
        travel with the result through serialize/store/API.
        """
        floor_mhz = self._runner.config.pstates.f_min_mhz
        detections = scan_experiment(result, floor_mhz)
        if result.provenance is not None:
            result.provenance["phenomena"] = [
                d.to_dict() for d in detections
            ]

    def run_workload(self, workload: Workload, jobs: int = 1) -> ExperimentResult:
        """Baseline plus the full cap sweep for one workload.

        ``jobs > 1`` fans the (cap, repetition) grid out over a process
        pool; results are bit-identical to the serial sweep because
        every run draws from its own named RNG streams.  The result
        carries a provenance manifest; with ``jobs > 1`` the per-phase
        timings in it cover this process only (workers accumulate their
        own), so attribute parallel sweeps via ``--trace-out`` instead.
        """
        tasks = self._tasks_for([workload])
        _log.info(
            "sweep_start",
            workload=workload.name,
            caps=len(self._caps),
            repetitions=self._reps,
            runs=len(tasks),
            jobs=jobs,
        )
        wall0 = time.perf_counter()
        phases0 = phase_totals()
        with span("sweep", workload=workload.name, runs=len(tasks), jobs=jobs):
            runs = self._run_tasks(tasks, jobs)
            result = self._assemble(workload, runs)
        result.provenance = self._provenance_for(
            workload, _phase_delta(phases0, phase_totals())
        )
        self._annotate_phenomena(result)
        _log.info(
            "sweep_done",
            workload=workload.name,
            runs=len(tasks),
            wall_s=round(time.perf_counter() - wall0, 3),
        )
        return result

    def run_all(self, jobs: int = 1) -> Dict[str, ExperimentResult]:
        """Every workload's sweep, keyed by workload name."""
        if jobs <= 1:
            return {w.name: self.run_workload(w) for w in self._workloads}
        tasks = self._tasks_for(self._workloads)
        _log.info(
            "sweep_start",
            workloads=len(self._workloads),
            runs=len(tasks),
            jobs=jobs,
        )
        phases0 = phase_totals()
        with span("sweep", workloads=len(self._workloads), runs=len(tasks),
                  jobs=jobs):
            runs = self._run_tasks(tasks, jobs)
        # One phase delta spans the whole parallel batch; per-workload
        # attribution needs a trace (`--trace-out`), not the manifest.
        phase_seconds = _phase_delta(phases0, phase_totals())
        per = (len(self._caps) + 1) * self._reps
        results = {}
        for i, w in enumerate(self._workloads):
            result = self._assemble(w, runs[i * per : (i + 1) * per])
            result.provenance = self._provenance_for(w, phase_seconds)
            self._annotate_phenomena(result)
            results[w.name] = result
        return results
