"""The paper's experiment: a cap sweep with repetitions.

Section III: "we studied their performance at nine different power
caps: 160 ..., 155, 150, 145, 140, 135, 130, 125, and 120 Watts.  Each
application, given the same input, was executed five times under each
power cap and the results ... were averaged."

Every (workload, cap, repetition) run is independent — all coupling
between runs goes through per-run RNG streams derived by name from the
experiment seed — and runs in order in this process through
:func:`run_sweep`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import PAPER_POWER_CAPS_W, NodeConfig
from ..errors import ConfigError, SimulationError
from ..obs.detect import scan_experiment
from ..obs.logging import get_logger
from ..obs.provenance import build_provenance
from ..obs.timeseries import TelemetryConfig
from ..obs.tracing import phase_totals, span
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
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"caps must be numbers, got {caps_w!r}")
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


def _check_jobs(jobs: int) -> None:
    if jobs != 1:
        raise ConfigError(
            f"jobs={jobs!r} is not supported; every sweep runs in-process"
        )


def run_sweep(
    runner: NodeRunner,
    tasks: "Sequence[Tuple[Workload, Optional[float], int]]",
) -> List[RunResult]:
    """Run each task in order, then flush the rate cache once."""
    results = [runner.run(w, cap, rep=rep) for (w, cap, rep) in tasks]
    if runner.rate_cache is not None:
        runner.rate_cache.save()
    return results


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
        self._caps = validate_caps(caps_w, allow_empty=True)
        self._reps = int(repetitions)
        self._seed = int(seed)
        self._slice_accesses = int(slice_accesses)
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
        self, workload: Workload
    ) -> List[Tuple[Workload, Optional[float], int]]:
        return [
            (workload, cap, rep)
            for cap in [None, *self._caps]
            for rep in range(self._reps)
        ]

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

        The (cap, repetition) grid runs in order in this process through
        :func:`run_sweep`.  ``jobs`` accepts only ``1``: it stays so
        the frozen benchmark harness, which passes ``jobs=1``, keeps
        working.  The result carries a provenance manifest.
        """
        _check_jobs(jobs)
        tasks = self._tasks_for(workload)
        _log.info(
            "sweep_start",
            workload=workload.name,
            caps=len(self._caps),
            repetitions=self._reps,
            runs=len(tasks),
        )
        wall0 = time.perf_counter()
        phases0 = phase_totals()
        with span("sweep", workload=workload.name, runs=len(tasks)):
            runs = run_sweep(self._runner, tasks)
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
        """Every workload's sweep, keyed by workload name.

        ``jobs`` accepts only ``1`` and stays for the frozen benchmark
        harness (see :meth:`run_workload`).
        """
        _check_jobs(jobs)
        return {w.name: self.run_workload(w) for w in self._workloads}
