"""Scalar-vs-block bit-identity for the block-step kernel.

The kernel's contract (`repro.core.blockstep`) is that block-stepped
runs are **bit-identical** to the scalar control loop — same
arithmetic, same float association order, same RNG consumption — not
merely close.  This suite runs the same (workload, cap, telemetry,
record_series) cell through both paths and asserts equality of every
``RunResult`` field (counters, meter-derived averages, SEL events,
series), of the serialized form byte for byte, and of the telemetry
timelines sample for sample.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.runner import NodeRunner
from repro.obs.timeseries import timeline_to_dict
from repro.trace.events import TraceSlice
from repro.trace.synthetic import loop_ifetch_trace, streaming_trace
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.sar import SireRsmWorkload
from repro.workloads.stereo import StereoMatchingWorkload

#: The paper's regime corners: uncapped, a loose cap, the knee, the
#: first duty-throttled cap, and the tightest studied cap.
CAPS = [None, 160.0, 140.0, 130.0, 120.0]
#: Instruction-budget scale for the two paper workloads (shape is
#: scale-invariant; full budgets would make the matrix minutes long).
SCALE = 0.05
SLICE_ACCESSES = 60_000


class StridedWalkWorkload(Workload):
    """Fixed-stride array walk — the Figure 3/4 access pattern.

    Exercises a trace shape neither paper workload has (pure streaming
    misses, no random reuse), so the kernel's rate handling is checked
    on a third memory behaviour.
    """

    FOOTPRINT = 8 * 1024 * 1024

    def __init__(self) -> None:
        super().__init__(
            WorkloadSpec(
                name="StridedWalk",
                total_instructions=1.2e10,
                loads_stores_per_instruction=0.5,
                ifetch_per_instruction=0.2,
                description="fixed-stride walk over an L3-exceeding array",
            )
        )

    def build_slice(
        self, rng: np.random.Generator, n_data_accesses: int
    ) -> TraceSlice:
        data = streaming_trace(
            self.FOOTPRINT, n_data_accesses, element_bytes=256, base=0
        )
        instructions = self.slice_instructions(len(data))
        ifetch = loop_ifetch_trace(
            self.ifetches_for(instructions),
            rng,
            hot_pages=4,
            cold_pages=16,
            excursion_probability=1e-4,
        )
        return TraceSlice(
            data_addresses=data,
            ifetch_addresses=ifetch,
            instructions=instructions,
            warmup_fraction=0.25,
        )

    def run_reference(self, scale: float = 1.0, seed: int = 0):
        raise NotImplementedError("synthetic trace-only test workload")


def _make_workload(name: str) -> Workload:
    if name == "stride":
        return StridedWalkWorkload()
    cls = {"sire": SireRsmWorkload, "stereo": StereoMatchingWorkload}[name]
    workload = cls()
    workload._spec = dataclasses.replace(
        workload.spec,
        total_instructions=workload.spec.total_instructions * SCALE,
    )
    return workload


# One workload instance and one runner per configuration, shared across
# the cap parametrization: trace slices and miss rates are measured
# once, so the 60-cell matrix stays seconds, not minutes.
_workloads: dict = {}
_runners: dict = {}


def _workload(name: str) -> Workload:
    if name not in _workloads:
        _workloads[name] = _make_workload(name)
    return _workloads[name]


def _runner(name, telemetry, series, block_step) -> NodeRunner:
    key = (name, telemetry, series, block_step)
    if key not in _runners:
        _runners[key] = NodeRunner(
            slice_accesses=SLICE_ACCESSES,
            telemetry=telemetry,
            record_series=series,
            block_step=block_step,
        )
    return _runners[key]


def _serialized(result) -> str:
    """Canonical JSON of every RunResult field (timeline separately)."""
    doc = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "timeline"
    }
    doc["counters"] = {e.name: v for e, v in result.counters.items()}
    doc["series"] = list(doc["series"])
    doc["sel_events"] = list(doc["sel_events"])
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name", ["stereo", "sire", "stride"])
@pytest.mark.parametrize(
    "cap", CAPS, ids=lambda c: "uncapped" if c is None else f"{c:.0f}W"
)
@pytest.mark.parametrize(
    "telemetry,series",
    [(True, True), (True, False), (False, True), (False, False)],
    ids=["tel+ser", "tel", "ser", "bare"],
)
def test_block_step_bit_identical(name, cap, telemetry, series):
    workload = _workload(name)
    scalar = _runner(name, telemetry, series, False).run(workload, cap)
    block = _runner(name, telemetry, series, True).run(workload, cap)

    # Field-for-field equality: counters, meter-derived power/energy,
    # SEL trail, min duty, and the optional power/freq/duty series.
    assert scalar == block
    # Byte-equal serialized form (floats round-trip via repr, so any
    # ULP difference would show).
    assert _serialized(scalar) == _serialized(block)
    # Timelines are excluded from dataclass equality — compare their
    # full dict form (every channel, every sample, decimation state).
    if telemetry:
        assert timeline_to_dict(scalar.timeline) == timeline_to_dict(
            block.timeline
        )
    else:
        assert scalar.timeline is None and block.timeline is None


def test_kernel_engages_on_capped_runs():
    """The speedup is real only if blocks actually retire quanta."""
    runner = NodeRunner(slice_accesses=SLICE_ACCESSES, block_step=True)
    _, quanta, _, block_steps, block_quanta = runner._run(
        _workload("stereo"), 120.0, 0
    )
    assert block_steps > 0
    # The duty-throttle walk at 120 W is handled in-block, so nearly
    # every quantum retires through the kernel.
    assert block_quanta >= quanta * 0.9


def test_duty_steps_replayed_in_block():
    """In-block duty throttling must reproduce the scalar SEL trail."""
    workload = _workload("stereo")
    scalar = _runner("stereo", False, False, False).run(workload, 120.0)
    block = _runner("stereo", False, False, True).run(workload, 120.0)
    throttles = [e for e in scalar.sel_events if e[1] == "duty-throttled"]
    assert throttles, "120 W must walk the duty ladder"
    assert scalar.sel_events == block.sel_events
    assert scalar.min_duty == block.min_duty < 1.0


def test_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_BLOCK_STEP", "0")
    assert NodeRunner().block_step is False
    monkeypatch.setenv("REPRO_BLOCK_STEP", "1")
    assert NodeRunner().block_step is True
    monkeypatch.delenv("REPRO_BLOCK_STEP")
    assert NodeRunner().block_step is True
    # An explicit argument beats the environment.
    monkeypatch.setenv("REPRO_BLOCK_STEP", "0")
    assert NodeRunner(block_step=True).block_step is True


def test_cli_escape_hatch():
    args = build_parser().parse_args(["--no-block-step", "sweep"])
    assert args.no_block_step is True
    args = build_parser().parse_args(["sweep"])
    assert args.no_block_step is False


def test_scalar_path_unchanged_by_flag():
    """--no-block-step restores the old loop: zero kernel activity."""
    runner = NodeRunner(slice_accesses=SLICE_ACCESSES, block_step=False)
    _, _, _, block_steps, block_quanta = runner._run(
        _workload("stereo"), 130.0, 0
    )
    assert block_steps == 0 and block_quanta == 0


# ----------------------------------------------------------------------
# Removed engine options.
# ----------------------------------------------------------------------


def test_no_batch_flag_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--no-batch", "sweep"])
