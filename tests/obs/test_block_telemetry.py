"""Block-step telemetry equals the scalar path's at short sampling periods.

With a period no longer than a control quantum, every quantum fills a
bucket on its own, including the quanta just before a duty step.  The
block-step kernel must then record and stream each bucket's duty (and
``c0_frac``) exactly as the scalar loop does; the matrix in
``tests/core/test_blockstep.py`` samples only the default period.
"""

from __future__ import annotations

import pytest

from repro.core.runner import NodeRunner
from repro.obs import timeseries
from repro.obs.stream import stream_context
from repro.obs.timeseries import TelemetryConfig, timeline_to_dict
from tests.core.test_blockstep import SLICE_ACCESSES, _make_workload


class _RecordingBus:
    def __init__(self) -> None:
        self.events = []

    def publish(self, topic, kind, data):
        self.events.append((topic, kind, data))
        return len(self.events)


def _run(monkeypatch, period, block_step):
    bus = _RecordingBus()
    monkeypatch.setattr(timeseries, "event_bus", lambda: bus)
    runner = NodeRunner(
        slice_accesses=SLICE_ACCESSES,
        telemetry=TelemetryConfig(period_s=period),
        block_step=block_step,
    )
    with stream_context("run"):
        result = runner.run(_make_workload("stereo"), 120.0)
    return timeline_to_dict(result.timeline), bus.events


@pytest.mark.parametrize("period", [0.05, 0.01])
def test_short_period_block_step_matches_scalar(monkeypatch, period):
    block_timeline, block_events = _run(monkeypatch, period, True)
    scalar_timeline, scalar_events = _run(monkeypatch, period, False)
    assert block_timeline == scalar_timeline
    assert block_events == scalar_events
    assert len({e[2]["channels"]["duty"] for e in block_events}) > 1
