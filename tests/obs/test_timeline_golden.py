"""Golden digests of recorded timelines, pinned across commits.

The scalar-vs-block matrix in ``tests/core/test_blockstep.py`` proves
the two control-loop paths record the same timeline, but a change to
the bucket fold or the channel decimation they share would move both
paths together and pass it.  These digests were taken from the
committed code before the telemetry fold moved into
``TelemetrySampler``; any change to a timeline's serialized form —
a bucket boundary, a decimation moment, one ULP of one mean — changes
its digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.runner import NodeRunner
from repro.obs.timeseries import TelemetryConfig, timeline_to_dict
from tests.core.test_blockstep import SLICE_ACCESSES, _make_workload

GOLDEN = {
    "stereo@120W": "88d2f8ebe868c15881bc37ac1074c96b",
    "sire@140W": "40e0e2ee2ecfc5af9f63f2faab406597",
    "stride@uncapped": "6be92aa8afb687b76859253f25f2eef3",
    "stereo-merged@120W": "4203fa2bd8e7df824f77af7e7ed3265d",
    # A 16-point ring makes every channel decimate several times.
    "stereo@120W/ring16": "59b766bb3717f03d89b5d3bf56020aa8",
}


def _digest(timeline) -> str:
    doc = json.dumps(timeline_to_dict(timeline), sort_keys=True)
    return hashlib.blake2b(doc.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize(
    "name,cap", [("stereo", 120.0), ("sire", 140.0), ("stride", None)]
)
def test_run_timeline_digest(name, cap):
    runner = NodeRunner(
        slice_accesses=SLICE_ACCESSES, telemetry=True, block_step=True
    )
    result = runner.run(_make_workload(name), cap)
    label = "uncapped" if cap is None else f"{cap:.0f}W"
    assert _digest(result.timeline) == GOLDEN[f"{name}@{label}"]


def test_decimated_timeline_digest():
    runner = NodeRunner(
        slice_accesses=SLICE_ACCESSES,
        telemetry=TelemetryConfig(capacity=16),
        block_step=True,
    )
    timeline = runner.run(_make_workload("stereo"), 120.0).timeline
    assert timeline.channel("power_w").decimations > 1
    assert _digest(timeline) == GOLDEN["stereo@120W/ring16"]


def test_rep_merged_timeline_digest():
    workload = _make_workload("stereo")
    experiment = PowerCapExperiment(
        [workload],
        caps_w=(140.0, 120.0),
        repetitions=2,
        slice_accesses=SLICE_ACCESSES,
        telemetry=True,
        block_step=True,
    )
    row = experiment.run_workload(workload).row(120.0)
    assert row.timeline.reps == 2
    assert _digest(row.timeline) == GOLDEN["stereo-merged@120W"]
