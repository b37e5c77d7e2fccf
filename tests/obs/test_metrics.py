"""Engine metrics: the simulation-core panel and the service bridge."""

from __future__ import annotations

import re
from dataclasses import replace

from repro.obs.metrics import ServiceMetrics, engine_metrics


class TestEngineMetrics:
    def test_singleton(self):
        assert engine_metrics() is engine_metrics()

    def test_exposes_at_least_six_engine_series(self):
        text = engine_metrics().render()
        names = set(
            re.findall(r"^# TYPE (repro_engine_\w+)", text, re.MULTILINE)
        )
        assert len(names) >= 6, sorted(names)
        for expected in (
            "repro_engine_runs_total",
            "repro_engine_quanta_total",
            "repro_engine_traces_simulated_total",
            "repro_engine_rate_cache_hits_total",
            "repro_engine_rate_cache_misses_total",
            "repro_engine_run_seconds",
            "repro_engine_phase_seconds",
        ):
            assert expected in names

    def test_no_batch_engine_series(self):
        assert "repro_engine_batch_" not in engine_metrics().render()

    def test_no_process_pool_series(self):
        text = engine_metrics().render()
        assert "repro_engine_effective_jobs" not in text
        assert "repro_engine_worker_reuse_total" not in text

    def test_run_increments_counters(self):
        from repro.core.runner import NodeRunner
        from repro.workloads.stereo import StereoMatchingWorkload

        metrics = engine_metrics()
        runs_before = metrics.runs.value
        quanta_before = metrics.quanta.value
        workload = StereoMatchingWorkload()
        workload._spec = replace(
            workload.spec,
            total_instructions=int(workload.spec.total_instructions * 0.003),
        )
        NodeRunner(slice_accesses=60_000).run(workload)
        assert metrics.runs.value == runs_before + 1
        assert metrics.quanta.value > quanta_before

    def test_service_render_includes_engine_panel(self):
        text = ServiceMetrics().render()
        assert "repro_jobs_submitted_total" in text
        assert "repro_engine_runs_total" in text


class TestBuildInfo:
    def test_singleton(self):
        from repro.obs.metrics import build_info_metrics

        assert build_info_metrics() is build_info_metrics()

    def test_info_convention(self):
        """``repro_build_info`` is a constant-1 gauge with id labels."""
        from repro import __version__
        from repro.obs.archive import ARCHIVE_SCHEMA_VERSION
        from repro.obs.metrics import build_info_metrics

        ((name, labels, value),) = build_info_metrics().build_info.samples()
        assert name == "repro_build_info"
        assert value == 1.0
        assert labels["version"] == __version__
        assert labels["archive_schema"] == str(ARCHIVE_SCHEMA_VERSION)
        assert labels["git"]  # "unknown" outside a checkout, never empty
        assert {"provenance_schema", "timeline_schema"} <= set(labels)

    def test_rendered_on_service_metrics(self):
        text = ServiceMetrics().render()
        assert "# TYPE repro_build_info gauge" in text
        assert 'repro_build_info{' in text

    def test_sample_all_covers_every_panel(self):
        metrics = ServiceMetrics()
        names = {name for name, _, _ in metrics.sample_all()}
        for expected in (
            "repro_build_info",
            "repro_jobs_submitted_total",
            "repro_engine_runs_total",
            "repro_fleet_runs_total",
        ):
            assert expected in names, sorted(names)
