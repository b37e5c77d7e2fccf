"""The Prometheus text exposition primitives."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_sample(self):
        c = Counter("x_total", "help")
        c.inc(4)
        assert c.samples() == [("x_total", {}, 4.0)]


class TestGauge:
    def test_set_and_sample(self):
        g = Gauge("depth", "help")
        g.set(7)
        assert g.samples() == [("depth", {}, 7.0)]

    def test_callback_scalar(self):
        g = Gauge("depth", "help", callback=lambda: 3)
        assert g.samples() == [("depth", {}, 3.0)]

    def test_callback_dict_is_labelled(self):
        g = Gauge(
            "jobs", "help", callback=lambda: {"done": 2, "queued": 1}
        )
        assert g.samples() == [
            ("jobs", {"state": "done"}, 2.0),
            ("jobs", {"state": "queued"}, 1.0),
        ]


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("t", "help", buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        samples = dict(
            ((name, tuple(sorted(labels.items()))), value)
            for name, labels, value in h.samples()
        )
        assert samples[("t_bucket", (("le", "1"),))] == 2
        assert samples[("t_bucket", (("le", "5"),))] == 3
        assert samples[("t_bucket", (("le", "+Inf"),))] == 4
        assert samples[("t_count", ())] == 4
        assert samples[("t_sum", ())] == pytest.approx(104.2)


class TestRegistry:
    def test_render_format(self):
        reg = MetricsRegistry()
        c = reg.register(Counter("repro_things_total", "Things counted"))
        c.inc(2)
        text = reg.render()
        assert "# HELP repro_things_total Things counted" in text
        assert "# TYPE repro_things_total counter" in text
        assert "repro_things_total 2" in text
        assert text.endswith("\n")

    def test_duplicate_names_rejected(self):
        reg = MetricsRegistry()
        reg.register(Counter("a", "h"))
        with pytest.raises(ValueError):
            reg.register(Gauge("a", "h"))


class TestServiceMetrics:
    def test_panel_renders_all_required_names(self):
        panel = ServiceMetrics()
        panel.bind(
            queue_depth=lambda: 3,
            jobs_by_state=lambda: {"queued": 3.0, "done": 1.0},
            cache_hits=lambda: 10,
            cache_misses=lambda: 4,
        )
        text = panel.render()
        assert "repro_queue_depth 3" in text
        assert 'repro_jobs{state="queued"} 3' in text
        assert 'repro_jobs{state="done"} 1' in text
        assert "repro_rate_cache_hits_total 10" in text
        assert "repro_rate_cache_misses_total 4" in text
        assert "repro_jobs_submitted_total 0" in text
        assert "repro_sweep_wall_seconds_bucket" in text
