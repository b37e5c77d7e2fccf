"""Bad telemetry and rate-cache settings fail cleanly.

A non-finite telemetry period would fold each run into one bucket and
write ``NaN`` into ``--format json`` output; unparsable environment
variables must end in ``error: ...`` with exit status 2, naming the
variable, rather than in a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.ratecache import RateCache
from repro.errors import ConfigError, SimulationError
from repro.obs.timeseries import TelemetryConfig


@pytest.mark.parametrize("period", [float("nan"), float("inf"), 0.0, -1.0])
def test_telemetry_period_must_be_finite_positive(period):
    with pytest.raises(SimulationError):
        TelemetryConfig(period_s=period)


@pytest.mark.parametrize(
    "var,value",
    [("REPRO_TELEMETRY_PERIOD", "abc"), ("REPRO_TELEMETRY_CAPACITY", "x")],
)
def test_unparsable_telemetry_env_names_the_variable(monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    with pytest.raises(ConfigError, match=var):
        TelemetryConfig.from_env()


def test_blank_telemetry_env_means_default(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY_PERIOD", "")
    monkeypatch.setenv("REPRO_TELEMETRY_CAPACITY", " ")
    assert TelemetryConfig.from_env() == TelemetryConfig()


def test_unparsable_rate_cache_max_names_the_variable(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RATE_CACHE_MAX", "abc")
    with pytest.raises(ConfigError, match="REPRO_RATE_CACHE_MAX"):
        RateCache(tmp_path / "rates.json")


SWEEP = ["--scale", "0.002", "sweep", "--caps", "150", "--reps", "1"]


@pytest.mark.parametrize("period", ["nan", "inf", "-1"])
def test_cli_rejects_bad_telemetry_period(capsys, period):
    code = main(["--telemetry-period", period, *SWEEP, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: telemetry period" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "var,value,argv",
    [
        ("REPRO_TELEMETRY_PERIOD", "abc", SWEEP),
        ("REPRO_TELEMETRY_CAPACITY", "x", ["--telemetry-period", "0.5", *SWEEP]),
        ("REPRO_RATE_CACHE_MAX", "abc", ["--rate-cache", "{tmp}/r.json", *SWEEP]),
    ],
)
def test_cli_reports_unparsable_env(capsys, monkeypatch, tmp_path, var, value, argv):
    monkeypatch.setenv(var, value)
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {var}" in captured.err
