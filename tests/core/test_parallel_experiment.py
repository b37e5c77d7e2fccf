"""In-process sweep execution, steady-state fast-forward, and rate cache."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser
from repro.core.experiment import PowerCapExperiment
from repro.core.ratecache import RateCache, rate_key
from repro.core.runner import NodeRunner
from repro.errors import ConfigError
from repro.mem.reconfig import GatingState
from repro.workloads.sar import SireRsmWorkload
from repro.workloads.stereo import StereoMatchingWorkload


def scaled(workload, factor):
    workload._spec = dataclasses.replace(
        workload.spec, total_instructions=workload.spec.total_instructions * factor
    )
    return workload


class TestInProcessSweep:
    """Every sweep runs in-process; no process pool is left to ask for."""

    def build(self):
        return PowerCapExperiment(
            [scaled(StereoMatchingWorkload(), 0.005)],
            caps_w=[150.0],
            repetitions=1,
            slice_accesses=50_000,
        )

    def test_jobs_other_than_one_rejected(self):
        experiment = self.build()
        for jobs in (0, 2, 4):
            with pytest.raises(ConfigError, match="in-process"):
                experiment.run_all(jobs=jobs)
            with pytest.raises(ConfigError, match="in-process"):
                experiment.run_workload(experiment._workloads[0], jobs=jobs)

    def test_jobs_one_is_the_default_sweep(self):
        a = self.build().run_all(jobs=1)["StereoMatching"]
        b = self.build().run_all()["StereoMatching"]
        assert a.baseline == b.baseline
        assert a.by_cap == b.by_cap

    def test_jobs_cli_flag_is_gone(self, capsys):
        for argv in (["--jobs", "2", "sweep"], ["sweep", "--jobs", "2"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestFastForward:
    @pytest.fixture(scope="class")
    def runs(self):
        # Long enough (in simulated seconds) for the thermal state to
        # converge while the 120 W command is pinned at the floor, so
        # the fast-forward actually engages.
        kwargs = dict(slice_accesses=80_000, record_series=True)
        wl = scaled(StereoMatchingWorkload(), 0.06)
        ff = NodeRunner(**kwargs).run(wl, 120.0)
        stepped = NodeRunner(fast_forward=False, **kwargs).run(wl, 120.0)
        return ff, stepped

    def test_fast_forward_engages(self, runs):
        ff, stepped = runs
        # A single closed-form tail replaces the stretch of quanta after
        # thermal convergence (~tau * ln(dT/eps) into the run).
        assert len(stepped.series) - len(ff.series) > 50

    def test_execution_time_identical(self, runs):
        ff, stepped = runs
        assert ff.execution_s == pytest.approx(stepped.execution_s, rel=1e-12)

    def test_avg_freq_identical(self, runs):
        ff, stepped = runs
        assert ff.avg_freq_mhz == pytest.approx(stepped.avg_freq_mhz, rel=1e-12)

    def test_series_ends_at_same_time(self, runs):
        ff, stepped = runs
        assert ff.series[-1][0] == pytest.approx(stepped.series[-1][0], rel=1e-12)

    def test_integral_quantities_close(self, runs):
        ff, stepped = runs
        assert ff.energy_j == pytest.approx(stepped.energy_j, rel=1e-3)
        assert ff.avg_power_w == pytest.approx(stepped.avg_power_w, rel=1e-3)

    def test_integer_counters_identical(self, runs):
        ff, stepped = runs
        for key, value in stepped.counters.items():
            if float(value).is_integer():
                assert ff.counters[key] == value, key

    def test_short_runs_bit_identical_even_with_ff_enabled(self):
        # Runs too short to converge thermally never trigger the
        # fast-forward, so enabling it must change nothing at all.
        wl = scaled(StereoMatchingWorkload(), 0.01)
        a = NodeRunner(slice_accesses=50_000).run(wl, 140.0)
        b = NodeRunner(slice_accesses=50_000, fast_forward=False).run(wl, 140.0)
        assert a == b


class TestRateCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rates.json"
        wl = scaled(StereoMatchingWorkload(), 0.01)
        warm = NodeRunner(slice_accesses=50_000, rate_cache=path)
        gating = GatingState.ungated()
        rates = warm.rates_for(wl, gating)
        # Writes are batched: the miss marks the cache dirty, and the
        # file lands on flush (run boundary / save / close), not on
        # every put.
        assert not path.exists()
        warm.rate_cache.save()
        assert path.exists()

        cold = NodeRunner(slice_accesses=50_000, rate_cache=path)
        assert cold.rates_for(wl, gating) == rates
        # The hit was served from disk: no trace engine was built.
        assert not cold._engines

    def test_key_sensitivity(self, tmp_path):
        wl = scaled(StereoMatchingWorkload(), 0.01)
        cfg_args = dict(workload=wl, gating=GatingState.ungated())
        from repro.config import sandy_bridge_config
        cfg = sandy_bridge_config()
        base = rate_key(cfg, seed=1, slice_accesses=100, **cfg_args)
        assert rate_key(cfg, seed=2, slice_accesses=100, **cfg_args) != base
        assert rate_key(cfg, seed=1, slice_accesses=200, **cfg_args) != base
        assert rate_key(cfg, seed=1, slice_accesses=100, workload=wl,
                        gating=GatingState(l2_way_fraction=0.5)) != base

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text("{not json")
        cache = RateCache(path)
        assert len(cache) == 0
        wl = scaled(StereoMatchingWorkload(), 0.01)
        runner = NodeRunner(slice_accesses=50_000, rate_cache=cache)
        runner.rates_for(wl, GatingState.ungated())  # must not raise

    def test_cached_sweep_matches_uncached(self, tmp_path):
        path = tmp_path / "rates.json"
        wl = scaled(StereoMatchingWorkload(), 0.005)
        plain = NodeRunner(slice_accesses=50_000).run(wl, 140.0)
        NodeRunner(slice_accesses=50_000, rate_cache=path).run(wl, 140.0)
        cached = NodeRunner(slice_accesses=50_000, rate_cache=path).run(wl, 140.0)
        assert cached == plain

    def test_hit_miss_counters(self, tmp_path):
        path = tmp_path / "rates.json"
        wl = scaled(StereoMatchingWorkload(), 0.01)
        warm = RateCache(path)
        NodeRunner(slice_accesses=50_000, rate_cache=warm).run(wl, 140.0)
        assert warm.misses > 0 and warm.hits == 0

        cold = RateCache(path)
        NodeRunner(slice_accesses=50_000, rate_cache=cold).run(wl, 140.0)
        assert cold.hits > 0 and cold.misses == 0


def fake_rates(i: float):
    from dataclasses import fields

    from repro.mem.hierarchy import AccessRates

    return AccessRates(
        **{f.name: float(i) for f in fields(AccessRates)}
    )


class TestRateCacheReadOnly:
    """mode="ro" snapshots: observe a shared cache, never write it."""

    def test_snapshot_serves_hits_but_rejects_writes(self, tmp_path):
        from repro.errors import SimulationError

        path = tmp_path / "rates.json"
        writer = RateCache(path)
        writer.put("key-a", fake_rates(1))
        writer.save()

        reader = RateCache(path, mode="ro")
        assert reader.readonly and reader.mode == "ro"
        assert reader.get("key-a") == fake_rates(1)
        assert reader.hits == 1
        with pytest.raises(SimulationError):
            reader.put("key-b", fake_rates(2))
        before = path.read_bytes()
        reader.save()  # no-op, never touches the file
        reader.close()
        assert path.read_bytes() == before

    def test_missing_file_snapshot_is_empty(self, tmp_path):
        reader = RateCache(tmp_path / "absent.json", mode="ro")
        assert len(reader) == 0
        assert reader.get("key-a") is None

    def test_invalid_mode_rejected(self, tmp_path):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            RateCache(tmp_path / "rates.json", mode="append")

    def test_batched_flush_survives_concurrent_snapshots(self, tmp_path):
        """Readers see complete flushes only, in flush order.

        put() is batched (dirty-marking, no I/O), so a concurrent
        reader must not observe an entry until the writer's save() —
        and each save is one atomic replace, so a reload between
        flushes yields either the old or the new complete view.
        """
        import json

        path = tmp_path / "rates.json"
        writer = RateCache(path)
        writer.put("key-a", fake_rates(1))
        writer.save()

        reader = RateCache(path, mode="ro")
        assert reader.get("key-a") is not None

        # A put that has not been flushed is invisible to snapshots,
        # even after a reload: flush batching is what the reader sees.
        writer.put("key-b", fake_rates(2))
        reader.reload()
        assert reader.get("key-b") is None

        # After the flush a reload adopts the complete new view, and
        # the on-disk bytes parse at every step (atomic replace).
        writer.save()
        assert set(json.loads(path.read_text())) == {"key-a", "key-b"}
        assert reader.reload() == 2
        assert reader.get("key-b") == fake_rates(2)
        assert reader.get("key-a") == fake_rates(1)

    def test_rw_reload_keeps_local_unsaved_puts(self, tmp_path):
        path = tmp_path / "rates.json"
        first = RateCache(path)
        first.put("key-a", fake_rates(1))
        first.save()

        second = RateCache(path)
        second.put("key-b", fake_rates(2))  # unsaved
        first.put("key-c", fake_rates(3))
        first.save()
        # reload merges the concurrent flush *under* local state.
        second.reload()
        assert second.get("key-a") is not None
        assert second.get("key-c") is not None
        assert second.get("key-b") == fake_rates(2)


class TestRateCacheLru:
    """The file is bounded: LRU eviction keeps it under max_entries."""

    def test_repeated_distinct_sweeps_stay_under_cap(self, tmp_path):
        import json

        path = tmp_path / "rates.json"
        cap = 5
        # Many sessions, each adding distinct entries (as distinct
        # (workload, gating, seed) sweeps would) and saving.
        for session in range(4):
            cache = RateCache(path, max_entries=cap)
            for i in range(4):
                cache.put(f"key-{session}-{i}", fake_rates(i))
            cache.save()
            assert len(cache) <= cap
        on_disk = json.loads(path.read_text())
        assert len(on_disk) <= cap

    def test_least_recently_used_evicted_first(self, tmp_path):
        path = tmp_path / "rates.json"
        cache = RateCache(path, max_entries=3)
        for i in range(3):
            cache.put(f"key-{i}", fake_rates(i))
        cache.save()
        # Touch key-0 so key-1 becomes the oldest, then overflow.
        assert cache.get("key-0") is not None
        cache.put("key-3", fake_rates(3))
        cache.save()
        reloaded = RateCache(path, max_entries=3)
        assert reloaded.get("key-1") is None
        assert reloaded.get("key-0") is not None
        assert reloaded.get("key-3") is not None

    def test_timestamps_persist_in_payload(self, tmp_path):
        import json

        path = tmp_path / "rates.json"
        cache = RateCache(path, max_entries=10)
        cache.put("k", fake_rates(1))
        cache.save()
        entry = json.loads(path.read_text())["k"]
        assert "rates" in entry and entry["ts"] > 0

    def test_legacy_flat_format_is_remeasured(self, tmp_path):
        # The historical layout stored the rates dict unwrapped.  Such
        # an entry is skipped as malformed (a miss, so the rates are
        # measured again), and the next save writes the current layout.
        import json
        from dataclasses import asdict

        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"old": asdict(fake_rates(2))}))
        cache = RateCache(path)
        assert len(cache) == 0
        assert cache.get("old") is None
        assert cache.misses == 1
        cache.put("new", fake_rates(3))
        cache.save()
        data = json.loads(path.read_text())
        assert set(data) == {"new"}
        assert set(data["new"]) == {"rates", "ts"}
        assert RateCache(path).get("new") == fake_rates(3)

    def test_bad_max_entries_rejected(self, tmp_path):
        import pytest as _pytest

        from repro.errors import SimulationError

        with _pytest.raises(SimulationError):
            RateCache(tmp_path / "rates.json", max_entries=0)

    def test_env_var_sets_default_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RATE_CACHE_MAX", "7")
        assert RateCache(tmp_path / "rates.json").max_entries == 7
