"""The repository benchmark: one command, three user paths, every layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-warm --seed 1 --seconds 44 --trace 0

Every run sets up and then drives all three user paths of the system —
the warm Table II sweep, the fleet simulator and the job service under
open-loop traffic — interleaved unit by unit, so drift of the host
lands on all of them alike and every end-to-end metric is measured in
every run.  The workload decides which path gets the largest share of
the measured time (see ``WORKLOADS`` and ``NOTES.md``).  Reported
times are scaled to a reference host speed measured between units
(:func:`speed_probe`); the detail line keeps the raw values.

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed.  ``--trace 1`` alternates traced and untraced units: the
traced ones give the per-layer metrics (spans recorded from outside by
:mod:`spans`), the pair gives ``tracing.overhead_frac``, and the spans
are written to ``.perfbench_out/`` when the run ends.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the host class and, for every timing, its median, quartiles and
sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

#: Share of the measured time each path gets, by workload.  The named
#: path gets the most; the others still get enough units for a median.
WORKLOADS = {
    "table2-warm": {"sweep": 0.4, "fleet": 0.15, "service": 0.45},
    "service-mixed": {"sweep": 0.2, "fleet": 0.15, "service": 0.65},
}
#: The path whose traced/untraced ratio is each workload's tracing
#: overhead.
FOCUS = {"table2-warm": "sweep", "service-mixed": "service"}
MIN_UNITS = {"sweep": 3, "fleet": 5, "service": 2}
SETUPS = 3
#: Median generator lag above this share of the median duplicate
#: latency means the generator, not the server, set the pace.
MAX_LAG_SHARE = 0.1
#: What :func:`speed_probe` takes on a quiet 2-CPU host.  A run's host
#: speed is this over the median of the probes taken between its units.
REF_PROBE_S = 0.030


def speed_probe():
    """Seconds for a fixed piece of interpreter and numpy work that
    calls nothing in ``src/``: a gauge of how fast the host runs right
    now, taken between units."""
    import numpy as np

    data = np.random.default_rng(0).random(50_000)
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for k in range(200_000):
        table[k & 1023] = acc = acc * 0.5 + k
    for _ in range(24):
        np.sort(data)
    return time.perf_counter() - t0


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def spread(values):
    """Median, quartiles and count of a sample (JSON-ready)."""
    return {
        "median": statistics.median(values),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "n": len(values),
    }


def host_class():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run: set-ups, interleaved units, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.shares = WORKLOADS[workload]
        self.workdir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
        self.outdir = os.path.join(ROOT, ".perfbench_out")
        self.samples = {p: {"untraced": [], "traced": []}
                        for p in self.shares}
        self.setup_s = []
        self.probes = []
        self.errors = []
        self.tracer = None
        self.counters = {}
        self.paths = None

    # -- set-up --------------------------------------------------------

    def _build(self, tag):
        from paths import FleetPath, ServicePath, SweepPath

        workdir = os.path.join(self.workdir, tag)
        os.makedirs(workdir)
        sweep = SweepPath(self.seed, workdir)
        fleet = FleetPath(self.seed, workdir)
        service = ServicePath(self.seed, workdir, sweep.rate_cache)
        return {"sweep": sweep, "fleet": fleet, "service": service}

    def setup(self):
        # Set up several times from scratch and keep the last, so the
        # reported set-up time is a median and not a single shot.
        for i in range(SETUPS):
            last = i == SETUPS - 1
            self.probes.append(speed_probe())
            t0 = time.perf_counter()
            with self._traced(last and self.trace):
                paths = self._build(f"setup{i}")
            self.setup_s.append(time.perf_counter() - t0)
            if last:
                self.paths = paths
            else:
                self._close(paths)

    # -- tracing -------------------------------------------------------

    def _engine_counts(self):
        from repro.obs.metrics import engine_metrics

        m = engine_metrics()
        return {
            "runs": m.runs.value,
            "quanta": m.quanta.value,
            "block_quanta": m.block_quanta.value,
            "batch_quanta": m.batch_quanta.value,
            "ratecache_hits": m.rate_cache_hits.value,
            "ratecache_misses": m.rate_cache_misses.value,
        }

    @contextmanager
    def _traced(self, on):
        """Install the tracer for the block when ``on``; engine counter
        deltas inside the block count toward the per-layer metrics."""
        if not on:
            yield
            return
        from spans import Tracer

        if self.tracer is None:
            self.tracer = Tracer()
        before = self._engine_counts()
        with self.tracer.installed():
            yield
        for k, v in self._engine_counts().items():
            self.counters[k] = self.counters.get(k, 0) + v - before[k]

    # -- measurement ---------------------------------------------------

    def _next_path(self, spent, counts, total):
        """The path furthest behind its share, or None when the next
        unit would run past ``--seconds`` (once every path has its
        minimum number of units)."""
        short = [p for p in self.shares if counts[p] < MIN_UNITS[p]]
        if short:
            return short[0]
        path = max(self.shares,
                   key=lambda p: self.shares[p] * total - spent[p])
        mean_unit = spent[path] / counts[path]
        return path if total + mean_unit <= self.seconds else None

    def measure(self):
        self.paths["service"].warm_up()
        spent = {p: 0.0 for p in self.shares}
        counts = {p: 0 for p in self.shares}
        total = 0.0
        while True:
            path = self._next_path(spent, counts, total)
            if path is None:
                return
            traced = bool(self.trace) and counts[path] % 2 == 1
            t0 = time.perf_counter()
            with self._traced(traced):
                sample = self.paths[path].unit(
                    self.tracer if traced else None
                )
            elapsed = time.perf_counter() - t0
            # Collect the unit's garbage now, so no unit pays for the
            # cycles another left behind.
            gc.collect()
            self.probes.append(speed_probe())
            self.samples[path]["traced" if traced else "untraced"].append(
                sample
            )
            spent[path] += elapsed
            counts[path] += 1
            total += elapsed

    def check(self):
        self.paths["service"].check_sample()
        for path in self.paths.values():
            self.errors.extend(path.errors)

    def _close(self, paths):
        for path in paths.values():
            path.close()

    def close(self):
        if self.paths is not None:
            self._close(self.paths)
            self.paths = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = os.path.dirname(self.workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    # -- results -------------------------------------------------------

    @staticmethod
    def _pool(windows, key):
        return [x for w in windows for x in w[key]]

    def service_counts(self):
        windows = (self.samples["service"]["untraced"]
                   + self.samples["service"]["traced"])
        attempted = sum(w["attempted"] for w in windows)
        failed = sum(w["failed"] for w in windows)
        return windows, attempted, failed

    def host_speed(self):
        """Reference probe time over this run's median probe time."""
        return REF_PROBE_S / statistics.median(self.probes)

    def end_to_end(self):
        s = self.samples
        windows = s["service"]["untraced"]
        dup = self._pool(windows, "dup_ms")
        job = self._pool(windows, "job_ms")
        lag = self._pool(windows, "lag_ms")
        raw = {
            "sweep_s": statistics.median(s["sweep"]["untraced"]),
            "node_steps_per_s": statistics.median(s["fleet"]["untraced"]),
            "service_cpu_ms_per_req": statistics.median(
                w["cpu_ms_per_req"] for w in windows),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        speed = self.host_speed()
        values = {k: (v / speed if k == "node_steps_per_s"
                      else v if k == "peak_rss_mb" else v * speed)
                  for k, v in raw.items()}
        # Open-loop latencies, unscaled: on a shared host they spread
        # too far from run to run to gate on (see NOTES.md), so they
        # are reported here rather than as end-to-end metrics.
        latency = {
            "dup_p50_ms": quantile(dup, 0.5),
            "dup_p99_ms": quantile(dup, 0.99),
            "job_p50_ms": quantile(job, 0.5),
            "job_p90_ms": quantile(job, 0.9),
        }
        detail = {
            "sweep_s": spread(s["sweep"]["untraced"]),
            "node_steps_per_s": spread(s["fleet"]["untraced"]),
            "service_cpu_ms_per_req": spread(
                [w["cpu_ms_per_req"] for w in windows]),
            "setup_s": spread(self.setup_s),
            "dup_ms": spread(dup),
            "job_ms": spread(job),
            "lag_ms": spread(lag),
            "latency": latency,
            "probe_s": spread(self.probes),
            "host_speed": speed,
            "raw": raw,
        }
        if quantile(lag, 0.5) > MAX_LAG_SHARE * latency["dup_p50_ms"]:
            self.errors.append(
                "service: load generator lagged; run is invalid"
            )
        return values, detail

    def per_layer(self):
        m = self.tracer.merged()
        total, self_, busy = m["total"], m["self"], m["busy"]
        calls, under = m["calls"], m["under"]
        c = self.counters
        s = self.samples

        def med_ratio(path, cost):
            traced = [cost(v) for v in s[path]["traced"]]
            untraced = [cost(v) for v in s[path]["untraced"]]
            return statistics.median(traced) / statistics.median(untraced) - 1

        add = "SeriesChannel.add"
        merge_adds = calls[(add, "SeriesChannel.merge")]
        telemetry_s = busy["telemetry"] - under[(add, "SeriesChannel.merge")]
        points = (calls[add] - merge_adds
                  + calls["SeriesChannel.add_block.points"])
        control_names = ("RunState.step_quantum", "BlockStepKernel.advance",
                         "batchstep.march", "batchstep.run_sweep")
        control_self = sum(self_[n] for n in control_names)
        requests = calls["Router.dispatch"]
        traced_windows = s["service"]["traced"]
        waits = self._pool(traced_windows, "wait_ms")
        windows, _, _ = self.service_counts()
        lag = self._pool(windows, "lag_ms")
        focus = FOCUS[self.workload]
        cost = {"sweep": lambda v: v, "fleet": lambda v: 1 / v,
                "service": lambda v: quantile(v["job_ms"], 0.5)}[focus]
        overhead = med_ratio(focus, cost)
        paths = self.paths
        values = {
            "tracesim.calls": calls["NodeRunner.rates_for"],
            "tracesim.busy_s": busy["tracesim"],
            "tracesim.ratecache.hits": c["ratecache_hits"],
            "tracesim.ratecache.misses": c["ratecache_misses"],
            "tracesim.ratecache.load_s": total["RateCache.load"],
            "tracesim.ratecache.save_s": total["RateCache.save"],
            "control.runs": c["runs"],
            "control.quanta": c["quanta"],
            "control.block_quanta": c["block_quanta"],
            "control.batch_quanta": c["batch_quanta"],
            "control.scalar_busy_s": self_["RunState.step_quantum"],
            "control.kernel_self_s": self_["BlockStepKernel.advance"],
            "control.batch_self_s": self_["batchstep.march"],
            "control.us_per_quantum": control_self / c["quanta"] * 1e6,
            "telemetry.add_calls": calls[add] - merge_adds,
            "telemetry.add_block_calls": calls["SeriesChannel.add_block"],
            "telemetry.busy_s": telemetry_s,
            "telemetry.us_per_point": telemetry_s / points * 1e6,
            "merge.calls": calls["RunTimeline.merge"],
            "merge.busy_s": busy["merge"],
            "assemble.busy_s": (self_["AveragedResult.from_runs"]
                                + total["build_provenance"]),
            "assemble.detect_s": total["scan_experiment"],
            "serialize.busy_s": busy["serialize"],
            "serialize.bytes": paths["sweep"].bytes,
            "store.has_result.calls": calls["store.has_result"],
            "store.has_result.busy_s": total["store.has_result"],
            "store.record_job.calls": calls["store.record_job"],
            "store.record_job.busy_s": total["store.record_job"],
            "store.put_result.calls": calls["store.put_result"],
            "store.put_result.busy_s": total["store.put_result"],
            "http.requests": requests,
            "http.dispatch_self_s": self_["Router.dispatch"],
            "http.us_per_request": (self_["Router.dispatch"] / requests
                                    * 1e6),
            "admission.admits": (calls["AdmissionController.admit"]
                                 - paths["service"].sheds()),
            "admission.sheds": paths["service"].sheds(),
            "admission.busy_s": total["AdmissionController.admit"],
            "queue.wait_p50_ms": quantile(waits, 0.5),
            "queue.wait_p90_ms": quantile(waits, 0.9),
            "queue.depth_max": self.tracer.depth_max,
            "fleet.ticks": calls["FleetEngine.step"],
            "fleet.step_self_s": self_["FleetEngine.step"],
            "fleet.traffic_s": total["TrafficModel.demand_w"],
            "fleet.divide_s": total["divide_groups"],
            "fleet.health_s": total["FleetHealth.observe_tick"],
            "fleet.telemetry_s": under[(add, "FleetEngine.step")],
            "fleet.rebalances": (paths["fleet"].rebalances
                                 * len(s["fleet"]["traced"])),
            "loadgen.lag_p99_ms": quantile(lag, 0.99),
            "loadgen.requests": len(lag),
            "tracing.overhead_frac": overhead,
        }
        return values


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.environ.setdefault("REPRO_LOG_LEVEL", "WARNING")

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        run.setup()
        run.measure()
        run.check()
        _, req_attempted, req_failed = run.service_counts()
        attempted = (req_attempted
                     + sum(len(v) for v in run.samples["sweep"].values())
                     + sum(len(v) for v in run.samples["fleet"].values()))
        values, detail = run.end_to_end()
        run.cap_excess_w = run.paths["fleet"].cap_excess_w
        if args.trace:
            values = run.per_layer()
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    finally:
        run.close()
    if args.trace:
        os.makedirs(run.outdir, exist_ok=True)
        run.tracer.write(os.path.join(
            run.outdir, f"spans-{args.workload}-seed{args.seed}.json"))

    detail_line = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_class(),
        "spread": detail,
        "error_frac": req_failed / max(1, req_attempted),
        "fleet_cap_excess_w": run.cap_excess_w,
        "errors": run.errors,
    }
    result = {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": req_failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(detail_line, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
