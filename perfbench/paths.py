"""The three user paths the benchmark drives, each set up once per run.

- :class:`SweepPath` — the paper's Table II sweep, warm: both paper
  workloads at the baseline plus the nine caps 160 -> 120 W, two
  repetitions, scale 1.0, in-process with ``jobs=1`` and the default
  telemetry, block-step and batch engines, serialized the way
  ``repro-powercap sweep --format json`` writes it.
- :class:`FleetPath` — ``FleetEngine`` on 39 rows x 8 racks x 32 nodes
  (9,984 nodes) under ``DiurnalTraffic``, PROPORTIONAL division,
  ``rebalance_every=5``, default telemetry and health.
- :class:`ServicePath` — a default threaded ``ExperimentService``
  (``workers=2``, SQLite store, no shards) fed by the open-loop
  generator in :mod:`loadgen`, running as a separate process.

Every path derives its inputs from the run seed, times one *unit* of
work per call to :meth:`unit`, and checks its outputs: each unit's
result must equal the first unit's, and the path-specific checks in
each class must hold.  A failed check is recorded in ``errors``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

from repro.config import PAPER_POWER_CAPS_W
from repro.core import serialize
from repro.core.experiment import PowerCapExperiment
from repro.dcm.group import DivisionStrategy
from repro.fleet import DiurnalTraffic, FleetEngine, FleetTopology
from repro.obs.metrics import engine_metrics
from repro.service import ExperimentService
from repro.service.jobs import JobSpec
from repro.workloads import make_workload

HERE = os.path.dirname(os.path.abspath(__file__))

#: Provenance fields that record how and when a result was produced
#: (wall-clock stamps, phase timings, cache counters, process-wide
#: engine counters shared by concurrent jobs) rather than what it is.
VOLATILE_PROVENANCE = ("created_at", "phase_seconds", "rate_cache", "execution")

#: Paper workloads, by registry name.
PAPER_WORKLOADS = ("stereo", "sire")


def stable_doc(doc: dict) -> dict:
    """A sweep document without its volatile provenance fields."""
    doc = dict(doc)
    prov = doc.get("provenance")
    if prov is not None:
        doc["provenance"] = {
            k: v for k, v in prov.items() if k not in VOLATILE_PROVENANCE
        }
    return doc


def stable_json(docs: dict) -> str:
    """Canonical bytes of ``{workload: sweep document}``."""
    return json.dumps(
        {name: stable_doc(doc) for name, doc in docs.items()}, sort_keys=True
    )


class SweepPath:
    """Warm Table II sweeps plus serialization."""

    REPS = 2
    FILL_SCALE = 0.02

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rate_cache = os.path.join(workdir, "sweep-rates.json")
        self.errors = []
        self.reference = None
        self.bytes = 0
        # Set-up fills the rate cache: the one cold trace simulation
        # per (workload, gating) that a user pays on the first sweep.
        # The rate key leaves out the instruction budget, so a short
        # sweep over the same caps visits every gating the full one does.
        self._sweep(scale=self.FILL_SCALE, reps=1)

    def _sweep(self, scale=1.0, reps=REPS):
        experiment = PowerCapExperiment(
            [make_workload(name, scale) for name in PAPER_WORKLOADS],
            caps_w=PAPER_POWER_CAPS_W,
            repetitions=reps,
            seed=self.seed,
            rate_cache=self.rate_cache,
        )
        traces0 = engine_metrics().traces_simulated.value
        results = experiment.run_all(jobs=1)
        if scale == 1.0 and engine_metrics().traces_simulated.value != traces0:
            self.errors.append("sweep: a timed sweep simulated a trace")
        return results, {
            name: serialize.experiment_to_dict(result)
            for name, result in results.items()
        }

    def unit(self, tracer=None) -> float:
        """One warm sweep plus ``--format json`` encoding; seconds."""
        t0 = time.perf_counter()
        results, docs = self._sweep()
        if tracer is None:
            texts = {
                n: json.dumps(d, indent=2, sort_keys=True)
                for n, d in docs.items()
            }
        else:
            with tracer.span("json.dumps", "serialize"):
                texts = {
                    n: json.dumps(d, indent=2, sort_keys=True)
                    for n, d in docs.items()
                }
        wall = time.perf_counter() - t0
        self.bytes = sum(len(t) for t in texts.values())
        self._check(results, docs)
        return wall

    def _check(self, results, docs) -> None:
        canon = stable_json(docs)
        if self.reference is None:
            self.reference = canon
            self._check_shape(results)
        elif canon != self.reference:
            self.errors.append("sweep: result differs from the first pass")

    def _check_shape(self, results) -> None:
        # The reproduce report's Table II shape: execution time never
        # falls as the cap tightens, and the frequency sits at the
        # 1200 MHz floor at the caps where the paper sees it pinned.
        for name, result in results.items():
            times = [row.execution_s for row in result.rows()]
            if any(b < a for a, b in zip(times, times[1:])):
                self.errors.append(f"sweep: {name} time falls as cap falls")
            for cap in (125.0, 120.0):
                if abs(result.row(cap).avg_freq_mhz - 1200.0) >= 25.0:
                    self.errors.append(
                        f"sweep: {name} not pinned at 1200 MHz at {cap:g} W"
                    )

    def close(self) -> None:
        pass


class FleetPath:
    """Diurnal-traffic runs of a ~10k-node fleet."""

    ROWS, RACKS_PER_ROW, NODES_PER_RACK = 39, 8, 32
    TICKS = 1000
    #: The summary fields that time the run rather than describe it.
    WALL_FIELDS = ("wall_s", "node_steps_per_s")

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.errors = []
        self.reference = None
        self.topology = FleetTopology.build(
            rows=self.ROWS,
            racks_per_row=self.RACKS_PER_ROW,
            nodes_per_rack=self.NODES_PER_RACK,
        )
        self.nodes = self.topology.n_nodes
        self.budget_w = 0.8 * float(self.topology.max_cap_w.sum())
        self.rebalances = 0
        #: Most the armed caps' sum passed the budget by (rounding).
        self.cap_excess_w = float("-inf")
        self._engine()

    def _engine(self) -> FleetEngine:
        return FleetEngine(
            self.topology,
            DiurnalTraffic(),
            budget_w=self.budget_w,
            strategy=DivisionStrategy.PROPORTIONAL,
            rebalance_every=5,
            seed=self.seed,
        )

    def unit(self, tracer=None) -> float:
        """One fleet run of :attr:`TICKS` ticks; node-steps per second."""
        engine = self._engine()
        t0 = time.perf_counter()
        result = engine.run(float(self.TICKS))
        wall = time.perf_counter() - t0
        self.rebalances = result.summary["rebalances_applied"]
        self._check(result)
        return self.nodes * self.TICKS / wall

    def _check(self, result) -> None:
        doc = result.to_dict()
        for key in self.WALL_FIELDS:
            doc["summary"].pop(key, None)
        digest = hashlib.blake2b(
            json.dumps(doc, sort_keys=True, default=str).encode(),
            digest_size=16,
        ).hexdigest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.errors.append("fleet: result digest differs between passes")
        # The division's targets sum to at most the budget; the engine
        # arms np.rint(target), like DataCenterManager.apply_cap, so
        # the armed sum may pass the budget by the rounding alone: at
        # most half a watt per node, and no more.
        excess_w = result.timelines["fleet_cap_w"].vmax() - self.budget_w
        self.cap_excess_w = max(self.cap_excess_w, excess_w)
        if excess_w > 0.5 * self.nodes:
            self.errors.append("fleet: applied caps exceed the budget")

    def close(self) -> None:
        pass


class ServicePath:
    """Open-loop mixed traffic against a default threaded service."""

    #: Distinct specs stored during set-up; duplicates resubmit them.
    STORED_SPECS = 16
    DUP_SHARE = 0.85
    #: Offered load (requests/s) and length of one traffic window.
    RATE = 10.0
    WINDOW_S = 5.0
    WARMUP_S = 2.0
    SCALE_RANGE = (0.04, 0.06)
    CAPS_PER_SPEC = 2
    #: New-work results re-run in-process and compared byte for byte.
    CHECK_SAMPLE = 2

    def __init__(self, seed: int, workdir: str, rate_cache: str) -> None:
        self.seed = seed
        self.errors = []
        self.rng = random.Random(f"service:{seed}")
        self.threads = os.cpu_count() or 1
        self._seen = set()
        self.new_specs = []
        # The service gets its own copy of the filled rate cache, so
        # new work on this seed never simulates a trace.
        cache = os.path.join(workdir, "service-rates.json")
        shutil.copyfile(rate_cache, cache)
        self.service = ExperimentService(
            db_path=os.path.join(workdir, "service.sqlite"),
            port=0,
            workers=2,
            rate_cache=cache,
            frontend="thread",
        )
        self.loadgen = None
        self.service.start()
        self.stored = [self._new_spec() for _ in range(self.STORED_SPECS)]
        for spec in self.stored:
            self.service.scheduler.submit(JobSpec.from_dict(spec))
        if not self.service.scheduler.drain(timeout=120.0):
            raise RuntimeError("service set-up did not drain")
        self.loadgen = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "loadgen.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _new_spec(self) -> dict:
        """A spec never seen before: the rate key (workload, seed) is
        shared, the scale and the caps subset are not."""
        while True:
            caps = sorted(
                self.rng.sample(list(PAPER_POWER_CAPS_W), self.CAPS_PER_SPEC),
                reverse=True,
            )
            spec = {
                "workload": self.rng.choice(PAPER_WORKLOADS),
                "caps_w": caps,
                "repetitions": 1,
                "seed": self.seed,
                "scale": round(self.rng.uniform(*self.SCALE_RANGE), 4),
            }
            key = json.dumps(spec, sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                return spec

    def _plan(self, window_s):
        """Poisson arrivals at :attr:`RATE`; every window of a given
        length carries the same number of requests and the same
        duplicate/new split, so windows differ in timing and specs, not
        in how much work they hold."""
        n = round(self.RATE * window_s)
        n_new = round(n * (1.0 - self.DUP_SHARE))
        kinds = ["new"] * n_new + ["dup"] * (n - n_new)
        self.rng.shuffle(kinds)
        t, plan = 0.0, []
        for kind in kinds:
            t += self.rng.expovariate(self.RATE)
            if kind == "dup":
                plan.append([t, "dup", self.rng.choice(self.stored)])
            else:
                spec = self._new_spec()
                self.new_specs.append(spec)
                plan.append([t, "new", spec])
        return plan

    def warm_up(self) -> None:
        """One short untimed window: the first window after set-up
        opens the generator's connections and the server's handler
        threads, and warms the store's pages."""
        self.unit(window_s=self.WARMUP_S)

    def unit(self, tracer=None, window_s=None) -> dict:
        """One traffic window, drained; per-request and per-job samples."""
        plan = {
            "url": self.service.url,
            "threads": self.threads,
            "requests": self._plan(window_s or self.WINDOW_S),
        }
        cpu0 = time.process_time()
        self.loadgen.stdin.write(json.dumps(plan) + "\n")
        self.loadgen.stdin.flush()
        line = self.loadgen.stdout.readline()
        cpu_s = time.process_time() - cpu0
        if not line:
            raise RuntimeError("load generator exited")
        out = self._collect(json.loads(line))
        # This process hosts the server and only waits on the generator
        # meanwhile, so its CPU time is the server's.
        out["cpu_ms_per_req"] = cpu_s * 1e3 / out["attempted"]
        return out

    def _collect(self, reply) -> dict:
        out = {"dup_ms": [], "job_ms": [], "wait_ms": [], "lag_ms": [],
               "attempted": 0, "failed": 0}
        jobs = reply["jobs"]
        for req in reply["requests"]:
            out["attempted"] += 1
            out["lag_ms"].append(req["lag_ms"])
            if req["status"] != 201:
                out["failed"] += 1
                continue
            if req["kind"] == "dup":
                if not (req["deduplicated"] and req["state"] == "done"):
                    self.errors.append("service: duplicate not deduplicated")
                out["dup_ms"].append(req["latency_ms"])
                continue
            job = jobs.get(req["id"])
            if job is None or job["state"] != "done":
                out["failed"] += 1
                continue
            out["job_ms"].append((job["finished_at"] - req["due_wall"]) * 1e3)
            out["wait_ms"].append(
                (job["started_at"] - job["created_at"]) * 1e3
            )
        return out

    def sheds(self) -> int:
        """Submissions admission control turned away so far."""
        return int(sum(self.service.admission.shed_counts().values()))

    def check_sample(self) -> None:
        """Re-run a seeded sample of new work in-process; the stored
        documents must match byte for byte."""
        rng = random.Random(f"check:{self.seed}")
        sample = rng.sample(
            self.new_specs, min(self.CHECK_SAMPLE, len(self.new_specs))
        )
        store = self.service.store
        for data in sample:
            spec = JobSpec.from_dict(data)
            stored = store.get_result_dict(spec.digest())
            if stored is None:
                self.errors.append("service: new-work result missing")
                continue
            experiment = PowerCapExperiment(
                [make_workload(spec.workload, spec.scale)],
                caps_w=spec.caps_w,
                repetitions=spec.repetitions,
                seed=spec.seed,
                rate_cache=self.service.scheduler.rate_cache,
            )
            local = {
                name: serialize.experiment_to_dict(result)
                for name, result in experiment.run_all(jobs=1).items()
            }
            if stable_json(local) != stable_json(stored):
                self.errors.append(
                    "service: stored result differs from the in-process run"
                )

    def close(self) -> None:
        if self.loadgen is not None:
            try:
                self.loadgen.stdin.write("\n")
                self.loadgen.stdin.close()
            except OSError:
                pass
            try:
                self.loadgen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.loadgen.kill()
                self.loadgen.wait()
            self.loadgen.stdout.close()
            self.loadgen = None
        self.service.shutdown(drain=True, timeout=30.0)
