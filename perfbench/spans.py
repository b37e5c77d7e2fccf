"""Outside-in tracing: spans around calls into each layer's public API.

Nothing inside ``src/`` is edited.  :class:`Tracer` replaces the named
functions and methods with timing wrappers while it is installed and
puts the originals back when it is removed, so untraced passes run the
program exactly as shipped.

Each call becomes one span record ``[id, name, start, end, parent,
thread, job]``, kept in memory and written out once when the run ends.
Spans of one request share a job id: the id is set by the worker-side
``ExperimentScheduler._run_job`` span and by the HTTP dispatch span
(read back from its response), and children inherit it from their
parent chain when the spans are written.

Aggregates are accumulated per thread while spans close, then merged:

- ``total[name]`` and ``self[name]`` — a span's duration, and its
  duration minus the part covered by its direct children;
- ``busy[layer]`` — time inside a layer's outermost span, so a layer
  that calls itself (``commit_block`` -> ``add_block``) counts once;
- ``calls[name]``, ``calls[(name, parent_name)]`` and
  ``under[(name, parent_name)]`` — call counts, and count and time of
  a span by the name of its parent.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module path, attribute path, span name, layer).  Functions imported
#: by name into another module are patched where they are looked up.
TARGETS = (
    # trace simulation and the rate cache
    ("repro.core.runner", "NodeRunner.rates_for", "NodeRunner.rates_for", "tracesim"),
    ("repro.mem.fastsim", "TraceEngine.counts", "TraceEngine.counts", "tracesim"),
    ("repro.core.ratecache", "RateCache.__init__", "RateCache.load", "ratecache"),
    ("repro.core.ratecache", "RateCache.save", "RateCache.save", "ratecache"),
    # control loop: scalar quantum, block-step kernel, batch engine
    ("repro.core.runner", "RunState.step_quantum", "RunState.step_quantum", "control"),
    ("repro.core.blockstep", "BlockStepKernel.advance", "BlockStepKernel.advance", "control"),
    ("repro.core.experiment", "run_sweep", "batchstep.run_sweep", "control"),
    ("repro.core.batchstep", "march", "batchstep.march", "control"),
    # telemetry recording
    ("repro.obs.timeseries", "SeriesChannel.add", "SeriesChannel.add", "telemetry"),
    ("repro.obs.timeseries", "SeriesChannel.add_block", "SeriesChannel.add_block", "telemetry"),
    ("repro.obs.timeseries", "TelemetrySampler.record", "TelemetrySampler.record", "telemetry"),
    ("repro.obs.timeseries", "TelemetrySampler.commit_block", "TelemetrySampler.commit_block", "telemetry"),
    ("repro.obs.timeseries", "TelemetrySampler.finish", "TelemetrySampler.finish", "telemetry"),
    # timeline merge
    ("repro.obs.timeseries", "RunTimeline.merge", "RunTimeline.merge", "merge"),
    ("repro.obs.timeseries", "SeriesChannel.merge", "SeriesChannel.merge", "merge"),
    # assembly
    ("repro.core.metrics", "AveragedResult.from_runs", "AveragedResult.from_runs", "assemble"),
    ("repro.core.experiment", "scan_experiment", "scan_experiment", "assemble"),
    ("repro.core.experiment", "build_provenance", "build_provenance", "assemble"),
    # serialization (the sweep path calls it through this module too)
    ("repro.core.serialize", "experiment_to_dict", "experiment_to_dict", "serialize"),
    ("repro.service.store", "experiment_to_dict", "experiment_to_dict", "serialize"),
    # store
    ("repro.service.store", "SQLiteResultStore.has_result", "store.has_result", "store"),
    ("repro.service.store", "SQLiteResultStore.record_job", "store.record_job", "store"),
    ("repro.service.store", "ResultStoreBase.put_result", "store.put_result", "store"),
    # HTTP, admission, queue, scheduler
    ("repro.service.routes", "Router.dispatch", "Router.dispatch", "http"),
    ("repro.service.admission", "AdmissionController.admit", "AdmissionController.admit", "admission"),
    ("repro.service.jobs", "JobQueue.push", "JobQueue.push", "queue"),
    ("repro.service.scheduler", "ExperimentScheduler._run_job", "scheduler.run_job", "scheduler"),
    # fleet
    ("repro.fleet.engine", "FleetEngine.step", "FleetEngine.step", "fleet"),
    ("repro.fleet.traffic", "DiurnalTraffic.demand_w", "TrafficModel.demand_w", "fleet"),
    ("repro.fleet.engine", "divide_groups", "divide_groups", "fleet"),
    ("repro.fleet.health", "FleetHealth.observe_tick", "FleetHealth.observe_tick", "fleet"),
)


class _ThreadState:
    __slots__ = ("stack", "layers", "total", "self", "busy", "calls", "under")

    def __init__(self):
        self.stack = []  # [name, layer, start, child_s, record]
        self.layers = defaultdict(int)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.under = defaultdict(float)


class Tracer:
    """Installable span recorder for the functions in :data:`TARGETS`."""

    def __init__(self):
        self.records = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._patches = []
        #: Deepest job queue seen right after a push.
        self.depth_max = 0

    # -- recording -----------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _open(self, name, layer, job=None):
        st = self._state()
        parent = st.stack[-1][4][0] if st.stack else 0
        record = [next(self._ids), name, 0.0, 0.0, parent,
                  threading.get_ident(), job]
        frame = [name, layer, 0.0, 0.0, record]
        st.stack.append(frame)
        st.layers[layer] += 1
        frame[2] = record[2] = time.perf_counter()
        return st, frame

    def _close(self, st, frame):
        end = time.perf_counter()
        name, layer, start, child_s, record = frame
        st.stack.pop()
        st.layers[layer] -= 1
        dur = end - start
        record[3] = end
        self.records.append(record)
        st.total[name] += dur
        st.self[name] += dur - child_s
        st.calls[name] += 1
        if st.layers[layer] == 0:
            st.busy[layer] += dur
        if st.stack:
            parent = st.stack[-1]
            parent[3] += dur
            st.under[(name, parent[0])] += dur
            st.calls[(name, parent[0])] += 1

    @contextmanager
    def span(self, name, layer):
        """A span opened by the benchmark itself (e.g. JSON encoding)."""
        st, frame = self._open(name, layer)
        try:
            yield
        finally:
            self._close(st, frame)

    def _wrapper(self, fn, name, layer):
        tracer = self
        if name == "Router.dispatch":
            def traced(*args, **kwargs):
                st, frame = tracer._open(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(st, frame)
                body = getattr(result, "body", b"")
                if body[:1] == b"{":
                    frame[4][6] = json.loads(body).get("id")
                return result
        elif name == "scheduler.run_job":
            def traced(self_, job, *args, **kwargs):
                st, frame = tracer._open(name, layer, job.id)
                try:
                    return fn(self_, job, *args, **kwargs)
                finally:
                    tracer._close(st, frame)
        elif name == "SeriesChannel.add_block":
            def traced(self_, points, *args, **kwargs):
                st, frame = tracer._open(name, layer)
                try:
                    return fn(self_, points, *args, **kwargs)
                finally:
                    tracer._close(st, frame)
                    st.calls["SeriesChannel.add_block.points"] += len(points)
        elif name == "JobQueue.push":
            def traced(self_, *args, **kwargs):
                st, frame = tracer._open(name, layer)
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    tracer._close(st, frame)
                    depth = self_.depth()
                    with tracer._states_lock:
                        tracer.depth_max = max(tracer.depth_max, depth)
        else:
            def traced(*args, **kwargs):
                st, frame = tracer._open(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(st, frame)
        traced.__wrapped__ = fn
        return traced

    # -- install / remove ----------------------------------------------

    def install(self):
        import importlib

        for module_name, attr_path, name, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, name, layer))
            else:
                new = self._wrapper(raw, name, layer)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))

    def remove(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- results -------------------------------------------------------

    def merged(self):
        """Per-name and per-layer aggregates over every thread."""
        out = {k: defaultdict(float) for k in
               ("total", "self", "busy", "calls", "under")}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for key in out:
                for k, v in getattr(st, key).items():
                    out[key][k] += v
        return out

    def write(self, path):
        """Write every span as one JSON document (children inherit the
        job id of their nearest ancestor that has one)."""
        by_id = {r[0]: r for r in self.records}
        for r in sorted(self.records, key=lambda r: r[0]):
            if r[6] is None and r[4] in by_id:
                r[6] = by_id[r[4]][6]
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "thread",
                       "job"],
            "spans": self.records,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
