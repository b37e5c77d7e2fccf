"""Execute a workload on the simulated node under a power cap.

The runner is a discrete-time coupling of every substrate:

- per control quantum, the BMC controller reads its (noisy) power
  sensor and issues an :class:`~repro.bmc.controller.OperatingCommand`
  (P-state dither pair, duty factor, escalation gating);
- the workload's steady-state per-instruction event rates under the
  commanded gating come from the trace-driven cache/TLB simulators
  (measured once per distinct gating and cached — miss behaviour does
  not depend on frequency or duty);
- the CPI-stack timing model converts rates + level costs + frequency +
  duty into instructions retired this quantum;
- the power model produces the quantum's true node power (dither-
  blended across the two P-states), which feeds the thermal model, the
  wall meter, the energy integral, and the next control decision.

The run ends when the workload's committed-instruction budget retires.
Counters accumulate per gating segment, so Table II's miss columns
reflect exactly the mix of configurations the run actually visited.
"""

from __future__ import annotations

from typing import Dict, Tuple

import os
import time

from ..arch.node import Node
from ..arch.core import CoreTimingModel
from ..config import NodeConfig, sandy_bridge_config
from ..bmc.controller import CapController
from ..bmc.sensors import PowerSensor
from ..errors import SimulationError
from ..mem.fastsim import TraceEngine
from ..mem.hierarchy import AccessRates, MemoryHierarchy
from ..mem.latency import AccessCosts, stall_ns_per_instruction
from ..mem.reconfig import GatingState, ReconfigEngine
from ..obs.logging import get_logger
from ..obs.metrics import engine_metrics, telemetry_metrics
from ..obs.timeseries import TelemetryConfig, TelemetrySampler
from ..obs.tracing import current_collector, span
from ..perf.counters import CounterBank
from ..perf.events import PapiEvent
from ..power.energy import EnergyAccumulator
from ..power.meter import WattsUpMeter
from ..rng import DEFAULT_SEED, RngStreams
from ..trace.events import TraceSlice
from ..workloads.base import Workload
from .blockstep import BlockStepKernel
from .metrics import RunResult
from .ratecache import RateCache, rate_key

__all__ = ["NodeRunner", "RunState", "export_counter_tracks"]

_log = get_logger("core.runner")


def export_counter_tracks(
    result: RunResult, wall0: float, wall_s: float
) -> None:
    """Ride a run's telemetry channels into the active trace collector.

    Each sample's *simulated* time maps proportionally onto the run's
    wall-clock interval, so counter curves line up with the run's span
    in chrome://tracing / Perfetto.  No-op without a collector or a
    timeline.
    """
    collector = current_collector()
    if collector is None or result.timeline is None:
        return
    scale = wall_s / result.execution_s if result.execution_s else 0.0
    for channel, t_s, value in result.timeline.counter_samples(
        max_points=48
    ):
        collector.add_counter(
            f"telemetry:{channel}",
            wall0 + t_s * scale,
            {channel: value},
        )

#: Consecutive identical commands before the long-step / fast-forward
#: machinery may engage (matches the historical adaptive threshold).
_STABLE_QUANTA = 40
#: Thermal convergence (deg C from steady state) required before the
#: closed-form fast-forward of a *pinned* (non-dithering) command; the
#: residual power drift is then < 0.06 W, under the meter's quantisation.
_FF_TEMP_EPS_PINNED_C = 0.3
#: Much tighter bound for dithering commands, whose alpha tracks the
#: temperature through the leakage term.
_FF_TEMP_EPS_DITHER_C = 0.05


class NodeRunner:
    """Runs workloads under caps; reusable across runs (rate caching)."""

    def __init__(
        self,
        config: NodeConfig | None = None,
        seed: int = DEFAULT_SEED,
        slice_accesses: int = 320_000,
        record_series: bool = False,
        max_sim_seconds: float = 250_000.0,
        fast_engine: bool = True,
        fast_forward: bool = True,
        rate_cache: "RateCache | str | os.PathLike | None" = None,
        telemetry: "TelemetryConfig | bool | None" = None,
        block_step: bool | None = None,
    ) -> None:
        self._config = config or sandy_bridge_config()
        self._seed = int(seed)
        self._streams = RngStreams(seed)
        self._slice_accesses = int(slice_accesses)
        self._record_series = record_series
        self._max_sim_seconds = float(max_sim_seconds)
        self._fast_engine = bool(fast_engine)
        self._fast_forward = bool(fast_forward)
        if rate_cache is not None and not isinstance(rate_cache, RateCache):
            rate_cache = RateCache(rate_cache)
        self._rate_cache: RateCache | None = rate_cache
        self._telemetry = TelemetryConfig.resolve(telemetry)
        # Block-stepped stable segments (bit-identical; see blockstep.py).
        # Default on; ``False`` / ``REPRO_BLOCK_STEP=0`` restores the
        # pure scalar loop.
        if block_step is None:
            env = os.environ.get("REPRO_BLOCK_STEP", "").strip().lower()
            block_step = env not in ("0", "false", "no", "off")
        self._block_step = bool(block_step)
        self._slices: Dict[str, TraceSlice] = {}
        self._engines: Dict[str, TraceEngine] = {}
        self._rates: Dict[Tuple[str, tuple], AccessRates] = {}

    @property
    def config(self) -> NodeConfig:
        """The node configuration all runs use."""
        return self._config

    @property
    def rate_cache(self) -> "RateCache | None":
        """The persistent rate cache (None when disabled)."""
        return self._rate_cache

    @property
    def telemetry(self) -> TelemetryConfig:
        """The in-run telemetry sampling configuration."""
        return self._telemetry

    @property
    def block_step(self) -> bool:
        """Whether stable segments run through the block-step kernel."""
        return self._block_step

    # ------------------------------------------------------------------
    # Rate measurement (trace-driven cache simulation)
    # ------------------------------------------------------------------

    def _slice_for(self, workload: Workload) -> TraceSlice:
        if workload.name not in self._slices:
            rng = self._streams.fresh(f"slice:{workload.name}")
            self._slices[workload.name] = workload.build_slice(
                rng, self._slice_accesses
            )
        return self._slices[workload.name]

    def rates_for(self, workload: Workload, gating: GatingState) -> AccessRates:
        """Steady-state per-instruction event rates under a gating.

        Measured by pushing the workload's representative slice through
        a fresh hierarchy configured to ``gating`` and discarding the
        warmup region.  Cached per (workload, miss-relevant config).
        """
        key = (workload.name, gating.config_key())
        if key not in self._rates:
            cache_key = None
            if self._rate_cache is not None:
                cache_key = rate_key(
                    self._config,
                    workload,
                    self._seed,
                    self._slice_accesses,
                    gating,
                )
                cached = self._rate_cache.get(cache_key)
                if cached is not None:
                    self._rates[key] = cached
                    _log.debug(
                        "rates_cache_hit",
                        workload=workload.name,
                        gating=str(gating.config_key()),
                    )
                    return cached
            with span(
                "simulate_trace",
                workload=workload.name,
                gating=str(gating.config_key()),
            ):
                sl = self._slice_for(workload)
                if self._fast_engine:
                    engine = self._engines.get(workload.name)
                    if engine is None:
                        engine = TraceEngine(self._config, sl)
                        self._engines[workload.name] = engine
                    counts = engine.counts(gating)
                else:
                    hierarchy = MemoryHierarchy(self._config)
                    ReconfigEngine(self._config).apply(hierarchy, gating)
                    d_warm, d_meas, i_warm, i_meas = sl.split_warmup()
                    if len(sl.preload_addresses):
                        hierarchy.simulate_data_trace(sl.preload_addresses)
                    hierarchy.simulate_slice(d_warm, i_warm)
                    counts = hierarchy.simulate_slice(d_meas, i_meas)
            engine_metrics().traces_simulated.inc()
            _log.debug(
                "trace_simulated",
                workload=workload.name,
                gating=str(gating.config_key()),
                fast_engine=self._fast_engine,
            )
            self._rates[key] = AccessRates.from_counts(
                counts, sl.measured_instructions
            )
            if self._rate_cache is not None:
                # Batched: put() marks the cache dirty; run()/the sweep
                # flushes once at the boundary instead of rewriting the
                # JSON file after every measurement.
                self._rate_cache.put(cache_key, self._rates[key])
        return self._rates[key]

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        cap_w: float | None = None,
        rep: int = 0,
    ) -> RunResult:
        """Execute one full run; repetitions differ in their noise draws.

        Instrumented: the whole run executes inside a ``run`` span, and
        run counts, control-quantum counts, fast-forward activations,
        and wall-clock land in :func:`repro.obs.metrics.engine_metrics`.
        """
        wall0 = time.perf_counter()
        with span("run", workload=workload.name, cap_w=cap_w, rep=rep):
            result, quanta, fast_forwarded, block_steps, block_quanta = (
                self._run(workload, cap_w, rep)
            )
        if self._rate_cache is not None:
            self._rate_cache.save()
        wall_s = time.perf_counter() - wall0
        export_counter_tracks(result, wall0, wall_s)
        metrics = engine_metrics()
        metrics.runs.inc()
        metrics.quanta.inc(quanta)
        if fast_forwarded:
            metrics.fast_forwards.inc()
        if block_steps:
            metrics.block_steps.inc(block_steps)
            metrics.block_quanta.inc(block_quanta)
        metrics.run_seconds.observe(wall_s)
        _log.info(
            "run_done",
            workload=workload.name,
            cap_w=cap_w,
            rep=rep,
            sim_s=round(result.execution_s, 6),
            wall_s=round(wall_s, 6),
            avg_power_w=round(result.avg_power_w, 3),
            avg_freq_mhz=round(result.avg_freq_mhz, 1),
            quanta=quanta,
            fast_forwarded=fast_forwarded,
            block_steps=block_steps,
            block_quanta=block_quanta,
        )
        return result

    def _run(
        self,
        workload: Workload,
        cap_w: float | None,
        rep: int,
    ) -> "Tuple[RunResult, int, bool, int, int]":
        state = RunState(self, workload, cap_w, rep)
        while not state.finished:
            state.try_kernel()
            state.step_quantum()
        return state.finish()


class RunState:
    """All live state of one in-flight run.

    ``NodeRunner._run`` drives it: the setup section is ``__init__``,
    the kernel gate :meth:`try_kernel`, one scalar control quantum
    :meth:`step_quantum`, and the result assembly :meth:`finish`.  Each
    stage is a named method, so profilers and tracers can attribute
    time to the scalar loop and the block-step kernel separately.
    """

    def __init__(
        self,
        runner: "NodeRunner",
        workload: Workload,
        cap_w: float | None,
        rep: int,
    ) -> None:
        self.runner = runner
        self.workload = workload
        self.cap_w = cap_w
        cfg = runner._config
        self.cfg = cfg
        tag = f"{workload.name}:cap={cap_w}:rep={rep}"
        self.tag = tag
        node = Node(cfg)
        self.node = node
        self.sensor = PowerSensor(runner._streams.fresh(f"bmc-sensor:{tag}"))
        self.controller = CapController(node, self.sensor)
        self.controller.set_cap(cap_w)
        self.meter = WattsUpMeter(
            cfg.meter, runner._streams.fresh(f"meter:{tag}")
        )
        self.energy = EnergyAccumulator()
        self.core = CoreTimingModel(cfg.base_cpi)
        self.quantum = cfg.bmc.control_quantum_s

        self.total_instr = workload.spec.total_instructions
        self.done = 0.0
        self.t = 0.0
        self.freq_time = 0.0
        self.cycles = 0.0
        self.max_escalation = 0
        self.min_duty = 1.0
        # Instructions executed per gating config, for counter scaling.
        self.instr_by_gating: Dict[tuple, float] = {}
        self.gating_by_key: Dict[tuple, GatingState] = {}
        self.series: list = []
        # In-run telemetry: pure observation (no RNG, no model state), so
        # results are bit-identical with the sampler on or off.  A fast-
        # forwarded remainder arrives as one wide sample — timelines stay
        # gap-free and the power channel's integral matches the energy path.
        self.sampler = (
            TelemetrySampler(runner._telemetry)
            if runner._telemetry.enabled
            else None
        )
        self.mpki_by_gating: Dict[tuple, tuple] = {}

        # Initial condition: one quantum at P0, unthrottled, ungated.
        self.gating = GatingState.ungated()
        self.rates = runner.rates_for(workload, self.gating)
        self.power = node.power_w(dram_traffic_bps=0.0)
        self.model = node.power_model
        self.thermal = node.thermal
        self.record_series = runner._record_series
        self.fast_forward = runner._fast_forward
        # Adaptive stepping: once the controller's command has been
        # stable for a while (e.g. duty pinned at its minimum during a
        # 120 W run), quanta are lengthened 10x — the dynamics are in
        # steady state and per-quantum resolution buys nothing.  With
        # ``fast_forward`` the long-step mode is itself superseded: once
        # the command is provably frozen (controller quiescent) and the
        # thermal state has converged, the whole remaining stable
        # segment collapses into a single closed-form step.
        self.stable_quanta = 0
        self.prev_cmd_key: "tuple | None" = None
        self.quanta = 0
        self.fast_forwarded = False
        # Per-gating timing inputs (rates and the CPI-stack stall term
        # are frequency/duty independent), and one-slot memos for the
        # derived per-quantum quantities — a stable command makes every
        # iteration of the hot loop a pure dictionary-free replay.
        self.gate_cache: Dict[tuple, tuple] = {}
        self.spi_sig = None
        self.spi = self.instr_rate = self.traffic = 0.0
        # Constants of the power decomposition (DESIGN.md §5) hoisted so
        # the per-quantum blend needs only the two commanded P-states.
        # Arithmetic below follows PowerBreakdown.total_w term by term,
        # in the same association order, so the blend is bit-identical
        # to power_of_pstate with busy_cores=1 / activity=1.
        pcfg = cfg.power
        self.platform_plus_bg = pcfg.platform_floor_w + cfg.dram.background_w
        self.uncore_w = pcfg.uncore_active_w
        self.ceff = pcfg.core_ceff_f
        self.act = 1.0 * pcfg.busy_activity
        self.halt_residual = pcfg.halt_residual_fraction
        self.bw_gbs = cfg.dram.bandwidth_gbs
        self.w_per_gbs = cfg.dram.active_w_per_gbs
        self.pw_sig = None
        self.dyn_fast = self.gate_fast = 0.0
        self.dyn_slow = self.gate_slow = self.traffic_w = 0.0
        # Block-step kernel: retires stretches of stable command in
        # bulk, bit-identically (see blockstep.py).  At least one scalar
        # quantum always executes between kernel calls — the entry gate
        # in ``try_kernel`` only opens at ``quanta >= block_after`` and
        # every kernel attempt pushes ``block_after`` past the current
        # count — so the one-slot memos (spi/traffic/traffic_w) the
        # kernel seeds from are always valid for ``prev_cmd_key``.
        self.kernel = None
        if runner._block_step:
            self.kernel = BlockStepKernel(
                controller=self.controller,
                sensor=self.sensor,
                meter=self.meter,
                energy=self.energy,
                thermal=self.thermal,
                model=self.model,
                pstates=node.pstates,
                cfg=cfg,
                sampler=self.sampler,
                series=self.series if self.record_series else None,
                total_instr=self.total_instr,
                max_sim_seconds=runner._max_sim_seconds,
                fast_forward=self.fast_forward,
                stable_threshold=_STABLE_QUANTA,
                eps_pinned=_FF_TEMP_EPS_PINNED_C,
                eps_dither=_FF_TEMP_EPS_DITHER_C,
            )
        self.block_after = 1
        self.block_steps = 0
        self.block_quanta = 0
        self.key = None
        self.stall_ns = 0.0
        self.freq = 0.0
        self.max_sim_seconds = runner._max_sim_seconds

    @property
    def finished(self) -> bool:
        """Whether the instruction budget has retired."""
        return not self.done < self.total_instr

    def try_kernel(self) -> None:
        """The block-step kernel gate (one iteration's worth)."""
        kernel = self.kernel
        if kernel is None or self.quanta < self.block_after:
            return
        adv = kernel.advance(
            power=self.power,
            t=self.t,
            done=self.done,
            freq_time=self.freq_time,
            cycles=self.cycles,
            stable_quanta=self.stable_quanta,
            prev_cmd_key=self.prev_cmd_key,
            stall_ns=self.stall_ns,
            l3_misses=self.rates.l3_misses,
            freq=self.freq,
            spi=self.spi,
            traffic=self.traffic,
            traffic_w=self.traffic_w,
            mpki=self.mpki_by_gating.get(self.key),
            instr_seg=self.instr_by_gating.get(self.key, 0.0),
        )
        if kernel.disabled:
            self.kernel = None
        elif adv is not None:
            (bn, self.power, self.t, self.done, self.freq_time,
             self.cycles, self.stable_quanta, fi, si, ra, bduty,
             seg) = adv
            self.quanta += bn
            self.block_steps += 1
            self.block_quanta += bn
            self.prev_cmd_key = (
                fi, si, ra, bduty, self.prev_cmd_key[4]
            )
            # Duty is non-increasing inside a block (restores
            # are boundaries), so the committed duty is the
            # block's minimum.
            if bduty < self.min_duty:
                self.min_duty = bduty
            self.instr_by_gating[self.key] = seg
            # The command's frequency may have drifted in-block
            # (dither alpha tracks leakage): the boundary
            # quantum recomputes the memoized quantities.
            self.spi_sig = None
            self.pw_sig = None
        self.block_after = self.quanta + 1

    def step_quantum(self) -> None:
        """One scalar control quantum — the historical loop body."""
        controller = self.controller
        cfg = self.cfg
        self.quanta += 1
        power = self.power
        cmd = controller.update(power, activity=1.0, traffic_bps=0.0)
        cmd_key = (
            cmd.pstate_fast.index,
            cmd.pstate_slow.index,
            round(cmd.alpha, 2),
            cmd.duty,
            cmd.escalation_level,
        )
        self.stable_quanta = (
            self.stable_quanta + 1 if cmd_key == self.prev_cmd_key else 0
        )
        self.prev_cmd_key = cmd_key
        step_s = self.quantum * (
            10.0 if self.stable_quanta > _STABLE_QUANTA else 1.0
        )
        if cmd.gating != self.gating:
            self.gating = cmd.gating
        key = self.gating.config_key()
        self.key = key
        cached = self.gate_cache.get(key)
        if cached is None:
            seg_rates = self.runner.rates_for(self.workload, self.gating)
            costs = AccessCosts.from_config(cfg, self.gating)
            cached = (seg_rates, stall_ns_per_instruction(seg_rates, costs))
            self.gate_cache[key] = cached
        rates, stall_ns = cached
        self.rates = rates
        self.stall_ns = stall_ns
        freq = cmd.effective_freq_hz
        self.freq = freq
        sig = (key, freq, cmd.duty)
        if sig != self.spi_sig:
            self.spi = self.core.seconds_per_instruction(
                freq, stall_ns, cmd.duty
            )
            self.instr_rate = 1.0 / self.spi
            self.traffic = rates.l3_misses * self.instr_rate * cfg.l3.line_bytes
            self.spi_sig = sig
        spi = self.spi

        # True node power this quantum: dither-blended P-states.
        # Only leakage depends on the (moving) temperature; the rest
        # of each state's power changes when the command or traffic
        # does, so it is memoized on that signature.
        thermal = self.thermal
        temp = thermal.temperature_c
        sig = (cmd_key[0], cmd_key[1], cmd.duty, cmd.gating_saving_w, self.traffic)
        if sig != self.pw_sig:
            halt_residual = self.halt_residual
            duty_scale = halt_residual + (1.0 - halt_residual) * cmd.duty
            self.traffic_w = (
                min(self.traffic / 1e9, self.bw_gbs) * self.w_per_gbs
            )
            saving = cmd.gating_saving_w
            ceff = self.ceff
            act = self.act
            uncore_w = self.uncore_w
            st = cmd.pstate_fast
            self.dyn_fast = (
                ceff * st.freq_hz * st.voltage_v**2 * act
            ) * duty_scale
            self.gate_fast = min(saving, uncore_w + self.dyn_fast)
            st = cmd.pstate_slow
            self.dyn_slow = (
                ceff * st.freq_hz * st.voltage_v**2 * act
            ) * duty_scale
            self.gate_slow = min(saving, uncore_w + self.dyn_slow)
            self.pw_sig = sig
        base = self.platform_plus_bg + self.model.leakage_w(temp) + self.uncore_w
        traffic_w = self.traffic_w
        power = cmd.alpha * (
            base + self.dyn_fast + traffic_w - self.gate_fast
        ) + (1.0 - cmd.alpha) * (
            base + self.dyn_slow + traffic_w - self.gate_slow
        )
        self.power = power

        total_instr = self.total_instr
        remaining_s = (total_instr - self.done) * spi
        if (
            self.fast_forward
            and self.stable_quanta > _STABLE_QUANTA
            and remaining_s > step_s
            and self.t + remaining_s <= self.max_sim_seconds
            and abs(temp - thermal.steady_state_c(power))
            <= (
                _FF_TEMP_EPS_PINNED_C
                if cmd.pstate_fast.index == cmd.pstate_slow.index
                else _FF_TEMP_EPS_DITHER_C
            )
            and controller.is_quiescent(power)
        ):
            # Steady-state fast-forward: the command is frozen (no
            # plausible sensor reading can move an actuator) and the
            # node is thermally converged, so every remaining
            # quantum would replay this one.  Retire the rest of the
            # instruction budget in a single exact step.
            dt = remaining_s
            instr_now = total_instr - self.done
            self.done = total_instr
            controller.advance_time(dt - self.quantum)
            self.fast_forwarded = True
            _log.debug(
                "fast_forward",
                workload=self.workload.name,
                cap_w=self.cap_w,
                skipped_s=round(dt, 3),
                at_quantum=self.quanta,
            )
        else:
            dt = min(step_s, remaining_s)
            instr_now = dt / spi
            self.done += instr_now
        self.instr_by_gating[key] = (
            self.instr_by_gating.get(key, 0.0) + instr_now
        )
        self.gating_by_key[key] = self.gating
        self.freq_time += freq * dt
        self.cycles += freq * dt * cmd.duty
        self.max_escalation = max(self.max_escalation, cmd.escalation_level)
        self.min_duty = min(self.min_duty, cmd.duty)

        sampler = self.sampler
        if sampler is not None:
            mpki = self.mpki_by_gating.get(key)
            if mpki is None:
                mpki = self.mpki_by_gating[key] = (
                    (rates.l1d_misses + rates.l1i_misses) * 1e3,
                    rates.l2_misses * 1e3,
                    rates.l3_misses * 1e3,
                    rates.dtlb_misses * 1e3,
                    rates.itlb_misses * 1e3,
                )
            sampler.record(
                dt,
                {
                    "power_w": power,
                    "freq_mhz": freq / 1e6,
                    "pstate": cmd.alpha * cmd.pstate_fast.index
                    + (1.0 - cmd.alpha) * cmd.pstate_slow.index,
                    "duty": cmd.duty,
                    # Duty modulation forces the core out of C0 for
                    # the halted fraction of each quantum.
                    "c0_frac": cmd.duty,
                    "temp_c": temp,
                    "l1_mpki": mpki[0],
                    "l2_mpki": mpki[1],
                    "l3_mpki": mpki[2],
                    "dtlb_mpki": mpki[3],
                    "itlb_mpki": mpki[4],
                },
            )
        thermal.step(power, dt)
        self.meter.advance_const(self.t, dt, power)
        self.energy.add(power, dt)
        self.t += dt
        if self.record_series:
            self.series.append((self.t, power, freq / 1e6, cmd.duty))
        if self.t > self.max_sim_seconds:
            raise SimulationError(
                f"run exceeded {self.max_sim_seconds:.0f} simulated "
                f"seconds ({self.done:.3g}/{total_instr:.3g} instructions) — "
                "check the cap against the node's achievable floor"
            )

    def finish(self) -> "Tuple[RunResult, int, bool, int, int]":
        """Assemble counters scaled to the full run, and the result."""
        bank = CounterBank()
        total_instr = self.total_instr
        for key, n_instr in self.instr_by_gating.items():
            seg_rates = self.runner.rates_for(
                self.workload, self.gating_by_key[key]
            )
            bank.add_access_counts(seg_rates.counts_for(n_instr))
        spec_rng = self.runner._streams.fresh(f"speculation:{self.tag}")
        speculation = CoreTimingModel.speculation_factor(spec_rng)
        bank.add(PapiEvent.PAPI_TOT_INS, total_instr)
        bank.add(PapiEvent.PAPI_TOT_IIS, total_instr * speculation)
        bank.add(PapiEvent.PAPI_TOT_CYC, self.cycles)

        timeline = None
        if self.sampler is not None:
            timeline = self.sampler.finish(self.workload.name, self.cap_w)
            telemetry_metrics().observe_run(self.sampler, timeline)

        meter = self.meter
        avg_power = (
            meter.average_power_w()
            if meter.sample_count
            else self.energy.average_power_w()
        )
        sel_events = tuple(
            (e.time_s, e.event.value, e.detail)
            for e in self.controller.sel.entries()
        )
        result = RunResult(
            workload=self.workload.name,
            cap_w=self.cap_w,
            execution_s=self.t,
            avg_power_w=avg_power,
            energy_j=self.energy.energy_j,
            avg_freq_mhz=self.freq_time / self.t / 1e6,
            counters=dict(bank.snapshot()),
            committed_instructions=total_instr,
            executed_instructions=total_instr * speculation,
            max_escalation_level=self.max_escalation,
            min_duty=self.min_duty,
            series=tuple(self.series),
            sel_events=sel_events,
            timeline=timeline,
        )
        return (
            result, self.quanta, self.fast_forwarded,
            self.block_steps, self.block_quanta,
        )
