"""Block-stepped evaluation of stable control-loop segments.

The runner's hot loop spends most of its time in stretches where the
controller's command does not change: the thermal transient before the
steady-state fast-forward is allowed to engage, and the escalation
march at tight caps (the paper's ≤ 130 W regime, where frequency pins
at 1,200 MHz and runs step thousands of control quanta).  Per quantum
the arithmetic is a handful of scalar recurrences — an EMA filter, a
one-pole thermal model, a leakage-dependent power blend — whose cost in
the scalar path is interpreter and object-protocol overhead, not math.

:class:`BlockStepKernel` executes those stretches in local variables:

- the power-sensor noise is drawn in chunks from the same RNG stream
  (``Generator.normal(size=n)`` consumes exactly the draws ``n`` scalar
  calls would — the property the vectorised :class:`WattsUpMeter` log
  already relies on), and the stream is rewound to the number of quanta
  that actually committed;
- the controller's decision per quantum is replayed exactly — bracket
  search, dither fraction, patience counters — using the memoized
  per-command :class:`~repro.power.model.PStatePowerTable` constants,
  and the kernel **breaks back to the scalar path one quantum before**
  any side effect it does not model: a gating-ladder move, a
  once-per-run flag flip, a fast-forward, the final partial quantum, or
  the simulated-time ceiling.  Duty-only throttle steps — the dominant
  boundary in the paper's ≤ 130 W regime — are replayed *in-block*:
  the kernel swaps in the new duty's memoized power table, re-brackets,
  resets the stability counter, and logs the scalar path's SEL entries
  at the stepped quantum's commit;
- every integral (energy, meter samples and grid cursor, frequency-time,
  the time axis itself) is folded sequentially in the same association
  order as the scalar statements, then committed in bulk through the
  substrates' ``*_block`` methods;
- telemetry is not folded here: the kernel keeps one raw row per
  committed quantum (duration, power, frequency, blended P-state, duty,
  temperature) and hands the block's rows to the run's
  ``TelemetrySampler.commit_block``, which buckets them with the
  arithmetic the scalar path's ``TelemetrySampler.record`` uses.

The contract is the repo's established one: **bit-identical results** —
same arithmetic, same float association order, same RNG consumption —
verified by ``tests/core/test_blockstep.py`` across workloads, caps,
and telemetry settings.  The runner's ``block_step=False`` (CLI
``--no-block-step``, env ``REPRO_BLOCK_STEP=0``) keeps the scalar path
selectable at runtime.

Exactness notes mirrored from the scalar code (do not "simplify"):

- ``x + 0.0 == x`` and ``1.0 * x == x`` hold exactly for every finite
  ``x`` here, which is what lets the blend skip the zero-weighted side
  of ``alpha * X + (1 - alpha) * Y`` when ``alpha`` is exactly 0 or 1;
- the bracket search replicates ``bracketing_pair_from_powers``'s
  first-match semantics under a verified strictly-decreasing power
  table (margin > 1 nW); tables that violate the margin disable the
  kernel for the run rather than risk a different bracket;
- patience counters are evolved tentatively per quantum and only
  committed once every break check of that quantum has passed, so a
  broken quantum leaves no trace and the scalar path replays it from
  identical state.
"""

from __future__ import annotations

import math

from ..bmc.sel import SelEventType

__all__ = ["BlockStepKernel"]

#: First sensor-noise chunk per block; grows geometrically so long
#: pinned tails cost one draw while short escalation segments waste
#: only a few values (rewound afterwards either way).
_CHUNK0 = 16
_CHUNK_MAX = 4096
#: Required gap between adjacent per-state powers for the local bracket
#: walk to be provably equivalent to the scalar first-match scan.
_MIN_GAP_W = 1e-9


class BlockStepKernel:
    """Executes stable control-loop segments in bulk, bit-identically.

    Built once per run by :class:`~repro.core.runner.NodeRunner`; holds
    references to the run's substrates and the per-run constants.  One
    :meth:`advance` call evaluates quanta until a side-effect boundary
    and commits everything it retired; the runner then executes the
    boundary quantum through the scalar path and re-enters.
    """

    def __init__(
        self,
        *,
        controller,
        sensor,
        meter,
        energy,
        thermal,
        model,
        pstates,
        cfg,
        sampler,
        series,
        total_instr: float,
        max_sim_seconds: float,
        fast_forward: bool,
        stable_threshold: int,
        eps_pinned: float,
        eps_dither: float,
    ) -> None:
        self._controller = controller
        self._sensor = sensor
        self._meter = meter
        self._energy = energy
        self._thermal = thermal
        self._model = model
        self._pstates = pstates
        self._sampler = sampler
        self._series = series
        self._total_instr = total_instr
        self._max_sim = max_sim_seconds
        self._ff = bool(fast_forward)
        self._stable_thr = int(stable_threshold)
        self._eps_pinned = eps_pinned
        self._eps_dither = eps_dither

        bmc = cfg.bmc
        self._q = bmc.control_quantum_s
        self._q10 = bmc.control_quantum_s * 10.0
        self._target_margin = bmc.target_margin_w
        self._hyst = bmc.hysteresis_w
        self._deesc_margin = bmc.deescalation_margin_w
        self._duty_min = bmc.ladder.duty_min
        self._duty_step = bmc.ladder.duty_step

        pcfg = cfg.power
        self._nref_leak = cfg.n_sockets * pcfg.socket_leakage_ref_w
        self._leak_coeff = pcfg.leakage_temp_coeff
        self._leak_ref_t = pcfg.leakage_ref_temp_c

        tcfg = cfg.thermal
        self._ambient = tcfg.ambient_c
        self._r_th = tcfg.r_th_c_per_w
        self._idle_w = thermal.idle_power_w
        # The same ``exp(-dt/tau)`` the thermal model evaluates, for the
        # only two step sizes that occur in-block.
        self._decay_q = math.exp(-self._q / tcfg.tau_s)
        self._decay_q10 = math.exp(-self._q10 / tcfg.tau_s)

        self._base_cpi = cfg.base_cpi
        self._line_bytes = cfg.l3.line_bytes
        self._bw_gbs = cfg.dram.bandwidth_gbs
        self._w_per_gbs = cfg.dram.active_w_per_gbs

        self._m_period = cfg.meter.sample_period_s
        # is_quiescent's reading band at its default n_sigma of 8.
        self._band = 8.0 * sensor.filtered_sigma_w

        self._freqs = [st.freq_hz for st in pstates]
        self._n_states = len(self._freqs)
        self._cap = controller.cap_w
        self._table_ok: dict = {}
        #: Set when a run-wide precondition fails (non-monotone power
        #: table, unexpected traffic term); the runner then drops the
        #: kernel and the scalar path carries the rest of the run.
        self.disabled = False

    def _table_constants(self, table, temp, capped):
        """Validated ``block_constants`` for one memoized power table.

        Strictly-decreasing per-state powers (with margin) make the
        kernel's local bracket walk equivalent to the scalar first-match
        scan; the margin is a property of the temperature-independent
        ``dyn``/``gate`` terms (the shared ``base`` cancels in adjacent
        differences), so one check per table covers every quantum and
        every temperature that uses it.
        """
        consts = table.block_constants()
        ok = self._table_ok.get(id(table))
        if ok is None:
            pb, unc, tr0, dyn, gate = consts
            ok = tr0 == 0.0 and len(dyn) == self._n_states
            if ok and capped:
                scale = 1.0 + self._leak_coeff * (temp - self._leak_ref_t)
                if scale < 0.4:
                    scale = 0.4
                base = pb + (self._nref_leak * scale) + unc
                prev_p = None
                for d_i, g_i in zip(dyn, gate):
                    p_i = (base + d_i) - g_i
                    if prev_p is not None and not (
                        prev_p - p_i > _MIN_GAP_W
                    ):
                        ok = False
                        break
                    prev_p = p_i
            self._table_ok[id(table)] = ok
        return ok, consts

    def advance(
        self,
        *,
        power: float,
        t: float,
        done: float,
        freq_time: float,
        cycles: float,
        stable_quanta: int,
        prev_cmd_key: tuple,
        stall_ns: float,
        l3_misses: float,
        freq: float,
        spi: float,
        traffic: float,
        traffic_w: float,
        mpki,
        instr_seg: float,
    ) -> "tuple | None":
        """Retire quanta until a side-effect boundary; commit them.

        Arguments are the runner's live loop variables (whose memoized
        ``spi``/``traffic`` values are valid for ``prev_cmd_key``, which
        is guaranteed because at least one scalar quantum executes
        between kernel calls).  Returns ``None`` when the very next
        quantum is a boundary (the runner then steps it scalar), else
        ``(n, power, t, done, freq_time, cycles, stable_quanta, fi, si,
        rounded_alpha, duty, instr_seg)`` with every fold already
        committed to the substrates.
        """
        controller = self._controller
        sensor = self._sensor
        cap = self._cap
        capped = cap is not None

        (ctime, oc, uc, floor_logged, over_logged, duty, level, at_top,
         saving, esc_pat, deesc_pat, busy) = controller.block_state()
        pfi, psi, pra = prev_cmd_key[0], prev_cmd_key[1], prev_cmd_key[2]
        if prev_cmd_key[3] != duty or prev_cmd_key[4] != level:
            return None

        table = self._model.power_table(
            self._pstates,
            duty=duty,
            activity=1.0,
            gating_saving_w=saving,
            dram_traffic_bps=0.0,
            busy_cores=busy,
        )
        temp = self._thermal.temperature_c
        ok, (pb, unc, tr0, dyn, gate) = self._table_constants(
            table, temp, capped
        )
        if not ok:
            self.disabled = True
            return None

        # ---- locals for the loop (every constant the scalar path
        # ---- re-reads through attribute access per quantum) ----------
        q = self._q
        q10 = self._q10
        stable_thr = self._stable_thr
        nref = self._nref_leak
        coeff = self._leak_coeff
        ref_t = self._leak_ref_t
        ambient = self._ambient
        r_th = self._r_th
        idle_w = self._idle_w
        decay_q = self._decay_q
        decay_q10 = self._decay_q10
        base_cpi = self._base_cpi
        stall_s = stall_ns * 1e-9
        line_bytes = self._line_bytes
        bw_gbs = self._bw_gbs
        w_per_gbs = self._w_per_gbs
        total = self._total_instr
        max_sim = self._max_sim
        ff_on = self._ff
        m_period = self._m_period
        band = self._band
        s_alpha = sensor.smoothing
        n_last = self._n_states - 1
        freqs = self._freqs
        if capped:
            target = cap - self._target_margin
            cap_hyst = cap + self._hyst
            cap_mhyst = cap - self._hyst
            cap_mdeesc = cap - self._deesc_margin
            duty_min = self._duty_min
            duty_step = self._duty_step
            eps_pinned = self._eps_pinned
            eps_dither = self._eps_dither
            # Duty-only throttle steps are handled in-block: their SEL
            # entries land at the stepped quantum's commit, and the
            # committed duty travels back through ``commit_block``.
            sel_log = controller.sel.log
            t_throt = SelEventType.DUTY_THROTTLED
            t_pin = SelEventType.DUTY_PINNED_AT_MINIMUM
        else:
            if (pfi, psi, pra, duty, level) != (0, 0, 1.0, 1.0, 0):
                return None
            eps_pinned = self._eps_pinned
        dyn0 = dyn[0]
        gate0 = gate[0]
        dyn_l = dyn[n_last]
        gate_l = gate[n_last]

        filt = sensor.reading_w
        stable = stable_quanta
        # ``duty`` tracks the quantum being evaluated (it may step down
        # tentatively); ``duty_c`` is the last *committed* duty — the
        # value commit_block installs and the runner's key resumes from.
        duty_c = duty
        sel_q = False
        # Memoized per-command quantities, seeded from the runner's
        # one-slot memos (valid for prev_cmd_key).
        freq_m = freq
        fm = freq / 1e6
        seg = instr_seg
        e_j = self._energy.energy_j
        el_s = self._energy.elapsed_s
        me_j = self._meter.energy_j
        next_s = self._meter.next_sample_s
        series = self._series
        segs = []
        msamples = []
        msamples_append = msamples.append
        segs_append = segs.append
        series_append = series.append if series is not None else None

        # One raw telemetry row per committed quantum; the sampler
        # folds them into buckets at commit.
        sampler = self._sampler
        rows = []
        rows_append = rows.append if sampler is not None else None

        state0 = sensor.rng_state()
        chunk = _CHUNK0
        noise = sensor.noise_block(chunk).tolist()
        drawn = chunk
        n = 0

        while True:
            if n == drawn:
                if chunk < _CHUNK_MAX:
                    chunk *= 4
                noise.extend(sensor.noise_block(chunk).tolist())
                drawn += chunk

            # ---- controller.update, replayed tentatively ------------
            # (sensor.sample)
            noisy = power + noise[n]
            filt_new = filt + s_alpha * (noisy - filt)

            # (leakage + bracket at the current temperature)
            scale = 1.0 + coeff * (temp - ref_t)
            if scale < 0.4:
                scale = 0.4
            base = pb + (nref * scale) + unc

            if capped:
                p0 = (base + dyn0) - gate0
                if target >= p0:
                    fi = si = 0
                    alpha = 1.0
                else:
                    p_l = (base + dyn_l) - gate_l
                    if target <= p_l:
                        fi = si = n_last
                        alpha = 1.0
                    else:
                        # Smallest j in 1..n_last with powers[j] <=
                        # target — the scalar scan's first match, given
                        # the margin-checked strictly-decreasing table.
                        j = psi
                        if j < 1:
                            j = 1
                        pj = (base + dyn[j]) - gate[j]
                        if pj <= target:
                            while j > 1:
                                pjm = (base + dyn[j - 1]) - gate[j - 1]
                                if pjm <= target:
                                    j -= 1
                                    pj = pjm
                                else:
                                    break
                        else:
                            while True:
                                j += 1
                                pj = (base + dyn[j]) - gate[j]
                                if pj <= target:
                                    break
                        fi = j - 1
                        si = j
                        p_fast = (base + dyn[fi]) - gate[fi]
                        if p_fast <= pj:
                            alpha = 1.0
                        else:
                            alpha = (target - pj) / (p_fast - pj)
                            if alpha > 1.0:
                                alpha = 1.0
                            elif alpha < 0.0:
                                alpha = 0.0
                at_floor = si == n_last and (fi == si or alpha <= 0.0)

                # ---- escalation state machine (break before any side
                # ---- effect the kernel does not model; duty-only
                # ---- throttle steps *are* modelled in-block) --------
                if at_floor and not floor_logged:
                    break
                measured = filt_new
                if measured > cap_hyst:
                    oc_n = oc + 1
                    uc_n = 0
                    if not over_logged and oc_n >= esc_pat:
                        break
                    if at_floor and oc_n >= esc_pat:
                        if not at_top:
                            break
                        oc_n = 0
                        dn = duty - duty_step
                        if dn < duty_min:
                            dn = duty_min
                        if dn < duty:
                            # ---- in-block duty throttle step --------
                            # The scalar branch lowers duty, logs the
                            # DUTY_THROTTLED (and possibly PINNED) SEL
                            # entries, and re-brackets against the new
                            # duty's power table.  Gating, rates, and
                            # mpki are untouched by a duty move, so the
                            # block continues; the SEL entries are
                            # deferred to this quantum's commit below.
                            ntab = self._model.power_table(
                                self._pstates,
                                duty=dn,
                                activity=1.0,
                                gating_saving_w=saving,
                                dram_traffic_bps=0.0,
                                busy_cores=busy,
                            )
                            nok, nconsts = self._table_constants(
                                ntab, temp, True
                            )
                            if not nok:
                                break
                            pb, unc, _ntr0, dyn, gate = nconsts
                            dyn0 = dyn[0]
                            gate0 = gate[0]
                            dyn_l = dyn[n_last]
                            gate_l = gate[n_last]
                            duty = dn
                            sel_q = True
                            # duty is part of the timing memo's key.
                            freq_m = -1.0
                            # Re-bracket at the new duty — the scalar
                            # path's second _bracket call.  Same base
                            # (leakage is duty-independent), same
                            # first-match walk over the new table.
                            base = pb + (nref * scale) + unc
                            p0 = (base + dyn0) - gate0
                            if target >= p0:
                                fi = si = 0
                                alpha = 1.0
                            else:
                                p_l = (base + dyn_l) - gate_l
                                if target <= p_l:
                                    fi = si = n_last
                                    alpha = 1.0
                                else:
                                    j = psi
                                    if j < 1:
                                        j = 1
                                    pj = (base + dyn[j]) - gate[j]
                                    if pj <= target:
                                        while j > 1:
                                            pjm = (base + dyn[j - 1]) - gate[j - 1]
                                            if pjm <= target:
                                                j -= 1
                                                pj = pjm
                                            else:
                                                break
                                    else:
                                        while True:
                                            j += 1
                                            pj = (base + dyn[j]) - gate[j]
                                            if pj <= target:
                                                break
                                    fi = j - 1
                                    si = j
                                    p_fast = (base + dyn[fi]) - gate[fi]
                                    if p_fast <= pj:
                                        alpha = 1.0
                                    else:
                                        alpha = (target - pj) / (p_fast - pj)
                                        if alpha > 1.0:
                                            alpha = 1.0
                                        elif alpha < 0.0:
                                            alpha = 0.0
                            at_floor = si == n_last and (
                                fi == si or alpha <= 0.0
                            )
                        # else: ladder at top, duty already pinned — the
                        # scalar branch is pure bookkeeping (over_count
                        # resets, handled above).
                else:
                    can_raise = duty < 1.0 and measured < cap_mhyst
                    can_deesc = level > 0 and (
                        not at_floor or measured < cap_mdeesc
                    )
                    if can_raise or can_deesc:
                        uc_n = uc + 1
                        oc_n = 0
                        if uc_n >= deesc_pat:
                            break
                    else:
                        oc_n = 0
                        uc_n = 0
            else:
                fi = si = 0
                alpha = 1.0
                at_floor = False
                oc_n = oc
                uc_n = uc

            # ---- command key / stability / step length --------------
            # The scalar key is (fi, si, ra, duty, level); level never
            # changes in-block and duty only on a ``sel_q`` quantum.
            ra = round(alpha, 2)
            if fi == pfi and si == psi and ra == pra:
                st_n = 0 if sel_q else stable + 1
            else:
                st_n = 0
            long_step = st_n > stable_thr
            dt = q10 if long_step else q

            # ---- timing memo (runner's spi_sig, keyed on frequency:
            # ---- gating is constant in-block, and a duty step forces
            # ---- a miss via the freq_m sentinel) --------------------
            freq_n = alpha * freqs[fi] + (1.0 - alpha) * freqs[si]
            if freq_n != freq_m:
                spi = (base_cpi / freq_n + stall_s) / duty
                instr_rate = 1.0 / spi
                traffic = l3_misses * instr_rate * line_bytes
                traffic_w = min(traffic / 1e9, bw_gbs) * w_per_gbs
                fm = freq_n / 1e6
                freq_m = freq_n

            # ---- the power blend (runner's memoized decomposition) --
            if alpha == 1.0:
                pw = (base + dyn[fi] + traffic_w) - gate[fi]
            elif alpha == 0.0:
                pw = (base + dyn[si] + traffic_w) - gate[si]
            else:
                pw = alpha * (base + dyn[fi] + traffic_w - gate[fi]) + (
                    1.0 - alpha
                ) * (base + dyn[si] + traffic_w - gate[si])
            if not pw >= 0.0:
                break

            # thermal.step's target, also the fast-forward screen's.
            ex = pw - idle_w
            if ex < 0.0:
                ex = 0.0
            ss = ambient + r_th * ex

            remaining = (total - done) * spi
            if remaining <= dt:
                # Final (partial) quantum: the scalar path owns it.
                break
            if ff_on and long_step and t + remaining <= max_sim:
                diff = temp - ss
                if diff < 0.0:
                    diff = -diff
                if diff <= (eps_pinned if fi == si else eps_dither):
                    if capped:
                        # controller.is_quiescent, replayed.
                        lo = pw - band
                        hi = pw + band
                        if filt_new < lo:
                            lo = filt_new
                        if filt_new > hi:
                            hi = filt_new
                        quiet = not (at_floor and not floor_logged)
                        if quiet and hi > cap_hyst:
                            if not over_logged:
                                quiet = False
                            elif at_floor and (
                                not at_top or duty > duty_min
                            ):
                                quiet = False
                        if quiet and lo <= cap_hyst:
                            if duty < 1.0 and lo < cap_mhyst:
                                quiet = False
                            elif level > 0 and (
                                not at_floor or lo < cap_mdeesc
                            ):
                                quiet = False
                        if quiet:
                            break
                    else:
                        break
            t_new = t + dt
            if t_new > max_sim:
                # The scalar path commits this quantum and raises.
                break

            # ---- every break check passed: commit the quantum -------
            ctime += q
            if sel_q:
                # The duty step retired: log its SEL entries with the
                # scalar path's timestamp (controller time after this
                # quantum's increment) and make the new duty the
                # committed one.
                sel_q = False
                duty_c = duty
                sel_log(ctime, t_throt, f"duty {duty:.2f}")
                if duty == duty_min:
                    sel_log(ctime, t_pin, f"duty {duty:.2f}")
            oc = oc_n
            uc = uc_n
            filt = filt_new
            stable = st_n
            pfi = fi
            psi = si
            pra = ra
            instr_now = dt / spi
            done += instr_now
            seg += instr_now
            fd = freq_n * dt
            freq_time += fd
            cycles += fd * duty
            pd = pw * dt

            if rows_append is not None:
                rows_append(
                    (dt, pw, fm, alpha * fi + (1.0 - alpha) * si, duty, temp)
                )

            temp = ss + (temp - ss) * (decay_q10 if long_step else decay_q)
            while next_s < t_new:
                if next_s >= t:
                    msamples_append((next_s, pw))
                next_s += m_period
            me_j += pd
            e_j += pd
            el_s += dt
            segs_append((pw, dt))
            t = t_new
            if series_append is not None:
                series_append((t, pw, fm, duty))
            power = pw
            n += 1

        if n == 0:
            sensor.rewind(state0, 0)
            return None

        if n != drawn:
            sensor.rewind(state0, n)
        sensor.commit_block(filt)
        controller.commit_block(ctime, oc, uc, duty_c)
        self._thermal.set_temperature(temp)
        self._meter.advance_block(msamples, next_s, me_j)
        self._energy.add_block(segs, e_j, el_s)
        if sampler is not None:
            sampler.commit_block(rows, mpki)
        return (
            n, power, t, done, freq_time, cycles, stable,
            pfi, psi, pra, duty_c, seg,
        )
