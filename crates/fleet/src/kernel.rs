//! Column-sweep epoch kernels over the [`ChipStore`] columns.
//!
//! Each kernel is compiled twice through [`dh_simd::dispatch!`] — a
//! scalar body and an AVX2-enabled body the compiler may autovectorize —
//! under the crate-wide bit-identity contract: both bodies are the same
//! Rust source, floating-point expressions are never reassociated, and
//! the transcendentals resolve to the same libm symbols, so the two
//! backends produce bit-identical columns (pinned by
//! `dispatch_backends_agree` below and the `fleet_columnar` proptest
//! against the per-chip reference path).
//!
//! The math is a line-for-line transcription of
//! [`crate::chip::ChipState::step`] / `BtiDevice::{stress, recover}` /
//! [`crate::chip::ChipState::sense`] onto columns: same operation order,
//! same guards, same clamps. Anything constant over a chip's lifetime
//! was hoisted into the store's constant columns by
//! [`ChipStore::reset`]; what remains per epoch is the stress power law,
//! the universal-relaxation curve, the ring-oscillator frequency map,
//! and the EM clamp.

use dh_units::Seconds;

use crate::chip::SENSOR_STALE_EPOCHS;
use crate::store::{
    ChipStore, ColumnarCtx, ALIVE, F_CROSS_PD, F_DEEP_NOOP, F_RUN_IDLE_H, F_RUN_IDLE_N, F_SAME_DD,
    F_SAME_PP, F_STRESS_NOOP_H, F_STRESS_NOOP_N, SEG_DEEP, SEG_NONE, SEG_PASSIVE,
};

/// Sensor fault codes for [`sensor_sweep_columns`] (`Noisy` reads the
/// true score, like no fault — the incident kind is resolved host-side).
pub(crate) const FAULT_NONE: u8 = 0;
pub(crate) const FAULT_STUCK: u8 = 1;
pub(crate) const FAULT_DROPPED: u8 = 2;

/// `BtiDevice::stress` + `apply_stress_totals` for chip `i`, with the
/// equivalent-age reconstruction exactly as `StressLaw::advance_wearout`
/// evaluates it. Only called when the reference's input guard passes, so
/// the open recovery segment (if any) is closed.
#[inline(always)]
fn stress_chip(s: &mut ChipStore, ctx: &ColumnarCtx, i: usize, sdt: f64, hf: f64) {
    s.seg_kind[i] = SEG_NONE;
    let a = s.a_stress[i];
    let total = s.rec[i] + s.soft[i] + s.hard[i];
    let age = if total <= 0.0 {
        0.0
    } else {
        (total / a).powf(ctx.inv_n)
    };
    let new_total = a * (age + sdt).powf(ctx.n);
    let generated = (new_total - total).max(0.0);

    let new_window = s.window[i] + sdt;
    let p_target = ctx
        .model
        .permanent_fraction(Seconds::new(new_window))
        .value()
        * new_total;
    let p_current = s.soft[i] + s.hard[i];
    let dp = (p_target - p_current).clamp(0.0, generated);
    s.soft[i] += dp;
    s.rec[i] += generated - dp;

    let transfer = s.soft[i] * hf;
    s.soft[i] -= transfer;
    s.hard[i] += transfer;
    s.window[i] = new_window;
}

/// `BtiDevice::recover` for chip `i` at `call_kind` ∈ {passive, deep}.
/// The `sf_*`/`wf_*` pair passed in is the anneal/window factor column
/// pair for this call's dt; which of the pair applies depends on the θ
/// of the segment that survives the continuation check (the *stored*
/// segment's condition, exactly like the reference).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn recover_chip(
    s: &mut ChipStore,
    ctx: &ColumnarCtx,
    i: usize,
    call_kind: u32,
    dt: f64,
    sf_p: f64,
    sf_d: f64,
    wf_p: f64,
    wf_d: f64,
) {
    let flags = s.flags[i];
    let stored = s.seg_kind[i];
    let continues = match (stored, call_kind) {
        (SEG_PASSIVE, SEG_PASSIVE) => flags & F_SAME_PP != 0,
        (SEG_DEEP, SEG_DEEP) => flags & F_SAME_DD != 0,
        (SEG_PASSIVE, SEG_DEEP) | (SEG_DEEP, SEG_PASSIVE) => flags & F_CROSS_PD != 0,
        _ => false,
    };
    let kind = if continues {
        stored
    } else {
        // New relaxation segment: ξ referenced to the equivalent age of
        // the accumulated wearout at the reference condition, floored at
        // 1 s (f64::max semantics, so a NaN age also floors to 1).
        let total = s.rec[i] + s.soft[i] + s.hard[i];
        let age = if total <= 0.0 {
            0.0
        } else {
            (total / ctx.a_ref).powf(ctx.inv_n)
        };
        s.seg_start[i] = total;
        s.seg_age[i] = age.max(1.0);
        s.seg_elapsed[i] = 0.0;
        s.seg_kind[i] = call_kind;
        call_kind
    };
    let (theta, sf, wf) = if kind == SEG_DEEP {
        (s.theta_d[i], sf_d, wf_d)
    } else {
        (s.theta_p[i], sf_p, wf_p)
    };
    s.soft[i] *= sf;
    s.window[i] *= wf;

    let elapsed = s.seg_elapsed[i] + dt;
    let xi_eff = theta * (elapsed / s.seg_age[i]);
    let r = ctx.model.relaxation().recovery_fraction_at(xi_eff).value();
    let permanent_now = s.soft[i] + s.hard[i];
    let remaining = (s.seg_start[i] * (1.0 - r)).max(permanent_now);
    s.rec[i] = (remaining - permanent_now).max(0.0);
    s.seg_elapsed[i] = elapsed;
}

dh_simd::dispatch! {
    /// Steps every live chip of the group store through one epoch
    /// (`ChipState::step` on columns). `selected[i]` says whether chip
    /// `i` holds a recovery slot this epoch. Returns how many chips
    /// failed during this sweep.
    pub(crate) fn epoch_step_columns(
        store: &mut ChipStore,
        ctx: ColumnarCtx,
        selected: &[bool],
        epoch_index: u64,
    ) -> u64 {
        let mut newly_failed = 0u64;
        for (i, &heal) in selected[..store.len].iter().enumerate() {
            if store.failed_epoch[i] != ALIVE {
                continue;
            }
            let flags = store.flags[i];
            if heal {
                store.healed[i] += 1;
                if flags & F_DEEP_NOOP == 0 {
                    recover_chip(
                        store, &ctx, i, SEG_DEEP, ctx.heal_dt,
                        store.sf_p_heal[i], store.sf_d_heal[i],
                        store.wf_p_heal[i], store.wf_d_heal[i],
                    );
                }
                store.em[i] += store.em_dh[i];
                if flags & F_STRESS_NOOP_H == 0 {
                    stress_chip(store, &ctx, i, store.stress_dt_h[i], store.hf_h[i]);
                }
                if flags & F_RUN_IDLE_H != 0 {
                    recover_chip(
                        store, &ctx, i, SEG_PASSIVE, store.idle_h[i],
                        store.sf_p_idle_h[i], store.sf_d_idle_h[i],
                        store.wf_p_idle_h[i], store.wf_d_idle_h[i],
                    );
                }
            } else {
                store.em[i] += store.em_dn[i];
                if flags & F_STRESS_NOOP_N == 0 {
                    stress_chip(store, &ctx, i, store.stress_dt_n[i], store.hf_n[i]);
                }
                if flags & F_RUN_IDLE_N != 0 {
                    recover_chip(
                        store, &ctx, i, SEG_PASSIVE, store.idle_n[i],
                        store.sf_p_idle_n[i], store.sf_d_idle_n[i],
                        store.wf_p_idle_n[i], store.wf_d_idle_n[i],
                    );
                }
            }

            store.em_peak[i] = store.em_peak[i].max(store.em[i]);
            let floor = ctx.em_pinned_floor * store.em_peak[i];
            store.em[i] = store.em[i].clamp(floor, 1.0);

            let total = store.rec[i] + store.soft[i] + store.hard[i];
            let degradation = 1.0 - ctx.ro.frequency(total).value() / ctx.fresh_hz;
            store.guardband[i] = store.guardband[i].max(degradation);
            store.score[i] = degradation + store.em[i];
            store.epochs_run[i] += 1;
            if store.em[i] >= 1.0 || degradation >= ctx.fail_guardband {
                store.failed_epoch[i] = epoch_index.min(u64::from(u32::MAX) - 1) as u32;
                newly_failed += 1;
            }
        }
        newly_failed
    }
}

dh_simd::dispatch! {
    /// Re-reads every live chip's wear sensor (`ChipState::sense` on
    /// columns). `newly[i]` is set on the epoch chip `i`'s sensor is
    /// first flagged, and the host turns those marks into
    /// [`dh_fault::SensorIncident`]s in chip order. Only runs under a
    /// fault plan — fault-free runs never call it, exactly like the
    /// reference.
    pub(crate) fn sensor_sweep_columns(
        store: &mut ChipStore,
        fault_code: &[u8],
        newly: &mut [u8],
    ) {
        for (i, &code) in fault_code[..store.len].iter().enumerate() {
            if store.failed_epoch[i] != ALIVE {
                continue;
            }
            let reading = match code {
                FAULT_STUCK => 0.0,
                FAULT_DROPPED => f64::NAN,
                _ => store.score[i],
            };
            let stale = !reading.is_finite() || reading.to_bits() == store.last_bits[i];
            store.stale[i] = if stale { store.stale[i] + 1 } else { 0 };
            store.last_bits[i] = reading.to_bits();
            if reading.is_finite() {
                store.score[i] = reading;
            }
            if store.flagged[i] == 0 && store.stale[i] >= SENSOR_STALE_EPOCHS {
                store.flagged[i] = 1;
                newly[i] = 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FleetConfig;

    #[test]
    fn dispatch_backends_agree() {
        // Step a small store a few epochs under both backends and compare
        // every state column bit for bit.
        let config = FleetConfig {
            devices: 16,
            shard_size: 16,
            group_size: 16,
            ..FleetConfig::default()
        };
        let run = |force: bool| {
            dh_simd::force_scalar(force);
            let ctx = ColumnarCtx::new(&config);
            let mut store = ChipStore::new();
            store.reset(&config, &ctx, 0, 16);
            let selected: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
            for e in 0..32 {
                epoch_step_columns(&mut store, ctx, &selected, e);
            }
            dh_simd::force_scalar(false);
            store
        };
        let simd = run(false);
        let scalar = run(true);
        for k in 0..16 {
            assert_eq!(simd.rec[k].to_bits(), scalar.rec[k].to_bits(), "rec[{k}]");
            assert_eq!(simd.soft[k].to_bits(), scalar.soft[k].to_bits());
            assert_eq!(simd.hard[k].to_bits(), scalar.hard[k].to_bits());
            assert_eq!(simd.em[k].to_bits(), scalar.em[k].to_bits());
            assert_eq!(simd.score[k].to_bits(), scalar.score[k].to_bits());
            assert_eq!(simd.guardband[k].to_bits(), scalar.guardband[k].to_bits());
        }
    }
}
