//! The fleet engine: sharded deterministic execution and streaming
//! aggregation.
//!
//! The population is cut into shards of whole maintenance groups. A shard
//! is a pure function of `(config, shard index)` — chips draw their
//! identity from per-chip RNG streams, groups schedule healing from
//! group-local state only — so the shard partitioning is nothing but a
//! work and checkpoint granularity. [`dh_exec::par_map_fold`] executes
//! shards in parallel and folds each one's per-chip outcomes into the
//! [`FleetAccumulator`] **in canonical chip order**, which makes the final
//! [`FleetReport`] bit-identical at any shard size and thread count while
//! memory stays bounded by the in-flight shard window, never O(devices).
//!
//! Two execution modes share that engine. The **strict** mode
//! ([`run_fleet`], [`FleetRun::step`]) treats any anomaly — a non-finite
//! sample, a corrupt checkpoint — as fatal. The **supervised** mode
//! ([`run_fleet_supervised`], [`FleetRun::step_supervised`]) wraps every
//! shard in [`dh_exec::par_map_fold_supervised`]: panicking shards are
//! retried with backoff and quarantined when they keep failing, poisoned
//! samples are rejected at the fold, bad sensors degrade the worst-first
//! schedule to conservative always-heal, and the run completes with a
//! [`DegradedReport`] enumerating everything it survived. With no fault
//! plan (or a no-op one) the supervised path folds the exact same values
//! in the exact same order as the strict path, so its report fingerprint
//! is bit-identical to the baseline.

use std::ops::ControlFlow;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use dh_circuit::RingOscillator;
use dh_em::black::BlackModel;
use dh_exec::{CheckpointSink, Driven, RetryPolicy, Steppable, Supervision};
use dh_fault::wire::{fnv1a, fnv1a_f64, fnv1a_u64, put_u64, take_u64, FNV_OFFSET};
use dh_fault::{DegradedReport, FaultPlan, SensorFaultKind, SensorIncident, ShardFailure};
use dh_units::{CurrentDensity, Fraction, Kelvin, Seconds, Volts};

use crate::checkpoint::{AsyncCheckpointer, CheckpointMode, CheckpointStore, Snapshot, SyncWriter};
use crate::chip::{ChipContext, ChipOutcome, ChipSpec, ChipState, VariationModel};
use crate::error::FleetError;
use crate::kernel::{
    epoch_step_columns, sensor_sweep_columns, FAULT_DROPPED, FAULT_NONE, FAULT_STUCK,
};
use crate::policy::{FleetPolicy, MaintenanceBudget};
use crate::stats::{StreamingSummary, SummaryStats};
use crate::store::{ChipStore, ColumnarCtx, StoreView, ALIVE};

/// Everything that defines a fleet run. Two configs with the same
/// [`FleetConfig::fingerprint`] produce byte-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Population size.
    pub devices: u64,
    /// Root seed; per-chip streams derive from it.
    pub seed: u64,
    /// Simulated lifetime, years.
    pub years: f64,
    /// Scheduling epoch (one maintenance-window cadence).
    pub epoch: Seconds,
    /// Chips per shard (work/checkpoint granularity; must be a multiple
    /// of `group_size`). Has **no effect** on the report.
    pub shard_size: u64,
    /// Chips per maintenance group (a rack sharing one recovery window).
    pub group_size: u64,
    /// The recovery-policy mix: group *g* runs `policies[g % len]`, so a
    /// heterogeneous fleet can A/B schedulers in one run.
    pub policies: Vec<FleetPolicy>,
    /// Recovery slots per group per epoch.
    pub budget: MaintenanceBudget,
    /// Fraction of a healing epoch spent in deep BTI recovery.
    pub heal_fraction: Fraction,
    /// Gate bias during deep recovery (≤ 0 activates recovery).
    pub recovery_bias: Volts,
    /// EM current-reversal duty while a healing epoch runs.
    pub em_reversal_duty: Fraction,
    /// Healing efficiency η of the reversed-current interval.
    pub em_heal_efficiency: Fraction,
    /// Fraction of peak EM damage that healing can never reclaim.
    pub em_pinned_floor: Fraction,
    /// Nominal supply (gate overdrive during stress).
    pub vdd: Volts,
    /// Fleet-median operating temperature.
    pub base_temperature: Kelvin,
    /// Local-interconnect current density at full utilization.
    pub j_local: CurrentDensity,
    /// Frequency degradation that counts as a (parametric) failure.
    pub fail_guardband: f64,
    /// Chip-to-chip variation model.
    pub variation: VariationModel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            devices: 10_000,
            seed: 7,
            years: 3.0,
            epoch: Seconds::from_hours(168.0),
            shard_size: 1_024,
            group_size: 64,
            policies: vec![FleetPolicy::WorstFirst],
            budget: MaintenanceBudget::default(),
            heal_fraction: Fraction::clamped(0.15),
            recovery_bias: Volts::new(-0.3),
            em_reversal_duty: Fraction::clamped(0.2),
            em_heal_efficiency: Fraction::clamped(0.9),
            em_pinned_floor: Fraction::clamped(0.05),
            vdd: Volts::new(0.9),
            base_temperature: Kelvin::new(85.0 + 273.15),
            j_local: CurrentDensity::from_ma_per_cm2(6.0),
            fail_guardband: 0.10,
            variation: VariationModel::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the geometry and physics knobs.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |why: String| Err(FleetError::InvalidConfig(why));
        if self.devices == 0 {
            return bad("devices must be positive".into());
        }
        if !(self.years > 0.0) || !self.years.is_finite() {
            return bad(format!("years must be positive, got {}", self.years));
        }
        if self.epoch.value() <= 0.0 {
            return bad("epoch must be positive".into());
        }
        if self.group_size == 0 {
            return bad("group_size must be positive".into());
        }
        if self.shard_size == 0 || !self.shard_size.is_multiple_of(self.group_size) {
            return bad(format!(
                "shard_size {} must be a positive multiple of group_size {}",
                self.shard_size, self.group_size
            ));
        }
        if self.policies.is_empty() {
            return bad("policy mix must name at least one policy".into());
        }
        if self.heal_fraction.value() >= 1.0 {
            return bad("heal_fraction must leave time to run".into());
        }
        if !self.fail_guardband.is_finite() || !(self.fail_guardband > 0.0) {
            return bad(format!(
                "fail_guardband must be positive and finite, got {}",
                self.fail_guardband
            ));
        }
        // The physics corner parameters feed transcendental kernels; a
        // NaN/Inf here surfaces epochs later as a poisoned aggregate, so
        // reject it at the boundary with the field named.
        for (name, v) in [
            ("epoch", self.epoch.value()),
            ("recovery_bias", self.recovery_bias.value()),
            ("vdd", self.vdd.value()),
            ("base_temperature", self.base_temperature.value()),
            ("j_local", self.j_local.value()),
        ] {
            if !v.is_finite() {
                return bad(format!("{name} must be finite, got {v}"));
            }
        }
        if self.base_temperature.value() <= 0.0 {
            return bad(format!(
                "base_temperature must be positive kelvin, got {}",
                self.base_temperature.value()
            ));
        }
        for (name, v) in [
            ("variation.process_sigma", self.variation.process_sigma),
            ("variation.em_sigma", self.variation.em_sigma),
            ("variation.temp_sigma_c", self.variation.temp_sigma_c),
            (
                "variation.utilization_mean",
                self.variation.utilization_mean,
            ),
            (
                "variation.utilization_sigma",
                self.variation.utilization_sigma,
            ),
        ] {
            if !v.is_finite() || v < 0.0 {
                return bad(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        Ok(())
    }

    /// Epochs each chip steps through.
    pub fn total_epochs(&self) -> u64 {
        (Seconds::from_years(self.years) / self.epoch)
            .ceil()
            .max(1.0) as u64
    }

    /// Shards in the run.
    pub fn shard_count(&self) -> u64 {
        self.devices.div_ceil(self.shard_size)
    }

    /// Picks a shard size for `workers` parallel workers: about four
    /// shards per worker so the reorder fold never starves behind one
    /// slow shard, rounded up to whole maintenance groups and capped so
    /// one shard's columns stay cache-resident. `shard_size` has no
    /// effect on the report — this is purely a throughput knob, and the
    /// fleet bin / benches use it as their default.
    pub fn auto_shard_size(&self, workers: usize) -> u64 {
        let workers = workers.max(1) as u64;
        let target = self.devices.div_ceil(workers * 4).max(1);
        let groups = target.div_ceil(self.group_size);
        let cap_groups = (65_536 / self.group_size).max(1);
        groups.min(cap_groups) * self.group_size
    }

    /// An FNV-1a hash over every field that influences the simulation,
    /// stored in checkpoints so a resume cannot silently mix two different
    /// runs. `shard_size` is deliberately **included**: the report does
    /// not depend on it, but the shard *cursor* in a checkpoint does.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, b"dh-fleet-config-v1");
        for v in [self.devices, self.seed, self.shard_size, self.group_size] {
            h = fnv1a_u64(h, v);
        }
        h = fnv1a_u64(h, self.policies.len() as u64);
        for p in &self.policies {
            h = fnv1a_u64(h, p.discriminant());
        }
        h = fnv1a_u64(h, self.budget.slots_per_group);
        for v in [
            self.years,
            self.epoch.value(),
            self.heal_fraction.value(),
            self.recovery_bias.value(),
            self.em_reversal_duty.value(),
            self.em_heal_efficiency.value(),
            self.em_pinned_floor.value(),
            self.vdd.value(),
            self.base_temperature.value(),
            self.j_local.value(),
            self.fail_guardband,
            self.variation.process_sigma,
            self.variation.em_sigma,
            self.variation.temp_sigma_c,
            self.variation.utilization_mean,
            self.variation.utilization_sigma,
        ] {
            h = fnv1a_f64(h, v);
        }
        h
    }

    fn context(&self) -> ChipContext {
        let ro = RingOscillator::paper_75_stage();
        let fresh_hz = ro.frequency(0.0).value();
        let duty = self.em_reversal_duty.value();
        ChipContext {
            ro,
            fresh_hz,
            black: BlackModel::calibrated_to_paper(),
            epoch: self.epoch,
            heal_time: Seconds::new(self.epoch.value() * self.heal_fraction.value()),
            vdd: self.vdd,
            recovery_bias: self.recovery_bias,
            j_local: self.j_local,
            em_wear_heal: (1.0 - duty) - self.em_heal_efficiency.value() * duty,
            em_pinned_floor: self.em_pinned_floor.value(),
            fail_guardband: self.fail_guardband,
        }
    }
}

/// What one reference-path shard hands back to the fold.
struct ShardResult {
    outcomes: Vec<ChipOutcome>,
    /// Recovery slots the budget offered across the shard's group-epochs.
    budget_slots: u64,
    /// Sensors staleness detection flagged as bad (empty without a plan).
    incidents: Vec<SensorIncident>,
}

/// The original per-chip (AoS) shard simulation, kept as the bit-identity
/// reference the columnar kernels are pinned against (`fleet_columnar`
/// proptest, `tests/allocs.rs`). The engine itself always runs
/// [`simulate_shard_columnar`].
///
/// With a fault `plan`, every live chip's wear sensor is re-read through
/// [`ChipState::sense`] after each epoch step — injected stuck/dropped
/// sensors corrupt the score the worst-first policy ranks by until
/// staleness detection flags them, after which the chip is healed every
/// epoch (conservative degradation, never silent starvation). Without a
/// plan the sensing path is never entered and the shard is byte-identical
/// to a build without fault injection.
fn simulate_shard_reference(
    config: &FleetConfig,
    ctx: &ChipContext,
    shard: u64,
    plan: Option<&FaultPlan>,
) -> ShardResult {
    let lo = shard * config.shard_size;
    let hi = (lo + config.shard_size).min(config.devices);
    let epochs = config.total_epochs();
    let mut outcomes = Vec::with_capacity((hi - lo) as usize);
    let mut budget_slots = 0u64;
    let mut incidents = Vec::new();

    let mut group_lo = lo;
    while group_lo < hi {
        let group_hi = (group_lo + config.group_size).min(hi);
        let group_index = group_lo / config.group_size;
        let policy = config.policies[(group_index % config.policies.len() as u64) as usize];

        let mut chips: Vec<ChipState> = (group_lo..group_hi)
            .map(|i| {
                ChipState::new(
                    ChipSpec::draw(config.seed, i, config.base_temperature, &config.variation),
                    ctx,
                )
            })
            .collect();
        // A chip's sensor fault is part of its (injected) identity:
        // resolved once per chip, constant over the lifetime.
        let faults: Vec<Option<SensorFaultKind>> = match plan {
            Some(p) => (group_lo..group_hi).map(|i| p.sensor_fault(i)).collect(),
            None => Vec::new(),
        };
        let mut selected = vec![false; chips.len()];
        let mut alive = chips.len();
        for epoch in 0..epochs {
            if alive == 0 {
                break;
            }
            let healed = policy.select(epoch, config.budget, &chips, &mut selected);
            budget_slots += config.budget.slots_per_group.min(chips.len() as u64);
            dh_obs::counter!("fleet.chips_healed").add(healed);
            for (chip, &heal) in chips.iter_mut().zip(&selected) {
                if chip.alive() {
                    chip.step(ctx, heal);
                    if !chip.alive() {
                        alive -= 1;
                    }
                }
            }
            if plan.is_some() {
                for (chip, &fault) in chips.iter_mut().zip(&faults) {
                    if chip.alive() && chip.sense(fault) {
                        incidents.push(SensorIncident {
                            chip: chip.spec.index,
                            // Staleness can also latch on a genuinely
                            // frozen score; the detector's verdict is
                            // "stuck" either way.
                            kind: fault.unwrap_or(SensorFaultKind::Stuck),
                            epoch,
                        });
                    }
                }
            }
        }
        outcomes.extend(chips.iter().map(ChipState::outcome));
        group_lo = group_hi;
    }
    ShardResult {
        outcomes,
        budget_slots,
        incidents,
    }
}

/// One shard's reusable working set: the columnar [`ChipStore`] plus
/// every scratch buffer the epoch loop needs. Slabs live in the
/// [`FleetRun`] pool and are recycled across shards, so steady-state
/// simulation performs no per-shard allocation — shards are zero-copy
/// column-range views over the store, never materialized `ChipState`s
/// or per-shard outcome `Vec`s.
#[derive(Debug, Default)]
struct ShardSlab {
    store: ChipStore,
    /// Group-local slot assignment for the current epoch.
    selected: Vec<bool>,
    /// Worst-first ranking scratch.
    ranked: Vec<u32>,
    /// Group-local injected sensor faults (plan runs only) and their
    /// kernel codes.
    faults: Vec<Option<SensorFaultKind>>,
    fault_code: Vec<u8>,
    /// Group-local "sensor first flagged this epoch" marks.
    newly: Vec<u8>,
    incidents: Vec<SensorIncident>,
    budget_slots: u64,
}

/// Locks the slab pool, recovering a poisoned guard. A worker that
/// panics while holding the pool poisons the `Mutex`; the pool only
/// holds recycled capacity (never partially-folded results — those live
/// on the worker's stack and die with it), so the contents are intact
/// and surviving workers must keep going instead of cascading
/// `PoisonError` unwraps out of one supervised-and-retried fault.
fn lock_pool(pool: &Mutex<Vec<ShardSlab>>) -> MutexGuard<'_, Vec<ShardSlab>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`simulate_shard_reference`] on the columnar store: every maintenance
/// group of shard `shard`, stepped through the full lifetime by the
/// [`crate::kernel`] column sweeps. Pure in `(config, shard)`; the slab
/// only provides reusable capacity. Bit-identical to the reference path
/// by construction (same operations in the same order per chip).
fn simulate_shard_columnar(
    config: &FleetConfig,
    cctx: &ColumnarCtx,
    shard: u64,
    plan: Option<&FaultPlan>,
    slab: &mut ShardSlab,
) {
    let lo = shard * config.shard_size;
    let hi = (lo + config.shard_size).min(config.devices);
    let epochs = config.total_epochs();
    slab.store.reset(config, cctx, lo, hi);
    slab.budget_slots = 0;
    slab.incidents.clear();

    let mut group_lo = lo;
    while group_lo < hi {
        let group_hi = (group_lo + config.group_size).min(hi);
        let glo = (group_lo - lo) as usize;
        let ghi = (group_hi - lo) as usize;
        let len = ghi - glo;
        let group_index = group_lo / config.group_size;
        let policy = config.policies[(group_index % config.policies.len() as u64) as usize];

        slab.selected.clear();
        slab.selected.resize(len, false);
        if let Some(p) = plan {
            // A chip's sensor fault is part of its (injected) identity:
            // resolved once per chip, constant over the lifetime.
            slab.faults.clear();
            slab.fault_code.clear();
            for i in group_lo..group_hi {
                let fault = p.sensor_fault(i);
                slab.fault_code.push(match fault {
                    Some(SensorFaultKind::Stuck) => FAULT_STUCK,
                    Some(SensorFaultKind::Dropped) => FAULT_DROPPED,
                    _ => FAULT_NONE,
                });
                slab.faults.push(fault);
            }
        }

        let mut alive = len as u64;
        for epoch in 0..epochs {
            if alive == 0 {
                break;
            }
            let healed = policy.select_columnar(
                epoch,
                config.budget,
                &slab.store.failed_epoch[glo..ghi],
                &slab.store.score[glo..ghi],
                &slab.store.flagged[glo..ghi],
                &mut slab.selected,
                &mut slab.ranked,
            );
            slab.budget_slots += config.budget.slots_per_group.min(len as u64);
            dh_obs::counter!("fleet.chips_healed").add(healed);
            alive -= epoch_step_columns(&mut slab.store, *cctx, glo, ghi, &slab.selected, epoch);
            if plan.is_some() {
                slab.newly.clear();
                slab.newly.resize(len, 0);
                sensor_sweep_columns(&mut slab.store, glo, ghi, &slab.fault_code, &mut slab.newly);
                for (j, &mark) in slab.newly.iter().enumerate() {
                    if mark != 0 {
                        slab.incidents.push(SensorIncident {
                            chip: group_lo + j as u64,
                            // Staleness can also latch on a genuinely
                            // frozen score; the detector's verdict is
                            // "stuck" either way.
                            kind: slab.faults[j].unwrap_or(SensorFaultKind::Stuck),
                            epoch,
                        });
                    }
                }
            }
        }
        group_lo = group_hi;
    }
}

/// [`poison_outcomes`] against the columnar store: overwrites the same
/// chips' guardband column entries the reference path would poison.
fn poison_store(plan: &FaultPlan, shard: u64, attempt: u32, store: &mut ChipStore) {
    if let Some((offset, kind)) = plan.poison(shard, attempt, store.len as u64) {
        store.guardband[offset as usize] = kind.value();
    }
    if let Some(target) = plan.poisoned_chip() {
        if target >= store.lo && target < store.lo + store.len as u64 {
            store.guardband[(target - store.lo) as usize] = f64::NAN;
        }
    }
}

/// Applies the plan's kernel-output poisoning to a freshly simulated
/// shard: the probabilistic draw (keyed by `(shard, attempt)`, so a
/// retried shard re-rolls) and the directed `poison-chip` target both
/// overwrite a chip's guardband with a non-finite value the fold must
/// reject.
fn poison_outcomes(plan: &FaultPlan, shard: u64, attempt: u32, outcomes: &mut [ChipOutcome]) {
    if let Some((offset, kind)) = plan.poison(shard, attempt, outcomes.len() as u64) {
        outcomes[offset as usize].guardband = kind.value();
    }
    if let Some(target) = plan.poisoned_chip() {
        if let Some(o) = outcomes.iter_mut().find(|o| o.index == target) {
            o.guardband = f64::NAN;
        }
    }
}

/// Reconstructs chip `k`'s [`ChipOutcome`] from the store columns — on
/// the stack, at fold time, so the columnar engine never materializes
/// per-shard outcome `Vec`s. The TTF product `epochs_run * epoch` is the
/// same f64 multiply the reference performs at failure time, so the
/// reconstruction is bit-exact.
fn chip_outcome(store: &ChipStore, k: usize, epoch_s: f64) -> ChipOutcome {
    ChipOutcome {
        index: store.lo + k as u64,
        guardband: store.guardband[k],
        ttf: (store.failed_epoch[k] != ALIVE)
            .then(|| Seconds::new(f64::from(store.epochs_run[k]) * epoch_s)),
        epochs_run: u64::from(store.epochs_run[k]),
        healed_epochs: u64::from(store.healed[k]),
    }
}

/// The strict fold for one columnar shard: every chip in canonical order,
/// aborting at the first non-finite sample (the accumulator is left
/// exactly as the last good chip left it; the shard's budget and the
/// fold counters are only credited on full success, matching the
/// reference fold's abort semantics).
fn fold_slab_strict(
    acc: &mut FleetAccumulator,
    shard_index: u64,
    slab: &ShardSlab,
    epoch_s: f64,
    error: &mut Option<FleetError>,
) {
    let store = &slab.store;
    for k in 0..store.len {
        if let Err(e) = acc.fold_chip(shard_index, &chip_outcome(store, k, epoch_s)) {
            *error = Some(e);
            return;
        }
    }
    acc.budget_chip_epochs += slab.budget_slots;
    dh_obs::counter!("fleet.shards_folded").incr();
    dh_obs::counter!("fleet.devices_folded").add(store.len as u64);
}

/// The O(1)-per-fleet streaming state every chip outcome folds into, in
/// canonical chip order. Fully serializable for checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FleetAccumulator {
    devices_done: u64,
    failed: u64,
    chip_epochs: u64,
    healed_chip_epochs: u64,
    budget_chip_epochs: u64,
    guardband: StreamingSummary,
    ttf_years: StreamingSummary,
}

impl FleetAccumulator {
    fn new() -> Self {
        Self {
            devices_done: 0,
            failed: 0,
            chip_epochs: 0,
            healed_chip_epochs: 0,
            budget_chip_epochs: 0,
            guardband: StreamingSummary::new(),
            ttf_years: StreamingSummary::new(),
        }
    }

    /// Folds one chip's outcome into the aggregates.
    ///
    /// Every sample is validated **before** anything mutates, so a
    /// rejected chip leaves the accumulator exactly as it was — the
    /// supervised fold counts the rejection and keeps going; the strict
    /// fold aborts the run.
    ///
    /// # Errors
    ///
    /// [`FleetError::NonFiniteSample`] when the chip's guardband or TTF
    /// is NaN/Inf.
    fn fold_chip(&mut self, shard: u64, chip: &ChipOutcome) -> Result<(), FleetError> {
        let reject = || FleetError::NonFiniteSample {
            shard,
            chip: chip.index,
        };
        let ttf_years = chip.ttf.map(|t| t.as_years());
        if ttf_years.is_some_and(|y| !y.is_finite()) {
            return Err(reject());
        }
        self.guardband
            .try_push(chip.guardband)
            .map_err(|_| reject())?;
        self.devices_done += 1;
        self.chip_epochs += chip.epochs_run;
        self.healed_chip_epochs += chip.healed_epochs;
        if let Some(years) = ttf_years {
            self.failed += 1;
            self.ttf_years.push(years);
        }
        Ok(())
    }

    /// Appends the full state to `buf` (checkpoint wire format).
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.devices_done);
        put_u64(buf, self.failed);
        put_u64(buf, self.chip_epochs);
        put_u64(buf, self.healed_chip_epochs);
        put_u64(buf, self.budget_chip_epochs);
        self.guardband.encode(buf);
        self.ttf_years.encode(buf);
    }

    /// Reads the state back from the front of `bytes`.
    pub(crate) fn decode(bytes: &mut &[u8]) -> Result<Self, FleetError> {
        Ok(Self {
            devices_done: take_u64(bytes, "acc.devices_done")?,
            failed: take_u64(bytes, "acc.failed")?,
            chip_epochs: take_u64(bytes, "acc.chip_epochs")?,
            healed_chip_epochs: take_u64(bytes, "acc.healed_chip_epochs")?,
            budget_chip_epochs: take_u64(bytes, "acc.budget_chip_epochs")?,
            guardband: StreamingSummary::decode(bytes)?,
            ttf_years: StreamingSummary::decode(bytes)?,
        })
    }
}

/// A resumable fleet run: the shard cursor plus the streaming aggregates,
/// the hoisted kernel context, and the pool of reusable shard slabs.
#[derive(Debug)]
pub struct FleetRun {
    config: FleetConfig,
    /// Next shard to fold; shards `0..cursor` are fully aggregated.
    cursor: u64,
    acc: FleetAccumulator,
    /// Everything a supervised run has survived so far. Stays empty on
    /// the strict path (strict runs abort instead of degrading).
    degraded: DegradedReport,
    /// Run-wide kernel constants, built once instead of per step.
    cctx: ColumnarCtx,
    /// Recycled shard working sets (bounded by the in-flight window).
    pool: Mutex<Vec<ShardSlab>>,
}

impl FleetRun {
    fn from_parts(
        config: FleetConfig,
        cursor: u64,
        acc: FleetAccumulator,
        degraded: DegradedReport,
    ) -> Self {
        let cctx = ColumnarCtx::new(&config);
        Self {
            config,
            cursor,
            acc,
            degraded,
            cctx,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Starts a fresh run.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate()?;
        Ok(Self::from_parts(
            config,
            0,
            FleetAccumulator::new(),
            DegradedReport::default(),
        ))
    }

    /// Resumes from the newest valid generation of a [`CheckpointStore`]
    /// (a fresh run when no generation exists), recording every skipped
    /// generation in the degraded report. This is the resume path
    /// [`run_fleet_supervised_with`] and the `dh-serve` daemon share: a
    /// corrupted newest generation costs a replay window, never the run.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O, config validation, and
    /// [`FleetError::ConfigMismatch`] when the newest valid generation
    /// belongs to a different config.
    pub fn resume_from_store(
        config: FleetConfig,
        store: &CheckpointStore,
    ) -> Result<Self, FleetError> {
        let (snapshot, fallbacks) = store.read_newest_valid()?;
        let mut run = match snapshot {
            Some(s) => Self::resume(config, s)?,
            None => Self::new(config)?,
        };
        run.degraded.checkpoint_fallbacks.extend(fallbacks);
        Ok(run)
    }

    /// Resumes from a snapshot, verifying it belongs to `config`. The
    /// snapshot's degraded state (quarantines, rejected samples, …)
    /// carries over: a kill/resume cycle cannot launder a degraded run
    /// into a clean one.
    pub fn resume(config: FleetConfig, snapshot: Snapshot) -> Result<Self, FleetError> {
        config.validate()?;
        let expected = config.fingerprint();
        if snapshot.config_fingerprint != expected {
            return Err(FleetError::ConfigMismatch {
                found: snapshot.config_fingerprint,
                expected,
            });
        }
        if snapshot.cursor > config.shard_count() {
            return Err(FleetError::Corrupt(format!(
                "cursor {} beyond the {}-shard run",
                snapshot.cursor,
                config.shard_count()
            )));
        }
        Ok(Self::from_parts(
            config,
            snapshot.cursor,
            snapshot.acc,
            snapshot.degraded,
        ))
    }

    /// The run's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Shards folded so far.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Whether every shard has been folded.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.config.shard_count()
    }

    /// Everything the run has survived so far (empty for a clean run).
    pub fn degraded(&self) -> &DegradedReport {
        &self.degraded
    }

    /// A point-in-time progress view, cheap enough to poll between step
    /// batches: the shard cursor plus the streaming guardband aggregate
    /// frozen as it stands (a partial distribution over the chips folded
    /// so far).
    pub fn progress(&self) -> FleetProgress {
        FleetProgress {
            shards_done: self.cursor,
            shard_count: self.config.shard_count(),
            devices_done: self.acc.devices_done,
            failed: self.acc.failed,
            guardband: self.acc.guardband.finalize(),
        }
    }

    /// Runs `f` over read-only [`StoreView`]s of the pooled shard slabs —
    /// the column state the most recently folded shards left behind.
    /// The pool is locked for the duration of `f` (workers recycling
    /// slabs block on it), so keep `f` short; the daemon uses it to
    /// render per-shard summaries for its progress endpoint.
    pub fn with_store_views<R>(&self, f: impl FnOnce(&[StoreView<'_>]) -> R) -> R {
        let pool = lock_pool(&self.pool);
        let views: Vec<StoreView<'_>> = pool.iter().map(|slab| slab.store.view()).collect();
        f(&views)
    }

    /// Executes and folds up to `max_shards` more shards (all remaining
    /// when saturated) and returns whether the run is now complete.
    ///
    /// Shards run in parallel; their per-chip outcomes fold into the
    /// aggregates in canonical chip order on this thread, so any stepping
    /// pattern — one giant step, shard-by-shard with a checkpoint after
    /// each, killed and resumed — yields bit-identical aggregates.
    ///
    /// This is the strict path: a worker panic propagates and a
    /// non-finite sample aborts the batch with
    /// [`FleetError::NonFiniteSample`] (the cursor does not advance; the
    /// aggregates may hold part of the failed batch, so the run should
    /// be abandoned or resumed from its last checkpoint). Use
    /// [`FleetRun::step_supervised`] to degrade instead of aborting.
    pub fn step(&mut self, max_shards: u64) -> Result<bool, FleetError> {
        let remaining = self.config.shard_count() - self.cursor;
        let batch = remaining.min(max_shards.max(1)) as usize;
        if batch == 0 {
            return Ok(true);
        }
        let _span = dh_obs::span("fleet.step_seconds");
        let started = std::time::Instant::now();
        let first = self.cursor;
        let config = &self.config;
        let cctx = &self.cctx;
        let pool = &self.pool;
        let epoch_s = config.epoch.value();
        let acc = &mut self.acc;
        let mut error: Option<FleetError> = None;
        dh_exec::par_map_fold(
            batch,
            |i| {
                let mut slab = lock_pool(pool).pop().unwrap_or_default();
                simulate_shard_columnar(config, cctx, first + i as u64, None, &mut slab);
                slab
            },
            (),
            |(), i, slab| {
                let shard_index = first + i as u64;
                if error.is_none() {
                    fold_slab_strict(acc, shard_index, &slab, epoch_s, &mut error);
                }
                lock_pool(pool).push(slab);
            },
        );
        if let Some(e) = error {
            return Err(e);
        }
        self.cursor += batch as u64;
        if dh_obs::ENABLED {
            let elapsed = started.elapsed().as_secs_f64();
            let batch_devices = ((first + batch as u64) * self.config.shard_size)
                .min(self.config.devices)
                - first * self.config.shard_size;
            dh_obs::histogram!("fleet.devices_per_sec")
                .record(batch_devices as f64 / elapsed.max(1e-9));
        }
        Ok(self.is_done())
    }

    /// [`FleetRun::step`] under supervision: shard tasks run inside
    /// `catch_unwind`, panicking shards (injected or real) are retried
    /// per `retry` and quarantined when they keep failing, non-finite
    /// samples are rejected at the fold, and every such event lands in
    /// [`FleetRun::degraded`] instead of aborting the run. Returns
    /// whether the run is complete; it cannot fail — that is the point.
    ///
    /// With `plan` absent or a no-op, the fold sequence is identical to
    /// the strict path, so the final report stays bit-identical to an
    /// unsupervised run.
    pub fn step_supervised(
        &mut self,
        max_shards: u64,
        plan: Option<&FaultPlan>,
        retry: &RetryPolicy,
    ) -> bool {
        let remaining = self.config.shard_count() - self.cursor;
        let batch = remaining.min(max_shards.max(1)) as usize;
        if batch == 0 {
            return true;
        }
        let _span = dh_obs::span("fleet.step_seconds");
        let first = self.cursor;
        let config = &self.config;
        let cctx = &self.cctx;
        let pool = &self.pool;
        let epoch_s = config.epoch.value();
        let acc = &mut self.acc;
        let degraded = &mut self.degraded;
        let plan = plan.filter(|p| !p.is_noop());
        let outcome = dh_exec::par_map_fold_supervised(
            batch,
            |i, attempt| {
                let shard = first + i as u64;
                if let Some(p) = plan {
                    if p.shard_panics(shard, attempt) {
                        panic!("injected fault: shard {shard} attempt {attempt}");
                    }
                }
                let mut slab = lock_pool(pool).pop().unwrap_or_default();
                simulate_shard_columnar(config, cctx, shard, plan, &mut slab);
                if let Some(p) = plan {
                    poison_store(p, shard, attempt, &mut slab.store);
                }
                slab
            },
            (),
            |(), i, slab| {
                let shard_index = first + i as u64;
                let store = &slab.store;
                for k in 0..store.len {
                    if acc
                        .fold_chip(shard_index, &chip_outcome(store, k, epoch_s))
                        .is_err()
                    {
                        degraded.rejected_samples += 1;
                        dh_obs::counter!("fleet.rejected_samples").incr();
                    }
                }
                degraded
                    .sensor_incidents
                    .extend(slab.incidents.iter().cloned());
                acc.budget_chip_epochs += slab.budget_slots;
                dh_obs::counter!("fleet.shards_folded").incr();
                dh_obs::counter!("fleet.devices_folded").add(store.len as u64);
                lock_pool(pool).push(slab);
            },
            retry,
        );
        degraded.retries += outcome.retries;
        dh_obs::counter!("fleet.shards_quarantined").add(outcome.failures.len() as u64);
        for f in outcome.failures {
            degraded.quarantined.push(ShardFailure {
                shard: first + f.index as u64,
                attempts: f.attempts,
                error: f.message,
            });
        }
        self.cursor += batch as u64;
        self.is_done()
    }

    /// Captures the current cursor + aggregate + degraded state for a
    /// checkpoint.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            config_fingerprint: self.config.fingerprint(),
            cursor: self.cursor,
            acc: self.acc.clone(),
            degraded: self.degraded.clone(),
        }
    }

    /// Freezes the finished run into a report.
    ///
    /// # Errors
    ///
    /// [`FleetError::NotFinished`] while shards remain.
    pub fn report(&self) -> Result<FleetReport, FleetError> {
        if !self.is_done() {
            return Err(FleetError::NotFinished {
                done: self.cursor,
                total: self.config.shard_count(),
            });
        }
        Ok(make_report(&self.config, &self.acc))
    }
}

impl Steppable for FleetRun {
    type Checkpoint = Snapshot;
    type Error = FleetError;

    fn step_units(
        &mut self,
        units: u64,
        supervision: Option<Supervision<'_>>,
    ) -> Result<bool, FleetError> {
        match supervision {
            Some(s) => Ok(self.step_supervised(units, s.plan, s.retry)),
            None => self.step(units),
        }
    }

    fn checkpoint(&self) -> Snapshot {
        self.snapshot()
    }

    fn degraded_mut(&mut self) -> &mut DegradedReport {
        &mut self.degraded
    }
}

/// A point-in-time view of a running fleet simulation, as exposed to
/// progress consumers (the `dh-serve` daemon's status and SSE
/// endpoints). Unlike a [`FleetReport`] this can be taken mid-run; the
/// distributions cover only the chips folded so far.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProgress {
    /// Shards fully folded.
    pub shards_done: u64,
    /// Total shards in the run.
    pub shard_count: u64,
    /// Chips folded into the aggregates so far.
    pub devices_done: u64,
    /// Chips that failed inside the horizon so far.
    pub failed: u64,
    /// The guardband distribution over the chips folded so far.
    pub guardband: SummaryStats,
}

/// Freezes an accumulator into the deterministic report.
fn make_report(config: &FleetConfig, acc: &FleetAccumulator) -> FleetReport {
    FleetReport {
        devices: acc.devices_done,
        failed: acc.failed,
        epochs_per_device: config.total_epochs(),
        chip_epochs: acc.chip_epochs,
        healed_chip_epochs: acc.healed_chip_epochs,
        budget_chip_epochs: acc.budget_chip_epochs,
        guardband: acc.guardband.finalize(),
        ttf_years: acc.ttf_years.finalize(),
    }
}

/// The deterministic end product of a fleet run. Wall-clock facts
/// (shard timings, devices/sec) live in the `dh-obs` registry, never
/// here, so two runs of the same config compare byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Chips simulated (chips in quarantined shards and chips whose
    /// samples were rejected are **not** counted — see the run's
    /// [`DegradedReport`]).
    pub devices: u64,
    /// Chips that failed inside the horizon (EM damage reached 1 or
    /// degradation crossed the failure threshold).
    pub failed: u64,
    /// Lifetime horizon in epochs.
    pub epochs_per_device: u64,
    /// Chip-epochs actually stepped (failed chips stop early).
    pub chip_epochs: u64,
    /// Chip-epochs that ran a recovery slot.
    pub healed_chip_epochs: u64,
    /// Chip-epochs of recovery the budget offered.
    pub budget_chip_epochs: u64,
    /// Distribution of per-chip required guardbands.
    pub guardband: SummaryStats,
    /// Distribution of failed chips' times to failure, years.
    pub ttf_years: SummaryStats,
}

impl FleetReport {
    /// Fraction of the fleet that failed inside the horizon.
    pub fn failure_rate(&self) -> f64 {
        if self.devices == 0 {
            0.0
        } else {
            self.failed as f64 / self.devices as f64
        }
    }

    /// Fraction of offered recovery slots actually consumed by live chips.
    pub fn budget_utilization(&self) -> f64 {
        if self.budget_chip_epochs == 0 {
            0.0
        } else {
            self.healed_chip_epochs as f64 / self.budget_chip_epochs as f64
        }
    }

    /// An FNV-1a hash over every field's exact bit pattern: the handle the
    /// byte-identity acceptance tests (and the `fleet` bin) compare.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, b"dh-fleet-report-v1");
        for v in [
            self.devices,
            self.failed,
            self.epochs_per_device,
            self.chip_epochs,
            self.healed_chip_epochs,
            self.budget_chip_epochs,
        ] {
            h = fnv1a_u64(h, v);
        }
        h = self.guardband.fingerprint(h);
        h = self.ttf_years.fingerprint(h);
        h
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "fleet: {} devices x {} epochs ({} chip-epochs stepped)\n\
             failed: {} ({:.3}% of fleet)\n\
             guardband: {}\n\
             ttf:       {}\n\
             healing: {} of {} offered slot-epochs used ({:.1}% budget utilization)\n\
             report fingerprint: {:#018x}",
            self.devices,
            self.epochs_per_device,
            self.chip_epochs,
            self.failed,
            self.failure_rate() * 100.0,
            self.guardband.render(""),
            self.ttf_years.render(" y"),
            self.healed_chip_epochs,
            self.budget_chip_epochs,
            self.budget_utilization() * 100.0,
            self.fingerprint(),
        )
    }
}

/// Runs a fleet to completion in one step (no checkpointing, strict —
/// any anomaly aborts).
///
/// # Errors
///
/// Propagates config validation and [`FleetError::NonFiniteSample`].
pub fn run_fleet(config: &FleetConfig) -> Result<FleetReport, FleetError> {
    let mut run = FleetRun::new(config.clone())?;
    while !run.step(u64::MAX)? {}
    run.report()
}

/// Runs the fleet serially through the per-chip **reference path**
/// ([`simulate_shard_reference`]) with the supervised fold semantics:
/// poisoned samples are rejected into the [`DegradedReport`], sensor
/// incidents are collected, and the run completes. This is the oracle
/// the `fleet_columnar` proptest and `tests/allocs.rs` pin the columnar
/// engine against — not a production entry point.
///
/// Kill/panic faults in `plan` are ignored (no supervision, no retries:
/// every shard runs exactly once at attempt 1, which is also what the
/// columnar supervised path sees for non-killing plans).
///
/// # Errors
///
/// Propagates config validation.
#[doc(hidden)]
pub fn run_fleet_reference(
    config: &FleetConfig,
    plan: Option<&FaultPlan>,
) -> Result<(FleetReport, DegradedReport), FleetError> {
    config.validate()?;
    let ctx = config.context();
    let plan = plan.filter(|p| !p.is_noop());
    let mut acc = FleetAccumulator::new();
    let mut degraded = DegradedReport::default();
    for shard in 0..config.shard_count() {
        let mut result = simulate_shard_reference(config, &ctx, shard, plan);
        if let Some(p) = plan {
            poison_outcomes(p, shard, 1, &mut result.outcomes);
        }
        for chip in &result.outcomes {
            if acc.fold_chip(shard, chip).is_err() {
                degraded.rejected_samples += 1;
            }
        }
        degraded.sensor_incidents.extend(result.incidents);
        acc.budget_chip_epochs += result.budget_slots;
    }
    Ok((make_report(config, &acc), degraded))
}

/// Runs a fleet with checkpointing: resumes from `path` when a matching
/// snapshot exists, folds `every_shards` shards between checkpoint
/// writes, and leaves the final snapshot on disk next to the report.
/// Writes go through the default [`CheckpointMode::Async`] writer
/// thread; [`run_fleet_checkpointed_with`] picks the mode explicitly.
///
/// # Errors
///
/// Propagates config validation, checkpoint I/O, and any
/// corruption/mismatch in an existing snapshot (a checkpoint for a
/// *different* config is an error, not a silent restart).
pub fn run_fleet_checkpointed(
    config: &FleetConfig,
    path: &Path,
    every_shards: u64,
) -> Result<FleetReport, FleetError> {
    run_fleet_checkpointed_with(config, path, every_shards, CheckpointMode::default())
}

/// [`run_fleet_checkpointed`] with an explicit [`CheckpointMode`]. The
/// two modes leave byte-identical disk state and reports; sync mode
/// exists as the baseline (and for the tests that prove that claim).
///
/// # Errors
///
/// As [`run_fleet_checkpointed`]; in async mode a writer-thread I/O
/// error surfaces at the next checkpoint boundary or at the final
/// drain.
pub fn run_fleet_checkpointed_with(
    config: &FleetConfig,
    path: &Path,
    every_shards: u64,
    mode: CheckpointMode,
) -> Result<FleetReport, FleetError> {
    // One clone total: the match arms move it, and only one arm runs.
    let config = config.clone();
    let mut run = match Snapshot::read_if_exists(path)? {
        Some(snapshot) => FleetRun::resume(config, snapshot)?,
        None => FleetRun::new(config)?,
    };
    let store = CheckpointStore::new(path, 1);
    drive_fleet(
        &mut run,
        every_shards.max(1),
        None,
        Some((&store, mode)),
        |_| ControlFlow::Continue(()),
    )?;
    run.report()
}

/// Runs a fleet to completion under supervision: shard panics are
/// retried and quarantined, poisoned samples rejected, sensor faults
/// tolerated, and (with `checkpoints`) corrupt checkpoint generations
/// fallen back over — the run finishes and tells you what it survived
/// instead of aborting.
///
/// `checkpoints` is the generation store plus the shard stride between
/// writes; resuming picks the newest generation that validates and
/// records every skipped one in the degraded report. `plan` injects
/// deterministic faults (pass `None` for plain supervised execution —
/// the report is then bit-identical to [`run_fleet`]).
///
/// # Errors
///
/// Config validation, checkpoint I/O (injected *corruption* is
/// tolerated; an unwritable disk is not), and a valid checkpoint for a
/// different config ([`FleetError::ConfigMismatch`] — never silently
/// restarted).
pub fn run_fleet_supervised(
    config: &FleetConfig,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    checkpoints: Option<(&CheckpointStore, u64)>,
) -> Result<(FleetReport, DegradedReport), FleetError> {
    run_fleet_supervised_with(config, plan, retry, checkpoints, CheckpointMode::default())
}

/// [`run_fleet_supervised`] with an explicit [`CheckpointMode`]. Both
/// modes drive [`CheckpointStore::write_injected_with`] through the same
/// write-index sequence, so injected checkpoint corruption (and the
/// multi-generation fallback it exercises) behaves identically; sync
/// mode is the baseline the byte-identity tests compare against.
///
/// # Errors
///
/// As [`run_fleet_supervised`].
pub fn run_fleet_supervised_with(
    config: &FleetConfig,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    checkpoints: Option<(&CheckpointStore, u64)>,
    mode: CheckpointMode,
) -> Result<(FleetReport, DegradedReport), FleetError> {
    // One clone total: the match arms move it, and only one arm runs.
    let config = config.clone();
    let mut run = match checkpoints {
        Some((store, _)) => FleetRun::resume_from_store(config, store)?,
        None => FleetRun::new(config)?,
    };
    let units = checkpoints.map_or(u64::MAX, |(_, every)| every.max(1));
    drive_fleet(
        &mut run,
        units,
        Some(Supervision { plan, retry }),
        checkpoints.map(|(store, _)| (store, mode)),
        |_| ControlFlow::Continue(()),
    )?;
    let report = run.report()?;
    Ok((report, run.degraded))
}

/// Drives `run` through [`dh_exec::drive`] in steps of `units` shards —
/// supervised when `supervision` is given, strict otherwise — with a
/// snapshot written after every step through `checkpoints` in the chosen
/// [`CheckpointMode`] (the supervision's fault plan also injects into
/// those writes), and `on_step` called after each step and its write.
///
/// This is the loop the library runners and the `dh-serve` daemon share,
/// so a run leaves the same generations on disk whichever surface drove
/// it. Both modes feed the same write-index sequence to the same
/// rotate-then-atomic-write path and fold the writers' disk incidents
/// into the degraded report only after the final write.
///
/// # Errors
///
/// A strict step's error or a genuine checkpoint I/O failure.
pub fn drive_fleet(
    run: &mut FleetRun,
    units: u64,
    supervision: Option<Supervision<'_>>,
    checkpoints: Option<(&CheckpointStore, CheckpointMode)>,
    on_step: impl FnMut(&FleetRun) -> ControlFlow<()>,
) -> Result<Driven, FleetError> {
    let plan = supervision.and_then(|s| s.plan);
    let mut sync;
    let mut background;
    let sink: Option<&mut dyn CheckpointSink<Snapshot, FleetError>> = match checkpoints {
        None => None,
        Some((store, CheckpointMode::Sync)) => {
            sync = SyncWriter {
                store,
                plan,
                scratch: Vec::new(),
            };
            Some(&mut sync)
        }
        Some((store, CheckpointMode::Async)) => {
            background = AsyncCheckpointer::spawn(store.clone(), plan.cloned());
            Some(&mut background)
        }
    };
    dh_exec::drive(run, units, supervision, sink.map(|s| (s, 1)), on_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: FleetPolicy) -> FleetConfig {
        FleetConfig {
            devices: 96,
            years: 0.4,
            shard_size: 32,
            group_size: 16,
            policies: vec![policy],
            budget: MaintenanceBudget { slots_per_group: 2 },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn reports_are_invariant_to_shard_size() {
        let one = FleetConfig {
            shard_size: 96,
            ..tiny(FleetPolicy::WorstFirst)
        };
        let many = FleetConfig {
            shard_size: 16,
            ..tiny(FleetPolicy::WorstFirst)
        };
        let a = run_fleet(&one).unwrap();
        let b = run_fleet(&many).unwrap();
        // shard_size is in the config fingerprint but must not touch the
        // physics: the reports agree bit for bit. (The fingerprint hashes
        // raw bit patterns, so it also covers the NaN quantiles of an
        // empty TTF distribution, which derived `==` would reject.)
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn healing_policies_beat_no_budget() {
        let mut none = tiny(FleetPolicy::WorstFirst);
        none.budget = MaintenanceBudget { slots_per_group: 0 };
        let unhealed = run_fleet(&none).unwrap();
        let healed = run_fleet(&tiny(FleetPolicy::WorstFirst)).unwrap();
        assert!(
            healed.guardband.mean < unhealed.guardband.mean,
            "healed {} vs unhealed {}",
            healed.guardband.mean,
            unhealed.guardband.mean
        );
        assert_eq!(unhealed.healed_chip_epochs, 0);
        assert!(healed.healed_chip_epochs > 0);
    }

    #[test]
    fn worst_first_spends_its_budget_no_worse_than_static() {
        let wf = run_fleet(&tiny(FleetPolicy::WorstFirst)).unwrap();
        let st = run_fleet(&tiny(FleetPolicy::Static)).unwrap();
        // Static heals the same 2 chips of every 16 forever; worst-first
        // aims its slots at whichever chip is currently worst, so the
        // fleet's worst-case guardband (tracked exactly, not estimated)
        // cannot be worse.
        assert!(
            wf.guardband.max <= st.guardband.max + 1e-12,
            "worst-first max {} vs static {}",
            wf.guardband.max,
            st.guardband.max
        );
    }

    #[test]
    fn policy_mix_assigns_groups_round_robin_and_fingerprints_differ() {
        let mixed = FleetConfig {
            policies: vec![FleetPolicy::WorstFirst, FleetPolicy::Static],
            ..tiny(FleetPolicy::WorstFirst)
        };
        let report = run_fleet(&mixed).unwrap();
        assert_eq!(report.devices, 96);
        assert_ne!(
            mixed.fingerprint(),
            tiny(FleetPolicy::WorstFirst).fingerprint()
        );
    }

    #[test]
    fn stepping_pattern_does_not_change_the_report() {
        let config = tiny(FleetPolicy::RoundRobin);
        let whole = run_fleet(&config).unwrap();
        let mut run = FleetRun::new(config).unwrap();
        while !run.step(1).unwrap() {}
        let stepped = run.report().unwrap();
        assert_eq!(whole.fingerprint(), stepped.fingerprint());
        assert_eq!(whole.render(), stepped.render());
    }

    #[test]
    fn supervised_without_faults_is_bit_identical_to_strict() {
        let config = tiny(FleetPolicy::WorstFirst);
        let strict = run_fleet(&config).unwrap();
        let (supervised, degraded) =
            run_fleet_supervised(&config, None, &RetryPolicy::immediate(3), None).unwrap();
        assert_eq!(strict.fingerprint(), supervised.fingerprint());
        assert!(!degraded.is_degraded(), "{}", degraded.render());
        // A noop plan must also stay on the identical path.
        let plan = FaultPlan::parse("", 9).unwrap();
        let (noop, _) =
            run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(3), None).unwrap();
        assert_eq!(strict.fingerprint(), noop.fingerprint());
    }

    #[test]
    fn killed_shards_are_quarantined_and_the_run_completes() {
        let config = tiny(FleetPolicy::WorstFirst);
        let plan = FaultPlan::parse("kill-shard=1", 11).unwrap();
        let (report, degraded) =
            run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(2), None).unwrap();
        assert_eq!(degraded.quarantined.len(), 1);
        assert_eq!(degraded.quarantined[0].shard, 1);
        assert_eq!(degraded.quarantined[0].attempts, 2);
        assert!(degraded.quarantined[0].error.contains("injected fault"));
        assert_eq!(degraded.retries, 1, "one re-execution before quarantine");
        // The other two 32-chip shards still made it into the aggregate.
        assert_eq!(report.devices, 64);
        assert!(degraded.is_degraded());
    }

    #[test]
    fn poisoned_samples_are_rejected_not_folded() {
        let config = tiny(FleetPolicy::WorstFirst);
        let clean = run_fleet(&config).unwrap();
        let plan = FaultPlan::parse("poison-chip=40", 13).unwrap();
        let (report, degraded) =
            run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(2), None).unwrap();
        assert_eq!(degraded.rejected_samples, 1);
        assert_eq!(report.devices, clean.devices - 1);
        assert!(
            report.guardband.mean.is_finite(),
            "the NaN never reached the aggregates"
        );
    }

    #[test]
    fn stuck_sensors_are_flagged_and_reported() {
        let config = tiny(FleetPolicy::WorstFirst);
        let plan = FaultPlan::parse("stuck-chip=5", 17).unwrap();
        let (report, degraded) =
            run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(2), None).unwrap();
        assert_eq!(report.devices, 96, "no samples lost to a bad sensor");
        let incident = degraded
            .sensor_incidents
            .iter()
            .find(|i| i.chip == 5)
            .expect("chip 5's sensor was flagged");
        assert_eq!(incident.kind, SensorFaultKind::Stuck);
        // Epoch 0 primes the comparator; the four bit-identical repeats
        // that fill the staleness window land on epochs 1..=4.
        assert_eq!(
            incident.epoch,
            u64::from(crate::chip::SENSOR_STALE_EPOCHS),
            "flagged as soon as the staleness window filled"
        );
    }

    #[test]
    fn poisoned_slab_pool_recovers_and_the_run_completes() {
        let config = tiny(FleetPolicy::WorstFirst);
        let clean = run_fleet(&config).unwrap();
        let mut run = FleetRun::new(config).unwrap();
        assert!(!run.step_supervised(1, None, &RetryPolicy::immediate(2)));
        // Poison the pool the way a worker dying mid-recycle would:
        // panic on another thread while holding the guard. (Injected
        // `shard_panics` faults fire before the pool is locked, so this
        // is the only way to actually poison it.)
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = run.pool.lock().unwrap();
                panic!("injected: worker died holding the slab pool");
            })
            .join()
        });
        assert!(result.is_err(), "the poisoning thread must have panicked");
        assert!(run.pool.lock().is_err(), "the pool mutex is poisoned");
        // Surviving workers recover the guard and finish the run — in
        // both the supervised and the strict stepping path.
        while !run.step_supervised(1, None, &RetryPolicy::immediate(2)) {}
        let supervised = run.report().unwrap();
        assert_eq!(supervised.fingerprint(), clean.fingerprint());
        assert!(!run.degraded().is_degraded());

        let mut strict = FleetRun::new(tiny(FleetPolicy::WorstFirst)).unwrap();
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = strict.pool.lock().unwrap();
                panic!("injected: worker died holding the slab pool");
            })
            .join()
        });
        assert!(strict.pool.lock().is_err());
        while !strict.step(1).unwrap() {}
        assert_eq!(strict.report().unwrap().fingerprint(), clean.fingerprint());
    }

    #[test]
    fn panicking_shard_under_injection_leaves_the_pool_usable() {
        // The chaos path end to end: one shard panics (and is retried
        // then quarantined), the remaining shards keep recycling slabs
        // through the pool and complete into a degraded report.
        let config = tiny(FleetPolicy::WorstFirst);
        let plan = FaultPlan::parse("kill-shard=1", 11).unwrap();
        let mut run = FleetRun::new(config).unwrap();
        while !run.step_supervised(1, Some(&plan), &RetryPolicy::immediate(2)) {}
        assert!(run.pool.lock().is_ok(), "pool must not be poisoned");
        let report = run.report().unwrap();
        assert_eq!(report.devices, 64, "the two surviving shards folded");
        assert!(run.degraded().is_degraded());
        assert_eq!(run.degraded().quarantined.len(), 1);
    }

    #[test]
    fn non_finite_corner_parameters_are_rejected_at_the_boundary() {
        let assert_rejects = |mutate: &dyn Fn(&mut FleetConfig), needle: &str| {
            let mut c = FleetConfig::default();
            mutate(&mut c);
            match c.validate() {
                Err(FleetError::InvalidConfig(why)) => assert!(
                    why.contains(needle),
                    "error {why:?} does not name {needle:?}"
                ),
                other => panic!("expected InvalidConfig({needle}), got {other:?}"),
            }
        };
        assert_rejects(&|c| c.vdd = Volts::new(f64::NAN), "vdd");
        assert_rejects(
            &|c| c.recovery_bias = Volts::new(f64::NEG_INFINITY),
            "recovery_bias",
        );
        assert_rejects(
            &|c| c.base_temperature = Kelvin::new(f64::INFINITY),
            "base_temperature",
        );
        assert_rejects(
            &|c| c.base_temperature = Kelvin::new(-4.0),
            "base_temperature",
        );
        assert_rejects(
            &|c| c.j_local = CurrentDensity::from_ma_per_cm2(f64::NAN),
            "j_local",
        );
        assert_rejects(&|c| c.years = f64::INFINITY, "years");
        assert_rejects(&|c| c.fail_guardband = f64::INFINITY, "fail_guardband");
        assert_rejects(
            &|c| c.variation.process_sigma = f64::NAN,
            "variation.process_sigma",
        );
        assert_rejects(
            &|c| c.variation.utilization_sigma = -0.1,
            "variation.utilization_sigma",
        );
        // And the entry points refuse to run such a config.
        let c = FleetConfig {
            vdd: Volts::new(f64::NAN),
            ..FleetConfig::default()
        };
        assert!(matches!(run_fleet(&c), Err(FleetError::InvalidConfig(_))));
        assert!(FleetRun::new(c).is_err());
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let c = FleetConfig {
            shard_size: 100, // not a multiple of group_size 64
            ..FleetConfig::default()
        };
        assert!(matches!(run_fleet(&c), Err(FleetError::InvalidConfig(_))));
        let c = FleetConfig {
            devices: 0,
            ..FleetConfig::default()
        };
        assert!(FleetRun::new(c).is_err());
        let c = FleetConfig {
            policies: Vec::new(),
            ..FleetConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn report_before_completion_is_refused() {
        let run = FleetRun::new(tiny(FleetPolicy::Static)).unwrap();
        assert!(matches!(
            run.report(),
            Err(FleetError::NotFinished { done: 0, .. })
        ));
    }
}
