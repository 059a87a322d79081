//! Seeded input generation. Every input the workloads feed the program
//! (fleet seed, scenario packs, the daemon's job order and job seeds)
//! derives from the one `--seed` argument through [`derive`], so one
//! seed always gives the same inputs and two seeds give the same
//! workload shape with different contents.

use dh_fleet::{FleetConfig, FleetPolicy};

/// The seed kept out of every tuning run; a later performance claim is
/// checked on it as well as on the seeds it was developed with.
pub const HELD_OUT_SEED: u64 = 7_919_001;

/// Pack seeds travel as JSON numbers, which are exact only below 2^53.
const JSON_SAFE: u64 = (1 << 53) - 1;

/// SplitMix64: a tiny, well-mixed generator for input derivation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to three decimals so packs stay
    /// readable.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1000.0).round() / 1000.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent stream for one named input.
pub fn derive(seed: u64, label: &str, index: u64) -> Rng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = Rng::new(seed ^ h ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64();
    rng
}

/// Workload sizes: `Full` is the benchmark; `Tiny` is the smoke mode
/// that checks every metric is emitted without the full cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The shape of every workload at one [`Size`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub fleet_devices: u64,
    pub scenario_group_elements: u64,
    pub scenario_epochs: u64,
    pub scenario_shard: u64,
    pub serve_fleet_devices: u64,
    pub serve_fleet_shard: u64,
    pub serve_pack_elements: u64,
    pub serve_pack_epochs: u64,
}

impl Size {
    pub fn shape(self) -> Shape {
        match self {
            Size::Full => Shape {
                fleet_devices: 1_000_000,
                scenario_group_elements: 131_072,
                scenario_epochs: 96,
                scenario_shard: 4096,
                serve_fleet_devices: 2048,
                serve_fleet_shard: 256,
                serve_pack_elements: 1024,
                serve_pack_epochs: 24,
            },
            Size::Tiny => Shape {
                fleet_devices: 8192,
                scenario_group_elements: 2048,
                scenario_epochs: 16,
                scenario_shard: 512,
                serve_fleet_devices: 256,
                serve_fleet_shard: 64,
                serve_pack_elements: 64,
                serve_pack_epochs: 4,
            },
        }
    }
}

/// 0.1 years of weekly epochs: six epochs.
const FLEET_YEARS: f64 = 0.1;

fn fleet_base(seed: u64, devices: u64) -> FleetConfig {
    FleetConfig {
        devices,
        seed,
        years: FLEET_YEARS,
        policies: vec![
            FleetPolicy::WorstFirst,
            FleetPolicy::RoundRobin,
            FleetPolicy::Static,
        ],
        ..FleetConfig::default()
    }
}

/// The `fleet_population` config, sharded for `workers` threads.
pub fn fleet_config(seed: u64, size: Size, workers: usize) -> FleetConfig {
    let fleet_seed = derive(seed, "fleet", 0).next_u64();
    let mut config = fleet_base(fleet_seed, size.shape().fleet_devices);
    config.shard_size = config.auto_shard_size(workers);
    config
}

/// The `scenario_checkpointed` pack: one group per victim model.
pub fn scenario_pack_json(seed: u64, size: Size) -> String {
    let s = size.shape();
    pack_json(
        &mut derive(seed, "scenario", 0),
        "bench-scenario",
        s.scenario_group_elements,
        s.scenario_epochs,
        s.scenario_shard,
    )
}

/// Packs the daemon's scenario jobs draw from.
pub const SERVE_PACKS: u64 = 4;
/// Distinct fleet job seeds the daemon's fleet jobs draw from.
pub const SERVE_FLEET_SEEDS: u64 = 8;

/// The daemon's scenario pack `index`, registered as `bench-pack-{index}`.
pub fn serve_pack_json(seed: u64, size: Size, index: u64) -> String {
    let s = size.shape();
    pack_json(
        &mut derive(seed, "serve.pack", index),
        &format!("bench-pack-{index}"),
        s.serve_pack_elements,
        s.serve_pack_epochs,
        s.serve_pack_elements,
    )
}

/// The fleet config of the daemon's fleet job seed `index`.
pub fn serve_fleet_config(seed: u64, size: Size, index: u64) -> FleetConfig {
    let s = size.shape();
    let job_seed = derive(seed, "serve.fleet", index).next_u64() & JSON_SAFE;
    FleetConfig {
        shard_size: s.serve_fleet_shard,
        ..fleet_base(job_seed, s.serve_fleet_devices)
    }
}

fn pack_json(rng: &mut Rng, name: &str, elements: u64, epochs: u64, shard: u64) -> String {
    let pack_seed = rng.next_u64() & JSON_SAFE;
    let trace: Vec<String> = (0..12)
        .map(|_| format!("{}", rng.range(0.5, 0.95)))
        .collect();
    let mut group = |model: &str, extra: &str| {
        format!(
            "{{\"model\": \"{model}\", \"count\": {elements}, \"vdd_v\": {}, \
             \"temperature_c\": {}, \"variability\": {}{extra}}}",
            rng.range(0.85, 1.0),
            rng.range(65.0, 95.0),
            rng.range(0.06, 0.12),
        )
    };
    let sram = group(
        "sram-decoder",
        &format!(
            ", \"skew\": {}",
            derive(pack_seed, "skew", 0).range(1.0, 1.6)
        ),
    );
    let weights = group("weight-memory", "");
    let multiplier = group(
        "aged-multiplier",
        ", \"base_delay_ps\": 820.0, \"corners\": [\
         {\"name\": \"slow\", \"weight\": 0.2, \"delay_scale\": 1.15, \"rate_scale\": 1.3}, \
         {\"name\": \"typical\", \"weight\": 0.6, \"delay_scale\": 1.0, \"rate_scale\": 1.0}, \
         {\"name\": \"fast\", \"weight\": 0.2, \"delay_scale\": 0.9, \"rate_scale\": 0.8}]",
    );
    format!(
        "{{\"name\": \"{name}\", \"description\": \"benchmark pack\", \"seed\": {pack_seed}, \
         \"epochs\": {epochs}, \"epoch_hours\": 730.0, \"shard_size\": {shard}, \
         \"fail_threshold_mv\": 45.0, \"workload\": {{\"trace\": [{}]}}, \
         \"maintenance\": {{\"policy\": \"invert\", \"interval_epochs\": 8, \"recovery_bias_v\": 0.3}}, \
         \"blocks\": [{sram}, {weights}, {multiplier}]}}",
        trace.join(", "),
    )
}

/// The three kinds of daemon job, in equal shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobKind {
    Fleet,
    FleetCkpt,
    Scenario,
}

/// One daemon job: its kind and which seeded spec it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPick {
    pub kind: JobKind,
    pub index: u64,
}

/// Client `client`'s endless job order: each run of three jobs is a
/// seeded permutation of the three kinds, so the mix stays exactly one
/// third each however many jobs a window completes.
pub struct JobOrder {
    rng: Rng,
    block: Vec<JobKind>,
}

impl JobOrder {
    pub fn new(seed: u64, client: u64) -> Self {
        Self {
            rng: derive(seed, "serve.order", client),
            block: Vec::new(),
        }
    }
}

impl Iterator for JobOrder {
    type Item = JobPick;

    fn next(&mut self) -> Option<JobPick> {
        if self.block.is_empty() {
            self.block = vec![JobKind::Fleet, JobKind::FleetCkpt, JobKind::Scenario];
            for i in (1..3).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let kind = self.block.pop().expect("refilled above");
        let pool = match kind {
            JobKind::Scenario => SERVE_PACKS,
            JobKind::Fleet | JobKind::FleetCkpt => SERVE_FLEET_SEEDS,
        };
        Some(JobPick {
            kind,
            index: self.rng.below(pool),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_scenario::ScenarioPack;

    const TUNING_SEED: u64 = 1;

    fn fingerprints(seed: u64) -> (u64, u64, u64, Vec<JobPick>) {
        let fleet = fleet_config(seed, Size::Full, 2).fingerprint();
        let pack = ScenarioPack::load(&scenario_pack_json(seed, Size::Full)).unwrap();
        let serve = ScenarioPack::load(&serve_pack_json(seed, Size::Full, 0)).unwrap();
        let order = JobOrder::new(seed, 0).take(30).collect();
        (fleet, pack.fingerprint(), serve.fingerprint(), order)
    }

    #[test]
    fn the_held_out_seed_changes_contents_but_not_shape() {
        let (a, b) = (fingerprints(TUNING_SEED), fingerprints(HELD_OUT_SEED));
        assert_ne!(a.0, b.0, "fleet config fingerprints");
        assert_ne!(a.1, b.1, "scenario pack fingerprints");
        assert_ne!(a.2, b.2, "serve pack fingerprints");
        assert_ne!(a.3, b.3, "job orders");

        for seed in [TUNING_SEED, HELD_OUT_SEED] {
            let config = fleet_config(seed, Size::Full, 2);
            assert_eq!(
                (config.devices, config.total_epochs(), config.shard_count()),
                (1_000_000, 6, 16)
            );
            let pack = ScenarioPack::load(&scenario_pack_json(seed, Size::Full)).unwrap();
            assert_eq!((pack.total_elements(), pack.epochs), (3 * 131_072, 96));
            let kinds: Vec<JobKind> = JobOrder::new(seed, 0).take(300).map(|j| j.kind).collect();
            for kind in [JobKind::Fleet, JobKind::FleetCkpt, JobKind::Scenario] {
                assert_eq!(kinds.iter().filter(|&&k| k == kind).count(), 100);
            }
        }
    }

    #[test]
    fn one_seed_gives_the_same_inputs() {
        assert_eq!(fingerprints(42), fingerprints(42));
    }

    #[test]
    fn every_generated_pack_validates_at_both_sizes() {
        for size in [Size::Full, Size::Tiny] {
            ScenarioPack::load(&scenario_pack_json(3, size)).unwrap();
            for i in 0..SERVE_PACKS {
                ScenarioPack::load(&serve_pack_json(3, size, i)).unwrap();
            }
            for i in 0..SERVE_FLEET_SEEDS {
                serve_fleet_config(3, size, i).validate().unwrap();
            }
        }
    }
}
