//! Wire-population statistics: Monte-Carlo TTF distributions from the
//! physics simulator.
//!
//! Black's equation (see [`crate::black`]) *assumes* a log-normal TTF
//! population. This module derives the population from the PDE model
//! instead: process variation is sampled as log-normal perturbations of
//! the diffusivity prefactor and critical stress, each sampled wire is
//! simulated to hard failure, and the resulting TTF set is summarised.
//! A consistency test (and the `lifetime_sim` bench) checks that the
//! fitted log-sigma is in the range the Black model uses — tying the
//! closed-form fleet statistics back to the physics.

use rand::rngs::StdRng;

use dh_units::{CurrentDensity, Pascals, Seconds};

use crate::error::EmError;
use crate::material::EmMaterial;
use crate::sim::EmWire;
use crate::wire::WireGeometry;

/// Process-variation magnitudes for the sampled population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// 1-sigma of ln(D₀): grain-structure / interface-quality variation.
    pub sigma_ln_d0: f64,
    /// 1-sigma of ln(σ_crit): liner-adhesion / flaw-size variation.
    pub sigma_ln_crit: f64,
}

impl Default for VariationModel {
    fn default() -> Self {
        // Together these produce ≈0.3 of ln-TTF spread — the classic EM
        // log-normal sigma used by the Black model.
        Self {
            sigma_ln_d0: 0.18,
            sigma_ln_crit: 0.12,
        }
    }
}

/// Summary of a simulated TTF population.
#[derive(Debug, Clone, PartialEq)]
pub struct TtfPopulation {
    /// Individual times to failure, sorted ascending.
    pub ttfs: Vec<Seconds>,
    /// Wires that survived the simulation horizon (censored).
    pub censored: usize,
}

impl TtfPopulation {
    /// Median TTF (of the failed wires): the middle element for odd
    /// sample counts, the midpoint of the two middle elements for even
    /// counts.
    ///
    /// # Errors
    ///
    /// [`EmError::EmptyPopulation`] if nothing failed.
    pub fn median(&self) -> Result<Seconds, EmError> {
        let n = self.ttfs.len();
        if n == 0 {
            return Err(EmError::EmptyPopulation);
        }
        if n % 2 == 1 {
            Ok(self.ttfs[n / 2])
        } else {
            Ok(Seconds::new(
                0.5 * (self.ttfs[n / 2 - 1].value() + self.ttfs[n / 2].value()),
            ))
        }
    }

    /// Sample standard deviation of ln(TTF) (of the failed wires), using
    /// the unbiased n−1 (Bessel-corrected) variance estimator — the
    /// divide-by-n form systematically understates the spread of the
    /// small populations the repro binaries fit.
    ///
    /// # Errors
    ///
    /// [`EmError::EmptyPopulation`] if nothing failed,
    /// [`EmError::InsufficientSamples`] with a single failure (a spread
    /// cannot be estimated from one sample).
    pub fn ln_sigma(&self) -> Result<f64, EmError> {
        let n = self.ttfs.len();
        if n == 0 {
            return Err(EmError::EmptyPopulation);
        }
        if n < 2 {
            return Err(EmError::InsufficientSamples { got: n, need: 2 });
        }
        let logs: Vec<f64> = self.ttfs.iter().map(|t| t.value().ln()).collect();
        let mean = logs.iter().sum::<f64>() / n as f64;
        let var = logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / (n - 1) as f64;
        Ok(var.sqrt())
    }

    /// The `q`-quantile TTF of the failed wires (`q ∈ [0, 1]`).
    ///
    /// # Errors
    ///
    /// [`EmError::EmptyPopulation`] if nothing failed (the nearest-rank
    /// index `q · (len − 1)` would underflow).
    pub fn quantile(&self, q: f64) -> Result<Seconds, EmError> {
        if self.ttfs.is_empty() {
            return Err(EmError::EmptyPopulation);
        }
        let idx = ((q.clamp(0.0, 1.0)) * (self.ttfs.len() - 1) as f64).round() as usize;
        Ok(self.ttfs[idx])
    }
}

/// Samples `n` wires with process variation and simulates each to failure
/// under constant stress `j` (or to `horizon`, counting it as censored).
///
/// Uses a coarser mesh (61 nodes) than the single-wire studies: the TTF is
/// dominated by nucleation + growth timescales that the coarse mesh
/// resolves within a few percent, and the population needs throughput.
///
/// Wires simulate in parallel through [`dh_exec::par_map_seeded`]: wire
/// `i` draws its process variation from the `(seed, "em-population", i)`
/// stream, so the population is bit-identical at any thread count — and
/// a wire's sample no longer shifts when `n` changes below it.
pub fn simulate_population(
    n: usize,
    j: CurrentDensity,
    variation: VariationModel,
    horizon: Seconds,
    seed: u64,
) -> TtfPopulation {
    let _timer = dh_obs::span("em.population.sweep_seconds");
    dh_obs::counter!("em.population.sweeps").incr();
    dh_obs::counter!("em.population.wires_simulated").add(n as u64);
    let outcomes = dh_exec::par_map_seeded(seed, "em-population", n, |_, rng| {
        simulate_one_wire(j, variation, horizon, rng)
    });

    let mut ttfs = Vec::new();
    let mut censored = 0;
    for outcome in outcomes {
        match outcome {
            Some(ttf) => ttfs.push(ttf),
            None => censored += 1,
        }
    }
    ttfs.sort_by(|a, b| a.value().total_cmp(&b.value()));
    dh_obs::counter!("em.population.wires_failed").add(ttfs.len() as u64);
    dh_obs::counter!("em.population.wires_censored").add(censored as u64);
    TtfPopulation { ttfs, censored }
}

/// One sampled wire: `Some(ttf)` on failure, `None` if censored at the
/// horizon. The PDE stops sub-stepping at failure internally, so a single
/// `advance` over the whole horizon resolves the TTF at substep
/// resolution without the old outer 10-minute loop re-deriving the
/// transport coefficients dozens of times.
fn simulate_one_wire(
    j: CurrentDensity,
    variation: VariationModel,
    horizon: Seconds,
    mut rng: StdRng,
) -> Option<Seconds> {
    let mut material = EmMaterial::damascene_copper();
    material.d0_m2_per_s *= lognormal(&mut rng, variation.sigma_ln_d0);
    material.critical_stress = Pascals::new(
        material.critical_stress.value() * lognormal(&mut rng, variation.sigma_ln_crit),
    );
    let mut wire = EmWire::new(
        WireGeometry::paper(),
        material,
        dh_units::Celsius::new(230.0).to_kelvin(),
        61,
    )
    .expect("perturbed material stays valid");

    wire.advance(horizon, j);
    wire.is_failed().then(|| wire.time())
}

fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    (sigma * dh_units::rng::standard_normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: usize) -> TtfPopulation {
        simulate_population(
            n,
            CurrentDensity::from_ma_per_cm2(7.96),
            VariationModel::default(),
            Seconds::from_hours(48.0),
            17,
        )
    }

    #[test]
    fn every_wire_fails_under_accelerated_stress() {
        let pop = population(24);
        assert_eq!(pop.censored, 0, "48 h horizon must out-last all wires");
        assert_eq!(pop.ttfs.len(), 24);
    }

    #[test]
    fn median_is_near_the_nominal_wire() {
        let pop = population(24);
        let median = pop.median().unwrap().as_hours();
        // Nominal continuous-stress failure is ≈11.5 h.
        assert!((8.0..16.0).contains(&median), "median {median} h");
    }

    #[test]
    fn ln_sigma_matches_the_black_model_assumption() {
        let pop = population(40);
        let sigma = pop.ln_sigma().unwrap();
        assert!(
            (0.1..0.6).contains(&sigma),
            "physics-derived ln-sigma {sigma} should bracket Black's 0.3"
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        let pop = population(24);
        let q10 = pop.quantile(0.1).unwrap();
        let q50 = pop.quantile(0.5).unwrap();
        let q90 = pop.quantile(0.9).unwrap();
        assert!(q10 <= q50 && q50 <= q90);
        assert!(q90.value() > q10.value(), "population must actually spread");
    }

    #[test]
    fn zero_variation_collapses_the_spread() {
        let tight = simulate_population(
            8,
            CurrentDensity::from_ma_per_cm2(7.96),
            VariationModel {
                sigma_ln_d0: 0.0,
                sigma_ln_crit: 0.0,
            },
            Seconds::from_hours(48.0),
            3,
        );
        let sigma = tight.ln_sigma().unwrap();
        assert!(
            sigma < 0.02,
            "identical wires must fail together, sigma {sigma}"
        );
    }

    #[test]
    fn median_interpolates_even_length_samples() {
        let even = TtfPopulation {
            ttfs: vec![
                Seconds::new(2.0),
                Seconds::new(4.0),
                Seconds::new(10.0),
                Seconds::new(20.0),
            ],
            censored: 0,
        };
        assert_eq!(even.median().unwrap().value(), 7.0);
        let odd = TtfPopulation {
            ttfs: vec![Seconds::new(2.0), Seconds::new(4.0), Seconds::new(10.0)],
            censored: 0,
        };
        assert_eq!(odd.median().unwrap().value(), 4.0);
        let single = TtfPopulation {
            ttfs: vec![Seconds::new(3.0)],
            censored: 0,
        };
        assert_eq!(single.median().unwrap().value(), 3.0);
        let pair = TtfPopulation {
            ttfs: vec![Seconds::new(3.0), Seconds::new(5.0)],
            censored: 0,
        };
        assert_eq!(pair.median().unwrap().value(), 4.0);
    }

    #[test]
    fn empty_population_returns_typed_errors() {
        let pop = TtfPopulation {
            ttfs: vec![],
            censored: 5,
        };
        assert_eq!(pop.median(), Err(EmError::EmptyPopulation));
        assert_eq!(pop.ln_sigma(), Err(EmError::EmptyPopulation));
        assert_eq!(pop.quantile(0.5), Err(EmError::EmptyPopulation));
        assert_eq!(pop.quantile(0.0), Err(EmError::EmptyPopulation));
        assert_eq!(pop.quantile(1.0), Err(EmError::EmptyPopulation));
    }

    #[test]
    fn one_element_population_has_location_but_no_spread() {
        let pop = TtfPopulation {
            ttfs: vec![Seconds::new(9.0)],
            censored: 0,
        };
        assert_eq!(pop.median().unwrap().value(), 9.0);
        assert_eq!(pop.quantile(0.0).unwrap().value(), 9.0);
        assert_eq!(pop.quantile(1.0).unwrap().value(), 9.0);
        assert_eq!(
            pop.ln_sigma(),
            Err(EmError::InsufficientSamples { got: 1, need: 2 })
        );
    }

    #[test]
    fn ln_sigma_uses_the_sample_variance_estimator() {
        // ln-TTFs 0 and ln(e²) = 2: sample variance (n−1) is 2, so the
        // estimator must return √2 — the biased divide-by-n form would
        // give 1.
        let pop = TtfPopulation {
            ttfs: vec![Seconds::new(1.0), Seconds::new(std::f64::consts::E.powi(2))],
            censored: 0,
        };
        let sigma = pop.ln_sigma().unwrap();
        assert!(
            (sigma - std::f64::consts::SQRT_2).abs() < 1e-12,
            "expected √2, got {sigma}"
        );
    }
}
