//! Summary statistics the benchmark reports: medians, nearest-rank tail
//! percentiles, and the two-point cost fit behind the per-device and
//! per-device-epoch fleet rows.

/// Samples that must lie beyond a tail percentile before it is
/// reported; with fewer, the percentile is a single outlier's value.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean.
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`): the smallest
/// sample with at least `p`% of the samples at or below it.
///
/// # Errors
///
/// When fewer than [`MIN_SAMPLES_BEYOND`] samples lie above that rank,
/// so the figure would rest on a handful of jobs.
pub fn percentile_nearest_rank(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = xs.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_SAMPLES_BEYOND} are needed"
        ));
    }
    Ok(sorted(xs)[rank.max(1) - 1])
}

/// A linear cost model `t = devices · (per_device + per_device_epoch · epochs)`
/// fitted through two timed runs of the same population that differ
/// only in epoch count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFit {
    /// Fixed cost per device, seconds (sampling, fold).
    pub per_device_s: f64,
    /// Marginal cost per device-epoch, seconds (the epoch kernel).
    pub per_device_epoch_s: f64,
}

/// Fits [`CostFit`] through `(epochs, seconds)` points `a` and `b`.
///
/// # Panics
///
/// When the two points share an epoch count or `devices` is zero.
pub fn two_point_fit(devices: u64, a: (u64, f64), b: (u64, f64)) -> CostFit {
    assert!(devices > 0 && a.0 != b.0, "degenerate two-point fit");
    let d = devices as f64;
    let per_device_epoch_s = (a.1 - b.1) / (d * (a.0 as f64 - b.0 as f64));
    let per_device_s = b.1 / d - per_device_epoch_s * b.0 as f64;
    CostFit {
        per_device_s,
        per_device_epoch_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[61.0, 80.0, 80.0, 99.0]), 80.0);
        assert_eq!(mean(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&xs, 99.0), Ok(990.0));
        assert_eq!(percentile_nearest_rank(&xs, 50.0), Ok(500.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&xs, 75.0), Ok(30.0));
    }

    #[test]
    fn nearest_rank_refuses_a_tail_without_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1009).map(f64::from).collect();
        // rank ceil(0.99 * 1009) = 999 leaves exactly 10 beyond.
        assert_eq!(percentile_nearest_rank(&xs, 99.0), Ok(999.0));
        // 999 samples: rank 990 leaves 9 beyond.
        assert!(percentile_nearest_rank(&xs[..999], 99.0).is_err());
        assert!(percentile_nearest_rank(&[], 50.0).is_err());
        assert!(percentile_nearest_rank(&xs[..19], 50.0).is_err());
        assert!(percentile_nearest_rank(&xs[..20], 50.0).is_ok());
    }

    #[test]
    fn two_point_fit_recovers_a_linear_model() {
        let (per_device, per_device_epoch) = (0.28e-6, 0.19e-6);
        let t = |devices: u64, epochs: u64| {
            devices as f64 * (per_device + per_device_epoch * epochs as f64)
        };
        let devices = 1_000_000;
        let fit = two_point_fit(devices, (6, t(devices, 6)), (1, t(devices, 1)));
        assert!((fit.per_device_s - per_device).abs() < 1e-15);
        assert!((fit.per_device_epoch_s - per_device_epoch).abs() < 1e-15);
        // Point order does not matter.
        let swapped = two_point_fit(devices, (1, t(devices, 1)), (6, t(devices, 6)));
        assert!((swapped.per_device_s - fit.per_device_s).abs() < 1e-15);
    }
}
