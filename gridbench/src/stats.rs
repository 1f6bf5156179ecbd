//! Order statistics over raw samples. Every reported percentile is
//! computed here from the full sample vector — never from a bucketed
//! histogram — and travels with its sample count.

/// Percentile `q` (0..=100) of `samples` by linear interpolation between
/// closest ranks; `0.0` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = (q / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of a set of per-repeat values (used for `setup_s`).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean, `0.0` for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// p50/p99 of one sample set plus its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pctl {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Pctl {
    pub fn of(samples: &[f64]) -> Pctl {
        if samples.is_empty() {
            return Pctl::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Pctl {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 50.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
