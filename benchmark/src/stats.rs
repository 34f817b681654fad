//! The estimators every reported number rests on.
//!
//! A run is split into rounds; an end-to-end value is the *median of its
//! per-round values* so one disturbed round (a descheduled client, a
//! page-cache flush on the host) cannot move it, and the per-round range
//! is kept beside it so `compare` can tell "unchanged" from "too noisy
//! to say".

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` percent of the samples at or below it.
/// `0.0` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending in place and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle samples for an even count); `0.0` for
/// an empty slice. Does not require sorted input.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A value estimated from several rounds: their median, with the
/// smallest and largest round beside it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Estimate {
    /// Median-of-rounds estimate; all zero when there are no rounds.
    #[must_use]
    pub fn of_rounds(rounds: &[f64]) -> Self {
        if rounds.is_empty() {
            return Self::default();
        }
        Self {
            value: median(rounds),
            min: rounds.iter().copied().fold(f64::INFINITY, f64::min),
            max: rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Two samples: the median by nearest rank is the lower one.
        assert_eq!(percentile(&[1.0, 9.0], 50.0), 1.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        let e = Estimate::of_rounds(&[100.0, 101.0, 99.0, 100.5, 400.0]);
        assert_eq!(e.value, 100.5);
        assert_eq!(e.min, 99.0);
        assert_eq!(e.max, 400.0);
    }

    #[test]
    fn median_handles_even_and_empty() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(Estimate::of_rounds(&[]), Estimate::default());
    }
}
