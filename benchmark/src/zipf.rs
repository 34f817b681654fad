//! Seeded Zipf draw over a fixed number of items.

use mscclang::rng::Splitmix64;

/// Zipf(`s`) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`. The table is the cumulative
/// distribution; a draw is one uniform variate and a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The next rank from `rng`'s stream.
    pub fn draw(&self, rng: &mut Splitmix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_other_seed_other_draws() {
        let z = Zipf::new(180, 1.0);
        let draws = |seed| {
            let mut rng = Splitmix64::new(seed);
            (0..500).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        assert!(draws(1).iter().all(|&k| k < 180));
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(180, 1.0);
        let mut rng = Splitmix64::new(9);
        let mut counts = [0usize; 180];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        // P(rank 0) = 1/H_180 ≈ 0.173; P(rank 1) is half of that.
        assert!((3000..4000).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        let head: usize = counts[..64].iter().sum();
        assert!(head > 15_000, "64 hottest keys carry ~82% of the draws");
    }
}
