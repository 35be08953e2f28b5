//! Skewed choice over `0..n`: a zipf-popular pick of documents or
//! keys for workload generators.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipf sampler over `0..n` via the precomputed cumulative
/// distribution — exact, and fast enough for workload generation.
/// Rank `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^theta`; `theta = 0` degenerates to uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for ranks `0..n` with skew `theta`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_and_in_range() {
        for n in [1usize, 7, 1000] {
            let zipf = Zipf::new(n, 1.1);
            let draw = |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..500).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
            };
            let a = draw(42);
            assert_eq!(a, draw(42));
            assert!(a.iter().all(|&k| k < n));
        }
    }

    #[test]
    fn zipf_skews_towards_first_ranks() {
        let counts = |theta| {
            let zipf = Zipf::new(8, theta);
            let mut rng = StdRng::seed_from_u64(3);
            let mut counts = [0usize; 8];
            for _ in 0..4_000 {
                counts[zipf.sample(&mut rng)] += 1;
            }
            counts
        };
        // The hottest rank must absorb clearly more draws than the
        // coldest one.
        let skewed = counts(1.2);
        assert!(skewed[0] > skewed[7] * 3, "counts {skewed:?}");
        // Uniform (theta 0) spreads roughly evenly.
        let uniform = counts(0.0);
        assert!(uniform.iter().all(|&c| c > 4_000 / 8 / 2), "{uniform:?}");
    }
}
