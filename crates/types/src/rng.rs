//! Deterministic random sampling.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! seeded explicitly, so a whole experiment is reproducible from a
//! single `u64`. Gaussian sampling is implemented here with the polar
//! Box–Muller method because `rand_distr` is outside the allowed
//! dependency set.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// Seeded random number generator used across the workspace.
///
/// Backed by `SmallRng` (xoshiro256++): deterministic for a given seed,
/// cheap to fork, and `Clone` so particle filters can snapshot state.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// Cached second output of the polar Box–Muller transform.
    spare_gaussian: Option<f64>,
}

impl SimRng {
    /// Create a generator from an explicit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Derive an independent child generator; used to give each
    /// subsystem (sensor noise, network loss, particle filter, …) its
    /// own stream while keeping one top-level seed.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        // Mix the salt with fresh randomness so forks with different
        // salts are decorrelated even if called in a different order.
        let s = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        self.inner.random_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.random_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal sample (mean 0, std-dev 1) via polar Box–Muller.
    pub fn gaussian_std(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        loop {
            let u = self.uniform_range(-1.0, 1.0);
            let v = self.uniform_range(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_gaussian = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.gaussian_std()
    }

    /// Sample an index proportionally to non-negative `weights`.
    /// Returns `None` when all weights are zero (or the slice is empty).
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            target -= w;
            if target <= 0.0 {
                return Some(i);
            }
        }
        // Floating point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Low-variance (systematic) resampling: draws `n` indices from the
/// weight distribution using a single random offset, preserving
/// particle diversity better than independent draws. Standard tool in
/// Rao-Blackwellized particle filters (Thrun et al., *Probabilistic
/// Robotics*).
pub fn low_variance_resample(rng: &mut SimRng, weights: &[f64], n: usize) -> Vec<usize> {
    assert!(!weights.is_empty(), "cannot resample from empty weights");
    let total: f64 = weights.iter().copied().sum();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate weights: keep a uniform spread of the originals.
        return (0..n).map(|i| i % weights.len()).collect();
    }
    let step = total / n as f64;
    let mut r = rng.uniform() * step;
    let mut out = Vec::with_capacity(n);
    let mut cum = weights[0];
    let mut i = 0usize;
    for _ in 0..n {
        while r > cum && i + 1 < weights.len() {
            i += 1;
            cum += weights[i];
        }
        out.push(i);
        r += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut root = SimRng::seed_from_u64(42);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let matches = (0..64).filter(|_| c1.uniform() == c2.uniform()).count();
        assert!(matches < 4);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::seed_from_u64(5);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from_u64(6);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut rng = SimRng::seed_from_u64(7);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn low_variance_resample_counts_match_weights() {
        let mut rng = SimRng::seed_from_u64(8);
        let w = [1.0, 1.0, 2.0];
        let idx = low_variance_resample(&mut rng, &w, 4000);
        assert_eq!(idx.len(), 4000);
        let c2 = idx.iter().filter(|&&i| i == 2).count();
        assert!((c2 as f64 / 4000.0 - 0.5).abs() < 0.02);
        assert!(idx.iter().all(|&i| i < 3));
    }

    #[test]
    fn low_variance_resample_zero_weights_fallback() {
        let mut rng = SimRng::seed_from_u64(9);
        let idx = low_variance_resample(&mut rng, &[0.0, 0.0, 0.0], 6);
        assert_eq!(idx, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn index_in_bounds() {
        let mut rng = SimRng::seed_from_u64(10);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }
}
