//! Random-variate generators used by the synthetic VoD workload.
//!
//! Implemented from `rand` primitives via inverse transform rather than
//! pulling in `rand_distr`: bounded Pareto (peer upload capacities,
//! `[180 kbps, 10 Mbps]`, shape `k = 3`) and Zipf (channel popularity).
//! The exponential inter-arrival gaps of the thinned arrival process are
//! drawn inline by [`crate::trace`].

use rand::RngExt;

use crate::error::{invalid_param, WorkloadError};

/// Pareto distribution truncated to `[min, max]`, sampled by inverse
/// transform of the truncated CDF.
///
/// The paper draws peer upload capacities from a bounded Pareto on
/// `[180 kbps, 10 Mbps]` with shape `k = 3`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    min: f64,
    max: f64,
    shape: f64,
    /// `min^shape`, precomputed — `sample` sits on the trace-generation
    /// hot path and these powers are constants of the distribution.
    pow_min: f64,
    /// `max^shape`, precomputed.
    pow_max: f64,
    /// `-1 / shape`, precomputed.
    neg_inv_shape: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < min < max` and `shape > 0`.
    pub fn new(min: f64, max: f64, shape: f64) -> Result<Self, WorkloadError> {
        if !(min.is_finite() && min > 0.0) {
            return Err(invalid_param(
                "min",
                format!("must be finite and positive, got {min}"),
            ));
        }
        if !(max.is_finite() && max > min) {
            return Err(invalid_param(
                "max",
                format!("must be finite and exceed min={min}, got {max}"),
            ));
        }
        if !(shape.is_finite() && shape > 0.0) {
            return Err(invalid_param(
                "shape",
                format!("must be finite and positive, got {shape}"),
            ));
        }
        Ok(Self {
            min,
            max,
            shape,
            pow_min: min.powf(shape),
            pow_max: max.powf(shape),
            neg_inv_shape: -1.0 / shape,
        })
    }

    /// Lower bound `L`.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound `H`.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Mean of the truncated distribution (closed form).
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (self.min, self.max, self.shape);
        if (a - 1.0).abs() < 1e-12 {
            // alpha = 1 special case: E = ln(h/l) * l*h/(h-l)
            let la = l;
            return la * h / (h - l) * (h / l).ln();
        }

        l.powf(a) / (1.0 - (l / h).powf(a)) * a / (a - 1.0)
            * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
    }

    /// Draws one sample by inverting the truncated CDF:
    /// `x = ( -(u·(H^a − L^a) − H^a) / (L^a H^a) )^(−1/a) · L H` form,
    /// simplified below.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let (l, h) = (self.min, self.max);
        let (la, ha) = (self.pow_min, self.pow_max);
        // F(x) = (1 - (L/x)^a) / (1 - (L/H)^a); invert for x.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(self.neg_inv_shape);
        x.clamp(l, h)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = i) ∝ 1 / (i + 1)^s`.
///
/// Used for channel popularity across the paper's 20 channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities, last entry == 1.
    cdf: Vec<f64>,
    /// Normalized probabilities per rank.
    probs: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, exponent: f64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(invalid_param("n", "must be positive"));
        }
        if !(exponent.is_finite() && exponent >= 0.0) {
            return Err(invalid_param(
                "exponent",
                format!("must be finite and non-negative, got {exponent}"),
            ));
        }
        let mut probs: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("n > 0") = 1.0;
        Ok(Self {
            cdf,
            probs,
            exponent,
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True if the distribution has no ranks (never constructible).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of the given rank.
    pub fn prob(&self, rank: usize) -> f64 {
        self.probs[rank]
    }

    /// Draws one rank by binary search on the CDF.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.len() - 1),
            Err(i) => i.min(self.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn sample_mean(mut f: impl FnMut(&mut StdRng) -> f64, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| f(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn pareto_samples_within_bounds() {
        // Paper parameters: [180 kbps, 10 Mbps], shape 3.
        let d = BoundedPareto::new(180e3, 10e6, 3.0).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((180e3..=10e6).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn pareto_sample_mean_matches_closed_form() {
        let d = BoundedPareto::new(1.0, 100.0, 3.0).unwrap();
        let m = sample_mean(|r| d.sample(r), 200_000);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.02,
            "sample mean {m} vs closed form {}",
            d.mean()
        );
    }

    #[test]
    fn pareto_mass_concentrates_near_min() {
        let d = BoundedPareto::new(1.0, 1000.0, 3.0).unwrap();
        let mut r = rng();
        let below2 = (0..50_000).filter(|_| d.sample(&mut r) < 2.0).count();
        // P(X < 2) = 1 - (1/2)^3 = 0.875 (truncation correction tiny).
        let frac = below2 as f64 / 50_000.0;
        assert!((frac - 0.875).abs() < 0.01, "fraction below 2: {frac}");
    }

    #[test]
    fn pareto_rejects_bad_parameters() {
        assert!(BoundedPareto::new(0.0, 1.0, 3.0).is_err());
        assert!(BoundedPareto::new(2.0, 1.0, 3.0).is_err());
        assert!(BoundedPareto::new(1.0, 2.0, 0.0).is_err());
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let z = Zipf::new(20, 0.8).unwrap();
        let total: f64 = (0..20).map(|i| z.prob(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for i in 1..20 {
            assert!(z.prob(i) <= z.prob(i - 1));
        }
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for i in 0..4 {
            assert!((z.prob(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_probabilities() {
        let z = Zipf::new(5, 1.0).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 5];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.prob(i)).abs() < 0.01,
                "rank {i}: empirical {emp} vs {p}",
                p = z.prob(i)
            );
        }
    }

    #[test]
    fn zipf_rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
    }
}
