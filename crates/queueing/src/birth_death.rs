//! Generic birth–death chains on a truncated state space.
//!
//! The test oracle for the closed-form M/M/m metrics that the capacity
//! analysis runs: an M/M/m queue is the birth–death chain with constant
//! birth rate `lambda` and death rate `min(k, m) * mu`, and its truncated
//! equilibrium converges to the infinite-buffer metrics as the truncation
//! grows. The tests `truncated_mmm_matches_closed_form_expected_n` and
//! `truncated_mmm_matches_state_probabilities` pin
//! [`MmmQueue`](crate::mmm::MmmQueue) against it.

use crate::error::{invalid_param, QueueingError};

/// A finite birth–death chain with states `0..=capacity`.
#[derive(Debug, Clone)]
pub struct BirthDeathChain {
    /// `birth[k]` is the rate from state `k` to `k + 1` (len = capacity).
    birth: Vec<f64>,
    /// `death[k]` is the rate from state `k + 1` to `k` (len = capacity).
    death: Vec<f64>,
}

impl BirthDeathChain {
    /// Creates a chain from per-transition birth and death rates.
    ///
    /// # Errors
    ///
    /// Returns an error if lengths differ, any rate is negative or
    /// non-finite, or any death rate is zero (which disconnects the chain).
    pub fn new(birth: Vec<f64>, death: Vec<f64>) -> Result<Self, QueueingError> {
        if birth.len() != death.len() {
            return Err(invalid_param(
                "death",
                format!("expected {} death rates, got {}", birth.len(), death.len()),
            ));
        }
        if birth.is_empty() {
            return Err(invalid_param(
                "birth",
                "chain must have at least one transition",
            ));
        }
        for &b in &birth {
            if !b.is_finite() || b < 0.0 {
                return Err(invalid_param("birth", format!("rate {b} invalid")));
            }
        }
        for &d in &death {
            if !d.is_finite() || d <= 0.0 {
                return Err(invalid_param("death", format!("rate {d} invalid")));
            }
        }
        Ok(Self { birth, death })
    }

    /// Builds the truncated M/M/m chain with buffer `capacity` states
    /// above zero.
    pub fn mmm(
        arrival_rate: f64,
        service_rate: f64,
        servers: usize,
        capacity: usize,
    ) -> Result<Self, QueueingError> {
        if capacity == 0 {
            return Err(invalid_param("capacity", "must be positive"));
        }
        let birth = vec![arrival_rate; capacity];
        let death = (1..=capacity)
            .map(|k| (k.min(servers)) as f64 * service_rate)
            .collect();
        Self::new(birth, death)
    }

    /// Number of states (`capacity + 1`).
    pub fn states(&self) -> usize {
        self.birth.len() + 1
    }

    /// Equilibrium distribution via detailed balance:
    /// `pi_{k+1} = pi_k * birth_k / death_k`, normalized. Computed with a
    /// running maximum rescale so very long chains do not overflow.
    pub fn equilibrium(&self) -> Vec<f64> {
        let n = self.states();
        let mut pi = vec![0.0; n];
        pi[0] = 1.0;
        let mut scale = 1.0;
        for k in 0..n - 1 {
            pi[k + 1] = pi[k] * self.birth[k] / self.death[k];
            if pi[k + 1] > 1e300 {
                let f = pi[k + 1];
                for p in pi.iter_mut().take(k + 2) {
                    *p /= f;
                }
                scale /= f;
            }
        }
        let _ = scale;
        let total: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= total;
        }
        pi
    }

    /// Expected state value under the equilibrium distribution; the
    /// reference for [`MmmQueue::expected_in_system`](crate::mmm::MmmQueue::expected_in_system)
    /// in `truncated_mmm_matches_closed_form_expected_n`.
    pub fn expected_state(&self) -> f64 {
        self.equilibrium()
            .iter()
            .enumerate()
            .map(|(k, p)| k as f64 * p)
            .sum()
    }

    /// Probability mass at the truncation boundary; a proxy for truncation
    /// error when approximating an infinite chain.
    /// `truncated_mmm_matches_closed_form_expected_n` checks it before it
    /// trusts [`BirthDeathChain::expected_state`].
    pub fn boundary_mass(&self) -> f64 {
        *self
            .equilibrium()
            .last()
            .expect("chain has at least two states")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmm::MmmQueue;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn equilibrium_sums_to_one() {
        let c = BirthDeathChain::new(vec![1.0, 2.0, 0.5], vec![1.0, 1.0, 3.0]).unwrap();
        let pi = c.equilibrium();
        assert_close(pi.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn truncated_mm1_matches_geometric() {
        let c = BirthDeathChain::mmm(0.5, 1.0, 1, 200).unwrap();
        let pi = c.equilibrium();
        for (k, &p) in pi.iter().enumerate().take(10) {
            assert_close(p, 0.5 * 0.5f64.powi(k as i32), 1e-9);
        }
    }

    #[test]
    fn truncated_mmm_matches_closed_form_expected_n() {
        for &(lambda, mu, m) in &[(3.0, 1.0, 5usize), (0.9, 1.0, 1), (20.0, 2.5, 12)] {
            let q = MmmQueue::new(lambda, mu, m).unwrap();
            let chain = BirthDeathChain::mmm(lambda, mu, m, 4000).unwrap();
            assert!(chain.boundary_mass() < 1e-12, "truncation too small");
            assert_close(chain.expected_state(), q.expected_in_system(), 1e-6);
        }
    }

    #[test]
    fn truncated_mmm_matches_state_probabilities() {
        let q = MmmQueue::new(4.0, 1.0, 6).unwrap();
        let chain = BirthDeathChain::mmm(4.0, 1.0, 6, 2000).unwrap();
        let pi = chain.equilibrium();
        for (k, &p) in pi.iter().enumerate().take(30) {
            assert_close(p, q.state_probability(k), 1e-9);
        }
    }

    #[test]
    fn rejects_mismatched_lengths() {
        assert!(BirthDeathChain::new(vec![1.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_zero_death_rate() {
        assert!(BirthDeathChain::new(vec![1.0], vec![0.0]).is_err());
    }

    #[test]
    fn heavy_chain_does_not_overflow() {
        // Growth-dominant prefix would overflow naive products.
        let c = BirthDeathChain::mmm(500.0, 1.0, 600, 5000).unwrap();
        let pi = c.equilibrium();
        assert!(pi.iter().all(|p| p.is_finite()));
        assert_close(pi.iter().sum::<f64>(), 1.0, 1e-9);
    }
}
