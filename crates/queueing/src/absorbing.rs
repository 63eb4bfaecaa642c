//! Absorbing Markov chain analysis on a substochastic transition matrix.
//!
//! A viewer's trajectory through a channel is a Markov chain on chunk
//! queues with transition matrix `P` and absorption (departure) probability
//! `1 - sum_j P_ij` per state. This module computes expected visit counts
//! (the fundamental matrix), hitting probabilities, and *hit-before*
//! probabilities — the ingredients of the path-based joint-ownership
//! estimator `Psi(pi_j, pi_k)` that the paper delegates to its technical
//! report.

use crate::error::{invalid_param, QueueingError};
use crate::jackson::RoutingMatrix;
use crate::linalg::{LuFactors, Matrix};

/// Analysis of an absorbing Markov chain defined by a substochastic
/// routing matrix.
#[derive(Debug, Clone)]
pub struct AbsorbingChain {
    routing: RoutingMatrix,
    /// Fundamental matrix `N = (I - P)^{-1}`; entry `(i, j)` is the
    /// expected number of visits to `j` starting from `i`.
    fundamental: Matrix,
}

impl AbsorbingChain {
    /// Builds the chain and its fundamental matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::SingularSystem`] if `I - P` is singular,
    /// i.e. some set of states never reaches absorption.
    pub fn new(routing: RoutingMatrix) -> Result<Self, QueueingError> {
        let n = routing.len();
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] -= routing.prob(i, j);
            }
        }
        let fundamental = a.inverse()?;
        Ok(Self {
            routing,
            fundamental,
        })
    }

    /// Number of transient states.
    pub fn len(&self) -> usize {
        self.routing.len()
    }

    /// True if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expected number of visits to state `j` for a trajectory started at
    /// state `i` (counting the initial state if `i == j`): entry `(i, j)`
    /// of the fundamental matrix that [`AbsorbingChain::visits_both`]
    /// runs on. `single_state_geometric_visits` and
    /// `tandem_visits_and_hitting` check that matrix through it, and
    /// `paper_viewing_revisit_factor` (`crates/core/src/channel.rs`) reads
    /// the paper channel's revisit factor from it.
    pub fn expected_visits(&self, from: usize, to: usize) -> f64 {
        self.fundamental[(from, to)]
    }

    /// Probability that a trajectory starting at `from` ever visits
    /// `target` (before absorption). By convention this is 1 when
    /// `from == target`.
    pub fn hitting_probability(&self, from: usize, target: usize) -> f64 {
        if from == target {
            return 1.0;
        }
        // h_i = N_{i,target} / N_{target,target} (standard identity).
        let denom = self.fundamental[(target, target)];
        if denom <= 0.0 {
            return 0.0;
        }
        (self.fundamental[(from, target)] / denom).clamp(0.0, 1.0)
    }

    /// Factors `I − P'`, where `P'` zeroes the rows of `a` and `b`: the
    /// matrix of both hit-before systems of the pair, which differ only
    /// in their right-hand side (`e_a` for "`a` before `b`", `e_b` for
    /// the converse).
    fn hit_before_lu(&self, a: usize, b: usize) -> Result<LuFactors, QueueingError> {
        let n = self.len();
        if a >= n || b >= n {
            return Err(invalid_param("state", format!("state out of range 0..{n}")));
        }
        if a == b {
            return Err(invalid_param("state", "first and second must differ"));
        }
        let mut m = Matrix::identity(n);
        for i in 0..n {
            if i == a || i == b {
                continue;
            }
            for j in 0..n {
                m[(i, j)] -= self.routing.prob(i, j);
            }
        }
        m.lu()
    }

    /// Probability that a trajectory drawn from `start` visits **both**
    /// states `j` and `k` before absorption.
    ///
    /// Decomposes by which of the two is hit first:
    /// `P(both) = P(hit j before k) * P(hit k from j) +
    ///  P(hit k before j) * P(hit j from k)`.
    ///
    /// # Errors
    ///
    /// Propagates linear-solve failures.
    ///
    /// # Panics
    ///
    /// Panics if `start.len() != self.len()`.
    pub fn visits_both(&self, start: &[f64], j: usize, k: usize) -> Result<f64, QueueingError> {
        assert_eq!(
            start.len(),
            self.len(),
            "start distribution length mismatch"
        );
        if j == k {
            // "Both" degenerates to visiting j at all.
            let p: f64 = start
                .iter()
                .enumerate()
                .map(|(i, &s)| s * self.hitting_probability(i, j))
                .sum();
            return Ok(p.clamp(0.0, 1.0));
        }
        // Both hit-before systems share one matrix: factor it once and
        // solve `e_j` and `e_k` in one sweep.
        let n = self.len();
        let lu = self.hit_before_lu(j, k)?;
        let mut first = vec![0.0; 2 * n];
        first[j] = 1.0;
        first[n + k] = 1.0;
        lu.solve_columns_into(&mut first, &mut Vec::new());
        first.iter_mut().for_each(|v| *v = v.clamp(0.0, 1.0));
        let (j_first, k_first) = first.split_at(n);
        let j_to_k = self.hitting_probability(j, k);
        let k_to_j = self.hitting_probability(k, j);
        let mut p = 0.0;
        for (i, &s) in start.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            p += s * (j_first[i] * j_to_k + k_first[i] * k_to_j);
        }
        Ok(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jackson::RoutingMatrix;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    fn chain(rows: &[Vec<f64>]) -> AbsorbingChain {
        AbsorbingChain::new(RoutingMatrix::from_rows(rows).unwrap()).unwrap()
    }

    #[test]
    fn single_state_geometric_visits() {
        // Self-loop with prob q: expected visits = 1/(1-q).
        let c = chain(&[vec![0.4]]);
        assert_close(c.expected_visits(0, 0), 1.0 / 0.6, 1e-12);
    }

    #[test]
    fn tandem_visits_and_hitting() {
        // 0 -> 1 w.p. 0.5, else absorb; 1 absorbs immediately.
        let c = chain(&[vec![0.0, 0.5], vec![0.0, 0.0]]);
        assert_close(c.expected_visits(0, 1), 0.5, 1e-12);
        assert_close(c.hitting_probability(0, 1), 0.5, 1e-12);
        assert_close(c.hitting_probability(1, 0), 0.0, 1e-12);
        assert_close(c.hitting_probability(0, 0), 1.0, 1e-12);
    }

    #[test]
    fn visits_both_sequential_chain() {
        // Deterministic sequence 0 -> 1 -> 2 with continue prob p each.
        let p = 0.8;
        let c = chain(&[vec![0.0, p, 0.0], vec![0.0, 0.0, p], vec![0.0, 0.0, 0.0]]);
        let start = vec![1.0, 0.0, 0.0];
        // Visiting both 1 and 2 requires surviving two hops: p^2.
        assert_close(c.visits_both(&start, 1, 2).unwrap(), p * p, 1e-12);
        // Visiting both 0 and 2: start at 0, so just reach 2: p^2.
        assert_close(c.visits_both(&start, 0, 2).unwrap(), p * p, 1e-12);
    }

    #[test]
    fn visits_both_is_symmetric() {
        let c = chain(&[
            vec![0.1, 0.4, 0.2],
            vec![0.3, 0.0, 0.3],
            vec![0.2, 0.2, 0.1],
        ]);
        let start = vec![0.5, 0.3, 0.2];
        let a = c.visits_both(&start, 0, 2).unwrap();
        let b = c.visits_both(&start, 2, 0).unwrap();
        assert_close(a, b, 1e-12);
    }

    #[test]
    fn visits_both_bounded_by_individual_hits() {
        let c = chain(&[
            vec![0.1, 0.4, 0.2],
            vec![0.3, 0.0, 0.3],
            vec![0.2, 0.2, 0.1],
        ]);
        let start = vec![1.0, 0.0, 0.0];
        let both = c.visits_both(&start, 1, 2).unwrap();
        let h1 = c.hitting_probability(0, 1);
        let h2 = c.hitting_probability(0, 2);
        assert!(both <= h1 + 1e-12);
        assert!(both <= h2 + 1e-12);
    }

    #[test]
    fn visits_both_same_state_is_hitting_probability() {
        let c = chain(&[vec![0.0, 0.5], vec![0.2, 0.0]]);
        let start = vec![1.0, 0.0];
        assert_close(
            c.visits_both(&start, 1, 1).unwrap(),
            c.hitting_probability(0, 1),
            1e-12,
        );
    }

    #[test]
    fn recurrent_chain_is_rejected() {
        // Period-2 deterministic cycle never absorbs.
        let r = RoutingMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(AbsorbingChain::new(r).is_err());
    }

    #[test]
    fn hit_before_rejects_bad_states() {
        let c = chain(&[vec![0.0, 0.5], vec![0.0, 0.0]]);
        assert!(c.visits_both(&[1.0, 0.0], 0, 5).is_err());
        assert!(c.visits_both(&[1.0, 0.0], 5, 0).is_err());
    }
}
