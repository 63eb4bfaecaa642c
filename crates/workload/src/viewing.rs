//! Viewer behaviour models and their translation into chunk routing
//! matrices.
//!
//! The paper abstracts viewing behaviour as the chunk transfer probability
//! matrix `P(c)` — the probability that a user who just finished chunk `i`
//! next downloads chunk `j` — plus the split of external arrivals (`α` to
//! the first chunk, the rest uniform). This module provides a small
//! parametric behaviour model (sequential watching, VCR jumps, departures)
//! and builds the exact `P(c)` and arrival split the analysis consumes.

use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, WorkloadError};

/// Parametric per-chunk viewer behaviour.
///
/// After finishing a chunk a viewer, independently each time:
/// - leaves the channel with probability `leave_prob`,
/// - performs a VCR jump to a uniformly random *other* chunk with
///   probability `jump_prob`,
/// - otherwise continues to the next sequential chunk (viewers finishing
///   the last chunk leave instead).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewingModel {
    /// Number of chunks `J` in the video.
    pub chunks: usize,
    /// Fraction `α` of arriving users who start at the first chunk; the
    /// rest start at a uniformly random other chunk.
    pub start_at_beginning: f64,
    /// Probability of a VCR jump after finishing a chunk.
    pub jump_prob: f64,
    /// Probability of leaving the channel after finishing a chunk.
    pub leave_prob: f64,
}

/// What a viewer does after completing a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextAction {
    /// Continue with the given chunk (sequential or jump target).
    Watch(usize),
    /// Leave the channel.
    Leave,
}

impl ViewingModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if `chunks == 0`, any probability is outside
    /// `[0, 1]`, or `jump_prob + leave_prob > 1`.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.chunks == 0 {
            return Err(invalid_param("chunks", "must be positive"));
        }
        for (name, p) in [
            ("start_at_beginning", self.start_at_beginning),
            ("jump_prob", self.jump_prob),
            ("leave_prob", self.leave_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(invalid_param(name, format!("must be in [0, 1], got {p}")));
            }
        }
        if self.jump_prob + self.leave_prob > 1.0 + 1e-12 {
            return Err(invalid_param(
                "jump_prob",
                format!(
                    "jump_prob + leave_prob = {} must not exceed 1",
                    self.jump_prob + self.leave_prob
                ),
            ));
        }
        Ok(())
    }

    /// The paper's experimental behaviour: 20 chunks (100 min video in
    /// 5 min chunks), VCR jumps at exponential intervals with 15 min mean
    /// (≈ probability `1 − e^{−T0/15 min}` per chunk), most users starting
    /// from the beginning, and sessions spanning several chunks.
    pub fn paper_default() -> Self {
        let t0_minutes = 5.0_f64;
        let jump_interval_minutes = 15.0_f64;
        Self {
            chunks: 20,
            start_at_beginning: 0.7,
            jump_prob: 1.0 - (-t0_minutes / jump_interval_minutes).exp(),
            leave_prob: 0.08,
        }
    }

    /// Probability of continuing sequentially after a (non-final) chunk.
    pub fn continue_prob(&self) -> f64 {
        1.0 - self.jump_prob - self.leave_prob
    }

    /// Builds the chunk transfer probability matrix `P` (rows: current
    /// chunk, columns: next chunk; row deficit = departure probability).
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn routing_rows(&self) -> Result<Vec<Vec<f64>>, WorkloadError> {
        self.validate()?;
        let j = self.chunks;
        let mut rows = vec![vec![0.0; j]; j];
        for i in 0..j {
            if j > 1 {
                // VCR jump: uniform over the other chunks.
                let per_target = self.jump_prob / (j - 1) as f64;
                for (k, entry) in rows[i].iter_mut().enumerate() {
                    if k != i {
                        *entry = per_target;
                    }
                }
            }
            if i + 1 < j {
                rows[i][i + 1] += self.continue_prob();
            }
            // Finishing the last chunk: the sequential mass becomes
            // departure (row deficit), matching "watch to the end, leave".
        }
        Ok(rows)
    }

    /// Builds the external arrival split: `α` to chunk 0, `(1 − α)/(J − 1)`
    /// to each other chunk (the paper's arrival model), scaled by the total
    /// arrival rate `total_rate`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn arrival_split(&self, total_rate: f64) -> Result<Vec<f64>, WorkloadError> {
        self.validate()?;
        if !(total_rate.is_finite() && total_rate >= 0.0) {
            return Err(invalid_param(
                "total_rate",
                format!("must be finite and non-negative, got {total_rate}"),
            ));
        }
        let j = self.chunks;
        let mut v = vec![0.0; j];
        if j == 1 {
            v[0] = total_rate;
            return Ok(v);
        }
        v[0] = self.start_at_beginning * total_rate;
        let rest = (1.0 - self.start_at_beginning) * total_rate / (j - 1) as f64;
        for entry in v.iter_mut().skip(1) {
            *entry = rest;
        }
        Ok(v)
    }

    /// Samples the chunk an arriving viewer starts from.
    pub fn sample_start_chunk<R: RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        if self.chunks == 1 || rng.random::<f64>() < self.start_at_beginning {
            0
        } else {
            1 + rng.random_range(0..self.chunks - 1)
        }
    }

    /// Samples what a viewer does after finishing `current`.
    pub fn sample_next<R: RngExt + ?Sized>(&self, rng: &mut R, current: usize) -> NextAction {
        debug_assert!(current < self.chunks);
        let u: f64 = rng.random();
        if u < self.leave_prob {
            return NextAction::Leave;
        }
        if u < self.leave_prob + self.jump_prob && self.chunks > 1 {
            // Uniform over the other chunks.
            let mut target = rng.random_range(0..self.chunks - 1);
            if target >= current {
                target += 1;
            }
            return NextAction::Watch(target);
        }
        if current + 1 < self.chunks {
            NextAction::Watch(current + 1)
        } else {
            NextAction::Leave
        }
    }

    /// Expected number of chunks watched per session, computed from the
    /// absorbing chain (`1^T (I − P)^{-1} s` with `s` the start split).
    /// Exposed for calibrating population targets in traces.
    pub fn expected_chunks_per_session(&self) -> Result<f64, WorkloadError> {
        let rows = self.routing_rows()?;
        let j = self.chunks;
        // Solve (I - P^T) v = start for total visits via dense elimination.
        // This local elimination, not the queueing crate's absorbing
        // chain, fixes the bits: on the paper viewing model the chain's
        // fundamental matrix sums to 9.26186800063584847, two ulps from
        // the 9.26186800063585203 computed here, and this value
        // calibrates every catalog's arrival rates, so switching would
        // move every golden.
        let start = self.arrival_split(1.0)?;
        let n = j;
        let mut a = vec![0.0; n * n];
        for (i, row_a) in rows.iter().enumerate() {
            for (k, &p) in row_a.iter().enumerate() {
                // (I - P^T)[i][k] = delta - P[k][i]
                a[i * n + k] = if i == k { 1.0 } else { 0.0 } - rows[k][i];
                let _ = p;
            }
        }
        let mut x = start;
        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            let mut piv = col;
            for r in col + 1..n {
                if a[r * n + col].abs() > a[piv * n + col].abs() {
                    piv = r;
                }
            }
            if a[piv * n + col].abs() < 1e-12 {
                return Err(invalid_param("routing", "viewer chain does not absorb"));
            }
            if piv != col {
                for c in 0..n {
                    a.swap(col * n + c, piv * n + c);
                }
                x.swap(col, piv);
            }
            for r in col + 1..n {
                let f = a[r * n + col] / a[col * n + col];
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
                x[r] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in col + 1..n {
                s -= a[col * n + c] * x[c];
            }
            x[col] = s / a[col * n + col];
        }
        Ok(x.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_is_valid() {
        ViewingModel::paper_default().validate().unwrap();
    }

    #[test]
    fn routing_rows_are_substochastic() {
        let m = ViewingModel::paper_default();
        let rows = m.routing_rows().unwrap();
        for (i, row) in rows.iter().enumerate() {
            let s: f64 = row.iter().sum();
            assert!(s <= 1.0 + 1e-12, "row {i} sums to {s}");
            assert!(row.iter().all(|&p| p >= 0.0));
            assert_eq!(row[i], 0.0, "no self transition");
        }
    }

    #[test]
    fn last_chunk_row_has_only_jumps() {
        let m = ViewingModel {
            chunks: 5,
            start_at_beginning: 0.8,
            jump_prob: 0.2,
            leave_prob: 0.1,
        };
        let rows = m.routing_rows().unwrap();
        let last: f64 = rows[4].iter().sum();
        assert!(
            (last - 0.2).abs() < 1e-12,
            "last row keeps only jump mass, got {last}"
        );
    }

    #[test]
    fn arrival_split_matches_alpha() {
        let m = ViewingModel {
            chunks: 5,
            start_at_beginning: 0.6,
            jump_prob: 0.1,
            leave_prob: 0.1,
        };
        let v = m.arrival_split(10.0).unwrap();
        assert!((v[0] - 6.0).abs() < 1e-12);
        for &x in &v[1..] {
            assert!((x - 1.0).abs() < 1e-12);
        }
        assert!((v.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn single_chunk_arrivals_all_go_to_it() {
        let m = ViewingModel {
            chunks: 1,
            start_at_beginning: 0.3,
            jump_prob: 0.0,
            leave_prob: 0.5,
        };
        assert_eq!(m.arrival_split(4.0).unwrap(), vec![4.0]);
    }

    #[test]
    fn sample_start_chunk_respects_alpha() {
        let m = ViewingModel {
            chunks: 10,
            start_at_beginning: 0.7,
            jump_prob: 0.1,
            leave_prob: 0.1,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let firsts = (0..n)
            .filter(|_| m.sample_start_chunk(&mut rng) == 0)
            .count();
        let frac = firsts as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "fraction starting at 0: {frac}");
    }

    #[test]
    fn sample_next_frequencies_match_routing() {
        let m = ViewingModel {
            chunks: 6,
            start_at_beginning: 0.5,
            jump_prob: 0.3,
            leave_prob: 0.2,
        };
        let rows = m.routing_rows().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let current = 2;
        let mut counts = [0usize; 6];
        let mut leaves = 0usize;
        for _ in 0..n {
            match m.sample_next(&mut rng, current) {
                NextAction::Watch(c) => counts[c] += 1,
                NextAction::Leave => leaves += 1,
            }
        }
        for j in 0..6 {
            let emp = counts[j] as f64 / n as f64;
            assert!(
                (emp - rows[current][j]).abs() < 0.01,
                "transition {current}->{j}: {emp} vs {}",
                rows[current][j]
            );
        }
        let exp_leave = 1.0 - rows[current].iter().sum::<f64>();
        assert!((leaves as f64 / n as f64 - exp_leave).abs() < 0.01);
    }

    #[test]
    fn jump_never_targets_current_chunk() {
        let m = ViewingModel {
            chunks: 4,
            start_at_beginning: 0.5,
            jump_prob: 1.0,
            leave_prob: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            match m.sample_next(&mut rng, 2) {
                NextAction::Watch(c) => assert_ne!(c, 2),
                NextAction::Leave => panic!("jump_prob 1.0 should never leave"),
            }
        }
    }

    #[test]
    fn expected_chunks_per_session_sequential_geometric() {
        // Pure sequential with leave prob l: E[chunks] for start at 0 is
        // sum_{i=0}^{J-1} (1-l)^i when J large enough not to truncate much.
        let m = ViewingModel {
            chunks: 50,
            start_at_beginning: 1.0,
            jump_prob: 0.0,
            leave_prob: 0.3,
        };
        let e = m.expected_chunks_per_session().unwrap();
        let analytic: f64 = (0..50).map(|i| 0.7f64.powi(i)).sum();
        assert!((e - analytic).abs() < 1e-9, "{e} vs {analytic}");
    }

    #[test]
    fn expected_chunks_match_monte_carlo() {
        let m = ViewingModel::paper_default();
        let analytic = m.expected_chunks_per_session().unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        let n = 100_000;
        let mut total = 0usize;
        for _ in 0..n {
            let mut chunk = m.sample_start_chunk(&mut rng);
            let mut watched = 1usize;
            while let NextAction::Watch(c) = m.sample_next(&mut rng, chunk) {
                chunk = c;
                watched += 1;
                assert!(watched < 10_000, "runaway session");
            }
            total += watched;
        }
        let mc = total as f64 / n as f64;
        assert!(
            (mc - analytic).abs() / analytic < 0.02,
            "monte carlo {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn invalid_models_rejected() {
        let bad = ViewingModel {
            chunks: 0,
            start_at_beginning: 0.5,
            jump_prob: 0.1,
            leave_prob: 0.1,
        };
        assert!(bad.validate().is_err());
        let bad = ViewingModel {
            chunks: 5,
            start_at_beginning: 1.5,
            jump_prob: 0.1,
            leave_prob: 0.1,
        };
        assert!(bad.validate().is_err());
        let bad = ViewingModel {
            chunks: 5,
            start_at_beginning: 0.5,
            jump_prob: 0.7,
            leave_prob: 0.7,
        };
        assert!(bad.validate().is_err());
    }
}
