//! The M/M/m queue: Poisson arrivals, exponential service, `m` identical
//! servers, infinite waiting room.
//!
//! Each chunk queue `Q_i^(c)` in the paper is an `M/M/m_i/∞` queue; this
//! module provides the equilibrium metrics (paper Eqns. 2–3) plus the
//! inverse problem the paper solves iteratively: the minimum number of
//! servers so that the mean sojourn time does not exceed a target (the
//! chunk playback time `T0`).

use crate::erlang::{erlang_c, expected_in_system};
use crate::error::{invalid_param, QueueingError};

/// An M/M/m queue in equilibrium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmmQueue {
    arrival_rate: f64,
    service_rate: f64,
    servers: usize,
}

impl MmmQueue {
    /// Creates a stable M/M/m queue.
    ///
    /// # Errors
    ///
    /// Returns an error if rates are non-positive/non-finite or the queue
    /// would be unstable (`lambda / mu >= m`).
    pub fn new(
        arrival_rate: f64,
        service_rate: f64,
        servers: usize,
    ) -> Result<Self, QueueingError> {
        if !(arrival_rate.is_finite() && arrival_rate >= 0.0) {
            return Err(invalid_param(
                "arrival_rate",
                format!("must be finite and non-negative, got {arrival_rate}"),
            ));
        }
        if !(service_rate.is_finite() && service_rate > 0.0) {
            return Err(invalid_param(
                "service_rate",
                format!("must be finite and positive, got {service_rate}"),
            ));
        }
        let q = Self {
            arrival_rate,
            service_rate,
            servers,
        };
        if arrival_rate > 0.0 && q.offered_load() >= servers as f64 {
            return Err(QueueingError::UnstableQueue {
                offered_load: q.offered_load(),
                servers,
            });
        }
        Ok(q)
    }

    /// Arrival rate `lambda`.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Per-server service rate `mu`.
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Number of servers `m`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Offered load `a = lambda / mu` — the paper's `rho_i`.
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Probability an arriving job has to wait (Erlang C).
    pub fn wait_probability(&self) -> f64 {
        if self.arrival_rate == 0.0 {
            return 0.0;
        }
        erlang_c(self.servers, self.offered_load()).expect("constructor guarantees stability")
    }

    /// Expected number of jobs in the system, `E(n)` of paper Eqn. (3).
    pub fn expected_in_system(&self) -> f64 {
        if self.arrival_rate == 0.0 {
            return 0.0;
        }
        expected_in_system(self.servers, self.offered_load())
            .expect("constructor guarantees stability")
    }

    /// Mean sojourn time `W = L / lambda` (Little's law) — queueing plus
    /// service; the quantity the paper pins to `T0`.
    pub fn mean_sojourn_time(&self) -> f64 {
        if self.arrival_rate == 0.0 {
            // An arriving job would only experience its own service time.
            return 1.0 / self.service_rate;
        }
        self.expected_in_system() / self.arrival_rate
    }

    /// Tail of the sojourn-time distribution: `P(S > t)` where `S` is
    /// waiting plus service time.
    ///
    /// With `C` the Erlang-C waiting probability and `θ = mµ − λ` the
    /// conditional waiting rate, the sojourn is `exp(µ)` with probability
    /// `1 − C` and `exp(θ) + exp(µ)` (independent) with probability `C`:
    ///
    /// ```text
    /// P(S > t) = (1 − C)·e^{−µt} + C·(θ·e^{−µt} − µ·e^{−θt}) / (θ − µ)
    /// ```
    ///
    /// (with the Erlang-2 limit when `θ = µ`). Used by the tail-aware
    /// provisioning extension: the paper sizes capacity for the *mean*
    /// sojourn; sizing for a quantile bounds the fraction of late chunks
    /// directly.
    pub fn sojourn_tail(&self, t: f64) -> f64 {
        assert!(
            t >= 0.0 && t.is_finite(),
            "t must be finite and non-negative"
        );
        let mu = self.service_rate;
        if self.arrival_rate == 0.0 {
            return (-mu * t).exp();
        }
        let c = self.wait_probability();
        let theta = self.servers as f64 * mu - self.arrival_rate;
        let tail = if (theta - mu).abs() < 1e-9 * mu {
            // Erlang-2 limit: P(sum > t) = (1 + µt)·e^{−µt}.
            (1.0 - c) * (-mu * t).exp() + c * (1.0 + mu * t) * (-mu * t).exp()
        } else {
            (1.0 - c) * (-mu * t).exp()
                + c * (theta * (-mu * t).exp() - mu * (-theta * t).exp()) / (theta - mu)
        };
        tail.clamp(0.0, 1.0)
    }

    /// Equilibrium probability of exactly `k` jobs in the system
    /// (paper Eqn. 2). `state_probabilities_give_expected_n` checks
    /// [`MmmQueue::expected_in_system`] against it.
    pub fn state_probability(&self, k: usize) -> f64 {
        let a = self.offered_load();
        if a == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        let m = self.servers;
        // p(0) via the stable sum: p0^-1 = sum_{k<m} a^k/k! + a^m/(m!(1-a/m)).
        // Computed with running terms to avoid factorials.
        let mut term = 1.0; // a^j / j!
        let mut sum = 1.0;
        for j in 1..m {
            term *= a / j as f64;
            sum += term;
        }
        let term_m = if m == 0 { 1.0 } else { term * a / m as f64 }; // a^m / m!
        let rho = a / m as f64;
        let p0 = 1.0 / (sum + term_m / (1.0 - rho));
        if k < m {
            // p(k) = p0 a^k / k!
            let mut t = 1.0;
            for j in 1..=k {
                t *= a / j as f64;
            }
            p0 * t
        } else {
            // p(k) = p0 a^m/m! * rho^{k-m}
            p0 * term_m * rho.powi((k - m) as i32)
        }
    }
}

/// Returns the minimum number of servers `m` such that an M/M/m queue with
/// the given rates has mean sojourn time at most `target_sojourn`.
///
/// This is the paper's iterative derivation of `m_i^(c)` ("initialize to 1
/// and increase until `E(n)` equals `lambda T0`"), implemented as an
/// exponential probe followed by a binary search so that heavily loaded
/// chunks (thousands of concurrent viewers) are handled in `O(log m)`
/// metric evaluations.
///
/// # Errors
///
/// Returns an error if the target is unreachable (`target_sojourn <
/// 1/mu`, since even an idle server needs a full service time) or if the
/// inputs are invalid.
pub fn min_servers_for_sojourn(
    arrival_rate: f64,
    service_rate: f64,
    target_sojourn: f64,
) -> Result<usize, QueueingError> {
    if !(service_rate.is_finite() && service_rate > 0.0) {
        return Err(invalid_param(
            "service_rate",
            format!("must be finite and positive, got {service_rate}"),
        ));
    }
    if !(arrival_rate.is_finite() && arrival_rate >= 0.0) {
        return Err(invalid_param(
            "arrival_rate",
            format!("must be finite and non-negative, got {arrival_rate}"),
        ));
    }
    if !(target_sojourn.is_finite() && target_sojourn > 0.0) {
        return Err(invalid_param(
            "target_sojourn",
            format!("must be finite and positive, got {target_sojourn}"),
        ));
    }
    if target_sojourn < 1.0 / service_rate {
        return Err(invalid_param(
            "target_sojourn",
            format!(
                "unreachable: target {target_sojourn} is below the mean service time {}",
                1.0 / service_rate
            ),
        ));
    }
    if arrival_rate == 0.0 {
        return Ok(0);
    }

    let a = arrival_rate / service_rate;
    let floor_m = a.floor() as usize + 1; // smallest stable m

    let sojourn = |m: usize| -> f64 {
        MmmQueue::new(arrival_rate, service_rate, m)
            .expect("m chosen above stability floor")
            .mean_sojourn_time()
    };

    // Exponential probe upward from the stability floor.
    let mut hi = floor_m;
    while sojourn(hi) > target_sojourn {
        hi = hi.saturating_mul(2).max(hi + 1);
    }
    if hi == floor_m {
        return Ok(floor_m);
    }
    // Invariant: sojourn(lo) > target >= sojourn(hi).
    let mut lo = hi / 2;
    if lo < floor_m {
        lo = floor_m;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if sojourn(mid) > target_sojourn {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(hi)
}

/// Returns the minimum number of servers `m` such that the sojourn-time
/// *quantile* meets the target: `P(S > target_sojourn) <= epsilon`.
///
/// A tail-aware strengthening of [`min_servers_for_sojourn`] (the paper
/// bounds only the mean): with `epsilon = 0.05`, at most 5% of chunk
/// retrievals exceed the playback window in equilibrium.
///
/// # Errors
///
/// Returns an error for invalid inputs or an unreachable target (even an
/// idle system has `P(S > t) = e^{-mu t}`, so `epsilon` below that is
/// impossible).
pub fn min_servers_for_sojourn_quantile(
    arrival_rate: f64,
    service_rate: f64,
    target_sojourn: f64,
    epsilon: f64,
) -> Result<usize, QueueingError> {
    if !(service_rate.is_finite() && service_rate > 0.0) {
        return Err(invalid_param(
            "service_rate",
            format!("must be positive, got {service_rate}"),
        ));
    }
    if !(arrival_rate.is_finite() && arrival_rate >= 0.0) {
        return Err(invalid_param(
            "arrival_rate",
            format!("must be non-negative, got {arrival_rate}"),
        ));
    }
    if !(target_sojourn.is_finite() && target_sojourn > 0.0) {
        return Err(invalid_param(
            "target_sojourn",
            format!("must be positive, got {target_sojourn}"),
        ));
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(invalid_param(
            "epsilon",
            format!("must be in (0, 1), got {epsilon}"),
        ));
    }
    let floor_tail = (-service_rate * target_sojourn).exp();
    if epsilon < floor_tail {
        return Err(invalid_param(
            "epsilon",
            format!(
                "unreachable: even an idle server has P(S > {target_sojourn}) = {floor_tail:.3e}"
            ),
        ));
    }
    if arrival_rate == 0.0 {
        return Ok(0);
    }
    let a = arrival_rate / service_rate;
    let floor_m = a.floor() as usize + 1;
    let tail = |m: usize| -> f64 {
        MmmQueue::new(arrival_rate, service_rate, m)
            .expect("m chosen above stability floor")
            .sojourn_tail(target_sojourn)
    };
    let mut hi = floor_m;
    while tail(hi) > epsilon {
        hi = hi.saturating_mul(2).max(hi + 1);
    }
    if hi == floor_m {
        return Ok(floor_m);
    }
    let mut lo = (hi / 2).max(floor_m);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if tail(mid) > epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn mm1_metrics_match_closed_forms() {
        let q = MmmQueue::new(0.8, 1.0, 1).unwrap();
        assert_close(q.expected_in_system(), 0.8 / 0.2, 1e-9);
        assert_close(q.mean_sojourn_time(), 1.0 / 0.2, 1e-9);
        assert_close(q.wait_probability(), 0.8, 1e-12);
    }

    #[test]
    fn state_probabilities_sum_to_one() {
        let q = MmmQueue::new(3.0, 1.0, 5).unwrap();
        let total: f64 = (0..500).map(|k| q.state_probability(k)).sum();
        assert_close(total, 1.0, 1e-9);
    }

    #[test]
    fn state_probabilities_give_expected_n() {
        let q = MmmQueue::new(3.0, 1.0, 5).unwrap();
        let en: f64 = (0..2000).map(|k| k as f64 * q.state_probability(k)).sum();
        assert_close(en, q.expected_in_system(), 1e-6);
    }

    #[test]
    fn mm1_state_probabilities_geometric() {
        let q = MmmQueue::new(0.6, 1.0, 1).unwrap();
        for k in 0..10 {
            assert_close(q.state_probability(k), 0.4 * 0.6f64.powi(k as i32), 1e-12);
        }
    }

    #[test]
    fn zero_arrival_rate_is_empty_system() {
        let q = MmmQueue::new(0.0, 2.0, 3).unwrap();
        assert_eq!(q.expected_in_system(), 0.0);
        assert_eq!(q.state_probability(0), 1.0);
        assert_close(q.mean_sojourn_time(), 0.5, 1e-12);
    }

    #[test]
    fn unstable_queue_rejected() {
        assert!(MmmQueue::new(2.0, 1.0, 2).is_err());
        assert!(MmmQueue::new(2.0, 1.0, 1).is_err());
        assert!(MmmQueue::new(2.0, 1.0, 3).is_ok());
    }

    #[test]
    fn little_law_consistency() {
        let q = MmmQueue::new(12.0, 1.5, 10).unwrap();
        assert_close(
            q.expected_in_system(),
            q.arrival_rate() * q.mean_sojourn_time(),
            1e-9,
        );
    }

    #[test]
    fn min_servers_meets_target_and_is_minimal() {
        for &(lambda, mu, t) in &[
            (0.5, 1.0, 2.0),
            (10.0, 1.0, 1.5),
            (100.0, 0.2, 6.0),
            (3.0, 2.0, 0.7),
        ] {
            let m = min_servers_for_sojourn(lambda, mu, t).unwrap();
            let w = MmmQueue::new(lambda, mu, m).unwrap().mean_sojourn_time();
            assert!(w <= t + 1e-12, "m={m} gives sojourn {w} > target {t}");
            if m > (lambda / mu).floor() as usize + 1 {
                let w_less = MmmQueue::new(lambda, mu, m - 1)
                    .unwrap()
                    .mean_sojourn_time();
                assert!(w_less > t, "m-1={} already meets target", m - 1);
            }
        }
    }

    #[test]
    fn min_servers_zero_arrivals_needs_no_servers() {
        assert_eq!(min_servers_for_sojourn(0.0, 1.0, 1.0).unwrap(), 0);
    }

    #[test]
    fn min_servers_unreachable_target_is_error() {
        // Mean service time is 2s; a 1s sojourn target is impossible.
        assert!(min_servers_for_sojourn(1.0, 0.5, 1.0).is_err());
    }

    #[test]
    fn min_servers_loose_target_returns_stability_floor() {
        // With a huge target, only stability matters: m = floor(a) + 1.
        let m = min_servers_for_sojourn(7.9, 1.0, 1e9).unwrap();
        assert_eq!(m, 8);
    }

    #[test]
    fn min_servers_large_scale_is_fast_and_sane() {
        // ~50k offered load; binary search must handle this instantly.
        let m = min_servers_for_sojourn(50_000.0, 1.0, 1.2).unwrap();
        assert!(m >= 50_001);
        assert!(m < 60_000, "m={m} looks wasteful");
    }

    #[test]
    fn paper_parameters_chunk_queue() {
        // Paper Sec. VI: R = 10 Mbps VM bandwidth, chunk = 15 MB,
        // mu = R/(r T0) = 1/12 per s, T0 = 300 s.
        let mu = 1.0 / 12.0;
        let t0 = 300.0;
        // A chunk watched by ~a channel with lambda = 0.5 users/s.
        let m = min_servers_for_sojourn(0.5, mu, t0).unwrap();
        let q = MmmQueue::new(0.5, mu, m).unwrap();
        assert!(q.mean_sojourn_time() <= t0);
        // Offered load is 6, so at least 7 servers.
        assert!(m >= 7);
    }

    #[test]
    fn sojourn_tail_mm1_closed_form() {
        // M/M/1: P(S > t) = e^{-(mu - lambda) t}.
        let q = MmmQueue::new(0.6, 1.0, 1).unwrap();
        for &t in &[0.0, 0.5, 1.0, 3.0] {
            assert_close(q.sojourn_tail(t), (-0.4_f64 * t).exp(), 1e-9);
        }
    }

    #[test]
    fn sojourn_tail_is_a_valid_survival_function() {
        let q = MmmQueue::new(7.0, 1.0, 10).unwrap();
        assert_close(q.sojourn_tail(0.0), 1.0, 1e-12);
        let mut prev = 1.0;
        for i in 1..50 {
            let tail = q.sojourn_tail(i as f64 * 0.3);
            assert!(tail <= prev + 1e-12, "tail must be non-increasing");
            assert!((0.0..=1.0).contains(&tail));
            prev = tail;
        }
        assert!(q.sojourn_tail(100.0) < 1e-9);
    }

    #[test]
    fn sojourn_tail_integrates_to_mean() {
        // E[S] = integral of the survival function.
        let q = MmmQueue::new(3.0, 1.0, 4).unwrap();
        let dt = 0.001;
        let mut integral = 0.0;
        let mut t = 0.0;
        while t < 60.0 {
            integral += q.sojourn_tail(t) * dt;
            t += dt;
        }
        assert_close(integral, q.mean_sojourn_time(), 1e-3);
    }

    #[test]
    fn sojourn_tail_empty_system_is_service_tail() {
        let q = MmmQueue::new(0.0, 2.0, 3).unwrap();
        assert_close(q.sojourn_tail(1.0), (-2.0_f64).exp(), 1e-12);
    }

    #[test]
    fn quantile_provisioning_meets_and_is_minimal() {
        for &(lambda, mu, t, eps) in &[
            (5.0, 1.0, 3.0, 0.06),
            (0.5, 1.0 / 12.0, 300.0, 0.05),
            // Note: epsilon must stay above the service tail e^{-mu t}.
            (20.0, 2.0, 1.5, 0.08),
        ] {
            let m = min_servers_for_sojourn_quantile(lambda, mu, t, eps).unwrap();
            let q = MmmQueue::new(lambda, mu, m).unwrap();
            assert!(
                q.sojourn_tail(t) <= eps + 1e-12,
                "m={m}: tail {}",
                q.sojourn_tail(t)
            );
            if let Ok(q2) = MmmQueue::new(lambda, mu, m - 1) {
                assert!(q2.sojourn_tail(t) > eps, "m-1 already meets the quantile");
            }
        }
    }

    #[test]
    fn quantile_provisioning_needs_at_least_mean_provisioning() {
        // Bounding the 95th percentile by T0 is stronger than bounding the
        // mean by T0.
        let (lambda, mu, t) = (2.0, 1.0 / 12.0, 300.0);
        let mean_m = min_servers_for_sojourn(lambda, mu, t).unwrap();
        let tail_m = min_servers_for_sojourn_quantile(lambda, mu, t, 0.05).unwrap();
        assert!(tail_m >= mean_m, "tail {tail_m} < mean {mean_m}");
    }

    #[test]
    fn quantile_provisioning_rejects_unreachable_epsilon() {
        // P(S > t) >= e^{-mu t} no matter how many servers.
        let err = min_servers_for_sojourn_quantile(1.0, 1.0, 1.0, 1e-9).unwrap_err();
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn quantile_zero_arrivals_needs_no_servers() {
        assert_eq!(
            min_servers_for_sojourn_quantile(0.0, 1.0, 10.0, 0.5).unwrap(),
            0
        );
    }

    #[test]
    fn sojourn_time_monotone_decreasing_in_servers() {
        let mut prev = f64::INFINITY;
        for m in 4..30 {
            let w = MmmQueue::new(3.0, 1.0, m).unwrap().mean_sojourn_time();
            // Non-strict: waiting time underflows to zero for large m.
            assert!(w <= prev);
            prev = w;
        }
    }
}
