//! Open Jackson networks of M/M/m queues.
//!
//! This is the paper's channel model (Sec. IV-A): one queue per video chunk,
//! a substochastic routing matrix `P` describing how viewers move between
//! chunks, and external Poisson arrivals split across the queues. The
//! traffic equations (paper Eqn. 1)
//!
//! ```text
//! lambda_i = gamma_i + sum_j lambda_j P_ji
//! ```
//!
//! are solved as the dense linear system `(I - P^T) lambda = gamma`.

use crate::error::{invalid_param, QueueingError};
use crate::linalg::{LuFactors, Matrix};
use crate::mmm::MmmQueue;

/// Maximum tolerated violation when validating that routing rows sum to at
/// most one.
const ROW_SUM_TOL: f64 = 1e-9;

/// A substochastic routing matrix: entry `(i, j)` is the probability that a
/// job leaving queue `i` moves to queue `j`; the row deficit `1 - sum_j
/// P_ij` is the probability of leaving the network.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingMatrix {
    inner: Matrix,
}

impl RoutingMatrix {
    /// Validates and wraps a square matrix as a routing matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::InvalidRouting`] if any entry is negative
    /// or any row sums to more than one.
    pub fn new(matrix: Matrix) -> Result<Self, QueueingError> {
        check_square(matrix.rows(), matrix.cols())?;
        check_substochastic(matrix.as_slice(), matrix.cols())?;
        Ok(Self { inner: matrix })
    }

    /// Builds a routing matrix from row slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, QueueingError> {
        Self::new(Matrix::from_rows(rows))
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.inner.rows()
    }

    /// True if the network has no queues (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probability of moving from queue `i` to queue `j`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.inner[(i, j)]
    }

    /// Probability that a job leaving queue `i` exits the network.
    pub fn exit_prob(&self, i: usize) -> f64 {
        let s: f64 = (0..self.len()).map(|j| self.prob(i, j)).sum();
        (1.0 - s).max(0.0)
    }

    /// The underlying matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.inner
    }

    /// The traffic-equation matrix `M = I − Pᵀ`: entry `(i, j)` is
    /// `δ_ij − P_ji`.
    pub fn traffic_matrix(&self) -> Matrix {
        let n = self.len();
        let mut m = Matrix::zeros(n, n);
        write_traffic_matrix(self.inner.as_slice(), n, m.as_mut_slice());
        m
    }
}

/// A validated `n × n` routing matrix borrowed row-major, as
/// [`TrafficSolution::solve`] takes it: every entry in `[0, 1]` and every
/// row summing to at most one. [`routing_rows_into`] makes one.
#[derive(Debug, Clone, Copy)]
pub struct RoutingView<'a> {
    p: &'a [f64],
    n: usize,
}

/// Checks `rows` as [`RoutingMatrix::from_rows`] does — the same panics
/// and the same errors, in the same order — and copies them row-major
/// into `flat`, reusing its buffer: a validated routing matrix without
/// the allocation of a new [`RoutingMatrix`].
///
/// # Errors
///
/// Returns an error for a non-square matrix and
/// [`QueueingError::InvalidRouting`] if any entry is negative or any row
/// sums to more than one.
///
/// # Panics
///
/// Panics if the rows are empty or ragged.
pub fn routing_rows_into<'a>(
    rows: &[Vec<f64>],
    flat: &'a mut Vec<f64>,
) -> Result<RoutingView<'a>, QueueingError> {
    let n = Matrix::row_shape(rows);
    check_square(rows.len(), n)?;
    flat.clear();
    for row in rows {
        flat.extend_from_slice(row);
    }
    check_substochastic(flat, n)?;
    Ok(RoutingView { p: flat, n })
}

fn check_square(rows: usize, cols: usize) -> Result<(), QueueingError> {
    if rows != cols {
        return Err(invalid_param(
            "matrix",
            format!("routing matrix must be square, got {rows}x{cols}"),
        ));
    }
    Ok(())
}

/// Rejects a negative or non-finite entry, or a row summing to more
/// than one, in the `n`-column row-major matrix `p`.
fn check_substochastic(p: &[f64], n: usize) -> Result<(), QueueingError> {
    for (i, row) in p.chunks_exact(n).enumerate() {
        let mut row_sum = 0.0;
        for &p in row {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(QueueingError::InvalidRouting { row: i, row_sum: p });
            }
            row_sum += p;
        }
        if row_sum > 1.0 + ROW_SUM_TOL {
            return Err(QueueingError::InvalidRouting { row: i, row_sum });
        }
    }
    Ok(())
}

/// Writes `M = I − Pᵀ` for the `n × n` row-major routing `p` into `m`,
/// row-major: row `i` of `M` is `e_i` minus column `i` of `P`. Each
/// entry is computed as `δ_ij − P_ji`; `0 − P_ji` rather than `−P_ji`
/// keeps a zero entry `+0`, as subtracting from the identity did.
fn write_traffic_matrix(p: &[f64], n: usize, m: &mut [f64]) {
    for (i, row) in m.chunks_exact_mut(n).enumerate() {
        for (x, p_j) in row.iter_mut().zip(p.chunks_exact(n)) {
            *x = 0.0 - p_j[i];
        }
        row[i] = 1.0 - p[i * n + i];
    }
}

/// The traffic equations of a network solved against one factorization
/// of `M = I − Pᵀ` ([`solve_traffic`]). A kept solution is re-solved in
/// place by [`TrafficSolution::solve`], which reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct TrafficSolution {
    /// The factorization of `M`.
    lu: LuFactors,
    /// `λ` followed by the columns of `M⁻¹` when requested.
    columns: Vec<f64>,
    /// Substitution scratch.
    scratch: Vec<f64>,
    n: usize,
}

impl TrafficSolution {
    /// Solves the traffic equations `(I − Pᵀ) λ = γ` for the external
    /// arrival rates `gamma` and the validated routing matrix `routing`,
    /// with one LU factorization of `M = I − Pᵀ`. With
    /// `inverse_columns`, the `n` columns of `M⁻¹` — which the P2P
    /// replica-balance systems (Proposition 1) are solved from — come out
    /// of the same multi-right-hand-side sweep. Every buffer of the
    /// previous solve is reused, so re-solving systems of one size never
    /// allocates.
    ///
    /// The rates are bitwise those of [`JacksonNetwork::arrival_rates`]
    /// for the same routing and `gamma`: the factorization pivots exactly
    /// as its elimination does, and each column sees the same arithmetic.
    /// Failures are the same errors too; after one, the solution is empty
    /// until the next successful solve.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::SingularSystem`] if `M` is singular or
    /// [`QueueingError::NoEquilibrium`] if a computed rate is
    /// negative/non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `gamma.len()` differs from the number of queues.
    pub fn solve(
        &mut self,
        routing: RoutingView<'_>,
        gamma: &[f64],
        inverse_columns: bool,
    ) -> Result<(), QueueingError> {
        let n = routing.n;
        assert_eq!(gamma.len(), n, "dimension mismatch in solve_traffic");
        self.n = 0;
        self.columns.clear();
        self.lu
            .refactor(n, |m| write_traffic_matrix(routing.p, n, m))?;
        self.columns.extend_from_slice(gamma);
        if inverse_columns {
            self.columns.resize(n * (n + 1), 0.0);
            for (j, column) in self.columns[n..].chunks_exact_mut(n).enumerate() {
                column[j] = 1.0;
            }
        }
        self.lu
            .solve_columns_into(&mut self.columns, &mut self.scratch);
        if let Err(e) = equilibrium_rates(&mut self.columns[..n]) {
            self.columns.clear();
            return Err(e);
        }
        self.n = n;
        Ok(())
    }

    /// Aggregate arrival rate `λ_i` at each queue (paper Eqn. 1).
    pub fn arrival_rates(&self) -> &[f64] {
        &self.columns[..self.n]
    }

    /// The columns of `M⁻¹` back to back — column `j` is
    /// `[j·n..(j + 1)·n]` — when requested, else empty.
    pub fn inverse_columns(&self) -> &[f64] {
        &self.columns[self.n..]
    }
}

/// Solves the traffic equations of `routing` for the external arrival
/// rates `gamma` into a new [`TrafficSolution`] (see
/// [`TrafficSolution::solve`]).
///
/// # Errors
///
/// Returns [`QueueingError::SingularSystem`] if `M` is singular or
/// [`QueueingError::NoEquilibrium`] if a computed rate is
/// negative/non-finite.
///
/// # Panics
///
/// Panics if `gamma.len()` differs from the number of queues.
pub fn solve_traffic(
    routing: &RoutingMatrix,
    gamma: &[f64],
    inverse_columns: bool,
) -> Result<TrafficSolution, QueueingError> {
    let routing = RoutingView {
        p: routing.as_matrix().as_slice(),
        n: routing.len(),
    };
    let mut solution = TrafficSolution::default();
    solution.solve(routing, gamma, inverse_columns)?;
    Ok(solution)
}

/// Accepts a traffic-equation solution as equilibrium arrival rates:
/// rejects negative or non-finite entries and clamps rounding-level
/// negatives to zero, in place.
fn equilibrium_rates(lambda: &mut [f64]) -> Result<(), QueueingError> {
    for (i, &l) in lambda.iter().enumerate() {
        if !l.is_finite() || l < -1e-9 {
            return Err(QueueingError::NoEquilibrium { queue: i, rate: l });
        }
    }
    for l in lambda {
        *l = l.max(0.0);
    }
    Ok(())
}

/// An open Jackson network specification: routing plus external arrival
/// rates per queue.
#[derive(Debug, Clone, PartialEq)]
pub struct JacksonNetwork {
    routing: RoutingMatrix,
    external_arrivals: Vec<f64>,
}

impl JacksonNetwork {
    /// Creates a network from routing and per-queue external Poisson
    /// arrival rates `gamma_i`.
    ///
    /// # Errors
    ///
    /// Returns an error if dimensions mismatch or any rate is negative.
    pub fn new(routing: RoutingMatrix, external_arrivals: Vec<f64>) -> Result<Self, QueueingError> {
        if external_arrivals.len() != routing.len() {
            return Err(invalid_param(
                "external_arrivals",
                format!(
                    "expected {} rates, got {}",
                    routing.len(),
                    external_arrivals.len()
                ),
            ));
        }
        if let Some(g) = external_arrivals
            .iter()
            .find(|g| !g.is_finite() || **g < 0.0)
        {
            return Err(invalid_param(
                "external_arrivals",
                format!("rates must be finite and non-negative, got {g}"),
            ));
        }
        Ok(Self {
            routing,
            external_arrivals,
        })
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.routing.len()
    }

    /// True if the network has no queues.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The routing matrix.
    pub fn routing(&self) -> &RoutingMatrix {
        &self.routing
    }

    /// External arrival rate into queue `i`.
    pub fn external_arrival(&self, i: usize) -> f64 {
        self.external_arrivals[i]
    }

    /// Total external arrival rate into the network.
    pub fn total_external_arrival(&self) -> f64 {
        self.external_arrivals.iter().sum()
    }

    /// Solves the traffic equations `lambda = gamma + P^T lambda`,
    /// returning the aggregate arrival rate `lambda_i` at each queue
    /// (paper Eqn. 1). This is the direct-elimination reference;
    /// [`solve_traffic`] gives the same rates from a reusable
    /// factorization.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::SingularSystem`] if `I - P^T` is singular
    /// (the routing traps jobs forever) or [`QueueingError::NoEquilibrium`]
    /// if a computed rate is negative/non-finite.
    pub fn arrival_rates(&self) -> Result<Vec<f64>, QueueingError> {
        let mut lambda = self
            .routing
            .traffic_matrix()
            .solve(&self.external_arrivals)?;
        equilibrium_rates(&mut lambda)?;
        Ok(lambda)
    }

    /// Builds the per-queue M/M/m queues for the given service rate and
    /// server counts, verifying stability of every queue.
    ///
    /// # Errors
    ///
    /// Propagates traffic-equation failures and per-queue instability.
    pub fn queues(
        &self,
        service_rate: f64,
        servers: &[usize],
    ) -> Result<Vec<MmmQueue>, QueueingError> {
        if servers.len() != self.len() {
            return Err(invalid_param(
                "servers",
                format!("expected {} counts, got {}", self.len(), servers.len()),
            ));
        }
        let lambdas = self.arrival_rates()?;
        lambdas
            .iter()
            .zip(servers)
            .map(|(&l, &m)| MmmQueue::new(l, service_rate, m))
            .collect()
    }

    /// Expected total number of jobs in the network given per-queue server
    /// counts (sum of per-queue `E(n_i)`; valid by Jackson's product-form
    /// theorem).
    pub fn expected_total_in_system(
        &self,
        service_rate: f64,
        servers: &[usize],
    ) -> Result<f64, QueueingError> {
        Ok(self
            .queues(service_rate, servers)?
            .iter()
            .map(MmmQueue::expected_in_system)
            .sum())
    }

    /// Joint equilibrium probability of the state `(k_1, ..., k_J)` —
    /// Jackson's product-form theorem: the network state factorizes into
    /// the per-queue M/M/m marginals.
    ///
    /// # Errors
    ///
    /// Propagates traffic-equation and stability failures.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` or `servers.len()` mismatch the network.
    pub fn state_probability(
        &self,
        service_rate: f64,
        servers: &[usize],
        state: &[usize],
    ) -> Result<f64, QueueingError> {
        assert_eq!(state.len(), self.len(), "state length mismatch");
        let queues = self.queues(service_rate, servers)?;
        Ok(queues
            .iter()
            .zip(state)
            .map(|(q, &k)| q.state_probability(k))
            .product())
    }

    /// Throughput conservation check: in equilibrium the total external
    /// arrival rate equals the total departure rate
    /// `sum_i lambda_i * exit_prob(i)`. Returns the relative imbalance
    /// (zero for a well-posed open network); exposed for diagnostics and
    /// tests.
    pub fn flow_imbalance(&self) -> Result<f64, QueueingError> {
        let lambdas = self.arrival_rates()?;
        let out: f64 = lambdas
            .iter()
            .enumerate()
            .map(|(i, l)| l * self.routing.exit_prob(i))
            .sum();
        let input = self.total_external_arrival();
        if input == 0.0 {
            return Ok(0.0);
        }
        Ok((out - input).abs() / input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn tandem_network_rates() {
        // Two queues in series: all external arrivals enter queue 0 and
        // proceed to queue 1, then leave. lambda_0 = lambda_1 = gamma.
        let routing = RoutingMatrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let net = JacksonNetwork::new(routing, vec![2.5, 0.0]).unwrap();
        let l = net.arrival_rates().unwrap();
        assert_close(l[0], 2.5, 1e-12);
        assert_close(l[1], 2.5, 1e-12);
    }

    #[test]
    fn feedback_queue_rates() {
        // Single queue, jobs return with probability q: lambda = gamma/(1-q).
        let q = 0.25;
        let routing = RoutingMatrix::from_rows(&[vec![q]]).unwrap();
        let net = JacksonNetwork::new(routing, vec![3.0]).unwrap();
        let l = net.arrival_rates().unwrap();
        assert_close(l[0], 3.0 / (1.0 - q), 1e-12);
    }

    #[test]
    fn sequential_viewing_chain_rates() {
        // A 5-chunk "video": watch chunk i then move to i+1 with prob 0.8,
        // leave otherwise; everyone starts at chunk 0.
        let j = 5;
        let mut rows = vec![vec![0.0; j]; j];
        for i in 0..j - 1 {
            rows[i][i + 1] = 0.8;
        }
        let routing = RoutingMatrix::from_rows(&rows).unwrap();
        let mut gamma = vec![0.0; j];
        gamma[0] = 1.0;
        let net = JacksonNetwork::new(routing, gamma).unwrap();
        let l = net.arrival_rates().unwrap();
        for (i, &li) in l.iter().enumerate() {
            assert_close(li, 0.8f64.powi(i as i32), 1e-12);
        }
    }

    #[test]
    fn flow_conservation_holds() {
        let routing = RoutingMatrix::from_rows(&[
            vec![0.0, 0.5, 0.2],
            vec![0.1, 0.0, 0.6],
            vec![0.3, 0.3, 0.0],
        ])
        .unwrap();
        let net = JacksonNetwork::new(routing, vec![1.0, 2.0, 0.5]).unwrap();
        assert!(net.flow_imbalance().unwrap() < 1e-10);
    }

    #[test]
    fn trapping_routing_is_singular() {
        // Queue 1 feeds itself forever: row sums to exactly 1 with no exit
        // reachable -> I - P^T singular.
        let routing = RoutingMatrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let net = JacksonNetwork::new(routing, vec![1.0, 0.0]).unwrap();
        assert!(net.arrival_rates().is_err());
    }

    #[test]
    fn solve_traffic_matches_arrival_rates_and_inverts_m() {
        let routing = RoutingMatrix::from_rows(&[
            vec![0.0, 0.5, 0.2],
            vec![0.1, 0.0, 0.6],
            vec![0.3, 0.3, 0.0],
        ])
        .unwrap();
        let gamma = vec![1.0, 2.0, 0.5];
        let net = JacksonNetwork::new(routing.clone(), gamma.clone()).unwrap();
        let solved = solve_traffic(&routing, &gamma, true).unwrap();
        assert_eq!(solved.arrival_rates(), net.arrival_rates().unwrap());
        let m = routing.traffic_matrix();
        for (j, column) in solved.inverse_columns().chunks_exact(3).enumerate() {
            let e = m.mul_vec(column);
            for (i, v) in e.iter().enumerate() {
                assert_close(*v, if i == j { 1.0 } else { 0.0 }, 1e-12);
            }
        }
        assert!(solve_traffic(&routing, &gamma, false)
            .unwrap()
            .inverse_columns()
            .is_empty());

        // Trapping routing fails the same way in both.
        let trap = RoutingMatrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let net = JacksonNetwork::new(trap.clone(), vec![1.0, 0.0]).unwrap();
        assert_eq!(
            solve_traffic(&trap, &[1.0, 0.0], true).unwrap_err(),
            net.arrival_rates().unwrap_err()
        );
    }

    #[test]
    fn failed_resolve_leaves_an_empty_solution() {
        let mut flat = Vec::new();
        let mut solution = TrafficSolution::default();
        let small = [vec![0.0, 0.5], vec![0.2, 0.0]];
        let view = routing_rows_into(&small, &mut flat).unwrap();
        solution.solve(view, &[1.0, 1.0], true).unwrap();
        let (rates, inverse) = (
            solution.arrival_rates().to_vec(),
            solution.inverse_columns().to_vec(),
        );
        assert_eq!((rates.len(), inverse.len()), (2, 4));

        // A larger system whose chunk 1 feeds itself forever is singular:
        // nothing of the smaller solution is left to read.
        let trap = [
            vec![0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ];
        let view = routing_rows_into(&trap, &mut flat).unwrap();
        assert!(matches!(
            solution.solve(view, &[1.0, 0.0, 1.0], true),
            Err(QueueingError::SingularSystem { .. })
        ));
        assert!(solution.arrival_rates().is_empty());
        assert!(solution.inverse_columns().is_empty());

        let view = routing_rows_into(&small, &mut flat).unwrap();
        solution.solve(view, &[1.0, 1.0], true).unwrap();
        assert_eq!(solution.arrival_rates(), rates);
        assert_eq!(solution.inverse_columns(), inverse);
    }

    #[test]
    fn routing_rows_into_checks_as_from_rows() {
        let mut flat = Vec::new();
        for rows in [
            vec![vec![0.7, 0.7], vec![0.0, 0.0]],
            vec![vec![0.0, -0.1], vec![0.0, 0.0]],
            vec![vec![0.0, 0.5]],
        ] {
            assert_eq!(
                routing_rows_into(&rows, &mut flat).unwrap_err(),
                RoutingMatrix::from_rows(&rows).unwrap_err()
            );
        }
    }

    #[test]
    fn super_stochastic_row_rejected() {
        let err = RoutingMatrix::from_rows(&[vec![0.7, 0.7], vec![0.0, 0.0]]).unwrap_err();
        assert!(matches!(err, QueueingError::InvalidRouting { row: 0, .. }));
    }

    #[test]
    fn negative_entry_rejected() {
        assert!(RoutingMatrix::from_rows(&[vec![-0.1, 0.5], vec![0.0, 0.0]]).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0]]);
        assert!(RoutingMatrix::new(m).is_err());
    }

    #[test]
    fn arrival_len_mismatch_rejected() {
        let routing = RoutingMatrix::from_rows(&[vec![0.0]]).unwrap();
        assert!(JacksonNetwork::new(routing, vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn queues_propagate_instability() {
        let routing = RoutingMatrix::from_rows(&[vec![0.0]]).unwrap();
        let net = JacksonNetwork::new(routing, vec![5.0]).unwrap();
        // 5 jobs/s at service rate 1 with 3 servers is unstable.
        assert!(net.queues(1.0, &[3]).is_err());
        assert!(net.queues(1.0, &[6]).is_ok());
    }

    #[test]
    fn expected_total_matches_sum_of_queue_metrics() {
        let routing = RoutingMatrix::from_rows(&[vec![0.0, 0.6], vec![0.0, 0.0]]).unwrap();
        let net = JacksonNetwork::new(routing, vec![2.0, 0.3]).unwrap();
        let total = net.expected_total_in_system(1.0, &[4, 3]).unwrap();
        let queues = net.queues(1.0, &[4, 3]).unwrap();
        let sum: f64 = queues.iter().map(MmmQueue::expected_in_system).sum();
        assert_close(total, sum, 1e-12);
    }

    #[test]
    fn product_form_state_probabilities() {
        let routing = RoutingMatrix::from_rows(&[vec![0.0, 0.6], vec![0.0, 0.0]]).unwrap();
        let net = JacksonNetwork::new(routing, vec![2.0, 0.3]).unwrap();
        let servers = [4usize, 3];
        let queues = net.queues(1.0, &servers).unwrap();
        // Factorization against the marginals.
        let p = net.state_probability(1.0, &servers, &[2, 1]).unwrap();
        let expect = queues[0].state_probability(2) * queues[1].state_probability(1);
        assert_close(p, expect, 1e-15);
        // Sums to ~1 over a generous grid.
        let mut total = 0.0;
        for k0 in 0..60 {
            for k1 in 0..60 {
                total += net.state_probability(1.0, &servers, &[k0, k1]).unwrap();
            }
        }
        assert_close(total, 1.0, 1e-6);
    }

    #[test]
    fn exit_probability_complements_row_sum() {
        let routing = RoutingMatrix::from_rows(&[
            vec![0.0, 0.5, 0.2],
            vec![0.1, 0.0, 0.6],
            vec![0.0, 0.0, 0.0],
        ])
        .unwrap();
        assert_close(routing.exit_prob(0), 0.3, 1e-12);
        assert_close(routing.exit_prob(1), 0.3, 1e-12);
        assert_close(routing.exit_prob(2), 1.0, 1e-12);
    }
}
