//! P2P capacity analysis (paper Sec. IV-C).
//!
//! In P2P VoD the required per-chunk upload bandwidth `s_i = R·m_i` is
//! covered by two sources: peers who buffer the chunk (`Γ_i`) and the
//! cloud (`Δ_i = R·m_i − Γ_i`). This module derives the equilibrium chunk
//! replica counts (Proposition 1), the joint-ownership probability
//! `Ψ(π_j, π_k)` (two estimators — the paper's closed form lives in an
//! unavailable technical report, see DESIGN.md), and the rarest-first
//! waterfilling of peer upload bandwidth (paper Eqn. 5).

use cloudmedia_queueing::absorbing::AbsorbingChain;
use cloudmedia_queueing::jackson::RoutingMatrix;
use cloudmedia_queueing::linalg::Matrix;
use cloudmedia_telemetry::GlobalCounter;
use serde::{Deserialize, Serialize};

/// Replica-matrix rows recovered through the Sherman–Morrison rank-one
/// fast path ([`replica_matrix`]), process lifetime. Read as
/// before/after deltas by the telemetry plane, alongside the
/// direct-elimination counters in [`cloudmedia_queueing::linalg`], to
/// show how often the `O(J²)` path carries the provisioning load.
pub static SHERMAN_MORRISON_UPDATES: GlobalCounter = GlobalCounter::new();

/// Replica-matrix rows that fell back to the direct per-chunk deleted-
/// system elimination (singular `M` or a degenerate rank-one update),
/// process lifetime.
pub static SHERMAN_MORRISON_FALLBACKS: GlobalCounter = GlobalCounter::new();

#[cfg(test)]
use crate::analysis::client_server::{capacity_demand, pooled_capacity_demand};
use crate::analysis::client_server::{CapacityDemand, ProvisioningTarget};
use crate::analysis::pass::{ChannelPass, PassScratch};
use crate::analysis::DemandPooling;
use crate::channel::ChannelModel;
use crate::error::{invalid_param, CoreError};

/// How the joint chunk-ownership probability `Ψ(π_j, π_k)` is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PsiEstimator {
    /// Independence approximation: `Ψ = (ν_j / N)(ν_k / N)` where `N` is
    /// the expected channel population. Cheap and the default.
    #[default]
    Independent,
    /// Path-based: the probability that a random viewer trajectory through
    /// the chunk Markov chain visits both queues, computed exactly from
    /// hit-before and hitting probabilities. Captures the strong positive
    /// correlation of sequential viewing.
    PathBased,
}

/// Result of the P2P capacity analysis for one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2pCapacity {
    /// The underlying client–server demand (arrival rates, `m_i`, `s_i`).
    pub demand: CapacityDemand,
    /// Expected replica count `E(ν_i)` per chunk — peers elsewhere in the
    /// channel who buffer chunk `i` (paper Eqn. 4).
    pub replicas: Vec<f64>,
    /// Expected peer upload contribution `E(Γ_i)` per chunk, bytes/s
    /// (paper Eqn. 5).
    pub peer_contribution: Vec<f64>,
    /// Expected capacity the cloud must supply per chunk,
    /// `E(Δ_i) = R·m_i − E(Γ_i)`, bytes/s.
    pub cloud_demand: Vec<f64>,
}

impl P2pCapacity {
    /// Total cloud demand across chunks, bytes per second.
    pub fn total_cloud_demand(&self) -> f64 {
        self.cloud_demand.iter().sum()
    }

    /// Total peer contribution across chunks, bytes per second.
    pub fn total_peer_contribution(&self) -> f64 {
        self.peer_contribution.iter().sum()
    }
}

/// Derives the expected replica matrix `E(ν_ij)` — peers in queue `j` who
/// have buffered chunk `i` — by solving Proposition 1's fixed point
/// `E(ν_ij) = Σ_l E(ν_il) P_lj (j ≠ i)` with `E(ν_ii) = E(n_i)`, one
/// linear system per chunk `i`.
///
/// All `J` per-chunk systems are principal submatrices of the same
/// `M = I − Pᵀ` (row/column `i` deleted), so instead of `J` independent
/// `O(J³)` eliminations this factorizes `M` **once**, solves its `J`
/// inverse columns in one multi-right-hand-side sweep, and recovers each
/// deleted-row solution with a Sherman–Morrison rank-one update in
/// `O(J²)` — `O(J³ + J·J²)` total. The controller's per-channel analysis
/// pass runs the same updates on the inverse columns it already solved
/// alongside the traffic equations, so `M` is factored once per channel
/// and interval. An ill-conditioned update (denominator collapse, never
/// observed for substochastic routing) falls back to the direct
/// per-chunk elimination, and so does a singular `M`.
///
/// Returns the full matrix (row `i`, column `j`).
///
/// # Errors
///
/// Propagates routing validation and solver failures.
pub fn replica_matrix(
    routing: &[Vec<f64>],
    expected_in_queue: &[f64],
) -> Result<Vec<Vec<f64>>, CoreError> {
    let j_count = routing.len();
    if expected_in_queue.len() != j_count {
        return Err(invalid_param(
            "expected_in_queue",
            format!(
                "expected {j_count} entries, got {}",
                expected_in_queue.len()
            ),
        ));
    }
    let checked = RoutingMatrix::from_rows(routing)?;
    if j_count == 1 {
        return Ok(vec![vec![expected_in_queue[0]]]);
    }
    let p = checked.as_matrix().as_slice();
    let mut result = Vec::with_capacity(j_count);
    match checked.traffic_matrix().lu() {
        Ok(lu) => replicas_from_inverse(
            p,
            &lu.inverse_columns(),
            expected_in_queue,
            &mut Vec::new(),
            &mut Vec::new(),
            |_, row| result.push(row.to_vec()),
        )?,
        Err(_) => {
            // M = I − Pᵀ is singular for perfectly recirculating routing
            // (row sums exactly 1, no departures) — a valid input whose
            // *deleted* per-chunk systems are still well posed. Solve them
            // directly, as the original algorithm did.
            for (i, &occupancy) in expected_in_queue.iter().enumerate() {
                SHERMAN_MORRISON_FALLBACKS.inc();
                let mut row = vec![0.0; j_count];
                replica_row_direct(p, occupancy, i, &mut row)?;
                result.push(row);
            }
        }
    }
    Ok(result)
}

/// Proposition 1 from the columns of `M⁻¹` (`inv[i·n..(i + 1)·n]` is
/// `M⁻¹ e_i`) and the row-major `n × n` routing `p`: one
/// Sherman–Morrison deleted-row update per chunk, handing row `i` of the
/// replica matrix to `each_row` in chunk order. `z` and `row` are
/// working space. The solver counters are added once, when the rows are
/// done or a fallback fails.
fn replicas_from_inverse(
    p: &[f64],
    inv: &[f64],
    expected_in_queue: &[f64],
    z: &mut Vec<f64>,
    row: &mut Vec<f64>,
    mut each_row: impl FnMut(usize, &[f64]),
) -> Result<(), CoreError> {
    let n = expected_in_queue.len();
    if n == 1 {
        each_row(0, expected_in_queue);
        return Ok(());
    }
    row.clear();
    row.resize(n, 0.0);
    z.clear();
    z.resize(n, 0.0);
    let (mut updates, mut fallbacks) = (0, 0);
    let mut outcome = Ok(());
    for (i, &occupancy) in expected_in_queue.iter().enumerate() {
        // Deleting row/column i of M equals replacing row i by e_iᵀ and
        // pinning x_i = 0: M' = M + e_i vᵀ with v_l = P_li (column i of
        // the routing matrix). Solve M' y = c, c_j = P_ij (j ≠ i),
        // c_i = 0, then scale by E(n_i) — the RHS is linear in it.
        z.fill(0.0);
        for (j, &c_j) in p[i * n..(i + 1) * n].iter().enumerate() {
            if j == i || c_j == 0.0 {
                continue;
            }
            let col = &inv[j * n..(j + 1) * n];
            for (zk, &ck) in z.iter_mut().zip(col) {
                *zk += c_j * ck;
            }
        }
        let inv_i = &inv[i * n..(i + 1) * n];
        let mut v_dot_z = 0.0;
        let mut v_dot_inv_i = 0.0;
        for ((p_l, &z_l), &inv_l) in p.chunks_exact(n).zip(z.iter()).zip(inv_i) {
            let v_l = p_l[i];
            v_dot_z += v_l * z_l;
            v_dot_inv_i += v_l * inv_l;
        }
        let denom = 1.0 + v_dot_inv_i;
        if denom.abs() < 1e-10 {
            // Rank-one update degenerate: solve this row's deleted
            // system directly (never hit for valid routing; kept as a
            // correctness backstop).
            fallbacks += 1;
            if let Err(e) = replica_row_direct(p, occupancy, i, row) {
                outcome = Err(e);
                break;
            }
        } else {
            updates += 1;
            let correction = v_dot_z / denom;
            for (out_j, (&z_j, &inv_ij)) in row.iter_mut().zip(z.iter().zip(inv_i)) {
                *out_j = (occupancy * (z_j - correction * inv_ij)).max(0.0);
            }
            row[i] = occupancy;
        }
        each_row(i, row);
    }
    SHERMAN_MORRISON_UPDATES.add(updates);
    if fallbacks > 0 {
        SHERMAN_MORRISON_FALLBACKS.add(fallbacks);
    }
    outcome
}

/// Direct elimination fallback for one row of [`replica_matrix`]: the
/// original per-chunk deleted-system solve, on the row-major routing
/// `p` of `out.len()` chunks.
#[allow(clippy::needless_range_loop)] // index math mirrors the paper's equations
fn replica_row_direct(
    p: &[f64],
    occupancy: f64,
    i: usize,
    out: &mut [f64],
) -> Result<(), CoreError> {
    let j_count = out.len();
    let n = j_count - 1;
    let map = |j: usize| if j < i { j } else { j - 1 };
    let mut a = Matrix::identity(n);
    let mut b = vec![0.0; n];
    for j in 0..j_count {
        if j == i {
            continue;
        }
        let row = map(j);
        // x_j - sum_{l != i} P_lj x_l = E(n_i) P_ij
        for l in 0..j_count {
            if l == i {
                continue;
            }
            a[(row, map(l))] -= p[l * j_count + j];
        }
        b[row] = occupancy * p[i * j_count + j];
    }
    let x = a.solve(&b).map_err(CoreError::from)?;
    out[i] = occupancy;
    for j in 0..j_count {
        if j != i {
            out[j] = x[map(j)].max(0.0);
        }
    }
    Ok(())
}

/// Expected total replica count of chunk `i` from row `i` of the replica
/// matrix: `E(ν_i) = Σ_{j≠i} E(ν_ij)` (paper Eqn. 4 — peers *currently
/// downloading* chunk `i` are not counted as suppliers).
fn replica_count(i: usize, row: &[f64]) -> f64 {
    row.iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, &v)| v)
        .sum()
}

/// Writes the path-based estimate of the expected number of peers owning
/// **both** chunks of every pair, `Ψ(j, k) · N`, into `dual`, row-major
/// `n × n`. (The independence estimate is a product the waterfilling
/// evaluates where it needs it.)
fn path_based_ownership(
    channel: &ChannelModel,
    replicas: &[f64],
    population: f64,
    dual: &mut Vec<f64>,
) -> Result<(), CoreError> {
    let j_count = channel.chunks();
    dual.clear();
    dual.resize(j_count * j_count, 0.0);
    let routing = RoutingMatrix::from_rows(&channel.routing)?;
    let chain = AbsorbingChain::new(routing)?;
    // Start distribution: alpha at chunk 0, uniform elsewhere.
    let mut start = vec![0.0; j_count];
    if j_count == 1 {
        start[0] = 1.0;
    } else {
        start[0] = channel.alpha;
        let rest = (1.0 - channel.alpha) / (j_count - 1) as f64;
        for s in start.iter_mut().skip(1) {
            *s = rest;
        }
    }
    for j in 0..j_count {
        for k in (j + 1)..j_count {
            let psi = chain.visits_both(&start, j, k)?;
            let owners = psi * population;
            // Cannot exceed either chunk's replica pool.
            let capped = owners.min(replicas[j]).min(replicas[k]);
            dual[j * j_count + k] = capped;
            dual[k * j_count + j] = capped;
        }
    }
    Ok(())
}

/// Full P2P capacity analysis of one channel: client–server demand, the
/// Proposition 1 replica counts, the Eqn. 5 rarest-first waterfilling of
/// peer bandwidth, and the resulting cloud demand `Δ_i`.
///
/// `mean_upload` is the average per-peer upload capacity `u` in bytes per
/// second (the paper's homogeneous-upload simplification; use the mean of
/// the Pareto distribution for the heterogeneous experiments).
///
/// # Errors
///
/// Propagates validation, queueing, and solver failures; rejects
/// non-positive `mean_upload`.
pub fn p2p_capacity(
    channel: &ChannelModel,
    mean_upload: f64,
    estimator: PsiEstimator,
) -> Result<P2pCapacity, CoreError> {
    p2p_capacity_with(channel, mean_upload, estimator, DemandPooling::PerChunk)
}

/// Options bundle for [`p2p_capacity_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct P2pAnalysisOptions {
    /// Joint-ownership estimator for the waterfilling deduction.
    pub psi: PsiEstimator,
    /// Demand pooling of the baseline capacity.
    pub pooling: DemandPooling,
    /// Retrieval-time guarantee of the baseline capacity.
    pub target: ProvisioningTarget,
}

/// Like [`p2p_capacity`], with an explicit demand-pooling model: the
/// waterfilling (Eqn. 5) always uses the per-chunk queueing quantities,
/// while the baseline capacity the peers offset can be per-chunk
/// (paper-literal) or channel-pooled (fractional VM sharing; see
/// [`pooled_capacity_demand`](crate::analysis::client_server::pooled_capacity_demand)).
///
/// # Errors
///
/// Propagates validation, queueing, and solver failures.
pub fn p2p_capacity_with(
    channel: &ChannelModel,
    mean_upload: f64,
    estimator: PsiEstimator,
    pooling: DemandPooling,
) -> Result<P2pCapacity, CoreError> {
    p2p_capacity_opts(
        channel,
        mean_upload,
        P2pAnalysisOptions {
            psi: estimator,
            pooling,
            target: ProvisioningTarget::MeanSojourn,
        },
    )
}

/// Full-control variant of [`p2p_capacity`]: estimator, pooling, and the
/// retrieval-time guarantee of the baseline capacity.
///
/// # Errors
///
/// Propagates validation, queueing, and solver failures.
pub fn p2p_capacity_opts(
    channel: &ChannelModel,
    mean_upload: f64,
    opts: P2pAnalysisOptions,
) -> Result<P2pCapacity, CoreError> {
    if !(mean_upload.is_finite() && mean_upload >= 0.0) {
        return Err(invalid_param(
            "mean_upload",
            format!("must be finite and non-negative, got {mean_upload}"),
        ));
    }
    p2p_capacity_hetero(
        channel,
        &[UploadClass {
            share: 1.0,
            upload: mean_upload,
        }],
        opts,
    )
}

/// One peer upload class for the heterogeneous-bandwidth analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UploadClass {
    /// Fraction of the peer population in this class, in `(0, 1]`.
    pub share: f64,
    /// Per-peer upload capacity of the class, bytes per second.
    pub upload: f64,
}

/// Heterogeneous-bandwidth P2P capacity analysis — the extension the
/// paper sketches ("the analysis can be readily extended to cases with
/// heterogeneous bandwidths"). Peer classes are assumed independent of
/// viewing position, so each chunk's replica pool splits across classes
/// by population share; the rarest-first waterfilling then draws from
/// richer classes first, deducting dual-ownership commitments per class.
///
/// With a single class this reduces exactly to [`p2p_capacity_opts`].
///
/// # Errors
///
/// Propagates validation, queueing, and solver failures; rejects empty or
/// malformed class lists (shares must be positive and sum to 1).
pub fn p2p_capacity_hetero(
    channel: &ChannelModel,
    classes: &[UploadClass],
    opts: P2pAnalysisOptions,
) -> Result<P2pCapacity, CoreError> {
    validate_classes(classes)?;
    let mut scratch = PassScratch::default();
    let mut pass = ChannelPass::new(channel, true, &mut scratch)?;
    let demand = pass.per_chunk(ProvisioningTarget::MeanSojourn)?.clone();
    pass.peer_supply(classes, opts.psi)?;
    let baseline = match (opts.pooling, opts.target) {
        (DemandPooling::PerChunk, ProvisioningTarget::MeanSojourn) => demand.upload_demand.clone(),
        (pooling, target) => pass.baseline(pooling, target)?.upload_demand.clone(),
    };
    let supply = std::mem::take(&mut scratch.supply);
    Ok(P2pCapacity {
        cloud_demand: baseline
            .iter()
            .zip(&supply.contribution)
            .map(|(&b, &g)| cloud_share(b, g))
            .collect(),
        demand,
        replicas: supply.replicas,
        peer_contribution: supply.contribution,
    })
}

/// Checks a peer upload class list: non-empty, shares in `(0, 1]`
/// summing to 1, finite non-negative uploads.
pub(crate) fn validate_classes(classes: &[UploadClass]) -> Result<(), CoreError> {
    if classes.is_empty() {
        return Err(invalid_param(
            "classes",
            "at least one upload class required",
        ));
    }
    let mut share_sum = 0.0;
    for c in classes {
        if !(c.share > 0.0 && c.share <= 1.0) {
            return Err(invalid_param(
                "classes",
                format!("share must be in (0, 1], got {}", c.share),
            ));
        }
        if !(c.upload.is_finite() && c.upload >= 0.0) {
            return Err(invalid_param(
                "classes",
                format!("upload must be finite and non-negative, got {}", c.upload),
            ));
        }
        share_sum += c.share;
    }
    if (share_sum - 1.0).abs() > 1e-9 {
        return Err(invalid_param(
            "classes",
            format!("shares must sum to 1, got {share_sum}"),
        ));
    }
    Ok(())
}

/// What the peers of one channel supply: the Proposition 1 replica
/// counts and the Eqn. 5 waterfilled contribution per chunk.
#[derive(Debug, Default)]
pub(crate) struct PeerSupply {
    /// Expected replica count `E(ν_i)` per chunk.
    pub(crate) replicas: Vec<f64>,
    /// Expected peer upload contribution `E(Γ_i)` per chunk, bytes/s.
    pub(crate) contribution: Vec<f64>,
}

/// The cloud's share of a chunk's baseline capacity `s_i` when its peers
/// supply `Γ_i`: `Δ_i = (s_i − Γ_i)⁺`.
pub(crate) fn cloud_share(baseline: f64, peers: f64) -> f64 {
    (baseline - peers).max(0.0)
}

impl ChannelPass<'_> {
    /// The P2P half of the analysis: replica counts from the inverse
    /// columns this pass solved (Proposition 1), joint ownership, and
    /// the rarest-first waterfilling of the classes' upload (Eqn. 5).
    /// `classes` must have passed [`validate_classes`].
    ///
    /// # Errors
    ///
    /// Propagates solver failures of the path-based estimator.
    ///
    /// # Panics
    ///
    /// Panics if the pass was built without the inverse columns.
    pub(crate) fn peer_supply(
        &mut self,
        classes: &[UploadClass],
        estimator: PsiEstimator,
    ) -> Result<&PeerSupply, CoreError> {
        let channel = self.channel;
        let j_count = channel.chunks();
        let s = &mut *self.scratch;
        assert_eq!(
            s.traffic.inverse_columns().len(),
            j_count * j_count,
            "peer supply needs a pass with the inverse columns"
        );
        // Equilibrium chunk-queue occupancy: the paper derives m_i from
        // `E(n_i) = λ_i T0` (mean sojourn pinned to the playback time), so
        // in its equilibrium each chunk queue holds λ_i·T0 viewers — these
        // are the future owners Proposition 1 propagates. (Our integer m_i
        // gives sojourn ≤ T0, so the raw M/M/m occupancy would undercount
        // owners.)
        let occupancy = &mut s.occupancy;
        occupancy.clear();
        occupancy.extend(
            s.traffic
                .arrival_rates()
                .iter()
                .map(|&l| l * channel.chunk_seconds),
        );
        let replicas = &mut s.supply.replicas;
        replicas.clear();
        replicas_from_inverse(
            &s.routing,
            s.traffic.inverse_columns(),
            occupancy,
            &mut s.z,
            &mut s.replica_row,
            |i, row| replicas.push(replica_count(i, row)),
        )?;
        let population: f64 = occupancy.iter().sum();
        if estimator == PsiEstimator::PathBased {
            path_based_ownership(channel, replicas, population, &mut s.dual)?;
        }
        let dual = &s.dual;
        // Expected joint owners of chunks j ≠ k, `Ψ(j, k) · N`.
        let joint = |j: usize, k: usize| match estimator {
            PsiEstimator::Independent if population > 0.0 => replicas[j] * replicas[k] / population,
            PsiEstimator::Independent => 0.0,
            PsiEstimator::PathBased => dual[j * j_count + k],
        };

        // Rarest first: ascending replica count.
        let order = &mut s.order;
        order.clear();
        order.extend(0..j_count);
        order.sort_by(|&a, &b| {
            replicas[a]
                .partial_cmp(&replicas[b])
                .expect("replica counts are finite")
        });

        let r = channel.streaming_rate;
        // Richer classes are drawn from first at each chunk.
        let class_order = &mut s.class_order;
        class_order.clear();
        class_order.extend(0..classes.len());
        class_order.sort_by(|&a, &b| {
            classes[b]
                .upload
                .partial_cmp(&classes[a].upload)
                .expect("uploads are finite")
        });
        // Per-class peer contribution to each chunk: chunk k's share from
        // class ci at `k·n_classes + ci`.
        let n_classes = classes.len();
        let gamma_class = &mut s.gamma_class;
        gamma_class.clear();
        gamma_class.resize(j_count * n_classes, 0.0);
        let gamma = &mut s.supply.contribution;
        gamma.clear();
        gamma.resize(j_count, 0.0);
        for (pos, &k) in order.iter().enumerate() {
            // Demand-side cap (paper Eqn. 5's "bandwidth demand to address
            // its download requests"): the chunk's concurrent downloaders,
            // each consuming at the streaming rate — `E(n_k)·r =
            // λ_k·T0·r`. Peer service never exceeds the chunk's streaming
            // throughput; the cloud keeps the remaining capacity as the
            // quality margin.
            let mut room = occupancy[k] * r;
            for &ci in class_order.iter() {
                if room <= 0.0 {
                    break;
                }
                let class = &classes[ci];
                // Supply from this class's owners of chunk k, minus
                // bandwidth those owners already promised to rarer chunks.
                let mut supply = replicas[k] * class.share * class.upload;
                for &j in &order[..pos] {
                    let promised = gamma_class[j * n_classes + ci];
                    if replicas[j] <= 0.0 || promised <= 0.0 {
                        continue;
                    }
                    // joint(j, k)·share peers of this class own both; each
                    // gives promised / (nu_j · share) to chunk j.
                    supply -= joint(j, k) * promised / replicas[j];
                }
                let take = supply.max(0.0).min(room);
                gamma_class[k * n_classes + ci] = take;
                gamma[k] += take;
                room -= take;
            }
        }
        Ok(&s.supply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(rate: f64) -> ChannelModel {
        ChannelModel::paper_default(0, rate)
    }

    #[test]
    fn replica_matrix_satisfies_proposition_1() {
        let c = channel(0.8);
        let d = capacity_demand(&c).unwrap();
        let m = replica_matrix(&c.routing, &d.expected_in_queue).unwrap();
        let j = c.chunks();
        #[allow(clippy::needless_range_loop)]
        for i in 0..j {
            assert!(
                (m[i][i] - d.expected_in_queue[i]).abs() < 1e-9,
                "nu_ii = E(n_i)"
            );
            for col in 0..j {
                if col == i {
                    continue;
                }
                let rhs: f64 = (0..j).map(|l| m[i][l] * c.routing[l][col]).sum();
                assert!(
                    (m[i][col] - rhs).abs() < 1e-8,
                    "Prop 1 violated at ({i},{col}): {} vs {rhs}",
                    m[i][col]
                );
            }
        }
    }

    #[test]
    fn replica_matrix_handles_singular_recirculating_routing() {
        // Perfectly recirculating routing (row sums exactly 1, no
        // departures) makes the full M = I − Pᵀ singular, but every
        // *deleted* per-chunk system is still well posed; the LU +
        // Sherman–Morrison fast path must fall back to the direct
        // per-row elimination instead of erroring.
        let routing = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let occupancy = vec![3.0, 5.0];
        let m = replica_matrix(&routing, &occupancy).unwrap();
        assert_eq!(m[0][0], 3.0);
        assert_eq!(m[1][1], 5.0);
        // Row 0's deleted system: x_1 = E(n_0)·P_01 = 3 (no other
        // chunks feed chunk 1 once chunk 0's queue is pinned).
        assert!((m[0][1] - 3.0).abs() < 1e-9, "got {}", m[0][1]);
        assert!((m[1][0] - 5.0).abs() < 1e-9, "got {}", m[1][0]);
    }

    #[test]
    fn replicas_nonnegative_and_scale_with_load() {
        let lo = p2p_capacity(&channel(0.2), 50_000.0, PsiEstimator::Independent).unwrap();
        let hi = p2p_capacity(&channel(1.0), 50_000.0, PsiEstimator::Independent).unwrap();
        assert!(lo.replicas.iter().all(|&v| v >= 0.0));
        let lo_total: f64 = lo.replicas.iter().sum();
        let hi_total: f64 = hi.replicas.iter().sum();
        assert!(hi_total > lo_total);
    }

    #[test]
    fn early_chunks_have_more_replicas_under_sequential_viewing() {
        let p = p2p_capacity(&channel(1.0), 50_000.0, PsiEstimator::Independent).unwrap();
        // Sequential watchers accumulate early chunks; chunk 0 is owned by
        // nearly everyone downstream.
        assert!(
            p.replicas[0] > p.replicas[15],
            "chunk 0 replicas {} vs chunk 15 {}",
            p.replicas[0],
            p.replicas[15]
        );
    }

    #[test]
    fn cloud_demand_at_most_client_server_demand() {
        let cs = capacity_demand(&channel(0.8)).unwrap();
        let p2p = p2p_capacity(&channel(0.8), 50_000.0, PsiEstimator::Independent).unwrap();
        for i in 0..cs.upload_demand.len() {
            assert!(p2p.cloud_demand[i] <= cs.upload_demand[i] + 1e-9);
        }
        assert!(p2p.total_cloud_demand() < cs.total_upload_demand());
    }

    #[test]
    fn zero_upload_peers_contribute_nothing() {
        let p = p2p_capacity(&channel(0.8), 0.0, PsiEstimator::Independent).unwrap();
        assert_eq!(p.total_peer_contribution(), 0.0);
        for (d, s) in p.cloud_demand.iter().zip(&p.demand.upload_demand) {
            assert!((d - s).abs() < 1e-9, "cloud covers everything");
        }
    }

    #[test]
    fn richer_peers_reduce_cloud_demand() {
        let poor = p2p_capacity(&channel(0.8), 45_000.0, PsiEstimator::Independent).unwrap();
        let rich = p2p_capacity(&channel(0.8), 60_000.0, PsiEstimator::Independent).unwrap();
        assert!(rich.total_cloud_demand() <= poor.total_cloud_demand() + 1e-9);
        assert!(rich.total_peer_contribution() >= poor.total_peer_contribution() - 1e-9);
    }

    #[test]
    fn peer_contribution_capped_by_streaming_demand() {
        let c = channel(0.8);
        let p = p2p_capacity(&c, 1e9, PsiEstimator::Independent).unwrap();
        for (i, &g) in p.peer_contribution.iter().enumerate() {
            // Cap: concurrent downloaders (lambda_i T0) at streaming rate.
            let cap = p.demand.arrival_rates[i] * c.chunk_seconds * c.streaming_rate;
            assert!(g <= cap + 1e-6, "chunk {i}: gamma {g} above cap {cap}");
        }
    }

    #[test]
    fn sufficient_peers_cover_most_streaming_demand() {
        // With mean upload above the streaming rate, peers should cover
        // the bulk of the streaming throughput (the paper's ~10x cloud
        // cost reduction), leaving the cloud mostly the queueing margin.
        let c = channel(0.8);
        let p = p2p_capacity_with(
            &c,
            60_000.0, // 1.2x streaming rate
            PsiEstimator::Independent,
            DemandPooling::ChannelPooled,
        )
        .unwrap();
        let pooled = pooled_capacity_demand(&c).unwrap();
        assert!(
            p.total_cloud_demand() < 0.35 * pooled.total_upload_demand(),
            "cloud {c} vs pooled baseline {b}",
            c = p.total_cloud_demand(),
            b = pooled.total_upload_demand()
        );
    }

    #[test]
    fn path_based_psi_also_produces_valid_allocation() {
        let c = channel(0.8);
        let ind = p2p_capacity(&c, 50_000.0, PsiEstimator::Independent).unwrap();
        let path = p2p_capacity(&c, 50_000.0, PsiEstimator::PathBased).unwrap();
        for p in [&ind, &path] {
            assert!(p.peer_contribution.iter().all(|&g| g >= 0.0));
            assert!(p.cloud_demand.iter().all(|&d| d >= 0.0));
        }
        // Path-based sees stronger ownership overlap (sequential viewing),
        // so it deducts at least as much shared bandwidth: peers appear
        // less plentiful, cloud demand does not shrink.
        assert!(
            path.total_peer_contribution() <= ind.total_peer_contribution() + 1e-6,
            "path {p} vs independent {i}",
            p = path.total_peer_contribution(),
            i = ind.total_peer_contribution()
        );
    }

    #[test]
    fn zero_arrival_channel_needs_nothing() {
        let p = p2p_capacity(&channel(0.0), 50_000.0, PsiEstimator::Independent).unwrap();
        assert_eq!(p.total_cloud_demand(), 0.0);
        assert_eq!(p.total_peer_contribution(), 0.0);
    }

    #[test]
    fn single_chunk_channel_replicas_are_zero() {
        // With one chunk there are no "peers in other queues" to supply it.
        let c = ChannelModel {
            id: 0,
            streaming_rate: 50_000.0,
            chunk_seconds: 300.0,
            vm_bandwidth: 1.25e6,
            arrival_rate: 1.0,
            alpha: 1.0,
            routing: vec![vec![0.0]],
        };
        let p = p2p_capacity(&c, 50_000.0, PsiEstimator::Independent).unwrap();
        assert_eq!(p.replicas, vec![0.0]);
        assert_eq!(p.total_peer_contribution(), 0.0);
    }

    #[test]
    fn single_class_hetero_equals_homogeneous() {
        let c = channel(0.8);
        let opts = P2pAnalysisOptions::default();
        let homo = p2p_capacity_opts(&c, 40_000.0, opts).unwrap();
        let hetero = p2p_capacity_hetero(
            &c,
            &[UploadClass {
                share: 1.0,
                upload: 40_000.0,
            }],
            opts,
        )
        .unwrap();
        assert_eq!(homo, hetero);
    }

    #[test]
    fn mean_preserving_spread_changes_little_but_stays_valid() {
        // Two classes with the same mean as the homogeneous case.
        let c = channel(0.8);
        let opts = P2pAnalysisOptions::default();
        let homo = p2p_capacity_opts(&c, 40_000.0, opts).unwrap();
        let hetero = p2p_capacity_hetero(
            &c,
            &[
                UploadClass {
                    share: 0.5,
                    upload: 20_000.0,
                },
                UploadClass {
                    share: 0.5,
                    upload: 60_000.0,
                },
            ],
            opts,
        )
        .unwrap();
        assert!(hetero.peer_contribution.iter().all(|&g| g >= 0.0));
        assert!(hetero.cloud_demand.iter().all(|&d| d >= 0.0));
        // Same aggregate supply: totals within 20% of the homogeneous case.
        let ratio = hetero.total_peer_contribution() / homo.total_peer_contribution();
        assert!((0.8..=1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn richer_class_mix_contributes_more() {
        let c = channel(0.8);
        let opts = P2pAnalysisOptions::default();
        let poor = p2p_capacity_hetero(
            &c,
            &[
                UploadClass {
                    share: 0.8,
                    upload: 10_000.0,
                },
                UploadClass {
                    share: 0.2,
                    upload: 30_000.0,
                },
            ],
            opts,
        )
        .unwrap();
        let rich = p2p_capacity_hetero(
            &c,
            &[
                UploadClass {
                    share: 0.8,
                    upload: 30_000.0,
                },
                UploadClass {
                    share: 0.2,
                    upload: 90_000.0,
                },
            ],
            opts,
        )
        .unwrap();
        assert!(rich.total_peer_contribution() > poor.total_peer_contribution());
        assert!(rich.total_cloud_demand() < poor.total_cloud_demand());
    }

    #[test]
    fn hetero_rejects_bad_classes() {
        let c = channel(0.5);
        let opts = P2pAnalysisOptions::default();
        assert!(p2p_capacity_hetero(&c, &[], opts).is_err());
        assert!(
            p2p_capacity_hetero(
                &c,
                &[UploadClass {
                    share: 0.5,
                    upload: 1e4
                }],
                opts
            )
            .is_err(),
            "shares must sum to 1"
        );
        assert!(p2p_capacity_hetero(
            &c,
            &[
                UploadClass {
                    share: 0.5,
                    upload: 1e4
                },
                UploadClass {
                    share: 0.5,
                    upload: -1.0
                },
            ],
            opts
        )
        .is_err());
    }

    #[test]
    fn invalid_upload_rejected() {
        assert!(p2p_capacity(&channel(0.5), -1.0, PsiEstimator::Independent).is_err());
        assert!(p2p_capacity(&channel(0.5), f64::NAN, PsiEstimator::Independent).is_err());
    }

    #[test]
    fn replica_matrix_rejects_mismatched_input() {
        let c = channel(0.5);
        assert!(replica_matrix(&c.routing, &[1.0, 2.0]).is_err());
    }
}
