//! Client–server capacity analysis (paper Sec. IV-B).
//!
//! For each chunk queue the analysis derives the minimum number of
//! queueing-theoretic servers `m_i` (each mapping to one VM's bandwidth
//! `R`) such that the mean sojourn time — waiting plus download — does not
//! exceed the chunk playback time `T0`, which is the smooth-playback
//! condition. The cloud must then supply `Δ_i = R · m_i` of upload
//! capacity for chunk `i`.

use cloudmedia_queueing::mmm::{
    min_servers_for_sojourn, min_servers_for_sojourn_quantile, MmmQueue,
};
use serde::{Deserialize, Serialize};

use crate::analysis::pass::{ChannelPass, PassScratch};
use crate::channel::ChannelModel;
use crate::error::{invalid_param, CoreError};

/// What the per-queue server count must guarantee about chunk retrieval
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ProvisioningTarget {
    /// The paper's criterion: mean sojourn time at most `T0`.
    #[default]
    MeanSojourn,
    /// Tail-aware extension: `P(sojourn > T0) <= epsilon`, bounding the
    /// fraction of late chunk retrievals (and hence unsmooth playback)
    /// directly rather than through the mean.
    SojournQuantile {
        /// Allowed probability of exceeding the playback window.
        epsilon: f64,
    },
}

impl ProvisioningTarget {
    fn min_servers(&self, lambda: f64, mu: f64, t0: f64) -> Result<usize, CoreError> {
        match *self {
            ProvisioningTarget::MeanSojourn => Ok(min_servers_for_sojourn(lambda, mu, t0)?),
            ProvisioningTarget::SojournQuantile { epsilon } => {
                if !(epsilon > 0.0 && epsilon < 1.0) {
                    return Err(invalid_param(
                        "epsilon",
                        format!("must be in (0, 1), got {epsilon}"),
                    ));
                }
                Ok(min_servers_for_sojourn_quantile(lambda, mu, t0, epsilon)?)
            }
        }
    }
}

/// Equilibrium capacity demand of one channel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CapacityDemand {
    /// Channel this demand belongs to.
    pub channel: usize,
    /// Aggregate arrival rate `λ_i` per chunk (paper Eqn. 1).
    pub arrival_rates: Vec<f64>,
    /// Required servers `m_i` per chunk.
    pub servers: Vec<usize>,
    /// Expected users in each chunk queue, `E(n_i)` (paper Eqn. 3).
    pub expected_in_queue: Vec<f64>,
    /// Total upload bandwidth needed per chunk, `s_i = R · m_i`, bytes/s.
    pub upload_demand: Vec<f64>,
}

impl CapacityDemand {
    /// Total upload bandwidth across chunks, bytes per second.
    pub fn total_upload_demand(&self) -> f64 {
        self.upload_demand.iter().sum()
    }

    /// Total server count across chunks.
    pub fn total_servers(&self) -> usize {
        self.servers.iter().sum()
    }
}

/// Derives the equilibrium capacity demand for a channel: per-chunk
/// `λ_i` via the traffic equations, then the minimal `m_i` with mean
/// sojourn `≤ T0`, then `s_i = R m_i`.
///
/// In the client–server model the cloud supplies all of `s_i`
/// (`Δ_i = s_i`); the P2P analysis subtracts the peer contribution.
///
/// # Errors
///
/// Propagates validation and queueing failures (e.g. `T0` below the mean
/// chunk service time, which violates the paper's `R > r` assumption).
pub fn capacity_demand(channel: &ChannelModel) -> Result<CapacityDemand, CoreError> {
    capacity_demand_with_target(channel, ProvisioningTarget::MeanSojourn)
}

/// Like [`capacity_demand`], with an explicit retrieval-time guarantee
/// (the paper's mean criterion or the quantile extension).
///
/// # Errors
///
/// Propagates validation and queueing failures.
pub fn capacity_demand_with_target(
    channel: &ChannelModel,
    target: ProvisioningTarget,
) -> Result<CapacityDemand, CoreError> {
    let mut scratch = PassScratch::default();
    ChannelPass::new(channel, false, &mut scratch)?.per_chunk(target)?;
    Ok(scratch.demand)
}

/// Channel-pooled capacity demand: the paper allows a fractional VM to
/// serve several (preferably consecutive) chunks of one channel, so the
/// channel's chunk queues share a pooled server fleet. We size one M/M/m
/// pool for the channel's total chunk-request rate `Σ λ_i` (sojourn target
/// `T0`) and apportion its bandwidth to chunks in proportion to `λ_i`.
///
/// Without pooling, every active chunk needs at least one dedicated VM
/// (`m_i ≥ 1`), which with 20 channels × 20 chunks already exceeds the
/// paper's 150-VM fleet — pooling is what makes the paper's Fig. 4 scale
/// (and its Fig. 7 *linear* bandwidth-vs-users relation) reproducible.
///
/// # Errors
///
/// Propagates validation and queueing failures.
pub fn pooled_capacity_demand(channel: &ChannelModel) -> Result<CapacityDemand, CoreError> {
    pooled_capacity_demand_with_target(channel, ProvisioningTarget::MeanSojourn)
}

/// Like [`pooled_capacity_demand`], with an explicit retrieval-time
/// guarantee for the channel pool.
///
/// # Errors
///
/// Propagates validation and queueing failures.
pub fn pooled_capacity_demand_with_target(
    channel: &ChannelModel,
    target: ProvisioningTarget,
) -> Result<CapacityDemand, CoreError> {
    let mut scratch = PassScratch::default();
    ChannelPass::new(channel, false, &mut scratch)?.pooled(target)?;
    Ok(scratch.demand)
}

impl ChannelPass<'_> {
    /// Paper-literal sizing: the minimal `m_i` per chunk queue for the
    /// retrieval-time guarantee, and `s_i = R m_i`.
    ///
    /// # Errors
    ///
    /// Propagates queueing failures.
    pub(crate) fn per_chunk(
        &mut self,
        target: ProvisioningTarget,
    ) -> Result<&CapacityDemand, CoreError> {
        let channel = self.channel;
        let lambdas = self.scratch.traffic.arrival_rates();
        let mu = channel.service_rate();
        let t0 = channel.chunk_seconds;
        let d = &mut self.scratch.demand;
        d.channel = channel.id;
        d.arrival_rates.clear();
        d.arrival_rates.extend_from_slice(lambdas);
        d.servers.clear();
        d.expected_in_queue.clear();
        d.upload_demand.clear();
        for &lambda in lambdas {
            let m = target.min_servers(lambda, mu, t0)?;
            let e_n = if m == 0 {
                0.0
            } else {
                MmmQueue::new(lambda, mu, m)?.expected_in_system()
            };
            d.servers.push(m);
            d.expected_in_queue.push(e_n);
            d.upload_demand.push(m as f64 * channel.vm_bandwidth);
        }
        Ok(d)
    }

    /// Channel-pooled sizing: one M/M/m fleet for `Σ λ_i`, apportioned
    /// to chunks by load (see [`pooled_capacity_demand`]).
    ///
    /// # Errors
    ///
    /// Propagates queueing failures.
    pub(crate) fn pooled(
        &mut self,
        target: ProvisioningTarget,
    ) -> Result<&CapacityDemand, CoreError> {
        let channel = self.channel;
        let lambdas = self.scratch.traffic.arrival_rates();
        let mu = channel.service_rate();
        let t0 = channel.chunk_seconds;
        let total_lambda: f64 = lambdas.iter().sum();
        let pool_servers = target.min_servers(total_lambda, mu, t0)?;
        let pool_bandwidth = pool_servers as f64 * channel.vm_bandwidth;

        let d = &mut self.scratch.demand;
        d.channel = channel.id;
        d.arrival_rates.clear();
        d.arrival_rates.extend_from_slice(lambdas);
        for v in [&mut d.expected_in_queue, &mut d.upload_demand] {
            v.clear();
            v.resize(lambdas.len(), 0.0);
        }
        d.servers.clear();
        d.servers.resize(lambdas.len(), 0);
        if total_lambda > 0.0 {
            let pool = MmmQueue::new(total_lambda, mu, pool_servers)?;
            let total_expected = pool.expected_in_system();
            for (i, &lambda) in lambdas.iter().enumerate() {
                let share = lambda / total_lambda;
                d.upload_demand[i] = pool_bandwidth * share;
                d.expected_in_queue[i] = total_expected * share;
                // Integer bookkeeping: ceil of the fractional share, reported
                // for diagnostics only.
                d.servers[i] = (pool_servers as f64 * share).ceil() as usize;
            }
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_meets_sojourn_target_per_chunk() {
        let c = ChannelModel::paper_default(0, 0.5);
        let d = capacity_demand(&c).unwrap();
        let mu = c.service_rate();
        for (i, (&m, &lambda)) in d.servers.iter().zip(&d.arrival_rates).enumerate() {
            if lambda == 0.0 {
                continue;
            }
            let w = MmmQueue::new(lambda, mu, m).unwrap().mean_sojourn_time();
            assert!(w <= c.chunk_seconds + 1e-9, "chunk {i}: sojourn {w}");
        }
    }

    #[test]
    fn demand_scales_with_arrival_rate() {
        let lo = capacity_demand(&ChannelModel::paper_default(0, 0.1)).unwrap();
        let hi = capacity_demand(&ChannelModel::paper_default(0, 1.0)).unwrap();
        assert!(hi.total_upload_demand() > lo.total_upload_demand());
        assert!(
            hi.expected_in_queue.iter().sum::<f64>() > lo.expected_in_queue.iter().sum::<f64>()
        );
    }

    #[test]
    fn demand_roughly_linear_in_load() {
        // Paper Fig. 7: client-server bandwidth grows linearly with channel
        // size. Doubling the arrival rate should roughly double demand.
        let base = capacity_demand(&ChannelModel::paper_default(0, 0.5)).unwrap();
        let double = capacity_demand(&ChannelModel::paper_default(0, 1.0)).unwrap();
        let ratio = double.total_upload_demand() / base.total_upload_demand();
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn popular_chunks_get_more_servers() {
        let c = ChannelModel::paper_default(0, 1.0);
        let d = capacity_demand(&c).unwrap();
        // Chunk 1 (index 0) has the alpha mass; it needs at least as many
        // servers as the long tail.
        assert!(d.servers[0] >= d.servers[15]);
    }

    #[test]
    fn little_law_expected_users_bounded_by_sojourn_target() {
        // E(n_i) = lambda_i * W_i <= lambda_i * T0.
        let c = ChannelModel::paper_default(0, 0.8);
        let d = capacity_demand(&c).unwrap();
        for (e, l) in d.expected_in_queue.iter().zip(&d.arrival_rates) {
            assert!(*e <= l * c.chunk_seconds + 1e-9);
        }
    }

    #[test]
    fn zero_arrivals_need_zero_capacity() {
        let d = capacity_demand(&ChannelModel::paper_default(0, 0.0)).unwrap();
        assert_eq!(d.total_servers(), 0);
        assert_eq!(d.total_upload_demand(), 0.0);
    }

    #[test]
    fn upload_demand_is_r_times_servers() {
        let c = ChannelModel::paper_default(0, 0.7);
        let d = capacity_demand(&c).unwrap();
        for (&s, &m) in d.upload_demand.iter().zip(&d.servers) {
            assert!((s - m as f64 * c.vm_bandwidth).abs() < 1e-9);
        }
    }

    #[test]
    fn pooled_demand_is_much_cheaper_for_quiet_channels() {
        // A channel with 6 concurrent users: per-chunk provisioning wants
        // >= 1 VM per active chunk (~20 VMs); the pool needs a handful.
        let c = ChannelModel::paper_default(0, 0.02);
        let per_chunk = capacity_demand(&c).unwrap();
        let pooled = pooled_capacity_demand(&c).unwrap();
        assert!(
            pooled.total_upload_demand() < 0.35 * per_chunk.total_upload_demand(),
            "pooled {p} vs per-chunk {q}",
            p = pooled.total_upload_demand(),
            q = per_chunk.total_upload_demand()
        );
    }

    #[test]
    fn pooled_demand_meets_pool_sojourn_target() {
        let c = ChannelModel::paper_default(0, 0.8);
        let pooled = pooled_capacity_demand(&c).unwrap();
        let total_lambda: f64 = pooled.arrival_rates.iter().sum();
        let pool_servers = (pooled.total_upload_demand() / c.vm_bandwidth).round() as usize;
        let w = MmmQueue::new(total_lambda, c.service_rate(), pool_servers)
            .unwrap()
            .mean_sojourn_time();
        assert!(w <= c.chunk_seconds + 1e-9);
    }

    #[test]
    fn pooled_demand_proportional_to_chunk_load() {
        let c = ChannelModel::paper_default(0, 0.8);
        let pooled = pooled_capacity_demand(&c).unwrap();
        let ratio0 = pooled.upload_demand[0] / pooled.arrival_rates[0];
        for i in 1..c.chunks() {
            let r = pooled.upload_demand[i] / pooled.arrival_rates[i];
            assert!((r - ratio0).abs() / ratio0 < 1e-9, "chunk {i} share skewed");
        }
    }

    #[test]
    fn pooled_demand_scales_linearly_with_load() {
        // The paper's Fig. 7: C/S bandwidth is linear in channel size.
        let d1 = pooled_capacity_demand(&ChannelModel::paper_default(0, 0.3)).unwrap();
        let d2 = pooled_capacity_demand(&ChannelModel::paper_default(0, 0.6)).unwrap();
        let ratio = d2.total_upload_demand() / d1.total_upload_demand();
        assert!((1.7..=2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn quantile_target_provisions_more_than_mean() {
        let c = ChannelModel::paper_default(0, 0.5);
        let mean = pooled_capacity_demand(&c).unwrap();
        let tail = pooled_capacity_demand_with_target(
            &c,
            ProvisioningTarget::SojournQuantile { epsilon: 0.01 },
        )
        .unwrap();
        assert!(tail.total_upload_demand() >= mean.total_upload_demand());
    }

    #[test]
    fn quantile_target_tightens_with_epsilon() {
        let c = ChannelModel::paper_default(0, 0.5);
        let loose = pooled_capacity_demand_with_target(
            &c,
            ProvisioningTarget::SojournQuantile { epsilon: 0.2 },
        )
        .unwrap();
        let tight = pooled_capacity_demand_with_target(
            &c,
            ProvisioningTarget::SojournQuantile { epsilon: 0.001 },
        )
        .unwrap();
        assert!(tight.total_upload_demand() >= loose.total_upload_demand());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let c = ChannelModel::paper_default(0, 0.5);
        assert!(capacity_demand_with_target(
            &c,
            ProvisioningTarget::SojournQuantile { epsilon: 0.0 }
        )
        .is_err());
        assert!(capacity_demand_with_target(
            &c,
            ProvisioningTarget::SojournQuantile { epsilon: 1.0 }
        )
        .is_err());
    }

    #[test]
    fn pooled_zero_arrivals_zero_demand() {
        let d = pooled_capacity_demand(&ChannelModel::paper_default(0, 0.0)).unwrap();
        assert_eq!(d.total_upload_demand(), 0.0);
    }
}
