//! The per-channel model the capacity analysis consumes.
//!
//! A [`ChannelModel`] bundles everything Sec. IV needs about one video
//! channel: streaming rate `r`, chunk playback time `T0`, per-VM bandwidth
//! `R`, measured arrival rate `Λ(c)`, first-chunk fraction `α`, and the
//! chunk transfer probability matrix `P(c)`.

use cloudmedia_queueing::jackson::{routing_rows_into, RoutingMatrix, TrafficSolution};
use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CoreError};

/// Model of one video channel at one provisioning instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelModel {
    /// Channel identifier.
    pub id: usize,
    /// Streaming playback rate `r`, bytes per second.
    pub streaming_rate: f64,
    /// Chunk playback time `T0`, seconds.
    pub chunk_seconds: f64,
    /// Guaranteed bandwidth per VM `R`, bytes per second; must exceed
    /// `streaming_rate`.
    pub vm_bandwidth: f64,
    /// External Poisson arrival rate `Λ(c)`, users per second.
    pub arrival_rate: f64,
    /// Fraction `α` of arrivals starting at the first chunk.
    pub alpha: f64,
    /// Chunk transfer probability matrix `P(c)` (substochastic rows).
    pub routing: Vec<Vec<f64>>,
}

impl ChannelModel {
    /// Number of chunks `J(c)`.
    pub fn chunks(&self) -> usize {
        self.routing.len()
    }

    /// Chunk size in bytes, `r · T0`.
    pub fn chunk_bytes(&self) -> f64 {
        self.streaming_rate * self.chunk_seconds
    }

    /// Per-server (per-VM) chunk service rate `µ = R / (r T0)`.
    pub fn service_rate(&self) -> f64 {
        self.vm_bandwidth / self.chunk_bytes()
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for empty routing, non-positive rates, `R <= r`,
    /// or `alpha` outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.validated_routing().map(drop)
    }

    /// Validates all parameters and returns the checked routing matrix.
    fn validated_routing(&self) -> Result<RoutingMatrix, CoreError> {
        self.check_scalars()?;
        // Delegate routing validation (squareness, substochastic rows).
        Ok(RoutingMatrix::from_rows(&self.routing)?)
    }

    /// Every check but the routing matrix's own.
    fn check_scalars(&self) -> Result<(), CoreError> {
        if self.routing.is_empty() {
            return Err(invalid_param(
                "routing",
                "channel must have at least one chunk",
            ));
        }
        if !(self.streaming_rate.is_finite() && self.streaming_rate > 0.0) {
            return Err(invalid_param(
                "streaming_rate",
                format!("must be positive, got {}", self.streaming_rate),
            ));
        }
        if !(self.chunk_seconds.is_finite() && self.chunk_seconds > 0.0) {
            return Err(invalid_param(
                "chunk_seconds",
                format!("must be positive, got {}", self.chunk_seconds),
            ));
        }
        if !(self.vm_bandwidth.is_finite() && self.vm_bandwidth > self.streaming_rate) {
            return Err(invalid_param(
                "vm_bandwidth",
                format!(
                    "must exceed the streaming rate {} (paper requires R > r), got {}",
                    self.streaming_rate, self.vm_bandwidth
                ),
            ));
        }
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(invalid_param(
                "arrival_rate",
                format!("must be non-negative, got {}", self.arrival_rate),
            ));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(invalid_param(
                "alpha",
                format!("must be in [0, 1], got {}", self.alpha),
            ));
        }
        Ok(())
    }

    /// External arrival rates per chunk: `α` of `Λ(c)` to chunk 0 and the
    /// rest uniform over the other chunks (paper Sec. IV-A), written into
    /// `gamma`.
    fn external_arrivals_into(&self, gamma: &mut Vec<f64>) {
        let j = self.chunks();
        gamma.clear();
        gamma.resize(j, 0.0);
        if j == 1 {
            gamma[0] = self.arrival_rate;
        } else {
            gamma[0] = self.alpha * self.arrival_rate;
            let rest = (1.0 - self.alpha) * self.arrival_rate / (j - 1) as f64;
            for g in gamma.iter_mut().skip(1) {
                *g = rest;
            }
        }
    }

    /// Validates the channel once and solves its traffic equations with
    /// one factorization of `M = I − Pᵀ` into `traffic`; with
    /// `inverse_columns`, the columns of `M⁻¹` come out of the same sweep
    /// (see [`TrafficSolution::solve`]). The checked routing matrix is
    /// left row-major in `routing` and the external arrivals in `gamma`;
    /// all three keep their buffers, so a kept set of them re-solves a
    /// channel of the same size without allocating.
    pub(crate) fn solve_traffic_into(
        &self,
        inverse_columns: bool,
        routing: &mut Vec<f64>,
        gamma: &mut Vec<f64>,
        traffic: &mut TrafficSolution,
    ) -> Result<(), CoreError> {
        self.check_scalars()?;
        let routing = routing_rows_into(&self.routing, routing)?;
        self.external_arrivals_into(gamma);
        Ok(traffic.solve(routing, gamma, inverse_columns)?)
    }

    /// Per-chunk aggregate arrival rates `λ_i` from the traffic equations
    /// (paper Eqn. 1), solved as the analysis pass solves them. The
    /// tests read the production solve through it:
    /// `arrival_rates_solve_and_conserve_flow` here, and
    /// `tests/tests/workspace_properties.rs`.
    ///
    /// # Errors
    ///
    /// Propagates validation and solver failures.
    pub fn chunk_arrival_rates(&self) -> Result<Vec<f64>, CoreError> {
        let mut traffic = TrafficSolution::default();
        self.solve_traffic_into(false, &mut Vec::new(), &mut Vec::new(), &mut traffic)?;
        Ok(traffic.arrival_rates().to_vec())
    }

    /// The paper's experimental channel parameters: `r` = 50 KB/s
    /// (400 kbps), `T0` = 5 min (15 MB chunks), `R` = 10 Mbps, 20 chunks
    /// (a 100-minute video), with the given arrival rate and a sequential
    /// viewing pattern built from jump/leave probabilities.
    pub fn paper_default(id: usize, arrival_rate: f64) -> Self {
        let chunks = 20;
        let jump_prob = 1.0 - (-5.0_f64 / 15.0).exp();
        let leave_prob = 0.08;
        let continue_prob = 1.0 - jump_prob - leave_prob;
        let mut routing = vec![vec![0.0; chunks]; chunks];
        for i in 0..chunks {
            let per_target = jump_prob / (chunks - 1) as f64;
            for (k, entry) in routing[i].iter_mut().enumerate() {
                if k != i {
                    *entry = per_target;
                }
            }
            if i + 1 < chunks {
                routing[i][i + 1] += continue_prob;
            }
        }
        Self {
            id,
            streaming_rate: 50_000.0,
            chunk_seconds: 300.0,
            vm_bandwidth: 10e6 / 8.0,
            arrival_rate,
            alpha: 0.7,
            routing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_queueing::absorbing::AbsorbingChain;

    #[test]
    fn paper_default_validates() {
        let c = ChannelModel::paper_default(0, 0.5);
        c.validate().unwrap();
        assert_eq!(c.chunks(), 20);
        assert!((c.chunk_bytes() - 15e6).abs() < 1e-6, "15 MB chunks");
        assert!(
            (c.service_rate() - 1.0 / 12.0).abs() < 1e-9,
            "mu = 1/12 per s"
        );
    }

    /// The revisit factor of the paper's viewing chain. With the
    /// fundamental matrix `N = (I − P)⁻¹` and the start split `s` (α to
    /// chunk 0, (1 − α)/19 to each other chunk), a session makes
    /// `Σᵢ Σⱼ sᵢNᵢⱼ` chunk visits, of which `Σⱼ Σᵢ sᵢNᵢⱼ / Nⱼⱼ` are to
    /// distinct chunks. The capacity analysis sizes every visit as a cloud
    /// request, while the engines never download a chunk a viewer already
    /// holds.
    #[test]
    fn paper_viewing_revisit_factor() {
        let c = ChannelModel::paper_default(0, 1.0);
        let chain = AbsorbingChain::new(RoutingMatrix::from_rows(&c.routing).unwrap()).unwrap();
        let mut start = Vec::new();
        c.external_arrivals_into(&mut start);
        let n = c.chunks();
        let reach =
            |j: usize| -> f64 { (0..n).map(|i| start[i] * chain.expected_visits(i, j)).sum() };
        let visits: f64 = (0..n).map(reach).sum();
        let distinct: f64 = (0..n).map(|j| reach(j) / chain.expected_visits(j, j)).sum();
        assert!((visits - 9.2619).abs() < 1e-4, "visits {visits}");
        assert!((distinct - 7.2220).abs() < 1e-4, "distinct {distinct}");
        assert!(
            (distinct / visits - 0.7798).abs() < 1e-4,
            "ratio {}",
            distinct / visits
        );
    }

    #[test]
    fn arrival_rates_solve_and_conserve_flow() {
        let c = ChannelModel::paper_default(0, 1.0);
        let lambdas = c.chunk_arrival_rates().unwrap();
        assert_eq!(lambdas.len(), 20);
        // Every chunk sees some traffic; the first chunk the most external.
        assert!(lambdas.iter().all(|&l| l > 0.0));
        // In equilibrium the viewers leaving every chunk add up to the
        // channel's arrival rate.
        let departures: f64 = lambdas
            .iter()
            .zip(&c.routing)
            .map(|(l, row)| l * (1.0 - row.iter().sum::<f64>()))
            .sum();
        assert!((departures - c.arrival_rate).abs() < 1e-9 * c.arrival_rate);
    }

    #[test]
    fn early_chunks_busier_under_sequential_viewing() {
        let c = ChannelModel::paper_default(0, 1.0);
        let lambdas = c.chunk_arrival_rates().unwrap();
        // With alpha = 0.7 and mostly-sequential transitions, chunk 1
        // outranks late chunks.
        assert!(lambdas[0] > lambdas[15]);
    }

    #[test]
    fn zero_arrival_rate_is_fine() {
        let c = ChannelModel::paper_default(0, 0.0);
        let lambdas = c.chunk_arrival_rates().unwrap();
        assert!(lambdas.iter().all(|&l| l.abs() < 1e-12));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut c = ChannelModel::paper_default(0, 0.5);
        c.vm_bandwidth = 40_000.0; // below streaming rate: violates R > r
        assert!(c.validate().is_err());

        let mut c = ChannelModel::paper_default(0, 0.5);
        c.alpha = 1.5;
        assert!(c.validate().is_err());

        let mut c = ChannelModel::paper_default(0, 0.5);
        c.routing[0][1] = 2.0;
        assert!(c.validate().is_err());

        let mut c = ChannelModel::paper_default(0, 0.5);
        c.routing.clear();
        assert!(c.validate().is_err());

        let mut c = ChannelModel::paper_default(0, 0.5);
        c.arrival_rate = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn single_chunk_channel_routes_everything_to_it() {
        let c = ChannelModel {
            id: 0,
            streaming_rate: 50_000.0,
            chunk_seconds: 300.0,
            vm_bandwidth: 1.25e6,
            arrival_rate: 2.0,
            alpha: 0.3,
            routing: vec![vec![0.0]],
        };
        let lambdas = c.chunk_arrival_rates().unwrap();
        assert!((lambdas[0] - 2.0).abs() < 1e-12);
    }
}
