//! The one analysis pass every capacity-analysis entry point runs.
//!
//! Every provisioning interval the controller analyzes every channel:
//! the traffic equations (paper Eqn. 1), the peer-less capacity
//! (Sec. IV-B), and in P2P mode the Proposition 1 replica balance and
//! the Eqn. 5 waterfilling (Sec. IV-C). All of them rest on one matrix,
//! `M = I − Pᵀ`. A [`ChannelPass`] validates the channel once, factors
//! `M` once, and solves the traffic equations — plus, for the P2P
//! analysis, the `n` columns of `M⁻¹` Proposition 1 is recovered from —
//! in one multi-right-hand-side sweep. The sizing and peer-supply steps
//! then read that solution:
//!
//! - [`ChannelPass::per_chunk`] and [`ChannelPass::pooled`]
//!   (in [`client_server`](super::client_server)) size the M/M/m fleets,
//! - [`ChannelPass::peer_supply`] (in [`p2p`](super::p2p)) runs the
//!   replica balance and the waterfilling.
//!
//! The public analysis functions and the controller are thin
//! compositions of these steps, so there is exactly one analysis path.

use cloudmedia_queueing::jackson::TrafficSolution;

use crate::analysis::client_server::{CapacityDemand, ProvisioningTarget};
use crate::analysis::DemandPooling;
use crate::channel::ChannelModel;
use crate::error::CoreError;

/// One channel's validated model and its traffic equations, solved
/// against a single factorization of `M = I − Pᵀ`.
#[derive(Debug)]
pub(crate) struct ChannelPass<'a> {
    /// The analyzed channel.
    pub(crate) channel: &'a ChannelModel,
    /// `λ_i`, and the columns of `M⁻¹` when the pass was built for the
    /// P2P analysis.
    pub(crate) traffic: TrafficSolution,
}

impl<'a> ChannelPass<'a> {
    /// Validates `channel` and solves its traffic equations; with
    /// `peers`, also the columns of `M⁻¹` that
    /// [`ChannelPass::peer_supply`] needs.
    ///
    /// # Errors
    ///
    /// Propagates validation and solver failures (a singular `M`, from
    /// routing that never lets viewers leave, is
    /// [`SingularSystem`](cloudmedia_queueing::QueueingError::SingularSystem)).
    pub(crate) fn new(channel: &'a ChannelModel, peers: bool) -> Result<Self, CoreError> {
        let traffic = channel.solve_traffic(peers)?;
        Ok(Self { channel, traffic })
    }

    /// The peer-less capacity under the given pooling model and
    /// retrieval-time guarantee — the cloud demand in client–server
    /// mode, and what the peers offset in P2P mode.
    ///
    /// # Errors
    ///
    /// Propagates queueing failures.
    pub(crate) fn baseline(
        &self,
        pooling: DemandPooling,
        target: ProvisioningTarget,
    ) -> Result<CapacityDemand, CoreError> {
        match pooling {
            DemandPooling::PerChunk => self.per_chunk(target),
            DemandPooling::ChannelPooled => self.pooled(target),
        }
    }
}
