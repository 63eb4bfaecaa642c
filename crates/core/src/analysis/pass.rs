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
//! A pass works in, and writes its results to, a [`PassScratch`]: flat
//! row-major `n × n` buffers that the controller keeps across channels
//! and intervals, so analyzing a channel of a size seen before allocates
//! nothing. The public analysis functions and the controller are thin
//! compositions of these steps, so there is exactly one analysis path.

use cloudmedia_queueing::jackson::TrafficSolution;

use crate::analysis::client_server::{CapacityDemand, ProvisioningTarget};
use crate::analysis::p2p::PeerSupply;
use crate::analysis::DemandPooling;
use crate::channel::ChannelModel;
use crate::error::CoreError;

/// The buffers of a [`ChannelPass`]: its inputs, the solution it reads,
/// its working space, and the results of its sizing and peer-supply
/// steps. Every buffer is overwritten by the pass that uses it.
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    /// The channel's validated routing matrix `P`, row-major.
    pub(crate) routing: Vec<f64>,
    /// External arrivals per chunk.
    gamma: Vec<f64>,
    /// `λ_i`, and the columns of `M⁻¹` when the pass was built for the
    /// P2P analysis.
    pub(crate) traffic: TrafficSolution,
    /// The capacity the last sizing step derived.
    pub(crate) demand: CapacityDemand,
    /// What the last peer-supply step derived.
    pub(crate) supply: PeerSupply,
    /// Equilibrium chunk-queue occupancy `λ_i·T0`.
    pub(crate) occupancy: Vec<f64>,
    /// One Sherman–Morrison right-hand side.
    pub(crate) z: Vec<f64>,
    /// One row of the replica matrix.
    pub(crate) replica_row: Vec<f64>,
    /// Expected joint owners of every chunk pair under the path-based
    /// estimator, row-major `n × n`.
    pub(crate) dual: Vec<f64>,
    /// Chunks, rarest first.
    pub(crate) order: Vec<usize>,
    /// Upload classes, richest first.
    pub(crate) class_order: Vec<usize>,
    /// Per-class peer contribution to each chunk, row-major
    /// `n × classes`.
    pub(crate) gamma_class: Vec<f64>,
}

/// One channel's validated model and its traffic equations, solved
/// against a single factorization of `M = I − Pᵀ` into a
/// [`PassScratch`].
#[derive(Debug)]
pub(crate) struct ChannelPass<'a> {
    /// The analyzed channel.
    pub(crate) channel: &'a ChannelModel,
    /// The pass's buffers; its steps leave their results here.
    pub(crate) scratch: &'a mut PassScratch,
}

impl<'a> ChannelPass<'a> {
    /// Validates `channel` and solves its traffic equations in
    /// `scratch`; with `peers`, also the columns of `M⁻¹` that
    /// [`ChannelPass::peer_supply`] needs.
    ///
    /// # Errors
    ///
    /// Propagates validation and solver failures (a singular `M`, from
    /// routing that never lets viewers leave, is
    /// [`SingularSystem`](cloudmedia_queueing::QueueingError::SingularSystem)).
    pub(crate) fn new(
        channel: &'a ChannelModel,
        peers: bool,
        scratch: &'a mut PassScratch,
    ) -> Result<Self, CoreError> {
        channel.solve_traffic_into(
            peers,
            &mut scratch.routing,
            &mut scratch.gamma,
            &mut scratch.traffic,
        )?;
        Ok(Self { channel, scratch })
    }

    /// The peer-less capacity under the given pooling model and
    /// retrieval-time guarantee — the cloud demand in client–server
    /// mode, and what the peers offset in P2P mode.
    ///
    /// # Errors
    ///
    /// Propagates queueing failures.
    pub(crate) fn baseline(
        &mut self,
        pooling: DemandPooling,
        target: ProvisioningTarget,
    ) -> Result<&CapacityDemand, CoreError> {
        match pooling {
            DemandPooling::PerChunk => self.per_chunk(target),
            DemandPooling::ChannelPooled => self.pooled(target),
        }
    }
}
