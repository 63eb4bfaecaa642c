//! Equilibrium server-capacity demand analysis (paper Sec. IV).
//!
//! [`client_server`] derives the per-chunk upload capacity a channel needs
//! for smooth playback when the cloud serves everything; [`p2p`] subtracts
//! the equilibrium peer contribution, leaving the deficit the cloud must
//! cover; [`admission`] analyzes the alternative of rejecting requests
//! under a hard capacity cap. The client–server and P2P analyses run on
//! one shared per-channel pass that factors `M = I − Pᵀ` once.

pub mod admission;
pub mod client_server;
pub mod p2p;
pub(crate) mod pass;

pub use admission::{admission_outcome, min_vms_for_rejection, AdmissionOutcome};
pub use client_server::{
    capacity_demand, capacity_demand_with_target, pooled_capacity_demand,
    pooled_capacity_demand_with_target, CapacityDemand, ProvisioningTarget,
};
pub use p2p::{
    p2p_capacity, p2p_capacity_hetero, p2p_capacity_opts, p2p_capacity_with, P2pAnalysisOptions,
    P2pCapacity, PsiEstimator, UploadClass,
};

use serde::{Deserialize, Serialize};

/// How per-chunk VM demand is pooled before provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DemandPooling {
    /// Paper-literal: every chunk queue gets its own integer server count
    /// `m_i` and demand `R·m_i`. Faithful to Sec. IV but over-provisions
    /// quiet channels (≥ 1 VM per active chunk).
    PerChunk,
    /// Fractional VM sharing within a channel (the paper's "one VM may
    /// serve several consecutive chunks"): one M/M/m pool per channel,
    /// apportioned to chunks by load. Default; required for the paper's
    /// Fig. 4/Fig. 7 scale.
    #[default]
    ChannelPooled,
}
