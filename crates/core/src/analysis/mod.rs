//! Equilibrium server-capacity demand analysis (paper Sec. IV).
//!
//! [`client_server`] derives the per-chunk upload capacity a channel needs
//! for smooth playback when the cloud serves everything; [`p2p`] subtracts
//! the equilibrium peer contribution, leaving the deficit the cloud must
//! cover. Both analyses run on one shared per-channel pass that factors
//! `M = I − Pᵀ` once.

pub mod client_server;
pub mod p2p;
pub(crate) mod pass;

pub use client_server::{
    capacity_demand, capacity_demand_with_target, pooled_capacity_demand,
    pooled_capacity_demand_with_target, CapacityDemand, ProvisioningTarget,
};
pub use p2p::{p2p_capacity, P2pCapacity, PsiEstimator};
