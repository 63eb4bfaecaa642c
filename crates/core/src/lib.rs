//! CloudMedia: dynamic cloud provisioning for Video-on-Demand.
//!
//! This crate implements the primary contribution of *CloudMedia: When
//! Cloud on Demand Meets Video on Demand* (Wu, Wu, Li, Qiu, Lau,
//! ICDCS 2011):
//!
//! - [`channel`]: the per-channel model — streaming rate `r`, chunk time
//!   `T0`, VM bandwidth `R`, arrival rate `Λ`, routing matrix `P`,
//! - [`analysis`]: the Jackson-network equilibrium capacity analysis of
//!   Sec. IV for both client–server and P2P VoD (Proposition 1 replica
//!   counts and the Eqn. 5 rarest-first waterfilling),
//! - [`provisioning`]: the storage rental and VM configuration
//!   optimizations of Sec. V-A (greedy heuristics plus exact baselines),
//! - [`predictor`]: last-interval demand prediction (the paper's choice)
//!   plus moving-average and EWMA extensions,
//! - [`controller`]: the per-interval dynamic provisioning loop of
//!   Sec. V-B tying it all together,
//! - [`federation`]: the multi-region extension the paper lists as
//!   future work — regions in offset time zones, and the global placement
//!   optimizer that redirects overflow and peak-priced demand between
//!   their sites,
//! - [`baseline`]: the comparison strategies the paper argues against —
//!   dedicated (fixed) servers and a model-free reactive autoscaler.
//!
//! # Example
//!
//! Derive how much cloud bandwidth a channel needs in each mode:
//!
//! ```
//! use cloudmedia_core::channel::ChannelModel;
//! use cloudmedia_core::analysis::{p2p_capacity, pooled_capacity_demand, PsiEstimator};
//!
//! let channel = ChannelModel::paper_default(0, 0.5); // 0.5 arrivals/s
//! let cs = pooled_capacity_demand(&channel).unwrap();
//! let p2p = p2p_capacity(&channel, 50_000.0, PsiEstimator::Independent).unwrap();
//! assert!(p2p.total_cloud_demand() < cs.total_upload_demand());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod baseline;
pub mod channel;
pub mod controller;
mod error;
pub mod federation;
pub mod predictor;
pub mod provisioning;

pub use error::{CoreError, ProblemKind};
