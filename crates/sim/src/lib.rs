//! Discrete-event VoD system simulator for the CloudMedia reproduction.
//!
//! The paper evaluated CloudMedia on 100+ lab machines running real VoD
//! client processes; this crate substitutes a fluid-bandwidth system
//! simulator that exercises the identical control path — trace-driven
//! viewers, P2P mesh with rarest-first scheduling, the tracker's
//! measurements, the hourly provisioning controller, the cloud broker, and
//! usage-time billing — and records the series the paper's figures plot.
//!
//! - [`config`]: run configuration ([`config::SimConfig::paper_default`]
//!   reproduces the paper's experimental setup),
//! - [`peer`]: viewer state (downloads, buffer bitmap, stall accounting),
//! - [`allocation`]: max–min fair cloud sharing and rarest-first peer
//!   bandwidth allocation,
//! - [`tracker`]: per-interval measurement of `Λ(c)`, `α`, `P(c)`,
//! - [`simulator`]: the entry point and the round engines,
//! - `segments`: the one round loop every round engine runs on — a
//!   run is a list of sites, each a list of shards, stepped in segments
//!   of rounds across the worker pool (see `docs/SCALING.md`),
//! - `control`: the interval control path every engine shares
//!   (measure → plan → rent → record, one site at a time),
//! - [`federation`]: the multi-region simulator (one site per region in
//!   lockstep, coupled by the global placement optimizer),
//! - [`metrics`]: recorded time series (quality, reserved/used bandwidth,
//!   cost, per-channel breakdowns).
//!
//! # Example
//!
//! ```no_run
//! use cloudmedia_sim::config::{SimConfig, SimMode};
//! use cloudmedia_sim::simulator::Simulator;
//!
//! let sim = Simulator::new(SimConfig::paper_default(SimMode::P2p)).unwrap();
//! let metrics = sim.run().unwrap();
//! println!("mean quality: {:.3}", metrics.mean_quality());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod allocation;
pub mod config;
mod control;
mod error;
pub mod event_driven;
pub mod faults;
pub mod federation;
pub mod footprint;
pub mod metrics;
pub mod peer;
mod segments;
pub mod simulator;
pub mod telem;
pub mod tracker;

pub use config::{SimConfig, SimKernel, SimMode};
pub use error::SimError;
pub use event_driven::{DesReport, DesRun, DesScenario, FlashCrowdSpec, RemoteOverflowSpec};
pub use faults::{
    ChaosPreset, CostShock, DegradeMode, FaultRun, FaultSchedule, FaultStats, FleetFailure,
    ResilienceReport, SiteOutage, TrackerDropout,
};
pub use federation::{DeploymentKind, FederatedConfig, FederatedMetrics, FederatedSimulator};
pub use footprint::{PeerFootprint, PEER_BUDGET_BYTES};
pub use metrics::Metrics;
pub use simulator::Simulator;

/// The process's peak resident set size (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it. Scale-out
/// reporting (the `cloudmedia scale` CLI, `bench_scale`'s
/// `scale_sweep` rows) uses this to record the memory footprint of
/// very large runs; it is a high-water mark, monotone over the
/// process lifetime.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
