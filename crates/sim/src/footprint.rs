//! Per-peer memory accounting for the Indexed engine.
//!
//! The scale-out story ("10 M viewers under 2 GB", docs/SCALING.md)
//! rests on the per-viewer resident state staying small, and nothing
//! rots faster than a memory model nobody measures. This module gives
//! the budget a load-bearing number: [`worst_case_bytes_per_peer`] is
//! computed from the actual type layouts (so a grown field moves it),
//! [`measure`] runs an Indexed simulation and counts the real resident
//! bytes at run end, and [`PEER_BUDGET_BYTES`] is the ceiling both are
//! pinned against by `crates/sim/tests/peer_footprint.rs`.
//!
//! # What is counted
//!
//! Per connected viewer: the packed [`Peer`](crate::peer::Peer) record
//! itself (72 B), the engine's two `u32` per-peer mirrors (fixed-point
//! usable upload, slot map), and the peer's 8-byte slot — its index
//! plus one list link, which threads it into its download cohort while
//! downloading or its wake bucket while waiting. That is 88 B in either
//! state. On top, each download cohort (24 B) is shared by its members;
//! the measurement counts cohorts, the per-viewer worst case does not,
//! since a channel opens one cohort per chunk per round however many
//! viewers join it. Fixed per-engine
//! overhead (wheel bucket heads, per-chunk scratch, the tracker) is
//! excluded: it does not grow with viewers, which is the axis this
//! budget guards.

use cloudmedia_telemetry::Telemetry;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::segments::Site;

/// The per-viewer resident-memory budget, bytes. The worst case must
/// fit: 72 (packed `Peer`) + 4 (usable upload) + 4 (slot map) + 8
/// (slot) = 88. At this ceiling, 10 M viewers hold under 1 GB of peer
/// state.
pub const PEER_BUDGET_BYTES: usize = 96;

/// A measured population + resident-byte count, as produced by
/// [`measure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerFootprint {
    /// Connected viewers at measurement time.
    pub peers: usize,
    /// Population-scaled resident bytes attributed to them.
    pub bytes: usize,
}

impl PeerFootprint {
    /// Mean resident bytes per connected viewer (0 for an empty run).
    pub fn bytes_per_peer(&self) -> f64 {
        if self.peers == 0 {
            0.0
        } else {
            self.bytes as f64 / self.peers as f64
        }
    }
}

/// The worst-case resident bytes for one connected viewer. Downloading
/// and waiting peers cost the same: each holds one slot, linked into
/// its cohort or its wake bucket (cohort records are shared; see the
/// module docs). Computed from the real type layouts so any field
/// growth moves it.
pub fn worst_case_bytes_per_peer() -> usize {
    std::mem::size_of::<crate::peer::Peer>()
        + 2 * std::mem::size_of::<u32>()
        + crate::simulator::SLOT_BYTES
}

/// Runs `cfg` through the Indexed engine and returns the end-of-run
/// per-peer footprint. The simulation itself is discarded; use
/// [`crate::Simulator`] for results. The Indexed kernel is measured
/// regardless of `cfg.kernel` — it is the production engine the budget
/// exists for.
///
/// # Errors
///
/// Propagates configuration validation and simulation failures.
pub fn measure(cfg: &SimConfig) -> Result<PeerFootprint, SimError> {
    cfg.validate()?;
    let mut fp = PeerFootprint::default();
    crate::simulator::run_site(cfg, &Telemetry::disabled(), Some(&mut fp), Site::indexed)?;
    Ok(fp)
}
