//! Per-peer memory accounting for the sharded engine.
//!
//! The scale-out story ("10 M viewers under 2 GB", docs/SCALING.md)
//! rests on the per-viewer resident state staying small, and nothing
//! rots faster than a memory model nobody measures. This module gives
//! the budget a load-bearing number: [`worst_case_bytes_per_peer`] is
//! computed from the actual type layouts (so a grown field moves it),
//! [`measure`] runs a sharded simulation and counts the real resident
//! bytes at run end, and [`PEER_BUDGET_BYTES`] is the ceiling both are
//! pinned against by `crates/sim/tests/peer_footprint.rs`.
//!
//! # What is counted
//!
//! Per connected viewer: the packed [`Peer`](crate::peer::Peer) record
//! itself (72 B), the engine's two `u32` per-peer mirrors (fixed-point
//! usable upload, download-slot map), and the state-dependent tail —
//! a 16-byte download-index entry while downloading, or a wake-slab
//! slot plus a wheel-bucket entry (4 B each) while waiting. Fixed
//! per-engine overhead (wheel bucket headers, sub-lane scratch, the
//! tracker) is excluded: it does not grow with viewers, which is the
//! axis this budget guards.

use cloudmedia_telemetry::Telemetry;

use crate::config::{SimConfig, SimKernel};
use crate::error::SimError;

/// The per-viewer resident-memory budget, bytes. The worst case
/// (a downloading peer) must fit: 72 (packed `Peer`) + 4 (usable
/// upload) + 4 (download slot) + 16 (download-index entry). At this
/// ceiling, 10 M viewers hold under 1 GB of peer state.
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

/// The worst-case resident bytes for one connected viewer — a
/// *downloading* peer, whose state tail (a download-index entry) is
/// larger than a waiting peer's (slab slot + wheel entry, 8 B).
/// Computed from the real type layouts so any field growth moves it.
pub fn worst_case_bytes_per_peer() -> usize {
    std::mem::size_of::<crate::peer::Peer>()
        + 2 * std::mem::size_of::<u32>()
        + crate::simulator::DL_ENTRY_BYTES
}

/// Runs `cfg` through the sharded engine and returns the end-of-run
/// per-peer footprint. The simulation itself is discarded; use the
/// sharded engine through [`crate::Simulator`] for results. The
/// sharded kernel is measured regardless of `cfg.kernel` — it is the
/// scale-out engine the budget exists for.
///
/// # Errors
///
/// Propagates configuration validation and simulation failures.
pub fn measure(cfg: &SimConfig) -> Result<PeerFootprint, SimError> {
    cfg.validate()?;
    let cfg = SimConfig {
        kernel: SimKernel::Sharded,
        ..cfg.clone()
    };
    let mut fp = PeerFootprint::default();
    crate::simulator::run_site(&cfg, &Telemetry::disabled(), Some(&mut fp))?;
    Ok(fp)
}
