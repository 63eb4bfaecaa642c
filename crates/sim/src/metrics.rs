//! Time-series metrics recorded during a simulation run.
//!
//! Two cadences: fine-grained [`Sample`]s every sampling interval (the
//! paper's 5-minute streaming-quality window) and one [`IntervalRecord`]
//! per provisioning interval (the paper's hourly controller runs). These
//! series are exactly what the paper's Figs. 4–11 plot.

use serde::{Deserialize, Serialize};

/// One fine-grained sample (default cadence: 5 minutes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Sample time, seconds from simulation start.
    pub time: f64,
    /// Cloud bandwidth reserved (running VMs × R), bytes per second.
    pub reserved_bandwidth: f64,
    /// Cloud bandwidth actually used, averaged over the window, bytes/s.
    pub used_bandwidth: f64,
    /// Fraction of connected users with smooth playback over the past
    /// window (1.0 when nobody is connected).
    pub quality: f64,
    /// Connected users at sample time.
    pub active_peers: usize,
    /// Connected users per channel.
    pub per_channel_peers: Vec<usize>,
    /// Smooth-playback fraction per channel (1.0 for empty channels).
    pub per_channel_quality: Vec<f64>,
    /// Mean start-up delay (join to first playback) of sessions whose
    /// playback began in this window, seconds; 0.0 when none did.
    pub mean_startup_delay: f64,
}

/// One provisioning-interval record (default cadence: 1 hour).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRecord {
    /// Interval start time, seconds.
    pub time: f64,
    /// VM targets submitted per virtual cluster.
    pub vm_targets: Vec<usize>,
    /// Hourly cost of the integer VM targets, dollars.
    pub vm_hourly_cost: f64,
    /// Total cloud demand the controller derived, bytes per second.
    pub total_cloud_demand: f64,
    /// Expected peer contribution (P2P), bytes per second.
    pub expected_peer_contribution: f64,
    /// Per-channel cloud demand (provisioned bandwidth), bytes per second.
    pub per_channel_demand: Vec<f64>,
    /// Per-channel aggregate storage utility (`Σ u_f Δ_i x_if`).
    pub per_channel_storage_utility: Vec<f64>,
    /// Per-channel aggregate VM utility (`Σ u~_v z_iv`).
    pub per_channel_vm_utility: Vec<f64>,
    /// Whether the storage placement was recomputed this interval.
    pub placement_refreshed: bool,
    /// Connected users per channel at the interval boundary.
    pub per_channel_peers: Vec<usize>,
}

/// Full metrics of one run.
///
/// The simulator's bit-identity contracts are stated on this type:
/// Scan ≡ Indexed, serial ≡ parallel at any pool width, and telemetry
/// on ≡ off must produce equal `Metrics` — every sample, interval
/// record, and cost accumulator — for the same config (pinned by
/// `crates/sim/tests/sharding.rs`, `hot_shard_invariance.rs`,
/// `telemetry_determinism.rs`, and the committed goldens such as
/// `crates/sim/tests/golden_steady.rs`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Fine-grained samples.
    pub samples: Vec<Sample>,
    /// Per-provisioning-interval records.
    pub intervals: Vec<IntervalRecord>,
    /// Total VM rental cost over the run, dollars.
    pub total_vm_cost: f64,
    /// Total storage cost over the run, dollars.
    pub total_storage_cost: f64,
}

impl Metrics {
    /// Mean streaming quality across samples (the paper's headline
    /// quality number, e.g. 0.97 C/S vs 0.95 P2P).
    pub fn mean_quality(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.iter().map(|s| s.quality).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean reserved cloud bandwidth, bytes per second.
    pub fn mean_reserved_bandwidth(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.reserved_bandwidth)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Mean used cloud bandwidth, bytes per second.
    pub fn mean_used_bandwidth(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.used_bandwidth).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean hourly VM cost across intervals, dollars (the paper's Fig. 10
    /// averages: ≈ $48/h C/S, ≈ $4.27/h P2P).
    pub fn mean_vm_hourly_cost(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|i| i.vm_hourly_cost).sum::<f64>() / self.intervals.len() as f64
    }

    /// Fraction of samples where reserved bandwidth covered used bandwidth
    /// (the paper's Fig. 4 claim: "in the majority of time, provisioned
    /// bandwidth is larger than the used").
    pub fn provision_coverage(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let covered = self
            .samples
            .iter()
            .filter(|s| s.reserved_bandwidth >= s.used_bandwidth - 1e-6)
            .count();
        covered as f64 / self.samples.len() as f64
    }

    /// Mean start-up delay across samples that observed session starts.
    pub fn mean_startup_delay(&self) -> f64 {
        let with_starts: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.mean_startup_delay > 0.0)
            .map(|s| s.mean_startup_delay)
            .collect();
        if with_starts.is_empty() {
            return 0.0;
        }
        with_starts.iter().sum::<f64>() / with_starts.len() as f64
    }

    /// Peak connected users across samples.
    pub fn peak_peers(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.active_peers)
            .max()
            .unwrap_or(0)
    }

    /// Samples restricted to `[from, to)`.
    pub fn samples_in(&self, from: f64, to: f64) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| s.time >= from && s.time < to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time: f64, reserved: f64, used: f64, quality: f64, peers: usize) -> Sample {
        Sample {
            time,
            reserved_bandwidth: reserved,
            used_bandwidth: used,
            quality,
            active_peers: peers,
            per_channel_peers: vec![peers],
            per_channel_quality: vec![quality],
            mean_startup_delay: 0.0,
        }
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = Metrics::default();
        assert_eq!(m.mean_quality(), 1.0);
        assert_eq!(m.mean_reserved_bandwidth(), 0.0);
        assert_eq!(m.provision_coverage(), 1.0);
        assert_eq!(m.peak_peers(), 0);
    }

    #[test]
    fn aggregates_compute_means() {
        let m = Metrics {
            samples: vec![
                sample(0.0, 10.0, 5.0, 1.0, 10),
                sample(300.0, 20.0, 25.0, 0.8, 30),
            ],
            ..Default::default()
        };
        assert!((m.mean_quality() - 0.9).abs() < 1e-12);
        assert!((m.mean_reserved_bandwidth() - 15.0).abs() < 1e-12);
        assert!((m.mean_used_bandwidth() - 15.0).abs() < 1e-12);
        assert!((m.provision_coverage() - 0.5).abs() < 1e-12);
        assert_eq!(m.peak_peers(), 30);
    }

    #[test]
    fn samples_in_window() {
        let m = Metrics {
            samples: vec![
                sample(0.0, 1.0, 1.0, 1.0, 1),
                sample(100.0, 1.0, 1.0, 1.0, 1),
                sample(200.0, 1.0, 1.0, 1.0, 1),
            ],
            ..Default::default()
        };
        assert_eq!(m.samples_in(50.0, 200.0).count(), 1);
        assert_eq!(m.samples_in(0.0, 1000.0).count(), 3);
    }
}
