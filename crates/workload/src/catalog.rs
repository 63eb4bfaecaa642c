//! The channel catalog: per-channel popularity and arrival-rate scaling.
//!
//! The paper deploys 20 video channels "with different popularities
//! following a Zipf-like distribution with the total number of concurrent
//! online peers around 2500". This module turns a target steady-state
//! population into per-channel base arrival rates using Little's law and
//! the viewing model's expected session length.

use serde::{Deserialize, Serialize};

use crate::distributions::Zipf;
use crate::error::{invalid_param, WorkloadError};
use crate::viewing::ViewingModel;

/// A video channel in the catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Channel index (0 = most popular).
    pub id: usize,
    /// Popularity share in `(0, 1]`, summing to 1 across the catalog.
    pub popularity: f64,
    /// Base external arrival rate `Λ(c)` in users per second, before the
    /// diurnal multiplier is applied.
    pub base_arrival_rate: f64,
    /// Viewer behaviour for this channel.
    pub viewing: ViewingModel,
}

/// A catalog of channels with Zipf-distributed popularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    channels: Vec<ChannelSpec>,
}

impl Catalog {
    /// Builds a catalog of `n` channels with Zipf(`exponent`) popularity,
    /// the same `viewing` model per channel, and base arrival rates chosen
    /// so the expected total steady-state population (by Little's law,
    /// under a unit diurnal multiplier) is `target_population`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn zipf(
        n: usize,
        exponent: f64,
        viewing: ViewingModel,
        target_population: f64,
        chunk_seconds: f64,
    ) -> Result<Self, WorkloadError> {
        if !(target_population.is_finite() && target_population > 0.0) {
            return Err(invalid_param(
                "target_population",
                format!("must be positive, got {target_population}"),
            ));
        }
        if !(chunk_seconds.is_finite() && chunk_seconds > 0.0) {
            return Err(invalid_param(
                "chunk_seconds",
                format!("must be positive, got {chunk_seconds}"),
            ));
        }
        let zipf = Zipf::new(n, exponent)?;
        // Mean session duration ~ chunks per session * chunk playback time.
        let chunks_per_session = viewing.expected_chunks_per_session()?;
        let session_seconds = chunks_per_session * chunk_seconds;
        // Little: population = total_rate * session_seconds.
        let total_rate = target_population / session_seconds;
        let channels = (0..n)
            .map(|id| ChannelSpec {
                id,
                popularity: zipf.prob(id),
                base_arrival_rate: total_rate * zipf.prob(id),
                viewing,
            })
            .collect();
        Ok(Self { channels })
    }

    /// Builds a catalog from explicit channel specifications (for custom
    /// experiments such as the paper's four representative channels).
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, ids are not `0..n` in order,
    /// or any viewing model or rate is invalid.
    pub fn from_channels(channels: Vec<ChannelSpec>) -> Result<Self, WorkloadError> {
        if channels.is_empty() {
            return Err(invalid_param("channels", "must not be empty"));
        }
        for (i, c) in channels.iter().enumerate() {
            if c.id != i {
                return Err(invalid_param(
                    "channels",
                    format!("ids must be 0..n in order; entry {i} has id {}", c.id),
                ));
            }
            c.viewing.validate()?;
            if !(c.base_arrival_rate.is_finite() && c.base_arrival_rate >= 0.0) {
                return Err(invalid_param(
                    "base_arrival_rate",
                    format!(
                        "channel {i}: must be non-negative, got {}",
                        c.base_arrival_rate
                    ),
                ));
            }
        }
        Ok(Self { channels })
    }

    /// The paper's catalog: 20 channels, Zipf popularity, ~2500 concurrent
    /// viewers, 5-minute chunks.
    pub fn paper_default() -> Self {
        Self::zipf(20, 0.8, ViewingModel::paper_default(), 2500.0, 300.0)
            .expect("paper defaults are valid")
    }

    /// A **mega catalog** for scale-out experiments: `channels` Zipf(0.8)
    /// channels with the paper's per-channel viewing model, calibrated so
    /// the expected steady-state population (unit diurnal multiplier) is
    /// `population` concurrent viewers. The paper's deployment is 20
    /// channels at ~2500 viewers; this is the same construction pushed to
    /// thousands of channels and millions of viewers.
    ///
    /// The catalog itself stays `O(channels)` memory, and every consumer
    /// of it in this workspace generates arrivals lazily (the streaming
    /// [`crate::trace::ArrivalStream`] / [`crate::trace::ChannelArrivals`]
    /// paths), so a 5-million-viewer week never materializes a trace.
    ///
    /// ```
    /// use cloudmedia_workload::catalog::Catalog;
    ///
    /// let catalog = Catalog::mega_catalog(2000, 1_000_000.0).unwrap();
    /// assert_eq!(catalog.len(), 2000);
    /// let pop = catalog.expected_population(300.0);
    /// assert!((pop - 1_000_000.0).abs() / 1_000_000.0 < 1e-9);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures (zero channels,
    /// non-positive population).
    pub fn mega_catalog(channels: usize, population: f64) -> Result<Self, WorkloadError> {
        Self::zipf(
            channels,
            0.8,
            ViewingModel::paper_default(),
            population,
            300.0,
        )
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if the catalog has no channels.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The channels, most popular first.
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// A specific channel.
    pub fn channel(&self, id: usize) -> &ChannelSpec {
        &self.channels[id]
    }

    /// Total base arrival rate across channels (users per second): the
    /// rate integral `arrival_volume_matches_rate_integral` (in
    /// [`crate::trace`]) checks the arrival streams' volume against.
    pub fn total_arrival_rate(&self) -> f64 {
        self.channels.iter().map(|c| c.base_arrival_rate).sum()
    }

    /// Expected steady-state population under a unit diurnal multiplier.
    /// `scale_out_builds_a_sharded_mega_config` (in the sim crate's
    /// `config` module) checks the catalog `SimConfig::scale_out` builds
    /// against it.
    pub fn expected_population(&self, chunk_seconds: f64) -> f64 {
        self.channels
            .iter()
            .map(|c| {
                let chunks = c
                    .viewing
                    .expected_chunks_per_session()
                    .expect("catalog channels validated at construction");
                c.base_arrival_rate * chunks * chunk_seconds
            })
            .sum()
    }

    /// Rescales every channel's base arrival rate by `factor`; used by
    /// experiments that sweep load.
    pub fn scaled(&self, factor: f64) -> Self {
        let channels = self
            .channels
            .iter()
            .map(|c| ChannelSpec {
                base_arrival_rate: c.base_arrival_rate * factor,
                ..c.clone()
            })
            .collect();
        Self { channels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_20_channels() {
        let c = Catalog::paper_default();
        assert_eq!(c.len(), 20);
        let pop_total: f64 = c.channels().iter().map(|c| c.popularity).sum();
        assert!((pop_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn popularity_decreases_with_rank() {
        let c = Catalog::paper_default();
        for w in c.channels().windows(2) {
            assert!(w[0].popularity >= w[1].popularity);
            assert!(w[0].base_arrival_rate >= w[1].base_arrival_rate);
        }
    }

    #[test]
    fn littles_law_population_target_met() {
        let c = Catalog::paper_default();
        let pop = c.expected_population(300.0);
        assert!(
            (pop - 2500.0).abs() < 1.0,
            "expected population {pop} should match the 2500 target"
        );
    }

    #[test]
    fn scaled_catalog_scales_rates_only() {
        let c = Catalog::paper_default();
        let s = c.scaled(2.0);
        for (a, b) in c.channels().iter().zip(s.channels()) {
            assert!((b.base_arrival_rate - 2.0 * a.base_arrival_rate).abs() < 1e-12);
            assert_eq!(a.popularity, b.popularity);
        }
    }

    #[test]
    fn zipf_rejects_bad_population() {
        let v = ViewingModel::paper_default();
        assert!(Catalog::zipf(5, 1.0, v, 0.0, 300.0).is_err());
        assert!(Catalog::zipf(5, 1.0, v, 100.0, 0.0).is_err());
        assert!(Catalog::zipf(0, 1.0, v, 100.0, 300.0).is_err());
    }
}
