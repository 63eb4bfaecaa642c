//! The tracking server.
//!
//! The paper's tracker "maintains peer lists for each video and the chunks
//! they are caching" and, each provisioning interval, "summarizes the
//! average user arrival rate `Λ(c)` to each channel, as well as the viewing
//! patterns `P_ij`" for the controller. This module aggregates the
//! per-channel observations and emits [`ChannelObservation`]s, blending the
//! empirical transition counts with the provider's prior viewing model so
//! a quiet hour cannot zero out the routing structure.

use std::ops::Range;

use cloudmedia_core::predictor::ChannelObservation;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::stats::{ChannelStatsCollector, Observation};

use crate::error::SimError;

/// Pseudo-count weight used to blend the prior routing into the empirical
/// transition matrix.
const ROUTING_SMOOTHING: f64 = 10.0;

/// Tracker-side statistics aggregation for every channel of a catalog,
/// or (inside the simulator's shards) for a contiguous range of them.
#[derive(Debug)]
pub struct Tracker {
    /// The first tracked channel: `collectors[c - first]` is channel
    /// `c`'s.
    first: usize,
    collectors: Vec<ChannelStatsCollector>,
    priors: Vec<Vec<Vec<f64>>>,
    prior_alphas: Vec<f64>,
}

impl Tracker {
    /// Creates a tracker for the catalog, using each channel's viewing
    /// model as the prior.
    ///
    /// # Errors
    ///
    /// Propagates viewing-model validation failures.
    pub fn new(catalog: &Catalog) -> Result<Self, SimError> {
        Self::for_channels(catalog, 0..catalog.len())
    }

    /// A tracker for the catalog's `channels` only.
    pub(crate) fn for_channels(
        catalog: &Catalog,
        channels: Range<usize>,
    ) -> Result<Self, SimError> {
        let specs = &catalog.channels()[channels.clone()];
        let mut collectors = Vec::with_capacity(specs.len());
        let mut priors = Vec::with_capacity(specs.len());
        let mut prior_alphas = Vec::with_capacity(specs.len());
        for spec in specs {
            collectors.push(ChannelStatsCollector::new(spec.viewing.chunks)?);
            priors.push(spec.viewing.routing_rows()?);
            prior_alphas.push(spec.viewing.start_at_beginning);
        }
        Ok(Self {
            first: channels.start,
            collectors,
            priors,
            prior_alphas,
        })
    }

    /// Records a user joining `channel` at `chunk`.
    pub fn record_join(&mut self, channel: usize, chunk: usize) {
        self.collectors[channel - self.first].record(Observation::Join { chunk });
    }

    /// Records a chunk-to-chunk transition.
    pub fn record_transition(&mut self, channel: usize, from: usize, to: usize) {
        self.collectors[channel - self.first].record(Observation::Transition { from, to });
    }

    /// Records a departure after `from`.
    pub fn record_leave(&mut self, channel: usize, from: usize) {
        self.collectors[channel - self.first].record(Observation::Leave { from });
    }

    /// Summarizes the interval that just ended and resets the counters:
    /// one `(channel, observation)` per channel.
    ///
    /// # Errors
    ///
    /// Propagates estimator failures.
    pub fn interval_stats(
        &mut self,
        interval_seconds: f64,
    ) -> Result<Vec<(usize, ChannelObservation)>, SimError> {
        let mut out = Vec::with_capacity(self.collectors.len());
        for (c, collector) in self.collectors.iter_mut().enumerate() {
            let routing = collector.transition_matrix(&self.priors[c], ROUTING_SMOOTHING)?;
            let obs = ChannelObservation {
                arrival_rate: collector.arrival_rate(interval_seconds),
                alpha: collector.alpha(self.prior_alphas[c]),
                routing,
            };
            collector.reset();
            out.push((self.first + c, obs));
        }
        Ok(out)
    }

    /// Number of tracked channels.
    pub fn channels(&self) -> usize {
        self.collectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_workload::viewing::ViewingModel;

    fn catalog() -> Catalog {
        Catalog::zipf(2, 1.0, ViewingModel::paper_default(), 200.0, 300.0).unwrap()
    }

    #[test]
    fn empty_interval_falls_back_to_prior() {
        let cat = catalog();
        let mut t = Tracker::new(&cat).unwrap();
        let stats = t.interval_stats(3600.0).unwrap();
        assert_eq!(stats.len(), 2);
        let (_, obs) = &stats[0];
        assert_eq!(obs.arrival_rate, 0.0);
        assert_eq!(obs.alpha, cat.channel(0).viewing.start_at_beginning);
        let prior = cat.channel(0).viewing.routing_rows().unwrap();
        for (row, prow) in obs.routing.iter().zip(&prior) {
            for (p, pp) in row.iter().zip(prow) {
                assert!((p - pp).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn joins_produce_arrival_rate() {
        let cat = catalog();
        let mut t = Tracker::new(&cat).unwrap();
        for _ in 0..360 {
            t.record_join(0, 0);
        }
        let stats = t.interval_stats(3600.0).unwrap();
        assert!((stats[0].1.arrival_rate - 0.1).abs() < 1e-12);
        assert_eq!(stats[1].1.arrival_rate, 0.0);
        // Counters reset after summarizing.
        let stats2 = t.interval_stats(3600.0).unwrap();
        assert_eq!(stats2[0].1.arrival_rate, 0.0);
    }

    #[test]
    fn heavy_observation_overrides_prior() {
        let cat = catalog();
        let mut t = Tracker::new(&cat).unwrap();
        // 10000 transitions 0 -> 5 swamp the smoothing pseudo-counts.
        for _ in 0..10_000 {
            t.record_transition(0, 0, 5);
        }
        let stats = t.interval_stats(3600.0).unwrap();
        assert!(stats[0].1.routing[0][5] > 0.99);
    }

    #[test]
    fn alpha_measured_from_joins() {
        let cat = catalog();
        let mut t = Tracker::new(&cat).unwrap();
        t.record_join(1, 0);
        t.record_join(1, 0);
        t.record_join(1, 3);
        t.record_join(1, 7);
        let stats = t.interval_stats(3600.0).unwrap();
        assert!((stats[1].1.alpha - 0.5).abs() < 1e-12);
    }
}
