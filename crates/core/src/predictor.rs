//! Demand predictors.
//!
//! The paper predicts next-interval demand from "user arrival patterns in
//! the previous time interval (hour)" — the last-interval predictor — and
//! notes that "more accurate prediction methods based on historical data
//! collected over more intervals can be applied". This module implements
//! the paper's predictor plus the two natural extensions (moving average
//! and EWMA) used by the predictor ablation bench.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CoreError};

/// One interval's measured statistics for a channel, as reported by the
/// tracker (paper Sec. V-B).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelObservation {
    /// Measured external arrival rate `Λ(c)`, users per second.
    pub arrival_rate: f64,
    /// Measured fraction of arrivals starting at the first chunk.
    pub alpha: f64,
    /// Measured chunk transfer probability matrix.
    pub routing: Vec<Vec<f64>>,
}

impl Clone for ChannelObservation {
    fn clone(&self) -> Self {
        Self {
            arrival_rate: self.arrival_rate,
            alpha: self.alpha,
            routing: self.routing.clone(),
        }
    }

    /// Copies `source` into this observation's routing rows, which
    /// allocates nothing when the shapes match.
    fn clone_from(&mut self, source: &Self) {
        self.arrival_rate = source.arrival_rate;
        self.alpha = source.alpha;
        self.routing.clone_from(&source.routing);
    }
}

impl ChannelObservation {
    fn blend(&mut self, other: &ChannelObservation, weight_other: f64) {
        let w = weight_other;
        self.arrival_rate = (1.0 - w) * self.arrival_rate + w * other.arrival_rate;
        self.alpha = (1.0 - w) * self.alpha + w * other.alpha;
        for (row, orow) in self.routing.iter_mut().zip(&other.routing) {
            for (p, op) in row.iter_mut().zip(orow) {
                *p = (1.0 - w) * *p + w * *op;
            }
        }
    }
}

/// Prediction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Use the previous interval verbatim (the paper's design).
    LastInterval,
    /// Element-wise mean of the last `window` intervals.
    MovingAverage {
        /// Number of intervals to average over.
        window: usize,
    },
    /// Exponentially weighted moving average with the given weight on the
    /// newest observation.
    Ewma {
        /// Weight of the newest observation, in `(0, 1]`.
        weight: f64,
    },
}

/// Per-channel demand predictor. Observations are stored in place and
/// predictions are lent, so a channel observed before costs no
/// allocation.
#[derive(Debug, Clone)]
pub struct DemandPredictor {
    kind: PredictorKind,
    /// The last `window` observations per channel, oldest first (moving
    /// average only).
    history: HashMap<usize, VecDeque<ChannelObservation>>,
    /// The current prediction per channel.
    smoothed: HashMap<usize, ChannelObservation>,
}

impl DemandPredictor {
    /// Creates a predictor of the given kind.
    ///
    /// # Errors
    ///
    /// Rejects zero windows and EWMA weights outside `(0, 1]`.
    pub fn new(kind: PredictorKind) -> Result<Self, CoreError> {
        match kind {
            PredictorKind::MovingAverage { window: 0 } => {
                return Err(invalid_param("window", "must be positive"));
            }
            PredictorKind::Ewma { weight } if !(weight > 0.0 && weight <= 1.0) => {
                return Err(invalid_param(
                    "weight",
                    format!("must be in (0, 1], got {weight}"),
                ));
            }
            _ => {}
        }
        Ok(Self {
            kind,
            history: HashMap::new(),
            smoothed: HashMap::new(),
        })
    }

    /// The configured strategy.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Ingests one interval's measurement for `channel`, copying it into
    /// the entry kept for the channel.
    pub fn observe(&mut self, channel: usize, obs: &ChannelObservation) {
        match self.kind {
            PredictorKind::LastInterval => match self.smoothed.get_mut(&channel) {
                Some(s) => s.clone_from(obs),
                None => {
                    self.smoothed.insert(channel, obs.clone());
                }
            },
            PredictorKind::MovingAverage { window } => {
                let h = self.history.entry(channel).or_default();
                if h.len() == window {
                    // The oldest entry leaves the window; its buffers
                    // take the newest.
                    let mut slot = h.pop_front().expect("window is positive");
                    slot.clone_from(obs);
                    h.push_back(slot);
                } else {
                    h.push_back(obs.clone());
                }
                let mean = self.smoothed.entry(channel).or_insert_with(|| obs.clone());
                mean_into(h, mean);
            }
            PredictorKind::Ewma { weight } => match self.smoothed.get_mut(&channel) {
                Some(s) => s.blend(obs, weight),
                None => {
                    self.smoothed.insert(channel, obs.clone());
                }
            },
        }
    }

    /// Predicts the next interval's statistics for `channel`; `None`
    /// before any observation.
    pub fn predict(&self, channel: usize) -> Option<&ChannelObservation> {
        self.smoothed.get(&channel)
    }
}

/// Element-wise mean of the (non-empty) `history`, written into `acc`,
/// which takes the shape of the oldest observation.
fn mean_into(history: &VecDeque<ChannelObservation>, acc: &mut ChannelObservation) {
    let n = history.len() as f64;
    acc.routing
        .clone_from(&history.front().expect("non-empty").routing);
    acc.arrival_rate = 0.0;
    acc.alpha = 0.0;
    for row in &mut acc.routing {
        row.iter_mut().for_each(|p| *p = 0.0);
    }
    for obs in history {
        acc.arrival_rate += obs.arrival_rate / n;
        acc.alpha += obs.alpha / n;
        for (row, orow) in acc.routing.iter_mut().zip(&obs.routing) {
            for (p, op) in row.iter_mut().zip(orow) {
                *p += *op / n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(rate: f64) -> ChannelObservation {
        ChannelObservation {
            arrival_rate: rate,
            alpha: 0.7,
            routing: vec![vec![0.0, 0.5], vec![0.0, 0.0]],
        }
    }

    #[test]
    fn last_interval_echoes_latest() {
        let mut p = DemandPredictor::new(PredictorKind::LastInterval).unwrap();
        assert!(p.predict(0).is_none());
        p.observe(0, &obs(1.0));
        p.observe(0, &obs(3.0));
        assert_eq!(p.predict(0).unwrap().arrival_rate, 3.0);
    }

    #[test]
    fn moving_average_averages_window() {
        let mut p = DemandPredictor::new(PredictorKind::MovingAverage { window: 3 }).unwrap();
        for r in [1.0, 2.0, 3.0, 4.0] {
            p.observe(0, &obs(r));
        }
        // Window keeps [2, 3, 4]; mean 3.
        assert!((p.predict(0).unwrap().arrival_rate - 3.0).abs() < 1e-12);
    }

    #[test]
    fn moving_average_partial_window() {
        let mut p = DemandPredictor::new(PredictorKind::MovingAverage { window: 5 }).unwrap();
        p.observe(0, &obs(2.0));
        p.observe(0, &obs(4.0));
        assert!((p.predict(0).unwrap().arrival_rate - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_blends_toward_new_observations() {
        let mut p = DemandPredictor::new(PredictorKind::Ewma { weight: 0.5 }).unwrap();
        p.observe(0, &obs(1.0));
        p.observe(0, &obs(3.0));
        // 0.5*1 + 0.5*3 = 2.
        assert!((p.predict(0).unwrap().arrival_rate - 2.0).abs() < 1e-12);
        p.observe(0, &obs(2.0));
        assert!((p.predict(0).unwrap().arrival_rate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn routing_matrix_is_smoothed_elementwise() {
        let mut p = DemandPredictor::new(PredictorKind::Ewma { weight: 0.5 }).unwrap();
        let mut o1 = obs(1.0);
        o1.routing[0][1] = 0.4;
        let mut o2 = obs(1.0);
        o2.routing[0][1] = 0.8;
        p.observe(0, &o1);
        p.observe(0, &o2);
        assert!((p.predict(0).unwrap().routing[0][1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn channels_are_independent() {
        let mut p = DemandPredictor::new(PredictorKind::LastInterval).unwrap();
        p.observe(0, &obs(1.0));
        p.observe(1, &obs(9.0));
        assert_eq!(p.predict(0).unwrap().arrival_rate, 1.0);
        assert_eq!(p.predict(1).unwrap().arrival_rate, 9.0);
        assert!(p.predict(2).is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(DemandPredictor::new(PredictorKind::MovingAverage { window: 0 }).is_err());
        assert!(DemandPredictor::new(PredictorKind::Ewma { weight: 0.0 }).is_err());
        assert!(DemandPredictor::new(PredictorKind::Ewma { weight: 1.5 }).is_err());
    }

    #[test]
    fn ewma_weight_one_equals_last_interval() {
        let mut a = DemandPredictor::new(PredictorKind::Ewma { weight: 1.0 }).unwrap();
        let mut b = DemandPredictor::new(PredictorKind::LastInterval).unwrap();
        for r in [1.0, 5.0, 2.0] {
            a.observe(0, &obs(r));
            b.observe(0, &obs(r));
        }
        assert_eq!(a.predict(0), b.predict(0));
    }
}
