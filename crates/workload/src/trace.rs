//! Synthetic trace generation.
//!
//! The paper evaluates against a synthetic trace "following the measured
//! user dynamics and other characteristics in PPLive VoD": diurnal arrivals
//! with two daily flash crowds, Zipf channel popularity, exponential VCR
//! jump intervals, and bounded-Pareto peer upload capacities. This module
//! samples the timestamped user arrivals (channel, start chunk, upload
//! capacity) from a non-homogeneous Poisson process by thinning, lazily
//! and in time order:
//!
//! - [`ChannelArrivals`]: one channel's arrivals. Each shard of the round
//!   engines pulls its own.
//! - [`ArrivalStream`]: every channel's arrivals merged by time. The
//!   event-driven engine pulls it per arrival event.
//!
//! The simulators replay the arrivals and let their behavioural model
//! drive the rest of each session.

use cloudmedia_telemetry::GlobalCounter;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::catalog::Catalog;
use crate::distributions::BoundedPareto;
use crate::diurnal::DiurnalPattern;
use crate::error::{invalid_param, WorkloadError};

/// Process-wide count of user arrivals generated by any arrival stream
/// (telemetry only — read as before/after deltas by the simulators; never
/// fed back into trace generation).
pub static ARRIVALS_GENERATED: GlobalCounter = GlobalCounter::new();

/// One user arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserArrival {
    /// Arrival time in seconds from trace start.
    pub time: f64,
    /// Arriving user's identifier, unique within the trace.
    pub user_id: u64,
    /// Channel joined.
    pub channel: usize,
    /// Chunk the user starts watching.
    pub start_chunk: usize,
    /// The user's upload capacity in bytes per second (P2P mode).
    pub upload_bytes_per_sec: f64,
}

/// Configuration for trace generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Horizon of the trace in seconds.
    pub horizon_seconds: f64,
    /// Diurnal arrival-rate profile applied to every channel.
    pub diurnal: DiurnalPattern,
    /// Peer upload capacity distribution (bytes per second).
    pub upload_min_bps: f64,
    /// Upper bound of the upload capacity distribution.
    pub upload_max_bps: f64,
    /// Pareto shape of the upload capacity distribution.
    pub upload_shape: f64,
    /// RNG seed for deterministic regeneration.
    pub seed: u64,
}

impl TraceConfig {
    /// The paper's settings: one week, two daily flash crowds, uploads
    /// Pareto on [180 kbps, 10 Mbps] with shape 3.
    pub fn paper_default() -> Self {
        Self {
            horizon_seconds: 7.0 * 24.0 * 3600.0,
            diurnal: DiurnalPattern::paper_default(),
            upload_min_bps: 180e3 / 8.0,
            upload_max_bps: 10e6 / 8.0,
            upload_shape: 3.0,
            seed: 0xC10D_4ED1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive horizons or malformed upload
    /// bounds.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !(self.horizon_seconds.is_finite() && self.horizon_seconds > 0.0) {
            return Err(invalid_param(
                "horizon_seconds",
                format!("must be positive, got {}", self.horizon_seconds),
            ));
        }
        BoundedPareto::new(self.upload_min_bps, self.upload_max_bps, self.upload_shape)?;
        Ok(())
    }
}

/// A lazily generated arrival stream: every channel's thinned
/// non-homogeneous Poisson process, producing arrivals one at a time in
/// global time order instead of materializing the whole horizon.
///
/// Memory is `O(channels)` — one pending arrival and one RNG per channel
/// in a binary heap — so a full simulated week (or year) never holds the
/// trace in memory. The event-driven sessions component pulls it per
/// arrival event; the round engines pull each channel's sub-stream on
/// its own, as [`ChannelArrivals`].
///
/// # Thinning with piecewise-window majorants
///
/// Candidates are drawn from a homogeneous process capped per half-hour
/// window by [`DiurnalPattern::window_bound`] — an exact upper bound of
/// the rate inside the window — restarting at window boundaries (valid
/// by memorylessness). Against the single global
/// [`DiurnalPattern::max_multiplier`] cap this raises the acceptance
/// ratio from ~1/3.5 to ~0.9 on the paper profile, i.e. roughly 3×
/// fewer candidate draws per accepted arrival.
///
/// # Determinism
///
/// The stream is fully deterministic in `TraceConfig::seed`: channel `c`
/// draws from its own `StdRng` seeded with [`child_seed`]`(seed, c)`,
/// and the per-channel streams are merged by `(time, channel)`. Because
/// seeding is per channel, a channel's sub-stream does not
/// depend on what else is in the catalog — the property the round
/// engines' per-channel shard ingestion builds on (see
/// [`ChannelArrivals`]):
///
/// ```
/// use cloudmedia_workload::catalog::Catalog;
/// use cloudmedia_workload::trace::{ArrivalStream, TraceConfig};
/// use cloudmedia_workload::viewing::ViewingModel;
///
/// let mut config = TraceConfig::paper_default();
/// config.horizon_seconds = 3600.0;
/// let catalog = Catalog::zipf(2, 0.8, ViewingModel::paper_default(), 60.0, 300.0).unwrap();
///
/// // Same seed → the same stream, arrival for arrival.
/// let a: Vec<_> = ArrivalStream::new(&catalog, &config).unwrap().collect();
/// let b: Vec<_> = ArrivalStream::new(&catalog, &config).unwrap().collect();
/// assert_eq!(a, b);
///
/// // A different seed re-derives every channel's child seed.
/// config.seed ^= 1;
/// let c: Vec<_> = ArrivalStream::new(&catalog, &config).unwrap().collect();
/// assert_ne!(a, c);
/// ```
#[derive(Debug)]
pub struct ArrivalStream {
    /// Per-channel generator state, keyed into `heap` by next arrival.
    channels: Vec<ChannelStream>,
    /// Min-heap of `(next_time, channel_slot)`.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapKey>>,
    horizon: f64,
    diurnal: DiurnalPattern,
    /// Piecewise thinning majorants (shared by every channel).
    caps: WindowCaps,
    upload: BoundedPareto,
    next_user_id: u64,
}

/// Per-window thinning majorants of the diurnal multiplier over one day.
#[derive(Debug, Clone)]
struct WindowCaps {
    /// Window width, seconds.
    window_seconds: f64,
    /// `bounds[w] ≥ multiplier(t)` for every `t` in daily window `w`.
    bounds: Vec<f64>,
}

impl WindowCaps {
    /// Half-hour windows: narrow enough that the bound hugs the paper
    /// profile's flash-crowd bumps, coarse enough that boundary restarts
    /// are negligible.
    const WINDOWS_PER_DAY: usize = 48;

    fn new(diurnal: &DiurnalPattern) -> Self {
        let window_hours = 24.0 / Self::WINDOWS_PER_DAY as f64;
        Self {
            window_seconds: window_hours * 3600.0,
            bounds: (0..Self::WINDOWS_PER_DAY)
                .map(|w| {
                    diurnal.window_bound(w as f64 * window_hours, (w + 1) as f64 * window_hours)
                })
                .collect(),
        }
    }
}

/// Heap key ordering arrivals by time, then channel id for a total,
/// deterministic order even on exact ties.
#[derive(Debug, PartialEq)]
struct HeapKey {
    time: f64,
    slot: usize,
}

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.slot.cmp(&other.slot))
    }
}

/// One channel's lazy thinned-Poisson generator.
#[derive(Debug)]
struct ChannelStream {
    id: usize,
    rng: StdRng,
    /// The channel's base arrival rate (multiplied by the window bound
    /// to get each window's candidate rate).
    base_rate: f64,
    viewing: crate::viewing::ViewingModel,
    /// Candidate clock of the *unthinned* capped-rate process.
    t: f64,
}

/// SplitMix64 finalizer: decorrelates per-channel seeds derived from the
/// shared trace seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the child seed for stream `index` of a family rooted at
/// `seed`, via two rounds of the SplitMix64 finalizer. This is the
/// derivation [`ArrivalStream`] uses for its per-channel RNGs, exposed
/// so other per-channel stream families (the round engines' per-channel
/// behaviour RNGs, [`ChannelArrivals`]) draw from the same
/// well-decorrelated seed tree.
///
/// ```
/// use cloudmedia_workload::trace::child_seed;
///
/// // Deterministic, and distinct across both axes.
/// assert_eq!(child_seed(42, 7), child_seed(42, 7));
/// assert_ne!(child_seed(42, 7), child_seed(42, 8));
/// assert_ne!(child_seed(42, 7), child_seed(43, 7));
/// ```
pub fn child_seed(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(index))
}

impl ArrivalStream {
    /// Creates a stream over the catalog with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(catalog: &Catalog, config: &TraceConfig) -> Result<Self, WorkloadError> {
        config.validate()?;
        let upload = BoundedPareto::new(
            config.upload_min_bps,
            config.upload_max_bps,
            config.upload_shape,
        )?;
        let caps = WindowCaps::new(&config.diurnal);
        let mut channels = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for spec in catalog.channels() {
            if !ChannelStream::is_active(spec, config) {
                continue;
            }
            let slot = channels.len();
            let mut stream = ChannelStream::for_spec(spec, config);
            if let Some(time) = stream.advance(config.horizon_seconds, &config.diurnal, &caps) {
                heap.push(std::cmp::Reverse(HeapKey { time, slot }));
            }
            channels.push(stream);
        }
        Ok(Self {
            channels,
            heap,
            horizon: config.horizon_seconds,
            diurnal: config.diurnal.clone(),
            caps,
            upload,
            next_user_id: 0,
        })
    }

    /// Trace horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }
}

impl ChannelStream {
    /// One channel's generator, seeded with [`child_seed`] of the trace
    /// seed and the **global** channel id. [`ArrivalStream`] (merged)
    /// and [`ChannelArrivals`] (solo) both construct through here, which
    /// is what keeps their per-channel draw sequences bitwise identical
    /// — the load-bearing property behind the round engines' per-channel
    /// arrival ingestion.
    fn for_spec(spec: &crate::catalog::ChannelSpec, config: &TraceConfig) -> Self {
        Self {
            id: spec.id,
            rng: StdRng::seed_from_u64(child_seed(config.seed, spec.id as u64)),
            base_rate: spec.base_arrival_rate,
            viewing: spec.viewing,
            t: 0.0,
        }
    }

    /// Whether the channel produces any arrivals at all under this
    /// configuration (the shared zero-rate gate).
    fn is_active(spec: &crate::catalog::ChannelSpec, config: &TraceConfig) -> bool {
        spec.base_arrival_rate * config.diurnal.max_multiplier() > 0.0
    }
    /// Advances this channel's thinned process to its next accepted
    /// arrival time, or `None` when the horizon is exhausted. Candidates
    /// come from a homogeneous process capped per window by the exact
    /// window majorant; a candidate that crosses its window boundary is
    /// discarded and the clock restarts at the boundary with the next
    /// window's cap (valid by memorylessness). Thinning draws (the
    /// accept coin) come from the same per-channel RNG as the
    /// exponential gaps, keeping the channel's draw sequence a pure
    /// function of its seed.
    fn advance(
        &mut self,
        horizon: f64,
        diurnal: &DiurnalPattern,
        caps: &WindowCaps,
    ) -> Option<f64> {
        let windows = caps.bounds.len();
        loop {
            if self.t >= horizon {
                return None;
            }
            let window = (self.t / caps.window_seconds).floor();
            let bound = caps.bounds[(window as usize) % windows];
            let window_end = (window + 1.0) * caps.window_seconds;
            let rate = self.base_rate * bound;
            if rate <= 0.0 {
                self.t = window_end;
                continue;
            }
            let u: f64 = self.rng.random();
            let candidate = self.t + -(1.0 - u).ln() / rate;
            if candidate >= window_end {
                self.t = window_end;
                continue;
            }
            self.t = candidate;
            if self.t >= horizon {
                return None;
            }
            let accept = diurnal.multiplier(self.t) / bound;
            if self.rng.random::<f64>() < accept {
                return Some(self.t);
            }
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = UserArrival;

    fn next(&mut self) -> Option<UserArrival> {
        let std::cmp::Reverse(key) = self.heap.pop()?;
        let stream = &mut self.channels[key.slot];
        let arrival = UserArrival {
            time: key.time,
            user_id: self.next_user_id,
            channel: stream.id,
            start_chunk: stream.viewing.sample_start_chunk(&mut stream.rng),
            upload_bytes_per_sec: self.upload.sample(&mut stream.rng),
        };
        self.next_user_id += 1;
        ARRIVALS_GENERATED.inc();
        if let Some(time) = stream.advance(self.horizon, &self.diurnal, &self.caps) {
            self.heap.push(std::cmp::Reverse(HeapKey {
                time,
                slot: key.slot,
            }));
        }
        Some(arrival)
    }
}

/// The lazy arrival stream of a **single channel**: exactly the
/// per-channel sub-stream [`ArrivalStream`] merges, produced on its own.
///
/// Each channel shard of the round engines owns one of these, so
/// arrival ingestion needs no cross-shard merge heap and stays
/// `O(1)` memory per shard. Determinism contract: for a given
/// `(TraceConfig::seed, channel id)` the sequence of arrival **times,
/// start chunks, and upload capacities** is identical to what
/// [`ArrivalStream`] produces for that channel inside a full-catalog
/// merge — both seed the channel's RNG with
/// [`child_seed`]`(seed, id)` and draw in the same order. Only
/// `user_id` differs: the merged stream numbers users globally in
/// arrival order, while this stream numbers them `0, 1, 2, …` within
/// the channel.
///
/// ```
/// use cloudmedia_workload::catalog::Catalog;
/// use cloudmedia_workload::trace::{ArrivalStream, ChannelArrivals, TraceConfig};
/// use cloudmedia_workload::viewing::ViewingModel;
///
/// let catalog = Catalog::zipf(3, 0.8, ViewingModel::paper_default(), 90.0, 300.0).unwrap();
/// let mut config = TraceConfig::paper_default();
/// config.horizon_seconds = 6.0 * 3600.0;
///
/// let merged: Vec<_> = ArrivalStream::new(&catalog, &config)
///     .unwrap()
///     .filter(|a| a.channel == 1)
///     .collect();
/// let solo: Vec<_> = ChannelArrivals::new(catalog.channel(1), &config).unwrap().collect();
/// assert_eq!(merged.len(), solo.len());
/// for (m, s) in merged.iter().zip(&solo) {
///     assert_eq!((m.time, m.start_chunk, m.upload_bytes_per_sec),
///                (s.time, s.start_chunk, s.upload_bytes_per_sec));
/// }
/// ```
#[derive(Debug)]
pub struct ChannelArrivals {
    stream: ChannelStream,
    horizon: f64,
    diurnal: DiurnalPattern,
    caps: WindowCaps,
    upload: BoundedPareto,
    next_user_id: u64,
    /// The next accepted arrival time, pre-advanced so `next()` can
    /// draw the start chunk and upload *after* knowing the arrival
    /// exists — the same draw order as [`ArrivalStream`].
    pending: Option<f64>,
}

impl ChannelArrivals {
    /// Creates the lazy arrival stream of one channel.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(
        spec: &crate::catalog::ChannelSpec,
        config: &TraceConfig,
    ) -> Result<Self, WorkloadError> {
        config.validate()?;
        let upload = BoundedPareto::new(
            config.upload_min_bps,
            config.upload_max_bps,
            config.upload_shape,
        )?;
        let caps = WindowCaps::new(&config.diurnal);
        let mut stream = ChannelStream::for_spec(spec, config);
        let pending = if ChannelStream::is_active(spec, config) {
            stream.advance(config.horizon_seconds, &config.diurnal, &caps)
        } else {
            None
        };
        Ok(Self {
            stream,
            horizon: config.horizon_seconds,
            diurnal: config.diurnal.clone(),
            caps,
            upload,
            next_user_id: 0,
            pending,
        })
    }

    /// Trace horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }
}

impl Iterator for ChannelArrivals {
    type Item = UserArrival;

    fn next(&mut self) -> Option<UserArrival> {
        let time = self.pending.take()?;
        let arrival = UserArrival {
            time,
            user_id: self.next_user_id,
            channel: self.stream.id,
            start_chunk: self.stream.viewing.sample_start_chunk(&mut self.stream.rng),
            upload_bytes_per_sec: self.upload.sample(&mut self.stream.rng),
        };
        self.next_user_id += 1;
        ARRIVALS_GENERATED.inc();
        self.pending = self.stream.advance(self.horizon, &self.diurnal, &self.caps);
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn small_catalog() -> Catalog {
        Catalog::zipf(
            3,
            1.0,
            crate::viewing::ViewingModel::paper_default(),
            300.0,
            300.0,
        )
        .unwrap()
    }

    fn short_config() -> TraceConfig {
        TraceConfig {
            horizon_seconds: 6.0 * 3600.0,
            ..TraceConfig::paper_default()
        }
    }

    #[test]
    fn popular_channels_receive_more_arrivals() {
        let catalog = small_catalog();
        let mut cfg = short_config();
        cfg.horizon_seconds = 48.0 * 3600.0;
        let mut counts = [0usize; 3];
        for a in ArrivalStream::new(&catalog, &cfg).unwrap() {
            counts[a.channel] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn arrival_volume_matches_rate_integral() {
        let catalog = small_catalog();
        let cfg = TraceConfig {
            horizon_seconds: 5.0 * 24.0 * 3600.0,
            ..short_config()
        };
        let expected =
            catalog.total_arrival_rate() * cfg.diurnal.mean_multiplier() * cfg.horizon_seconds;
        let got = ArrivalStream::new(&catalog, &cfg).unwrap().count() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "arrivals {got} vs expected {expected}"
        );
    }

    #[test]
    fn flash_crowd_hours_are_busier() {
        let catalog = small_catalog();
        let cfg = TraceConfig {
            horizon_seconds: 3.0 * 24.0 * 3600.0,
            ..short_config()
        };
        // Compare noon hour vs 4am hour across days.
        let mut noon = 0usize;
        let mut night = 0usize;
        for a in ArrivalStream::new(&catalog, &cfg).unwrap() {
            let hour = (a.time % 86_400.0) / 3600.0;
            if (11.5..12.5).contains(&hour) {
                noon += 1;
            } else if (3.5..4.5).contains(&hour) {
                night += 1;
            }
        }
        assert!(
            noon as f64 > 1.8 * night as f64,
            "noon {noon} should far exceed night {night}"
        );
    }

    #[test]
    fn stream_is_sorted_deterministic_and_within_horizon() {
        let catalog = small_catalog();
        let cfg = short_config();
        let a: Vec<UserArrival> = ArrivalStream::new(&catalog, &cfg).unwrap().collect();
        let b: Vec<UserArrival> = ArrivalStream::new(&catalog, &cfg).unwrap().collect();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same stream");
        for w in a.windows(2) {
            assert!(w[0].time <= w[1].time, "stream is globally time-sorted");
        }
        for (i, arr) in a.iter().enumerate() {
            assert_eq!(arr.user_id, i as u64, "ids ascend in pop order");
            assert!(arr.time >= 0.0 && arr.time < cfg.horizon_seconds);
            assert!(arr.channel < 3);
            assert!(arr.upload_bytes_per_sec >= cfg.upload_min_bps);
            assert!(arr.upload_bytes_per_sec <= cfg.upload_max_bps);
        }
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let c: Vec<UserArrival> = ArrivalStream::new(&catalog, &cfg2).unwrap().collect();
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn channel_arrivals_match_merged_stream_per_channel() {
        let catalog = small_catalog();
        let cfg = short_config();
        let merged: Vec<Vec<UserArrival>> = {
            let mut per: Vec<Vec<UserArrival>> = vec![Vec::new(); 3];
            for a in ArrivalStream::new(&catalog, &cfg).unwrap() {
                per[a.channel].push(a);
            }
            per
        };
        for (c, merged_channel) in merged.iter().enumerate() {
            let solo: Vec<UserArrival> = ChannelArrivals::new(catalog.channel(c), &cfg)
                .unwrap()
                .collect();
            assert_eq!(solo.len(), merged_channel.len(), "channel {c} count");
            for (i, (s, m)) in solo.iter().zip(merged_channel).enumerate() {
                assert_eq!(s.time.to_bits(), m.time.to_bits(), "channel {c} time {i}");
                assert_eq!(s.start_chunk, m.start_chunk, "channel {c} chunk {i}");
                assert_eq!(
                    s.upload_bytes_per_sec.to_bits(),
                    m.upload_bytes_per_sec.to_bits(),
                    "channel {c} upload {i}"
                );
                assert_eq!(s.user_id, i as u64, "solo ids are channel-local");
                assert_eq!(s.channel, c);
            }
        }
    }

    #[test]
    fn zero_rate_channel_arrivals_are_empty() {
        use crate::catalog::ChannelSpec;
        let spec = ChannelSpec {
            id: 5,
            popularity: 0.1,
            base_arrival_rate: 0.0,
            viewing: crate::viewing::ViewingModel::paper_default(),
        };
        let mut s = ChannelArrivals::new(&spec, &short_config()).unwrap();
        assert!(s.next().is_none());
    }

    #[test]
    fn invalid_config_rejected() {
        let catalog = small_catalog();
        let mut zero_horizon = short_config();
        zero_horizon.horizon_seconds = 0.0;
        let mut zero_upload = short_config();
        zero_upload.upload_min_bps = 0.0;
        for cfg in [&zero_horizon, &zero_upload] {
            assert!(ArrivalStream::new(&catalog, cfg).is_err());
            assert!(ChannelArrivals::new(catalog.channel(0), cfg).is_err());
        }
    }
}
