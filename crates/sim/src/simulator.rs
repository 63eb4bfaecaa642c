//! The CloudMedia system simulator.
//!
//! Replays a synthetic arrival trace against the full system: viewers join
//! channels, download chunks (from cloud VMs in client–server mode, or
//! from the P2P mesh with rarest-first scheduling plus cloud fallback),
//! jump and leave per the viewing model; the tracker measures statistics;
//! every provisioning interval the controller re-derives demand and
//! reconfigures the cloud through the broker; billing meters the cost.
//!
//! Downloads progress in fixed fluid rounds (default 10 s): each round,
//! bandwidth is allocated to in-flight chunk downloads, bytes advance, and
//! completed chunks trigger viewing-model transitions. The rounds run on
//! the segment driver (`crate::segments`), which every round engine
//! shares: this module's [`Simulator`] runs a Scan, Indexed or Sharded
//! configuration as one site of it, keeping only the single site's
//! boundary work — the fault plane's fleet boundaries and the interval
//! control path (`crate::control`) — and the event-driven kernel runs
//! its own loop (`crate::event_driven`).
//!
//! # Round engines
//!
//! Inside each shard of the driver, the per-round work is done by one
//! of two interchangeable engines selected by [`SimKernel`] (Sharded
//! runs one single-channel `Indexed` engine per channel):
//!
//! - [`SimKernel::Indexed`] (production): round cost scales with *what
//!   happens*, not with how many viewers are connected. Per channel it
//!   keeps an unordered index of the in-flight downloads,
//!   incrementally-maintained chunk-owner counts, and **fixed-point peer
//!   supply aggregates** — the upload pool and per-chunk owner-upload
//!   sums are integers in 1/1024-byte/s units, updated in O(1) on every
//!   join, buffer addition, and departure, so no per-round walk of the
//!   channel membership exists at all. Demand aggregation streams only
//!   the *active downloaders*; waiting peers sit in a calendar wheel
//!   bucketed by wake round and are touched exactly once, when due.
//!   Allocation runs through mask-sparse in-place kernels over each
//!   channel's requested chunks. **Zero heap allocation per round** in
//!   steady state: every buffer — per-channel lanes, sort scratch, the
//!   wheel, the event lists — is owned by the engine or its shard and
//!   reused across all ~60 k rounds of a week-long run. Arrivals are
//!   pulled lazily from the streaming
//!   [`cloudmedia_workload::trace::ArrivalStream`], so a full simulated
//!   week (or year) never materializes its trace.
//! - [`SimKernel::Scan`] (reference): the original engine — three full
//!   peer-population scans per round and fresh `Vec`s for every cloud
//!   allocation. Kept as the benchmark baseline and as the oracle the
//!   indexed engine is tested against.
//!
//! Both engines produce **bit-identical** [`Metrics`] for the same seed.
//! This is by construction:
//!
//! - Per-slot *demand* sums are integers in the same fixed-point units
//!   (`quantize_rate`, one rounding shared by both engines), so the
//!   indexed engine's unordered, possibly split pass over its download
//!   index sums exactly what the scan engine's ordered rescan does.
//! - Peer *supply* aggregates (upload pool, per-chunk owner upload) are
//!   integers in fixed-point units shared by both engines
//!   (`quantize_usable`). Integer addition is associative, so the scan
//!   engine's per-round rescan and the indexed engine's incremental
//!   updates produce the identical value regardless of order, and the
//!   `u64 → f64` conversion both engines apply is exact (sums stay far
//!   below 2^53).
//! - Owner counts are integers, so their incremental maintenance is
//!   exact; the mask-sparse kernels skip only slots whose demand is an
//!   exact zero, which contributes nothing to any sum.
//! - Round events (chunk completions, which draw from the shared RNG,
//!   and wake-ups) are replayed in ascending peer order — the order the
//!   reference scan encounters them — regardless of which lane or wheel
//!   bucket discovered them.

use cloudmedia_cloud::broker::Cloud;
use cloudmedia_cloud::scheduler::ChunkKey;
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::NextAction;
use rand::rngs::StdRng;

use crate::allocation::peer_allocation;
use crate::allocation::ChannelRound;
use crate::config::{SimConfig, SimKernel};
use crate::control::{site_cloud, SiteControl};
use crate::error::SimError;
use crate::faults::{FaultDriver, FaultRun};
use crate::footprint::PeerFootprint;
use crate::metrics::Metrics;
use crate::peer::{Peer, PeerState, PendingChunk};
use crate::segments::{self, Host, Site, Stages};
use crate::telem;
use crate::tracker::Tracker;

/// Fixed-point scale for peer upload-supply aggregation: 1/1024 byte/s
/// units. A power of two, so quantization and the `u64 → f64` readback
/// are exact binary operations; integer sums are associative, which is
/// what lets the indexed engine maintain the upload pool and per-chunk
/// owner-upload sums incrementally while staying bit-identical to the
/// scan engine's per-round rescan (see the module docs).
///
/// Headroom: a 10 Mbps peer is ~1.3e9 units; a hundred million such
/// peers sum to ~1.3e17, inside `u64`; realistic pools stay below 2^53,
/// so the f64 conversion is exact.
pub(crate) const UPLOAD_SCALE: f64 = 1024.0;

/// Quantizes one peer's usable upload (`capacity × efficiency`) onto the
/// fixed-point supply grid. Both engines call this — it is the single
/// definition of a peer's supply contribution.
#[inline]
pub(crate) fn quantize_usable(capacity: f64, eff: f64) -> u64 {
    (capacity * eff * UPLOAD_SCALE).round() as u64
}

/// Converts a fixed-point supply aggregate back to bytes/s.
#[inline]
pub(crate) fn dequantize(units: u64) -> f64 {
    units as f64 * (1.0 / UPLOAD_SCALE)
}

/// Quantizes one download's requested rate for this round —
/// `min(bytes_left / step, vm_bandwidth)` — onto the fixed-point grid
/// (`inv_step` is the precomputed `1 / step`; the multiply replaces a
/// per-downloader division). Per-slot demand sums are integers for the
/// same reason the supply aggregates are: order-free summation, so
/// neither engine needs to visit downloaders in any particular order.
/// Rounds **up** so an almost-finished download (a sub-unit trickle)
/// still requests a nonzero rate and can complete instead of stalling
/// forever.
#[inline]
pub(crate) fn quantize_rate(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) -> u64 {
    rate_units(bytes_left, inv_step, vm_bandwidth) as u64
}

/// `dequantize(quantize_rate(..))`, bit for bit, without the `u64` round
/// trip: the per-download advance passes read a download's own rate
/// through this.
#[inline]
pub(crate) fn quantized_rate(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) -> f64 {
    rate_units(bytes_left, inv_step, vm_bandwidth) as f64 * (1.0 / UPLOAD_SCALE)
}

/// `y.ceil()` for the requested rate `y` on the fixed-point grid, as
/// `trunc(y) + (trunc(y) < y)`. Baseline x86-64 has no rounding
/// instruction, so `f64::ceil` is an out-of-line libm call, and `f64 ↔
/// u64` conversions branch; `f64 ↔ i64` are single instructions. Exact
/// on the domain `0 ≤ y ≤ vm_bandwidth · UPLOAD_SCALE`, which the
/// demand and advance passes stay in because a live download's
/// bytes-left is positive. Any real link keeps the bound far below
/// 2^53; the identity itself holds for every `y` below 2^63.
#[inline]
fn rate_units(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) -> i64 {
    let y = (bytes_left * inv_step).min(vm_bandwidth) * UPLOAD_SCALE;
    debug_assert!(
        (0.0..=vm_bandwidth * UPLOAD_SCALE).contains(&y),
        "requested rate {y} outside the quantizer's domain"
    );
    let t = y as i64;
    t + i64::from((t as f64) < y)
}

/// The system simulator. Construct with a [`SimConfig`] and call
/// [`Simulator::run`].
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation over the trace horizon and returns the recorded
    /// metrics.
    ///
    /// # Errors
    ///
    /// Propagates trace generation, provisioning, and cloud failures.
    pub fn run(&self) -> Result<Metrics, SimError> {
        self.run_with_faults().map(|run| run.metrics)
    }

    /// Runs the simulation and also returns the fault-plane counters
    /// accumulated while applying the configuration's
    /// [`FaultSchedule`](crate::faults::FaultSchedule). With an empty
    /// schedule the metrics are bit-identical to [`Simulator::run`] and
    /// the counters are all zero.
    ///
    /// # Errors
    ///
    /// Propagates trace generation, provisioning, and cloud failures.
    pub fn run_with_faults(&self) -> Result<FaultRun, SimError> {
        self.run_with_telemetry(&Telemetry::disabled())
    }

    /// Runs the simulation while recording stage timings, counters, and
    /// (when the registry was built with tracing) span events into `tel`
    /// — the registry from [`crate::telem::new_registry`]. Telemetry is
    /// a pure side channel: the returned metrics are bit-identical to a
    /// run against [`Telemetry::disabled`].
    ///
    /// # Errors
    ///
    /// Propagates trace generation, provisioning, and cloud failures.
    pub fn run_with_telemetry(&self, tel: &Telemetry) -> Result<FaultRun, SimError> {
        let cfg = &self.config;
        match cfg.kernel {
            SimKernel::EventDriven => crate::event_driven::run_with_telemetry(
                cfg,
                &crate::event_driven::DesScenario::default(),
                tel,
            )
            .map(|run| FaultRun {
                metrics: run.metrics,
                fault_stats: run.fault_stats,
            }),
            SimKernel::Scan | SimKernel::Indexed | SimKernel::Sharded => run_site(cfg, tel, None),
        }
    }
}

/// Read-only per-round inputs the segment driver's shards hand their
/// engine (`crate::segments`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundCtx<'a> {
    /// Round duration, seconds.
    pub(crate) step: f64,
    /// `1 / step`, precomputed for the demand quantization.
    pub(crate) inv_step: f64,
    /// Per-connection rate cap (one VM's bandwidth), bytes/s.
    pub(crate) vm_bandwidth: f64,
    /// Usable fraction of peer upload capacity.
    pub(crate) eff: f64,
    /// True in P2P mode.
    pub(crate) p2p: bool,
    /// `min(1, online/reserved)` scaling of per-channel reservations.
    pub(crate) online_scale: f64,
    /// Cloud bandwidth reserved per channel by the current plan, bytes/s.
    pub(crate) channel_reserved: &'a [f64],
}

/// A per-round allocation engine: told about peer lifecycle events, asked
/// once per round to run the allocation stage and to name the peers that
/// can act this round. `Send` so the segment driver can step shards on
/// the rayon pool.
pub(crate) trait RoundEngine: Send {
    /// A peer was appended at global index `idx` (always in the
    /// `Downloading` state).
    fn on_join(&mut self, peers: &[Peer], idx: usize);

    /// The peer at `idx` (watching `channel`) finished a chunk and added
    /// it to its buffer.
    fn on_buffer(&mut self, channel: usize, idx: usize, chunk: usize);

    /// The peer at `idx` started downloading `chunk` (left the `Waiting`
    /// state) with `bytes_left` to fetch by `deadline`.
    fn on_download_started(
        &mut self,
        channel: usize,
        idx: usize,
        chunk: usize,
        bytes_left: f64,
        deadline: f64,
    );

    /// The peer at `idx` moved straight to its next download after a
    /// completion: refresh the engine's view of its in-flight chunk.
    fn sync_download(
        &mut self,
        channel: usize,
        idx: usize,
        chunk: usize,
        bytes_left: f64,
        deadline: f64,
    );

    /// The peer at `idx` (stable id `id`) stopped downloading and now
    /// waits until `wake_at` (prefetch gate or playback drain before
    /// departure).
    fn on_download_stopped(&mut self, channel: usize, idx: usize, id: u64, wake_at: f64);

    /// Called immediately before `peers.swap_remove(idx)` (the peer at
    /// the last index moves into `idx`).
    fn on_remove(&mut self, peers: &[Peer], idx: usize);

    /// Runs demand aggregation, P2P allocation, and cloud allocation for
    /// one round; returns the total cloud rate used.
    fn allocate(&mut self, peers: &[Peer], ctx: &RoundCtx<'_>) -> f64;

    /// Advances every in-flight download by one round (pro-rating each
    /// peer's share of its slot's served rate, exactly as the original
    /// scan did) and finds the waits that come due by `t1`. Indices of
    /// peers whose chunk completed go to `completed`; indices of due
    /// waiters go to `woken`; both sorted ascending. Downloads that did
    /// not complete have their remaining bytes written back internally —
    /// the caller only ever handles events.
    fn advance_round(
        &mut self,
        peers: &mut [Peer],
        ctx: &RoundCtx<'_>,
        t1: f64,
        completed: &mut Vec<usize>,
        woken: &mut Vec<usize>,
    );

    /// Bytes of engine-resident state that scale with the connected
    /// population (see `crate::footprint`); 0 for an engine that keeps
    /// none.
    fn resident_peer_bytes(&self) -> usize {
        0
    }

    /// Records the engine's sampled sub-lane wall times into the
    /// `hist/lane_wall_ns` histogram; nothing for an engine that never
    /// split its passes.
    fn record_lane_walls(&self, _tel: &Telemetry) {}
}

// ----------------------------------------------------------------------
// Scan engine: the original three-scans-per-round implementation.
// ----------------------------------------------------------------------

/// Reference engine preserving the pre-index implementation: per round it
/// rescans the entire peer population for demand, again for P2P upload
/// state, and allocates fresh vectors for the cloud stage — exactly the
/// allocation profile the indexed engine was built to eliminate.
#[derive(Debug)]
pub(crate) struct ScanEngine {
    n_channels: usize,
    max_chunks: usize,
    requested: Vec<f64>,
    peer_served: Vec<f64>,
    cloud_served: Vec<f64>,
    rounds: Vec<ChannelRound>,
    /// Fixed-point upload-pool accumulator per channel (rescanned every
    /// round; shared supply grid with the indexed engine).
    pool_units: Vec<u64>,
    /// Fixed-point owner-upload accumulator per slot.
    owner_units: Vec<u64>,
    /// Fixed-point demand accumulator per slot.
    req_units: Vec<u64>,
    /// Served-rate ratio per slot (recomputed each round).
    ratio: Vec<f64>,
}

impl ScanEngine {
    pub(crate) fn new(n_channels: usize, max_chunks: usize) -> Self {
        let slots = n_channels * max_chunks;
        Self {
            n_channels,
            max_chunks,
            requested: vec![0.0; slots],
            peer_served: vec![0.0; slots],
            cloud_served: vec![0.0; slots],
            rounds: (0..n_channels)
                .map(|_| ChannelRound {
                    requested_rate: vec![0.0; max_chunks],
                    owners: vec![0; max_chunks],
                    owner_upload: vec![0.0; max_chunks],
                    upload_pool: 0.0,
                })
                .collect(),
            pool_units: vec![0; n_channels],
            owner_units: vec![0; slots],
            req_units: vec![0; slots],
            ratio: vec![0.0; slots],
        }
    }
}

impl RoundEngine for ScanEngine {
    fn on_join(&mut self, _peers: &[Peer], _idx: usize) {}

    fn on_buffer(&mut self, _channel: usize, _idx: usize, _chunk: usize) {}

    fn on_download_started(
        &mut self,
        _channel: usize,
        _idx: usize,
        _chunk: usize,
        _bytes_left: f64,
        _deadline: f64,
    ) {
    }

    fn sync_download(
        &mut self,
        _channel: usize,
        _idx: usize,
        _chunk: usize,
        _bytes_left: f64,
        _deadline: f64,
    ) {
    }

    fn on_download_stopped(&mut self, _channel: usize, _idx: usize, _id: u64, _wake_at: f64) {}

    fn on_remove(&mut self, _peers: &[Peer], _idx: usize) {}

    fn allocate(&mut self, peers: &[Peer], ctx: &RoundCtx<'_>) -> f64 {
        let max_chunks = self.max_chunks;
        let slots = self.n_channels * max_chunks;

        // --- Demand aggregation: full-population scan ---------------
        self.req_units[..slots].iter_mut().for_each(|v| *v = 0);
        for p in peers {
            if let PeerState::Downloading {
                chunk, bytes_left, ..
            } = p.state()
            {
                self.req_units[p.channel() * max_chunks + chunk] +=
                    quantize_rate(bytes_left, ctx.inv_step, ctx.vm_bandwidth);
            }
        }
        for (out, &units) in self.requested[..slots].iter_mut().zip(&self.req_units) {
            *out = dequantize(units);
        }

        // --- Peer-side allocation (P2P only): second full scan ------
        if ctx.p2p {
            for (c, round) in self.rounds.iter_mut().enumerate() {
                round.owners.iter_mut().for_each(|v| *v = 0);
                round
                    .requested_rate
                    .copy_from_slice(&self.requested[c * max_chunks..(c + 1) * max_chunks]);
            }
            self.pool_units.iter_mut().for_each(|v| *v = 0);
            self.owner_units[..slots].iter_mut().for_each(|v| *v = 0);
            for p in peers {
                let round = &mut self.rounds[p.channel()];
                let usable = quantize_usable(p.upload_capacity, ctx.eff);
                self.pool_units[p.channel()] += usable;
                let mut bits = p.buffer;
                while bits != 0 {
                    let chunk = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if chunk < max_chunks {
                        round.owners[chunk] += 1;
                        self.owner_units[p.channel() * max_chunks + chunk] += usable;
                    }
                }
            }
            for (c, round) in self.rounds.iter_mut().enumerate() {
                round.upload_pool = dequantize(self.pool_units[c]);
                for (k, out) in round.owner_upload.iter_mut().enumerate() {
                    *out = dequantize(self.owner_units[c * max_chunks + k]);
                }
            }
            for (c, round) in self.rounds.iter().enumerate() {
                let served = peer_allocation(round);
                self.peer_served[c * max_chunks..(c + 1) * max_chunks].copy_from_slice(&served);
            }
        } else {
            self.peer_served[..slots].iter_mut().for_each(|v| *v = 0.0);
        }

        // --- Cloud allocation over the residual demand ---------------
        // Fresh buffers every round, as the original implementation
        // allocated them.
        let mut cloud_served = vec![0.0_f64; slots];
        for c in 0..self.n_channels {
            let span = c * max_chunks..(c + 1) * max_chunks;
            let residual: Vec<f64> = span
                .clone()
                .map(|i| (self.requested[i] - self.peer_served[i]).max(0.0))
                .collect();
            let served = crate::allocation::allocate_pool(
                &residual,
                ctx.channel_reserved[c] * ctx.online_scale,
            );
            cloud_served[span].copy_from_slice(&served);
        }
        let used: f64 = cloud_served.iter().sum();
        self.cloud_served = cloud_served;
        for i in 0..slots {
            self.ratio[i] = if self.requested[i] > 0.0 {
                (self.peer_served[i] + self.cloud_served[i]) / self.requested[i]
            } else {
                0.0
            };
        }
        used
    }

    fn advance_round(
        &mut self,
        peers: &mut [Peer],
        ctx: &RoundCtx<'_>,
        t1: f64,
        completed: &mut Vec<usize>,
        woken: &mut Vec<usize>,
    ) {
        // Full-population scan, as the original implementation advanced
        // downloads.
        for (idx, p) in peers.iter_mut().enumerate() {
            match p.state() {
                PeerState::Downloading {
                    chunk,
                    bytes_left,
                    deadline,
                } => {
                    let slot = p.channel() * self.max_chunks + chunk;
                    let my_req = quantized_rate(bytes_left, ctx.inv_step, ctx.vm_bandwidth);
                    let my_rate = my_req * self.ratio[slot];
                    let new_left = bytes_left - my_rate * ctx.step;
                    if new_left <= 1e-6 {
                        completed.push(idx);
                    } else {
                        p.set_state(PeerState::Downloading {
                            chunk,
                            bytes_left: new_left,
                            deadline,
                        });
                    }
                }
                PeerState::Waiting { wake_at, .. } => {
                    if wake_at <= t1 {
                        woken.push(idx);
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Indexed engine: per-channel peer index + incremental aggregates.
// ----------------------------------------------------------------------

/// One in-flight download in a lane's index: the downloader's global
/// peer index, the chunk it fetches, and the authoritative bytes-left
/// counter (the peer's own state is only refreshed at completion
/// boundaries). 16 bytes, so a lane's whole download index streams
/// through cache in the advance loop. The round's requested rate is not
/// cached: `advance` re-derives it from `bytes` with the same exact
/// fixed-point quantization `process` used, which costs one multiply
/// and saves 8 bytes per downloader.
#[derive(Debug, Clone, Copy)]
struct DlEntry {
    /// Global peer index (re-keyed on `swap_remove`).
    idx: u32,
    /// Chunk being fetched.
    chunk: u32,
    /// Bytes still to download.
    bytes: f64,
}

/// Per-sub-lane scratch for the split (parallel) demand and advance
/// passes over one hot channel's download index: a private fixed-point
/// demand accumulator, the chunk mask it wrote, the completions its
/// slice produced, and a sampled wall-time counter for the
/// `hist/lane_wall_ns` telemetry histogram.
#[derive(Debug)]
struct LaneScratch {
    /// Fixed-point demand partials, folded into the lane in sub-lane
    /// order after the fan-out (integer sums, so the fold order cannot
    /// change the totals). Written whole, once per round.
    req_units: [u64; 64],
    /// Chunk slots this sub-lane wrote in `req_units`.
    mask: u64,
    /// Peer indices whose download completed in this sub-lane's slice.
    completed: Vec<u32>,
    /// Sampled wall time spent in this sub-lane, nanoseconds.
    wall_ns: u64,
}

/// One channel's round state and scratch, owned by the indexed engine.
///
/// All per-chunk vectors are sized `max_chunks` (≤ 64, so chunk sets are
/// `u64` masks) at construction and reused for the entire run; the
/// download index retains capacity across rounds, so a steady-state
/// round performs no heap allocation. Peer supply (upload pool,
/// per-chunk owner upload) lives in fixed-point integers maintained
/// incrementally — there is no per-round membership walk.
#[derive(Debug)]
struct ChannelLane {
    /// This channel's index (for `channel_reserved` lookup).
    id: usize,
    /// In-flight downloads, in no particular order (every cross-peer sum
    /// is fixed-point and therefore order-free, so the index uses O(1)
    /// push / swap-remove; the engine's `dl_slot` map locates entries).
    dl: Vec<DlEntry>,
    /// Number of peers owning each chunk — maintained incrementally on
    /// buffer additions and departures (integers, so maintenance is
    /// exact).
    owners: Vec<usize>,
    /// Σ usable upload over owners of each chunk, fixed-point units
    /// (incremental; see [`UPLOAD_SCALE`]).
    owner_units: Vec<u64>,
    /// Σ usable upload over the channel's members, fixed-point units
    /// (incremental).
    pool_units: u64,
    /// Chunk slots written last processed round (cleared lazily at the
    /// start of the next).
    written_mask: u64,
    /// Requested download rate per chunk this round.
    requested: Vec<f64>,
    /// Peer-served rate per chunk this round.
    peer_served: Vec<f64>,
    /// Cloud-served rate per chunk this round.
    cloud_served: Vec<f64>,
    /// Residual (cloud-facing) demand per chunk this round.
    residual: Vec<f64>,
    /// f64 view of `owner_units`, refreshed for the requested chunks
    /// each round (the allocation kernel reads no others).
    owner_upload: Vec<f64>,
    /// Served-rate ratio `(peer + cloud) / requested` per chunk this
    /// round — hoists the advance loop's division out to one per chunk.
    ratio: Vec<f64>,
    /// Sort scratch for the allocation kernels.
    order: Vec<usize>,
}

impl ChannelLane {
    fn new(id: usize, max_chunks: usize) -> Self {
        assert!(max_chunks <= 64, "chunk sets are u64 masks");
        Self {
            id,
            dl: Vec::new(),
            owners: vec![0; max_chunks],
            owner_units: vec![0; max_chunks],
            pool_units: 0,
            written_mask: 0,
            requested: vec![0.0; max_chunks],
            peer_served: vec![0.0; max_chunks],
            cloud_served: vec![0.0; max_chunks],
            residual: vec![0.0; max_chunks],
            owner_upload: vec![0.0; max_chunks],
            ratio: vec![0.0; max_chunks],
            order: Vec::new(),
        }
    }

    /// Lazily clears last round's written slots; afterwards every
    /// per-chunk buffer is all-zero.
    fn clear_written(&mut self) {
        let mut m = self.written_mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            self.requested[k] = 0.0;
            self.peer_served[k] = 0.0;
            self.cloud_served[k] = 0.0;
            self.residual[k] = 0.0;
        }
        self.written_mask = 0;
    }

    /// Fused per-round pass for this channel: demand aggregation over the
    /// active downloaders, fixed-point supply readback, and both
    /// allocation kernels — all confined to the requested chunk slots,
    /// so per-round cost scales with active downloads rather than
    /// channel size or chunk count.
    fn process(&mut self, ctx: &RoundCtx<'_>) {
        self.clear_written();
        if self.dl.is_empty() {
            // Nothing is requested: every output stays zero and the lane
            // costs O(1) this round.
            return;
        }

        let (units, req_mask) = slice_demand(&self.dl, ctx);
        self.finish(ctx, &units, req_mask);
    }

    /// Split variant of [`ChannelLane::process`] for a hot channel: the
    /// demand scan fans out over up to `scratch.len()` contiguous
    /// sub-lanes (fixed-order slices of the download index) on the rayon
    /// pool; each sub-lane accumulates private fixed-point partials,
    /// which are folded back in sub-lane order. The demand sums are
    /// integers, so the slicing and thread count cannot change a single
    /// bit of the totals — this path is exactly [`ChannelLane::process`]
    /// with the additions reassociated.
    fn process_split(&mut self, ctx: &RoundCtx<'_>, scratch: &mut [LaneScratch], time_it: bool) {
        self.clear_written();
        if self.dl.is_empty() {
            return;
        }
        let (seg, scratch) = sub_lane_slices(self.dl.len(), scratch);
        let dl = &self.dl;
        rayon::scope(|s| {
            for (part, sc) in dl.chunks(seg).zip(scratch.iter_mut()) {
                s.spawn(move |_| {
                    let t0 = time_it.then(std::time::Instant::now);
                    (sc.req_units, sc.mask) = slice_demand(part, ctx);
                    if let Some(t0) = t0 {
                        sc.wall_ns += t0.elapsed().as_nanos() as u64;
                    }
                });
            }
        });
        let mut units = [0u64; 64];
        let mut req_mask: u64 = 0;
        for sc in scratch.iter() {
            let mut m = sc.mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                units[k] += sc.req_units[k];
            }
            req_mask |= sc.mask;
        }
        self.finish(ctx, &units, req_mask);
    }

    /// The serial tail of the round pass: requested-rate readback of the
    /// per-chunk demand `units`, both allocation kernels, and the
    /// served-rate ratios — identical whichever demand pass (serial or
    /// split) summed `units`.
    fn finish(&mut self, ctx: &RoundCtx<'_>, units: &[u64; 64], req_mask: u64) {
        let mut m = req_mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            self.requested[k] = dequantize(units[k]);
        }
        self.written_mask = req_mask;

        if ctx.p2p {
            // Supply readback: the incremental integer aggregates convert
            // exactly; only the requested chunks are materialized.
            let mut m = req_mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                self.owner_upload[k] = dequantize(self.owner_units[k]);
            }
            crate::allocation::peer_allocation_sparse(
                &self.requested,
                &self.owners,
                &self.owner_upload,
                dequantize(self.pool_units),
                &mut self.peer_served,
                &mut self.order,
                req_mask,
            );
        }
        let mut m = req_mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            self.residual[k] = (self.requested[k] - self.peer_served[k]).max(0.0);
        }
        crate::allocation::allocate_pool_sparse(
            &self.residual,
            ctx.channel_reserved[self.id] * ctx.online_scale,
            &mut self.cloud_served,
            &mut self.order,
            req_mask,
        );
        // One division per requested chunk; the advance loop then costs
        // a single multiply per downloader.
        let mut m = req_mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            self.ratio[k] = (self.peer_served[k] + self.cloud_served[k]) / self.requested[k];
        }
    }

    /// Advances this lane's in-flight downloads by one round, streaming
    /// the download index; completed downloads are appended to
    /// `completed` (order restored by the caller's global sort). The
    /// requested rate is re-derived from `bytes` — unchanged since the
    /// demand pass — with the identical quantization, so the advance is
    /// bit-equal to the old cached-rate implementation.
    fn advance(&mut self, ctx: &RoundCtx<'_>, completed: &mut Vec<usize>) {
        advance_slice(&mut self.dl, &self.ratio, ctx, |idx| {
            completed.push(idx as usize);
        });
    }

    /// Split variant of [`ChannelLane::advance`]: the same fixed-order
    /// sub-lane slices as [`ChannelLane::process_split`] advance in
    /// parallel (each entry's update reads only its own bytes and the
    /// shared read-only ratios), and each sub-lane's completions are
    /// concatenated in sub-lane order — the caller's global sort makes
    /// the discovery order immaterial anyway.
    fn advance_split(
        &mut self,
        ctx: &RoundCtx<'_>,
        scratch: &mut [LaneScratch],
        completed: &mut Vec<usize>,
        time_it: bool,
    ) {
        if self.dl.is_empty() {
            return;
        }
        let (seg, scratch) = sub_lane_slices(self.dl.len(), scratch);
        let ratio = &self.ratio[..];
        rayon::scope(|s| {
            for (part, sc) in self.dl.chunks_mut(seg).zip(scratch.iter_mut()) {
                s.spawn(move |_| {
                    let t0 = time_it.then(std::time::Instant::now);
                    sc.completed.clear();
                    advance_slice(part, ratio, ctx, |idx| sc.completed.push(idx));
                    if let Some(t0) = t0 {
                        sc.wall_ns += t0.elapsed().as_nanos() as u64;
                    }
                });
            }
        });
        for sc in scratch {
            completed.extend(sc.completed.iter().map(|&i| i as usize));
        }
    }
}

/// Demand of one slice of a download index: per-chunk fixed-point sums
/// and the mask of requested chunks. The accumulator and mask are
/// locals, so the loop stores nothing to memory another lane or the
/// engine shares; the caller writes them out once.
#[inline]
fn slice_demand(part: &[DlEntry], ctx: &RoundCtx<'_>) -> ([u64; 64], u64) {
    let (inv_step, vm_bandwidth) = (ctx.inv_step, ctx.vm_bandwidth);
    let mut units = [0u64; 64];
    let mut mask: u64 = 0;
    for e in part {
        units[e.chunk as usize] += quantize_rate(e.bytes, inv_step, vm_bandwidth);
        mask |= 1 << e.chunk;
    }
    (units, mask)
}

/// Advances one slice of a download index by a round at the served
/// ratios `ratio`, reporting each completed download's peer index to
/// `done`.
#[inline]
fn advance_slice(
    part: &mut [DlEntry],
    ratio: &[f64],
    ctx: &RoundCtx<'_>,
    mut done: impl FnMut(u32),
) {
    let (inv_step, vm_bandwidth, step) = (ctx.inv_step, ctx.vm_bandwidth, ctx.step);
    for e in part {
        let my_rate = quantized_rate(e.bytes, inv_step, vm_bandwidth) * ratio[e.chunk as usize];
        let new_left = e.bytes - my_rate * step;
        if new_left <= 1e-6 {
            done(e.idx);
        } else {
            e.bytes = new_left;
        }
    }
}

/// The sub-lane slicing both split passes share: contiguous slices of
/// `seg = ceil(n / lanes)` downloads, and the scratch of the sub-lanes
/// that get one. `chunks(seg)` yields `ceil(n / seg)` slices, which can
/// be fewer than the lanes (81 downloads over 10 lanes make 9 slices of
/// 9); a sub-lane without a slice keeps an earlier round's partials and
/// completions, so it must not be folded.
fn sub_lane_slices(n: usize, scratch: &mut [LaneScratch]) -> (usize, &mut [LaneScratch]) {
    let seg = n.div_ceil(scratch.len());
    (seg, &mut scratch[..n.div_ceil(seg)])
}

/// Calendar wheel of waiting peers, bucketed by round. Pushing is O(1);
/// each round drains exactly the buckets the clock passed. An entry more
/// than one revolution ahead (never at realistic wait lengths — gates
/// wait minutes, drains at most a session's buffered playback) simply
/// stays in its wrapped bucket until its own revolution comes around.
/// Due-ness is always re-checked against the actual round clock, so
/// bucket placement never changes behavior — only where an entry waits.
///
/// Entries are bare 4-byte slots into the engine's wake slab; wake
/// times are not duplicated into the wheel but read back through the
/// `wake_of` lookup handed to [`WakeWheel::drain_due`] (they live on
/// the waiting peers themselves), which cuts the wheel's per-waiter
/// footprint from 16 to 4 bytes.
#[derive(Debug)]
struct WakeWheel {
    /// Round duration (bucket width), seconds.
    dt: f64,
    /// `buckets[b]` holds slots whose `floor(wake_at / dt) % LEN == b`.
    buckets: Vec<Vec<u32>>,
    /// Highest absolute bucket index already drained.
    drained: i64,
    /// Scratch for entries drained early (same bucket, later in the
    /// round window); re-checked next round.
    pending: Vec<u32>,
}

impl WakeWheel {
    /// One week of 10-second rounds is 60 480 buckets; 8192 (~22 h at the
    /// default round) keeps the wheel compact while far exceeding any
    /// prefetch-gate or drain wait.
    const LEN: usize = 8192;

    /// Bucket count for a single-channel shard's wheel: the sharded
    /// engine owns one wheel *per channel*, so the full-size wheel's
    /// fixed cost (8192 `Vec`s ≈ 200 KB) would multiply by thousands of
    /// channels. 256 buckets (~43 min at the default round) still cover
    /// every prefetch-gate wait and almost all drain waits; longer waits
    /// wrap and are skipped once per revolution, which placement never
    /// affects behavior — only where the entry sits.
    const SHARD_LEN: usize = 256;

    fn new(dt: f64, len: usize) -> Self {
        Self {
            dt,
            buckets: (0..len).map(|_| Vec::new()).collect(),
            drained: -1,
            pending: Vec::new(),
        }
    }

    fn abs_bucket(&self, wake_at: f64) -> i64 {
        (wake_at / self.dt).floor() as i64
    }

    fn push(&mut self, slot: u32, wake_at: f64) {
        let b = self.abs_bucket(wake_at);
        if b <= self.drained {
            // The wake falls inside a bucket the clock already passed
            // this round (possible whenever wake times are not aligned
            // to round boundaries, e.g. chunk_seconds not a multiple of
            // round_seconds). The bucket will not be drained again for a
            // full revolution, so park the entry in `pending`, which is
            // re-checked at the start of every round.
            self.pending.push(slot);
        } else {
            let len = self.buckets.len() as i64;
            self.buckets[(b.rem_euclid(len)) as usize].push(slot);
        }
    }

    /// Collects every slot whose wake time (per `wake_of`) is `<= t1`
    /// into `due`.
    fn drain_due(&mut self, t1: f64, due: &mut Vec<u32>, wake_of: impl Fn(u32) -> f64) {
        // Entries drained early in a previous pass.
        self.pending.retain(|&slot| {
            if wake_of(slot) <= t1 {
                due.push(slot);
                false
            } else {
                true
            }
        });
        let target = self.abs_bucket(t1);
        while self.drained < target {
            self.drained += 1;
            let drained = self.drained;
            let dt = self.dt;
            let pos = (drained.rem_euclid(self.buckets.len() as i64)) as usize;
            let bucket = &mut self.buckets[pos];
            for i in (0..bucket.len()).rev() {
                let slot = bucket[i];
                let wake_at = wake_of(slot);
                // Same-revolution entries only; a far-future collision
                // (> one revolution ahead) stays for a later pass.
                if (wake_at / dt).floor() as i64 != drained {
                    continue;
                }
                bucket.swap_remove(i);
                if wake_at <= t1 {
                    due.push(slot);
                } else {
                    self.pending.push(slot);
                }
            }
        }
    }
}

/// "Not downloading" marker in [`IndexedEngine::dl_slot`].
const DL_NONE: u32 = u32::MAX;

/// Size of one in-flight download record, exposed for the worst-case
/// accounting in [`crate::footprint`].
pub(crate) const DL_ENTRY_BYTES: usize = std::mem::size_of::<DlEntry>();

/// How often (in rounds) the split sub-lane passes sample their per-lane
/// wall time for the `hist/lane_wall_ns` telemetry histogram. Sampling
/// keeps the clock reads off the hot path; telemetry never affects
/// results.
const LANE_WALL_SAMPLE: u64 = 64;

/// Production engine; see the module docs for the design and the
/// bit-exactness argument.
#[derive(Debug)]
pub(crate) struct IndexedEngine {
    lanes: Vec<ChannelLane>,
    /// First global channel id this engine covers; `lanes[c - base]` is
    /// channel `c`'s lane. 0 for the full-catalog single-site engine;
    /// the sharded engine instantiates one single-lane engine per
    /// channel with `base` = that channel's id.
    base: usize,
    max_chunks: usize,
    /// Usable-upload factor (`peer_efficiency`), applied once at join.
    eff: f64,
    /// Each connected peer's fixed-point usable upload, indexed by
    /// global peer index (mirrors `peers` across `swap_remove`).
    /// Packed to `u32`: the grid is 1/1024 byte/s, so the cap is
    /// ~4 GB/s of usable upload per peer — far beyond any residential
    /// uplink the workloads model (joins assert it).
    usable_units: Vec<u32>,
    /// While downloading: the peer's position in its lane's download
    /// index. While waiting: its slot in `wake_slab` (the peer's own
    /// state tag disambiguates). [`DL_NONE`] only in the instant between
    /// a drained wake and the event-processing that restarts or removes
    /// the peer. Indexed by global peer index.
    dl_slot: Vec<u32>,
    /// Waiting peers' slab slots, bucketed by wake round.
    wheel: WakeWheel,
    /// Slab of waiting peers' current global indices (re-keyed across
    /// `swap_remove`), addressed by the slots stored in the wheel.
    /// Replaces the old stable-id hash map: resolution is one array
    /// load, and the per-waiter cost is 4 bytes plus the free list.
    wake_slab: Vec<u32>,
    /// Free `wake_slab` slots available for reuse.
    free_slots: Vec<u32>,
    /// Scratch for drained wake slots.
    due: Vec<u32>,
    /// Sub-lane fan-out cap for a single-channel engine's round passes
    /// (1 = always serial). Set by the sharded runtime; the fan-out also
    /// requires `dl.len() >= 2 * lane_min`.
    lane_cap: usize,
    /// Minimum downloads per sub-lane before another lane engages.
    lane_min: usize,
    /// Per-sub-lane scratch (`lane_cap` entries when lanes are enabled).
    scratch: Vec<LaneScratch>,
    /// Rounds processed, for sampled sub-lane wall telemetry.
    rounds: u64,
}

impl IndexedEngine {
    pub(crate) fn new(n_channels: usize, max_chunks: usize, eff: f64, round_seconds: f64) -> Self {
        Self::with_base(
            0,
            n_channels,
            max_chunks,
            eff,
            round_seconds,
            WakeWheel::LEN,
        )
    }

    /// An engine covering global channels `base .. base + n_channels`,
    /// with a `wheel_len`-bucket wake wheel. The sharded engine builds
    /// one per channel (`n_channels == 1`,
    /// `wheel_len == WakeWheel::SHARD_LEN`); peers keep their global
    /// channel ids, and [`RoundCtx::channel_reserved`] stays the global
    /// per-channel slice.
    pub(crate) fn with_base(
        base: usize,
        n_channels: usize,
        max_chunks: usize,
        eff: f64,
        round_seconds: f64,
        wheel_len: usize,
    ) -> Self {
        Self {
            lanes: (0..n_channels)
                .map(|c| ChannelLane::new(base + c, max_chunks))
                .collect(),
            base,
            max_chunks,
            eff,
            usable_units: Vec::new(),
            dl_slot: Vec::new(),
            wheel: WakeWheel::new(round_seconds, wheel_len),
            wake_slab: Vec::new(),
            free_slots: Vec::new(),
            due: Vec::new(),
            lane_cap: 1,
            lane_min: 1,
            scratch: Vec::new(),
            rounds: 0,
        }
    }

    /// A single-channel engine for one per-channel shard (Sharded),
    /// with its round passes allowed to fan out over up to `lane_cap`
    /// sub-lanes of at least `lane_min` downloads each (`lane_cap == 1`
    /// keeps the shard fully serial).
    pub(crate) fn for_shard(
        channel: usize,
        max_chunks: usize,
        eff: f64,
        round_seconds: f64,
        lane_cap: usize,
        lane_min: usize,
    ) -> Self {
        let mut engine = Self::with_base(
            channel,
            1,
            max_chunks,
            eff,
            round_seconds,
            WakeWheel::SHARD_LEN,
        );
        engine.lane_cap = lane_cap.max(1);
        engine.lane_min = lane_min.max(1);
        if engine.lane_cap > 1 {
            engine.scratch = (0..engine.lane_cap)
                .map(|_| LaneScratch {
                    req_units: [0; 64],
                    mask: 0,
                    completed: Vec::new(),
                    wall_ns: 0,
                })
                .collect();
        }
        engine
    }

    /// How many sub-lanes a round pass over `n_dl` downloads fans out
    /// over: one lane per `lane_min` downloads, capped at `lane_cap`.
    /// A pure function of the download count and the engine's fixed
    /// parameters, so both round passes of a round agree.
    fn sub_lanes(&self, n_dl: usize) -> usize {
        if self.lane_cap <= 1 {
            1
        } else {
            (n_dl / self.lane_min).clamp(1, self.lane_cap)
        }
    }

    /// Claims a wake-slab slot for peer `idx` (reuse before growth).
    fn alloc_slot(&mut self, idx: usize) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.wake_slab[slot as usize] = idx as u32;
                slot
            }
            None => {
                self.wake_slab.push(idx as u32);
                (self.wake_slab.len() - 1) as u32
            }
        }
    }
}

impl RoundEngine for IndexedEngine {
    fn on_join(&mut self, peers: &[Peer], idx: usize) {
        debug_assert_eq!(idx, peers.len() - 1, "joins append at the end");
        let p = &peers[idx];
        debug_assert_eq!(p.buffer, 0, "peers join with an empty buffer");
        let usable = quantize_usable(p.upload_capacity, self.eff);
        let packed = u32::try_from(usable)
            .expect("peer upload exceeds the packed u32 supply grid (~4 GB/s)");
        self.usable_units.push(packed);
        let lane = &mut self.lanes[p.channel() - self.base];
        lane.pool_units += usable;
        let PeerState::Downloading {
            chunk, bytes_left, ..
        } = p.state()
        else {
            unreachable!("peers join downloading their start chunk");
        };
        self.dl_slot.push(lane.dl.len() as u32);
        lane.dl.push(DlEntry {
            idx: idx as u32,
            chunk: chunk as u32,
            bytes: bytes_left,
        });
    }

    fn on_buffer(&mut self, channel: usize, idx: usize, chunk: usize) {
        let lane = &mut self.lanes[channel - self.base];
        lane.owners[chunk] += 1;
        lane.owner_units[chunk] += u64::from(self.usable_units[idx]);
    }

    fn on_download_started(
        &mut self,
        channel: usize,
        idx: usize,
        chunk: usize,
        bytes_left: f64,
        _deadline: f64,
    ) {
        debug_assert_eq!(self.dl_slot[idx], DL_NONE, "peer was not downloading");
        let lane = &mut self.lanes[channel - self.base];
        self.dl_slot[idx] = lane.dl.len() as u32;
        lane.dl.push(DlEntry {
            idx: idx as u32,
            chunk: chunk as u32,
            bytes: bytes_left,
        });
    }

    fn sync_download(
        &mut self,
        channel: usize,
        idx: usize,
        chunk: usize,
        bytes_left: f64,
        _deadline: f64,
    ) {
        let pos = self.dl_slot[idx] as usize;
        let entry = &mut self.lanes[channel - self.base].dl[pos];
        debug_assert_eq!(entry.idx as usize, idx, "download index is consistent");
        entry.chunk = chunk as u32;
        entry.bytes = bytes_left;
    }

    fn on_download_stopped(&mut self, channel: usize, idx: usize, _id: u64, wake_at: f64) {
        let lane = &mut self.lanes[channel - self.base];
        let pos = self.dl_slot[idx] as usize;
        debug_assert_eq!(lane.dl[pos].idx as usize, idx);
        lane.dl.swap_remove(pos);
        if let Some(moved) = lane.dl.get(pos) {
            self.dl_slot[moved.idx as usize] = pos as u32;
        }
        // Park the waiter in the slab; `dl_slot` holds its slab slot
        // until the wake drains (the peer's state tag disambiguates the
        // two uses of `dl_slot`).
        let slot = self.alloc_slot(idx);
        self.dl_slot[idx] = slot;
        // `wake_at` is strictly in the future (gates and drains both
        // check against `now` before waiting).
        self.wheel.push(slot, wake_at);
    }

    fn on_remove(&mut self, peers: &[Peer], idx: usize) {
        let removed = &peers[idx];
        let lane = &mut self.lanes[removed.channel() - self.base];
        let usable = u64::from(self.usable_units[idx]);
        lane.pool_units -= usable;
        // Drop the departing peer's chunks from the owner aggregates —
        // integer subtraction, so the running sums stay exact.
        let mut bits = removed.buffer;
        while bits != 0 {
            let chunk = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if chunk < self.max_chunks {
                lane.owners[chunk] -= 1;
                lane.owner_units[chunk] -= usable;
            }
        }
        if matches!(removed.state(), PeerState::Downloading { .. }) {
            let pos = self.dl_slot[idx] as usize;
            debug_assert_eq!(lane.dl[pos].idx as usize, idx);
            lane.dl.swap_remove(pos);
            if let Some(moved_entry) = lane.dl.get(pos) {
                self.dl_slot[moved_entry.idx as usize] = pos as u32;
            }
        } else {
            // A waiting peer is only removed in the round its wake
            // drained (the departure path), so it has no live wheel
            // entry or slab slot.
            debug_assert_eq!(self.dl_slot[idx], DL_NONE);
        }
        // `swap_remove` moves the peer at the last global index into
        // `idx`; re-key it. The supply aggregates are value-based, not
        // position-based, so only the download index and the wake slab
        // care.
        self.usable_units.swap_remove(idx);
        self.dl_slot.swap_remove(idx);
        let last = peers.len() - 1;
        if last != idx {
            let moved = &peers[last];
            let slot = self.dl_slot[idx];
            if slot != DL_NONE {
                if matches!(moved.state(), PeerState::Downloading { .. }) {
                    let entry = &mut self.lanes[moved.channel() - self.base].dl[slot as usize];
                    debug_assert_eq!(entry.idx as usize, last);
                    entry.idx = idx as u32;
                } else {
                    // Waiting peers live in the slab.
                    debug_assert_eq!(self.wake_slab[slot as usize] as usize, last);
                    self.wake_slab[slot as usize] = idx as u32;
                }
            }
        }
    }

    fn allocate(&mut self, _peers: &[Peer], ctx: &RoundCtx<'_>) -> f64 {
        self.rounds += 1;
        if self.lanes.len() == 1 && self.sub_lanes(self.lanes[0].dl.len()) > 1 {
            // A hot single-channel shard: fan the demand scan out over
            // fixed-order sub-lanes (bit-identical by integer-sum
            // reassociation; see `process_split`).
            let subs = self.sub_lanes(self.lanes[0].dl.len());
            let time_it = self.rounds.is_multiple_of(LANE_WALL_SAMPLE);
            self.lanes[0].process_split(ctx, &mut self.scratch[..subs], time_it);
        } else {
            for lane in &mut self.lanes {
                lane.process(ctx);
            }
        }
        // One running accumulator over channels in order, visiting only
        // written slots — the same addition sequence as a dense flat sum,
        // since the skipped slots hold exact zeros.
        let mut used = 0.0;
        for lane in &self.lanes {
            let mut m = lane.written_mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                used += lane.cloud_served[k];
            }
        }
        used
    }

    fn advance_round(
        &mut self,
        peers: &mut [Peer],
        ctx: &RoundCtx<'_>,
        t1: f64,
        completed: &mut Vec<usize>,
        woken: &mut Vec<usize>,
    ) {
        let subs = if self.lanes.len() == 1 {
            self.sub_lanes(self.lanes[0].dl.len())
        } else {
            1
        };
        if subs > 1 {
            let time_it = self.rounds.is_multiple_of(LANE_WALL_SAMPLE);
            self.lanes[0].advance_split(ctx, &mut self.scratch[..subs], completed, time_it);
        } else {
            for lane in &mut self.lanes {
                lane.advance(ctx, completed);
            }
        }
        completed.sort_unstable();
        self.due.clear();
        {
            // Wake times live on the waiting peers; the slab maps a
            // wheel slot to the peer's current index.
            let Self {
                wheel,
                wake_slab,
                due,
                ..
            } = self;
            wheel.drain_due(t1, due, |slot| {
                peers[wake_slab[slot as usize] as usize].wake_at()
            });
        }
        for &slot in &self.due {
            let idx = self.wake_slab[slot as usize] as usize;
            debug_assert!(matches!(peers[idx].state(), PeerState::Waiting { .. }));
            // The slot is free again; clear the peer's slab reference so
            // a restarted download can claim `dl_slot` (asserted there).
            self.dl_slot[idx] = DL_NONE;
            self.free_slots.push(slot);
            woken.push(idx);
        }
        woken.sort_unstable();
    }

    /// The supply and download-slot mirrors, the in-flight download
    /// index, and the waiting peers' slab + wheel entries. Fixed
    /// per-engine overhead (bucket headers, sub-lane scratch) is
    /// excluded — it does not grow with viewers. The `Peer` array itself
    /// is accounted by the caller.
    fn resident_peer_bytes(&self) -> usize {
        use std::mem::size_of;
        let downloads: usize = self.lanes.iter().map(|l| l.dl.len()).sum();
        let waiting = self.wake_slab.len() - self.free_slots.len();
        self.usable_units.len() * size_of::<u32>()
            + self.dl_slot.len() * size_of::<u32>()
            + downloads * size_of::<DlEntry>()
            + waiting * 2 * size_of::<u32>()
    }

    fn record_lane_walls(&self, tel: &Telemetry) {
        for w in self.scratch.iter().map(|s| s.wall_ns).filter(|&w| w > 0) {
            tel.observe(telem::HIST_LANE_WALL, w);
        }
    }
}

// ----------------------------------------------------------------------
// The single-site caller of the segment driver.
// ----------------------------------------------------------------------

/// A single-site run's boundary work: the fault plane's fleet failures
/// and repairs at round boundaries, and the interval control path
/// (through `crate::control`) at provisioning rounds. Everything else —
/// arrivals, allocation, download progress, viewing-model transitions,
/// metering and sampling — is the segment driver's
/// (`crate::segments`). Every fault decision is a pure function of the
/// simulated clock, so the run stays bit-identical across engines and
/// parallelism.
struct OneSite<'a> {
    cfg: &'a SimConfig,
    cloud: Cloud,
    control: SiteControl,
    faults: FaultDriver,
}

impl Host for OneSite<'_> {
    fn boundary<E: RoundEngine>(
        &mut self,
        clock: f64,
        provision: bool,
        sites: &mut [Site<'_, E>],
        tel: &Telemetry,
    ) -> Result<(), SimError> {
        self.faults
            .apply_due(clock, &mut self.cloud, self.control.last_targets())?;
        if provision {
            let site = &mut sites[0];
            let record = self.control.provision(
                clock,
                &mut self.cloud,
                &mut self.faults.stats,
                tel,
                site.channel_peers(),
                || site.interval_stats(),
            )?;
            site.metrics.intervals.push(record);
        }
        Ok(())
    }

    fn pre_round(
        &mut self,
        t0: f64,
        t1: f64,
        online: &mut [f64],
        running: &mut [f64],
    ) -> Result<(), SimError> {
        // A no-op on a segment's first round, whose boundaries
        // `boundary` applied before provisioning.
        self.faults
            .apply_due(t0, &mut self.cloud, self.control.last_targets())?;
        let reserved = self.control.reserved_total();
        online[0] = if reserved > 0.0 {
            (self.cloud.running_bandwidth() / reserved).min(1.0)
        } else {
            0.0
        };
        self.cloud.tick(t1)?;
        running[0] = self.cloud.running_bandwidth();
        Ok(())
    }

    fn control(&self, _site: usize) -> &SiteControl {
        &self.control
    }
}

impl OneSite<'_> {
    /// Runs `site` to the horizon; returns its metrics (costs not yet
    /// filled in) and, when asked, adds its end-of-run footprint.
    fn run<E: RoundEngine>(
        &mut self,
        mut site: Site<'_, E>,
        stages: Stages,
        tel: &Telemetry,
        footprint: Option<&mut PeerFootprint>,
    ) -> Result<Metrics, SimError> {
        segments::run(self.cfg, std::slice::from_mut(&mut site), self, stages, tel)?;
        self.faults.stats.shed_arrivals += site.shed();
        if let Some(out) = footprint {
            site.add_footprint(out);
        }
        Ok(site.metrics)
    }
}

/// Runs a Scan, Indexed or Sharded configuration as one site, returning
/// the metrics plus the fault-plane counters and recording telemetry
/// into `tel`; with `footprint`, also measures the end-of-run per-peer
/// resident footprint (`crate::footprint`).
pub(crate) fn run_site(
    cfg: &SimConfig,
    tel: &Telemetry,
    footprint: Option<&mut PeerFootprint>,
) -> Result<FaultRun, SimError> {
    // Process-wide counter baseline, taken before the arrival streams
    // exist so their lazy draws are attributed to this run.
    let globals = telem::GlobalCounters::capture();
    let run_span = tel.span(telem::RUN_WALL);
    let cloud = site_cloud(cfg, 1.0)?;
    let control = SiteControl::new(cfg, &cloud)?;
    let mut host = OneSite {
        cfg,
        cloud,
        control,
        faults: FaultDriver::new(&cfg.faults),
    };
    let mut metrics = match cfg.kernel {
        SimKernel::Scan => host.run(Site::scan(cfg)?, Stages::Rounds, tel, footprint)?,
        SimKernel::Indexed => host.run(Site::indexed(cfg)?, Stages::Rounds, tel, footprint)?,
        SimKernel::Sharded => host.run(Site::sharded(cfg)?, Stages::Shards, tel, footprint)?,
        SimKernel::EventDriven => unreachable!("the event-driven engine has its own loop"),
    };
    drop(run_span);
    metrics.total_vm_cost = host.cloud.billing().vm_cost().as_dollars();
    metrics.total_storage_cost = host.cloud.billing().storage_cost().as_dollars();
    telem::record_fault_stats(tel, &host.faults.stats);
    globals.record_delta(tel);
    Ok(FaultRun {
        metrics,
        fault_stats: host.faults.stats,
    })
}

/// Advances a peer's playback pipeline after it finished downloading
/// `chunk`: walks the viewing model through already-buffered chunks, then
/// either starts (or gates) the next download or schedules departure.
/// `play_end` is the playback end time of the just-finished chunk.
#[allow(clippy::too_many_arguments)]
fn advance_playback(
    p: &mut Peer,
    idx: usize,
    chunk: usize,
    mut play_end: f64,
    chunk_bytes: f64,
    chunk_seconds: f64,
    now: f64,
    catalog: &Catalog,
    tracker: &mut Tracker,
    rng: &mut StdRng,
    removals: &mut Vec<usize>,
) {
    let viewing = &catalog.channel(p.channel()).viewing;
    let mut current = chunk;
    loop {
        match viewing.sample_next(rng, current) {
            NextAction::Watch(next) => {
                tracker.record_transition(p.channel(), current, next);
                if p.owns(next) {
                    // Already buffered (a jump back): it plays straight
                    // from the buffer; decide again after it.
                    play_end += chunk_seconds;
                    current = next;
                    continue;
                }
                // Prefetch gate: the download may start up to
                // PREFETCH_WINDOWS playback windows before its deadline.
                let gate = play_end - crate::peer::PREFETCH_WINDOWS * chunk_seconds;
                if gate > now {
                    p.set_state(PeerState::Waiting {
                        next: Some(PendingChunk {
                            chunk: next,
                            deadline: play_end,
                        }),
                        wake_at: gate,
                    });
                } else {
                    p.start_chunk(next, chunk_bytes, play_end);
                }
                return;
            }
            NextAction::Leave => {
                tracker.record_leave(p.channel(), current);
                if play_end <= now {
                    removals.push(idx);
                } else {
                    // Drain playback (still uploading), then depart.
                    p.set_state(PeerState::Waiting {
                        next: None,
                        wake_at: play_end,
                    });
                }
                return;
            }
        }
    }
}

/// Handles one round's events — chunk completions and due wake-ups,
/// merged in ascending peer order (the order the original full scan
/// encountered them, so RNG draws, tracker records, and removals are
/// identical) — then removes departed peers, highest index first so
/// earlier indices stay valid across `swap_remove`. Called once per
/// round by every shard of the segment driver (`crate::segments`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_round_events<E: RoundEngine>(
    engine: &mut E,
    peers: &mut Vec<Peer>,
    completed: &[usize],
    woken: &[usize],
    removals: &mut Vec<usize>,
    tracker: &mut Tracker,
    rng: &mut StdRng,
    catalog: &Catalog,
    chunk_bytes: f64,
    chunk_seconds: f64,
    t1: f64,
    window_startup_sum: &mut f64,
    window_startup_count: &mut usize,
) {
    let (mut ci, mut wi) = (0usize, 0usize);
    while ci < completed.len() || wi < woken.len() {
        let is_completion = match (completed.get(ci), woken.get(wi)) {
            (Some(&c), Some(&w)) => c < w,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if is_completion {
            let idx = completed[ci];
            ci += 1;
            let p = &mut peers[idx];
            let PeerState::Downloading {
                chunk, deadline, ..
            } = p.state()
            else {
                unreachable!("completion events come from downloading peers");
            };
            // Chunk complete at (approximately) t1.
            debug_assert!(!p.owns(chunk), "a chunk downloads at most once");
            p.add_to_buffer(chunk);
            engine.on_buffer(p.channel(), idx, chunk);
            if deadline.is_finite() {
                if t1 > deadline {
                    p.record_stall(t1, t1 - deadline);
                }
            } else {
                // First chunk: playback starts now.
                *window_startup_sum += t1 - p.joined_at;
                *window_startup_count += 1;
            }
            // The chunk plays from its deadline (or from now, after a
            // stall or for the first chunk).
            let play_start = if deadline.is_finite() {
                deadline.max(t1)
            } else {
                t1
            };
            advance_playback(
                p,
                idx,
                chunk,
                play_start + chunk_seconds,
                chunk_bytes,
                chunk_seconds,
                t1,
                catalog,
                tracker,
                rng,
                removals,
            );
            // The playback walk either began the next download, gated it
            // (or a departure drain) behind a wake-up, or scheduled an
            // immediate departure.
            match p.state() {
                PeerState::Waiting { wake_at, .. } => {
                    engine.on_download_stopped(p.channel(), idx, p.id, wake_at);
                }
                PeerState::Downloading {
                    chunk,
                    bytes_left,
                    deadline,
                } => {
                    engine.sync_download(p.channel(), idx, chunk, bytes_left, deadline);
                }
            }
        } else {
            let idx = woken[wi];
            wi += 1;
            let p = &mut peers[idx];
            let PeerState::Waiting { next, wake_at } = p.state() else {
                unreachable!("wake events come from waiting peers");
            };
            debug_assert!(wake_at <= t1);
            match next {
                Some(pending) => {
                    p.start_chunk(pending.chunk, chunk_bytes, pending.deadline);
                    engine.on_download_started(
                        p.channel(),
                        idx,
                        pending.chunk,
                        chunk_bytes,
                        pending.deadline,
                    );
                }
                None => removals.push(idx),
            }
        }
    }
    // Remove departed peers, highest index first so earlier indices stay
    // valid across `swap_remove`.
    removals.sort_unstable();
    for &idx in removals.iter().rev() {
        engine.on_remove(peers, idx);
        peers.swap_remove(idx);
    }
    removals.clear();
}

/// A `(ChunkKey, demand)` pair list grouped per channel; helper shared by
/// experiment harnesses.
pub fn group_demand_by_channel(demands: &[(ChunkKey, f64)], n_channels: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_channels];
    for (key, demand) in demands {
        if key.channel < n_channels {
            out[key.channel] += demand;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimMode;

    /// The rate quantizer as written with `std`'s `ceil`: the reference
    /// `quantize_rate` and `quantized_rate` must match bit for bit.
    fn reference_rate(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) -> u64 {
        ((bytes_left * inv_step).min(vm_bandwidth) * UPLOAD_SCALE).ceil() as u64
    }

    fn assert_rate_matches(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) {
        let want = reference_rate(bytes_left, inv_step, vm_bandwidth);
        let args = format!("({bytes_left:e}, {inv_step:e}, {vm_bandwidth:e})");
        assert_eq!(
            quantize_rate(bytes_left, inv_step, vm_bandwidth),
            want,
            "quantize_rate{args}"
        );
        assert_eq!(
            quantized_rate(bytes_left, inv_step, vm_bandwidth).to_bits(),
            dequantize(want).to_bits(),
            "quantized_rate{args}"
        );
    }

    /// SplitMix64: a dependency-free bit source for the rounding sweeps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A link cap whose grid bound `CAP · UPLOAD_SCALE` is 2^62, so the
    /// sweeps reach past 2^53 while staying in the quantizer's domain.
    const CAP: f64 = (1u64 << 52) as f64;

    /// Checks the grid value `y`: `bytes_left = y / UPLOAD_SCALE` with a
    /// unit step is exact unless the quotient is subnormal, so the
    /// quantizer sees `y` itself (and the reference the same arguments
    /// either way).
    fn assert_grid_value_matches(y: f64) {
        assert_rate_matches(y / UPLOAD_SCALE, 1.0, CAP);
    }

    #[test]
    fn rate_rounding_matches_std_at_integers_and_their_neighbours() {
        let mut ys: Vec<f64> = (0..=4096).map(f64::from).collect();
        for e in 0..=62 {
            ys.push((1u64 << e) as f64);
        }
        // Around 2^52 the grid spacing becomes 1; past 2^53 it is 2.
        for base in [1u64 << 52, 1 << 53] {
            for d in 0..=4 {
                ys.push((base - d) as f64);
                ys.push((base + d) as f64);
            }
            ys.push(base as f64 - 0.5);
        }
        let mut state = 0xC10D_0001;
        for _ in 0..100_000 {
            ys.push((splitmix(&mut state) >> 11) as f64); // integers below 2^53
        }
        for y in ys {
            assert_grid_value_matches(y);
            assert_grid_value_matches(y.next_up());
            if y > 0.0 {
                assert_grid_value_matches(y.next_down());
            }
        }
    }

    #[test]
    fn rate_rounding_matches_std_at_zero_and_subnormals() {
        for bytes_left in [0.0, -0.0, f64::MIN_POSITIVE, f64::from_bits(1)] {
            assert_rate_matches(bytes_left, 1.0, CAP);
            assert_rate_matches(bytes_left, 0.1, 1.25e6);
        }
        let mut state = 0xC10D_0002;
        for _ in 0..100_000 {
            // Subnormal bytes scale to subnormal or tiny grid values.
            let subnormal = f64::from_bits(splitmix(&mut state) >> 12);
            assert_rate_matches(subnormal, 1.0, CAP);
        }
    }

    #[test]
    fn rate_rounding_matches_std_on_random_bit_patterns() {
        let mut state = 0xC10D_0003;
        let mut checked = 0;
        while checked < 1_000_000 {
            // Clear the sign; the filter drops NaNs, infinities and
            // values past the cap, which lie outside the domain.
            let y = f64::from_bits(splitmix(&mut state) >> 1);
            if y <= CAP * UPLOAD_SCALE {
                assert_grid_value_matches(y);
                checked += 1;
            }
        }
        // Realistic arguments: 10 s rounds and a 10 Mbit/s link cap,
        // which clamps about half of these byte counts.
        for _ in 0..1_000_000 {
            let bytes_left = (splitmix(&mut state) >> 11) as f64 * (2.5e7 / (1u64 << 53) as f64);
            assert_rate_matches(bytes_left, 0.1, 1.25e6);
        }
    }

    /// A small, fast configuration: 3 channels, ~120 viewers, 6 hours.
    fn small_config(mode: SimMode) -> SimConfig {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.catalog = Catalog::zipf(
            3,
            0.8,
            cloudmedia_workload::viewing::ViewingModel::paper_default(),
            60.0,
            300.0,
        )
        .unwrap();
        cfg.trace.horizon_seconds = 6.0 * 3600.0;
        cfg.round_seconds = 10.0;
        cfg
    }

    #[test]
    fn client_server_run_produces_sane_metrics() {
        let m = Simulator::new(small_config(SimMode::ClientServer))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(m.intervals.len(), 6, "one record per hour");
        assert!(!m.samples.is_empty());
        assert!(m.mean_quality() > 0.9, "quality {q}", q = m.mean_quality());
        assert!(m.peak_peers() > 20, "peers showed up: {}", m.peak_peers());
        assert!(m.total_vm_cost > 0.0);
        assert!(m.total_storage_cost > 0.0);
        assert!(
            m.total_storage_cost < 0.01 * m.total_vm_cost,
            "storage is negligible"
        );
    }

    #[test]
    fn provisioned_covers_used_most_of_the_time() {
        let m = Simulator::new(small_config(SimMode::ClientServer))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            m.provision_coverage() > 0.85,
            "coverage {c}",
            c = m.provision_coverage()
        );
    }

    #[test]
    fn p2p_needs_less_cloud_than_client_server() {
        let cs = Simulator::new(small_config(SimMode::ClientServer))
            .unwrap()
            .run()
            .unwrap();
        let p2p = Simulator::new(small_config(SimMode::P2p))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            p2p.mean_used_bandwidth() < cs.mean_used_bandwidth(),
            "P2P used {p} vs C/S used {c}",
            p = p2p.mean_used_bandwidth(),
            c = cs.mean_used_bandwidth()
        );
        assert!(p2p.total_vm_cost < cs.total_vm_cost);
        assert!(
            p2p.mean_quality() > 0.85,
            "P2P quality {q}",
            q = p2p.mean_quality()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Simulator::new(small_config(SimMode::P2p))
            .unwrap()
            .run()
            .unwrap();
        let b = Simulator::new(small_config(SimMode::P2p))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scan_and_indexed_engines_agree_exactly() {
        for mode in [SimMode::ClientServer, SimMode::P2p] {
            let mut scan_cfg = small_config(mode);
            scan_cfg.kernel = SimKernel::Scan;
            let mut indexed_cfg = small_config(mode);
            indexed_cfg.kernel = SimKernel::Indexed;
            let scan = Simulator::new(scan_cfg).unwrap().run().unwrap();
            let indexed = Simulator::new(indexed_cfg).unwrap().run().unwrap();
            assert_eq!(scan, indexed, "engines diverged in {mode:?}");
        }
    }

    #[test]
    fn baseline_provisioners_run_end_to_end() {
        use cloudmedia_core::baseline::ProvisionerKind;
        let mut fixed_cfg = small_config(SimMode::ClientServer);
        // Peak-size the fixed fleet for the small catalog (~120 avg users,
        // flash-crowd peak ~3x): 360 viewers x 50 KB/s x margin.
        fixed_cfg.provisioner = ProvisionerKind::Fixed {
            peak_demand: 360.0 * 50_000.0 * 1.1,
        };
        let fixed = Simulator::new(fixed_cfg).unwrap().run().unwrap();
        let model = Simulator::new(small_config(SimMode::ClientServer))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            fixed.mean_quality() > 0.95,
            "fixed quality {}",
            fixed.mean_quality()
        );
        assert!(
            fixed.mean_vm_hourly_cost() > model.mean_vm_hourly_cost(),
            "the fixed peak fleet must cost more than the elastic controller              (fixed {f} vs model {m})",
            f = fixed.mean_vm_hourly_cost(),
            m = model.mean_vm_hourly_cost()
        );

        let mut reactive_cfg = small_config(SimMode::ClientServer);
        reactive_cfg.provisioner = ProvisionerKind::Reactive { headroom: 0.2 };
        let reactive = Simulator::new(reactive_cfg).unwrap().run().unwrap();
        assert!(
            reactive.mean_quality() > 0.9,
            "reactive quality {}",
            reactive.mean_quality()
        );
    }

    /// On a large multi-channel population the indexed engine's
    /// allocation stage produces exactly the same per-slot rates as the
    /// reference engine's full scan.
    #[test]
    fn large_population_allocation_is_bit_identical_to_scan() {
        let n_channels = 5;
        let max_chunks = 16;
        let n_peers = 17_408;
        let mut scan = ScanEngine::new(n_channels, max_chunks);
        let mut indexed = IndexedEngine::new(n_channels, max_chunks, 0.85, 10.0);
        let mut peers: Vec<Peer> = Vec::new();
        // Deterministic synthetic population with buffered history.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..n_peers {
            let channel = (next() as usize) % n_channels;
            let chunk = (next() as usize) % max_chunks;
            let upload = 1e4 + (next() % 100_000) as f64;
            peers.push(Peer::new(i as u64, channel, upload, chunk, 15e6, 0.0));
            scan.on_join(&peers, i);
            indexed.on_join(&peers, i);
            for _ in 0..(next() % 6) {
                let owned = (next() as usize) % max_chunks;
                if owned != chunk && !peers[i].owns(owned) {
                    peers[i].add_to_buffer(owned);
                    scan.on_buffer(channel, i, owned);
                    indexed.on_buffer(channel, i, owned);
                }
            }
        }
        let channel_reserved = vec![5.0e7; n_channels];
        let ctx = RoundCtx {
            step: 10.0,
            inv_step: 0.1,
            vm_bandwidth: 1.25e6,
            eff: 0.85,
            p2p: true,
            online_scale: 1.0,
            channel_reserved: &channel_reserved,
        };
        let used_scan = scan.allocate(&peers, &ctx);
        let used_indexed = indexed.allocate(&peers, &ctx);
        assert_eq!(
            used_scan.to_bits(),
            used_indexed.to_bits(),
            "used-rate sums differ"
        );
        for c in 0..n_channels {
            let lane = &indexed.lanes[c];
            for k in 0..max_chunks {
                let i = c * max_chunks + k;
                assert_eq!(
                    scan.requested[i].to_bits(),
                    lane.requested[k].to_bits(),
                    "requested[{c}][{k}]"
                );
                assert_eq!(
                    scan.peer_served[i].to_bits(),
                    lane.peer_served[k].to_bits(),
                    "peer_served[{c}][{k}]"
                );
                assert_eq!(
                    scan.cloud_served[i].to_bits(),
                    lane.cloud_served[k].to_bits(),
                    "cloud_served[{c}][{k}]"
                );
            }
        }
    }

    #[test]
    fn group_demand_by_channel_sums() {
        let demands = vec![
            (
                ChunkKey {
                    channel: 0,
                    chunk: 0,
                },
                1.0,
            ),
            (
                ChunkKey {
                    channel: 0,
                    chunk: 1,
                },
                2.0,
            ),
            (
                ChunkKey {
                    channel: 2,
                    chunk: 0,
                },
                5.0,
            ),
        ];
        let grouped = group_demand_by_channel(&demands, 3);
        assert_eq!(grouped, vec![3.0, 0.0, 5.0]);
    }
}
