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
//! shares, under its one host (`crate::federation`): this module's
//! [`Simulator`] builds a round-engine configuration into a one-site
//! deployment of that host — its own configuration, one uncapped
//! reference-priced site, no redirection — so it applies every fault
//! kind a federation applies. The event-driven kernel runs its own loop
//! (`crate::event_driven`).
//!
//! # Round engines
//!
//! The driver runs one shard per channel. Inside each shard, the
//! per-round work is done by one of two interchangeable one-channel
//! engines; the caller picks one when it builds the sites:
//!
//! - The indexed engine ([`SimKernel::Indexed`], the production
//!   engine, which [`Simulator::run`] runs): round cost scales with *what
//!   happens*, not with how many viewers are connected. It groups the
//!   channel's in-flight downloads into **download cohorts** —
//!   downloads of one chunk that entered in the same round with equal
//!   bytes-left, which advance in lockstep — and keeps
//!   incrementally-maintained chunk-owner counts and **fixed-point peer
//!   supply aggregates**: the upload pool and per-chunk owner-upload
//!   sums are integers in 1/1024-byte/s units, updated in O(1) on every
//!   join, buffer addition, and departure, so no per-round walk of the
//!   channel membership exists at all. Demand aggregation and the
//!   download advance touch one record per cohort; a completed cohort
//!   walks its member list once to report its downloaders. Waiting
//!   peers sit in a calendar wheel bucketed by wake round and are
//!   touched exactly once, when due. Every connected peer holds one
//!   slot in the engine's slab, and a slot's single link threads it into
//!   its cohort's member list or its wake bucket. Allocation runs
//!   through mask-sparse in-place kernels over the channel's requested
//!   chunks. **Zero heap allocation per round** in steady state: every
//!   buffer — the cohort list, per-chunk scratch, the slot slab, sort
//!   scratch, the wheel, the event lists — is owned by the engine or
//!   its shard and reused across all ~60 k rounds of a week-long run.
//!   Arrivals are pulled lazily from the channel's streaming
//!   [`cloudmedia_workload::trace::ChannelArrivals`], so a full
//!   simulated week (or year) never materializes its trace.
//! - The scan engine (the reference, reached only through
//!   [`Simulator::run_reference`]): the original engine — three full
//!   peer-population scans per round and fresh `Vec`s for every cloud
//!   allocation, through the dense [`crate::allocation`] kernels. Kept
//!   as the oracle the indexed engine is tested against.
//!
//! Both engines produce **bit-identical** [`Metrics`] for the same seed.
//! This is by construction:
//!
//! - A download's advance is a function of its own bytes-left and its
//!   chunk's served ratio only, so the members of a cohort, which start
//!   with equal bytes, stay bit-equal every round and complete in the
//!   same round; the cohort's one update is exactly each member's.
//! - Per-chunk *demand* sums are integers in the same fixed-point units
//!   (`quantize_rate`, one rounding shared by both engines). A cohort
//!   adds `count × quantize_rate(bytes)`, an integer product equal to
//!   its members' separate terms, so the indexed engine's unordered
//!   pass over its cohorts sums exactly what the scan engine's ordered
//!   rescan does.
//! - Peer *supply* aggregates (upload pool, per-chunk owner upload) are
//!   integers in fixed-point units shared by both engines
//!   (`quantize_usable`). Integer addition is associative, so the scan
//!   engine's per-round rescan and the indexed engine's incremental
//!   updates produce the identical value regardless of order, and the
//!   `u64 → f64` conversion both engines apply is exact (sums stay far
//!   below 2^53).
//! - Owner counts are integers, so their incremental maintenance is
//!   exact; the mask-sparse kernels skip only chunks whose demand is an
//!   exact zero, which contributes nothing to any sum.
//! - Round events (chunk completions, which draw from the shard's
//!   behaviour RNG, and wake-ups) are replayed in ascending peer order —
//!   the order the reference scan encounters them — regardless of which
//!   cohort or wheel bucket discovered them.

use cloudmedia_core::federation::{FederationPolicy, SiteSpec};
use cloudmedia_core::geo::RegionSpec;
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::NextAction;
use rand::rngs::StdRng;

use crate::allocation::peer_allocation;
use crate::allocation::ChannelRound;
use crate::config::{SimConfig, SimKernel};
use crate::error::SimError;
use crate::faults::FaultRun;
use crate::federation::{self, FederatedConfig};
use crate::footprint::PeerFootprint;
use crate::metrics::Metrics;
use crate::peer::{Peer, PeerState, PendingChunk};
use crate::segments::Site;
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
    /// Creates a simulator after validating the configuration against
    /// what its engine can apply.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures, and rejects a site
    /// outage naming any site but site 0 (every engine runs one site).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        config.faults.validate_sites(1)?;
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
            SimKernel::Indexed => run_site(cfg, tel, None, Site::indexed),
        }
    }

    /// Runs the configuration on the reference round engine: the oracle
    /// the production engine is pinned against. The reference is the
    /// original implementation, which rescans each channel's whole
    /// population every round; it runs the round model through the same
    /// one-site deployment as [`Simulator::run`], whatever
    /// [`SimConfig::kernel`] names, and its results are bit-identical
    /// to an `Indexed` run of the same configuration.
    ///
    /// # Errors
    ///
    /// Propagates trace generation, provisioning, and cloud failures.
    pub fn run_reference(&self, tel: &Telemetry) -> Result<FaultRun, SimError> {
        run_site(&self.config, tel, None, Site::scan)
    }
}

/// Read-only per-round inputs a shard of the segment driver hands its
/// engine (`crate::segments`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundCtx {
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
    /// Cloud bandwidth the channel may use this round: its reservation
    /// under the current plan times the site's `min(1, online/reserved)`
    /// scale, bytes/s.
    pub(crate) reserved: f64,
}

/// A per-round allocation engine for one channel: told about peer
/// lifecycle events, asked once per round to run the allocation stage
/// and to name the peers that can act this round. `Send` so the segment
/// driver can step shards on the rayon pool.
pub(crate) trait RoundEngine: Send {
    /// A peer was appended at index `idx` (always in the `Downloading`
    /// state).
    fn on_join(&mut self, peers: &[Peer], idx: usize);

    /// The peer at `idx` finished `chunk` and added it to its buffer.
    fn on_buffer(&mut self, idx: usize, chunk: usize);

    /// The peer at `idx` started downloading `chunk` with `bytes_left`
    /// to fetch: after a wake-up, or straight after a completion.
    fn on_download_started(&mut self, idx: usize, chunk: usize, bytes_left: f64);

    /// The peer at `idx` stopped downloading and now waits until
    /// `wake_at` (prefetch gate or playback drain before departure).
    fn on_download_stopped(&mut self, idx: usize, wake_at: f64);

    /// Called immediately before `peers.swap_remove(idx)` (the peer at
    /// the last index moves into `idx`).
    fn on_remove(&mut self, peers: &[Peer], idx: usize);

    /// Runs demand aggregation, P2P allocation, and cloud allocation for
    /// one round; returns the cloud rate used.
    fn allocate(&mut self, peers: &[Peer], ctx: &RoundCtx) -> f64;

    /// Advances every in-flight download by one round (pro-rating each
    /// peer's share of its chunk's served rate, exactly as the original
    /// scan did) and finds the waits that come due by `t1`. Indices of
    /// peers whose chunk completed go to `completed`; indices of due
    /// waiters go to `woken`; both sorted ascending. Downloads that did
    /// not complete have their remaining bytes written back internally —
    /// the caller only ever handles events.
    fn advance_round(
        &mut self,
        peers: &mut [Peer],
        ctx: &RoundCtx,
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
}

// ----------------------------------------------------------------------
// Scan engine: the original three-scans-per-round implementation.
// ----------------------------------------------------------------------

/// Reference engine preserving the pre-index implementation: per round it
/// rescans the channel's entire peer population for demand, again for
/// P2P upload state, and allocates fresh vectors for the cloud stage —
/// exactly the allocation profile the indexed engine was built to
/// eliminate.
#[derive(Debug)]
pub(crate) struct ScanEngine {
    requested: Vec<f64>,
    peer_served: Vec<f64>,
    cloud_served: Vec<f64>,
    round: ChannelRound,
    /// Fixed-point owner-upload accumulator per chunk (rescanned every
    /// round; shared supply grid with the indexed engine).
    owner_units: Vec<u64>,
    /// Fixed-point demand accumulator per chunk.
    req_units: Vec<u64>,
    /// Served-rate ratio per chunk (recomputed each round).
    ratio: Vec<f64>,
}

impl ScanEngine {
    /// An engine for a channel of `chunks` chunks.
    pub(crate) fn new(chunks: usize) -> Self {
        Self {
            requested: vec![0.0; chunks],
            peer_served: vec![0.0; chunks],
            cloud_served: vec![0.0; chunks],
            round: ChannelRound {
                requested_rate: vec![0.0; chunks],
                owners: vec![0; chunks],
                owner_upload: vec![0.0; chunks],
                upload_pool: 0.0,
            },
            owner_units: vec![0; chunks],
            req_units: vec![0; chunks],
            ratio: vec![0.0; chunks],
        }
    }
}

impl RoundEngine for ScanEngine {
    fn on_join(&mut self, _peers: &[Peer], _idx: usize) {}

    fn on_buffer(&mut self, _idx: usize, _chunk: usize) {}

    fn on_download_started(&mut self, _idx: usize, _chunk: usize, _bytes_left: f64) {}

    fn on_download_stopped(&mut self, _idx: usize, _wake_at: f64) {}

    fn on_remove(&mut self, _peers: &[Peer], _idx: usize) {}

    fn allocate(&mut self, peers: &[Peer], ctx: &RoundCtx) -> f64 {
        let chunks = self.requested.len();

        // --- Demand aggregation: full-population scan ---------------
        self.req_units.fill(0);
        for p in peers {
            if let PeerState::Downloading {
                chunk, bytes_left, ..
            } = p.state()
            {
                self.req_units[chunk] += quantize_rate(bytes_left, ctx.inv_step, ctx.vm_bandwidth);
            }
        }
        for (out, &units) in self.requested.iter_mut().zip(&self.req_units) {
            *out = dequantize(units);
        }

        // --- Peer-side allocation (P2P only): second full scan ------
        if ctx.p2p {
            let round = &mut self.round;
            round.owners.fill(0);
            round.requested_rate.copy_from_slice(&self.requested);
            let mut pool_units = 0u64;
            self.owner_units.fill(0);
            for p in peers {
                let usable = quantize_usable(p.upload_capacity, ctx.eff);
                pool_units += usable;
                let mut bits = p.buffer;
                while bits != 0 {
                    let chunk = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if chunk < chunks {
                        round.owners[chunk] += 1;
                        self.owner_units[chunk] += usable;
                    }
                }
            }
            round.upload_pool = dequantize(pool_units);
            for (out, &units) in round.owner_upload.iter_mut().zip(&self.owner_units) {
                *out = dequantize(units);
            }
            self.peer_served = peer_allocation(round);
        } else {
            self.peer_served.fill(0.0);
        }

        // --- Cloud allocation over the residual demand ---------------
        // Fresh buffers every round, as the original implementation
        // allocated them.
        let residual: Vec<f64> = self
            .requested
            .iter()
            .zip(&self.peer_served)
            .map(|(&req, &peer)| (req - peer).max(0.0))
            .collect();
        self.cloud_served = crate::allocation::allocate_pool(&residual, ctx.reserved);
        let used: f64 = self.cloud_served.iter().sum();
        for k in 0..chunks {
            self.ratio[k] = if self.requested[k] > 0.0 {
                (self.peer_served[k] + self.cloud_served[k]) / self.requested[k]
            } else {
                0.0
            };
        }
        used
    }

    fn advance_round(
        &mut self,
        peers: &mut [Peer],
        ctx: &RoundCtx,
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
                    let my_req = quantized_rate(bytes_left, ctx.inv_step, ctx.vm_bandwidth);
                    let my_rate = my_req * self.ratio[chunk];
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
// Indexed engine: download cohorts + incremental aggregates.
// ----------------------------------------------------------------------

/// End of a slot list: a cohort's members, a wake bucket, the wheel's
/// pending list.
const NIL: u32 = u32::MAX;

/// [`Slot::next`] of a slot that sits in no list: a new peer's, or one
/// whose cohort just completed or whose wake just drained, until the
/// peer's next download or wait links it again. Only the debug
/// assertions read it.
const UNLINKED: u32 = u32::MAX - 1;

/// A connected peer's handle in the indexed engine, held from its join
/// to its removal. Slots never move, so the lists threaded through them
/// survive the `swap_remove` that re-keys peers: re-keying a peer
/// rewrites one `peer` field.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The peer's current index.
    peer: u32,
    /// The next slot of the one list this slot is in — its download
    /// cohort's members while downloading, its wake bucket (or the
    /// wheel's pending list) while waiting — or [`NIL`] at the end.
    next: u32,
}

/// Size of a peer's slot, exposed for the worst-case accounting in
/// [`crate::footprint`].
pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// A download cohort: in-flight downloads of one chunk that hold equal
/// bytes-left. A download's advance is a function of its own bytes and
/// its chunk's served ratio only, so downloads that enter between one
/// round's advance and the next round's allocation with equal bytes
/// (every new download starts at the chunk size) move in lockstep and
/// complete in the same round. The demand and advance passes therefore
/// touch one record per cohort, not one per download.
#[derive(Debug, Clone, Copy)]
struct Cohort {
    /// Bytes each member still has to download.
    bytes: f64,
    /// Chunk the members fetch.
    chunk: u32,
    /// Number of members.
    count: u32,
    /// The first member's slot; [`Slot::next`] links the rest.
    head: u32,
}

/// Calendar wheel of waiting peers, bucketed by round. Pushing is O(1);
/// each round drains exactly the buckets the clock passed. An entry more
/// than one revolution ahead simply stays in its wrapped bucket until
/// its own revolution comes around. Due-ness is always re-checked
/// against the actual round clock, so bucket placement never changes
/// behavior — only where an entry waits.
///
/// A bucket is a list of the waiters' slots threaded through
/// [`Slot::next`], so a waiter costs the wheel nothing beyond the slot
/// it already holds; wake times are read back through the `wake_of`
/// lookup handed to [`WakeWheel::drain_due`] (they live on the waiting
/// peers themselves).
#[derive(Debug)]
struct WakeWheel {
    /// Round duration (bucket width), seconds.
    dt: f64,
    /// `heads[b]` starts the list of slots whose
    /// `floor(wake_at / dt) % LEN == b`.
    heads: Vec<u32>,
    /// Highest absolute bucket index already drained.
    drained: i64,
    /// Start of the list of entries drained early (same bucket, later in
    /// the round window); re-checked next round.
    pending: u32,
}

impl WakeWheel {
    /// Bucket count. Every channel owns a wheel, so its fixed cost
    /// multiplies by the catalog size. 256 buckets (~43 min at the
    /// default 10 s round) cover every prefetch-gate wait and almost all
    /// drain waits; longer waits wrap and are skipped once per
    /// revolution, which never affects behavior — only where the entry
    /// sits.
    const LEN: usize = 256;

    fn new(dt: f64) -> Self {
        Self {
            dt,
            heads: vec![NIL; Self::LEN],
            drained: -1,
            pending: NIL,
        }
    }

    fn abs_bucket(&self, wake_at: f64) -> i64 {
        (wake_at / self.dt).floor() as i64
    }

    fn push(&mut self, slots: &mut [Slot], slot: u32, wake_at: f64) {
        let b = self.abs_bucket(wake_at);
        let head = if b <= self.drained {
            // The wake falls inside a bucket the clock already passed
            // this round (possible whenever wake times are not aligned
            // to round boundaries, e.g. chunk_seconds not a multiple of
            // round_seconds). The bucket will not be drained again for a
            // full revolution, so park the entry in `pending`, which is
            // re-checked at the start of every round.
            &mut self.pending
        } else {
            &mut self.heads[b.rem_euclid(Self::LEN as i64) as usize]
        };
        let s = &mut slots[slot as usize];
        debug_assert_eq!(s.next, UNLINKED, "a slot sits in one list at a time");
        s.next = std::mem::replace(head, slot);
    }

    /// Moves every waiter whose wake time (per `wake_of`, given the peer
    /// index) is `<= t1` into `due` as its peer index, unlinking its
    /// slot.
    fn drain_due(
        &mut self,
        t1: f64,
        slots: &mut [Slot],
        due: &mut Vec<usize>,
        wake_of: impl Fn(u32) -> f64,
    ) {
        // Entries drained early in a previous pass.
        let mut s = std::mem::replace(&mut self.pending, NIL);
        while s != NIL {
            let slot = &mut slots[s as usize];
            let next = slot.next;
            if wake_of(slot.peer) <= t1 {
                due.push(slot.peer as usize);
                slot.next = UNLINKED;
            } else {
                slot.next = std::mem::replace(&mut self.pending, s);
            }
            s = next;
        }
        let target = self.abs_bucket(t1);
        while self.drained < target {
            self.drained += 1;
            let pos = self.drained.rem_euclid(Self::LEN as i64) as usize;
            let mut s = std::mem::replace(&mut self.heads[pos], NIL);
            while s != NIL {
                let slot = &mut slots[s as usize];
                let next = slot.next;
                let wake_at = wake_of(slot.peer);
                slot.next = if (wake_at / self.dt).floor() as i64 != self.drained {
                    // A far-future collision (> one revolution ahead)
                    // stays for a later pass.
                    std::mem::replace(&mut self.heads[pos], s)
                } else if wake_at <= t1 {
                    due.push(slot.peer as usize);
                    UNLINKED
                } else {
                    std::mem::replace(&mut self.pending, s)
                };
                s = next;
            }
        }
    }
}

/// Production engine for one channel; see the module docs for the design
/// and the bit-exactness argument.
///
/// All per-chunk vectors are sized to the channel's chunk count (≤ 64,
/// so chunk sets are `u64` masks) at construction and reused for the
/// entire run; the cohort list retains capacity across rounds, so a
/// steady-state round performs no heap allocation. Peer supply (upload
/// pool, per-chunk owner upload) lives in fixed-point integers
/// maintained incrementally — there is no per-round membership walk.
#[derive(Debug)]
pub(crate) struct IndexedEngine {
    /// In-flight downloads as cohorts, in no particular order (every
    /// cross-download sum is fixed-point and therefore order-free).
    cohorts: Vec<Cohort>,
    /// Per chunk: the index in `cohorts` of the cohort that downloads
    /// entering since the last advance join, or [`NIL`]. Reset at every
    /// advance, which moves that cohort's bytes on.
    fresh: Vec<u32>,
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
    /// Chunks written last processed round (cleared lazily at the start
    /// of the next).
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
    /// Usable-upload factor (`peer_efficiency`), applied once at join.
    eff: f64,
    /// Each connected peer's fixed-point usable upload, indexed by peer
    /// index (mirrors `peers` across `swap_remove`). Packed to `u32`:
    /// the grid is 1/1024 byte/s, so the cap is ~4 GB/s of usable upload
    /// per peer — far beyond any residential uplink the workloads model
    /// (joins assert it).
    usable_units: Vec<u32>,
    /// Each connected peer's slot in `slots`, indexed by peer index
    /// (mirrors `peers` across `swap_remove`).
    slot_of: Vec<u32>,
    /// Every connected peer's [`Slot`]; the cohorts' member lists and
    /// the wake wheel's buckets thread through it.
    slots: Vec<Slot>,
    /// Free `slots` entries available for reuse.
    free_slots: Vec<u32>,
    /// Waiting peers' slots, bucketed by wake round.
    wheel: WakeWheel,
}

impl IndexedEngine {
    /// An engine for a channel of `chunks` chunks, with usable-upload
    /// factor `eff` and rounds of `round_seconds`.
    pub(crate) fn new(chunks: usize, eff: f64, round_seconds: f64) -> Self {
        assert!(chunks <= 64, "chunk sets are u64 masks");
        Self {
            cohorts: Vec::new(),
            fresh: vec![NIL; chunks],
            owners: vec![0; chunks],
            owner_units: vec![0; chunks],
            pool_units: 0,
            written_mask: 0,
            requested: vec![0.0; chunks],
            peer_served: vec![0.0; chunks],
            cloud_served: vec![0.0; chunks],
            residual: vec![0.0; chunks],
            owner_upload: vec![0.0; chunks],
            ratio: vec![0.0; chunks],
            order: Vec::new(),
            eff,
            usable_units: Vec::new(),
            slot_of: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            wheel: WakeWheel::new(round_seconds),
        }
    }

    /// Links the download in `slot` (fetching `chunk`, `bytes` to go)
    /// into the cohort of `chunk` opened since the last advance, or
    /// opens one if there is none or its bytes differ.
    fn join(&mut self, slot: u32, chunk: usize, bytes: f64) {
        let fresh = self.fresh[chunk] as usize;
        let at = if self.cohorts.get(fresh).is_some_and(|c| c.bytes == bytes) {
            fresh
        } else {
            self.fresh[chunk] = self.cohorts.len() as u32;
            self.cohorts.push(Cohort {
                bytes,
                chunk: chunk as u32,
                count: 0,
                head: NIL,
            });
            self.cohorts.len() - 1
        };
        let cohort = &mut self.cohorts[at];
        let s = &mut self.slots[slot as usize];
        debug_assert_eq!(s.next, UNLINKED, "a slot sits in one list at a time");
        s.next = std::mem::replace(&mut cohort.head, slot);
        cohort.count += 1;
    }

    /// Lazily clears last round's written chunks; afterwards every
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

    /// Advances the cohorts by one round, one update per cohort. A
    /// cohort that completes appends its members' peer indices to
    /// `completed` (order restored by the caller's sort) and unlinks
    /// their slots. The requested rate is re-derived from `bytes` —
    /// unchanged since the demand pass — with the identical
    /// quantization. Downloads that enter after this advance open new
    /// cohorts.
    fn advance(&mut self, ctx: &RoundCtx, completed: &mut Vec<usize>) {
        self.fresh.fill(NIL);
        let (inv_step, vm_bandwidth, step) = (ctx.inv_step, ctx.vm_bandwidth, ctx.step);
        let (ratio, slots) = (&self.ratio, &mut self.slots);
        self.cohorts.retain_mut(|c| {
            let my_rate = quantized_rate(c.bytes, inv_step, vm_bandwidth) * ratio[c.chunk as usize];
            let new_left = c.bytes - my_rate * step;
            if new_left <= 1e-6 {
                let mut s = c.head;
                while s != NIL {
                    let slot = &mut slots[s as usize];
                    completed.push(slot.peer as usize);
                    s = std::mem::replace(&mut slot.next, UNLINKED);
                }
                false
            } else {
                c.bytes = new_left;
                true
            }
        });
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
        let PeerState::Downloading {
            chunk, bytes_left, ..
        } = p.state()
        else {
            unreachable!("peers join downloading their start chunk");
        };
        let new_slot = Slot {
            peer: idx as u32,
            next: UNLINKED,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = new_slot;
                slot
            }
            None => {
                self.slots.push(new_slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.slot_of.push(slot);
        self.pool_units += usable;
        self.join(slot, chunk, bytes_left);
    }

    fn on_buffer(&mut self, idx: usize, chunk: usize) {
        self.owners[chunk] += 1;
        self.owner_units[chunk] += u64::from(self.usable_units[idx]);
    }

    fn on_download_started(&mut self, idx: usize, chunk: usize, bytes_left: f64) {
        self.join(self.slot_of[idx], chunk, bytes_left);
    }

    fn on_download_stopped(&mut self, idx: usize, wake_at: f64) {
        // `wake_at` is strictly in the future (gates and drains both
        // check against `now` before waiting).
        self.wheel.push(&mut self.slots, self.slot_of[idx], wake_at);
    }

    fn on_remove(&mut self, peers: &[Peer], idx: usize) {
        let usable = u64::from(self.usable_units[idx]);
        self.pool_units -= usable;
        // Drop the departing peer's chunks from the owner aggregates —
        // integer subtraction, so the running sums stay exact.
        let mut bits = peers[idx].buffer;
        while bits != 0 {
            let chunk = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if chunk < self.owners.len() {
                self.owners[chunk] -= 1;
                self.owner_units[chunk] -= usable;
            }
        }
        // The slot is in no list: only a waiter departs, in the round its
        // wake drained (see `process_round_events`).
        let slot = self.slot_of.swap_remove(idx);
        debug_assert_eq!(self.slots[slot as usize].next, UNLINKED);
        self.free_slots.push(slot);
        self.usable_units.swap_remove(idx);
        // `swap_remove` moved the peer at the last index into `idx`;
        // re-key its slot. Nothing else is position-based.
        if let Some(&moved) = self.slot_of.get(idx) {
            self.slots[moved as usize].peer = idx as u32;
        }
    }

    /// Fused per-round pass: demand aggregation over the cohorts,
    /// fixed-point supply readback, and both allocation kernels — all
    /// confined to the requested chunks, so per-round cost scales with
    /// the cohorts rather than channel size, downloads or chunk count.
    fn allocate(&mut self, _peers: &[Peer], ctx: &RoundCtx) -> f64 {
        self.clear_written();
        if self.cohorts.is_empty() {
            // Nothing is requested: every output stays zero and the
            // round costs O(1).
            return 0.0;
        }

        // A cohort's members request the same quantized rate, so one
        // integer product adds exactly what their separate terms would.
        // The accumulator and mask are locals, written out once.
        let (inv_step, vm_bandwidth) = (ctx.inv_step, ctx.vm_bandwidth);
        let mut units = [0u64; 64];
        let mut req_mask: u64 = 0;
        for c in &self.cohorts {
            units[c.chunk as usize] +=
                u64::from(c.count) * quantize_rate(c.bytes, inv_step, vm_bandwidth);
            req_mask |= 1 << c.chunk;
        }
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
            ctx.reserved,
            &mut self.cloud_served,
            &mut self.order,
            req_mask,
        );
        // One division per requested chunk; the advance then costs a
        // single multiply per cohort. The used rate is one running sum
        // over the written chunks in order — the same addition sequence
        // as a dense sum, since the skipped chunks hold exact zeros.
        let mut used = 0.0;
        let mut m = req_mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            self.ratio[k] = (self.peer_served[k] + self.cloud_served[k]) / self.requested[k];
            used += self.cloud_served[k];
        }
        used
    }

    fn advance_round(
        &mut self,
        peers: &mut [Peer],
        ctx: &RoundCtx,
        t1: f64,
        completed: &mut Vec<usize>,
        woken: &mut Vec<usize>,
    ) {
        self.advance(ctx, completed);
        completed.sort_unstable();
        // Wake times live on the waiting peers.
        self.wheel.drain_due(t1, &mut self.slots, woken, |peer| {
            peers[peer as usize].wake_at()
        });
        woken.sort_unstable();
    }

    /// The two per-peer mirrors, every connected peer's slot, and the
    /// cohort records (shared by their members). Fixed per-engine
    /// overhead (wheel bucket heads, per-chunk scratch) is excluded — it
    /// does not grow with viewers. The `Peer` array itself is accounted
    /// by the caller.
    fn resident_peer_bytes(&self) -> usize {
        use std::mem::size_of;
        self.usable_units.len() * size_of::<u32>()
            + self.slot_of.len() * (size_of::<u32>() + SLOT_BYTES)
            + self.cohorts.len() * size_of::<Cohort>()
    }
}

/// Runs `cfg` on the round engine `site` builds as a one-site
/// deployment (`crate::federation`): its own configuration, one
/// uncapped reference-priced site without egress, and no redirection.
/// Returns the metrics plus the fault-plane counters and records
/// telemetry into `tel`; with `footprint`, also measures the end-of-run
/// per-peer resident footprint (`crate::footprint`).
pub(crate) fn run_site<'a, E: RoundEngine>(
    cfg: &'a SimConfig,
    tel: &Telemetry,
    footprint: Option<&mut PeerFootprint>,
    site: impl Fn(&'a SimConfig) -> Result<Site<'a, E>, SimError>,
) -> Result<FaultRun, SimError> {
    let fc = FederatedConfig {
        base: cfg.clone(),
        regions: vec![RegionSpec {
            name: "site".into(),
            population_share: 1.0,
            timezone_offset_hours: 0.0,
        }],
        sites: vec![SiteSpec::reference(0.0)],
        policy: FederationPolicy::independent(),
    };
    let mut run = federation::run(&fc, std::slice::from_ref(cfg), tel, footprint, site)?;
    Ok(FaultRun {
        metrics: run.per_region.swap_remove(0).metrics,
        fault_stats: run.fault_stats,
    })
}

/// Advances a peer's playback pipeline after it finished downloading
/// `chunk`: walks the viewing model through already-buffered chunks, then
/// either starts (or gates) the next download or drains playback before
/// departure. `play_end` is the playback end time of the just-finished
/// chunk, which lies after `now`.
#[allow(clippy::too_many_arguments)]
fn advance_playback(
    p: &mut Peer,
    chunk: usize,
    mut play_end: f64,
    chunk_bytes: f64,
    chunk_seconds: f64,
    now: f64,
    catalog: &Catalog,
    tracker: &mut Tracker,
    rng: &mut StdRng,
) {
    debug_assert!(play_end > now, "the finished chunk plays after `now`");
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
                // Drain playback (still uploading), then depart.
                p.set_state(PeerState::Waiting {
                    next: None,
                    wake_at: play_end,
                });
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
            engine.on_buffer(idx, chunk);
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
                chunk,
                play_start + chunk_seconds,
                chunk_bytes,
                chunk_seconds,
                t1,
                catalog,
                tracker,
                rng,
            );
            // The playback walk either began the next download or gated
            // it (or a departure drain) behind a wake-up. A peer departs
            // only when a drain's wake comes due, so a downloader never
            // leaves in the round its download completed.
            match p.state() {
                PeerState::Waiting { wake_at, .. } => {
                    engine.on_download_stopped(idx, wake_at);
                }
                PeerState::Downloading {
                    chunk, bytes_left, ..
                } => {
                    engine.on_download_started(idx, chunk, bytes_left);
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
                    engine.on_download_started(idx, pending.chunk, chunk_bytes);
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
            let sim = Simulator::new(small_config(mode)).unwrap();
            let scan = sim.run_reference(&Telemetry::disabled()).unwrap().metrics;
            let indexed = sim.run().unwrap();
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

    /// One engine's copy of a test population and the state the shared
    /// event handler mutates.
    struct Side<'a> {
        peers: Vec<Peer>,
        rng: StdRng,
        tracker: Tracker,
        catalog: &'a Catalog,
    }

    impl Side<'_> {
        /// Chunk size and playback time of the test population.
        const CHUNK_BYTES: f64 = 15e6;
        /// Short chunks, so prefetch gates and departure drains come due
        /// within a test's rounds.
        const CHUNK_SECONDS: f64 = 30.0;

        /// Advances `engine` by one round ending at `t1` and handles the
        /// round's events; returns the completed and woken lists.
        fn step<E: RoundEngine>(
            &mut self,
            engine: &mut E,
            ctx: &RoundCtx,
            t1: f64,
        ) -> (Vec<usize>, Vec<usize>) {
            let (mut completed, mut woken) = (Vec::new(), Vec::new());
            engine.advance_round(&mut self.peers, ctx, t1, &mut completed, &mut woken);
            let (mut startup_sum, mut startup_count) = (0.0, 0);
            process_round_events(
                engine,
                &mut self.peers,
                &completed,
                &woken,
                &mut Vec::new(),
                &mut self.tracker,
                &mut self.rng,
                self.catalog,
                Self::CHUNK_BYTES,
                Self::CHUNK_SECONDS,
                t1,
                &mut startup_sum,
                &mut startup_count,
            );
            (completed, woken)
        }
    }

    /// Asserts the indexed engine's per-chunk rates equal the scan
    /// engine's, bit for bit, after an allocation.
    fn assert_rates_match(
        scan: &ScanEngine,
        indexed: &IndexedEngine,
        channel: usize,
        round: usize,
    ) {
        for k in 0..scan.requested.len() {
            for (what, want, got) in [
                ("requested", scan.requested[k], indexed.requested[k]),
                ("peer_served", scan.peer_served[k], indexed.peer_served[k]),
                (
                    "cloud_served",
                    scan.cloud_served[k],
                    indexed.cloud_served[k],
                ),
            ] {
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "channel {channel}, round {round}: {what}[{k}]"
                );
            }
        }
    }

    /// On a large population the indexed engine's allocation and advance
    /// reproduce the reference engine's full scans exactly, round after
    /// round: per-chunk rates, used rates, and the completed and woken
    /// lists. Each channel drives its own Scan/Indexed pair, as the
    /// driver's shards do. A channel's population joins in one round, so
    /// its downloads form at most one cohort per chunk; the completions
    /// then restart, wait and leave through the shared event handler,
    /// opening new cohorts every round.
    #[test]
    fn large_population_allocation_is_bit_identical_to_scan() {
        use cloudmedia_workload::viewing::ViewingModel;
        use rand::SeedableRng;

        let n_channels = 5;
        let max_chunks = 16;
        let n_peers = 17_408;
        // Deterministic synthetic population with buffered history, by
        // channel.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        // One join per peer: id, start chunk, upload, buffered chunks.
        type Join = (u64, usize, f64, Vec<usize>);
        let mut population: Vec<Vec<Join>> = vec![Vec::new(); n_channels];
        for i in 0..n_peers {
            let channel = (next() as usize) % n_channels;
            let chunk = (next() as usize) % max_chunks;
            let upload = 1e4 + (next() % 100_000) as f64;
            let owned = (0..next() % 6)
                .map(|_| (next() as usize) % max_chunks)
                .collect();
            population[channel].push((i as u64, chunk, upload, owned));
        }
        let catalog = Catalog::zipf(
            n_channels,
            0.8,
            ViewingModel {
                chunks: max_chunks,
                ..ViewingModel::paper_default()
            },
            1000.0,
            Side::CHUNK_SECONDS,
        )
        .unwrap();

        let (mut completions, mut wakes, mut departures) = (0, 0, 0);
        for (channel, joins) in population.into_iter().enumerate() {
            let mut scan = ScanEngine::new(max_chunks);
            let mut indexed = IndexedEngine::new(max_chunks, 0.85, 10.0);
            let mut peers: Vec<Peer> = Vec::new();
            for (i, (id, chunk, upload, owned)) in joins.into_iter().enumerate() {
                peers.push(Peer::new(
                    id,
                    channel,
                    upload,
                    chunk,
                    Side::CHUNK_BYTES,
                    0.0,
                ));
                scan.on_join(&peers, i);
                indexed.on_join(&peers, i);
                for owned in owned {
                    if owned != chunk && !peers[i].owns(owned) {
                        peers[i].add_to_buffer(owned);
                        scan.on_buffer(i, owned);
                        indexed.on_buffer(i, owned);
                    }
                }
            }
            let mut chunks: Vec<u32> = indexed.cohorts.iter().map(|c| c.chunk).collect();
            let n = chunks.len();
            chunks.sort_unstable();
            chunks.dedup();
            assert_eq!(chunks.len(), n, "channel {channel}: one cohort per chunk");
            let members: u32 = indexed.cohorts.iter().map(|c| c.count).sum();
            assert_eq!(members as usize, peers.len());

            // Reservations from starved to ample across the channels, so
            // some cohorts trickle on while others complete within a
            // round or two.
            let reserved = 5.0e7 * 40f64.powi(channel as i32);
            // Each engine drives its own copy of the population through
            // the shared event handler with identical RNG and tracker
            // state.
            let [mut a, mut b] = [(); 2].map(|()| Side {
                peers: peers.clone(),
                rng: StdRng::seed_from_u64(7 + channel as u64),
                tracker: Tracker::for_channels(&catalog, channel..channel + 1).unwrap(),
                catalog: &catalog,
            });
            for round in 0..40 {
                let ctx = RoundCtx {
                    step: 10.0,
                    inv_step: 0.1,
                    vm_bandwidth: 1.25e6,
                    eff: 0.85,
                    p2p: round % 2 == 0,
                    reserved,
                };
                let used_scan = scan.allocate(&a.peers, &ctx);
                let used_indexed = indexed.allocate(&b.peers, &ctx);
                assert_eq!(
                    used_scan.to_bits(),
                    used_indexed.to_bits(),
                    "channel {channel}, round {round}: used"
                );
                assert_rates_match(&scan, &indexed, channel, round);

                let t1 = 10.0 * (round + 1) as f64;
                let events = a.step(&mut scan, &ctx, t1);
                assert_eq!(
                    events,
                    b.step(&mut indexed, &ctx, t1),
                    "channel {channel}, round {round}: completed and woken lists"
                );
                completions += events.0.len();
                wakes += events.1.len();
                let ids = |p: &[Peer]| p.iter().map(|p| p.id).collect::<Vec<_>>();
                assert_eq!(
                    ids(&a.peers),
                    ids(&b.peers),
                    "channel {channel}, round {round}: peers"
                );
            }
            departures += peers.len() - b.peers.len();
        }
        assert!(completions > n_peers, "only {completions} completions");
        assert!(wakes > 0, "nobody waited");
        assert!(departures > 0, "nobody left");
    }

    /// Downloads that enter a channel in the same round with unequal
    /// bytes never share a cohort: each completes in the round the scan
    /// engine completes it.
    #[test]
    fn unequal_bytes_never_share_a_cohort() {
        let mut scan = ScanEngine::new(4);
        let mut indexed = IndexedEngine::new(4, 0.85, 10.0);
        let mut peers = Vec::new();
        for i in 0..6 {
            let bytes = if i % 2 == 0 { 15e6 } else { 4e6 };
            peers.push(Peer::new(i as u64, 0, 5e4, 1, bytes, 0.0));
            scan.on_join(&peers, i);
            indexed.on_join(&peers, i);
        }
        let ctx = RoundCtx {
            step: 10.0,
            inv_step: 0.1,
            vm_bandwidth: 1.25e6,
            eff: 0.85,
            p2p: false,
            reserved: 1e9,
        };
        let mut completions = Vec::new();
        for round in 0..3 {
            let t1 = 10.0 * (round + 1) as f64;
            scan.allocate(&peers, &ctx);
            indexed.allocate(&peers, &ctx);
            let mut events = [(); 2].map(|()| (Vec::new(), Vec::new()));
            scan.advance_round(&mut peers, &ctx, t1, &mut events[0].0, &mut events[0].1);
            indexed.advance_round(&mut peers, &ctx, t1, &mut events[1].0, &mut events[1].1);
            assert_eq!(events[0], events[1], "round {round}");
            for &idx in &events[0].0 {
                peers[idx].set_state(PeerState::Waiting {
                    next: None,
                    wake_at: 1e9,
                });
                scan.on_download_stopped(idx, 1e9);
                indexed.on_download_stopped(idx, 1e9);
            }
            completions.push(events[0].0.clone());
        }
        assert_eq!(completions, [vec![1, 3, 5], vec![0, 2, 4], vec![]]);
    }
}
