//! The segment driver: the one round loop every round engine runs on.
//!
//! Scan, Indexed, Sharded and the federation replay one per-round model:
//! arrivals (shed under [`crate::faults::DegradeMode::ShedNewArrivals`]),
//! allocation, download advance, viewing-model events, metering and
//! sampling. This module holds that model once. A run is a list of
//! **sites** (one for a single-site run, one per region for the
//! federation), and a site is a list of **shards**:
//!
//! - A [`Shard`] owns one round engine (Scan or Indexed, statically
//!   dispatched), its peers, its behaviour RNG, its arrival source, the
//!   tracker collectors of a contiguous channel range, and its event
//!   scratch. [`Shard::step_round`] is the only per-round body there is.
//! - Scan and Indexed run one full-catalog shard per site: it is seeded
//!   with [`SimConfig::behaviour_seed`], fed by the merged
//!   [`ArrivalStream`], and records into a full-catalog [`Tracker`].
//!   Sharded runs one shard per channel, each with its lazy
//!   [`ChannelArrivals`] sub-stream and a behaviour RNG seeded with a
//!   splitmix child of `behaviour_seed`
//!   ([`cloudmedia_workload::trace::child_seed`]).
//!
//! The driver ([`run`]) steps whole **segments** of rounds. Before each
//! segment the caller's [`Host`] does its boundary work (fault
//! boundaries and provisioning for one site; global placement and
//! emergency re-plans for the federation). Then the driver pre-steps
//! every round of the segment through the host: the clouds depend only
//! on time and submissions, never on viewer state, so each round's
//! online scale and cloud tick can run ahead of the shards. Then it fans
//! every shard of every site out over the rayon pool in one scope (when
//! [`SimConfig::parallel_channels`] is set) and folds the results round
//! by round, in site and shard order. A segment ends before the next
//! provisioning round or host topology change (the federation's site
//! mask), at the horizon, or after [`MAX_SEGMENT_ROUNDS`] rounds.
//! Sampling rounds fall inside segments: at each one, a shard writes its
//! per-channel sample partial (peers, smooth-playback count, start-up
//! delay sum and count), and the driver folds the partials in shard
//! order after the barrier.
//!
//! # Determinism contract
//!
//! Serial execution, parallel execution, any worker-pool size, and any
//! shard-to-task grouping all produce **bit-identical**
//! [`Metrics`](crate::metrics::Metrics). The argument:
//!
//! 1. No two shards ever write the same accumulator: peers never change
//!    channels, arrivals are generated per shard, and the engine state
//!    is per shard. The fan-out therefore cannot reorder any arithmetic
//!    *inside* a shard, and shards have no arithmetic *between* them.
//! 2. Every cross-shard sum (`Σ` used cloud rate, start-up delay window
//!    sums, sample counts) is computed by the driver after the barrier,
//!    iterating shards in ascending order — one fixed f64 addition
//!    sequence regardless of which thread finished first. Each shard
//!    writes its per-round used rate into its row of a shards × rounds
//!    buffer and its sample partials into its own scratch, and the
//!    driver folds them round by round, so every addition happens in
//!    the order a round-at-a-time loop would make it.
//! 3. Each shard's RNG stream and arrival stream are pure functions of
//!    the configuration and the shard's channel range — neither depends
//!    on scheduling, shard grouping, or thread count.
//!
//! A full-catalog shard replays exactly the draws, events and sums the
//! round-at-a-time loop it replaced made, so Scan and Indexed stay
//! bit-identical to each other and to their goldens. Because each
//! Sharded channel draws from its own RNG stream, a Sharded run is a
//! *different sample of the same viewer-behaviour process* than an
//! Indexed run: the two agree in distribution and in steady-state means,
//! not bit for bit. `docs/SCALING.md` discusses that trade.
//!
//! # One thread per shard
//!
//! A channel is the unit of both state and work: each shard steps on
//! one thread, so a flash crowd on one channel steps on one core. That
//! stays affordable because the Indexed engine groups a channel's
//! downloads into *cohorts* (downloads of one chunk that entered in the
//! same round with equal bytes, which advance in lockstep), so its
//! demand and advance passes cost one step per cohort, not per download
//! (see `crate::simulator`).
//!
//! `crates/sim/tests/sharding.rs` pins serial ≡ parallel over random
//! configurations, `crates/sim/tests/hot_shard_invariance.rs` extends
//! the pin to a few hot channels (down to one giant channel) under
//! fault schedules at any thread count,
//! `crates/sim/tests/golden_segments.rs` pins every engine's segment
//! boundaries under unaligned intervals and faults, and the unit tests
//! below pin invariance to the shard-to-task grouping (the knob thread
//! count actually turns).

use cloudmedia_telemetry::{MetricId, StageClock, Telemetry};
use cloudmedia_workload::trace::{child_seed, ArrivalStream, ChannelArrivals, UserArrival};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{SimConfig, SimMode};
use crate::control::{Observations, SiteControl};
use crate::error::SimError;
use crate::footprint::PeerFootprint;
use crate::metrics::{Metrics, Sample};
use crate::peer::Peer;
use crate::simulator::{process_round_events, IndexedEngine, RoundCtx, RoundEngine, ScanEngine};
use crate::telem;
use crate::tracker::Tracker;

/// The most rounds one segment holds. Segments normally end earlier,
/// before the next provisioning round (360 rounds at the paper's 10 s
/// rounds and 1 h intervals); the cap bounds the shards × rounds buffer
/// of per-round used rates (≤ 1 KiB per shard) for any valid interval
/// settings.
pub(crate) const MAX_SEGMENT_ROUNDS: usize = 128;

/// Where a shard's arrivals come from.
enum Arrivals {
    /// The whole catalog's merged stream (a full-catalog shard).
    Merged(ArrivalStream),
    /// One channel's sub-stream (a per-channel shard).
    Channel(ChannelArrivals),
}

impl Arrivals {
    fn next(&mut self) -> Option<UserArrival> {
        match self {
            Self::Merged(s) => s.next(),
            Self::Channel(s) => s.next(),
        }
    }
}

/// One round of a segment as the driver pre-stepped it.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// The round's end, seconds.
    t1: f64,
    /// The round's length, seconds (the last round may be cut short).
    step: f64,
    /// True when the round closes a sampling window.
    sample: bool,
}

/// How a run attributes the time of its segment fan-out to `stage/*`
/// counters. Whatever the mode, no stage counter nests inside another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stages {
    /// The shard times its own round stages (`stage/arrivals`,
    /// `stage/allocation`, `stage/advance`, `stage/events`,
    /// `stage/sampling`) on one round in
    /// [`telem::STAGE_TIME_SAMPLE`]: the single-shard Scan and Indexed
    /// runs.
    Rounds,
    /// `stage/shard_step`, `hist/shard_wall_ns` and the `shards` table:
    /// a Sharded run.
    Shards,
    /// `stage/region_step`, `hist/region_wall_ns` and the `regions`
    /// table: the federation.
    Regions,
}

/// One shard's complete simulation state: the unit the driver fans out.
/// See the module docs for what lives here and why nothing is shared.
struct Shard<E> {
    engine: E,
    /// This shard's connected viewers.
    peers: Vec<Peer>,
    /// Behaviour RNG.
    rng: StdRng,
    arrivals: Arrivals,
    /// The next arrival not yet ingested, if any.
    next_arrival: Option<UserArrival>,
    /// Tracker-side statistics for the shard's channels.
    tracker: Tracker,
    /// The shard's first channel and channel count.
    first: usize,
    channels: usize,
    // Round-event scratch, reused every round.
    removals: Vec<usize>,
    completed: Vec<usize>,
    woken: Vec<usize>,
    /// Arrivals refused by `ShedNewArrivals` (cumulative; reduced in
    /// shard order at run end).
    shed: u64,
    // Start-up delay window accumulators (flushed into the partials).
    startup_sum: f64,
    startup_count: usize,
    /// This segment's sample partials: for each sampling round, one
    /// `(peers, smooth)` pair per channel of the shard.
    counts: Vec<(usize, usize)>,
    /// This segment's start-up delay partials, one `(sum, count)` per
    /// sampling round.
    startups: Vec<(f64, usize)>,
    // Telemetry accumulators (side channel only — reduced in shard
    // order at run end; the integer ones run unconditionally, the wall
    // clock once per segment of a telemetry-enabled run).
    /// Wall time spent in [`Shard::step_segment`], ns.
    wall_ns: u64,
    /// High-water mark of this shard's connected viewers.
    peak_peers: usize,
    /// Arrivals admitted into this shard.
    admitted: u64,
    /// Chunk completions handled by this shard.
    n_completed: u64,
    /// Wake-ups handled by this shard.
    n_woken: u64,
}

/// What every shard of one site reads, unchanged, while it steps a
/// segment.
struct Env<'a> {
    cfg: &'a SimConfig,
    rounds: &'a [Round],
    /// Each round's `min(1, online / reserved)` for this site.
    online: &'a [f64],
    vm_bandwidth: f64,
    channel_reserved: &'a [f64],
    chunk_bytes: f64,
    /// Time each shard's segment into its wall accumulator.
    time_it: bool,
    /// Time the round stages of every [`telem::STAGE_TIME_SAMPLE`]-th
    /// round ([`Stages::Rounds`] with telemetry on).
    stage_tel: Option<&'a Telemetry>,
    /// The segment's first round, counted from the start of the run.
    first_round: u64,
}

/// Credits the time since the previous boundary to `id` on a timed
/// round.
fn lap(clk: &mut Option<StageClock<'_>>, id: MetricId) {
    if let Some(clk) = clk {
        clk.lap(id);
    }
}

impl<E: RoundEngine> Shard<E> {
    fn new(
        cfg: &SimConfig,
        engine: E,
        seed: u64,
        mut arrivals: Arrivals,
        channels: std::ops::Range<usize>,
    ) -> Result<Self, SimError> {
        let next_arrival = arrivals.next();
        Ok(Self {
            engine,
            peers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            arrivals,
            next_arrival,
            tracker: Tracker::for_channels(&cfg.catalog, channels.clone())?,
            first: channels.start,
            channels: channels.len(),
            removals: Vec::new(),
            completed: Vec::new(),
            woken: Vec::new(),
            shed: 0,
            startup_sum: 0.0,
            startup_count: 0,
            counts: Vec::new(),
            startups: Vec::new(),
            wall_ns: 0,
            peak_peers: 0,
            admitted: 0,
            n_completed: 0,
            n_woken: 0,
        })
    }

    /// Steps every round of a segment, writing each round's used cloud
    /// rate into `used` (this shard's row of the segment buffer) and, at
    /// each sampling round, the shard's sample partial.
    fn step_segment(&mut self, env: &Env<'_>, used: &mut [f64]) {
        let start = env.time_it.then(std::time::Instant::now);
        self.counts.clear();
        self.startups.clear();
        for (k, (round, used)) in env.rounds.iter().zip(used).enumerate() {
            let mut clk = env
                .stage_tel
                .filter(|_| (env.first_round + k as u64).is_multiple_of(telem::STAGE_TIME_SAMPLE))
                .map(|tel| tel.stage_clock_sampled(telem::STAGE_TIME_SAMPLE));
            *used = self.step_round(round, env.online[k], env, &mut clk);
            if round.sample {
                self.write_partial(round.t1, env.cfg.sample_interval);
                lap(&mut clk, telem::STAGE_SAMPLING);
            }
        }
        if let Some(start) = start {
            self.wall_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// One allocation round for this shard: ingest arrivals, run the
    /// allocation stage, advance downloads, and handle the round's
    /// events. Returns the cloud rate used.
    fn step_round(
        &mut self,
        round: &Round,
        online_scale: f64,
        env: &Env<'_>,
        clk: &mut Option<StageClock<'_>>,
    ) -> f64 {
        let cfg = env.cfg;
        let t1 = round.t1;
        while let Some(a) = self.next_arrival.as_ref().filter(|a| a.time < t1) {
            // Admission control under ShedNewArrivals: a pure function
            // of the arrival timestamp and the (read-only) schedule, so
            // the decision is identical under any shard grouping.
            if cfg.faults.shed_arrivals_at(a.time) {
                self.shed += 1;
                self.next_arrival = self.arrivals.next();
                continue;
            }
            self.peers.push(Peer::new(
                a.user_id,
                a.channel,
                a.upload_bytes_per_sec,
                a.start_chunk,
                env.chunk_bytes,
                a.time,
            ));
            self.engine.on_join(&self.peers, self.peers.len() - 1);
            self.tracker.record_join(a.channel, a.start_chunk);
            self.admitted += 1;
            self.next_arrival = self.arrivals.next();
        }
        self.peak_peers = self.peak_peers.max(self.peers.len());
        lap(clk, telem::STAGE_ARRIVALS);

        let ctx = RoundCtx {
            step: round.step,
            inv_step: 1.0 / round.step,
            vm_bandwidth: env.vm_bandwidth,
            eff: cfg.peer_efficiency,
            p2p: cfg.mode == SimMode::P2p,
            online_scale,
            channel_reserved: env.channel_reserved,
        };
        let used = self.engine.allocate(&self.peers, &ctx);
        lap(clk, telem::STAGE_ALLOCATION);

        // The engine advances every in-flight download and reports the
        // round's events, which are then handled in ascending peer order.
        self.completed.clear();
        self.woken.clear();
        self.engine.advance_round(
            &mut self.peers,
            &ctx,
            t1,
            &mut self.completed,
            &mut self.woken,
        );
        lap(clk, telem::STAGE_ADVANCE);
        process_round_events(
            &mut self.engine,
            &mut self.peers,
            &self.completed,
            &self.woken,
            &mut self.removals,
            &mut self.tracker,
            &mut self.rng,
            &cfg.catalog,
            env.chunk_bytes,
            cfg.chunk_seconds,
            t1,
            &mut self.startup_sum,
            &mut self.startup_count,
        );
        lap(clk, telem::STAGE_EVENTS);
        self.n_completed += self.completed.len() as u64;
        self.n_woken += self.woken.len() as u64;
        used
    }

    /// Appends this sampling round's partial: per channel, the connected
    /// viewers and those with smooth playback over the past `window`,
    /// then the start-up delay window (which it resets).
    fn write_partial(&mut self, t1: f64, window: f64) {
        let at = self.counts.len();
        self.counts.resize(at + self.channels, (0, 0));
        let counts = &mut self.counts[at..];
        for p in &self.peers {
            let c = &mut counts[p.channel() - self.first];
            c.0 += 1;
            c.1 += usize::from(p.smooth_in_window(t1, window));
        }
        self.startups.push((self.startup_sum, self.startup_count));
        self.startup_sum = 0.0;
        self.startup_count = 0;
    }
}

/// One site: its shards in channel order, the segment buffers the driver
/// fills and folds, and the site's metric series.
pub(crate) struct Site<'a, E> {
    cfg: &'a SimConfig,
    shards: Vec<Shard<E>>,
    /// Each pre-stepped round's online scale.
    online: Vec<f64>,
    /// Each pre-stepped round's running cloud bandwidth after its tick:
    /// what a sample taken at the round's end reports as reserved.
    running: Vec<f64>,
    /// The shards × rounds buffer of per-round used cloud rates
    /// (shard-major rows).
    used: Vec<f64>,
    /// Each round's cloud bytes, folded from `used` in shard order.
    bytes: Vec<f64>,
    // The open sampling window.
    window_used: f64,
    window_start: f64,
    /// Samples from the driver, interval records from the host.
    pub(crate) metrics: Metrics,
}

impl<'a> Site<'a, ScanEngine> {
    /// A Scan site: one full-catalog shard.
    pub(crate) fn scan(cfg: &'a SimConfig) -> Result<Self, SimError> {
        let engine = ScanEngine::new(cfg.catalog.len(), max_chunks(cfg));
        Site::full_catalog(cfg, engine)
    }
}

impl<'a> Site<'a, IndexedEngine> {
    /// An Indexed site: one full-catalog shard.
    pub(crate) fn indexed(cfg: &'a SimConfig) -> Result<Self, SimError> {
        let engine = IndexedEngine::new(
            cfg.catalog.len(),
            max_chunks(cfg),
            cfg.peer_efficiency,
            cfg.round_seconds,
        );
        Site::full_catalog(cfg, engine)
    }

    /// A Sharded site: one shard per channel.
    pub(crate) fn sharded(cfg: &'a SimConfig) -> Result<Self, SimError> {
        let mut shards = Vec::with_capacity(cfg.catalog.len());
        for spec in cfg.catalog.channels() {
            let engine = IndexedEngine::for_shard(
                spec.id,
                spec.viewing.chunks,
                cfg.peer_efficiency,
                cfg.round_seconds,
            );
            let arrivals = Arrivals::Channel(ChannelArrivals::new(spec, &cfg.trace)?);
            let seed = child_seed(cfg.behaviour_seed, spec.id as u64);
            shards.push(Shard::new(
                cfg,
                engine,
                seed,
                arrivals,
                spec.id..spec.id + 1,
            )?);
        }
        Ok(Site::new(cfg, shards))
    }
}

/// The largest chunk count of any channel.
fn max_chunks(cfg: &SimConfig) -> usize {
    cfg.catalog
        .channels()
        .iter()
        .map(|c| c.viewing.chunks)
        .max()
        .expect("catalog validated non-empty")
}

impl<'a, E: RoundEngine> Site<'a, E> {
    fn new(cfg: &'a SimConfig, shards: Vec<Shard<E>>) -> Self {
        Self {
            cfg,
            shards,
            online: Vec::with_capacity(MAX_SEGMENT_ROUNDS),
            running: Vec::with_capacity(MAX_SEGMENT_ROUNDS),
            used: Vec::new(),
            bytes: Vec::with_capacity(MAX_SEGMENT_ROUNDS),
            window_used: 0.0,
            window_start: 0.0,
            metrics: Metrics::default(),
        }
    }

    /// One full-catalog shard, seeded with `behaviour_seed` and fed by
    /// the merged arrival stream.
    fn full_catalog(cfg: &'a SimConfig, engine: E) -> Result<Self, SimError> {
        let arrivals = Arrivals::Merged(ArrivalStream::new(&cfg.catalog, &cfg.trace)?);
        let shard = Shard::new(
            cfg,
            engine,
            cfg.behaviour_seed,
            arrivals,
            0..cfg.catalog.len(),
        )?;
        Ok(Self::new(cfg, vec![shard]))
    }

    /// Connected viewers per channel, in channel order.
    pub(crate) fn channel_peers(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.cfg.catalog.len()];
        for p in self.shards.iter().flat_map(|s| &s.peers) {
            out[p.channel()] += 1;
        }
        out
    }

    /// Summarizes the interval that just ended from every shard's
    /// tracker, in channel order, and resets them.
    pub(crate) fn interval_stats(&mut self) -> Result<Observations, SimError> {
        let interval = self.cfg.provisioning_interval;
        let mut out = Vec::with_capacity(self.cfg.catalog.len());
        for shard in &mut self.shards {
            out.extend(shard.tracker.interval_stats(interval)?);
        }
        Ok(out)
    }

    /// Arrivals shed so far, summed in shard order.
    pub(crate) fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Adds the end-of-run per-peer resident footprint: the `Peer`
    /// records plus each engine's population-scaled state.
    pub(crate) fn add_footprint(&self, out: &mut PeerFootprint) {
        for shard in &self.shards {
            out.peers += shard.peers.len();
            out.bytes += shard.peers.len() * std::mem::size_of::<Peer>()
                + shard.engine.resident_peer_bytes();
        }
    }

    /// Folds each round's used cloud rate over the shards, in shard
    /// order, into the round's cloud bytes, and lets the host meter
    /// them.
    fn reduce(&mut self, rounds: &[Round], site: usize, host: &mut impl Host) {
        let n = rounds.len();
        self.bytes.clear();
        for (k, round) in rounds.iter().enumerate() {
            let mut used = 0.0_f64;
            for row in self.used.chunks_exact(n) {
                used += row[k];
            }
            let bytes = used * round.step;
            host.meter(site, bytes);
            self.bytes.push(bytes);
        }
    }

    /// Closes the segment's sampling windows: integrates each round's
    /// cloud bytes and, at each sampling round, folds the shards'
    /// partials into a [`Sample`].
    fn sample(&mut self, rounds: &[Round]) {
        let mut partial = 0;
        for (k, round) in rounds.iter().enumerate() {
            self.window_used += self.bytes[k];
            if round.sample {
                let sample = self.fold_partials(partial, round.t1, self.running[k]);
                self.metrics.samples.push(sample);
                self.window_used = 0.0;
                self.window_start = round.t1;
                partial += 1;
            }
        }
    }

    /// The sample at `time` from every shard's `partial`-th partial, in
    /// shard order (one fixed f64 addition sequence).
    fn fold_partials(&self, partial: usize, time: f64, reserved: f64) -> Sample {
        let n = self.cfg.catalog.len();
        let mut per_channel_peers = Vec::with_capacity(n);
        let mut per_channel_quality = Vec::with_capacity(n);
        let mut total = 0usize;
        let mut smooth_total = 0usize;
        let mut startup_sum = 0.0_f64;
        let mut startup_count = 0usize;
        for shard in &self.shards {
            let w = shard.channels;
            for &(peers, smooth) in &shard.counts[partial * w..(partial + 1) * w] {
                per_channel_peers.push(peers);
                per_channel_quality.push(if peers == 0 {
                    1.0
                } else {
                    smooth as f64 / peers as f64
                });
                total += peers;
                smooth_total += smooth;
            }
            let (sum, count) = shard.startups[partial];
            startup_sum += sum;
            startup_count += count;
        }
        let elapsed = (time - self.window_start).max(1e-9);
        Sample {
            time,
            reserved_bandwidth: reserved,
            used_bandwidth: self.window_used / elapsed,
            quality: if total == 0 {
                1.0
            } else {
                smooth_total as f64 / total as f64
            },
            active_peers: total,
            per_channel_peers,
            per_channel_quality,
            mean_startup_delay: if startup_count > 0 {
                startup_sum / startup_count as f64
            } else {
                0.0
            },
        }
    }
}

/// A caller of the driver: the boundary work between segments and the
/// clock-only work of each round, for every site it runs.
pub(crate) trait Host {
    /// The work before the segment that starts at `clock`, with
    /// `provision` set on a provisioning round: fault boundaries,
    /// provisioning, re-plans. Interval records go into each site's
    /// metrics.
    ///
    /// # Errors
    ///
    /// Propagates planning and cloud failures.
    fn boundary<E: RoundEngine>(
        &mut self,
        clock: f64,
        provision: bool,
        sites: &mut [Site<'_, E>],
        tel: &Telemetry,
    ) -> Result<(), SimError>;

    /// Pre-steps the round `[t0, t1)`: writes each site's online scale
    /// at the round's start into `online`, ticks every cloud to `t1`,
    /// and writes each site's running bandwidth after the tick into
    /// `running`.
    ///
    /// # Errors
    ///
    /// Propagates cloud failures.
    fn pre_round(
        &mut self,
        t0: f64,
        t1: f64,
        online: &mut [f64],
        running: &mut [f64],
    ) -> Result<(), SimError>;

    /// True when the host's topology changes at `t1`, so the segment
    /// must end there (the federation's site mask).
    fn ends_segment(&self, _t1: f64) -> bool {
        false
    }

    /// Site `site`'s control path: its per-channel reservation and VM
    /// bandwidth are what its shards allocate from.
    fn control(&self, site: usize) -> &SiteControl;

    /// Meters one round of `site`'s cloud use, `bytes` over the round.
    fn meter(&mut self, _site: usize, _bytes: f64) {}
}

/// Runs `sites` from time 0 to the horizon of `base` (which also gives
/// the round, sampling and provisioning intervals and the
/// `parallel_channels` knob), with `host` doing the boundary and
/// clock-only work. Records the round-loop counters, the summed
/// per-sample `peers_peak` and the `stages` mode's stage, histogram
/// and table into `tel`.
///
/// # Errors
///
/// Propagates the host's failures.
pub(crate) fn run<E: RoundEngine, H: Host>(
    base: &SimConfig,
    sites: &mut [Site<'_, E>],
    host: &mut H,
    stages: Stages,
    tel: &Telemetry,
) -> Result<(), SimError> {
    let horizon = base.trace.horizon_seconds;
    let dt = base.round_seconds;
    let mut clock = 0.0_f64;
    let mut next_sample = base.sample_interval;
    let mut next_provision = 0.0_f64;
    let mut rounds: Vec<Round> = Vec::with_capacity(MAX_SEGMENT_ROUNDS);
    let mut online = vec![0.0; sites.len()];
    let mut running = vec![0.0; sites.len()];
    let n_shards: usize = sites.iter().map(|s| s.shards.len()).sum();
    let group = (base.parallel_channels && n_shards > 1).then(|| task_group(n_shards));
    // Segments are long enough to time every one of them.
    let mut clk = tel.stage_clock();
    let mut rounds_done = 0u64;

    while clock < horizon {
        let provision = clock >= next_provision;
        host.boundary(clock, provision, sites, tel)?;
        if provision {
            next_provision += base.provisioning_interval;
        }
        clk.lap(telem::STAGE_PROVISIONING);

        // --- Segment pre-step ----------------------------------------
        rounds.clear();
        for site in sites.iter_mut() {
            site.online.clear();
            site.running.clear();
        }
        let mut t0 = clock;
        loop {
            let t1 = (t0 + dt).min(horizon);
            host.pre_round(t0, t1, &mut online, &mut running)?;
            for ((site, &o), &r) in sites.iter_mut().zip(&online).zip(&running) {
                site.online.push(o);
                site.running.push(r);
            }
            let sample = t1 >= next_sample || t1 >= horizon;
            if sample {
                next_sample += base.sample_interval;
            }
            rounds.push(Round {
                t1,
                step: t1 - t0,
                sample,
            });
            t0 = t1;
            if t1 >= horizon
                || t1 >= next_provision
                || rounds.len() == MAX_SEGMENT_ROUNDS
                || host.ends_segment(t1)
            {
                break;
            }
        }
        clk.lap(telem::STAGE_CLOUD);

        // --- One fan-out over every shard of every site --------------
        fan_out(sites, host, &rounds, group, stages, rounds_done, tel);
        match stages {
            Stages::Rounds => clk.skip(),
            Stages::Shards => clk.lap(telem::STAGE_SHARD_STEP),
            Stages::Regions => clk.lap(telem::STAGE_REGION_STEP),
        }

        // --- Site and shard order folds, round by round ---------------
        for (j, site) in sites.iter_mut().enumerate() {
            site.reduce(&rounds, j, host);
        }
        clk.lap(telem::STAGE_REDUCE);
        for site in sites.iter_mut() {
            site.sample(&rounds);
        }
        clk.lap(telem::STAGE_SAMPLING);

        rounds_done += rounds.len() as u64;
        clock = t0;
    }
    report(sites, stages, rounds_done, tel);
    Ok(())
}

/// Shards per pool task: several tasks per worker, so Zipf-skewed head
/// channels level out across the pool (workers pull tasks as they free
/// up).
fn task_group(n_shards: usize) -> usize {
    #[cfg(test)]
    if let Some(group) = tests::GROUP.with(std::cell::Cell::get) {
        return group;
    }
    n_shards
        .div_ceil((rayon::current_num_threads() * 8).max(1))
        .max(1)
}

/// Steps one segment on every shard of every site: inline in site and
/// shard order when `group` is `None`, else in one pool scope of tasks
/// of `group` shards each. Everything the shards read is fixed for the
/// segment (the read barrier): the reservations and each round's online
/// scale.
fn fan_out<E: RoundEngine, H: Host>(
    sites: &mut [Site<'_, E>],
    host: &H,
    rounds: &[Round],
    group: Option<usize>,
    stages: Stages,
    first_round: u64,
    tel: &Telemetry,
) {
    let n_rounds = rounds.len();
    let stage_tel = (stages == Stages::Rounds && tel.enabled()).then_some(tel);
    let mut envs = Vec::with_capacity(sites.len());
    let mut work = Vec::with_capacity(sites.len());
    for (j, site) in sites.iter_mut().enumerate() {
        let control = host.control(j);
        site.used.resize(site.shards.len() * n_rounds, 0.0);
        envs.push(Env {
            cfg: site.cfg,
            rounds,
            online: &site.online,
            vm_bandwidth: control.vm_bandwidth(),
            channel_reserved: control.channel_reserved(),
            chunk_bytes: site.cfg.chunk_bytes(),
            time_it: tel.enabled(),
            stage_tel,
            first_round,
        });
        work.push((&mut site.shards, &mut site.used));
    }
    let Some(group) = group else {
        for (env, (shards, used)) in envs.iter().zip(work) {
            for (shard, row) in shards.iter_mut().zip(used.chunks_mut(n_rounds)) {
                shard.step_segment(env, row);
            }
        }
        return;
    };
    rayon::scope(|s| {
        for (env, (shards, used)) in envs.iter().zip(work) {
            for (chunk, used) in shards
                .chunks_mut(group)
                .zip(used.chunks_mut(group.saturating_mul(n_rounds)))
            {
                s.spawn(move |_| {
                    for (shard, row) in chunk.iter_mut().zip(used.chunks_mut(n_rounds)) {
                        shard.step_segment(env, row);
                    }
                });
            }
        }
    });
}

/// The run's telemetry, reduced in site and shard order.
fn report<E: RoundEngine>(sites: &[Site<'_, E>], stages: Stages, rounds: u64, tel: &Telemetry) {
    if !tel.enabled() {
        return;
    }
    let shards = || sites.iter().flat_map(|s| &s.shards);
    tel.add(telem::ROUNDS, rounds);
    tel.add(telem::ARRIVALS_ADMITTED, shards().map(|s| s.admitted).sum());
    tel.add(
        telem::COMPLETED_CHUNKS,
        shards().map(|s| s.n_completed).sum(),
    );
    tel.add(telem::WOKEN_PEERS, shards().map(|s| s.n_woken).sum());
    // Sites sample in lockstep, so the per-sample sums align.
    let samples = sites.iter().map(|s| s.metrics.samples.len()).min();
    let peak = (0..samples.unwrap_or(0))
        .map(|k| {
            sites
                .iter()
                .map(|s| s.metrics.samples[k].active_peers)
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    tel.gauge_max(telem::PEERS_PEAK, peak as u64);
    match stages {
        Stages::Rounds => {}
        Stages::Shards => {
            let rows = shards()
                .map(|s| {
                    tel.observe(telem::HIST_SHARD_WALL, s.wall_ns);
                    vec![
                        s.first as u64,
                        s.wall_ns,
                        s.peers.len() as u64,
                        s.peak_peers as u64,
                    ]
                })
                .collect();
            tel.push_table(
                "shards",
                &["channel", "wall_ns", "peers_final", "peak_peers"],
                rows,
            );
        }
        Stages::Regions => {
            let rows = sites
                .iter()
                .map(|site| {
                    let wall: u64 = site.shards.iter().map(|s| s.wall_ns).sum();
                    tel.observe(telem::HIST_REGION_WALL, wall);
                    let peers: usize = site.shards.iter().map(|s| s.peers.len()).sum();
                    let peak = site.metrics.samples.iter().map(|s| s.active_peers).max();
                    vec![wall, peers as u64, peak.unwrap_or(0) as u64]
                })
                .collect();
            tel.push_table("regions", &["wall_ns", "peers_final", "peak_peers"], rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimKernel;
    use crate::simulator::Simulator;
    use cloudmedia_workload::catalog::Catalog;
    use cloudmedia_workload::viewing::ViewingModel;

    thread_local! {
        /// A forced shard-to-task group size for this thread's runs.
        pub(super) static GROUP: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    /// A small, fast sharded configuration.
    fn small(mode: SimMode, channels: usize, population: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.catalog = Catalog::zipf(
            channels,
            0.8,
            ViewingModel::paper_default(),
            population,
            300.0,
        )
        .unwrap();
        cfg.trace.horizon_seconds = 4.0 * 3600.0;
        cfg.kernel = SimKernel::Sharded;
        cfg
    }

    fn run_metrics(cfg: SimConfig) -> Metrics {
        Simulator::new(cfg).unwrap().run().unwrap()
    }

    /// The shard-to-task grouping is what worker-pool size actually
    /// changes; results must not depend on it — including the serial
    /// path (no grouping at all).
    #[test]
    fn grouping_cannot_change_results() {
        let cfg = small(SimMode::P2p, 5, 150.0);
        let baseline = {
            let mut serial = cfg.clone();
            serial.parallel_channels = false;
            run_metrics(serial)
        };
        for group in [1, 2, 3, usize::MAX] {
            GROUP.with(|g| g.set(Some(group)));
            let m = run_metrics(cfg.clone());
            GROUP.with(|g| g.set(None));
            assert_eq!(m, baseline, "group size {group} diverged from serial");
        }
    }

    #[test]
    fn sharded_run_produces_sane_metrics() {
        let m = run_metrics(small(SimMode::ClientServer, 4, 150.0));
        assert_eq!(m.intervals.len(), 4, "one record per hour");
        assert!(!m.samples.is_empty());
        assert!(m.mean_quality() > 0.9, "quality {}", m.mean_quality());
        assert!(m.peak_peers() > 30, "peers showed up: {}", m.peak_peers());
        assert!(m.total_vm_cost > 0.0);
    }

    #[test]
    fn sharded_samples_split_by_channel() {
        let m = run_metrics(small(SimMode::ClientServer, 3, 120.0));
        for s in &m.samples {
            assert_eq!(s.per_channel_peers.len(), 3);
            assert_eq!(s.per_channel_quality.len(), 3);
            assert_eq!(s.per_channel_peers.iter().sum::<usize>(), s.active_peers);
        }
        // Zipf head channel sees the most viewers.
        let last = m.samples.last().unwrap();
        assert!(last.per_channel_peers[0] >= last.per_channel_peers[2]);
    }
}
