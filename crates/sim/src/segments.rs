//! The segment driver: the one round loop every round engine runs on.
//!
//! The production engine (Indexed) and the tests' reference engine
//! (Scan, reached through [`crate::Simulator::run_reference`]) replay
//! one per-round model: arrivals (shed under
//! [`crate::faults::DegradeMode::ShedNewArrivals`]), allocation, download
//! advance, viewing-model events, metering and sampling. This module
//! holds that model once. A run is a list of **sites** (one for a
//! single-site run, one per region for the federation), and a site is a
//! list of **shards**, one per channel, as in the paper's model a viewer
//! only ever meets its own channel's swarm and its own channel's
//! reservation:
//!
//! - A [`Shard`] owns one channel's round engine (a type parameter the
//!   caller picks when it builds the sites, so it is statically
//!   dispatched), its peers, its lazy [`ChannelArrivals`]
//!   sub-stream, its behaviour RNG (seeded with the channel's splitmix
//!   child of [`SimConfig::behaviour_seed`],
//!   [`cloudmedia_workload::trace::child_seed`]), its tracker collector,
//!   and its event scratch. [`Shard::step_round`] is the only per-round
//!   body there is.
//!
//! The driver ([`run`]) steps whole **segments** of rounds under one
//! host, the deployment of `crate::federation`: every run, one site or
//! several, is a deployment. Before each segment the host does its
//! boundary work (each site's fleet failures and repairs, then the
//! per-site plans and global placement, or an emergency re-plan when a
//! site goes dark or comes back). Then the driver pre-steps every round
//! of the segment through the host: the clouds depend only on time and
//! submissions, never on viewer state, so each round's online scale and
//! cloud tick can run ahead of the shards. Then it steps every shard of
//! every site — inline, or fanned out over the rayon pool in one scope
//! when [`SimConfig::parallel_channels`] is set and the sites are large
//! enough (see [`run`] for the two rules) — and folds the results round
//! by round, in site and shard order. A segment ends before the next
//! provisioning round or site-mask change, at the horizon, or after
//! [`MAX_SEGMENT_ROUNDS`] rounds. Sampling rounds fall inside segments:
//! at each one, a shard writes its sample partial (peers, smooth-playback
//! count, start-up delay sum and count), and the driver folds the
//! partials in shard order after the barrier.
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
//!    the configuration and the shard's channel — neither depends on
//!    scheduling, shard grouping, or thread count.
//!
//! Scan and Indexed shards make the same draws, events and sums, so the
//! two engines stay bit-identical to each other and to the goldens.
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
use cloudmedia_workload::catalog::ChannelSpec;
use cloudmedia_workload::trace::{child_seed, ChannelArrivals, UserArrival};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{SimConfig, SimMode};
use crate::control::Observations;
use crate::error::SimError;
use crate::federation::Deployment;
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

/// The fewest connected viewers a site's shards must hold, at a
/// segment's start, for the segment to fan the site's shards out as
/// several pool tasks. Below it the site steps as one task, and a
/// segment of one task runs inline, so a paper-scale site never starts
/// the pool.
///
/// Measured on a 2-vCPU host with `cloudmedia scale --hours 2` on 20
/// channels, the default pool against serial stepping (`--serial` then;
/// `RAYON_NUM_THREADS=1` steps the shards inline the same way), 11 runs
/// per point (`docs/SCALING.md` has the table). The pool won on wall
/// time at every population from 2,500 viewers up. The extra CPU it
/// spent (+11 % at 2,500, −6 % at 5,000, −9 % at 10,000) lies inside the
/// noise of runs that short: an 8-hour rerun read +16 %, +9 % and
/// +16 %. So the 10 % CPU criterion does not single out 5,000, and the
/// channel count was not varied (400 channels was measured at 50,000
/// only). What 5,000 is known to do is keep the paper week (peak near
/// 2,500) inline and fan the 200k-viewer steady run out.
pub(crate) const FAN_OUT_MIN_PEERS: usize = 5_000;

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

/// One sampling round's partial from one shard.
#[derive(Debug, Clone, Copy)]
struct Partial {
    /// Connected viewers.
    peers: usize,
    /// Of those, viewers with smooth playback over the window.
    smooth: usize,
    /// Start-up delays completed in the window: their sum and count.
    startup_sum: f64,
    startup_count: usize,
}

/// One channel's complete simulation state: the unit the driver fans
/// out. See the module docs for what lives here and why nothing is
/// shared.
struct Shard<E> {
    engine: E,
    /// The channel this shard simulates.
    channel: usize,
    /// The channel's connected viewers.
    peers: Vec<Peer>,
    /// Behaviour RNG.
    rng: StdRng,
    arrivals: ChannelArrivals,
    /// The next arrival not yet ingested, if any.
    next_arrival: Option<UserArrival>,
    /// Tracker-side statistics for the channel.
    tracker: Tracker,
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
    /// This segment's sample partials, one per sampling round.
    partials: Vec<Partial>,
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
    /// Time round stages (an inline segment with telemetry on).
    stage_tel: Option<&'a Telemetry>,
    /// How many shards the inline segment steps, over every site.
    stage_shards: u64,
    /// The segment's first round, counted from the start of the run.
    first_round: u64,
}

impl Env<'_> {
    /// The stage clock of round `k` for the shard at `position` of an
    /// inline segment, if that shard times the round. One shard per
    /// [`telem::STAGE_TIME_SAMPLE`]-th round does, picked by a hash of
    /// the round index, and its laps are scaled by the period times the
    /// shard count: an unbiased estimate of every shard's stages at one
    /// shard's clock cost, with no phase locked to the run's periodic
    /// structure.
    fn stage_clock(&self, k: usize, position: u64) -> Option<StageClock<'_>> {
        let tel = self.stage_tel?;
        let round = self.first_round + k as u64;
        let timed = round.is_multiple_of(telem::STAGE_TIME_SAMPLE)
            && child_seed(round, 0) % self.stage_shards == position;
        timed.then(|| tel.stage_clock_sampled(telem::STAGE_TIME_SAMPLE * self.stage_shards))
    }
}

/// Credits the time since the previous boundary to `id` on a timed
/// round.
fn lap(clk: &mut Option<StageClock<'_>>, id: MetricId) {
    if let Some(clk) = clk {
        clk.lap(id);
    }
}

impl<E: RoundEngine> Shard<E> {
    /// Channel `spec`'s shard: its arrival sub-stream, a behaviour RNG
    /// seeded with the channel's splitmix child of `behaviour_seed`, and
    /// its tracker collector.
    fn new(cfg: &SimConfig, spec: &ChannelSpec, engine: E) -> Result<Self, SimError> {
        let mut arrivals = ChannelArrivals::new(spec, &cfg.trace)?;
        let next_arrival = arrivals.next();
        Ok(Self {
            engine,
            channel: spec.id,
            peers: Vec::new(),
            rng: StdRng::seed_from_u64(child_seed(cfg.behaviour_seed, spec.id as u64)),
            arrivals,
            next_arrival,
            tracker: Tracker::for_channels(&cfg.catalog, spec.id..spec.id + 1)?,
            removals: Vec::new(),
            completed: Vec::new(),
            woken: Vec::new(),
            shed: 0,
            startup_sum: 0.0,
            startup_count: 0,
            partials: Vec::new(),
            wall_ns: 0,
            peak_peers: 0,
            admitted: 0,
            n_completed: 0,
            n_woken: 0,
        })
    }

    /// Steps every round of a segment, writing each round's used cloud
    /// rate into `used` (this shard's row of the segment buffer) and, at
    /// each sampling round, the shard's sample partial. `position` is
    /// the shard's place among an inline segment's shards.
    fn step_segment(&mut self, env: &Env<'_>, used: &mut [f64], position: u64) {
        let start = env.time_it.then(std::time::Instant::now);
        self.partials.clear();
        for (k, (round, used)) in env.rounds.iter().zip(used).enumerate() {
            let mut clk = env.stage_clock(k, position);
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
            // the decision is identical under any shard grouping. A
            // shed arrival is still demand the tracker measures: the
            // plans made inside the burst rent for it, and the repair
            // resubmits them.
            if cfg.faults.shed_arrivals_at(a.time) {
                self.shed += 1;
                self.tracker.record_join(a.channel, a.start_chunk);
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
            reserved: env.channel_reserved[self.channel] * online_scale,
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

    /// Appends this sampling round's partial: the connected viewers,
    /// those with smooth playback over the past `window`, and the
    /// start-up delay window (which it resets).
    fn write_partial(&mut self, t1: f64, window: f64) {
        let smooth = self
            .peers
            .iter()
            .filter(|p| p.smooth_in_window(t1, window))
            .count();
        self.partials.push(Partial {
            peers: self.peers.len(),
            smooth,
            startup_sum: self.startup_sum,
            startup_count: self.startup_count,
        });
        self.startup_sum = 0.0;
        self.startup_count = 0;
    }
}

/// One site: one shard per channel in channel order, the segment
/// buffers the driver fills and folds, and the site's metric series.
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
    /// A site on the reference engine, the tests' oracle.
    pub(crate) fn scan(cfg: &'a SimConfig) -> Result<Self, SimError> {
        Site::new(cfg, |spec| ScanEngine::new(spec.viewing.chunks))
    }
}

impl<'a> Site<'a, IndexedEngine> {
    /// An Indexed site.
    pub(crate) fn indexed(cfg: &'a SimConfig) -> Result<Self, SimError> {
        Site::new(cfg, |spec| {
            IndexedEngine::new(spec.viewing.chunks, cfg.peer_efficiency, cfg.round_seconds)
        })
    }
}

impl<'a, E: RoundEngine> Site<'a, E> {
    /// One shard per channel of `cfg`'s catalog, each with the engine
    /// `engine` builds for its channel.
    fn new(cfg: &'a SimConfig, engine: impl Fn(&ChannelSpec) -> E) -> Result<Self, SimError> {
        let shards = cfg
            .catalog
            .channels()
            .iter()
            .map(|spec| Shard::new(cfg, spec, engine(spec)))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            cfg,
            shards,
            online: Vec::with_capacity(MAX_SEGMENT_ROUNDS),
            running: Vec::with_capacity(MAX_SEGMENT_ROUNDS),
            used: Vec::new(),
            bytes: Vec::with_capacity(MAX_SEGMENT_ROUNDS),
            window_used: 0.0,
            window_start: 0.0,
            metrics: Metrics::default(),
        })
    }

    /// Connected viewers per channel, in channel order.
    pub(crate) fn channel_peers(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.peers.len()).collect()
    }

    /// Summarizes the interval that just ended from every shard's
    /// tracker, in channel order, and resets them.
    pub(crate) fn interval_stats(&mut self) -> Result<Observations, SimError> {
        let interval = self.cfg.provisioning_interval;
        let mut out = Vec::with_capacity(self.shards.len());
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

    /// The pool task size for this site's next segment (rule 1 of
    /// [`run`]): the whole site below [`FAN_OUT_MIN_PEERS`] connected
    /// viewers, else `group` shards.
    fn task_size(&self, group: usize) -> usize {
        #[cfg(test)]
        if let Some(group) = tests::GROUP.with(std::cell::Cell::get) {
            return group;
        }
        let connected: usize = self.shards.iter().map(|s| s.peers.len()).sum();
        if connected < FAN_OUT_MIN_PEERS {
            usize::MAX
        } else {
            group
        }
    }

    /// Folds each round's used cloud rate over the shards, in shard
    /// order, into the round's cloud bytes, and lets the host meter
    /// them.
    fn reduce(&mut self, rounds: &[Round], site: usize, host: &mut Deployment<'_>) {
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
        let n = self.shards.len();
        let mut per_channel_peers = Vec::with_capacity(n);
        let mut per_channel_quality = Vec::with_capacity(n);
        let mut total = 0usize;
        let mut smooth_total = 0usize;
        let mut startup_sum = 0.0_f64;
        let mut startup_count = 0usize;
        for shard in &self.shards {
            let p = shard.partials[partial];
            per_channel_peers.push(p.peers);
            per_channel_quality.push(if p.peers == 0 {
                1.0
            } else {
                p.smooth as f64 / p.peers as f64
            });
            total += p.peers;
            smooth_total += p.smooth;
            startup_sum += p.startup_sum;
            startup_count += p.startup_count;
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

/// Runs `sites` from time 0 to the horizon of `base` (which also gives
/// the round, sampling and provisioning intervals and the
/// `parallel_channels` knob), with `host` doing the boundary and
/// clock-only work. Records the round-loop counters, the summed
/// per-sample `peers_peak`, the stage times and the per-shard (or, for
/// more than one site, per-region) wall times into `tel`.
///
/// Two rules, both read from state the driver already holds, decide
/// how each segment steps:
///
/// 1. A site whose shards hold fewer than [`FAN_OUT_MIN_PEERS`]
///    connected viewers at the segment's start steps as one pool task;
///    a larger one as tasks of several shards. A segment of one task
///    (or any segment with `parallel_channels` off) runs inline.
/// 2. An inline segment times its round stages inside the shards
///    (`stage/arrivals` … `stage/events` and `stage/sampling`, sampled:
///    one shard in one round in [`telem::STAGE_TIME_SAMPLE`]). A
///    fanned-out segment is timed as one stage: `stage/shard_step` for
///    a single site, `stage/region_step` for more than one. No stage
///    counter nests inside another.
///
/// # Errors
///
/// Propagates the host's failures.
pub(crate) fn run<E: RoundEngine>(
    base: &SimConfig,
    sites: &mut [Site<'_, E>],
    host: &mut Deployment<'_>,
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
    let group = task_group(sites.iter().map(|s| s.shards.len()).sum());
    let regions = sites.len() > 1;
    let mut task_sizes = vec![0; sites.len()];
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

        // --- One fan-out over every shard of every site (rule 1) -----
        let mut tasks = 0;
        for (size, site) in task_sizes.iter_mut().zip(sites.iter()) {
            *size = site.task_size(group);
            tasks += site.shards.len().div_ceil(*size);
        }
        let pooled = base.parallel_channels && tasks > 1;
        fan_out(
            sites,
            host,
            &rounds,
            pooled.then_some(&task_sizes),
            rounds_done,
            tel,
        );
        // Rule 2: an inline segment's shards timed their own stages.
        match (pooled, regions) {
            (false, _) => clk.skip(),
            (true, false) => clk.lap(telem::STAGE_SHARD_STEP),
            (true, true) => clk.lap(telem::STAGE_REGION_STEP),
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
    report(sites, regions, rounds_done, tel);
    Ok(())
}

/// Shards per pool task of a fanned-out site: several tasks per
/// worker, so Zipf-skewed head channels level out across the pool
/// (workers pull tasks as they free up).
fn task_group(n_shards: usize) -> usize {
    n_shards
        .div_ceil((rayon::current_num_threads() * 8).max(1))
        .max(1)
}

/// Steps one segment on every shard of every site: inline in site and
/// shard order when `task_sizes` is `None`, else in one pool scope of
/// tasks of `task_sizes[site]` shards each. Everything the shards read
/// is fixed for the segment (the read barrier): the reservations and
/// each round's online scale.
fn fan_out<E: RoundEngine>(
    sites: &mut [Site<'_, E>],
    host: &Deployment<'_>,
    rounds: &[Round],
    task_sizes: Option<&[usize]>,
    first_round: u64,
    tel: &Telemetry,
) {
    let n_rounds = rounds.len();
    let stage_tel = (task_sizes.is_none() && tel.enabled()).then_some(tel);
    let stage_shards = sites.iter().map(|s| s.shards.len() as u64).sum();
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
            stage_shards,
            first_round,
        });
        work.push((&mut site.shards, &mut site.used));
    }
    let Some(task_sizes) = task_sizes else {
        let mut position = 0;
        for (env, (shards, used)) in envs.iter().zip(work) {
            for (shard, row) in shards.iter_mut().zip(used.chunks_mut(n_rounds)) {
                shard.step_segment(env, row, position);
                position += 1;
            }
        }
        return;
    };
    rayon::scope(|s| {
        for ((env, (shards, used)), &size) in envs.iter().zip(work).zip(task_sizes) {
            for (chunk, used) in shards
                .chunks_mut(size)
                .zip(used.chunks_mut(size.saturating_mul(n_rounds)))
            {
                s.spawn(move |_| {
                    for (shard, row) in chunk.iter_mut().zip(used.chunks_mut(n_rounds)) {
                        shard.step_segment(env, row, 0);
                    }
                });
            }
        }
    });
}

/// The run's telemetry, reduced in site and shard order: per-shard wall
/// times and the `shards` table for a single site, per-region ones and
/// the `regions` table for more than one (`regions`).
fn report<E: RoundEngine>(sites: &[Site<'_, E>], regions: bool, rounds: u64, tel: &Telemetry) {
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
    if regions {
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
    } else {
        let rows = shards()
            .map(|s| {
                tel.observe(telem::HIST_SHARD_WALL, s.wall_ns);
                vec![
                    s.channel as u64,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use cloudmedia_workload::catalog::Catalog;
    use cloudmedia_workload::viewing::ViewingModel;

    thread_local! {
        /// A forced shard-to-task group size for this thread's runs,
        /// whatever the sites' populations.
        pub(super) static GROUP: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    /// A small, fast configuration.
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
