//! The sharded channel-parallel round engine ([`SimKernel::Sharded`]).
//!
//! The single-site round engines ([`SimKernel::Indexed`] /
//! [`SimKernel::Scan`]) thread every channel through one behaviour RNG
//! and one event loop, which caps a run at one core no matter how many
//! channels the catalog holds. This module removes that cap for
//! scale-out experiments — thousands of channels, millions of
//! concurrent viewers — by making **the channel the unit of state**:
//!
//! - Each channel is a [`ChannelShard`] owning its peers (struct-of-
//!   arrays hot fields inside its single-lane `IndexedEngine`: the
//!   fixed-point usable-upload units, the download-slot map, the
//!   download index), its lazy arrival sub-stream
//!   ([`cloudmedia_workload::trace::ChannelArrivals`]), its tracker
//!   collector, and its own behaviour RNG seeded with a splitmix child
//!   of [`SimConfig::behaviour_seed`]
//!   ([`cloudmedia_workload::trace::child_seed`]).
//! - Every round, shards step independently — arrivals, allocation,
//!   download progress, viewing-model events — and the run loop fans
//!   them across the rayon worker pool when
//!   [`SimConfig::parallel_channels`] is set.
//! - Everything the shards share is either **read-only during the
//!   fan-out** (the catalog, the per-channel reservations, the online
//!   scale — all snapshotted before dispatch, the same read-barrier
//!   discipline the federated simulator uses) or **reduced in fixed
//!   channel order after it** (the round's used cloud rate, interval
//!   statistics, sample assembly).
//!
//! # Determinism contract
//!
//! Serial execution, parallel execution, any worker-pool size, and any
//! shard-to-task grouping all produce **bit-identical**
//! [`Metrics`]. The argument:
//!
//! 1. No two shards ever write the same accumulator: peers never change
//!    channels, arrivals are generated per channel, and the engine state
//!    is per shard. The fan-out therefore cannot reorder any arithmetic
//!    *inside* a shard, and shards have no arithmetic *between* them.
//! 2. Every cross-shard sum (`Σ` used cloud rate, startup-delay window
//!    sums, sample aggregation) is computed by the coordinator after the
//!    barrier, iterating shards in ascending channel order — one fixed
//!    f64 addition sequence regardless of which thread finished first.
//! 3. Each shard's RNG stream is a pure function of
//!    `(behaviour_seed, channel id)`, and each shard's arrival stream is
//!    a pure function of `(trace seed, channel id)` — neither depends on
//!    scheduling, shard grouping, or thread count.
//!
//! # Sub-channel lanes
//!
//! A channel is the unit of *state*, but no longer the unit of *work*:
//! a flash-crowd channel holding most of the population would otherwise
//! Amdahl-cap the whole run on one core. Each shard's engine may
//! therefore fan its two per-round download passes (demand aggregation
//! and advance) out over fixed-order **sub-lanes** — contiguous
//! segments of the shard's download index — as nested rayon scopes.
//! Idle workers steal lane jobs from hot shards off the shared pool
//! queue (the vendored pool prefers same-scope jobs, so a worker
//! blocked on its own shard helps that shard first). Determinism holds
//! by the same two rules as the shard fan-out: sub-lanes never share an
//! accumulator (each writes private fixed-point partials), and the
//! partials are folded in fixed lane order — and since they are
//! *integers*, even the fold order could not change the sums. Lane
//! count is derived from [`SimConfig::lanes`] (0 = one lane per pool
//! thread, engaging only on genuinely hot shards; explicit values lower
//! the engagement threshold so tests can exercise the machinery on
//! small populations — see `LANE_MIN_AUTO` / `LANE_MIN_FORCED`).
//!
//! `crates/sim/tests/sharding.rs` pins serial ≡ parallel over random
//! configurations, `crates/sim/tests/lane_invariance.rs` extends the
//! pin over lane counts × thread counts × fault schedules, and the unit
//! tests below pin invariance to the shard-to-task grouping (the knob
//! thread count actually turns).
//!
//! Because each channel draws from its own RNG stream, a sharded run is
//! a *different sample of the same viewer-behaviour process* than an
//! `Indexed` run (which interleaves all channels through one RNG): the
//! two agree in distribution and in steady-state means, not
//! bit-for-bit. `docs/SCALING.md` discusses when that trade is the
//! right one.

use cloudmedia_cloud::broker::{scale_fleet_capacity, scale_nfs_capacity, Cloud, ResourceRequest};
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_cloud::scheduler::PlacementPlan;
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::stats::{ChannelStatsCollector, Observation};
use cloudmedia_workload::trace::{child_seed, ChannelArrivals, UserArrival};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{SimConfig, SimMode};
use crate::error::SimError;
use crate::faults::{FaultDriver, FaultRun, FaultSchedule};
use crate::metrics::{Metrics, Sample};
use crate::peer::Peer;
use crate::simulator::{
    bootstrap_stats, interval_record, make_planner, process_round_events, IndexedEngine, RoundCtx,
    RoundEngine,
};
use crate::telem;
use crate::tracker::summarize_channel;

/// Per-shard wall times are sampled on every `SHARD_WALL_SAMPLE`-th
/// round rather than every round: a shard's step costs about as much as
/// a clock read, so timing every shard every round would dominate the
/// telemetry budget. Sampled totals still rank the shards (the Zipf
/// head channel dominates by orders of magnitude), which is what the
/// imbalance table is for.
const SHARD_WALL_SAMPLE: u64 = 64;

/// Minimum downloads per sub-lane in auto mode ([`SimConfig::lanes`]
/// = 0): below ~8k entries a segment's demand scan finishes faster than
/// pool dispatch costs, so only genuinely hot shards split.
const LANE_MIN_AUTO: usize = 8192;

/// Minimum downloads per sub-lane when the lane count is explicit
/// ([`SimConfig::lanes`] > 0): low enough that integration tests (and
/// deliberate experiments) exercise the split passes on small
/// populations. Correctness never depends on the threshold — lanes are
/// bit-identical at any engagement point.
const LANE_MIN_FORCED: usize = 8;

/// One channel's complete simulation state: the unit the run loop fans
/// out. See the module docs for what lives here and why nothing is
/// shared.
struct ChannelShard {
    /// Global channel id (shards are stored in channel order, so this
    /// equals the shard's index; kept explicit for clarity).
    channel: usize,
    /// Single-lane round engine holding the SoA hot fields (download
    /// index, fixed-point supply aggregates, wake wheel).
    engine: IndexedEngine,
    /// This channel's connected viewers.
    peers: Vec<Peer>,
    /// Behaviour RNG: splitmix child stream of `behaviour_seed`.
    rng: StdRng,
    /// Lazy arrival sub-stream for this channel.
    arrivals: ChannelArrivals,
    next_arrival: Option<UserArrival>,
    /// Tracker-side statistics for this channel.
    collector: ChannelStatsCollector,
    prior_routing: Vec<Vec<f64>>,
    prior_alpha: f64,
    // Round-event scratch, reused every round.
    removals: Vec<usize>,
    completed: Vec<usize>,
    woken: Vec<usize>,
    /// Cloud rate used by this shard in the round just stepped.
    round_used: f64,
    /// Arrivals refused by [`crate::faults::DegradeMode::ShedNewArrivals`]
    /// (cumulative; reduced in channel order at run end).
    shed: u64,
    // Startup-delay window accumulators (flushed at sample boundaries).
    startup_sum: f64,
    startup_count: usize,
    // Telemetry accumulators (side channel only — reduced in channel
    // order at run end; the cheap integer ones run unconditionally, the
    // wall clock only on sampled rounds of a telemetry-enabled run).
    /// Sampled wall time spent in [`ChannelShard::step_round`], ns.
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

impl std::fmt::Debug for ChannelShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelShard")
            .field("channel", &self.channel)
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

impl ChannelShard {
    /// One allocation round for this shard: ingest arrivals, run the
    /// allocation stage, advance downloads, and handle the round's
    /// events — the exact per-round sequence of the single-site run
    /// loop, confined to one channel.
    fn step_round(
        &mut self,
        t1: f64,
        ctx: &RoundCtx<'_>,
        catalog: &Catalog,
        chunk_bytes: f64,
        chunk_seconds: f64,
        faults: &FaultSchedule,
    ) {
        while let Some(a) = self.next_arrival.as_ref().filter(|a| a.time < t1) {
            // Admission control under ShedNewArrivals: pure function of
            // the arrival timestamp and the (read-only) schedule, so the
            // decision is identical under any shard grouping.
            if faults.shed_arrivals_at(a.time) {
                self.shed += 1;
                self.next_arrival = self.arrivals.next();
                continue;
            }
            self.peers.push(Peer::new(
                a.user_id,
                a.channel,
                a.upload_bytes_per_sec,
                a.start_chunk,
                chunk_bytes,
                a.time,
            ));
            self.engine.on_join(&self.peers, self.peers.len() - 1);
            self.collector.record(Observation::Join {
                chunk: a.start_chunk,
            });
            self.admitted += 1;
            self.next_arrival = self.arrivals.next();
        }
        self.peak_peers = self.peak_peers.max(self.peers.len());

        self.round_used = self.engine.allocate(&self.peers, ctx);
        self.completed.clear();
        self.woken.clear();
        self.engine.advance_round(
            &mut self.peers,
            ctx,
            t1,
            &mut self.completed,
            &mut self.woken,
        );
        process_round_events(
            &mut self.engine,
            &mut self.peers,
            &self.completed,
            &self.woken,
            &mut self.removals,
            &mut self.collector,
            &mut self.rng,
            catalog,
            chunk_bytes,
            chunk_seconds,
            t1,
            &mut self.startup_sum,
            &mut self.startup_count,
        );
        self.n_completed += self.completed.len() as u64;
        self.n_woken += self.woken.len() as u64;
    }

    /// [`ChannelShard::step_round`], optionally timing the step into the
    /// shard's sampled wall accumulator.
    #[allow(clippy::too_many_arguments)]
    fn step_round_timed(
        &mut self,
        time_it: bool,
        t1: f64,
        ctx: &RoundCtx<'_>,
        catalog: &Catalog,
        chunk_bytes: f64,
        chunk_seconds: f64,
        faults: &FaultSchedule,
    ) {
        if time_it {
            let t0 = std::time::Instant::now();
            self.step_round(t1, ctx, catalog, chunk_bytes, chunk_seconds, faults);
            self.wall_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        } else {
            self.step_round(t1, ctx, catalog, chunk_bytes, chunk_seconds, faults);
        }
    }
}

/// Runs a sharded simulation over the configured horizon, returning the
/// metrics plus the fault-plane counters, and recording stage timings,
/// per-shard imbalance rows, and counters into `tel`. Telemetry is a
/// pure side channel — the metrics are bit-identical to a run against
/// [`Telemetry::disabled`].
pub(crate) fn run_with_telemetry(cfg: &SimConfig, tel: &Telemetry) -> Result<FaultRun, SimError> {
    run_inner(cfg, None, tel, None)
}

/// [`run_with_telemetry`] with an explicit shard-to-task group size (tests use this to
/// pin that the grouping — the knob thread count actually turns —
/// cannot change results; `None` picks the load-balancing default).
#[cfg(test)]
pub(crate) fn run_with_groups(
    cfg: &SimConfig,
    group_override: Option<usize>,
    tel: &Telemetry,
) -> Result<FaultRun, SimError> {
    run_inner(cfg, group_override, tel, None)
}

/// [`run_with_telemetry`] that also measures the end-of-run per-peer
/// resident footprint (the `crate::footprint` accounting).
pub(crate) fn run_with_footprint(
    cfg: &SimConfig,
    tel: &Telemetry,
) -> Result<(FaultRun, crate::footprint::PeerFootprint), SimError> {
    let mut fp = crate::footprint::PeerFootprint::default();
    let run = run_inner(cfg, None, tel, Some(&mut fp))?;
    Ok((run, fp))
}

fn run_inner(
    cfg: &SimConfig,
    group_override: Option<usize>,
    tel: &Telemetry,
    footprint: Option<&mut crate::footprint::PeerFootprint>,
) -> Result<FaultRun, SimError> {
    let globals = telem::GlobalCounters::capture();
    let catalog = &cfg.catalog;
    let n_channels = catalog.len();
    let chunk_bytes = cfg.chunk_bytes();

    let mut cloud = Cloud::new(
        scale_fleet_capacity(&paper_virtual_clusters(), cfg.fleet_scale),
        scale_nfs_capacity(&paper_nfs_clusters(), cfg.fleet_scale),
        chunk_bytes as u64,
    )?;
    let sla = cloud.sla_terms();
    let vm_bandwidth = sla.virtual_clusters[0].vm_bandwidth_bytes_per_sec;
    let mut planner = make_planner(cfg, vm_bandwidth)?;
    let mut fault_driver = FaultDriver::new(&cfg.faults);
    let retry = *fault_driver.retry_policy();
    let mut last_plan: Option<cloudmedia_core::controller::ProvisioningPlan> = None;
    let mut last_plan_targets: Vec<usize> = Vec::new();
    let mut applied_budget_factor = 1.0_f64;
    let mut current_placement: Option<PlacementPlan> = None;
    let mut metrics = Metrics::default();

    // Sub-lane fan-out parameters for every shard engine. A truly
    // serial run (parallel_channels off) keeps every shard single-lane,
    // so `--serial` remains the one-thread reference. Auto mode (lanes
    // = 0) offers one lane per pool thread but engages them only on
    // shards hot enough to amortize dispatch; an explicit lane count
    // lowers the engagement threshold instead (tests and experiments).
    let (lane_cap, lane_min) = if !cfg.parallel_channels {
        (1, LANE_MIN_AUTO)
    } else if cfg.lanes == 0 {
        (rayon::current_num_threads().max(1), LANE_MIN_AUTO)
    } else {
        (cfg.lanes, LANE_MIN_FORCED)
    };

    let mut shards: Vec<ChannelShard> = Vec::with_capacity(n_channels);
    for spec in catalog.channels() {
        let mut arrivals = ChannelArrivals::new(spec, &cfg.trace)?;
        let next_arrival = arrivals.next();
        let engine = IndexedEngine::for_shard(
            spec.id,
            spec.viewing.chunks,
            cfg.peer_efficiency,
            cfg.round_seconds,
            lane_cap,
            lane_min,
        );
        shards.push(ChannelShard {
            channel: spec.id,
            engine,
            peers: Vec::new(),
            rng: StdRng::seed_from_u64(child_seed(cfg.behaviour_seed, spec.id as u64)),
            arrivals,
            next_arrival,
            collector: ChannelStatsCollector::new(spec.viewing.chunks)?,
            prior_routing: spec.viewing.routing_rows()?,
            prior_alpha: spec.viewing.start_at_beginning,
            removals: Vec::new(),
            completed: Vec::new(),
            woken: Vec::new(),
            round_used: 0.0,
            shed: 0,
            startup_sum: 0.0,
            startup_count: 0,
            wall_ns: 0,
            peak_peers: 0,
            admitted: 0,
            n_completed: 0,
            n_woken: 0,
        });
    }

    let horizon = cfg.trace.horizon_seconds;
    let dt = cfg.round_seconds;
    let mut clock = 0.0_f64;
    let mut next_sample = cfg.sample_interval;
    let mut next_provision = 0.0_f64;
    let mut window_used = 0.0_f64;
    let mut window_start = 0.0_f64;

    let mut channel_reserved = vec![0.0_f64; n_channels];
    let mut reserved_total = 0.0_f64;

    let run_span = tel.span(telem::RUN_WALL);
    let mut clk = tel.stage_clock_sampled(telem::STAGE_TIME_SAMPLE);
    let mut round_idx: u64 = 0;
    let mut peers_peak = 0u64;

    while clock < horizon {
        let t1 = (clock + dt).min(horizon);
        let step = t1 - clock;
        clk.begin_round();

        // --- Fault boundaries (coordinator, serial) ------------------
        fault_driver.apply_due(clock, &mut cloud, &last_plan_targets)?;

        // --- Provisioning boundary (coordinator, serial) ------------
        if clock >= next_provision {
            let _interval_span = tel.span(telem::PROV_INTERVAL);
            let bootstrap = metrics.intervals.is_empty();
            let (budget_factor, price_factor) = cfg.faults.shock_factors(clock);
            if budget_factor != applied_budget_factor {
                planner.scale_vm_budget(budget_factor / applied_budget_factor)?;
                applied_budget_factor = budget_factor;
            }
            let planning_sla = if price_factor == 1.0 {
                sla.clone()
            } else {
                sla.with_vm_price_factor(price_factor)
            };
            let summarize = |shards: &mut [ChannelShard]| -> Result<Vec<(usize, _)>, SimError> {
                let mut out = Vec::with_capacity(n_channels);
                for s in shards.iter_mut() {
                    let obs = summarize_channel(
                        &mut s.collector,
                        &s.prior_routing,
                        s.prior_alpha,
                        cfg.provisioning_interval,
                    )?;
                    out.push((s.channel, obs));
                }
                Ok(out)
            };
            let plan = if !bootstrap && cfg.faults.dropout_active(clock) && last_plan.is_some() {
                // Tracker blackout: drain the interval's measurements so
                // the collectors reset exactly as in a non-faulted run,
                // then replay the last-known-good plan.
                let _s = tel.span(telem::PROV_TRACKER);
                let _ = summarize(&mut shards)?;
                fault_driver.stats.fallback_intervals += 1;
                last_plan.clone().expect("checked is_some above")
            } else {
                let stats = {
                    let _s = tel.span(telem::PROV_TRACKER);
                    if bootstrap {
                        bootstrap_stats(catalog, cfg)
                    } else {
                        summarize(&mut shards)?
                    }
                };
                let _s = tel.span(telem::PROV_PLAN);
                planner.plan_interval(&stats, &planning_sla)?
            };
            if let Some(p) = &plan.placement {
                current_placement = Some(p.clone());
            }
            let receipt = {
                let _s = tel.span(telem::PROV_SUBMIT);
                cloud.submit_with_retry(
                    &ResourceRequest {
                        vm_targets: plan.vm_targets.clone(),
                        placement: plan.placement.clone(),
                    },
                    &retry,
                )?
            };
            fault_driver.stats.record_receipt(&receipt);
            last_plan_targets = plan.vm_targets.clone();
            channel_reserved.iter_mut().for_each(|v| *v = 0.0);
            for (key, allocs) in &plan.vm_plan.allocations {
                if key.channel >= n_channels {
                    continue;
                }
                let bw: f64 = allocs
                    .iter()
                    .map(|a| a.vms * sla.virtual_clusters[a.cluster].vm_bandwidth_bytes_per_sec)
                    .sum();
                channel_reserved[key.channel] += bw;
            }
            reserved_total = channel_reserved.iter().sum();
            let per_channel_peers: Vec<usize> = shards.iter().map(|s| s.peers.len()).collect();
            metrics.intervals.push(interval_record(
                clock,
                &plan,
                current_placement.as_ref(),
                &sla,
                n_channels,
                per_channel_peers,
            ));
            let mut stored = plan;
            stored.placement = None;
            last_plan = Some(stored);
            next_provision += cfg.provisioning_interval;
        }
        clk.lap(telem::STAGE_PROVISIONING);

        // --- Round fan-out -------------------------------------------
        // Everything the shards read is snapshotted here (the read
        // barrier): the reservations, the online scale, the context.
        let online_scale = if reserved_total > 0.0 {
            (cloud.running_bandwidth() / reserved_total).min(1.0)
        } else {
            0.0
        };
        let ctx = RoundCtx {
            step,
            inv_step: 1.0 / step,
            vm_bandwidth,
            eff: cfg.peer_efficiency,
            p2p: cfg.mode == SimMode::P2p,
            online_scale,
            channel_reserved: &channel_reserved,
        };
        let time_shards = tel.enabled() && round_idx.is_multiple_of(SHARD_WALL_SAMPLE);
        if cfg.parallel_channels && shards.len() > 1 {
            // Several groups per worker so the Zipf-skewed head
            // channels level out across the pool (workers pull groups
            // as they free up).
            let tasks = (rayon::current_num_threads() * 8).max(1);
            let group = group_override
                .unwrap_or_else(|| shards.len().div_ceil(tasks))
                .max(1);
            let ctx_ref = &ctx;
            let faults = &cfg.faults;
            rayon::scope(|s| {
                for chunk in shards.chunks_mut(group) {
                    s.spawn(move |_| {
                        for shard in chunk {
                            shard.step_round_timed(
                                time_shards,
                                t1,
                                ctx_ref,
                                catalog,
                                chunk_bytes,
                                cfg.chunk_seconds,
                                faults,
                            );
                        }
                    });
                }
            });
        } else {
            for shard in shards.iter_mut() {
                shard.step_round_timed(
                    time_shards,
                    t1,
                    &ctx,
                    catalog,
                    chunk_bytes,
                    cfg.chunk_seconds,
                    &cfg.faults,
                );
            }
        }
        round_idx += 1;
        clk.lap(telem::STAGE_SHARD_STEP);

        // --- Channel-order reduction ---------------------------------
        let mut used_cloud_rate = 0.0_f64;
        for shard in &shards {
            used_cloud_rate += shard.round_used;
        }
        clk.lap(telem::STAGE_REDUCE);

        cloud.tick(t1)?;
        window_used += used_cloud_rate * step;
        clk.lap(telem::STAGE_CLOUD);

        // --- Sampling ------------------------------------------------
        if t1 >= next_sample || t1 >= horizon {
            let elapsed = (t1 - window_start).max(1e-9);
            let s = assemble_sample(
                &mut shards,
                t1,
                cloud.running_bandwidth(),
                window_used / elapsed,
                cfg.sample_interval,
            );
            peers_peak = peers_peak.max(s.active_peers as u64);
            metrics.samples.push(s);
            window_used = 0.0;
            window_start = t1;
            next_sample += cfg.sample_interval;
        }
        clk.lap(telem::STAGE_SAMPLING);

        clock = t1;
    }
    drop(run_span);

    metrics.total_vm_cost = cloud.billing().vm_cost().as_dollars();
    metrics.total_storage_cost = cloud.billing().storage_cost().as_dollars();
    // Channel-order reduction of the per-shard counters (integer sums,
    // so any order would agree; fixed order keeps the argument simple).
    for shard in &shards {
        fault_driver.stats.shed_arrivals += shard.shed;
    }
    if let Some(out) = footprint {
        // End-of-run per-peer resident accounting, folded in channel
        // order: the `Peer` records themselves plus each engine's
        // population-scaled state (supply/slot mirrors, download index,
        // wake slab + wheel entries).
        for shard in &shards {
            out.peers += shard.peers.len();
            out.bytes += shard.peers.len() * std::mem::size_of::<Peer>()
                + shard.engine.resident_peer_bytes();
        }
    }
    if tel.enabled() {
        // Per-sub-lane sampled wall times, in channel order (empty
        // unless a shard actually split).
        for shard in &shards {
            for w in shard.engine.lane_walls() {
                tel.observe(telem::HIST_LANE_WALL, w);
            }
        }
        // Shard-imbalance table and aggregates, in channel order. Wall
        // times are sampled (see `SHARD_WALL_SAMPLE`).
        let mut admitted = 0u64;
        let mut n_completed = 0u64;
        let mut n_woken = 0u64;
        let rows: Vec<Vec<u64>> = shards
            .iter()
            .map(|s| {
                admitted += s.admitted;
                n_completed += s.n_completed;
                n_woken += s.n_woken;
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
            &["channel", "wall_ns_sampled", "peers_final", "peak_peers"],
            rows,
        );
        tel.add(telem::ARRIVALS_ADMITTED, admitted);
        tel.add(telem::COMPLETED_CHUNKS, n_completed);
        tel.add(telem::WOKEN_PEERS, n_woken);
        tel.add(telem::ROUNDS, round_idx);
        tel.gauge_max(telem::PEERS_PEAK, peers_peak);
    }
    telem::record_fault_stats(tel, &fault_driver.stats);
    globals.record_delta(tel);
    Ok(FaultRun {
        metrics,
        fault_stats: fault_driver.stats,
    })
}

/// Builds one [`Sample`] by folding the shards in channel order (fixed
/// f64 addition sequence), and resets their startup-window accumulators.
fn assemble_sample(
    shards: &mut [ChannelShard],
    time: f64,
    reserved: f64,
    used: f64,
    window: f64,
) -> Sample {
    let mut per_channel_peers = Vec::with_capacity(shards.len());
    let mut per_channel_quality = Vec::with_capacity(shards.len());
    let mut total = 0usize;
    let mut smooth_total = 0usize;
    let mut startup_sum = 0.0_f64;
    let mut startup_count = 0usize;
    for shard in shards.iter_mut() {
        let n = shard.peers.len();
        let smooth = shard
            .peers
            .iter()
            .filter(|p| p.smooth_in_window(time, window))
            .count();
        per_channel_peers.push(n);
        per_channel_quality.push(if n == 0 {
            1.0
        } else {
            smooth as f64 / n as f64
        });
        total += n;
        smooth_total += smooth;
        startup_sum += shard.startup_sum;
        startup_count += shard.startup_count;
        shard.startup_sum = 0.0;
        shard.startup_count = 0;
    }
    Sample {
        time,
        reserved_bandwidth: reserved,
        used_bandwidth: used,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimKernel;
    use cloudmedia_workload::viewing::ViewingModel;

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

    /// The shard-to-task grouping is what worker-pool size actually
    /// changes; results must not depend on it — including the serial
    /// path (no grouping at all).
    #[test]
    fn grouping_cannot_change_results() {
        let cfg = small(SimMode::P2p, 5, 150.0);
        let baseline = {
            let mut serial = cfg.clone();
            serial.parallel_channels = false;
            run_with_telemetry(&serial, &Telemetry::disabled())
                .unwrap()
                .metrics
        };
        for group in [1, 2, 3, usize::MAX] {
            let m = run_with_groups(&cfg, Some(group), &Telemetry::disabled())
                .unwrap()
                .metrics;
            assert_eq!(m, baseline, "group size {group} diverged from serial");
        }
    }

    #[test]
    fn sharded_run_produces_sane_metrics() {
        let m = run_with_telemetry(
            &small(SimMode::ClientServer, 4, 150.0),
            &Telemetry::disabled(),
        )
        .unwrap()
        .metrics;
        assert_eq!(m.intervals.len(), 4, "one record per hour");
        assert!(!m.samples.is_empty());
        assert!(m.mean_quality() > 0.9, "quality {}", m.mean_quality());
        assert!(m.peak_peers() > 30, "peers showed up: {}", m.peak_peers());
        assert!(m.total_vm_cost > 0.0);
    }

    #[test]
    fn sharded_samples_split_by_channel() {
        let m = run_with_telemetry(
            &small(SimMode::ClientServer, 3, 120.0),
            &Telemetry::disabled(),
        )
        .unwrap()
        .metrics;
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
