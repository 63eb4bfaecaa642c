//! Event-driven CloudMedia engine on the `cloudmedia-des` kernel.
//!
//! The round engines ([`crate::simulator`]) advance the whole world in
//! fixed fluid rounds; everything that happens *between* round
//! boundaries — a VM finishing its boot 25 s into an hour, a request
//! waiting 3 s for a free server, a flash crowd ramping over 90 s — is
//! quantized away. This engine replaces the round scan with components
//! that exchange timestamped events through a deterministic DES kernel:
//!
//! - [`sessions::Sessions`] — every viewer session: arrivals (pulled
//!   lazily from [`cloudmedia_workload::trace::ArrivalStream`]), the
//!   viewing-model walk, prefetch gating, stall accounting, departures.
//! - [`admission::Admission`] — per-chunk request admission and service:
//!   an M/M/m wait at the channel's VM fleet (Erlang C, via
//!   [`cloudmedia_queueing::erlang_c_wait_probability`]) plus a transfer
//!   at the request's frozen capacity share; integrates used cloud
//!   bandwidth exactly between events.
//! - [`provisioner::Provisioner`] — the round engines' control path, run
//!   through the same `crate::control` module (tracker →
//!   controller/baseline planner → broker → billing), driven by hourly
//!   `ProvisionTick` events, and the round engines' fault plane: the
//!   site is site 0 of the configuration's fault schedule, applied at
//!   `FaultBoundary` events.
//!
//! Components never touch each other's state: every interaction is an
//! event (`ChunkRequest`, `Delivered`, `PoolUpdate`, `CapacityUpdate`,
//! `Track*`, …) delivered in deterministic `(time, sequence)` order. The
//! engine itself only routes events, samples metrics at the 5-minute
//! boundaries (an out-of-band observer, like the paper's measurement
//! harness), and injects scenario events.
//!
//! # What the model adds over the round engines
//!
//! - **Per-request admission latency**: each chunk request records the
//!   wait it experienced before service; [`DesReport`] summarizes the
//!   distribution (mean, p50/p90/p99, max).
//! - **VM boot/teardown delay at full fidelity**: capacity follows the
//!   broker's actual VM lifecycle (boot completions re-announce capacity
//!   mid-interval through `CloudSync` events), and a scenario can stretch
//!   the boot latency arbitrarily ([`DesScenario::vm_boot_seconds`]).
//! - **Faults at their own instants**: every kind of the configuration's
//!   [`FaultSchedule`](crate::faults::FaultSchedule) lands at its exact
//!   timestamp, between any two events, not at a round boundary.
//! - **Sub-round flash crowds**: [`FlashCrowdSpec`] injects a burst of
//!   extra viewers whose arrival times are sampled inside an arbitrary
//!   window — timing no round boundary ever sees.
//!
//! # Tolerance vs the round engines
//!
//! The event-driven engine is a *different microscopic model*, so its
//! metrics are not bit-identical to the round engines'. They agree in
//! the mean because all three engines share every macroscopic driver:
//! the same viewing-model Markov chain (hence the same per-channel
//! session-count equilibria), the same diurnal arrival-rate profile
//! (the DES arrival stream is an independent sample of the identical
//! non-homogeneous Poisson process), and — most importantly for cost —
//! the *identical* provisioning control path, which reacts to tracker
//! measurements of those equilibria. The residual differences are
//! (a) trace sampling noise, (b) the frozen-share service model versus
//! per-round max–min fair reallocation, and (c) the peer mesh as a pool
//! of transfer slots instead of a per-round rarest-first allocation.
//! Over the paper-default week C/S used bandwidth and VM cost agree
//! within 0.2 %, and P2P cloud usage reads 10.5 % higher; the
//! regression test (`crates/sim/tests/des_vs_indexed.rs`) pins **mean
//! used cloud bandwidth, mean per-channel provisioned demand, and total
//! VM cost to within 15 % of the Indexed engine**, and `bench_des`
//! records the actual deltas in `BENCH_sim.json` so the gap is tracked
//! PR to PR.

pub mod admission;
mod events;
pub mod provisioner;
pub mod sessions;

use cloudmedia_des::Kernel;
use cloudmedia_telemetry::Telemetry;
use serde::Serialize;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::telem;
use events::{CmEvent, ADMISSION, ENGINE, PROVISIONER, SESSIONS};

/// A flash-crowd burst: `extra_viewers` additional arrivals to `channel`,
/// spread uniformly over `[at, at + window_seconds)` — sub-round timing
/// the fixed-round engines cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FlashCrowdSpec {
    /// Burst start, seconds from run start.
    pub at: f64,
    /// Channel hit by the crowd.
    pub channel: usize,
    /// Number of extra viewers injected.
    pub extra_viewers: usize,
    /// Window over which their arrivals spread, seconds.
    pub window_seconds: f64,
}

/// A federation partner absorbing admission overflow: when a cloud-bound
/// request would have to *queue* locally (every online server busy), the
/// admission component may instead serve it from this remote pool —
/// immediately, but with the inter-region latency added to its delivery.
/// The event-driven analogue of the federated simulator's overflow
/// redirection ([`crate::federation`]), at per-request granularity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RemoteOverflowSpec {
    /// Bandwidth the remote site offers for overflow, bytes per second
    /// (a fleet of `capacity / per-VM bandwidth` transfer slots).
    pub capacity_bps: f64,
    /// Extra delivery latency a redirected chunk pays, seconds.
    pub extra_latency_seconds: f64,
}

/// Scenario knobs layered on top of a [`SimConfig`] for an event-driven
/// run. `Default` is the plain scenario (paper VM latencies, no
/// injections) — what `SimKernel::EventDriven` under [`crate::Simulator`]
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DesScenario {
    /// Override the VM boot latency (paper default: 25 s).
    pub vm_boot_seconds: Option<f64>,
    /// Override the VM shutdown latency (paper default: 10 s).
    pub vm_shutdown_seconds: Option<f64>,
    /// Flash-crowd bursts to inject.
    pub flash_crowds: Vec<FlashCrowdSpec>,
    /// Redirect queue overflow to a remote federation site.
    pub remote_overflow: Option<RemoteOverflowSpec>,
}

/// Summary of a latency distribution, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a set of observations (sorted internally). All-zero
    /// for an empty set.
    fn from_samples(mut samples: Vec<f32>) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let count = samples.len();
        let pick = |q: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            f64::from(samples[idx])
        };
        let mean = samples.iter().map(|&w| f64::from(w)).sum::<f64>() / count as f64;
        Self {
            count,
            mean,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: f64::from(*samples.last().expect("non-empty")),
        }
    }
}

/// Event-driven-specific outputs accompanying the standard [`Metrics`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DesReport {
    /// Per-request admission latency (emergent FIFO wait for a free VM;
    /// 0 for peer-served requests).
    pub admission_latency: LatencySummary,
    /// Chunk deliveries completed.
    pub deliveries: u64,
    /// Requests routed to the cloud queue.
    pub cloud_requests: u64,
    /// Requests served by the peer mesh.
    pub peer_requests: u64,
    /// Mean Erlang-C wait probability predicted at each cloud admission
    /// from the measured `(m, λ/μ)` operating point…
    pub predicted_wait_fraction: f64,
    /// …versus the fraction of cloud requests that measurably waited —
    /// the M/M/m model validated against its event-driven realization.
    pub measured_wait_fraction: f64,
    /// Total events the kernel delivered.
    pub events_delivered: u64,
    /// High-water mark of the kernel's pending-event count — how deep
    /// the future-event set (the timing wheel) got.
    pub peak_pending_events: usize,
    /// Cancellations that hit a still-pending event (a session departing
    /// with a scheduled wake-up, a superseded timer).
    pub cancelled_events: u64,
    /// Timing-wheel slot recycles: how often the wheel's free list
    /// absorbed an allocation.
    pub recycled_slots: u64,
    /// Sessions injected by flash-crowd bursts.
    pub injected_viewers: u64,
    /// Requests the admission hook redirected to the remote overflow
    /// site ([`DesScenario::remote_overflow`]); 0 without one.
    pub redirected_requests: u64,
}

/// Everything an event-driven run produces.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DesRun {
    /// The standard metric series (same schema as the round engines).
    pub metrics: Metrics,
    /// Event-driven-only outputs.
    pub report: DesReport,
    /// Fault-plane counters (the configuration's
    /// [`FaultSchedule`](crate::faults::FaultSchedule)).
    pub fault_stats: crate::faults::FaultStats,
}

/// Runs the event-driven engine over the configured horizon.
///
/// # Errors
///
/// Propagates configuration validation, trace, provisioning, and cloud
/// failures, and rejects a site outage naming any site but site 0.
pub fn run(cfg: &SimConfig, scenario: &DesScenario) -> Result<DesRun, SimError> {
    run_with_telemetry(cfg, scenario, &Telemetry::disabled())
}

/// [`run`] recording kernel health gauges, event throughput, and stage
/// timings into `tel`. Telemetry is a pure side channel — the returned
/// metrics and report are bit-identical to [`run`].
///
/// # Errors
///
/// Propagates configuration validation, trace, provisioning, and cloud
/// failures, and rejects a site outage naming any site but site 0.
pub fn run_with_telemetry(
    cfg: &SimConfig,
    scenario: &DesScenario,
    tel: &Telemetry,
) -> Result<DesRun, SimError> {
    cfg.validate()?;
    cfg.faults.validate_sites(1)?;
    let globals = telem::GlobalCounters::capture();
    let run_span = tel.span(telem::RUN_WALL);
    let horizon = cfg.trace.horizon_seconds;
    let n_channels = cfg.catalog.len();

    // The timing wheel: the kernel's default queue.
    let mut kernel: Kernel<CmEvent> = Kernel::new();
    let mut provisioner = provisioner::Provisioner::new(cfg, scenario)?;
    let mut admission =
        admission::Admission::new(cfg, provisioner.vm_bandwidth(), scenario.remote_overflow);
    let mut sessions = sessions::Sessions::new(cfg)?;

    // Initial schedule. Provisioning precedes everything else at t = 0
    // (sequence order breaks the tie), so the first capacity announcement
    // exists before any request.
    kernel.schedule_at(0.0, PROVISIONER, CmEvent::ProvisionTick);
    sessions.schedule_first_arrival(&mut kernel);
    kernel.schedule_at(
        cfg.sample_interval.min(horizon),
        ENGINE,
        CmEvent::SampleTick,
    );
    // Fault boundaries: each fleet failure and site outage that starts
    // inside the horizon takes capacity away at its start and restores
    // it at its repair or end. Scheduled after the first tick, arrival
    // and sample, a boundary runs after the tick at t = 0 and before any
    // later tick at the same instant.
    let faults = &cfg.faults;
    let fleet = faults
        .vm_failures
        .iter()
        .map(|f| (f.at, f.recovery_seconds));
    let sites = faults
        .site_outages
        .iter()
        .map(|o| (o.at, o.duration_seconds));
    for (at, length) in fleet.chain(sites).filter(|&(at, _)| at < horizon) {
        for (t, restores) in [(at, false), (at + length, true)] {
            kernel.schedule_at(t, PROVISIONER, CmEvent::FaultBoundary { restores });
        }
    }
    for fc in &scenario.flash_crowds {
        if fc.at < horizon && fc.extra_viewers > 0 {
            kernel.schedule_at(
                fc.at,
                SESSIONS,
                CmEvent::FlashCrowd {
                    channel: fc.channel.min(n_channels - 1),
                    extra: fc.extra_viewers,
                    window: fc.window_seconds.max(1e-3),
                },
            );
        }
    }

    let mut metrics = Metrics::default();
    let mut last_sample = 0.0_f64;
    let mut next_sample = cfg.sample_interval;

    // The event loop: route every event at or before the horizon. Per-
    // event timing would dominate the kernel's own dispatch cost, so the
    // loop is timed as one stage and throughput is derived afterwards.
    let loop_t0 = std::time::Instant::now();
    let mut clk = tel.stage_clock();
    use cloudmedia_des::Component as _;
    while let Some(t) = kernel.peek_time() {
        if t > horizon {
            break;
        }
        let ev = kernel.pop().expect("peeked event exists");
        match ev.dest {
            SESSIONS => sessions.handle(ev, &mut kernel),
            ADMISSION => admission.handle(ev, &mut kernel),
            PROVISIONER => provisioner.handle(ev, &mut kernel),
            ENGINE => {
                // Metrics sampling: the engine observes the components
                // out-of-band, as the paper's measurement harness did.
                let now = ev.time;
                metrics.samples.push(sample_now(
                    now,
                    now - last_sample,
                    &mut sessions,
                    &mut admission,
                    &provisioner,
                ));
                last_sample = now;
                next_sample += cfg.sample_interval;
                if now < horizon {
                    kernel.schedule_at(next_sample.min(horizon), ENGINE, CmEvent::SampleTick);
                }
            }
            other => unreachable!("unrouted component id {other:?}"),
        }
    }
    clk.lap(telem::STAGE_EVENTS);
    let loop_ns = u64::try_from(loop_t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    // Epilogue: settle the cloud (billing) to the horizon and flush a
    // final sample if the horizon was not sample-aligned.
    provisioner.finish(horizon)?;
    if last_sample < horizon {
        metrics.samples.push(sample_now(
            horizon,
            horizon - last_sample,
            &mut sessions,
            &mut admission,
            &provisioner,
        ));
    }
    metrics.intervals = provisioner.take_intervals();
    metrics.total_vm_cost = provisioner.vm_cost();
    metrics.total_storage_cost = provisioner.storage_cost();

    let (cloud_requests, peer_requests) = admission.request_split();
    let (predicted_wait_fraction, measured_wait_fraction) = admission.wait_model_check();
    let report = DesReport {
        admission_latency: LatencySummary::from_samples(admission.take_waits()),
        deliveries: admission.deliveries(),
        cloud_requests,
        peer_requests,
        predicted_wait_fraction,
        measured_wait_fraction,
        events_delivered: kernel.delivered_count(),
        peak_pending_events: kernel.peak_pending(),
        cancelled_events: kernel.cancelled_count(),
        recycled_slots: kernel.recycled_count(),
        injected_viewers: sessions.injected_viewers(),
        redirected_requests: admission.redirected_requests(),
    };
    let mut fault_stats = provisioner.take_fault_stats();
    fault_stats.shed_arrivals = sessions.shed_arrivals();
    clk.lap(telem::STAGE_SAMPLING);
    drop(run_span);

    if tel.enabled() {
        tel.add(telem::DES_EVENTS, report.events_delivered);
        tel.gauge_max(telem::DES_PEAK_PENDING, report.peak_pending_events as u64);
        tel.add(telem::DES_CANCELLED, report.cancelled_events);
        tel.add(telem::DES_RECYCLED, report.recycled_slots);
        tel.gauge_set(
            telem::DES_EVENTS_PER_SEC,
            ((report.events_delivered as u128 * 1_000_000_000) / u128::from(loop_ns.max(1)))
                .min(u128::from(u64::MAX)) as u64,
        );
    }
    telem::record_fault_stats(tel, &fault_stats);
    globals.record_delta(tel);
    Ok(DesRun {
        metrics,
        report,
        fault_stats,
    })
}

/// Assembles one [`crate::metrics::Sample`] at `now` over the elapsed
/// window.
fn sample_now(
    now: f64,
    window: f64,
    sessions: &mut sessions::Sessions,
    admission: &mut admission::Admission,
    provisioner: &provisioner::Provisioner,
) -> crate::metrics::Sample {
    let quality = sessions.quality_snapshot(now);
    let used = admission.window_used(now) / window.max(1e-9);
    crate::metrics::Sample {
        time: now,
        reserved_bandwidth: provisioner.running_bandwidth(),
        used_bandwidth: used,
        quality: quality.quality,
        active_peers: quality.active,
        per_channel_peers: quality.per_channel_peers,
        per_channel_quality: quality.per_channel_quality,
        mean_startup_delay: quality.mean_startup_delay,
    }
}
