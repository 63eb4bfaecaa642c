//! The traced run: per-layer metrics from the telemetry registry the
//! simulator fills (`Simulator::run_with_telemetry`,
//! `FederatedSimulator::run_with_telemetry`) and from timed calls into
//! each layer's public functions, plus one Chrome trace-event file.
//! Nothing is instrumented inside the program: the benchmark's own spans
//! wrap its calls into the layers.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cloudmedia_cloud::broker::{
    scale_fleet_capacity, scale_nfs_capacity, scale_vm_prices, Cloud, ResourceRequest,
};
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_core::controller::{Controller, ControllerConfig};
use cloudmedia_core::predictor::ChannelObservation;
use cloudmedia_sim::config::SimConfig;
use cloudmedia_sim::telem::{self, *};
use cloudmedia_sim::SimError;
use cloudmedia_telemetry::{bucket_bounds, Snapshot, Telemetry};
use cloudmedia_workload::diurnal::DiurnalPattern;
use cloudmedia_workload::trace::ArrivalStream;
use serde::Value;

use crate::workloads::{Checker, Results, Workload};
use crate::{median, obj, Args, Metric, Report, MIN_RUNS};

/// Why provisioning is read from the unsampled `prov/*` spans; written
/// into the trace file.
const PROVISIONING_NOTE: &str = "sim.provisioning_ms reads the unsampled prov/interval span. \
    The sampled stage/provisioning clock times one round in 17 and scales it by 17, so on short \
    horizons, where few provisioning rounds are sampled, it can read ~2.7x high (235 ms against \
    87 ms for prov/interval on a 4 h run of 200k viewers on 400 channels).";

/// Runs the workload traced and untraced, alternately, for the run's
/// seconds, then replays the workload, controller and cloud layers.
pub fn traced(workload: Workload, args: &Args) -> Result<Report, String> {
    let prepared = workload.prepare(args.seed)?;
    let cfg = prepared.config().clone();
    let mut checker = Checker::new(workload);
    let mut log = SpanLog::new();

    let (drained, drain_s) = log.time("workload.arrival_drain", || drain(&cfg));
    let drained = checker.count(drained);

    // An untimed first run, as in the timed mode.
    let mut results = checker.check(prepared.run(&Telemetry::disabled()));
    let mut overheads = Vec::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut sim_trace = None;
    let deadline = args.deadline();
    while snapshots.len() < MIN_RUNS || Instant::now() < deadline {
        let (run, untraced_s) = log.time("sim.run", || prepared.run(&Telemetry::disabled()));
        checker.check(run);
        let tel = telem::new_registry(true);
        let epoch_us = log.now_us();
        let (run, traced_s) = log.time("sim.run_with_telemetry", || prepared.run(&tel));
        overheads.push(traced_s / untraced_s);
        snapshots.push(tel.snapshot());
        sim_trace.get_or_insert_with(|| (epoch_us, tel.trace_json()));
        if let Some(r) = checker.check(run) {
            results.get_or_insert(r);
        }
    }

    let (plan_us, _) = log.time("core.plan_replay", || {
        plan_replay(&cfg, workload.horizon_hours()).map_err(|e| format!("controller replay: {e}"))
    });
    let plan_us = checker.count(plan_us);
    let cloud_us = results.as_ref().and_then(|r| {
        let (us, _) = log.time("cloud.replay", || {
            cloud_replay(&cfg, r).map_err(|e| format!("cloud replay: {e}"))
        });
        checker.count(us)
    });

    // Wall-clock readings vary run to run: report each one's median over
    // the traced runs. Counts repeat exactly.
    let per_run: Vec<Vec<Metric>> = snapshots
        .iter()
        .map(|s| registry_metrics(s, cfg.catalog.len()))
        .collect();
    let mut metrics: Vec<Metric> = per_run[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_run.iter().map(|run| run[i].value).collect();
            Metric::new(m.name, median(&values), m.unit)
        })
        .collect();
    metrics.extend([
        Metric::new(
            "workload.stream_ns_per_arrival",
            drained.map_or(0.0, |n| drain_s * 1e9 / n.max(1) as f64),
            "ns",
        ),
        Metric::new(
            "core.plan_replay_us",
            plan_us.map_or(0.0, |us| median(&us)),
            "us",
        ),
        Metric::new("cloud.replay_us", cloud_us.unwrap_or(0.0), "us"),
        Metric::new(
            "sim.trace_overhead_pct",
            (median(&overheads) - 1.0) * 100.0,
            "%",
        ),
    ]);

    let mut meta = crate::meta(workload, args);
    meta.push(("traced_runs", Value::UInt(snapshots.len() as u64)));
    let path = trace_path(workload, args.seed);
    write_trace(&path, &log, sim_trace, &snapshots[0], &metrics, &meta)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: trace written to {}", path.display());
    meta.push(("trace_file", Value::String(path.display().to_string())));
    Ok(Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        meta,
    })
}

/// The per-layer metrics read from one run's registry.
fn registry_metrics(snap: &Snapshot, channels: usize) -> Vec<Metric> {
    let ms = |id| snap.value(id) as f64 / 1e6;
    let count = |id| snap.value(id) as f64;
    let p = |id, q| quantile_us(snap.buckets(id), q);
    let rounds = count(ROUNDS);
    let chunks = count(COMPLETED_CHUNKS);
    let skipped = count(QUIESCE_ROUNDS_SKIPPED);
    let sm_updates = count(SOLVER_SM_UPDATE);
    let sm_fallbacks = count(SOLVER_SM_FALLBACK);
    let per_peer_ns = (snap.value(STAGE_ALLOCATION) + snap.value(STAGE_ADVANCE)) as f64;
    vec![
        Metric::new("sim.run_ms", ms(RUN_WALL), "ms"),
        Metric::new("sim.allocation_ms", ms(STAGE_ALLOCATION), "ms"),
        Metric::new("sim.advance_ms", ms(STAGE_ADVANCE), "ms"),
        Metric::new("sim.ns_per_chunk", ratio(per_peer_ns, chunks), "ns"),
        Metric::new("sim.events_ms", ms(STAGE_EVENTS), "ms"),
        Metric::new("sim.arrivals_ms", ms(STAGE_ARRIVALS), "ms"),
        Metric::new("sim.shard_step_ms", ms(STAGE_SHARD_STEP), "ms"),
        Metric::new("sim.shard_wall_p50_us", p(HIST_SHARD_WALL, 0.5), "us"),
        Metric::new("sim.shard_wall_p99_us", p(HIST_SHARD_WALL, 0.99), "us"),
        Metric::new("sim.reduce_ms", ms(STAGE_REDUCE), "ms"),
        Metric::new("sim.sampling_ms", ms(STAGE_SAMPLING), "ms"),
        Metric::new("sim.lane_wall_p50_us", p(HIST_LANE_WALL, 0.5), "us"),
        Metric::new("sim.lane_wall_p99_us", p(HIST_LANE_WALL, 0.99), "us"),
        Metric::new("sim.quiesce_rounds_skipped", skipped, "count"),
        Metric::new(
            "sim.quiesce_dirty_epochs",
            count(QUIESCE_DIRTY_CHANNELS),
            "count",
        ),
        Metric::new(
            "sim.quiesce_skip_ratio",
            ratio(skipped, rounds * channels as f64),
            "fraction",
        ),
        Metric::new("sim.region_step_ms", ms(STAGE_REGION_STEP), "ms"),
        Metric::new("sim.region_wall_p99_us", p(HIST_REGION_WALL, 0.99), "us"),
        Metric::new("sim.provisioning_ms", ms(PROV_INTERVAL), "ms"),
        Metric::new("sim.tracker_ms", ms(PROV_TRACKER), "ms"),
        Metric::new("core.plan_ms", ms(PROV_PLAN), "ms"),
        Metric::new("queueing.direct_solves", count(SOLVER_DIRECT), "count"),
        Metric::new(
            "queueing.lu_factorizations",
            count(SOLVER_LU_FACTOR),
            "count",
        ),
        Metric::new("queueing.lu_solves", count(SOLVER_LU_SOLVE), "count"),
        Metric::new("queueing.sm_updates", sm_updates, "count"),
        Metric::new(
            "queueing.sm_fallback_ratio",
            ratio(sm_fallbacks, sm_updates + sm_fallbacks),
            "fraction",
        ),
        Metric::new("cloud.submit_ms", ms(PROV_SUBMIT), "ms"),
        Metric::new("cloud.tick_ms", ms(STAGE_CLOUD), "ms"),
        Metric::new("cloud.submits", count(BROKER_SUBMITS), "count"),
        Metric::new("sim.rounds", rounds, "count"),
        Metric::new("sim.completed_chunks", chunks, "count"),
        Metric::new("sim.woken_peers", count(WOKEN_PEERS), "count"),
        Metric::new("sim.peers_peak", count(PEERS_PEAK), "count"),
        Metric::new("workload.arrivals", count(ARRIVALS_GENERATED), "count"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile of a log2 histogram of nanoseconds, in microseconds,
/// interpolated linearly inside its bucket; 0 for an empty histogram.
fn quantile_us(buckets: &[u64], q: f64) -> f64 {
    let rank = q * buckets.iter().sum::<u64>() as f64;
    let mut below = 0u64;
    for (bucket, &n) in buckets.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= rank {
            let (lo, hi) = bucket_bounds(bucket);
            let share = (rank - below as f64) / n as f64;
            return (lo as f64 + share * (hi - lo) as f64) / 1e3;
        }
        below += n;
    }
    0.0
}

/// Draws the workload's whole arrival stream, as a run consumes it;
/// returns the number of arrivals.
fn drain(cfg: &SimConfig) -> Result<u64, String> {
    let stream =
        ArrivalStream::new(&cfg.catalog, &cfg.trace).map_err(|e| format!("arrival stream: {e}"))?;
    Ok(stream.map(std::hint::black_box).count() as u64)
}

/// A site's cloud as the simulators build it: the paper's clusters at
/// the run's fleet scale, VM prices times `price_factor`.
fn site_cloud(cfg: &SimConfig, price_factor: f64) -> Result<Cloud, SimError> {
    Ok(Cloud::new(
        scale_fleet_capacity(
            &scale_vm_prices(&paper_virtual_clusters(), price_factor),
            cfg.fleet_scale,
        ),
        scale_nfs_capacity(&paper_nfs_clusters(), cfg.fleet_scale),
        cfg.chunk_bytes() as u64,
    )?)
}

/// Calls `Controller::plan_interval` once per provisioning hour on
/// observations built from the catalog: the arrival rate a tracker would
/// measure over the past hour of the diurnal profile, and the viewing
/// model's start split and routing. Returns each call's wall time, µs.
fn plan_replay(cfg: &SimConfig, hours: f64) -> Result<Vec<f64>, SimError> {
    let sla = site_cloud(cfg, 1.0)?.sla_terms();
    let config = ControllerConfig {
        interval_seconds: cfg.provisioning_interval,
        vm_budget_per_hour: cfg.vm_budget_per_hour,
        storage_budget_per_hour: cfg.storage_budget_per_hour,
        streaming_rate: cfg.streaming_rate,
        chunk_seconds: cfg.chunk_seconds,
        vm_bandwidth: sla.virtual_clusters[0].vm_bandwidth_bytes_per_sec,
        safety_factor: cfg.safety_factor,
        target: cfg.provisioning_target,
        ..ControllerConfig::paper_default(cfg.streaming_mode())
    };
    let mut controller = Controller::new(config, cfg.predictor)?;
    let channels = cfg.catalog.channels();
    let routing = channels
        .iter()
        .map(|c| c.viewing.routing_rows())
        .collect::<Result<Vec<_>, _>>()?;
    let mut micros = Vec::new();
    for hour in 0..hours.ceil() as usize {
        let multiplier = past_hour_multiplier(&cfg.trace.diurnal, hour);
        let mut stats = Vec::with_capacity(channels.len());
        for (spec, rows) in channels.iter().zip(&routing) {
            let rate = spec.base_arrival_rate * multiplier;
            let split = spec.viewing.arrival_split(rate)?;
            let alpha = if rate > 0.0 {
                split[0] / rate
            } else {
                spec.viewing.start_at_beginning
            };
            let obs = ChannelObservation {
                arrival_rate: rate,
                alpha,
                routing: rows.clone(),
            };
            stats.push((spec.id, obs));
        }
        let start = Instant::now();
        std::hint::black_box(controller.plan_interval(&stats, &sla)?);
        micros.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(micros)
}

/// The diurnal multiplier a tracker measures over the hour before
/// boundary `hour`; at hour 0, the start-of-run value the simulators'
/// bootstrap plan uses.
fn past_hour_multiplier(diurnal: &DiurnalPattern, hour: usize) -> f64 {
    if hour == 0 {
        return diurnal.multiplier(0.0);
    }
    let start = (hour - 1) as f64 * 3600.0;
    (0..60)
        .map(|minute| diurnal.multiplier(start + (minute as f64 + 0.5) * 60.0))
        .sum::<f64>()
        / 60.0
}

/// Replays each site's hourly VM targets from the run through
/// `Cloud::submit_request` and `Cloud::tick`; returns the wall time per
/// interval, µs.
fn cloud_replay(cfg: &SimConfig, results: &Results) -> Result<f64, SimError> {
    let start = Instant::now();
    let mut intervals = 0usize;
    for (price_factor, metrics) in results.sites() {
        let mut cloud = site_cloud(cfg, price_factor)?;
        for record in &metrics.intervals {
            cloud.tick(record.time)?;
            cloud.submit_request(&ResourceRequest {
                vm_targets: record.vm_targets.clone(),
                placement: None,
            })?;
            intervals += 1;
        }
        cloud.tick(cfg.trace.horizon_seconds)?;
        std::hint::black_box(cloud.billing().vm_cost());
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / intervals.max(1) as f64)
}

/// The benchmark's own spans, kept in memory and written at exit.
struct SpanLog {
    epoch: Instant,
    /// `(name, start µs, duration µs)`.
    spans: Vec<(&'static str, f64, f64)>,
}

impl SpanLog {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; returns its result and wall seconds.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now_us();
        let out = f();
        let duration = self.now_us() - start;
        self.spans.push((name, start, duration));
        (out, duration / 1e6)
    }
}

/// Where the traced run writes its trace: under the cargo target
/// directory the benchmark was built in.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("perfbench")
        .join(format!("trace-{}-seed{seed}.json", workload.name()))
}

/// Writes one Chrome trace-event file: the benchmark's spans, the first
/// traced run's own spans moved onto the benchmark's clock, and beside them
/// that run's registry snapshot, the per-layer metrics and the run's
/// metadata.
fn write_trace(
    path: &Path,
    log: &SpanLog,
    sim_trace: Option<(f64, String)>,
    snapshot: &Snapshot,
    metrics: &[Metric],
    meta: &[(&str, Value)],
) -> Result<(), String> {
    let text = |s: &str| Value::String(s.into());
    let mut events: Vec<Value> = log
        .spans
        .iter()
        .map(|&(name, ts, dur)| {
            obj(vec![
                ("name", text(name)),
                ("cat", text("perfbench")),
                ("ph", text("X")),
                ("ts", Value::Float(ts)),
                ("dur", Value::Float(dur)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(0)),
            ])
        })
        .collect();
    if let Some((epoch_us, json)) = sim_trace {
        let trace: Value = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        if let Some(Value::Array(sim_events)) = trace.get("traceEvents") {
            events.extend(sim_events.iter().cloned().map(|mut event| {
                if let Value::Object(fields) = &mut event {
                    for (key, value) in fields.iter_mut() {
                        if key == "ts" {
                            let ts = match *value {
                                Value::Float(x) => x,
                                Value::UInt(n) => n as f64,
                                _ => continue,
                            };
                            *value = Value::Float(ts + epoch_us);
                        }
                    }
                }
                event
            }));
        }
    }
    let registry: Value =
        serde_json::from_str(&snapshot.metrics_json()).map_err(|e| e.to_string())?;
    let per_layer = Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.json()))
            .collect(),
    );
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", text("ms")),
        (
            "perfbench",
            obj(vec![
                ("meta", obj(meta.to_vec())),
                ("per_layer", per_layer),
                ("notes", Value::Array(vec![text(PROVISIONING_NOTE)])),
                ("registry", registry),
            ]),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let json = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())
}
