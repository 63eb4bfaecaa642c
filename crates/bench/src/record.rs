//! The perf record `BENCH_sim.json`, which `bench_sim` writes whole: the
//! record's own fields (`e2e`, the production round engine end to end in
//! both streaming modes, and `kernels`, the mask-sparse allocation
//! kernel it runs) and one section from each of [`crate::des`],
//! [`crate::geo_sim`], [`crate::scale`], [`crate::resilience`] and
//! [`crate::profile`].

use std::time::Instant;

use cloudmedia_sim::allocation::allocate_pool_sparse;
use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_telemetry::Telemetry;
use serde::Serialize;

use crate::des::{DesComparison, EngineThroughput};
use crate::geo_sim::GeoFederationSection;
use crate::profile::StageProfileSection;
use crate::resilience::ResilienceSection;
use crate::scale::ScaleSweepSection;

/// Schema tag of the record's own fields (`schema`, `e2e`, `kernels`).
pub const SCHEMA: &str = "cloudmedia-bench-sim/v2";

/// The top-level keys of `BENCH_sim.json`, in the order [`Record::write`]
/// writes them.
pub const KEYS: [&str; 12] = [
    "schema",
    "sim_hours",
    "host_threads",
    "e2e",
    "kernels",
    "notes",
    "des_comparison",
    "engine_throughput",
    "geo_federation",
    "scale_sweep",
    "resilience",
    "stage_profile",
];

/// Wall time of each round-loop stage of one run, seconds, read from
/// the run's `stage/*` telemetry counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PhaseProfile {
    /// Hourly provisioning (controller + broker submission).
    pub provisioning: f64,
    /// Arrival ingestion.
    pub arrivals: f64,
    /// The engine's per-round allocation stage.
    pub allocation: f64,
    /// Download advancement and event handling.
    pub progress: f64,
    /// Cloud lifecycle + billing ticks.
    pub cloud: f64,
    /// Metric sampling.
    pub sampling: f64,
}

impl PhaseProfile {
    fn from_registry(tel: &Telemetry) -> Self {
        let snap = tel.snapshot();
        let secs = |id| snap.value(id) as f64 * 1e-9;
        Self {
            provisioning: secs(telem::STAGE_PROVISIONING),
            arrivals: secs(telem::STAGE_ARRIVALS),
            allocation: secs(telem::STAGE_ALLOCATION),
            progress: secs(telem::STAGE_ADVANCE) + secs(telem::STAGE_EVENTS),
            cloud: secs(telem::STAGE_CLOUD),
            sampling: secs(telem::STAGE_SAMPLING),
        }
    }
}

/// One end-to-end measurement.
#[derive(Debug, Serialize)]
pub struct E2eResult {
    /// Streaming mode.
    pub mode: String,
    /// Simulated horizon, hours.
    pub sim_hours: f64,
    /// Wall time, seconds.
    pub wall_seconds: f64,
    /// Simulated hours per wall second.
    pub sim_hours_per_wall_second: f64,
    /// Rounds the horizon spans.
    pub rounds: u64,
    /// Wall nanoseconds per round.
    pub ns_per_round: f64,
    /// Mean streaming quality.
    pub mean_quality: f64,
    /// Peak concurrent viewers.
    pub peak_peers: usize,
    /// The run's stage breakdown.
    pub phases: PhaseProfile,
}

/// One microbenchmark measurement.
#[derive(Debug, Serialize)]
pub struct KernelResult {
    /// Kernel and input shape.
    pub name: String,
    /// Nanoseconds per call.
    pub ns_per_call: f64,
}

/// The whole of `BENCH_sim.json`; its fields are [`KEYS`], in order.
#[derive(Debug, Serialize)]
pub struct Record {
    /// [`SCHEMA`].
    pub schema: String,
    /// Horizon of the `e2e` runs, hours.
    pub sim_hours: f64,
    /// Hardware threads on the host.
    pub host_threads: usize,
    /// The paper-default runs on the Indexed engine, C/S then P2P.
    pub e2e: Vec<E2eResult>,
    /// The allocation kernel the engine runs.
    pub kernels: Vec<KernelResult>,
    /// Reading notes for `e2e` and `kernels` ([`NOTE`]).
    pub notes: Vec<String>,
    /// See [`crate::des`].
    pub des_comparison: DesComparison,
    /// See [`crate::des`].
    pub engine_throughput: EngineThroughput,
    /// See [`crate::geo_sim`].
    pub geo_federation: GeoFederationSection,
    /// See [`crate::scale`].
    pub scale_sweep: ScaleSweepSection,
    /// See [`crate::resilience`].
    pub resilience: ResilienceSection,
    /// See [`crate::profile`].
    pub stage_profile: StageProfileSection,
}

/// The record's note on `e2e` and `kernels`.
pub const NOTE: &str = "Each e2e row is one paper-default run on the Indexed engine, the \
     production round engine; its phases are the run's stage/* telemetry \
     counters (sampled stage clocks). The kernels row times the \
     mask-sparse cloud allocation the engine runs, on a 64-chunk demand \
     vector with four requested chunks and a scarce pool.";

impl Record {
    /// Writes the record to `path` as pretty-printed JSON, replacing
    /// whatever the file held.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the record's fields and [`KEYS`] disagree.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let value = self.to_value();
        let serde::Value::Object(fields) = &value else {
            unreachable!("a struct serializes to an object")
        };
        assert!(
            fields.iter().map(|(key, _)| key.as_str()).eq(KEYS),
            "Record's fields and KEYS disagree"
        );
        let json = serde_json::to_string_pretty(&value).expect("the record serializes");
        std::fs::write(path, json + "\n")
    }
}

/// Runs the paper-default configuration over `hours` hours on the
/// Indexed engine in both modes, each with a fresh telemetry registry
/// whose stage counters are the run's phase breakdown.
///
/// # Panics
///
/// Panics if a run fails.
pub fn e2e(hours: f64) -> Vec<E2eResult> {
    [SimMode::ClientServer, SimMode::P2p]
        .into_iter()
        .map(|mode| {
            let mut cfg = SimConfig::paper_default(mode);
            cfg.trace.horizon_seconds = hours * 3600.0;
            let rounds = (cfg.trace.horizon_seconds / cfg.round_seconds).ceil() as u64;
            let tel = telem::new_registry(false);
            let start = Instant::now();
            let metrics = Simulator::new(cfg)
                .expect("paper config is valid")
                .run_with_telemetry(&tel)
                .expect("benchmark run succeeds")
                .metrics;
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "{mode:?} {hours}h: {secs:.3}s wall ({:.0} sim-hours/s)",
                hours / secs
            );
            E2eResult {
                mode: format!("{mode:?}"),
                sim_hours: hours,
                wall_seconds: secs,
                sim_hours_per_wall_second: hours / secs,
                rounds,
                ns_per_round: secs * 1e9 / rounds as f64,
                mean_quality: metrics.mean_quality(),
                peak_peers: metrics.peak_peers(),
                phases: PhaseProfile::from_registry(&tel),
            }
        })
        .collect()
}

/// Times the mask-sparse allocation kernel on the sparse demand shape
/// the simulator produces.
pub fn kernels() -> Vec<KernelResult> {
    let mut demands = vec![0.0_f64; 64];
    let mut mask = 0u64;
    for &(k, d) in &[(0usize, 2.5e6), (7, 1.25e6), (13, 4.0e5), (40, 9.0e5)] {
        demands[k] = d;
        mask |= 1 << k;
    }
    let pool = 2.0e6;
    let iters = 2_000_000u64;
    let mut out = vec![0.0; 64];
    let mut order = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        allocate_pool_sparse(
            std::hint::black_box(&demands),
            pool,
            &mut out,
            &mut order,
            mask,
        );
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            out[k] = 0.0;
        }
    }
    vec![KernelResult {
        name: "allocate_pool/sparse_mask".into(),
        ns_per_call: start.elapsed().as_secs_f64() * 1e9 / iters as f64,
    }]
}
