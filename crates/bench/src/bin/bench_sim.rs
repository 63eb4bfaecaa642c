//! Simulator performance benchmark: measures the production round
//! engine (`Indexed`) end-to-end in both streaming modes, plus the
//! mask-sparse allocation kernel it runs, and merges the results into
//! the machine-readable `BENCH_sim.json` so the perf trajectory is
//! tracked from PR to PR. Only its own top-level keys are rewritten;
//! the sections other bench binaries own are kept.
//!
//! Usage: `bench_sim [--hours N] [--out PATH]`
//!   - `--hours` simulated horizon per run (default 24; use 168 for the
//!     paper's full week),
//!   - `--out` output path (default `BENCH_sim.json` in the working
//!     directory).

use std::time::Instant;

use cloudmedia_bench::geo_sim::merge_record;
use cloudmedia_bench::harness::parse_hours;
use cloudmedia_bench::SIM_SCHEMA;
use cloudmedia_sim::allocation::allocate_pool_sparse;
use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_telemetry::Telemetry;
use serde::Serialize;

/// Wall time of each round-loop stage of one run, seconds, read from
/// the run's `stage/*` telemetry counters.
#[derive(Debug, Clone, Copy, Serialize)]
struct PhaseProfile {
    /// Hourly provisioning (controller + broker submission).
    provisioning: f64,
    /// Arrival ingestion.
    arrivals: f64,
    /// The engine's per-round allocation stage.
    allocation: f64,
    /// Download advancement and event handling.
    progress: f64,
    /// Cloud lifecycle + billing ticks.
    cloud: f64,
    /// Metric sampling.
    sampling: f64,
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
struct E2eResult {
    mode: String,
    sim_hours: f64,
    wall_seconds: f64,
    sim_hours_per_wall_second: f64,
    rounds: u64,
    ns_per_round: f64,
    mean_quality: f64,
    peak_peers: usize,
    phases: PhaseProfile,
}

/// One microbenchmark measurement.
#[derive(Debug, Serialize)]
struct KernelResult {
    name: String,
    ns_per_call: f64,
}

/// `bench_sim`'s top-level keys of `BENCH_sim.json`.
#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    sim_hours: f64,
    host_threads: usize,
    e2e: Vec<E2eResult>,
    kernels: Vec<KernelResult>,
    notes: Vec<String>,
}

fn main() {
    let mut hours = 24.0_f64;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| parse_hours(&v))
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let mut e2e = Vec::new();
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.trace.horizon_seconds = hours * 3600.0;
        let rounds = (cfg.trace.horizon_seconds / cfg.round_seconds).ceil() as u64;
        // A fresh registry per run: its stage counters are the run's
        // phase breakdown.
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
        e2e.push(E2eResult {
            mode: format!("{mode:?}"),
            sim_hours: hours,
            wall_seconds: secs,
            sim_hours_per_wall_second: hours / secs,
            rounds,
            ns_per_round: secs * 1e9 / rounds as f64,
            mean_quality: metrics.mean_quality(),
            peak_peers: metrics.peak_peers(),
            phases: PhaseProfile::from_registry(&tel),
        });
    }

    let report = Report {
        schema: SIM_SCHEMA.into(),
        sim_hours: hours,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        e2e,
        kernels: vec![KernelResult {
            name: "allocate_pool/sparse_mask".into(),
            ns_per_call: sparse_kernel_ns(),
        }],
        notes: vec![
            "Each e2e row is one paper-default run on the Indexed engine, the \
             production round engine; its phases are the run's stage/* telemetry \
             counters (sampled stage clocks). The kernels row times the \
             mask-sparse cloud allocation the engine runs, on a 64-chunk demand \
             vector with four requested chunks and a scarce pool."
                .into(),
        ],
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    merge_record(&out_path, &json).expect("write benchmark file");
    println!(
        "wrote {out_path}: C/S {:.0}, P2P {:.0} sim-hours/s",
        report.e2e[0].sim_hours_per_wall_second, report.e2e[1].sim_hours_per_wall_second
    );
}

/// Times the mask-sparse allocation kernel on the sparse demand shape
/// the simulator produces; returns nanoseconds per call.
fn sparse_kernel_ns() -> f64 {
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
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn usage() -> ! {
    eprintln!("usage: bench_sim [--hours N] [--out PATH]");
    std::process::exit(2)
}
