//! DES-vs-Indexed benchmark: runs the paper-default configuration under
//! the Indexed round engine and the EventDriven engine in both streaming
//! modes, measures wall time and the steady-state agreement (mean used
//! cloud bandwidth, total VM cost), and appends the comparison as a
//! `des_comparison` section to `BENCH_sim.json` so the model gap and the
//! DES engine's speed are tracked from PR to PR. Every row names the
//! kernel that produced it.
//!
//! Also emits an `engine_throughput` section: raw DES scheduler
//! throughput (schedule/cancel/pop ns per op, binary heap vs timing
//! wheel, on the hold and timer-churn operation mixes) — the record of
//! the timing wheel's edge over the heap — plus full event-driven engine
//! runs, which always use the wheel (events/sec, ns/event).
//!
//! Usage: `bench_des [--hours N] [--out PATH]`
//!   - `--hours` simulated horizon per run (default 24; use 168 for the
//!     paper's full week — the tolerance the regression suite documents
//!     is validated against that horizon),
//!   - `--out` the benchmark file to append to (default `BENCH_sim.json`
//!     in the working directory; created if missing).

use std::time::Instant;

use cloudmedia_bench::geo_sim::append_section;
use cloudmedia_bench::harness::parse_hours;
use cloudmedia_bench::{DES_SCHEMA, DES_THROUGHPUT_SCHEMA};
use cloudmedia_des::{ComponentId, Kernel, SchedulerKind};
use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::event_driven::{run as des_run, DesScenario, LatencySummary};
use cloudmedia_sim::simulator::Simulator;
use serde::Serialize;

/// One mode's Indexed-vs-DES measurement. `*_ratio` fields are
/// DES / Indexed.
#[derive(Debug, Serialize)]
struct ModeComparison {
    mode: String,
    indexed_kernel: String,
    des_kernel: String,
    sim_hours: f64,
    indexed_wall_seconds: f64,
    des_wall_seconds: f64,
    des_events_delivered: u64,
    indexed_mean_used_bandwidth: f64,
    des_mean_used_bandwidth: f64,
    used_bandwidth_ratio: f64,
    indexed_vm_cost: f64,
    des_vm_cost: f64,
    vm_cost_ratio: f64,
    indexed_mean_quality: f64,
    des_mean_quality: f64,
    des_admission_latency: LatencySummary,
    des_cloud_requests: u64,
    des_peer_requests: u64,
    erlang_c_predicted_wait_fraction: f64,
    measured_wait_fraction: f64,
}

/// The `des_comparison` section appended to `BENCH_sim.json`.
#[derive(Debug, Serialize)]
struct DesComparison {
    schema: String,
    notes: Vec<String>,
    used_bandwidth_tolerance: f64,
    vm_cost_tolerance: f64,
    modes: Vec<ModeComparison>,
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

    let mut modes = Vec::new();
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.trace.horizon_seconds = hours * 3600.0;

        cfg.kernel = SimKernel::Indexed;
        let start = Instant::now();
        let indexed = Simulator::new(cfg.clone())
            .expect("paper config is valid")
            .run()
            .expect("indexed run succeeds");
        let indexed_wall = start.elapsed().as_secs_f64();
        eprintln!("{mode:?}/Indexed {hours}h: {indexed_wall:.3}s wall");

        let start = Instant::now();
        let des = des_run(&cfg, &DesScenario::default()).expect("event-driven run succeeds");
        let des_wall = start.elapsed().as_secs_f64();
        eprintln!(
            "{mode:?}/EventDriven {hours}h: {des_wall:.3}s wall ({} events)",
            des.report.events_delivered
        );

        let m = &des.metrics;
        let row = ModeComparison {
            mode: format!("{mode:?}"),
            indexed_kernel: format!("{:?}", SimKernel::Indexed),
            des_kernel: format!("{:?}", SimKernel::EventDriven),
            sim_hours: hours,
            indexed_wall_seconds: indexed_wall,
            des_wall_seconds: des_wall,
            des_events_delivered: des.report.events_delivered,
            indexed_mean_used_bandwidth: indexed.mean_used_bandwidth(),
            des_mean_used_bandwidth: m.mean_used_bandwidth(),
            used_bandwidth_ratio: m.mean_used_bandwidth() / indexed.mean_used_bandwidth(),
            indexed_vm_cost: indexed.total_vm_cost,
            des_vm_cost: m.total_vm_cost,
            vm_cost_ratio: m.total_vm_cost / indexed.total_vm_cost,
            indexed_mean_quality: indexed.mean_quality(),
            des_mean_quality: m.mean_quality(),
            des_admission_latency: des.report.admission_latency,
            des_cloud_requests: des.report.cloud_requests,
            des_peer_requests: des.report.peer_requests,
            erlang_c_predicted_wait_fraction: des.report.predicted_wait_fraction,
            measured_wait_fraction: des.report.measured_wait_fraction,
        };
        println!(
            "{mode:?}: kernel=EventDriven vs kernel=Indexed — used-bw ratio {:.3}, \
             cost ratio {:.3}, p99 admission wait {:.1}s",
            row.used_bandwidth_ratio, row.vm_cost_ratio, row.des_admission_latency.p99
        );
        modes.push(row);
    }

    // --- engine_throughput: scheduler micro-ops + engine runs ---------
    let kernel_ops = kernel_ops();
    let hold_speedup = speedup(&kernel_ops, "hold_262144");
    let cancel_speedup = speedup(&kernel_ops, "schedule_cancel_16384");
    let mut engine_runs = Vec::new();
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.trace.horizon_seconds = hours * 3600.0;
        let start = Instant::now();
        let run = des_run(&cfg, &DesScenario::default()).expect("engine run succeeds");
        let wall = start.elapsed().as_secs_f64();
        let events = run.report.events_delivered;
        eprintln!(
            "{mode:?} engine: {wall:.3}s for {events} events ({:.2}M events/s)",
            events as f64 / wall / 1e6
        );
        engine_runs.push(EngineRun {
            mode: format!("{mode:?}"),
            scheduler: "Wheel".into(),
            sim_hours: hours,
            wall_seconds: wall,
            events_delivered: events,
            events_per_sec: events as f64 / wall,
            ns_per_event: wall * 1e9 / events as f64,
        });
    }
    let throughput = EngineThroughput {
        schema: DES_THROUGHPUT_SCHEMA.into(),
        notes: vec![
            "kernel_ops are raw scheduler operations (no component handlers): the \
             hold model (pop + schedule at a steady pending-set size) and the \
             cancellable-timer churn mix. engine_runs are full event-driven \
             CloudMedia runs on the timing wheel, the only queue the engine \
             uses."
                .into(),
        ],
        kernel_ops,
        wheel_speedup_hold: hold_speedup,
        wheel_speedup_cancel: cancel_speedup,
        engine_runs,
    };

    let comparison = DesComparison {
        schema: DES_SCHEMA.into(),
        notes: vec![
            "EventDriven is a different microscopic model (per-request FIFO \
             M/M/m service on the cloudmedia-des kernel); agreement with the \
             Indexed round engine is in steady-state means, not bit-for-bit. \
             See crates/sim/src/event_driven for the tolerance argument."
                .into(),
        ],
        used_bandwidth_tolerance: 0.15,
        vm_cost_tolerance: 0.10,
        modes,
    };
    let section = serde_json::to_string_pretty(&comparison).expect("comparison serializes");
    append_section(&out_path, "des_comparison", &section).expect("write benchmark file");
    let section = serde_json::to_string_pretty(&throughput).expect("throughput serializes");
    append_section(&out_path, "engine_throughput", &section).expect("write benchmark file");
    println!(
        "appended des_comparison + engine_throughput to {out_path} \
         (wheel vs heap: {hold_speedup:.2}x hold, {cancel_speedup:.2}x cancel)"
    );
}

/// One raw scheduler measurement.
#[derive(Debug, Serialize)]
struct KernelOp {
    pattern: String,
    scheduler: String,
    ns_per_op: f64,
    ops_per_sec: f64,
}

/// One full engine run (its queue named).
#[derive(Debug, Serialize)]
struct EngineRun {
    mode: String,
    scheduler: String,
    sim_hours: f64,
    wall_seconds: f64,
    events_delivered: u64,
    events_per_sec: f64,
    ns_per_event: f64,
}

/// The `engine_throughput` section.
#[derive(Debug, Serialize)]
struct EngineThroughput {
    schema: String,
    notes: Vec<String>,
    kernel_ops: Vec<KernelOp>,
    wheel_speedup_hold: f64,
    wheel_speedup_cancel: f64,
    engine_runs: Vec<EngineRun>,
}

/// Heap-vs-wheel ratio for one pattern (heap ns / wheel ns).
fn speedup(ops: &[KernelOp], pattern: &str) -> f64 {
    let ns = |s: &str| {
        ops.iter()
            .find(|o| o.pattern == pattern && o.scheduler == s)
            .map(|o| o.ns_per_op)
            .unwrap_or(f64::NAN)
    };
    ns("BinaryHeap") / ns("TimingWheel")
}

/// Deterministic delay sequence shared by the operation mixes.
fn op_delays(n: usize) -> Vec<f64> {
    let mut state = 0x1234_5678_9ABC_DEF0_u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f64 * (128.0 / (1u64 << 24) as f64) + 0.125
        })
        .collect()
}

/// Measures the raw schedulers on the hold and timer-churn mixes
/// (mirrors `benches/des_kernel.rs`, embedded here so the JSON record
/// regenerates alongside the engine numbers).
fn kernel_ops() -> Vec<KernelOp> {
    const DEST: ComponentId = ComponentId(0);
    let delays = op_delays(4096);
    let mut out = Vec::new();
    for (name, kind) in [
        ("BinaryHeap", SchedulerKind::BinaryHeap),
        ("TimingWheel", SchedulerKind::TimingWheel),
    ] {
        // Hold model at 2^18 (262144) pending events.
        let pending = 1usize << 18;
        let mut kernel: Kernel<u64> = Kernel::with_scheduler(kind);
        for (i, d) in delays.iter().cycle().take(pending).enumerate() {
            kernel.schedule_in(*d, DEST, i as u64);
        }
        let iters = 2_000_000u64;
        let start = Instant::now();
        for i in 0..iters {
            let ev = kernel.pop().expect("hold model never drains");
            kernel.schedule_in(delays[(i as usize) % delays.len()], DEST, ev.payload);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        out.push(KernelOp {
            pattern: "hold_262144".into(),
            scheduler: name.into(),
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
        });

        // Timer churn at 2^14 base load.
        let pending = 1usize << 14;
        let mut kernel: Kernel<u64> = Kernel::with_scheduler(kind);
        for (i, d) in delays.iter().cycle().take(pending).enumerate() {
            kernel.schedule_in(*d, DEST, i as u64);
        }
        let iters = 1_000_000u64;
        let start = Instant::now();
        for i in 0..iters {
            let d = delays[(i as usize) % delays.len()];
            let id = kernel.schedule_in(1e4 + d, DEST, 7);
            assert!(kernel.cancel(id));
            let ev = kernel.pop().expect("base load never drains");
            kernel.schedule_in(d, DEST, ev.payload);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        out.push(KernelOp {
            pattern: "schedule_cancel_16384".into(),
            scheduler: name.into(),
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
        });
    }
    out
}

fn usage() -> ! {
    eprintln!("usage: bench_des [--hours N] [--out PATH]");
    std::process::exit(2)
}
