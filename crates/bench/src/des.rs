//! The event-driven engine in `BENCH_sim.json`: the `des_comparison`
//! section runs the paper-default configuration under the Indexed round
//! engine and the EventDriven engine in both streaming modes and records
//! wall time and the steady-state agreement (mean used cloud bandwidth,
//! total VM cost), every row naming the kernel that produced it. The
//! `engine_throughput` section records raw DES scheduler throughput
//! (schedule/cancel/pop ns per op, binary heap vs timing wheel, on the
//! hold and timer-churn operation mixes) — the record of the timing
//! wheel's edge over the heap — and the event rate of those same
//! event-driven runs, which always use the wheel.

use std::time::Instant;

use cloudmedia_des::{ComponentId, Kernel, SchedulerKind};
use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::event_driven::{run as des_run, DesScenario, LatencySummary};
use cloudmedia_sim::simulator::Simulator;
use serde::Serialize;

/// Schema tag of the `des_comparison` section.
pub const SCHEMA: &str = "cloudmedia-bench-des/v1";

/// Schema tag of the `engine_throughput` section.
pub const THROUGHPUT_SCHEMA: &str = "cloudmedia-bench-des-throughput/v1";

/// One mode's Indexed-vs-DES measurement. `*_ratio` fields are
/// DES / Indexed.
#[derive(Debug, Serialize)]
pub struct ModeComparison {
    /// Streaming mode.
    pub mode: String,
    /// The round engine compared against (`Indexed`).
    pub indexed_kernel: String,
    /// The event-driven engine (`EventDriven`).
    pub des_kernel: String,
    /// Simulated horizon, hours.
    pub sim_hours: f64,
    /// Wall time of the Indexed run, seconds.
    pub indexed_wall_seconds: f64,
    /// Wall time of the event-driven run, seconds.
    pub des_wall_seconds: f64,
    /// Events the event-driven run delivered.
    pub des_events_delivered: u64,
    /// Indexed mean used cloud bandwidth, bytes/s.
    pub indexed_mean_used_bandwidth: f64,
    /// Event-driven mean used cloud bandwidth, bytes/s.
    pub des_mean_used_bandwidth: f64,
    /// DES / Indexed mean used cloud bandwidth.
    pub used_bandwidth_ratio: f64,
    /// Indexed total VM cost, dollars.
    pub indexed_vm_cost: f64,
    /// Event-driven total VM cost, dollars.
    pub des_vm_cost: f64,
    /// DES / Indexed total VM cost.
    pub vm_cost_ratio: f64,
    /// Indexed mean streaming quality.
    pub indexed_mean_quality: f64,
    /// Event-driven mean streaming quality.
    pub des_mean_quality: f64,
    /// Per-request admission waits of the event-driven run.
    pub des_admission_latency: LatencySummary,
    /// Requests routed to the cloud queue.
    pub des_cloud_requests: u64,
    /// Requests served by the peer mesh.
    pub des_peer_requests: u64,
    /// Mean Erlang-C wait probability predicted at each cloud admission.
    pub erlang_c_predicted_wait_fraction: f64,
    /// Fraction of cloud requests that measurably waited.
    pub measured_wait_fraction: f64,
}

/// The `des_comparison` section.
#[derive(Debug, Serialize)]
pub struct DesComparison {
    /// Schema tag.
    pub schema: String,
    /// Reading notes.
    pub notes: Vec<String>,
    /// The used-bandwidth tolerance `crates/sim/tests/des_vs_indexed.rs`
    /// pins.
    pub used_bandwidth_tolerance: f64,
    /// The VM-cost tolerance the same test pins.
    pub vm_cost_tolerance: f64,
    /// One comparison per streaming mode.
    pub modes: Vec<ModeComparison>,
}

/// One raw scheduler measurement.
#[derive(Debug, Serialize)]
pub struct KernelOp {
    /// Operation mix.
    pub pattern: String,
    /// Scheduler measured.
    pub scheduler: String,
    /// Nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
}

/// One full engine run (its queue named).
#[derive(Debug, Serialize)]
pub struct EngineRun {
    /// Streaming mode.
    pub mode: String,
    /// The engine's event queue.
    pub scheduler: String,
    /// Simulated horizon, hours.
    pub sim_hours: f64,
    /// Wall time, seconds.
    pub wall_seconds: f64,
    /// Events delivered.
    pub events_delivered: u64,
    /// Events delivered per wall second.
    pub events_per_sec: f64,
    /// Wall nanoseconds per delivered event.
    pub ns_per_event: f64,
}

/// The `engine_throughput` section.
#[derive(Debug, Serialize)]
pub struct EngineThroughput {
    /// Schema tag.
    pub schema: String,
    /// Reading notes.
    pub notes: Vec<String>,
    /// Raw scheduler operations, both schedulers on both mixes.
    pub kernel_ops: Vec<KernelOp>,
    /// Heap / wheel ns per op on the hold mix.
    pub wheel_speedup_hold: f64,
    /// Heap / wheel ns per op on the timer-churn mix.
    pub wheel_speedup_cancel: f64,
    /// The event-driven paper runs of `des_comparison`, as event rates.
    pub engine_runs: Vec<EngineRun>,
}

/// Runs the paper-default configuration over `hours` hours on both
/// engines in both modes, each run once, and times the raw schedulers.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(hours: f64) -> (DesComparison, EngineThroughput) {
    let mut modes = Vec::new();
    let mut engine_runs = Vec::new();
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
        let events = des.report.events_delivered;
        eprintln!(
            "{mode:?}/EventDriven {hours}h: {des_wall:.3}s wall ({events} events, {:.2}M events/s)",
            events as f64 / des_wall / 1e6
        );
        engine_runs.push(EngineRun {
            mode: format!("{mode:?}"),
            scheduler: "Wheel".into(),
            sim_hours: hours,
            wall_seconds: des_wall,
            events_delivered: events,
            events_per_sec: events as f64 / des_wall,
            ns_per_event: des_wall * 1e9 / events as f64,
        });

        let m = &des.metrics;
        modes.push(ModeComparison {
            mode: format!("{mode:?}"),
            indexed_kernel: format!("{:?}", SimKernel::Indexed),
            des_kernel: format!("{:?}", SimKernel::EventDriven),
            sim_hours: hours,
            indexed_wall_seconds: indexed_wall,
            des_wall_seconds: des_wall,
            des_events_delivered: events,
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
        });
    }

    let comparison = DesComparison {
        schema: SCHEMA.into(),
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
    let kernel_ops = kernel_ops();
    let throughput = EngineThroughput {
        schema: THROUGHPUT_SCHEMA.into(),
        notes: vec![
            "kernel_ops are raw scheduler operations (no component handlers): the \
             hold model (pop + schedule at a steady pending-set size) and the \
             cancellable-timer churn mix. engine_runs are the full event-driven \
             CloudMedia runs of des_comparison, on the timing wheel, the only \
             queue the engine uses."
                .into(),
        ],
        wheel_speedup_hold: speedup(&kernel_ops, "hold_262144"),
        wheel_speedup_cancel: speedup(&kernel_ops, "schedule_cancel_16384"),
        kernel_ops,
        engine_runs,
    };
    (comparison, throughput)
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
