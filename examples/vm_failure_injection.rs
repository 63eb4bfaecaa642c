//! VM failure injection on the event-driven engine.
//!
//! Runs a half-day CloudMedia deployment twice — once undisturbed, once
//! with 60 % of the running VM fleet failing at hour 6 and no repair
//! before the run ends — and shows what only the event-driven engine
//! can: the capacity dent at the failure's own timestamp, the
//! admission-latency spike while requests queue on the survivors, and
//! the hourly controller re-provisioning the fleet on its next tick.
//!
//! Run with: `cargo run --example vm_failure_injection`

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::event_driven::{run, DesScenario};
use cloudmedia_sim::faults::FaultSchedule;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;

fn main() {
    // A small deployment so the example finishes in seconds: 3 channels,
    // ~120 concurrent viewers, 12 hours.
    let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
    cfg.catalog = Catalog::zipf(3, 0.8, ViewingModel::paper_default(), 60.0, 300.0)
        .expect("catalog parameters are valid");
    cfg.trace.horizon_seconds = 12.0 * 3600.0;

    let baseline = run(&cfg, &DesScenario::default()).expect("baseline run succeeds");

    // Mid-interval, not round-aligned; a permanent loss is a repair
    // scheduled past the horizon.
    let failure_at = 6.0 * 3600.0 + 137.0;
    let mut failing = cfg.clone();
    failing.faults = FaultSchedule::vm_outage(failure_at, 0.6, cfg.trace.horizon_seconds);
    let failed = run(&failing, &DesScenario::default()).expect("failure run succeeds");

    println!(
        "failure burst at t = {failure_at:.0} s killed {} running VM instances\n",
        failed.fault_stats.vms_killed
    );
    println!("hour | baseline running (Mbps) | with failures (Mbps)");
    for (a, b) in baseline
        .metrics
        .samples
        .iter()
        .zip(&failed.metrics.samples)
        .filter(|(a, _)| (5.0 * 3600.0..9.0 * 3600.0).contains(&a.time))
        .step_by(2)
    {
        println!(
            "{:4.1} | {:>23.1} | {:>20.1}",
            a.time / 3600.0,
            a.reserved_bandwidth * 8.0 / 1e6,
            b.reserved_bandwidth * 8.0 / 1e6,
        );
    }
    let (b, f) = (&baseline.report, &failed.report);
    println!(
        "\nadmission latency p99: {:.1}s baseline vs {:.1}s with failures",
        b.admission_latency.p99, f.admission_latency.p99
    );
    println!(
        "mean quality: {:.4} baseline vs {:.4} with failures",
        baseline.metrics.mean_quality(),
        failed.metrics.mean_quality()
    );
    println!(
        "VM cost: ${:.2} baseline vs ${:.2} with failures (survivor fleet bills \
         until power-off; the controller re-launches on its next hourly tick)",
        baseline.metrics.total_vm_cost, failed.metrics.total_vm_cost
    );
}
