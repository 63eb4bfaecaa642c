//! Chaos benchmark rows: fault-injection scenarios run against
//! fault-free baselines on multiple engines, producing the `resilience`
//! section of `BENCH_sim.json` (binary: `bench_chaos`).
//!
//! Every row re-runs the faulted configuration serially *and* in
//! parallel and records whether the two were bit-identical — the fault
//! plane is seeded config data, so they must be. A `false` in the
//! checked-in benchmark file is a regression, not noise.

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::faults::{ChaosPreset, ResilienceReport};
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::SimError;
use serde::Serialize;

/// One scenario × engine measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceRow {
    /// Scenario name (`vm-outage`, `budget-cut`, `tracker-dropout`,
    /// `site-outage`).
    pub scenario: String,
    /// Engine the scenario ran on (`indexed`, `federated`, ...).
    pub engine: String,
    /// Whether the serial and parallel executions of the faulted run
    /// produced bit-identical metrics and fault counters.
    pub serial_parallel_identical: bool,
    /// The resilience report of the (parallel) faulted run.
    pub report: ResilienceReport,
}

/// Schema tag of the `resilience` section.
pub const SCHEMA: &str = "cloudmedia-bench-resilience/v1";

/// The `resilience` benchmark section.
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceSection {
    /// Schema tag for downstream readers.
    pub schema: String,
    /// Horizon every row ran over, hours.
    pub horizon_hours: f64,
    /// Free-text provenance notes.
    pub notes: Vec<String>,
    /// The measurements.
    pub rows: Vec<ResilienceRow>,
}

/// Runs one single-site scenario on the Indexed engine: a fault-free
/// baseline, the faulted run in parallel, and the faulted run again
/// serially for the bit-equality check.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_single_site(
    scenario: ChaosPreset,
    mode: SimMode,
    hours: f64,
) -> Result<ResilienceRow, SimError> {
    let horizon = hours * 3600.0;
    let schedule = scenario.schedule(horizon);
    let fault_start = schedule.first_fault_at().unwrap_or(0.0);

    let mut cfg = SimConfig::paper_default(mode);
    cfg.trace.horizon_seconds = horizon;
    let baseline = Simulator::new(cfg.clone())?.run()?;

    cfg.faults = schedule;
    cfg.parallel_channels = true;
    let parallel = Simulator::new(cfg.clone())?.run_with_faults()?;
    cfg.parallel_channels = false;
    let serial = Simulator::new(cfg)?.run_with_faults()?;
    let identical =
        parallel.metrics == serial.metrics && parallel.fault_stats == serial.fault_stats;

    let report = ResilienceReport::from_runs(
        &baseline,
        &parallel.metrics,
        fault_start,
        parallel.fault_stats,
    );
    Ok(ResilienceRow {
        scenario: scenario.name().to_owned(),
        engine: "indexed".to_owned(),
        serial_parallel_identical: identical,
        report,
    })
}

/// Runs the federated site-outage scenario: baseline vs faulted
/// deployment, parallel and serial region stepping.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_federated(
    scenario: ChaosPreset,
    mode: SimMode,
    hours: f64,
) -> Result<ResilienceRow, SimError> {
    let horizon = hours * 3600.0;
    let schedule = scenario.schedule(horizon);
    let fault_start = schedule.first_fault_at().unwrap_or(0.0);
    let observed_site = schedule
        .site_outages
        .first()
        .map(|o| o.site)
        .unwrap_or_default();

    let mut fc = FederatedConfig::paper_default(DeploymentKind::Federated, mode, hours);
    let baseline = FederatedSimulator::new(fc.clone())?.run()?;

    fc.base.faults = schedule;
    fc.base.parallel_channels = true;
    let parallel = FederatedSimulator::new(fc.clone())?.run()?;
    fc.base.parallel_channels = false;
    let serial = FederatedSimulator::new(fc)?.run()?;
    let identical = parallel.fault_stats == serial.fault_stats
        && parallel
            .per_region
            .iter()
            .zip(&serial.per_region)
            .all(|(a, b)| a.metrics == b.metrics);

    // Quality observables come from the outaged site's own region; the
    // cost overshoot is deployment-wide (the surviving sites absorb the
    // demand and bill for it).
    let mut report = ResilienceReport::from_runs(
        &baseline.per_region[observed_site].metrics,
        &parallel.per_region[observed_site].metrics,
        fault_start,
        parallel.fault_stats.clone(),
    );
    report.cost_overshoot_dollars = parallel.total_cost() - baseline.total_cost();
    Ok(ResilienceRow {
        scenario: scenario.name().to_owned(),
        engine: "federated".to_owned(),
        serial_parallel_identical: identical,
        report,
    })
}

/// Wraps the rows into the full section.
pub fn section(hours: f64, rows: Vec<ResilienceRow>) -> ResilienceSection {
    ResilienceSection {
        schema: SCHEMA.into(),
        horizon_hours: hours,
        notes: vec![
            "Fault presets match the `cloudmedia chaos` CLI scenarios: half the \
             fleet lost at 50% of the horizon (repaired a quarter horizon later), \
             the VM budget cut to 20% at 50% (below the steady-state spend, so \
             the planner dilutes best-effort), tracker measurements dark from 35% to \
             65%, and federated site 1 dark from 40% for a quarter horizon. Each \
             row compares the faulted run against a fault-free baseline of the \
             same seed; serial_parallel_identical pins that the faulted run is \
             bit-identical under serial and parallel execution."
                .into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_scale() {
        for preset in ChaosPreset::ALL {
            let s = preset.schedule(43_200.0);
            s.validate().unwrap();
            assert!(s.first_fault_at().unwrap() > 0.0);
        }
        assert_eq!(
            ChaosPreset::VmOutage.schedule(43_200.0).vm_failures[0].at,
            21_600.0
        );
    }
}
