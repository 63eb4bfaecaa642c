//! Chaos benchmark rows: fault-injection scenarios run against
//! fault-free baselines on multiple engines, producing the `resilience`
//! section of `BENCH_sim.json` (written by `bench_sim`).
//!
//! The fault plane is seeded config data, so a faulted run is
//! bit-identical serial and parallel. `crates/sim/tests/chaos.rs` pins
//! that on runs that fan out
//! (`faulted_sharded_run_is_bit_identical_serial_vs_parallel`,
//! `faulted_federated_run_is_bit_identical_serial_vs_parallel`); the
//! single-site rows here peak near 2,000–2,600 viewers, under the
//! 5,000-viewer fan-out threshold, so a serial re-run of them would
//! step the same code.

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
    /// The resilience report of the faulted run.
    pub report: ResilienceReport,
}

/// Schema tag of the `resilience` section.
pub const SCHEMA: &str = "cloudmedia-bench-resilience/v2";

/// Horizon of every row, hours: long enough for the mid-run faults to
/// land and the recovery tail to be visible.
const HOURS: f64 = 12.0;

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

/// Runs the section's rows over 12 h: the three single-site presets on
/// the Indexed engine, then the federated site outage.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run() -> Result<ResilienceSection, SimError> {
    let mut rows = Vec::new();
    for scenario in [
        ChaosPreset::VmOutage,
        ChaosPreset::BudgetCut,
        ChaosPreset::TrackerDropout,
    ] {
        rows.push(run_single_site(scenario, SimMode::ClientServer, HOURS)?);
    }
    rows.push(run_federated(
        ChaosPreset::SiteOutage,
        SimMode::ClientServer,
        HOURS,
    )?);
    Ok(section(HOURS, rows))
}

/// Runs one single-site scenario on the Indexed engine: a fault-free
/// baseline and the faulted run.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
fn run_single_site(
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
    let faulted = Simulator::new(cfg)?.run_with_faults()?;

    let report = ResilienceReport::from_runs(
        &baseline,
        &faulted.metrics,
        fault_start,
        faulted.fault_stats,
    );
    Ok(ResilienceRow {
        scenario: scenario.name().to_owned(),
        engine: "indexed".to_owned(),
        report,
    })
}

/// Runs the federated site-outage scenario: baseline vs faulted
/// deployment.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
fn run_federated(
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
    let faulted = FederatedSimulator::new(fc)?.run()?;

    // Quality observables come from the outaged site's own region; the
    // cost overshoot is deployment-wide (the surviving sites absorb the
    // demand and bill for it).
    let mut report = ResilienceReport::from_runs(
        &baseline.per_region[observed_site].metrics,
        &faulted.per_region[observed_site].metrics,
        fault_start,
        faulted.fault_stats.clone(),
    );
    report.cost_overshoot_dollars = faulted.total_cost() - baseline.total_cost();
    Ok(ResilienceRow {
        scenario: scenario.name().to_owned(),
        engine: "federated".to_owned(),
        report,
    })
}

/// Wraps the rows into the full section.
fn section(hours: f64, rows: Vec<ResilienceRow>) -> ResilienceSection {
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
             same seed. Faulted runs are bit-identical serial and parallel: \
             crates/sim/tests/chaos.rs pins it on runs that fan out \
             (faulted_sharded_run_is_bit_identical_serial_vs_parallel, \
             faulted_federated_run_is_bit_identical_serial_vs_parallel)."
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
