//! Stage-profile benchmark: telemetry-instrumented paper-week runs
//! producing the `stage_profile` section of `BENCH_sim.json` (binary:
//! `bench_profile`).
//!
//! The Indexed engine is run twice per repetition — once with the no-op
//! telemetry sink, once with a live metrics registry — and the minimum
//! wall time of each side is kept. The relative overhead of the live
//! registry is recorded alongside the per-stage wall-time shares; the
//! repo's budget for it is ≤ 2 % on the 168 h paper week. Telemetry is a
//! pure side channel, so the two runs' metrics must be bit-identical;
//! `metrics_identical: false` in the checked-in file is a regression.

use std::time::Instant;

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_sim::SimError;
use serde::Serialize;

/// One `stage/*` counter of the telemetry-on run.
#[derive(Debug, Clone, Serialize)]
pub struct StageRow {
    /// Metric name (e.g. `stage/advance`).
    pub stage: String,
    /// Wall time attributed to the stage, nanoseconds.
    pub nanos: u64,
    /// Fraction of the summed stage time (the `stage/*` counters
    /// partition the round loop, so shares add up to 1).
    pub share: f64,
}

/// Schema tag of the `stage_profile` section.
pub const SCHEMA: &str = "cloudmedia-bench-stage-profile/v2";

/// The `stage_profile` benchmark section: the stage profile of the
/// Indexed engine over the paper week.
#[derive(Debug, Clone, Serialize)]
pub struct StageProfileSection {
    /// Schema tag for downstream readers.
    pub schema: String,
    /// Horizon every run covered, hours.
    pub sim_hours: f64,
    /// Repetitions per telemetry setting; the minimum wall time is kept.
    pub reps: usize,
    /// Free-text provenance notes.
    pub notes: Vec<String>,
    /// Rounds the telemetry-on run executed.
    pub rounds: u64,
    /// Best-of-reps wall time with the no-op sink, seconds.
    pub wall_seconds_telemetry_off: f64,
    /// Best-of-reps wall time with a live registry, seconds.
    pub wall_seconds_telemetry_on: f64,
    /// Relative overhead of the live registry, percent: the median of
    /// the per-repetition paired on/off wall-time ratios (can dip below
    /// zero within machine noise).
    pub overhead_pct: f64,
    /// Whether the telemetry-on and telemetry-off runs produced
    /// bit-identical metrics. Must be `true`.
    pub metrics_identical: bool,
    /// Per-stage wall times, sorted by time spent (descending).
    pub stages: Vec<StageRow>,
}

/// Profiles the Indexed engine: `reps` (at least one, and the section
/// records how many ran) telemetry-off runs, as many telemetry-on runs,
/// minimum wall time on each side, stage table from
/// the last telemetry-on registry (counters are deterministic across
/// reps; only the wall-clock values jitter).
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run(mode: SimMode, hours: f64, reps: usize) -> Result<StageProfileSection, SimError> {
    let reps = reps.max(1);
    let mut cfg = SimConfig::paper_default(mode);
    cfg.trace.horizon_seconds = hours * 3600.0;
    let sim = Simulator::new(cfg)?;

    // One untimed warm-up run so allocator pools and caches are hot
    // before either side is measured.
    sim.run_with_faults()?;

    // Each repetition runs telemetry-off and telemetry-on back to back
    // and contributes one on/off wall-time ratio. The overhead estimate
    // is the median of those paired ratios: pairing cancels slow drift
    // (page cache, frequency scaling) and the median discards the
    // repetitions a shared host's CPU-steal spikes land in — a plain
    // min-of-N on each side cannot, because the spikes hit the two
    // sides independently.
    let mut wall_off = f64::INFINITY;
    let mut wall_on = f64::INFINITY;
    let mut ratios = Vec::with_capacity(reps);
    let mut metrics_off = None;
    let mut metrics_on = None;
    let mut snapshot = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let run = sim.run_with_faults()?;
        let off = t0.elapsed().as_secs_f64();
        wall_off = wall_off.min(off);
        metrics_off = Some(run.metrics);

        let tel = telem::new_registry(false);
        let t0 = Instant::now();
        let run = sim.run_with_telemetry(&tel)?;
        let on = t0.elapsed().as_secs_f64();
        wall_on = wall_on.min(on);
        metrics_on = Some(run.metrics);
        snapshot = Some(tel.snapshot());

        ratios.push(on / off);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median_ratio = ratios[ratios.len() / 2];

    let snapshot = snapshot.expect("at least one telemetry-on rep");
    let stage_rows = snapshot.sorted_by_value("stage/");
    let staged_total: u64 = stage_rows.iter().map(|&(_, v)| v).sum();
    let stages = stage_rows
        .into_iter()
        .filter(|&(_, ns)| ns > 0)
        .map(|(name, ns)| StageRow {
            stage: name.to_owned(),
            nanos: ns,
            share: ns as f64 / staged_total.max(1) as f64,
        })
        .collect();

    Ok(StageProfileSection {
        schema: SCHEMA.into(),
        sim_hours: hours,
        reps,
        notes: vec![
            "Best-of-reps wall times; overhead_pct = median of paired per-rep \
             on/off wall-time ratios, live registry vs no-op sink. \
             Budget: <= 2 % on the 168 h paper week. Shares are over the stage/* \
             counters, which partition the round loop (prov/* sub-stages nest \
             inside stage/provisioning and are excluded). Bit-identical metrics \
             with telemetry on/off are pinned by \
             crates/sim/tests/telemetry_determinism.rs."
                .into(),
        ],
        rounds: snapshot.value(telem::ROUNDS),
        wall_seconds_telemetry_off: wall_off,
        wall_seconds_telemetry_on: wall_on,
        overhead_pct: (median_ratio - 1.0) * 100.0,
        metrics_identical: metrics_on == metrics_off,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_profile_partitions_the_round_loop() {
        let p = run(SimMode::ClientServer, 2.0, 1).unwrap();
        assert_eq!(p.schema, SCHEMA);
        assert!(p.rounds > 0);
        assert!(p.metrics_identical, "telemetry changed the results");
        assert!(!p.stages.is_empty());
        let total_share: f64 = p.stages.iter().map(|s| s.share).sum();
        assert!(
            (total_share - 1.0).abs() < 1e-9,
            "shares sum to {total_share}"
        );
        assert!(p.stages.iter().any(|s| s.stage == "stage/advance"));
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("stage/advance"));
    }
}
