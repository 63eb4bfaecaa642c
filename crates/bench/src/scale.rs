//! Scale sweep: throughput and memory of the channel-parallel round
//! engine versus population, plus the serial ≡ parallel
//! bit-equality check, recorded as the `scale_sweep` section of
//! `BENCH_sim.json` (written by `bench_sim`).
//!
//! Each sweep point runs `cloudmedia_sim` with a
//! [`SimConfig::scale_out`] mega-catalog configuration — thousands of
//! Zipf channels, arrivals streamed lazily so memory stays
//! `O(channels + peers)` — and reports simulated-hours-per-wall-second
//! and the process's peak RSS. The headline row is a ≥ 1-million-viewer
//! run completing end to end; `crates/sim/tests/sharding.rs` pins the
//! bit-equality contract the `equality` entry re-checks here.

use std::time::Instant;

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::peak_rss_bytes;
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::diurnal::{DiurnalPattern, FlashCrowd};
use serde::Serialize;

/// One sweep measurement.
#[derive(Debug, Serialize)]
pub struct ScaleRow {
    /// Scenario kind: `"steady"` (diurnal mega catalog) or
    /// `"flash_crowd_1ch"` (the one-channel burst).
    pub scenario: String,
    /// Target steady-state concurrent viewers.
    pub population: f64,
    /// Channels in the mega catalog.
    pub channels: usize,
    /// Streaming mode.
    pub mode: String,
    /// Whether shards were fanned across the worker pool.
    pub parallel: bool,
    /// Worker-pool threads the run had available.
    pub threads: usize,
    /// Simulated horizon, hours.
    pub sim_hours: f64,
    /// Wall time, seconds.
    pub wall_seconds: f64,
    /// Simulated hours per wall second.
    pub sim_hours_per_wall_second: f64,
    /// Peak concurrent viewers actually reached.
    pub peak_peers: usize,
    /// Mean streaming quality.
    pub mean_quality: f64,
    /// Process peak RSS after the run, bytes (`VmHWM`; monotone across
    /// the process, so [`sweep`] runs first and in ascending population
    /// order, which makes each reading an honest per-run upper bound).
    /// `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
}

/// The serial ≡ parallel re-check recorded with the sweep.
#[derive(Debug, Serialize)]
pub struct EqualityCheck {
    /// Population the check ran at.
    pub population: f64,
    /// Channels the check ran at.
    pub channels: usize,
    /// Horizon, hours.
    pub sim_hours: f64,
    /// Whether serial and parallel produced bit-identical metrics.
    pub serial_equals_parallel: bool,
}

/// Schema tag of the `scale_sweep` section.
pub const SCHEMA: &str = "cloudmedia-scale-sweep/v6";

/// The `scale_sweep` section of `BENCH_sim.json`.
#[derive(Debug, Serialize)]
pub struct ScaleSweepSection {
    /// Schema tag.
    pub schema: String,
    /// Hardware threads on the host.
    pub host_threads: usize,
    /// Reading notes.
    pub notes: Vec<String>,
    /// Sweep rows, ascending population (steady rows first, then the
    /// one-channel flash crowd).
    pub sweep: Vec<ScaleRow>,
    /// The serial ≡ parallel bit-equality re-check (steady sweep).
    pub equality: EqualityCheck,
}

/// The steady sweep points `(population, hours, mode)`, ascending
/// population. The last is the headline row: 1 M viewers over 2 h, long
/// enough for the diurnal ramp to cross 1 M concurrent viewers.
const STEADY_POINTS: [(f64, f64, SimMode); 4] = [
    (10_000.0, 1.0, SimMode::ClientServer),
    (100_000.0, 1.0, SimMode::ClientServer),
    (100_000.0, 1.0, SimMode::P2p),
    (1_000_000.0, 2.0, SimMode::ClientServer),
];

/// Target population and horizon (hours) of the one-channel flash crowd;
/// the burst peaks past 3 M concurrent viewers.
const FLASH_POINT: (f64, f64) = (500_000.0, 1.0);

/// Runs the whole sweep and returns the section: each steady point once
/// serial and once channel-parallel, then the flash crowd once, then
/// the steady serial ≡ parallel re-check. Each row's `peak_rss_bytes`
/// reads the process's `VmHWM`, so call this before anything else runs
/// in the process, or earlier runs set the readings.
///
/// # Panics
///
/// Panics if a run fails, or if the serial and parallel runs of the
/// re-check diverge.
pub fn sweep() -> ScaleSweepSection {
    let mut rows = Vec::new();
    for (population, hours, mode) in STEADY_POINTS {
        // ≥ 20 channels, ~500 viewers per channel, ≤ 4096.
        let channels = ((population / 500.0) as usize).clamp(20, 4096);
        for parallel in [false, true] {
            let row = run_point(population, channels, mode, hours, parallel);
            eprintln!(
                "{mode:?} {population:.0} viewers / {channels} channels ({}): \
                 {:.2}s wall, {:.1} sim-h/s, peak {} viewers, RSS {} MB",
                if parallel { "parallel" } else { "serial" },
                row.wall_seconds,
                row.sim_hours_per_wall_second,
                row.peak_peers,
                row.peak_rss_bytes.map_or(0, |b| b / 1_000_000),
            );
            rows.push(row);
        }
    }
    let (population, hours) = FLASH_POINT;
    let row = run_flash_point(population, hours);
    eprintln!(
        "flash-crowd 1ch {population:.0} viewers: {:.2}s wall, {:.1} sim-h/s, \
         peak {} viewers, RSS {} MB",
        row.wall_seconds,
        row.sim_hours_per_wall_second,
        row.peak_peers,
        row.peak_rss_bytes.map_or(0, |b| b / 1_000_000),
    );
    rows.push(row);

    let equality = equality_check(50_000.0, 100, SimMode::P2p, 1.0);
    assert!(
        equality.serial_equals_parallel,
        "serial and parallel scale runs diverged — determinism contract broken"
    );
    section(rows, equality)
}

/// Runs one sweep point and measures it.
///
/// # Panics
///
/// Panics if the configuration is invalid or the run fails (this is a
/// benchmark binary's hot path; failures should abort loudly).
fn run_point(
    population: f64,
    channels: usize,
    mode: SimMode,
    hours: f64,
    parallel: bool,
) -> ScaleRow {
    let mut cfg = SimConfig::scale_out(mode, channels, population).expect("valid scale config");
    cfg.trace.horizon_seconds = hours * 3600.0;
    cfg.parallel_channels = parallel;
    measure("steady", cfg, population, channels, mode, hours, parallel)
}

/// The one-channel flash-crowd configuration: a quiet baseline with a
/// sharp arrival burst mid-horizon, sized so the burst peak far
/// exceeds the provisioned steady capacity. Every burst viewer starts
/// downloading at once and the deficit stretches downloads across
/// rounds, so the one shard holds hundreds of thousands of in-flight
/// downloads for a sustained stretch — grouped into download cohorts
/// of hundreds each. `docs/SCALING.md` explains how to read its row.
pub fn flash_crowd_config(population: f64, hours: f64) -> SimConfig {
    let mut cfg =
        SimConfig::scale_out(SimMode::ClientServer, 1, population).expect("valid flash config");
    cfg.trace.horizon_seconds = hours * 3600.0;
    // The burst peaks ~4× above the diurnal profile scale_out sized the
    // fleet for; grow capacity and budgets so the *post-burst*
    // provisioning plan stays feasible. During the burst itself the
    // hour-late controller still reserves last interval's capacity, so
    // downloads dilute and pile up in flight — the starvation
    // is in the provisioning lag, not in an infeasible fleet.
    cfg.fleet_scale *= 4.0;
    cfg.vm_budget_per_hour *= 4.0;
    cfg.storage_budget_per_hour *= 4.0;
    cfg.trace.diurnal = DiurnalPattern::new(
        0.3,
        vec![FlashCrowd {
            peak_hour: (hours / 2.0).min(23.0),
            width_hours: 0.15,
            amplitude: 12.0,
        }],
    )
    .expect("valid flash diurnal");
    cfg
}

/// Runs one flash-crowd point with the pool offered. A one-channel site
/// is one pool task, so it steps inline whatever `parallel_channels`
/// says, and a serial run would repeat this one.
fn run_flash_point(population: f64, hours: f64) -> ScaleRow {
    let cfg = flash_crowd_config(population, hours);
    let parallel = cfg.parallel_channels;
    measure(
        "flash_crowd_1ch",
        cfg,
        population,
        1,
        SimMode::ClientServer,
        hours,
        parallel,
    )
}

fn measure(
    scenario: &str,
    cfg: SimConfig,
    population: f64,
    channels: usize,
    mode: SimMode,
    hours: f64,
    parallel: bool,
) -> ScaleRow {
    let start = Instant::now();
    let metrics = Simulator::new(cfg)
        .expect("valid configuration")
        .run()
        .expect("scale run succeeds");
    let wall = start.elapsed().as_secs_f64();
    ScaleRow {
        scenario: scenario.into(),
        population,
        channels,
        mode: format!("{mode:?}"),
        parallel,
        threads: rayon::current_num_threads(),
        sim_hours: hours,
        wall_seconds: wall,
        sim_hours_per_wall_second: hours / wall.max(1e-9),
        peak_peers: metrics.peak_peers(),
        mean_quality: metrics.mean_quality(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Runs the serial and parallel executions of one configuration and
/// verifies bit equality of the full metrics.
///
/// # Panics
///
/// Panics if either run fails to configure or execute.
fn equality_check(population: f64, channels: usize, mode: SimMode, hours: f64) -> EqualityCheck {
    let run = |parallel: bool| {
        let mut cfg = SimConfig::scale_out(mode, channels, population).expect("valid scale config");
        cfg.trace.horizon_seconds = hours * 3600.0;
        cfg.parallel_channels = parallel;
        Simulator::new(cfg)
            .expect("valid configuration")
            .run()
            .expect("scale run succeeds")
    };
    EqualityCheck {
        population,
        channels,
        sim_hours: hours,
        serial_equals_parallel: run(false) == run(true),
    }
}

/// Wraps the measurements into the full section.
fn section(sweep: Vec<ScaleRow>, equality: EqualityCheck) -> ScaleSweepSection {
    ScaleSweepSection {
        schema: SCHEMA.into(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        notes: vec![
            "Indexed engine: one shard per channel, fanned across the rayon pool \
             once a site holds 5,000 connected viewers; serial and parallel runs \
             are bit-identical (pinned by crates/sim/tests/sharding.rs and \
             re-checked in `equality`). Set RAYON_NUM_THREADS to sweep thread \
             counts."
                .into(),
            "peak_rss_bytes reads /proc VmHWM, the process high-water mark: the \
             sweep runs first in bench_sim's process, in ascending population \
             order, so each reading upper-bounds its own run."
                .into(),
            "Populations are steady-state targets; peak_peers shows what the \
             diurnal ramp actually reached within the horizon."
                .into(),
            "The `flash_crowd_1ch` row is the one-channel burst: a single shard \
             whose in-flight downloads balloon past provisioned capacity, \
             grouped into download cohorts that the demand and advance passes \
             visit once each. A one-channel site is one pool task, so it steps \
             inline whatever parallel_channels says; it runs once, with the \
             pool offered. crates/sim/tests/hot_shard_invariance.rs pins \
             one-channel runs bit-identical serial and parallel."
                .into(),
            "Each steady point runs once serial and once parallel; `threads` is \
             the pool width, which bench_sim refuses to set above \
             `host_threads`."
                .into(),
        ],
        sweep,
        equality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_point_measures_and_serializes() {
        let row = run_point(2000.0, 10, SimMode::ClientServer, 0.5, true);
        assert_eq!(row.channels, 10);
        assert_eq!(row.scenario, "steady");
        assert!(row.wall_seconds > 0.0);
        assert!(row.sim_hours_per_wall_second > 0.0);
        assert!(row.peak_peers > 0);
        let serial = run_point(2000.0, 10, SimMode::ClientServer, 0.5, false);
        assert!(!serial.parallel);
        assert_eq!(row.peak_peers, serial.peak_peers);
        assert_eq!(row.mean_quality, serial.mean_quality);
        let eq = equality_check(2000.0, 10, SimMode::ClientServer, 0.5);
        assert!(eq.serial_equals_parallel, "serial and parallel diverged");
        let section = section(vec![row, serial], eq);
        let json = serde_json::to_string(&section).unwrap();
        assert!(json.contains("\"schema\":\"cloudmedia-scale-sweep/v6\""));
    }

    #[test]
    fn tiny_flash_lane_measures_one_channel() {
        let row = run_flash_point(3000.0, 0.5);
        assert_eq!(row.scenario, "flash_crowd_1ch");
        assert_eq!(row.channels, 1);
        assert!(row.peak_peers > 0);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
