//! Scale-sweep benchmark: measures the channel-parallel round engine
//! at 10 k → 1 M+ steady-state viewers (sim-hours per wall second, peak
//! RSS), re-checks serial ≡ parallel bit equality, and appends the
//! `scale_sweep` section to the benchmark JSON (regeneration order:
//! `bench_sim`, `bench_des`, `ext_multi_region_sim`, then this).
//! Every steady point runs once serial and once channel-parallel.
//!
//! Usage: `bench_scale [--max-peers N] [--hours H] [--flash-peers N] [--out PATH]`
//!   - `--max-peers` population of the headline run (default 1 000 000;
//!     the acceptance row — must complete end to end),
//!   - `--hours` horizon of the headline run (default 2, long enough
//!     for the diurnal ramp to cross 1 M concurrent viewers),
//!   - `--flash-peers` population of the one-channel flash crowd
//!     (default 500 000; 0 skips it),
//!   - `--out` benchmark JSON to append to (default `BENCH_sim.json`).
//!
//! Set `RAYON_NUM_THREADS` to sweep worker-pool sizes; a pool wider than
//! the host's `available_parallelism` is refused, since it would measure
//! oversubscription rather than the engine.

use cloudmedia_bench::geo_sim::append_section;
use cloudmedia_bench::harness::parse_hours;
use cloudmedia_bench::scale::{
    equality_check, flash_equality_check, run_flash_point, run_point, section, ScaleRow,
};
use cloudmedia_sim::config::SimMode;

fn main() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::current_num_threads();
    if pool > host {
        eprintln!(
            "bench_scale: a {pool}-thread pool on a {host}-thread host measures \
             oversubscription; set RAYON_NUM_THREADS to at most {host}"
        );
        std::process::exit(2);
    }
    let mut max_peers = 1_000_000.0_f64;
    let mut hours = 2.0_f64;
    let mut flash_peers = 500_000.0_f64;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-peers" => {
                max_peers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| parse_hours(&v))
                    .unwrap_or_else(|| usage());
            }
            "--flash-peers" => {
                flash_peers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    // Ascending population, so the monotone VmHWM readings stay honest
    // per-row bounds. Channels scale with population (≥ 20, ~500
    // viewers per channel, ≤ 4096).
    let mut sweep: Vec<ScaleRow> = Vec::new();
    let mut points: Vec<(f64, f64, SimMode)> = vec![
        (10_000.0, 1.0, SimMode::ClientServer),
        (100_000.0, 1.0, SimMode::ClientServer),
        (100_000.0, 1.0, SimMode::P2p),
    ];
    if max_peers > 100_000.0 {
        points.push((max_peers, hours, SimMode::ClientServer));
    }
    for (population, h, mode) in points {
        let channels = ((population / 500.0) as usize).clamp(20, 4096);
        for parallel in [false, true] {
            let row = run_point(population, channels, mode, h, parallel);
            eprintln!(
                "{mode:?} {population:.0} viewers / {channels} channels ({}): \
                 {:.2}s wall, {:.1} sim-h/s, peak {} viewers, RSS {} MB",
                if parallel { "parallel" } else { "serial" },
                row.wall_seconds,
                row.sim_hours_per_wall_second,
                row.peak_peers,
                row.peak_rss_bytes.map_or(0, |b| b / 1_000_000),
                mode = mode,
                population = population,
                channels = channels,
            );
            sweep.push(row);
        }
    }

    // The one-channel flash crowd: the whole burst on one shard, serial
    // first, then with the pool available.
    let mut flash_equality = None;
    if flash_peers > 0.0 {
        let flash_hours = 1.0;
        for parallel in [false, true] {
            let row = run_flash_point(flash_peers, flash_hours, parallel);
            eprintln!(
                "flash-crowd 1ch {flash_peers:.0} viewers ({}): {:.2}s wall, \
                 {:.1} sim-h/s, peak {} viewers, RSS {} MB",
                if parallel { "parallel" } else { "serial" },
                row.wall_seconds,
                row.sim_hours_per_wall_second,
                row.peak_peers,
                row.peak_rss_bytes.map_or(0, |b| b / 1_000_000),
            );
            sweep.push(row);
        }
        // Bit-identity at a size the check can afford to run twice.
        let eq = flash_equality_check(flash_peers.min(100_000.0), 1.0);
        assert!(
            eq.serial_equals_parallel,
            "serial and parallel flash-crowd runs diverged — determinism broken"
        );
        flash_equality = Some(eq);
    }

    let equality = equality_check(50_000.0, 100, SimMode::P2p, 1.0);
    assert!(
        equality.serial_equals_parallel,
        "serial and parallel scale runs diverged — determinism contract broken"
    );

    let headline = sweep
        .iter()
        .filter(|r| r.parallel)
        .max_by(|a, b| a.peak_peers.cmp(&b.peak_peers))
        .expect("sweep is non-empty");
    println!(
        "headline: {} concurrent viewers peak across {} channels, {:.1} sim-h/s, \
         serial==parallel: {}",
        headline.peak_peers,
        headline.channels,
        headline.sim_hours_per_wall_second,
        equality.serial_equals_parallel
    );

    let section = section(sweep, equality, flash_equality);
    let json = serde_json::to_string_pretty(&section).expect("section serializes");
    append_section(&out_path, "scale_sweep", &json).expect("write benchmark file");
    println!("appended scale_sweep to {out_path}");
}

fn usage() -> ! {
    eprintln!("usage: bench_scale [--max-peers N] [--hours H] [--flash-peers N] [--out PATH]");
    std::process::exit(2)
}
