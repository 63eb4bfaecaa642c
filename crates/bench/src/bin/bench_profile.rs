//! Stage-profile benchmark: runs the paper week on the Indexed engine
//! with telemetry off and on, prints the per-stage wall-time table, and
//! appends the `stage_profile` section to the benchmark JSON
//! (regeneration order: `bench_sim`, `bench_des`, `ext_multi_region_sim`,
//! `bench_scale`, `bench_chaos`, then this).
//!
//! Usage: `bench_profile [--hours H] [--reps N] [--out PATH]`
//!   - `--hours` horizon of every run (default 168 — the paper week),
//!   - `--reps` repetitions per telemetry setting; the minimum wall time
//!     is kept (default 5),
//!   - `--out` benchmark JSON to append to (default `BENCH_sim.json`).

use cloudmedia_bench::geo_sim::append_section;
use cloudmedia_bench::harness::parse_hours;
use cloudmedia_bench::profile::{self, StageProfileSection};
use cloudmedia_sim::config::SimMode;

fn main() {
    let mut hours = 168.0_f64;
    let mut reps = 5usize;
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
            "--reps" => {
                reps = args
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

    let p = profile::run(SimMode::ClientServer, hours, reps).expect("profiled run succeeds");
    print_profile(&p);
    assert!(
        p.metrics_identical,
        "telemetry-on and telemetry-off runs diverged"
    );
    if p.overhead_pct > 2.0 {
        eprintln!(
            "WARNING: telemetry overhead {:.2}% exceeds the 2% budget",
            p.overhead_pct
        );
    }

    let json = serde_json::to_string_pretty(&p).expect("section serializes");
    append_section(&out_path, "stage_profile", &json).expect("write benchmark file");
    println!("appended `stage_profile` section to {out_path}");
}

fn print_profile(p: &StageProfileSection) {
    println!(
        "indexed {} rounds, wall off {:.3}s / on {:.3}s, overhead {:+.2}%, \
         identical: {}",
        p.rounds,
        p.wall_seconds_telemetry_off,
        p.wall_seconds_telemetry_on,
        p.overhead_pct,
        p.metrics_identical,
    );
    for s in &p.stages {
        println!(
            "  {:<24} {:>10.3} ms {:>6.1}%",
            s.stage,
            s.nanos as f64 / 1e6,
            s.share * 100.0
        );
    }
}

fn usage() -> ! {
    eprintln!("usage: bench_profile [--hours H] [--reps N] [--out PATH]");
    std::process::exit(2);
}
