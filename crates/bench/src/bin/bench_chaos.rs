//! Chaos benchmark: runs the fault-injection presets (VM-fleet outage,
//! budget cut, tracker dropout) on the Indexed engine plus the federated
//! site outage, each against a fault-free baseline, and
//! appends the `resilience` section to the benchmark JSON (regeneration
//! order: `bench_sim`, `bench_des`, `ext_multi_region_sim`,
//! `bench_scale`, then this).
//!
//! Usage: `bench_chaos [--hours H] [--out PATH]`
//!   - `--hours` horizon of every run (default 12 — long enough for the
//!     mid-run faults to land and the recovery tail to be visible),
//!   - `--out` benchmark JSON to append to (default `BENCH_sim.json`).

use cloudmedia_bench::geo_sim::append_section;
use cloudmedia_bench::harness::parse_hours;
use cloudmedia_bench::resilience::{run_federated, run_single_site, section, ResilienceRow};
use cloudmedia_sim::config::SimMode;
use cloudmedia_sim::faults::ChaosPreset;

fn main() {
    let mut hours = 12.0_f64;
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
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let mut rows: Vec<ResilienceRow> = Vec::new();
    for scenario in [
        ChaosPreset::VmOutage,
        ChaosPreset::BudgetCut,
        ChaosPreset::TrackerDropout,
    ] {
        let row =
            run_single_site(scenario, SimMode::ClientServer, hours).expect("chaos scenario runs");
        print_row(&row);
        rows.push(row);
    }
    let row = run_federated(ChaosPreset::SiteOutage, SimMode::ClientServer, hours)
        .expect("site outage runs");
    print_row(&row);
    rows.push(row);

    assert!(
        rows.iter().all(|r| r.serial_parallel_identical),
        "serial and parallel faulted runs diverged"
    );

    let json = serde_json::to_string_pretty(&section(hours, rows)).expect("section serializes");
    append_section(&out_path, "resilience", &json).expect("write benchmark file");
    println!("appended `resilience` section to {out_path}");
}

fn print_row(row: &ResilienceRow) {
    let r = &row.report;
    println!(
        "{:<15} {:<9} dip {:.4} for {:>6.0}s, recover {:>6.0}s, cost {:+8.2}$, \
         serial==parallel: {}",
        row.scenario,
        row.engine,
        r.dip_depth,
        r.dip_duration_seconds,
        r.time_to_recover_seconds,
        r.cost_overshoot_dollars,
        row.serial_parallel_identical,
    );
}

fn usage() -> ! {
    eprintln!("usage: bench_chaos [--hours H] [--out PATH]");
    std::process::exit(2);
}
