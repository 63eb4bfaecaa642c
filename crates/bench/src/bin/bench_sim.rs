//! Writes the whole perf record, `BENCH_sim.json`, in one process: it
//! computes every section and writes the file once, at the end, with the
//! keys in `cloudmedia_bench::record::KEYS` order. A key the code no
//! longer writes leaves the file at the next regeneration.
//!
//! Usage: `bench_sim [--hours N] [--out PATH]`
//!   - `--hours` horizon of the paper runs behind `e2e`, `des_comparison`
//!     (and `engine_throughput.engine_runs`), `geo_federation` and
//!     `stage_profile` (default 168, the paper's week and the committed
//!     record's horizon),
//!   - `--out` output path (default `BENCH_sim.json` in the working
//!     directory).
//!
//! The other sizes are fixed: `scale_sweep` runs its points (see
//! `scale::sweep`), `resilience` runs 12 h and `stage_profile` runs
//! `profile::REPS` repetitions per telemetry setting.
//!
//! A pool wider than the host's `available_parallelism` (through
//! `RAYON_NUM_THREADS`) is refused before anything runs, since its
//! timings would measure oversubscription rather than the engine.

use cloudmedia_bench::profile::StageProfileSection;
use cloudmedia_bench::record::{self, Record};
use cloudmedia_bench::resilience::ResilienceRow;
use cloudmedia_bench::{des, geo_sim, profile, resilience, scale, HarnessArgs};
use cloudmedia_sim::config::SimMode;

fn main() {
    let args = HarnessArgs::parse("bench_sim [--hours N] [--out PATH]", true);
    let hours = args.hours;
    let out = args.out.unwrap_or_else(|| "BENCH_sim.json".into());
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::current_num_threads();
    if pool > host_threads {
        eprintln!(
            "bench_sim: a {pool}-thread pool on a {host_threads}-thread host measures \
             oversubscription; set RAYON_NUM_THREADS to at most {host_threads}"
        );
        std::process::exit(2);
    }

    // First, because its peak_rss_bytes readings are the process's VmHWM.
    let scale_sweep = scale::sweep();
    let headline = scale_sweep
        .sweep
        .iter()
        .filter(|r| r.scenario == "steady" && r.parallel)
        .max_by_key(|r| r.peak_peers)
        .expect("the sweep has parallel steady rows");
    println!(
        "headline: {} concurrent viewers peak across {} channels, {:.1} sim-h/s, \
         serial==parallel: {}",
        headline.peak_peers,
        headline.channels,
        headline.sim_hours_per_wall_second,
        scale_sweep.equality.serial_equals_parallel
    );

    let e2e = record::e2e(hours);
    println!(
        "e2e: C/S {:.0}, P2P {:.0} sim-hours/s",
        e2e[0].sim_hours_per_wall_second, e2e[1].sim_hours_per_wall_second
    );
    let kernels = record::kernels();

    let (des_comparison, engine_throughput) = des::run(hours);
    for row in &des_comparison.modes {
        println!(
            "{}: kernel=EventDriven vs kernel=Indexed — used-bw ratio {:.3}, \
             cost ratio {:.3}, p99 admission wait {:.1}s",
            row.mode, row.used_bandwidth_ratio, row.vm_cost_ratio, row.des_admission_latency.p99
        );
    }
    println!(
        "wheel vs heap: {:.2}x hold, {:.2}x cancel",
        engine_throughput.wheel_speedup_hold, engine_throughput.wheel_speedup_cancel
    );

    let mut geo_modes = Vec::new();
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        println!("# mode: {mode:?}");
        let result = geo_sim::run_three_way(mode, hours);
        print!("{}", geo_sim::csv(&result));
        let row = geo_sim::mode_comparison(&result);
        println!(
            "# federated saves {:.1}% vs independent (central bound: {:.1}%), \
             redirected share {:.1}%",
            row.federated_saving_vs_independent * 100.0,
            row.central_saving_vs_independent * 100.0,
            result.federated.redirected_share() * 100.0,
        );
        geo_modes.push(row);
    }
    let geo_federation = geo_sim::section(geo_modes);

    let resilience = resilience::run().expect("chaos scenarios run");
    resilience.rows.iter().for_each(print_resilience_row);

    let stage_profile =
        profile::run(SimMode::ClientServer, hours, profile::REPS).expect("profiled run succeeds");
    print_profile(&stage_profile);
    assert!(
        stage_profile.metrics_identical,
        "telemetry-on and telemetry-off runs diverged"
    );
    if stage_profile.overhead_pct > 2.0 {
        eprintln!(
            "WARNING: telemetry overhead {:.2}% exceeds the 2% budget",
            stage_profile.overhead_pct
        );
    }

    let record = Record {
        schema: record::SCHEMA.into(),
        sim_hours: hours,
        host_threads,
        e2e,
        kernels,
        notes: vec![record::NOTE.into()],
        des_comparison,
        engine_throughput,
        geo_federation,
        scale_sweep,
        resilience,
        stage_profile,
    };
    record.write(&out).expect("write the perf record");
    println!("wrote {out}");
}

fn print_resilience_row(row: &ResilienceRow) {
    let r = &row.report;
    println!(
        "{:<15} {:<9} dip {:.4} for {:>6.0}s, recover {:>6.0}s, cost {:+8.2}$",
        row.scenario,
        row.engine,
        r.dip_depth,
        r.dip_duration_seconds,
        r.time_to_recover_seconds,
        r.cost_overshoot_dollars,
    );
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
