//! Extension experiment — multi-region deployment, *simulation* version:
//! the three-way comparison (independent regional sites / federated
//! overflow redirection / one multiplexed central site) over full-system
//! runs with local-time flash crowds and regional VM pricing.
//!
//! Prints one CSV block per streaming mode and, with `--out`, appends
//! the `geo_federation` section to the benchmark JSON (regeneration
//! order: `bench_sim`, `bench_des`, then this).
//!
//! Usage: `ext_multi_region_sim [--hours N] [--out PATH]`

use cloudmedia_bench::geo_sim;
use cloudmedia_bench::harness::parse_hours;
use cloudmedia_sim::config::SimMode;

fn main() {
    let mut hours = 72.0_f64;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| parse_hours(&v))
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let mut modes = Vec::new();
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
        modes.push(row);
    }

    if let Some(path) = out_path {
        let section = geo_sim::section(modes);
        let json = serde_json::to_string_pretty(&section).expect("section serializes");
        geo_sim::append_section(&path, "geo_federation", &json).expect("write benchmark file");
        println!("appended geo_federation to {path}");
    }
}

fn usage() -> ! {
    eprintln!("usage: ext_multi_region_sim [--hours N] [--out PATH]");
    std::process::exit(2)
}
