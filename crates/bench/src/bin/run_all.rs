//! Regenerates every table and figure of the paper in one process and
//! writes the CSVs to `results/` (PAPER.md maps each file to its figure
//! and module).
//!
//! Usage: `run_all [--hours N]` (default 168, the paper's week).
//!
//! The four independent experiment groups — the paper-scale week runs,
//! the 4-channel utility experiment, the upload-sufficiency sweep, and
//! the latency/chunk-size ablations — execute in parallel; each group
//! also parallelizes internally where its runs are independent.

use std::fs;
use std::path::Path;

use cloudmedia_bench::{
    chunk_size, fig11, four_channel, latency, paper_runs, report, tables, HarnessArgs,
};

fn write(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    fs::write(&path, content).expect("results directory is writable");
    println!("wrote {}", path.display());
}

fn main() {
    let args = HarnessArgs::parse();
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("can create results dir");

    write(dir, "table2.csv", &tables::table_ii());
    write(dir, "table3.csv", &tables::table_iii());

    eprintln!(
        "running the experiment suite ({} h paper-scale horizon, {:?} kernel)...",
        args.hours,
        cloudmedia_sim::config::SimKernel::default()
    );
    let ((runs, four), (f11, (latency_rows, chunk_rows))) = rayon::join(
        || {
            rayon::join(
                || paper_runs(args.hours),
                || four_channel::run(args.hours.min(24.0)),
            )
        },
        || {
            rayon::join(
                || fig11::run(args.hours),
                || {
                    (
                        latency::measure(&[1, 5, 10, 25, 50, 75, 100, 150], 1.0),
                        chunk_size::sweep(&[60.0, 150.0, 300.0, 600.0, 900.0], 0.15),
                    )
                },
            )
        },
    );

    let day = if args.hours >= 48.0 { 1 } else { 0 };
    write(
        dir,
        "fig4.csv",
        &format!("{}{}", report::fig4_summary(&runs), report::fig4(&runs)),
    );
    write(
        dir,
        "fig5.csv",
        &format!("{}{}", report::fig5_summary(&runs), report::fig5(&runs)),
    );
    write(dir, "fig6.csv", &report::fig6(&runs.cs, day));
    write(dir, "fig7.csv", &report::fig7(&runs, day));
    write(
        dir,
        "fig10.csv",
        &format!(
            "{}{}",
            report::fig10_summary(&runs),
            report::fig10(&runs, day)
        ),
    );
    write(dir, "fig8.csv", &four_channel::fig8_csv(&four));
    write(dir, "fig9.csv", &four_channel::fig9_csv(&four));
    write(
        dir,
        "fig11.csv",
        &format!("{}{}", fig11::summary(&f11), fig11::csv(&f11)),
    );
    write(
        dir,
        "provisioning_latency.csv",
        &latency::csv(&latency_rows),
    );
    write(
        dir,
        "ablation_chunk_size.csv",
        &chunk_size::csv(&chunk_rows),
    );

    println!("done");
}
