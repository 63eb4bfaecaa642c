//! Shared experiment plumbing: argument parsing and the paper-scale
//! simulation runs reused across figures.

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::metrics::Metrics;
use cloudmedia_sim::simulator::Simulator;

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Simulated horizon in hours (default: the paper's full week, 168).
    pub hours: f64,
}

impl HarnessArgs {
    /// Parses `--hours N` from the process arguments; defaults to 168.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> Self {
        let mut hours = 168.0;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--hours" => {
                    let v = args.next().unwrap_or_else(|| usage());
                    hours = v.parse().unwrap_or_else(|_| {
                        usage();
                    });
                }
                "--help" | "-h" => {
                    usage();
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    usage();
                }
            }
        }
        Self { hours }
    }
}

fn usage() -> ! {
    eprintln!("usage: <experiment> [--hours N]   (default: 168 = the paper's week)");
    std::process::exit(2)
}

/// The two paper-scale runs most figures consume.
#[derive(Debug, Clone)]
pub struct PaperRuns {
    /// Client–server mode metrics.
    pub cs: Metrics,
    /// P2P mode metrics.
    pub p2p: Metrics,
}

/// Runs the paper's experiment in both streaming modes over `hours` hours
/// (the two runs execute in parallel).
///
/// # Panics
///
/// Panics if a simulation fails — experiment binaries treat that as fatal.
pub fn paper_runs(hours: f64) -> PaperRuns {
    let run = |mode: SimMode| -> Metrics {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.trace.horizon_seconds = hours * 3600.0;
        Simulator::new(cfg)
            .expect("paper config is valid")
            .run()
            .expect("paper-scale run succeeds")
    };
    let (cs, p2p) = rayon::join(|| run(SimMode::ClientServer), || run(SimMode::P2p));
    PaperRuns { cs, p2p }
}

/// Formats a bandwidth in Mbps with two decimals (the paper's figures are
/// in Mbps).
pub fn mbps(bytes_per_sec: f64) -> f64 {
    (bytes_per_sec * 8.0 / 1e6 * 100.0).round() / 100.0
}

/// Rounds to three decimals (quality fractions).
pub fn q3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_converts() {
        assert_eq!(mbps(1.25e6), 10.0);
        assert_eq!(mbps(0.0), 0.0);
    }

    #[test]
    fn q3_rounds() {
        assert_eq!(q3(0.97349), 0.973);
        assert_eq!(q3(1.0), 1.0);
    }

    #[test]
    fn short_paper_runs_complete() {
        let runs = paper_runs(2.0);
        assert_eq!(runs.cs.intervals.len(), 2);
        assert_eq!(runs.p2p.intervals.len(), 2);
        assert!(runs.cs.mean_quality() > 0.8);
    }
}
