//! Shared experiment plumbing: argument parsing and the paper-scale
//! simulation runs reused across figures.

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::metrics::Metrics;
use cloudmedia_sim::simulator::Simulator;

/// Command-line arguments of the two bench drivers, `run_all` and
/// `bench_sim`.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Simulated horizon in hours (default: the paper's full week, 168).
    pub hours: f64,
    /// `--out PATH`, if given (only a driver that takes it accepts it).
    pub out: Option<String>,
}

impl HarnessArgs {
    /// Parses `--hours N` (default 168) and, when `takes_out`, `--out
    /// PATH` from the process arguments. Malformed arguments, including
    /// a horizon [`parse_hours`] rejects or a flag the driver does not
    /// take, print `usage: {usage}` and exit with status 2.
    pub fn parse(usage: &str, takes_out: bool) -> Self {
        let mut parsed = Self {
            hours: 168.0,
            out: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--hours" => {
                    parsed.hours = args
                        .next()
                        .and_then(|v| parse_hours(&v))
                        .unwrap_or_else(|| exit_usage(usage));
                }
                "--out" if takes_out => {
                    parsed.out = Some(args.next().unwrap_or_else(|| exit_usage(usage)));
                }
                "--help" | "-h" => exit_usage(usage),
                other => {
                    eprintln!("unknown argument: {other}");
                    exit_usage(usage);
                }
            }
        }
        parsed
    }
}

fn exit_usage(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    std::process::exit(2)
}

/// Parses a `--hours` value: a finite, positive number of simulated
/// hours. Anything else is `None`, which [`HarnessArgs::parse`] reports
/// as a usage error before a driver runs or writes anything.
pub fn parse_hours(value: &str) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|h| h.is_finite() && *h > 0.0)
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
/// Panics if a simulation fails — the drivers treat that as fatal.
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
    fn parse_hours_accepts_only_positive_finite_horizons() {
        for bad in ["0", "-1", "nan", "inf", "", "two"] {
            assert_eq!(parse_hours(bad), None, "{bad:?}");
        }
        assert_eq!(parse_hours("2"), Some(2.0));
    }

    #[test]
    fn short_paper_runs_complete() {
        let runs = paper_runs(2.0);
        assert_eq!(runs.cs.intervals.len(), 2);
        assert_eq!(runs.p2p.intervals.len(), 2);
        assert!(runs.cs.mean_quality() > 0.8);
    }
}
