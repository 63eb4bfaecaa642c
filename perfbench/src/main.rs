//! `perfbench`: the repository benchmark.
//!
//! One invocation measures one workload and prints, as the last line of
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line above it carries the
//! run's metadata.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_week_p2p --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times repeated untraced runs and reports the end-to-end
//! metrics. `--trace 1` reports per-layer metrics from telemetry-enabled
//! runs and from timed calls into each layer, and writes a Chrome
//! trace-event file. `--workload all` measures every workload, each in
//! a child process of its own, and prints one table. `README.md`
//! describes the workloads and the metrics.

mod layers;
mod sys;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cloudmedia_telemetry::Telemetry;
use serde::Value;

use workloads::{Checker, Workload};

/// Fewest runs a measurement makes, however short `--seconds` is, so
/// every median has at least three samples.
pub const MIN_RUNS: usize = 3;

/// The command line.
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    /// When the measured part of the run ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }

    pub fn json(&self) -> Value {
        obj(vec![
            ("value", Value::Float(self.value)),
            ("unit", Value::String(self.unit.into())),
        ])
    }
}

/// What one invocation reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub meta: Vec<(&'static str, Value)>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.json()))
            .collect();
        to_json(&obj(vec![
            (
                "correct",
                Value::Bool(self.attempted > 0 && self.failed == 0),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("a JSON value serializes")
}

/// The median of a non-empty sample (the mean of the middle two when
/// its size is even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The metadata of every result: what ran, on how many threads, from
/// which revision.
pub fn meta(workload: Workload, args: &Args) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", Value::String(workload.name().into())),
        ("seed", Value::UInt(args.seed)),
        ("horizon_h", Value::Float(workload.horizon_hours())),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "available_parallelism",
            Value::UInt(sys::host_threads() as u64),
        ),
        (
            "pool_threads",
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        ("git_revision", Value::String(sys::git_revision())),
    ]
}

/// Times repeated untraced runs of one workload: the end-to-end metrics.
fn timed(workload: Workload, args: &Args) -> Result<Report, String> {
    let prepared = workload.prepare(args.seed)?;
    let mut checker = Checker::new(workload);
    // Quality, cost and utilization come from the first run that returned
    // results, in range or not, so a failed check still shows the value.
    let mut summary = None;
    let mut record = |run: Result<workloads::Results, String>| {
        if let Ok(results) = &run {
            summary.get_or_insert(results.summary());
        }
        checker.check(run);
    };
    // An untimed first run: it faults in the heap the later runs reuse.
    record(prepared.run(&Telemetry::disabled()));
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = args.deadline();
    while walls.len() < MIN_RUNS || Instant::now() < deadline {
        let cpu = sys::cpu_seconds();
        let start = Instant::now();
        let run = prepared.run(&Telemetry::disabled());
        walls.push(start.elapsed().as_secs_f64());
        cpus.push(sys::cpu_seconds() - cpu);
        record(run);
        setups.push(workload.time_setups(args.seed)?);
    }
    // The lowest batch median: on a shared host the batch medians fall in
    // two modes ~1.8x apart, by the state of the CPU the batch ran on, and
    // a median over batches would flip between the modes run to run.
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let hours = workload.horizon_hours();
    let summary = summary.unwrap_or_default();
    let mut meta = meta(workload, args);
    let seconds = |v: &[f64]| Value::Array(v.iter().map(|&s| Value::Float(s)).collect());
    meta.push(("run_wall_s", seconds(&walls)));
    meta.push(("run_cpu_s", seconds(&cpus)));
    Ok(Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            Metric::new("sim_h_per_s", hours / median(&walls), "sim-h/s"),
            Metric::new("cpu_s_per_sim_h", median(&cpus) / hours, "s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
            Metric::new("mean_quality", summary.mean_quality, "fraction"),
            Metric::new("cloud_cost_usd", summary.cloud_cost_usd, "usd"),
            Metric::new("bw_utilization", summary.bw_utilization, "fraction"),
            Metric::new("ok_rate", checker.ok_rate(), "fraction"),
        ],
        meta,
    })
}

/// `--workload all`: every workload in a child process of its own, so
/// each `peak_rss_mb` is that workload's alone; then one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(&format!("cannot find this executable: {e}")),
    };
    let (mut attempted, mut failed, mut complete) = (0, 0, true);
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let result = output
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .map(String::from)
            })
            .and_then(|line| serde_json::from_str::<Value>(&line).ok());
        let Some(result) = result else {
            eprintln!("perfbench: {} produced no result", workload.name());
            complete = false;
            continue;
        };
        let number = |key: &str| match result.get(key) {
            Some(Value::UInt(n)) => *n,
            _ => 0,
        };
        attempted += number("attempted");
        failed += number("failed");
        if let Some(Value::Object(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                let value = match metric.get("value") {
                    Some(Value::Float(x)) => *x,
                    Some(Value::UInt(n)) => *n as f64,
                    _ => f64::NAN,
                };
                let unit = match metric.get("unit") {
                    Some(Value::String(u)) => u.as_str(),
                    _ => "",
                };
                println!("{:<20} {:<32} {value:>22} {unit}", workload.name(), name);
            }
        }
    }
    println!("attempted {attempted}, failed {failed}");
    if complete && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            return fail(&format!(
                "{e}\nusage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            ))
        }
    };
    if let Err(e) = sys::pin_pool() {
        return fail(&e);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return fail(&format!(
            "unknown workload {}; expected one of {} or all",
            args.workload,
            names.join(", ")
        ));
    };
    let report = if args.trace {
        layers::traced(workload, &args)
    } else {
        timed(workload, &args)
    };
    match report {
        Ok(report) => {
            println!(
                "{}",
                to_json(&obj(vec![("meta", obj(report.meta.clone()))]))
            );
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}
