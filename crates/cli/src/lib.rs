//! Command-line interface for the CloudMedia toolkit.
//!
//! Subcommands:
//!
//! - `cloudmedia analyze` — equilibrium capacity analysis of one channel
//!   (client–server and P2P cloud demand, peer contribution),
//! - `cloudmedia plan` — one provisioning-controller interval for a set of
//!   channel arrival rates (VM targets, costs, placement size),
//! - `cloudmedia simulate` — a full system simulation with JSON config
//!   in / JSON metrics out,
//! - `cloudmedia des` — an event-driven scenario run on the
//!   `cloudmedia-des` kernel (per-request admission latency, VM
//!   boot-delay, VM failure injection, sub-round flash crowds),
//! - `cloudmedia geo` — a multi-region deployment run (independent
//!   regional sites, the federated overflow-redirecting deployment, or
//!   one centralized multiplexed site),
//! - `cloudmedia chaos` — a fault-injection scenario (VM-fleet outage,
//!   federated site outage, mid-run budget cut, tracker dropout) run
//!   against a fault-free baseline, reporting time-to-recover, quality
//!   dip, and cost overshoot,
//! - `cloudmedia scale` — a scale-out mega-catalog run,
//! - `cloudmedia profile` — a telemetry-instrumented run that prints the
//!   per-stage wall-time table (sorted, with shares) for any kernel,
//! - `cloudmedia default-config` — prints the paper-default simulation
//!   configuration as editable JSON.
//!
//! The run subcommands (`simulate`, `des`, `geo`, `chaos`, `scale`,
//! `profile`) share one set of flags, a [`RunSpec`], and build the config
//! they run one way: the subcommand's preset, then the `--config` file in
//! its place, then `--mode`, `--hours` and `--kernel`. A shared flag a
//! subcommand cannot apply is a usage error naming it, never silently
//! dropped. `--out FILE` writes the run's result JSON, `--telemetry FILE`
//! the metrics-registry snapshot JSON and `--trace FILE` Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//! Telemetry is a pure side channel: the simulation output is
//! bit-identical with the flags on or off.
//!
//! The parsing and command logic live here so they are unit-testable; the
//! binary in `main.rs` is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::fmt::Write as _;

use cloudmedia_cloud::broker::SlaTerms;
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_core::analysis::{
    p2p_capacity_with, pooled_capacity_demand, DemandPooling, PsiEstimator,
};
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_core::controller::{Controller, ControllerConfig, StreamingMode};
use cloudmedia_core::predictor::{ChannelObservation, PredictorKind};
use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::event_driven::{DesRun, DesScenario, FlashCrowdSpec};
use cloudmedia_sim::faults::{ChaosPreset, DegradeMode, FaultRun, FaultSchedule, ResilienceReport};
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
use cloudmedia_sim::metrics::Metrics;
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_telemetry::Telemetry;

/// The flags every run subcommand shares. An unset flag leaves the
/// subcommand's preset (or the `--config` file) in force.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    /// `--mode cs|p2p`: the streaming architecture.
    pub mode: Option<SimMode>,
    /// `--hours H`: the horizon.
    pub hours: Option<f64>,
    /// `--kernel indexed|event-driven`: the engine.
    pub kernel: Option<SimKernel>,
    /// `--config FILE`: a JSON [`SimConfig`] that replaces the preset.
    pub config: Option<String>,
    /// `--out FILE`: where to write the run's result JSON.
    pub out: Option<String>,
    /// `--telemetry FILE`: where to write the metrics-registry snapshot
    /// JSON.
    pub telemetry: Option<String>,
    /// `--trace FILE`: where to write Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing`).
    pub trace: Option<String>,
}

impl RunSpec {
    /// Takes `flag`, with its value from `args`, if it is a shared run
    /// flag; returns false if it is not one.
    fn take<'a>(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, CliError> {
        match flag {
            "--mode" => self.mode = Some(parse_mode(take_value(args, flag)?)?),
            "--hours" => self.hours = Some(parse_f64(take_value(args, flag)?, flag)?),
            "--kernel" => self.kernel = Some(parse_kernel(take_value(args, flag)?)?),
            "--config" => self.config = Some(take_value(args, flag)?.to_owned()),
            "--out" => self.out = Some(take_value(args, flag)?.to_owned()),
            "--telemetry" => self.telemetry = Some(take_value(args, flag)?.to_owned()),
            "--trace" => self.trace = Some(take_value(args, flag)?.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The run's registry: enabled if `always` or if either telemetry
    /// file was requested (otherwise the no-op sink, one predicted branch
    /// per recording site), tracing iff `--trace` was.
    fn registry(&self, always: bool) -> Telemetry {
        if always || self.telemetry.is_some() || self.trace.is_some() {
            telem::new_registry(self.trace.is_some())
        } else {
            Telemetry::disabled()
        }
    }

    /// Writes the files this spec asks for — the run's result, the
    /// registry snapshot, the trace — with a confirmation line each.
    fn write(
        &self,
        result: Option<&Outcome>,
        tel: &Telemetry,
        out: &mut String,
    ) -> Result<(), CliError> {
        let mut save = |path: &str, what: &str, text: String| {
            std::fs::write(path, text)
                .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "{what} written to {path}");
            Ok(())
        };
        if let (Some(path), Some(result)) = (&self.out, result) {
            save(path, result.what(), result.json()?)?;
        }
        if let Some(path) = &self.telemetry {
            save(path, "telemetry snapshot", tel.snapshot().metrics_json())?;
        }
        if let Some(path) = &self.trace {
            save(path, "trace", tel.trace_json())?;
        }
        Ok(())
    }
}

/// A run subcommand with its own arguments. Each is a preset (the
/// config it runs without `--config`), a runner and a reporter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Run {
    /// `simulate`: one simulation. Preset: P2P, 24 h.
    Simulate,
    /// `des <scenario>`: an event-driven scenario on the DES kernel.
    /// Preset: P2P, 24 h.
    Des(DesScenarioKind),
    /// `geo <deployment>`: a three-region deployment. Preset: C/S, 24 h.
    Geo(DeploymentKind),
    /// `chaos <scenario>`: a fault-injection scenario against a
    /// fault-free baseline. Preset: C/S, 24 h.
    Chaos {
        /// Which fault to inject.
        scenario: ChaosPreset,
        /// `--shed`: shed new arrivals during the fleet outage instead
        /// of diluting every stream (`vm-outage` only).
        shed: bool,
    },
    /// `scale`: a scale-out mega-catalog run (the Indexed engine fans
    /// the channel shards out over the pool). Preset: C/S, 1 h.
    Scale {
        /// `--peers N`: target steady-state concurrent viewers.
        peers: f64,
        /// `--channels C`: number of Zipf channels in the mega catalog.
        channels: usize,
    },
    /// `profile`: one telemetry-instrumented simulation and its sorted
    /// per-stage wall-time table. Preset: P2P, 24 h.
    Profile,
}

impl Run {
    /// The subcommand as usage errors name it.
    fn name(self) -> String {
        match self {
            Self::Simulate => "simulate".into(),
            Self::Des(_) => "des".into(),
            Self::Geo(_) => "geo".into(),
            Self::Chaos { scenario, .. } => format!("chaos {}", scenario.name()),
            Self::Scale { .. } => "scale".into(),
            Self::Profile => "profile".into(),
        }
    }

    /// The first flag of `spec` this run cannot apply, and why: its
    /// effect would need a config or a result file the run does not have.
    fn refusal(self, spec: &RunSpec) -> Option<(&'static str, &'static str)> {
        use ChaosPreset::{SiteOutage, VmOutage};
        Some(match self {
            Self::Geo(_)
            | Self::Chaos {
                scenario: SiteOutage,
                ..
            } if spec.config.is_some() => (
                "--config",
                "the deployment preset would contradict the file",
            ),
            Self::Scale { .. } if spec.config.is_some() => (
                "--config",
                "the --peers/--channels catalog would contradict the file",
            ),
            Self::Des(_) if spec.kernel.is_some() => {
                ("--kernel", "des always runs the event-driven engine")
            }
            Self::Chaos {
                scenario: SiteOutage,
                ..
            } if spec.kernel.is_some() => (
                "--kernel",
                "site-outage always runs the federated simulator",
            ),
            Self::Geo(_) if spec.out.is_some() => ("--out", "a federated run has no result file"),
            Self::Chaos {
                scenario,
                shed: true,
            } if scenario != VmOutage => (
                "--shed",
                "only vm-outage has a fleet outage to shed arrivals during",
            ),
            _ => return None,
        })
    }

    /// The config this subcommand runs when no `--config` file replaces
    /// it.
    fn preset(self) -> Result<SimConfig, CliError> {
        let (mode, hours) = match self {
            Self::Simulate | Self::Des(_) | Self::Profile => (SimMode::P2p, 24.0),
            Self::Geo(_) | Self::Chaos { .. } => (SimMode::ClientServer, 24.0),
            Self::Scale { .. } => (SimMode::ClientServer, 1.0),
        };
        let mut config = match self {
            Self::Scale { peers, channels } => SimConfig::scale_out(mode, channels, peers)
                .map_err(|e| CliError::Run(format!("invalid scale configuration: {e}")))?,
            _ => SimConfig::paper_default(mode),
        };
        config.trace.horizon_seconds = hours * 3600.0;
        Ok(config)
    }

    /// The config this run executes: the subcommand's preset, then the
    /// `--config` file in its place, then `--mode`, `--hours` and
    /// `--kernel`. A shared flag the subcommand cannot apply is a usage
    /// error naming the flag and the subcommand.
    fn compose(self, spec: &RunSpec) -> Result<SimConfig, CliError> {
        if let Some((flag, why)) = self.refusal(spec) {
            return Err(CliError::Usage(format!(
                "{flag} does not apply to {}: {why}",
                self.name()
            )));
        }
        let mut config = match &spec.config {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
                serde_json::from_str::<SimConfig>(&text)
                    .map_err(|e| CliError::Run(format!("bad config {path}: {e}")))?
            }
            None => self.preset()?,
        };
        if let Some(mode) = spec.mode {
            config.mode = mode;
        }
        if let Some(hours) = spec.hours {
            config.trace.horizon_seconds = hours * 3600.0;
        }
        if let Some(kernel) = spec.kernel {
            config.kernel = kernel;
        }
        Ok(config)
    }

    /// Composes the config, runs it, reports, and writes the files
    /// `spec` asks for.
    fn execute(self, spec: &RunSpec) -> Result<String, CliError> {
        let config = self.compose(spec)?;
        let tel = spec.registry(self == Self::Profile);
        let (mut out, result) = match self {
            Self::Simulate => simulate(config, &tel)?,
            Self::Des(scenario) => des(scenario, config, &tel)?,
            Self::Geo(deployment) => (geo(deployment, &config, &tel)?, None),
            Self::Chaos { scenario, shed } => chaos(scenario, shed, config, &tel)?,
            Self::Scale { peers, channels } => scale(peers, channels, config, &tel)?,
            Self::Profile => profile(config, &tel)?,
        };
        spec.write(result.as_ref(), &tel, &mut out)?;
        Ok(out)
    }
}

/// The result a run writes with `--out`.
enum Outcome {
    /// The full metrics (`simulate`, `scale`, `profile`).
    Metrics(Metrics),
    /// The full event-driven run (`des`).
    Des(DesRun),
    /// The resilience report (`chaos`).
    Resilience(ResilienceReport),
}

impl Outcome {
    /// What the confirmation line calls the result.
    fn what(&self) -> &'static str {
        match self {
            Self::Metrics(_) => "full metrics",
            Self::Des(_) => "full run",
            Self::Resilience(_) => "resilience report",
        }
    }

    fn json(&self) -> Result<String, CliError> {
        match self {
            Self::Metrics(m) => serde_json::to_string(m),
            Self::Des(run) => serde_json::to_string(run),
            Self::Resilience(report) => serde_json::to_string_pretty(report),
        }
        .map_err(|e| CliError::Run(format!("serializing the {} failed: {e}", self.what())))
    }
}

/// A reporter's stdout lines and the result `--out` writes.
type Report = (String, Option<Outcome>);

/// What ran, read from the composed config: horizon, mode and engine.
fn ran(config: &SimConfig, engine: SimKernel) -> String {
    format!(
        "{:.1} h in {:?} mode on the {engine:?} engine",
        config.trace.horizon_seconds / 3600.0,
        config.mode
    )
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Analyze one channel's equilibrium capacity.
    Analyze {
        /// External arrival rate `Λ`, users per second.
        arrival_rate: f64,
        /// Mean peer upload (bytes/s) for the P2P analysis.
        mean_upload: f64,
    },
    /// Run one controller interval for the given channel arrival rates.
    Plan {
        /// Arrival rate per channel.
        arrival_rates: Vec<f64>,
        /// Streaming architecture.
        mode: SimMode,
        /// VM budget, dollars per hour.
        budget: f64,
    },
    /// A run subcommand and its shared flags.
    Run(Run, RunSpec),
    /// Print the paper-default simulation config as JSON.
    DefaultConfig {
        /// Streaming architecture.
        mode: SimMode,
    },
    /// Print usage.
    Help,
}

fn parse_deployment(v: &str) -> Result<DeploymentKind, CliError> {
    match v {
        "independent" => Ok(DeploymentKind::Independent),
        "federated" => Ok(DeploymentKind::Federated),
        "central" => Ok(DeploymentKind::Central),
        other => Err(CliError::Usage(format!(
            "unknown geo deployment `{other}` (use independent|federated|central)"
        ))),
    }
}

/// The named event-driven scenarios `cloudmedia des` offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesScenarioKind {
    /// Paper defaults, no injections.
    Baseline,
    /// VM boots stretched to 5 minutes (cold-capacity stress).
    BootDelay,
    /// Half the VM fleet fails at mid-run and is repaired a quarter
    /// horizon later: the `chaos vm-outage` burst.
    VmFailure,
    /// A sharp mid-run flash crowd on the most popular channel.
    FlashCrowd,
}

impl DesScenarioKind {
    fn parse(v: &str) -> Result<Self, CliError> {
        match v {
            "baseline" => Ok(Self::Baseline),
            "boot-delay" => Ok(Self::BootDelay),
            "vm-failure" => Ok(Self::VmFailure),
            "flash-crowd" => Ok(Self::FlashCrowd),
            other => Err(CliError::Usage(format!(
                "unknown des scenario `{other}` (use baseline|boot-delay|vm-failure|flash-crowd)"
            ))),
        }
    }

    /// Builds the scenario spec for a run of `config`; `vm-failure`
    /// adds its burst to the config's faults instead.
    fn build(self, config: &mut SimConfig) -> DesScenario {
        let horizon = config.trace.horizon_seconds;
        match self {
            Self::Baseline => DesScenario::default(),
            Self::BootDelay => DesScenario {
                vm_boot_seconds: Some(300.0),
                ..DesScenario::default()
            },
            Self::VmFailure => {
                add_faults(&mut config.faults, ChaosPreset::VmOutage.schedule(horizon));
                DesScenario::default()
            }
            Self::FlashCrowd => DesScenario {
                flash_crowds: vec![FlashCrowdSpec {
                    at: horizon * 0.6 + 17.0,
                    channel: 0,
                    extra_viewers: 800,
                    window_seconds: 90.0,
                }],
                ..DesScenario::default()
            },
        }
    }
}

/// Parses a `cloudmedia chaos` scenario name.
fn parse_chaos(v: &str) -> Result<ChaosPreset, CliError> {
    ChaosPreset::ALL
        .into_iter()
        .find(|preset| preset.name() == v)
        .ok_or_else(|| {
            let names = ChaosPreset::ALL.map(ChaosPreset::name).join("|");
            CliError::Usage(format!("unknown chaos scenario `{v}` (use {names})"))
        })
}

/// `preset`'s fault schedule for a run of `horizon` seconds; with
/// `shed`, new arrivals are shed during its fleet outage instead of
/// diluting every stream.
fn chaos_schedule(preset: ChaosPreset, horizon: f64, shed: bool) -> FaultSchedule {
    let mut schedule = preset.schedule(horizon);
    if shed {
        schedule.degrade = DegradeMode::ShedNewArrivals;
    }
    schedule
}

/// Adds `extra`'s events to `faults`, and its policy if it sheds, so a
/// `--config` file's own faults stay in force beside a scenario's.
fn add_faults(faults: &mut FaultSchedule, extra: FaultSchedule) {
    faults.vm_failures.extend(extra.vm_failures);
    faults.site_outages.extend(extra.site_outages);
    faults.tracker_dropouts.extend(extra.tracker_dropouts);
    faults.cost_shocks.extend(extra.cost_shocks);
    if extra.degrade == DegradeMode::ShedNewArrivals {
        faults.degrade = extra.degrade;
    }
}

/// Errors from parsing or executing a command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the message is user-facing.
    Usage(String),
    /// Execution failed; the message is user-facing.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "\
cloudmedia — CloudMedia VoD cloud-provisioning toolkit (ICDCS 2011 reproduction)

USAGE:
  cloudmedia analyze --arrival-rate R [--upload BYTES_PER_S]
  cloudmedia plan --arrival-rates R1,R2,... [--mode cs|p2p] [--budget DOLLARS]
  cloudmedia simulate [RUN FLAGS]
  cloudmedia des <baseline|boot-delay|vm-failure|flash-crowd> [RUN FLAGS]
  cloudmedia geo <independent|federated|central> [RUN FLAGS]
  cloudmedia chaos <vm-outage|site-outage|budget-cut|tracker-dropout>
                   [--shed] [RUN FLAGS]
  cloudmedia scale [--peers N] [--channels C] [RUN FLAGS]
  cloudmedia profile [RUN FLAGS]
  cloudmedia default-config [--mode cs|p2p]
  cloudmedia help

RUN FLAGS, shared by simulate, des, geo, chaos, scale and profile. A run's
config is its preset, then the --config file in its place, then --mode,
--hours and --kernel:
  --mode cs|p2p       streaming mode (preset: p2p for simulate, des and
                      profile; cs for geo, chaos and scale)
  --hours H           horizon (preset: 24; scale: 1)
  --kernel indexed|event-driven
                      engine (not on des or chaos site-outage)
  --config FILE       JSON config, e.g. from default-config (not on geo,
                      scale or chaos site-outage)
  --out FILE          write the run's result JSON (not on geo)
  --telemetry FILE    write the metrics-registry snapshot as JSON
  --trace FILE        write Chrome trace-event JSON (Perfetto / chrome://tracing)
A flag a subcommand cannot apply is a usage error. Telemetry never changes
simulation results: outputs are bit-identical with the flags on or off.
chaos --shed (vm-outage only) sheds new arrivals during the fleet outage
instead of diluting every stream.
";

fn parse_mode(v: &str) -> Result<SimMode, CliError> {
    match v {
        "cs" | "client-server" => Ok(SimMode::ClientServer),
        "p2p" => Ok(SimMode::P2p),
        other => Err(CliError::Usage(format!(
            "unknown mode `{other}` (use cs|p2p)"
        ))),
    }
}

/// Parses a `--kernel` value. An unknown kernel name is a hard usage
/// error — never a silent fallback to the default engine, which would
/// quietly benchmark or validate the wrong implementation.
fn parse_kernel(v: &str) -> Result<SimKernel, CliError> {
    match v {
        "indexed" => Ok(SimKernel::Indexed),
        "event-driven" | "des" => Ok(SimKernel::EventDriven),
        other => Err(CliError::Usage(format!(
            "unknown kernel `{other}` (use indexed|event-driven)"
        ))),
    }
}

fn take_value<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<&'a str, CliError> {
    args.next()
        .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

/// Takes `flag` into `mode` if it is `--mode`, the one shared run flag
/// `plan` and `default-config` take; any other is unknown to them.
fn take_mode<'a>(
    mode: &mut SimMode,
    flag: &str,
    args: &mut impl Iterator<Item = &'a str>,
) -> Result<bool, CliError> {
    let mut spec = RunSpec::default();
    if !spec.take(flag, args)? {
        return Ok(false);
    }
    *mode = spec
        .mode
        .ok_or_else(|| CliError::Usage(format!("unknown flag `{flag}`")))?;
    Ok(true)
}

/// Parses argv (without the program name) into a [`Command`].
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands, flags, or values.
pub fn parse(args: &[&str]) -> Result<Command, CliError> {
    let mut it = args.iter().copied();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "analyze" => {
            let mut arrival_rate = None;
            let mut mean_upload = 34_000.0;
            while let Some(flag) = it.next() {
                match flag {
                    "--arrival-rate" => {
                        arrival_rate = Some(parse_f64(take_value(&mut it, flag)?, flag)?);
                    }
                    "--upload" => mean_upload = parse_f64(take_value(&mut it, flag)?, flag)?,
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            let arrival_rate = arrival_rate
                .ok_or_else(|| CliError::Usage("analyze requires --arrival-rate".into()))?;
            Ok(Command::Analyze {
                arrival_rate,
                mean_upload,
            })
        }
        "plan" => {
            let mut rates = None;
            let mut mode = SimMode::ClientServer;
            let mut budget = 100.0;
            while let Some(flag) = it.next() {
                match flag {
                    "--arrival-rates" => {
                        let v = take_value(&mut it, flag)?;
                        let parsed: Result<Vec<f64>, _> =
                            v.split(',').map(|p| p.trim().parse::<f64>()).collect();
                        rates = Some(parsed.map_err(|_| {
                            CliError::Usage(format!("bad --arrival-rates value `{v}`"))
                        })?);
                    }
                    "--budget" => budget = parse_f64(take_value(&mut it, flag)?, flag)?,
                    _ if take_mode(&mut mode, flag, &mut it)? => {}
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            let arrival_rates =
                rates.ok_or_else(|| CliError::Usage("plan requires --arrival-rates".into()))?;
            if arrival_rates.is_empty() {
                return Err(CliError::Usage("at least one arrival rate required".into()));
            }
            Ok(Command::Plan {
                arrival_rates,
                mode,
                budget,
            })
        }
        "simulate" | "des" | "geo" | "chaos" | "scale" | "profile" => parse_run(cmd, it),
        "default-config" => {
            let mut mode = SimMode::P2p;
            while let Some(flag) = it.next() {
                if !take_mode(&mut mode, flag, &mut it)? {
                    return Err(CliError::Usage(format!("unknown flag `{flag}`")));
                }
            }
            Ok(Command::DefaultConfig { mode })
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Parses run subcommand `cmd`: its positional argument, then the shared
/// flags (into a [`RunSpec`]) and its own.
fn parse_run<'a>(cmd: &str, mut args: impl Iterator<Item = &'a str>) -> Result<Command, CliError> {
    let mut positional = |what: &str| {
        args.next()
            .ok_or_else(|| CliError::Usage(format!("{cmd} requires {what}")))
    };
    let mut run = match cmd {
        "simulate" => Run::Simulate,
        "des" => Run::Des(DesScenarioKind::parse(positional("a scenario")?)?),
        "geo" => Run::Geo(parse_deployment(positional("a deployment")?)?),
        "chaos" => Run::Chaos {
            scenario: parse_chaos(positional("a scenario")?)?,
            shed: false,
        },
        "scale" => Run::Scale {
            peers: 1_000_000.0,
            channels: 2000,
        },
        _ => Run::Profile,
    };
    let mut spec = RunSpec::default();
    while let Some(flag) = args.next() {
        if spec.take(flag, &mut args)? {
            continue;
        }
        match (&mut run, flag) {
            (Run::Chaos { shed, .. }, "--shed") => *shed = true,
            (Run::Scale { peers, .. }, "--peers") => {
                *peers = parse_f64(take_value(&mut args, flag)?, flag)?;
            }
            (Run::Scale { channels, .. }, "--channels") => {
                let v = take_value(&mut args, flag)?;
                *channels = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad value `{v}` for --channels")))?;
            }
            _ => return Err(CliError::Usage(format!("unknown flag `{flag}`"))),
        }
    }
    Ok(Command::Run(run, spec))
}

fn parse_f64(v: &str, flag: &str) -> Result<f64, CliError> {
    v.parse()
        .map_err(|_| CliError::Usage(format!("bad value `{v}` for {flag}")))
}

fn paper_sla() -> SlaTerms {
    SlaTerms {
        virtual_clusters: paper_virtual_clusters(),
        nfs_clusters: paper_nfs_clusters(),
    }
}

/// Executes a command and returns its stdout text.
///
/// # Errors
///
/// Returns [`CliError::Run`] with a user-facing message on failure, and
/// [`CliError::Usage`] for a shared flag the run subcommand cannot apply.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Analyze {
            arrival_rate,
            mean_upload,
        } => analyze(arrival_rate, mean_upload),
        Command::Plan {
            arrival_rates,
            mode,
            budget,
        } => plan(&arrival_rates, mode, budget),
        Command::Run(run, spec) => run.execute(&spec),
        Command::DefaultConfig { mode } => {
            serde_json::to_string_pretty(&SimConfig::paper_default(mode))
                .map(|mut s| {
                    s.push('\n');
                    s
                })
                .map_err(|e| CliError::Run(format!("serializing config failed: {e}")))
        }
    }
}

fn analyze(arrival_rate: f64, mean_upload: f64) -> Result<String, CliError> {
    let channel = ChannelModel::paper_default(0, arrival_rate);
    let cs = pooled_capacity_demand(&channel)
        .map_err(|e| CliError::Run(format!("analysis failed: {e}")))?;
    let p2p = p2p_capacity_with(
        &channel,
        mean_upload,
        PsiEstimator::Independent,
        DemandPooling::ChannelPooled,
    )
    .map_err(|e| CliError::Run(format!("P2P analysis failed: {e}")))?;
    let mut out = String::new();
    let mbps = |b: f64| b * 8.0 / 1e6;
    let population: f64 = cs
        .arrival_rates
        .iter()
        .map(|l| l * channel.chunk_seconds)
        .sum();
    let _ = writeln!(
        out,
        "channel: arrival rate {arrival_rate}/s, ~{population:.0} concurrent viewers"
    );
    let _ = writeln!(
        out,
        "client-server cloud demand: {:.1} Mbps",
        mbps(cs.total_upload_demand())
    );
    let _ = writeln!(
        out,
        "P2P peer contribution:      {:.1} Mbps",
        mbps(p2p.total_peer_contribution())
    );
    let _ = writeln!(
        out,
        "P2P cloud demand:           {:.1} Mbps",
        mbps(p2p.total_cloud_demand())
    );
    Ok(out)
}

fn plan(rates: &[f64], mode: SimMode, budget: f64) -> Result<String, CliError> {
    let streaming_mode = match mode {
        SimMode::ClientServer => StreamingMode::ClientServer,
        SimMode::P2p => StreamingMode::P2p {
            mean_upload: 34_000.0,
            psi: PsiEstimator::Independent,
        },
    };
    let mut config = ControllerConfig::paper_default(streaming_mode);
    config.vm_budget_per_hour = budget;
    let mut controller = Controller::new(config, PredictorKind::LastInterval)
        .map_err(|e| CliError::Run(format!("controller rejected config: {e}")))?;
    let stats: Vec<(usize, ChannelObservation)> = rates
        .iter()
        .enumerate()
        .map(|(id, &rate)| {
            let model = ChannelModel::paper_default(id, rate);
            (
                id,
                ChannelObservation {
                    arrival_rate: rate,
                    alpha: model.alpha,
                    routing: model.routing,
                },
            )
        })
        .collect();
    let plan = controller
        .plan_interval(&stats, &paper_sla())
        .map_err(|e| CliError::Run(format!("planning failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "channels: {}, mode: {mode:?}, budget ${budget}/h",
        rates.len()
    );
    let _ = writeln!(
        out,
        "VM targets [Standard, Medium, Advanced]: {:?} (${:.2}/h)",
        plan.vm_targets, plan.vm_plan.integer_hourly_cost
    );
    let _ = writeln!(
        out,
        "cloud demand: {:.1} Mbps",
        plan.total_cloud_demand * 8.0 / 1e6
    );
    if plan.expected_peer_contribution > 0.0 {
        let _ = writeln!(
            out,
            "expected peer contribution: {:.1} Mbps",
            plan.expected_peer_contribution * 8.0 / 1e6
        );
    }
    if let Some(p) = &plan.placement {
        let _ = writeln!(out, "storage placement: {} chunks", p.len());
    }
    Ok(out)
}

/// Runs `config` on the engine it names.
fn run_sim(config: SimConfig, tel: &Telemetry) -> Result<FaultRun, CliError> {
    Simulator::new(config)
        .map_err(|e| CliError::Run(format!("invalid configuration: {e}")))?
        .run_with_telemetry(tel)
        .map_err(|e| CliError::Run(format!("simulation failed: {e}")))
}

/// `kind`'s three-region preset at the composed config's mode, horizon
/// and engine.
fn deployment(kind: DeploymentKind, config: &SimConfig) -> FederatedConfig {
    let hours = config.trace.horizon_seconds / 3600.0;
    let mut fc = FederatedConfig::paper_default(kind, config.mode, hours);
    // The exact horizon: the division above may round.
    fc.base.trace.horizon_seconds = config.trace.horizon_seconds;
    fc.base.kernel = config.kernel;
    fc
}

fn bandwidth_line(out: &mut String, m: &Metrics) {
    let _ = writeln!(
        out,
        "cloud bandwidth: reserved {:.1} Mbps, used {:.1} Mbps (coverage {:.3})",
        m.mean_reserved_bandwidth() * 8.0 / 1e6,
        m.mean_used_bandwidth() * 8.0 / 1e6,
        m.provision_coverage(),
    );
}

fn simulate(config: SimConfig, tel: &Telemetry) -> Result<Report, CliError> {
    let mut out = format!("simulated {}\n", ran(&config, config.kernel));
    let metrics = run_sim(config, tel)?.metrics;
    let _ = writeln!(out, "mean streaming quality: {:.4}", metrics.mean_quality());
    bandwidth_line(&mut out, &metrics);
    let _ = writeln!(
        out,
        "VM rental: ${:.2} total (${:.2}/h mean); storage: ${:.4} total",
        metrics.total_vm_cost,
        metrics.mean_vm_hourly_cost(),
        metrics.total_storage_cost,
    );
    let _ = writeln!(out, "peak concurrent viewers: {}", metrics.peak_peers());
    Ok((out, Some(Outcome::Metrics(metrics))))
}

fn des(
    scenario: DesScenarioKind,
    mut config: SimConfig,
    tel: &Telemetry,
) -> Result<Report, CliError> {
    let spec = scenario.build(&mut config);
    let run = cloudmedia_sim::event_driven::run_with_telemetry(&config, &spec, tel)
        .map_err(|e| CliError::Run(format!("event-driven run failed: {e}")))?;
    let m = &run.metrics;
    let r = &run.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "event-driven run: {scenario:?} scenario, {} ({} events)",
        ran(&config, SimKernel::EventDriven),
        r.events_delivered
    );
    let _ = writeln!(out, "mean streaming quality: {:.4}", m.mean_quality());
    bandwidth_line(&mut out, m);
    let _ = writeln!(
        out,
        "VM rental: ${:.2} total (${:.2}/h mean)",
        m.total_vm_cost,
        m.mean_vm_hourly_cost(),
    );
    let l = &r.admission_latency;
    let _ = writeln!(
        out,
        "admission latency over {} requests: mean {:.2}s, p50 {:.2}s, p90 {:.2}s, \
         p99 {:.2}s, max {:.2}s",
        l.count, l.mean, l.p50, l.p90, l.p99, l.max
    );
    let _ = writeln!(
        out,
        "request split: {} cloud / {} peer; Erlang-C predicted wait fraction {:.3}, \
         measured {:.3}",
        r.cloud_requests, r.peer_requests, r.predicted_wait_fraction, r.measured_wait_fraction
    );
    let _ = writeln!(
        out,
        "peak concurrent viewers: {} (injected: {}); mean startup delay {:.2}s",
        m.peak_peers(),
        r.injected_viewers,
        m.mean_startup_delay()
    );
    let _ = writeln!(
        out,
        "kernel health: {} events delivered, peak {} pending, {} cancelled, \
         {} slots recycled",
        r.events_delivered, r.peak_pending_events, r.cancelled_events, r.recycled_slots
    );
    if run.fault_stats.vms_killed > 0 {
        let _ = writeln!(
            out,
            "failure injection killed {} VM instances",
            run.fault_stats.vms_killed
        );
    }
    if r.redirected_requests > 0 {
        let _ = writeln!(
            out,
            "remote overflow absorbed {} redirected requests",
            r.redirected_requests
        );
    }
    Ok((out, Some(Outcome::Des(run))))
}

fn geo(kind: DeploymentKind, config: &SimConfig, tel: &Telemetry) -> Result<String, CliError> {
    let m = FederatedSimulator::new(deployment(kind, config))
        .map_err(|e| CliError::Run(format!("invalid federation config: {e}")))?
        .run_with_telemetry(tel)
        .map_err(|e| CliError::Run(format!("federated run failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "geo {kind:?} deployment: {}, {} region(s)",
        ran(config, config.kernel),
        m.per_region.len()
    );
    for r in &m.per_region {
        let _ = writeln!(
            out,
            "  {:<9} site {:.2}x prices: VM ${:.2}, redirected {:.1}% of its cloud \
             traffic (egress ${:.2}, SLA penalty ${:.2}), quality {:.4}",
            r.region.name,
            r.site.vm_price_factor,
            r.metrics.total_vm_cost,
            r.redirected_share() * 100.0,
            r.transfer_cost,
            r.latency_penalty_cost,
            r.metrics.mean_quality(),
        );
    }
    let _ = writeln!(
        out,
        "total cost: ${:.2} (VM ${:.2} + storage ${:.4} + transfer ${:.2} + latency \
         penalty ${:.2})",
        m.total_cost(),
        m.total_vm_cost,
        m.total_storage_cost,
        m.total_transfer_cost,
        m.total_latency_penalty_cost,
    );
    let _ = writeln!(
        out,
        "redirected share: {:.1}%; mean quality {:.4}; peak viewers {}",
        m.redirected_share() * 100.0,
        m.mean_quality(),
        m.peak_peers(),
    );
    Ok(out)
}

/// Runs `config` with the scenario's fault added against `config` with
/// no faults at all, and reports the resilience metrics.
fn chaos(
    scenario: ChaosPreset,
    shed: bool,
    config: SimConfig,
    tel: &Telemetry,
) -> Result<Report, CliError> {
    let schedule = chaos_schedule(scenario, config.trace.horizon_seconds, shed);
    let fault_start = schedule.first_fault_at().unwrap_or(0.0);
    let mut out = format!(
        "chaos {scenario:?}: {}, fault at t = {fault_start:.0} s\n",
        ran(&config, config.kernel)
    );
    // Telemetry records the faulted run — the one whose fault plane the
    // registry's `faults/*` counters mirror. The baseline runs dark.
    let report = if scenario == ChaosPreset::SiteOutage {
        let mut fc = deployment(DeploymentKind::Federated, &config);
        let baseline = FederatedSimulator::new(fc.clone())
            .map_err(|e| CliError::Run(format!("invalid federation config: {e}")))?
            .run()
            .map_err(|e| CliError::Run(format!("baseline run failed: {e}")))?;
        let outaged_site = schedule.site_outages[0].site;
        fc.base.faults = schedule;
        let faulted = FederatedSimulator::new(fc)
            .map_err(|e| CliError::Run(format!("invalid fault schedule: {e}")))?
            .run_with_telemetry(tel)
            .map_err(|e| CliError::Run(format!("faulted run failed: {e}")))?;
        // Quality observables come from the outaged site's own region —
        // the viewers the lost site was serving — while the cost
        // overshoot is deployment-wide (the surviving sites absorb the
        // demand and bill for it).
        let mut report = ResilienceReport::from_runs(
            &baseline.per_region[outaged_site].metrics,
            &faulted.per_region[outaged_site].metrics,
            fault_start,
            faulted.fault_stats.clone(),
        );
        report.cost_overshoot_dollars = faulted.total_cost() - baseline.total_cost();
        report
    } else {
        let mut baseline = config.clone();
        baseline.faults = FaultSchedule::default();
        let baseline = Simulator::new(baseline)
            .map_err(|e| CliError::Run(format!("invalid configuration: {e}")))?
            .run()
            .map_err(|e| CliError::Run(format!("baseline run failed: {e}")))?;
        let mut faulted = config;
        add_faults(&mut faulted.faults, schedule);
        let faulted = Simulator::new(faulted)
            .map_err(|e| CliError::Run(format!("invalid fault schedule: {e}")))?
            .run_with_telemetry(tel)
            .map_err(|e| CliError::Run(format!("faulted run failed: {e}")))?;
        ResilienceReport::from_runs(
            &baseline,
            &faulted.metrics,
            fault_start,
            faulted.fault_stats,
        )
    };
    let _ = writeln!(
        out,
        "quality: baseline mean {:.4}, faulted mean {:.4}, floor {:.4}",
        report.baseline_mean_quality, report.faulted_mean_quality, report.quality_floor
    );
    let _ = writeln!(
        out,
        "dip: depth {:.4}, duration {:.0} s, time to recover {:.0} s",
        report.dip_depth, report.dip_duration_seconds, report.time_to_recover_seconds
    );
    let _ = writeln!(out, "cost overshoot: ${:.2}", report.cost_overshoot_dollars);
    let s = &report.fault_stats;
    let _ = writeln!(
        out,
        "fault plane: {} VMs killed, {} recovered, {} arrivals shed, {} retries \
         ({:.0} s backoff), {} degraded submissions, {} fallback intervals, \
         {} emergency re-plans",
        s.vms_killed,
        s.vms_recovered,
        s.shed_arrivals,
        s.retry_attempts,
        s.retry_backoff_seconds,
        s.degraded_submissions,
        s.fallback_intervals,
        s.emergency_replans,
    );
    Ok((out, Some(Outcome::Resilience(report))))
}

fn scale(
    peers: f64,
    channels: usize,
    config: SimConfig,
    tel: &Telemetry,
) -> Result<Report, CliError> {
    let mut out = format!(
        "scale run: {channels} channels, target {peers:.0} concurrent viewers, {} \
         ({} pool threads)\n",
        ran(&config, config.kernel),
        rayon::current_num_threads(),
    );
    let hours = config.trace.horizon_seconds / 3600.0;
    let started = std::time::Instant::now();
    let metrics = run_sim(config, tel)?.metrics;
    let wall = started.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "peak concurrent viewers: {}; mean streaming quality: {:.4}",
        metrics.peak_peers(),
        metrics.mean_quality()
    );
    bandwidth_line(&mut out, &metrics);
    let _ = writeln!(
        out,
        "wall time: {wall:.2}s ({:.1} sim-hours per wall-second)",
        hours / wall.max(1e-9)
    );
    if let Some(rss) = cloudmedia_sim::peak_rss_bytes() {
        let _ = writeln!(out, "peak RSS: {:.0} MB", rss as f64 / 1e6);
    }
    Ok((out, Some(Outcome::Metrics(metrics))))
}

/// Runs one simulation on an enabled registry and prints the per-stage
/// wall-time table, sorted by time spent.
///
/// Stage times come from the `stage/*` counters, which partition the
/// round loop without overlap — `prov/*` sub-stages are nested inside
/// `stage/provisioning` and are listed separately so nothing is counted
/// twice in the share column.
fn profile(config: SimConfig, tel: &Telemetry) -> Result<Report, CliError> {
    let what = ran(&config, config.kernel);
    let run = run_sim(config, tel)?;
    let snap = tel.snapshot();
    let stages = snap.sorted_by_value("stage/");
    let staged_ns: u64 = stages.iter().map(|&(_, v)| v).sum();
    let run_ns = snap.value(telem::RUN_WALL);
    let mut out = String::new();
    let _ = writeln!(out, "profile: {what}, {} rounds", snap.value(telem::ROUNDS));
    let _ = writeln!(out, "{:<24} {:>12} {:>8}", "stage", "time", "share");
    for &(name, ns) in &stages {
        if ns == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<24} {:>9.3} ms {:>7.1}%",
            name,
            ns as f64 / 1e6,
            ns as f64 / staged_ns.max(1) as f64 * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "{:<24} {:>9.3} ms (run wall {:.3} ms)",
        "total staged",
        staged_ns as f64 / 1e6,
        run_ns as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "mean streaming quality: {:.4} (telemetry never changes results)",
        run.metrics.mean_quality()
    );
    Ok((out, Some(Outcome::Metrics(run.metrics))))
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// A directory of its own for one test's files.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cloudmedia-cli-{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file(dir: &Path, name: &str) -> String {
        dir.join(name).to_string_lossy().into_owned()
    }

    /// A two-channel, one-hour C/S config: quick in a debug build.
    fn small_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
        cfg.catalog = cloudmedia_workload::catalog::Catalog::zipf(
            2,
            0.8,
            cloudmedia_workload::viewing::ViewingModel::paper_default(),
            40.0,
            300.0,
        )
        .unwrap();
        cfg.trace.horizon_seconds = 3600.0;
        cfg
    }

    fn write_config(path: &str, cfg: &SimConfig) {
        std::fs::write(path, serde_json::to_string(cfg).unwrap()).unwrap();
    }

    fn spec(hours: f64) -> RunSpec {
        RunSpec {
            hours: Some(hours),
            ..RunSpec::default()
        }
    }

    #[test]
    fn parse_chaos() {
        let c = parse(&["chaos", "vm-outage"]).unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Chaos {
                    scenario: ChaosPreset::VmOutage,
                    shed: false,
                },
                RunSpec::default()
            )
        );
        let c = parse(&[
            "chaos",
            "budget-cut",
            "--mode",
            "p2p",
            "--hours",
            "6",
            "--kernel",
            "indexed",
            "--shed",
            "--out",
            "r.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Chaos {
                    scenario: ChaosPreset::BudgetCut,
                    shed: true,
                },
                RunSpec {
                    mode: Some(SimMode::P2p),
                    hours: Some(6.0),
                    kernel: Some(SimKernel::Indexed),
                    out: Some("r.json".into()),
                    ..RunSpec::default()
                }
            )
        );
        assert!(parse(&["chaos"]).is_err(), "scenario required");
        assert!(parse(&["chaos", "meteor-strike"]).is_err());
    }

    #[test]
    fn chaos_schedules_scale_with_the_horizon() {
        let s = chaos_schedule(ChaosPreset::VmOutage, 36_000.0, false);
        assert_eq!(s.vm_failures[0].at, 18_000.0);
        assert_eq!(s.vm_failures[0].recovery_seconds, 9_000.0);
        assert_eq!(s.degrade, DegradeMode::DiluteAllStreams);
        let s = chaos_schedule(ChaosPreset::VmOutage, 36_000.0, true);
        assert_eq!(s.degrade, DegradeMode::ShedNewArrivals);
        let s = chaos_schedule(ChaosPreset::SiteOutage, 36_000.0, false);
        assert_eq!(s.site_outages[0].site, 1);
        s.validate().unwrap();
        chaos_schedule(ChaosPreset::BudgetCut, 36_000.0, false)
            .validate()
            .unwrap();
        chaos_schedule(ChaosPreset::TrackerDropout, 36_000.0, false)
            .validate()
            .unwrap();
    }

    #[test]
    fn chaos_site_outage_rejects_kernel_override() {
        let err = run(Command::Run(
            Run::Chaos {
                scenario: ChaosPreset::SiteOutage,
                shed: false,
            },
            RunSpec {
                kernel: Some(SimKernel::Indexed),
                ..spec(2.0)
            },
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "got {err:?}");
    }

    /// `--shed` acts only during a fleet outage, and only vm-outage has
    /// one: on every other scenario the flag is a usage error, not a
    /// silent no-op.
    #[test]
    fn shed_without_a_fleet_outage_is_a_usage_error() {
        for scenario in ["budget-cut", "tracker-dropout", "site-outage"] {
            let result = parse(&["chaos", scenario, "--shed", "--hours", "1"]).and_then(run);
            let Err(CliError::Usage(msg)) = result else {
                panic!("chaos {scenario} --shed: expected a usage error, got {result:?}");
            };
            assert!(
                msg.contains("--shed") && msg.contains(scenario),
                "unhelpful message for {scenario}: {msg}"
            );
        }
        let vm_outage = Run::Chaos {
            scenario: ChaosPreset::VmOutage,
            shed: true,
        };
        assert!(vm_outage.compose(&RunSpec::default()).is_ok());
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_analyze() {
        let c = parse(&["analyze", "--arrival-rate", "0.2"]).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                arrival_rate: 0.2,
                mean_upload: 34_000.0
            }
        );
        let c = parse(&["analyze", "--arrival-rate", "0.2", "--upload", "50000"]).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                arrival_rate: 0.2,
                mean_upload: 50_000.0
            }
        );
    }

    #[test]
    fn parse_plan() {
        let c = parse(&[
            "plan",
            "--arrival-rates",
            "0.1,0.2",
            "--mode",
            "p2p",
            "--budget",
            "50",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Plan {
                arrival_rates: vec![0.1, 0.2],
                mode: SimMode::P2p,
                budget: 50.0
            }
        );
    }

    #[test]
    fn parse_simulate_defaults() {
        let c = parse(&["simulate"]).unwrap();
        assert_eq!(c, Command::Run(Run::Simulate, RunSpec::default()));
        let config = Run::Simulate.compose(&RunSpec::default()).unwrap();
        assert_eq!(config.mode, SimMode::P2p);
        assert_eq!(config.trace.horizon_seconds, 24.0 * 3600.0);
    }

    #[test]
    fn parse_simulate_kernel_selection() {
        for (name, kernel) in [
            ("indexed", SimKernel::Indexed),
            ("event-driven", SimKernel::EventDriven),
            ("des", SimKernel::EventDriven),
        ] {
            let c = parse(&["simulate", "--kernel", name]).unwrap();
            assert!(
                matches!(
                    c,
                    Command::Run(Run::Simulate, RunSpec { kernel: Some(k), .. }) if k == kernel
                ),
                "--kernel {name} parsed wrong"
            );
        }
    }

    #[test]
    fn unknown_kernel_string_is_a_usage_error_not_a_fallback() {
        // The whole point: a typo must never silently run the default
        // engine (which would e.g. benchmark the wrong kernel).
        // `sharded` named the kernel whose partition every round engine
        // now runs, and `scan` the reference engine the tests keep as
        // their oracle; both are gone from the surface like any unknown
        // name.
        for bad in ["Indexed", "quantum", "scan2", "sharded", "scan", ""] {
            let err = parse(&["simulate", "--kernel", bad]).unwrap_err();
            match err {
                CliError::Usage(msg) => {
                    assert!(
                        msg.contains("unknown kernel")
                            && msg.contains(&format!("`{bad}`"))
                            && msg.contains("indexed|event-driven"),
                        "unhelpful message for `{bad}`: {msg}"
                    );
                }
                other => panic!("expected usage error for `{bad}`, got {other:?}"),
            }
        }
        // Missing value is also a usage error.
        assert!(matches!(
            parse(&["simulate", "--kernel"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn scheduler_is_an_unknown_flag() {
        let err = parse(&["des", "baseline", "--scheduler", "heap"]).unwrap_err();
        let CliError::Usage(msg) = &err else {
            panic!("expected a usage error, got: {err}");
        };
        assert_eq!(msg, "unknown flag `--scheduler`");
    }

    #[test]
    fn parse_des_scenarios() {
        let c = parse(&["des", "baseline"]).unwrap();
        assert_eq!(
            c,
            Command::Run(Run::Des(DesScenarioKind::Baseline), RunSpec::default())
        );
        let c = parse(&["des", "vm-failure", "--mode", "cs", "--hours", "6"]).unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Des(DesScenarioKind::VmFailure),
                RunSpec {
                    mode: Some(SimMode::ClientServer),
                    ..spec(6.0)
                }
            )
        );
        assert!(matches!(parse(&["des"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["des", "meteor"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn des_scenarios_build_their_specs() {
        let horizon = 10.0 * 3600.0;
        let mut config = SimConfig::paper_default(SimMode::P2p);
        config.trace.horizon_seconds = horizon;
        let plain = config.clone();
        assert_eq!(
            DesScenarioKind::Baseline.build(&mut config),
            DesScenario::default()
        );
        let boot = DesScenarioKind::BootDelay.build(&mut config);
        assert_eq!(boot.vm_boot_seconds, Some(300.0));
        let crowd = DesScenarioKind::FlashCrowd.build(&mut config);
        assert_eq!(crowd.flash_crowds.len(), 1);
        assert!(crowd.flash_crowds[0].at < horizon);
        assert_eq!(config, plain, "only vm-failure touches the config");
        // vm-failure runs the chaos vm-outage burst: half the fleet at
        // mid-run, repaired a quarter horizon later.
        let fail = DesScenarioKind::VmFailure.build(&mut config);
        assert_eq!(fail, DesScenario::default());
        assert_eq!(
            config.faults,
            FaultSchedule::vm_outage(0.5 * horizon, 0.5, 0.25 * horizon)
        );
    }

    #[test]
    fn des_baseline_short_run_reports_latency() {
        let out = run(Command::Run(
            Run::Des(DesScenarioKind::Baseline),
            RunSpec {
                mode: Some(SimMode::ClientServer),
                ..spec(1.0)
            },
        ))
        .unwrap();
        assert!(out.contains("admission latency"), "got: {out}");
        assert!(out.contains("Erlang-C predicted wait fraction"));
        assert!(out.contains("mean streaming quality"));
    }

    #[test]
    fn parse_geo_deployments() {
        let c = parse(&["geo", "federated"]).unwrap();
        assert_eq!(
            c,
            Command::Run(Run::Geo(DeploymentKind::Federated), RunSpec::default())
        );
        let c = parse(&["geo", "central", "--mode", "p2p", "--hours", "6"]).unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Geo(DeploymentKind::Central),
                RunSpec {
                    mode: Some(SimMode::P2p),
                    ..spec(6.0)
                }
            )
        );
        assert!(matches!(parse(&["geo"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["geo", "mars"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn geo_federated_short_run_reports_redirection() {
        let out = run(Command::Run(Run::Geo(DeploymentKind::Federated), spec(2.0))).unwrap();
        assert!(out.contains("total cost"), "got: {out}");
        assert!(out.contains("redirected share"));
        assert!(out.contains("americas"));
    }

    #[test]
    fn parse_scale_defaults_and_flags() {
        let c = parse(&["scale"]).unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Scale {
                    peers: 1_000_000.0,
                    channels: 2000,
                },
                RunSpec::default()
            )
        );
        let c = parse(&[
            "scale",
            "--peers",
            "200000",
            "--channels",
            "500",
            "--mode",
            "p2p",
            "--hours",
            "0.5",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Scale {
                    peers: 200_000.0,
                    channels: 500,
                },
                RunSpec {
                    mode: Some(SimMode::P2p),
                    ..spec(0.5)
                }
            )
        );
        assert!(matches!(
            parse(&["scale", "--channels", "many"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["scale", "--warp-speed"]),
            Err(CliError::Usage(_))
        ));
    }

    /// The removed `--no-quiesce` flag is an ordinary unknown flag on
    /// the three subcommands that once accepted it.
    #[test]
    fn no_quiesce_is_an_unknown_flag_on_run_subcommands() {
        for argv in [
            &["simulate", "--no-quiesce"][..],
            &["chaos", "vm-outage", "--no-quiesce"][..],
            &["scale", "--no-quiesce"][..],
        ] {
            let err = parse(argv).unwrap_err();
            let CliError::Usage(msg) = &err else {
                panic!("expected a usage error, got: {err}");
            };
            assert_eq!(msg, "unknown flag `--no-quiesce`", "argv {argv:?}");
        }
    }

    /// The removed `--serial` flag is an ordinary unknown flag on the two
    /// subcommands that once accepted it: `RAYON_NUM_THREADS=1` steps the
    /// shards inline the same way.
    #[test]
    fn serial_is_an_unknown_flag_on_chaos_and_scale() {
        for argv in [
            &["chaos", "site-outage", "--serial"][..],
            &["chaos", "vm-outage", "--serial"][..],
            &["scale", "--serial"][..],
        ] {
            let err = parse(argv).unwrap_err();
            let CliError::Usage(msg) = &err else {
                panic!("expected a usage error, got: {err}");
            };
            assert_eq!(msg, "unknown flag `--serial`", "argv {argv:?}");
        }
    }

    /// The removed sub-channel `--lanes` flag is an ordinary unknown
    /// flag.
    #[test]
    fn scale_lanes_is_an_unknown_flag() {
        let err = parse(&["scale", "--lanes", "4"]).unwrap_err();
        let CliError::Usage(msg) = &err else {
            panic!("expected a usage error, got: {err}");
        };
        assert_eq!(msg, "unknown flag `--lanes`");
    }

    #[test]
    fn scale_short_run_reports_throughput() {
        // Population and channel count kept tiny so the test stays fast.
        let out = run(Command::Run(
            Run::Scale {
                peers: 300.0,
                channels: 6,
            },
            RunSpec::default(),
        ))
        .unwrap();
        assert!(out.contains("scale run: 6 channels"), "got: {out}");
        assert!(out.contains("1.0 h in ClientServer mode"), "got: {out}");
        assert!(out.contains("sim-hours per wall-second"));
        assert!(out.contains("peak concurrent viewers"));
    }

    #[test]
    fn scale_rejects_bad_configs() {
        let err = run(Command::Run(
            Run::Scale {
                peers: -5.0,
                channels: 6,
            },
            RunSpec::default(),
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("invalid scale configuration"),
            "got: {err}"
        );
    }

    #[test]
    fn parse_errors_are_usage_errors() {
        assert!(matches!(parse(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["analyze"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["analyze", "--arrival-rate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["analyze", "--arrival-rate", "abc"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["simulate", "--mode", "ftp"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["plan", "--arrival-rates", ""]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_runs_and_reports_p2p_savings() {
        let out = run(Command::Analyze {
            arrival_rate: 0.2,
            mean_upload: 34_000.0,
        })
        .unwrap();
        assert!(out.contains("client-server cloud demand"));
        assert!(out.contains("P2P cloud demand"));
    }

    #[test]
    fn plan_runs_for_multiple_channels() {
        let out = run(Command::Plan {
            arrival_rates: vec![0.1, 0.05],
            mode: SimMode::ClientServer,
            budget: 100.0,
        })
        .unwrap();
        assert!(out.contains("VM targets"));
        assert!(out.contains("storage placement"));
    }

    #[test]
    fn plan_surfaces_infeasible_budget() {
        let err = run(Command::Plan {
            arrival_rates: vec![0.5],
            mode: SimMode::ClientServer,
            budget: 0.5,
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("increase the budget"),
            "got: {err}"
        );
    }

    #[test]
    fn default_config_round_trips() {
        let out = run(Command::DefaultConfig { mode: SimMode::P2p }).unwrap();
        let parsed: SimConfig = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed, SimConfig::paper_default(SimMode::P2p));
    }

    #[test]
    fn parse_telemetry_flags_on_every_run_subcommand() {
        let files = RunSpec {
            telemetry: Some("m.json".into()),
            trace: Some("t.json".into()),
            ..RunSpec::default()
        };
        let cases: &[&[&str]] = &[
            &["simulate", "--telemetry", "m.json", "--trace", "t.json"],
            &[
                "des",
                "baseline",
                "--telemetry",
                "m.json",
                "--trace",
                "t.json",
            ],
            &[
                "geo",
                "federated",
                "--telemetry",
                "m.json",
                "--trace",
                "t.json",
            ],
            &[
                "chaos",
                "vm-outage",
                "--telemetry",
                "m.json",
                "--trace",
                "t.json",
            ],
            &["scale", "--telemetry", "m.json", "--trace", "t.json"],
            &["profile", "--telemetry", "m.json", "--trace", "t.json"],
        ];
        for args in cases {
            let Command::Run(_, parsed) = parse(args).unwrap() else {
                panic!("{args:?} is not a run subcommand");
            };
            assert_eq!(parsed, files, "args: {args:?}");
        }
        // A missing value is a usage error, as for every other flag.
        assert!(matches!(
            parse(&["simulate", "--telemetry"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["scale", "--trace"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_profile() {
        let c = parse(&["profile"]).unwrap();
        assert_eq!(c, Command::Run(Run::Profile, RunSpec::default()));
        let c = parse(&[
            "profile",
            "--mode",
            "cs",
            "--hours",
            "2",
            "--kernel",
            "event-driven",
            "--out",
            "p.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Run(
                Run::Profile,
                RunSpec {
                    mode: Some(SimMode::ClientServer),
                    kernel: Some(SimKernel::EventDriven),
                    out: Some("p.json".into()),
                    ..spec(2.0)
                }
            )
        );
        assert!(matches!(
            parse(&["profile", "--kernel", "quantum"]),
            Err(CliError::Usage(_))
        ));
    }

    /// `profile` prints the stage table on its own registry; `--out`
    /// writes the metrics as `simulate --out` does, and `--telemetry`
    /// the registry snapshot.
    #[test]
    fn profile_short_run_prints_stage_table() {
        let dir = test_dir("profile");
        let (metrics_path, snapshot_path) = (file(&dir, "metrics.json"), file(&dir, "snap.json"));
        let out = run(Command::Run(
            Run::Profile,
            RunSpec {
                mode: Some(SimMode::ClientServer),
                kernel: Some(SimKernel::Indexed),
                out: Some(metrics_path.clone()),
                telemetry: Some(snapshot_path.clone()),
                ..spec(1.0)
            },
        ))
        .unwrap();
        assert!(
            out.contains("profile: 1.0 h in ClientServer mode on the Indexed engine"),
            "got: {out}"
        );
        assert!(out.contains("stage/advance"), "got: {out}");
        assert!(out.contains("total staged"), "got: {out}");
        assert!(out.contains("run wall"), "got: {out}");
        // Shares are printed per stage; at least one line carries one.
        assert!(out.contains('%'), "got: {out}");
        let metrics: cloudmedia_sim::metrics::Metrics =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(!metrics.samples.is_empty());
        let snapshot = std::fs::read_to_string(&snapshot_path).unwrap();
        assert!(snapshot.contains("cloudmedia-telemetry/v1"), "{snapshot}");
    }

    #[test]
    fn simulate_writes_telemetry_and_trace_files() {
        let dir = test_dir("telemetry");
        let m_path = dir.join("metrics-snapshot.json");
        let t_path = dir.join("run.trace.json");
        let out = run(Command::Run(
            Run::Simulate,
            RunSpec {
                mode: Some(SimMode::ClientServer),
                kernel: Some(SimKernel::Indexed),
                telemetry: Some(m_path.to_string_lossy().into_owned()),
                trace: Some(t_path.to_string_lossy().into_owned()),
                ..spec(1.0)
            },
        ))
        .unwrap();
        assert!(out.contains("telemetry snapshot written to"), "got: {out}");
        assert!(out.contains("trace written to"), "got: {out}");

        use serde::Value;
        let snapshot: Value =
            serde_json::from_str(&std::fs::read_to_string(&m_path).unwrap()).unwrap();
        assert_eq!(
            snapshot.get("schema"),
            Some(&Value::String("cloudmedia-telemetry/v1".into()))
        );
        let Some(Value::Array(metrics)) = snapshot.get("metrics") else {
            panic!("snapshot has no metrics array");
        };
        assert!(metrics.iter().any(|m| {
            m.get("name") == Some(&Value::String("rounds".into()))
                && matches!(m.get("value"), Some(Value::UInt(n)) if *n > 0)
        }));

        let trace: Value =
            serde_json::from_str(&std::fs::read_to_string(&t_path).unwrap()).unwrap();
        let Some(Value::Array(events)) = trace.get("traceEvents") else {
            panic!("trace has no traceEvents array");
        };
        assert!(!events.is_empty(), "trace should contain span events");
        let ph = |e: &Value, p: &str| e.get("ph") == Some(&Value::String(p.into()));
        let begins = events.iter().filter(|e| ph(e, "B")).count();
        let ends = events.iter().filter(|e| ph(e, "E")).count();
        assert_eq!(begins, ends, "unbalanced begin/end pairs");
    }

    #[test]
    fn des_reports_kernel_health() {
        let out = run(Command::Run(
            Run::Des(DesScenarioKind::Baseline),
            RunSpec {
                mode: Some(SimMode::ClientServer),
                ..spec(1.0)
            },
        ))
        .unwrap();
        assert!(out.contains("kernel health:"), "got: {out}");
        assert!(out.contains("peak"), "got: {out}");
        assert!(out.contains("cancelled"), "got: {out}");
    }

    #[test]
    fn simulate_short_run_with_json_output() {
        let dir = test_dir("simulate");
        let out_path = file(&dir, "metrics.json");
        // A tiny config file exercises --config too.
        let cfg_path = file(&dir, "config.json");
        write_config(&cfg_path, &small_config());
        let out = run(Command::Run(
            Run::Simulate,
            RunSpec {
                config: Some(cfg_path),
                out: Some(out_path.clone()),
                ..RunSpec::default()
            },
        ))
        .unwrap();
        assert!(out.contains("mean streaming quality"));
        assert!(
            out.contains("simulated 1.0 h in ClientServer mode"),
            "{out}"
        );
        let metrics: cloudmedia_sim::metrics::Metrics =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(!metrics.samples.is_empty());
    }

    /// Every shared flag on every run subcommand either shows in the
    /// composed config or the run's files, or is a usage error that
    /// names the flag and the subcommand. The refused pairs are pinned.
    #[test]
    fn every_shared_flag_applies_or_is_refused_by_name() {
        let dir = test_dir("every-flag");
        let mut from_file = small_config();
        from_file.behaviour_seed = 4242;
        let config = file(&dir, "config.json");
        write_config(&config, &from_file);
        let runs = [
            Run::Simulate,
            Run::Des(DesScenarioKind::Baseline),
            Run::Geo(DeploymentKind::Federated),
            Run::Chaos {
                scenario: ChaosPreset::VmOutage,
                shed: false,
            },
            Run::Chaos {
                scenario: ChaosPreset::SiteOutage,
                shed: false,
            },
            Run::Scale {
                peers: 300.0,
                channels: 6,
            },
            Run::Profile,
        ];
        let mut refused = Vec::new();
        for run in runs {
            let preset = run.compose(&RunSpec::default()).unwrap();
            let mode = match preset.mode {
                SimMode::P2p => SimMode::ClientServer,
                SimMode::ClientServer => SimMode::P2p,
            };
            let mut hours = preset.clone();
            hours.trace.horizon_seconds = 1800.0;
            let written = |name: &str| Some(file(&dir, name));
            let flags = [
                (
                    "--mode",
                    RunSpec {
                        mode: Some(mode),
                        ..RunSpec::default()
                    },
                    Some(SimConfig {
                        mode,
                        ..preset.clone()
                    }),
                ),
                ("--hours", spec(0.5), Some(hours)),
                (
                    "--kernel",
                    RunSpec {
                        kernel: Some(SimKernel::EventDriven),
                        ..RunSpec::default()
                    },
                    Some(SimConfig {
                        kernel: SimKernel::EventDriven,
                        ..preset.clone()
                    }),
                ),
                (
                    "--config",
                    RunSpec {
                        config: Some(config.clone()),
                        ..RunSpec::default()
                    },
                    Some(from_file.clone()),
                ),
                (
                    "--out",
                    RunSpec {
                        out: written("out.json"),
                        ..spec(0.25)
                    },
                    None,
                ),
                (
                    "--telemetry",
                    RunSpec {
                        telemetry: written("snap.json"),
                        ..spec(0.25)
                    },
                    None,
                ),
                (
                    "--trace",
                    RunSpec {
                        trace: written("trace.json"),
                        ..spec(0.25)
                    },
                    None,
                ),
            ];
            for (flag, spec, composed) in flags {
                let name = format!("{} {flag}", run.name());
                match (run.compose(&spec), composed) {
                    (Err(CliError::Usage(msg)), _) => {
                        assert!(
                            msg.contains(flag) && msg.contains(&run.name()),
                            "{name}: {msg}"
                        );
                        refused.push(name);
                    }
                    (Ok(got), Some(want)) => assert_eq!(got, want, "{name}"),
                    // A file flag: a short run writes the file and says so.
                    (Ok(_), None) => {
                        let path = [&spec.out, &spec.telemetry, &spec.trace]
                            .into_iter()
                            .flatten()
                            .next()
                            .unwrap();
                        let out = run.execute(&spec).unwrap();
                        assert!(out.contains(&format!("written to {path}")), "{name}: {out}");
                        let text = std::fs::read_to_string(path).unwrap();
                        assert!(text.starts_with('{'), "{name}: {text}");
                        std::fs::remove_file(path).unwrap();
                    }
                    (Err(e), _) => panic!("{name}: {e}"),
                }
            }
        }
        assert_eq!(
            refused,
            [
                "des --kernel",
                "geo --config",
                "geo --out",
                "chaos site-outage --kernel",
                "chaos site-outage --config",
                "scale --config",
            ]
        );
    }

    /// `--mode` and `--hours` apply over a `--config` file: the
    /// `default-config` week with `--hours 2 --mode cs` runs exactly what
    /// the flags alone run, and the header says what ran.
    #[test]
    fn flags_apply_over_a_config_file() {
        let dir = test_dir("config-then-flags");
        let config = file(&dir, "paper.json");
        let default_config = run(parse(&["default-config"]).unwrap()).unwrap();
        std::fs::write(&config, default_config).unwrap();
        let (a, b) = (file(&dir, "a.json"), file(&dir, "b.json"));
        let via_file = parse(&[
            "simulate", "--config", &config, "--hours", "2", "--mode", "cs", "--out", &a,
        ])
        .and_then(run)
        .unwrap();
        parse(&["simulate", "--hours", "2", "--mode", "cs", "--out", &b])
            .and_then(run)
            .unwrap();
        assert!(
            std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap(),
            "the config file's week ran instead of the flags' 2 h"
        );
        let header = via_file.lines().next().unwrap();
        assert!(
            header.contains("2.0 h") && header.contains("ClientServer"),
            "{header}"
        );
    }

    /// A `--config` file's faults stay in chaos's faulted run, beside
    /// the scenario's, and its baseline runs with no faults at all.
    #[test]
    fn chaos_config_keeps_a_fault_free_baseline() {
        let dir = test_dir("chaos-config");
        let mut faulted = small_config();
        faulted.faults = FaultSchedule::vm_outage(900.0, 0.5, 900.0);
        let config = file(&dir, "faulted.json");
        write_config(&config, &faulted);
        let run = Run::Chaos {
            scenario: ChaosPreset::BudgetCut,
            shed: false,
        };
        let spec = RunSpec {
            config: Some(config),
            ..RunSpec::default()
        };
        let composed = run.compose(&spec).unwrap();
        assert_eq!(composed, faulted);
        let tel = Telemetry::disabled();
        let Ok((_, Some(Outcome::Resilience(report)))) =
            chaos(ChaosPreset::BudgetCut, false, composed, &tel)
        else {
            panic!("chaos returns its resilience report");
        };
        let mut clean = faulted;
        clean.faults = FaultSchedule::default();
        let fault_free = run_sim(clean, &tel).unwrap().metrics;
        assert_eq!(report.baseline_mean_quality, fault_free.mean_quality());
        // The budget cut kills no VM; the file's fleet outage does.
        assert!(report.fault_stats.vms_killed > 0, "{report:?}");
    }
}
