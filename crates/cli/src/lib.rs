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
//! - `cloudmedia profile` — a telemetry-instrumented run that prints the
//!   per-stage wall-time table (sorted, with shares) for any kernel,
//! - `cloudmedia default-config` — prints the paper-default simulation
//!   configuration as editable JSON.
//!
//! The run-style subcommands (`simulate`, `des`, `geo`, `chaos`, `scale`)
//! all accept `--telemetry FILE` (metrics-registry snapshot JSON) and
//! `--trace FILE` (Chrome trace-event JSON, loadable in Perfetto or
//! `chrome://tracing`). Telemetry is a pure side channel: the simulation
//! output is bit-identical with the flags on or off.
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
use cloudmedia_sim::event_driven::{DesScenario, FlashCrowdSpec};
use cloudmedia_sim::faults::{DegradeMode, FaultSchedule, ResilienceReport};
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_telemetry::Telemetry;

/// Telemetry output options shared by the run-style subcommands.
///
/// Both paths are optional; when neither is set the run uses the no-op
/// telemetry sink and pays one predicted branch per recording site.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryOpts {
    /// `--telemetry FILE`: write the metrics-registry snapshot JSON here.
    pub metrics_path: Option<String>,
    /// `--trace FILE`: write Chrome trace-event JSON here (Perfetto /
    /// `chrome://tracing`).
    pub trace_path: Option<String>,
}

impl TelemetryOpts {
    /// Builds the registry for a run: enabled iff either output was
    /// requested, tracing iff `--trace` was.
    fn registry(&self) -> Telemetry {
        if self.metrics_path.is_some() || self.trace_path.is_some() {
            telem::new_registry(self.trace_path.is_some())
        } else {
            Telemetry::disabled()
        }
    }

    /// Writes the requested outputs and appends a confirmation line per
    /// file to `out`.
    fn write(&self, tel: &Telemetry, out: &mut String) -> Result<(), CliError> {
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, tel.snapshot().metrics_json())
                .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "telemetry snapshot written to {path}");
        }
        if let Some(path) = &self.trace_path {
            std::fs::write(path, tel.trace_json())
                .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "trace written to {path}");
        }
        Ok(())
    }
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
    /// Run a full simulation.
    Simulate {
        /// Streaming architecture.
        mode: SimMode,
        /// Horizon in hours.
        hours: f64,
        /// Simulation engine override
        /// (`--kernel scan|indexed|event-driven`).
        kernel: Option<SimKernel>,
        /// Optional JSON config file overriding the paper defaults.
        config_path: Option<String>,
        /// Optional path to write the full metrics JSON.
        out_path: Option<String>,
        /// Telemetry / trace output options.
        telemetry: TelemetryOpts,
    },
    /// Run an event-driven scenario on the DES kernel.
    Des {
        /// Scenario name.
        scenario: DesScenarioKind,
        /// Streaming architecture.
        mode: SimMode,
        /// Horizon in hours.
        hours: f64,
        /// Optional path to write the full `DesRun` JSON.
        out_path: Option<String>,
        /// Telemetry / trace output options.
        telemetry: TelemetryOpts,
    },
    /// Run a multi-region deployment.
    Geo {
        /// Which deployment to run.
        deployment: DeploymentKind,
        /// Streaming architecture.
        mode: SimMode,
        /// Horizon in hours.
        hours: f64,
        /// Telemetry / trace output options.
        telemetry: TelemetryOpts,
    },
    /// Run a fault-injection scenario against a fault-free baseline and
    /// report the resilience metrics.
    Chaos {
        /// Which fault to inject.
        scenario: ChaosScenarioKind,
        /// Streaming architecture.
        mode: SimMode,
        /// Horizon in hours.
        hours: f64,
        /// Engine override for the single-site scenarios
        /// (`--kernel scan|indexed|event-driven`); `site-outage`
        /// always runs the federated simulator.
        kernel: Option<SimKernel>,
        /// Force serial execution (`--serial`): no channel sharding, no
        /// parallel regions. The report must be bit-identical either way.
        serial: bool,
        /// Shed new arrivals during fleet outages instead of diluting
        /// every stream (`--shed`).
        shed: bool,
        /// Optional path to write the resilience report JSON.
        out_path: Option<String>,
        /// Telemetry / trace output options (recorded on the faulted run).
        telemetry: TelemetryOpts,
    },
    /// Run a scale-out mega-catalog scenario (the Indexed engine fans the
    /// channel shards out over the pool).
    Scale {
        /// Target steady-state concurrent viewers.
        peers: f64,
        /// Number of Zipf channels in the mega catalog.
        channels: usize,
        /// Streaming architecture.
        mode: SimMode,
        /// Horizon in hours.
        hours: f64,
        /// Force serial shard stepping (`--serial`).
        serial: bool,
        /// Optional path to write the full metrics JSON.
        out_path: Option<String>,
        /// Telemetry / trace output options.
        telemetry: TelemetryOpts,
    },
    /// Run one telemetry-instrumented simulation and print the sorted
    /// per-stage wall-time table.
    Profile {
        /// Streaming architecture.
        mode: SimMode,
        /// Horizon in hours.
        hours: f64,
        /// Simulation engine override
        /// (`--kernel scan|indexed|event-driven`).
        kernel: Option<SimKernel>,
        /// Optional path to also write the metrics snapshot JSON.
        out_path: Option<String>,
    },
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
    /// sets its fault schedule instead.
    fn build(self, config: &mut SimConfig) -> DesScenario {
        let horizon = config.trace.horizon_seconds;
        match self {
            Self::Baseline => DesScenario::default(),
            Self::BootDelay => DesScenario {
                vm_boot_seconds: Some(300.0),
                ..DesScenario::default()
            },
            Self::VmFailure => {
                config.faults = ChaosScenarioKind::VmOutage.build(horizon, false);
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

/// The named fault scenarios `cloudmedia chaos` offers. Every fault
/// instant is a fixed fraction of the horizon so any `--hours` value
/// exercises the full fault-and-recovery arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenarioKind {
    /// Half the VM fleet fails at mid-run and is repaired a quarter
    /// horizon later.
    VmOutage,
    /// Federated deployment: site 1 goes dark at 40 % of the horizon for
    /// a quarter horizon; the placement optimizer re-plans around it.
    SiteOutage,
    /// The VM rental budget is cut in half at mid-run.
    BudgetCut,
    /// Tracker measurements go dark from 35 % to 65 % of the horizon;
    /// the controller replays its last-known-good plan.
    TrackerDropout,
}

impl ChaosScenarioKind {
    fn parse(v: &str) -> Result<Self, CliError> {
        match v {
            "vm-outage" => Ok(Self::VmOutage),
            "site-outage" => Ok(Self::SiteOutage),
            "budget-cut" => Ok(Self::BudgetCut),
            "tracker-dropout" => Ok(Self::TrackerDropout),
            other => Err(CliError::Usage(format!(
                "unknown chaos scenario `{other}` \
                 (use vm-outage|site-outage|budget-cut|tracker-dropout)"
            ))),
        }
    }

    /// Builds the fault schedule for a run of `horizon` seconds.
    fn build(self, horizon: f64, shed: bool) -> FaultSchedule {
        let mut schedule = match self {
            Self::VmOutage => FaultSchedule::vm_outage(0.5 * horizon, 0.5, 0.25 * horizon),
            Self::SiteOutage => FaultSchedule::site_outage(0.4 * horizon, 1, 0.25 * horizon),
            // 0.2 of the paper's $100/h ceiling undercuts the ~$29/h the
            // client-server deployment actually spends, so the cut binds
            // and the planner dilutes streams best-effort.
            Self::BudgetCut => FaultSchedule::budget_shock(0.5 * horizon, 0.2),
            Self::TrackerDropout => FaultSchedule::tracker_blackout(0.35 * horizon, 0.3 * horizon),
        };
        if shed {
            schedule.degrade = DegradeMode::ShedNewArrivals;
        }
        schedule
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
  cloudmedia simulate [--mode cs|p2p] [--hours H]
                      [--kernel scan|indexed|event-driven]
                      [--config FILE] [--out FILE]
  cloudmedia des <baseline|boot-delay|vm-failure|flash-crowd>
                 [--mode cs|p2p] [--hours H] [--out FILE]
  cloudmedia geo <independent|federated|central> [--mode cs|p2p] [--hours H]
  cloudmedia chaos <vm-outage|site-outage|budget-cut|tracker-dropout>
                   [--mode cs|p2p] [--hours H]
                   [--kernel scan|indexed|event-driven]
                   [--serial] [--shed] [--out FILE]
  cloudmedia scale [--peers N] [--channels C] [--mode cs|p2p] [--hours H]
                   [--serial] [--out FILE]
  cloudmedia profile [--mode cs|p2p] [--hours H]
                     [--kernel scan|indexed|event-driven] [--out FILE]
  cloudmedia default-config [--mode cs|p2p]
  cloudmedia help

Every run-style subcommand (simulate, des, geo, chaos, scale) also accepts:
  --telemetry FILE   write the metrics-registry snapshot as JSON
  --trace FILE       write Chrome trace-event JSON (Perfetto / chrome://tracing)
Telemetry never changes simulation results: outputs are bit-identical
with the flags on or off.
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
        "scan" => Ok(SimKernel::Scan),
        "indexed" => Ok(SimKernel::Indexed),
        "event-driven" | "des" => Ok(SimKernel::EventDriven),
        other => Err(CliError::Usage(format!(
            "unknown kernel `{other}` (use scan|indexed|event-driven)"
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
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--budget" => budget = parse_f64(take_value(&mut it, flag)?, flag)?,
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
        "simulate" => {
            let mut mode = SimMode::P2p;
            let mut hours = 24.0;
            let mut kernel = None;
            let mut config_path = None;
            let mut out_path = None;
            let mut telemetry = TelemetryOpts::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--hours" => hours = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--kernel" => kernel = Some(parse_kernel(take_value(&mut it, flag)?)?),
                    "--config" => config_path = Some(take_value(&mut it, flag)?.to_owned()),
                    "--out" => out_path = Some(take_value(&mut it, flag)?.to_owned()),
                    "--telemetry" => {
                        telemetry.metrics_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    "--trace" => {
                        telemetry.trace_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Simulate {
                mode,
                hours,
                kernel,
                config_path,
                out_path,
                telemetry,
            })
        }
        "des" => {
            let scenario = it
                .next()
                .ok_or_else(|| CliError::Usage("des requires a scenario".into()))
                .and_then(DesScenarioKind::parse)?;
            let mut mode = SimMode::P2p;
            let mut hours = 24.0;
            let mut out_path = None;
            let mut telemetry = TelemetryOpts::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--hours" => hours = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--out" => out_path = Some(take_value(&mut it, flag)?.to_owned()),
                    "--telemetry" => {
                        telemetry.metrics_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    "--trace" => {
                        telemetry.trace_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Des {
                scenario,
                mode,
                hours,
                out_path,
                telemetry,
            })
        }
        "geo" => {
            let deployment = it
                .next()
                .ok_or_else(|| CliError::Usage("geo requires a deployment".into()))
                .and_then(parse_deployment)?;
            let mut mode = SimMode::ClientServer;
            let mut hours = 24.0;
            let mut telemetry = TelemetryOpts::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--hours" => hours = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--telemetry" => {
                        telemetry.metrics_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    "--trace" => {
                        telemetry.trace_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Geo {
                deployment,
                mode,
                hours,
                telemetry,
            })
        }
        "chaos" => {
            let scenario = it
                .next()
                .ok_or_else(|| CliError::Usage("chaos requires a scenario".into()))
                .and_then(ChaosScenarioKind::parse)?;
            let mut mode = SimMode::ClientServer;
            let mut hours = 24.0;
            let mut kernel = None;
            let mut serial = false;
            let mut shed = false;
            let mut out_path = None;
            let mut telemetry = TelemetryOpts::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--hours" => hours = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--kernel" => kernel = Some(parse_kernel(take_value(&mut it, flag)?)?),
                    "--serial" => serial = true,
                    "--shed" => shed = true,
                    "--out" => out_path = Some(take_value(&mut it, flag)?.to_owned()),
                    "--telemetry" => {
                        telemetry.metrics_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    "--trace" => {
                        telemetry.trace_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Chaos {
                scenario,
                mode,
                hours,
                kernel,
                serial,
                shed,
                out_path,
                telemetry,
            })
        }
        "scale" => {
            let mut peers = 1_000_000.0_f64;
            let mut channels = 2000usize;
            let mut mode = SimMode::ClientServer;
            let mut hours = 1.0;
            let mut serial = false;
            let mut out_path = None;
            let mut telemetry = TelemetryOpts::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--peers" => peers = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--channels" => {
                        let v = take_value(&mut it, flag)?;
                        channels = v.parse().map_err(|_| {
                            CliError::Usage(format!("bad value `{v}` for --channels"))
                        })?;
                    }
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--hours" => hours = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--serial" => serial = true,
                    "--out" => out_path = Some(take_value(&mut it, flag)?.to_owned()),
                    "--telemetry" => {
                        telemetry.metrics_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    "--trace" => {
                        telemetry.trace_path = Some(take_value(&mut it, flag)?.to_owned());
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Scale {
                peers,
                channels,
                mode,
                hours,
                serial,
                out_path,
                telemetry,
            })
        }
        "profile" => {
            let mut mode = SimMode::P2p;
            let mut hours = 24.0;
            let mut kernel = None;
            let mut out_path = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    "--hours" => hours = parse_f64(take_value(&mut it, flag)?, flag)?,
                    "--kernel" => kernel = Some(parse_kernel(take_value(&mut it, flag)?)?),
                    "--out" => out_path = Some(take_value(&mut it, flag)?.to_owned()),
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Profile {
                mode,
                hours,
                kernel,
                out_path,
            })
        }
        "default-config" => {
            let mut mode = SimMode::P2p;
            while let Some(flag) = it.next() {
                match flag {
                    "--mode" => mode = parse_mode(take_value(&mut it, flag)?)?,
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::DefaultConfig { mode })
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
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
/// Returns [`CliError::Run`] with a user-facing message on failure.
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
        Command::Simulate {
            mode,
            hours,
            kernel,
            config_path,
            out_path,
            telemetry,
        } => simulate(
            mode,
            hours,
            kernel,
            config_path.as_deref(),
            out_path.as_deref(),
            &telemetry,
        ),
        Command::Des {
            scenario,
            mode,
            hours,
            out_path,
            telemetry,
        } => des(scenario, mode, hours, out_path.as_deref(), &telemetry),
        Command::Geo {
            deployment,
            mode,
            hours,
            telemetry,
        } => geo(deployment, mode, hours, &telemetry),
        Command::Chaos {
            scenario,
            mode,
            hours,
            kernel,
            serial,
            shed,
            out_path,
            telemetry,
        } => chaos(
            scenario,
            mode,
            hours,
            kernel,
            serial,
            shed,
            out_path.as_deref(),
            &telemetry,
        ),
        Command::Scale {
            peers,
            channels,
            mode,
            hours,
            serial,
            out_path,
            telemetry,
        } => scale(
            peers,
            channels,
            mode,
            hours,
            serial,
            out_path.as_deref(),
            &telemetry,
        ),
        Command::Profile {
            mode,
            hours,
            kernel,
            out_path,
        } => profile(mode, hours, kernel, out_path.as_deref()),
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

fn simulate(
    mode: SimMode,
    hours: f64,
    kernel: Option<SimKernel>,
    config_path: Option<&str>,
    out_path: Option<&str>,
    telemetry: &TelemetryOpts,
) -> Result<String, CliError> {
    let mut config = match config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
            serde_json::from_str::<SimConfig>(&text)
                .map_err(|e| CliError::Run(format!("bad config {path}: {e}")))?
        }
        None => SimConfig::paper_default(mode),
    };
    if config_path.is_none() {
        config.trace.horizon_seconds = hours * 3600.0;
    }
    if let Some(kernel) = kernel {
        config.kernel = kernel;
    }
    let tel = telemetry.registry();
    let metrics = Simulator::new(config)
        .map_err(|e| CliError::Run(format!("invalid configuration: {e}")))?
        .run_with_telemetry(&tel)
        .map_err(|e| CliError::Run(format!("simulation failed: {e}")))?
        .metrics;
    if let Some(path) = out_path {
        let json = serde_json::to_string(&metrics)
            .map_err(|e| CliError::Run(format!("serializing metrics failed: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "simulated {:.1} h in {mode:?} mode", hours);
    let _ = writeln!(out, "mean streaming quality: {:.4}", metrics.mean_quality());
    let _ = writeln!(
        out,
        "cloud bandwidth: reserved {:.1} Mbps, used {:.1} Mbps (coverage {:.3})",
        metrics.mean_reserved_bandwidth() * 8.0 / 1e6,
        metrics.mean_used_bandwidth() * 8.0 / 1e6,
        metrics.provision_coverage(),
    );
    let _ = writeln!(
        out,
        "VM rental: ${:.2} total (${:.2}/h mean); storage: ${:.4} total",
        metrics.total_vm_cost,
        metrics.mean_vm_hourly_cost(),
        metrics.total_storage_cost,
    );
    let _ = writeln!(out, "peak concurrent viewers: {}", metrics.peak_peers());
    if let Some(path) = out_path {
        let _ = writeln!(out, "full metrics written to {path}");
    }
    telemetry.write(&tel, &mut out)?;
    Ok(out)
}

fn des(
    scenario: DesScenarioKind,
    mode: SimMode,
    hours: f64,
    out_path: Option<&str>,
    telemetry: &TelemetryOpts,
) -> Result<String, CliError> {
    let mut config = SimConfig::paper_default(mode);
    config.trace.horizon_seconds = hours * 3600.0;
    let spec = scenario.build(&mut config);
    let tel = telemetry.registry();
    let run = cloudmedia_sim::event_driven::run_with_telemetry(&config, &spec, &tel)
        .map_err(|e| CliError::Run(format!("event-driven run failed: {e}")))?;
    if let Some(path) = out_path {
        let json = serde_json::to_string(&run)
            .map_err(|e| CliError::Run(format!("serializing run failed: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    let m = &run.metrics;
    let r = &run.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "event-driven run: {scenario:?} scenario, {hours:.1} h in {mode:?} mode \
         ({} events)",
        r.events_delivered
    );
    let _ = writeln!(out, "mean streaming quality: {:.4}", m.mean_quality());
    let _ = writeln!(
        out,
        "cloud bandwidth: reserved {:.1} Mbps, used {:.1} Mbps (coverage {:.3})",
        m.mean_reserved_bandwidth() * 8.0 / 1e6,
        m.mean_used_bandwidth() * 8.0 / 1e6,
        m.provision_coverage(),
    );
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
    if let Some(path) = out_path {
        let _ = writeln!(out, "full run written to {path}");
    }
    telemetry.write(&tel, &mut out)?;
    Ok(out)
}

fn geo(
    deployment: DeploymentKind,
    mode: SimMode,
    hours: f64,
    telemetry: &TelemetryOpts,
) -> Result<String, CliError> {
    let config = FederatedConfig::paper_default(deployment, mode, hours);
    let tel = telemetry.registry();
    let m = FederatedSimulator::new(config)
        .map_err(|e| CliError::Run(format!("invalid federation config: {e}")))?
        .run_with_telemetry(&tel)
        .map_err(|e| CliError::Run(format!("federated run failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "geo {deployment:?} deployment: {hours:.1} h in {mode:?} mode, {} region(s)",
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
    telemetry.write(&tel, &mut out)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)] // mirrors Command::Chaos's fields one-to-one
fn chaos(
    scenario: ChaosScenarioKind,
    mode: SimMode,
    hours: f64,
    kernel: Option<SimKernel>,
    serial: bool,
    shed: bool,
    out_path: Option<&str>,
    telemetry: &TelemetryOpts,
) -> Result<String, CliError> {
    let horizon = hours * 3600.0;
    let schedule = scenario.build(horizon, shed);
    let fault_start = schedule.first_fault_at().unwrap_or(0.0);
    // Telemetry records the faulted run — the one whose fault plane the
    // registry's `faults/*` counters mirror. The baseline runs dark.
    let tel = telemetry.registry();
    let report = if scenario == ChaosScenarioKind::SiteOutage {
        if kernel.is_some() {
            return Err(CliError::Usage(
                "site-outage always runs the federated simulator; --kernel does not apply".into(),
            ));
        }
        let mut fc = FederatedConfig::paper_default(DeploymentKind::Federated, mode, hours);
        fc.base.parallel_channels = !serial;
        let baseline = FederatedSimulator::new(fc.clone())
            .map_err(|e| CliError::Run(format!("invalid federation config: {e}")))?
            .run()
            .map_err(|e| CliError::Run(format!("baseline run failed: {e}")))?;
        let outaged_site = schedule.site_outages[0].site;
        fc.base.faults = schedule;
        let faulted = FederatedSimulator::new(fc)
            .map_err(|e| CliError::Run(format!("invalid fault schedule: {e}")))?
            .run_with_telemetry(&tel)
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
        let mut cfg = SimConfig::paper_default(mode);
        cfg.trace.horizon_seconds = horizon;
        if let Some(kernel) = kernel {
            cfg.kernel = kernel;
        }
        cfg.parallel_channels = !serial;
        let baseline = Simulator::new(cfg.clone())
            .map_err(|e| CliError::Run(format!("invalid configuration: {e}")))?
            .run()
            .map_err(|e| CliError::Run(format!("baseline run failed: {e}")))?;
        cfg.faults = schedule;
        let faulted = Simulator::new(cfg)
            .map_err(|e| CliError::Run(format!("invalid fault schedule: {e}")))?
            .run_with_telemetry(&tel)
            .map_err(|e| CliError::Run(format!("faulted run failed: {e}")))?;
        ResilienceReport::from_runs(
            &baseline,
            &faulted.metrics,
            fault_start,
            faulted.fault_stats,
        )
    };
    if let Some(path) = out_path {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::Run(format!("serializing report failed: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos {scenario:?}: {hours:.1} h in {mode:?} mode, fault at t = {fault_start:.0} s"
    );
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
    if let Some(path) = out_path {
        let _ = writeln!(out, "resilience report written to {path}");
    }
    telemetry.write(&tel, &mut out)?;
    Ok(out)
}

fn scale(
    peers: f64,
    channels: usize,
    mode: SimMode,
    hours: f64,
    serial: bool,
    out_path: Option<&str>,
    telemetry: &TelemetryOpts,
) -> Result<String, CliError> {
    let mut config = SimConfig::scale_out(mode, channels, peers)
        .map_err(|e| CliError::Run(format!("invalid scale configuration: {e}")))?;
    config.trace.horizon_seconds = hours * 3600.0;
    config.parallel_channels = !serial;
    let tel = telemetry.registry();
    let started = std::time::Instant::now();
    let metrics = Simulator::new(config)
        .map_err(|e| CliError::Run(format!("invalid configuration: {e}")))?
        .run_with_telemetry(&tel)
        .map_err(|e| CliError::Run(format!("simulation failed: {e}")))?
        .metrics;
    let wall = started.elapsed().as_secs_f64();
    if let Some(path) = out_path {
        let json = serde_json::to_string(&metrics)
            .map_err(|e| CliError::Run(format!("serializing metrics failed: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scale run: {channels} channels, target {peers:.0} concurrent viewers, \
         {hours:.1} h in {mode:?} mode ({} shard stepping, {} pool threads)",
        if serial { "serial" } else { "parallel" },
        rayon_threads(),
    );
    let _ = writeln!(
        out,
        "peak concurrent viewers: {}; mean streaming quality: {:.4}",
        metrics.peak_peers(),
        metrics.mean_quality()
    );
    let _ = writeln!(
        out,
        "cloud bandwidth: reserved {:.1} Mbps, used {:.1} Mbps (coverage {:.3})",
        metrics.mean_reserved_bandwidth() * 8.0 / 1e6,
        metrics.mean_used_bandwidth() * 8.0 / 1e6,
        metrics.provision_coverage(),
    );
    let _ = writeln!(
        out,
        "wall time: {wall:.2}s ({:.1} sim-hours per wall-second)",
        hours / wall.max(1e-9)
    );
    if let Some(rss) = cloudmedia_sim::peak_rss_bytes() {
        let _ = writeln!(out, "peak RSS: {:.0} MB", rss as f64 / 1e6);
    }
    if let Some(path) = out_path {
        let _ = writeln!(out, "full metrics written to {path}");
    }
    telemetry.write(&tel, &mut out)?;
    Ok(out)
}

/// Runs one simulation with an enabled metrics registry and prints the
/// per-stage wall-time table, sorted by time spent.
///
/// Stage times come from the `stage/*` counters, which partition the
/// round loop without overlap — `prov/*` sub-stages are nested inside
/// `stage/provisioning` and are listed separately so nothing is counted
/// twice in the share column.
fn profile(
    mode: SimMode,
    hours: f64,
    kernel: Option<SimKernel>,
    out_path: Option<&str>,
) -> Result<String, CliError> {
    let mut config = SimConfig::paper_default(mode);
    config.trace.horizon_seconds = hours * 3600.0;
    if let Some(kernel) = kernel {
        config.kernel = kernel;
    }
    let kernel_name = format!("{:?}", config.kernel);
    let tel = telem::new_registry(false);
    let run = Simulator::new(config)
        .map_err(|e| CliError::Run(format!("invalid configuration: {e}")))?
        .run_with_telemetry(&tel)
        .map_err(|e| CliError::Run(format!("simulation failed: {e}")))?;
    let snap = tel.snapshot();
    if let Some(path) = out_path {
        std::fs::write(path, snap.metrics_json())
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    let stages = snap.sorted_by_value("stage/");
    let staged_ns: u64 = stages.iter().map(|&(_, v)| v).sum();
    let run_ns = snap.value(telem::RUN_WALL);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {kernel_name} kernel, {hours:.1} h in {mode:?} mode, {} rounds",
        snap.value(telem::ROUNDS)
    );
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
    if let Some(path) = out_path {
        let _ = writeln!(out, "telemetry snapshot written to {path}");
    }
    Ok(out)
}

fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_chaos() {
        let c = parse(&["chaos", "vm-outage"]).unwrap();
        assert_eq!(
            c,
            Command::Chaos {
                scenario: ChaosScenarioKind::VmOutage,
                mode: SimMode::ClientServer,
                hours: 24.0,
                kernel: None,
                serial: false,
                shed: false,
                out_path: None,
                telemetry: TelemetryOpts::default(),
            }
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
            "--serial",
            "--shed",
            "--out",
            "r.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Chaos {
                scenario: ChaosScenarioKind::BudgetCut,
                mode: SimMode::P2p,
                hours: 6.0,
                kernel: Some(SimKernel::Indexed),
                serial: true,
                shed: true,
                out_path: Some("r.json".into()),
                telemetry: TelemetryOpts::default(),
            }
        );
        assert!(parse(&["chaos"]).is_err(), "scenario required");
        assert!(parse(&["chaos", "meteor-strike"]).is_err());
    }

    #[test]
    fn chaos_schedules_scale_with_the_horizon() {
        let s = ChaosScenarioKind::VmOutage.build(36_000.0, false);
        assert_eq!(s.vm_failures[0].at, 18_000.0);
        assert_eq!(s.vm_failures[0].recovery_seconds, 9_000.0);
        assert_eq!(s.degrade, DegradeMode::DiluteAllStreams);
        let s = ChaosScenarioKind::VmOutage.build(36_000.0, true);
        assert_eq!(s.degrade, DegradeMode::ShedNewArrivals);
        let s = ChaosScenarioKind::SiteOutage.build(36_000.0, false);
        assert_eq!(s.site_outages[0].site, 1);
        s.validate().unwrap();
        ChaosScenarioKind::BudgetCut
            .build(36_000.0, false)
            .validate()
            .unwrap();
        ChaosScenarioKind::TrackerDropout
            .build(36_000.0, false)
            .validate()
            .unwrap();
    }

    #[test]
    fn chaos_site_outage_rejects_kernel_override() {
        let err = run(Command::Chaos {
            scenario: ChaosScenarioKind::SiteOutage,
            mode: SimMode::ClientServer,
            hours: 2.0,
            kernel: Some(SimKernel::Indexed),
            serial: true,
            shed: false,
            out_path: None,
            telemetry: TelemetryOpts::default(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "got {err:?}");
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
        assert_eq!(
            c,
            Command::Simulate {
                mode: SimMode::P2p,
                hours: 24.0,
                kernel: None,
                config_path: None,
                out_path: None,
                telemetry: TelemetryOpts::default(),
            }
        );
    }

    #[test]
    fn parse_simulate_kernel_selection() {
        for (name, kernel) in [
            ("scan", SimKernel::Scan),
            ("indexed", SimKernel::Indexed),
            ("event-driven", SimKernel::EventDriven),
            ("des", SimKernel::EventDriven),
        ] {
            let c = parse(&["simulate", "--kernel", name]).unwrap();
            assert!(
                matches!(c, Command::Simulate { kernel: Some(k), .. } if k == kernel),
                "--kernel {name} parsed wrong"
            );
        }
    }

    #[test]
    fn unknown_kernel_string_is_a_usage_error_not_a_fallback() {
        // The whole point: a typo must never silently run the default
        // engine (which would e.g. benchmark the wrong kernel).
        // `sharded` named the kernel whose partition every round engine
        // now runs; it is gone from the surface like any unknown name.
        for bad in ["Indexed", "quantum", "scan2", "sharded", ""] {
            let err = parse(&["simulate", "--kernel", bad]).unwrap_err();
            match err {
                CliError::Usage(msg) => {
                    assert!(
                        msg.contains("unknown kernel") && msg.contains("scan|indexed"),
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
            Command::Des {
                scenario: DesScenarioKind::Baseline,
                mode: SimMode::P2p,
                hours: 24.0,
                out_path: None,
                telemetry: TelemetryOpts::default(),
            }
        );
        let c = parse(&["des", "vm-failure", "--mode", "cs", "--hours", "6"]).unwrap();
        assert_eq!(
            c,
            Command::Des {
                scenario: DesScenarioKind::VmFailure,
                mode: SimMode::ClientServer,
                hours: 6.0,
                out_path: None,
                telemetry: TelemetryOpts::default(),
            }
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
        let out = run(Command::Des {
            scenario: DesScenarioKind::Baseline,
            mode: SimMode::ClientServer,
            hours: 1.0,
            out_path: None,
            telemetry: TelemetryOpts::default(),
        })
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
            Command::Geo {
                deployment: DeploymentKind::Federated,
                mode: SimMode::ClientServer,
                hours: 24.0,
                telemetry: TelemetryOpts::default(),
            }
        );
        let c = parse(&["geo", "central", "--mode", "p2p", "--hours", "6"]).unwrap();
        assert_eq!(
            c,
            Command::Geo {
                deployment: DeploymentKind::Central,
                mode: SimMode::P2p,
                hours: 6.0,
                telemetry: TelemetryOpts::default(),
            }
        );
        assert!(matches!(parse(&["geo"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["geo", "mars"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn geo_federated_short_run_reports_redirection() {
        let out = run(Command::Geo {
            deployment: DeploymentKind::Federated,
            mode: SimMode::ClientServer,
            hours: 2.0,
            telemetry: TelemetryOpts::default(),
        })
        .unwrap();
        assert!(out.contains("total cost"), "got: {out}");
        assert!(out.contains("redirected share"));
        assert!(out.contains("americas"));
    }

    #[test]
    fn parse_scale_defaults_and_flags() {
        let c = parse(&["scale"]).unwrap();
        assert_eq!(
            c,
            Command::Scale {
                peers: 1_000_000.0,
                channels: 2000,
                mode: SimMode::ClientServer,
                hours: 1.0,
                serial: false,
                out_path: None,
                telemetry: TelemetryOpts::default(),
            }
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
            "--serial",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Scale {
                peers: 200_000.0,
                channels: 500,
                mode: SimMode::P2p,
                hours: 0.5,
                serial: true,
                out_path: None,
                telemetry: TelemetryOpts::default(),
            }
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
        let out = run(Command::Scale {
            peers: 300.0,
            channels: 6,
            mode: SimMode::ClientServer,
            hours: 1.0,
            serial: false,
            out_path: None,
            telemetry: TelemetryOpts::default(),
        })
        .unwrap();
        assert!(out.contains("scale run: 6 channels"), "got: {out}");
        assert!(out.contains("sim-hours per wall-second"));
        assert!(out.contains("peak concurrent viewers"));
    }

    #[test]
    fn scale_rejects_bad_configs() {
        let err = run(Command::Scale {
            peers: -5.0,
            channels: 6,
            mode: SimMode::ClientServer,
            hours: 1.0,
            serial: false,
            out_path: None,
            telemetry: TelemetryOpts::default(),
        })
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
        let opts = TelemetryOpts {
            metrics_path: Some("m.json".into()),
            trace_path: Some("t.json".into()),
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
        ];
        for args in cases {
            let parsed = match parse(args).unwrap() {
                Command::Simulate { telemetry, .. }
                | Command::Des { telemetry, .. }
                | Command::Geo { telemetry, .. }
                | Command::Chaos { telemetry, .. }
                | Command::Scale { telemetry, .. } => telemetry,
                other => panic!("unexpected parse for {args:?}: {other:?}"),
            };
            assert_eq!(parsed, opts, "args: {args:?}");
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
        assert_eq!(
            c,
            Command::Profile {
                mode: SimMode::P2p,
                hours: 24.0,
                kernel: None,
                out_path: None,
            }
        );
        let c = parse(&[
            "profile", "--mode", "cs", "--hours", "2", "--kernel", "scan", "--out", "p.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Profile {
                mode: SimMode::ClientServer,
                hours: 2.0,
                kernel: Some(SimKernel::Scan),
                out_path: Some("p.json".into()),
            }
        );
        assert!(matches!(
            parse(&["profile", "--kernel", "quantum"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn profile_short_run_prints_stage_table() {
        let out = run(Command::Profile {
            mode: SimMode::ClientServer,
            hours: 1.0,
            kernel: Some(SimKernel::Indexed),
            out_path: None,
        })
        .unwrap();
        assert!(out.contains("profile: Indexed kernel"), "got: {out}");
        assert!(out.contains("stage/advance"), "got: {out}");
        assert!(out.contains("total staged"), "got: {out}");
        assert!(out.contains("run wall"), "got: {out}");
        // Shares are printed per stage; at least one line carries one.
        assert!(out.contains('%'), "got: {out}");
    }

    #[test]
    fn simulate_writes_telemetry_and_trace_files() {
        let dir = std::env::temp_dir().join("cloudmedia-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let m_path = dir.join("metrics-snapshot.json");
        let t_path = dir.join("run.trace.json");
        let out = run(Command::Simulate {
            mode: SimMode::ClientServer,
            hours: 1.0,
            kernel: Some(SimKernel::Indexed),
            config_path: None,
            out_path: None,
            telemetry: TelemetryOpts {
                metrics_path: Some(m_path.to_string_lossy().into_owned()),
                trace_path: Some(t_path.to_string_lossy().into_owned()),
            },
        })
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
        let out = run(Command::Des {
            scenario: DesScenarioKind::Baseline,
            mode: SimMode::ClientServer,
            hours: 1.0,
            out_path: None,
            telemetry: TelemetryOpts::default(),
        })
        .unwrap();
        assert!(out.contains("kernel health:"), "got: {out}");
        assert!(out.contains("peak"), "got: {out}");
        assert!(out.contains("cancelled"), "got: {out}");
    }

    #[test]
    fn simulate_short_run_with_json_output() {
        let dir = std::env::temp_dir().join("cloudmedia-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("metrics.json");
        // Build a tiny config file to exercise --config too.
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
        let cfg_path = dir.join("config.json");
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

        let out = run(Command::Simulate {
            mode: SimMode::ClientServer,
            hours: 1.0,
            kernel: None,
            config_path: Some(cfg_path.to_string_lossy().into_owned()),
            out_path: Some(out_path.to_string_lossy().into_owned()),
            telemetry: TelemetryOpts::default(),
        })
        .unwrap();
        assert!(out.contains("mean streaming quality"));
        let metrics: cloudmedia_sim::metrics::Metrics =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(!metrics.samples.is_empty());
    }
}
