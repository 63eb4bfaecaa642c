//! The four workloads: how each is built from a seed, run, and checked.
//! `README.md` records why each was chosen.

use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::federation::{
    DeploymentKind, FederatedConfig, FederatedMetrics, FederatedSimulator,
};
use cloudmedia_sim::{Metrics, SimError, Simulator};
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::diurnal::{DiurnalPattern, FlashCrowd};
use cloudmedia_workload::trace::child_seed;
use serde::Value;

/// Simulated hours of `steady_200k_cs`: past the first hours, in which
/// the empty system fills up to its steady population.
const STEADY_HOURS: f64 = 4.0;
/// Expected concurrent viewers and horizon of `flash_crowd_1ch`.
const FLASH_POPULATION: f64 = 100_000.0;
const FLASH_HOURS: f64 = 2.0;

/// Setups in one batch, timed after each simulation run for `setup_s`.
/// One setup takes a few microseconds, so a single reading would be
/// mostly noise, and the first few after a run find cold caches; the
/// batch median sits on the warm ones.
const SETUP_REPS: usize = 101;

/// The expected quality and cost range of every workload, over seeds.
const REFERENCE: &str = include_str!("../reference.json");

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperWeekP2p,
    Steady200kCs,
    FlashCrowd1ch,
    FederatedWeekP2p,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::PaperWeekP2p,
        Self::Steady200kCs,
        Self::FlashCrowd1ch,
        Self::FederatedWeekP2p,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperWeekP2p => "paper_week_p2p",
            Self::Steady200kCs => "steady_200k_cs",
            Self::FlashCrowd1ch => "flash_crowd_1ch",
            Self::FederatedWeekP2p => "federated_week_p2p",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated horizon, hours.
    pub fn horizon_hours(self) -> f64 {
        match self {
            Self::PaperWeekP2p | Self::FederatedWeekP2p => 168.0,
            Self::Steady200kCs => STEADY_HOURS,
            Self::FlashCrowd1ch => FLASH_HOURS,
        }
    }

    /// Builds the configuration for `seed` and the simulator over it:
    /// the work `setup_s` times.
    fn setup(self, seed: u64) -> Result<Prepared, SimError> {
        Ok(match self {
            Self::PaperWeekP2p => Prepared::Single(Simulator::new(seeded(
                SimConfig::paper_default(SimMode::P2p),
                seed,
            ))?),
            Self::Steady200kCs => {
                let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 400, 200_000.0)?;
                cfg.trace.horizon_seconds = STEADY_HOURS * 3600.0;
                Prepared::Single(Simulator::new(seeded(cfg, seed))?)
            }
            Self::FlashCrowd1ch => Prepared::Single(Simulator::new(seeded(flash_crowd()?, seed))?),
            Self::FederatedWeekP2p => {
                let mut fc = FederatedConfig::paper_default(
                    DeploymentKind::Federated,
                    SimMode::P2p,
                    Self::FederatedWeekP2p.horizon_hours(),
                );
                fc.base = seeded(fc.base, seed);
                Prepared::Federated(FederatedSimulator::new(fc)?)
            }
        })
    }

    /// [`Workload::setup`] with the error as text.
    pub fn prepare(self, seed: u64) -> Result<Prepared, String> {
        self.setup(seed)
            .map_err(|e| format!("{} setup failed: {e}", self.name()))
    }

    /// Sets the workload up `SETUP_REPS` times; returns the median wall
    /// seconds.
    pub fn time_setups(self, seed: u64) -> Result<f64, String> {
        let mut seconds = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let built = std::hint::black_box(self.prepare(seed));
            seconds.push(start.elapsed().as_secs_f64());
            built?;
        }
        Ok(crate::median(&seconds))
    }
}

/// Feeds the workload seed into the arrival trace and the viewer
/// behaviour.
fn seeded(mut cfg: SimConfig, seed: u64) -> SimConfig {
    cfg.trace.seed = child_seed(seed, 0);
    cfg.behaviour_seed = child_seed(seed, 1);
    cfg
}

/// The one-channel flash crowd of the scale sweep
/// (`cloudmedia_bench::scale::flash_crowd_config`), restated so that the
/// workload stays fixed when the bench crate changes: a 0.3 baseline
/// with a burst adding 12× the unit rate mid-horizon, against a fleet
/// and budgets four times what `scale_out` sizes for the population.
fn flash_crowd() -> Result<SimConfig, SimError> {
    let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 1, FLASH_POPULATION)?;
    cfg.trace.horizon_seconds = FLASH_HOURS * 3600.0;
    cfg.fleet_scale *= 4.0;
    cfg.vm_budget_per_hour *= 4.0;
    cfg.storage_budget_per_hour *= 4.0;
    cfg.trace.diurnal = DiurnalPattern::new(
        0.3,
        vec![FlashCrowd {
            peak_hour: FLASH_HOURS / 2.0,
            width_hours: 0.15,
            amplitude: 12.0,
        }],
    )?;
    Ok(cfg)
}

/// A simulator ready to run.
pub enum Prepared {
    Single(Simulator),
    Federated(FederatedSimulator),
}

impl Prepared {
    /// The site configuration; for a federation, the template every
    /// region derives its own from.
    pub fn config(&self) -> &SimConfig {
        match self {
            Self::Single(sim) => sim.config(),
            Self::Federated(sim) => &sim.config().base,
        }
    }

    /// Runs once, recording into `tel`. An error or a panic becomes `Err`.
    pub fn run(&self, tel: &Telemetry) -> Result<Results, String> {
        let run = || match self {
            Self::Single(sim) => sim
                .run_with_telemetry(tel)
                .map(|run| Results::Single(run.metrics)),
            Self::Federated(sim) => sim.run_with_telemetry(tel).map(Results::Federated),
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(results)) => Ok(results),
            Ok(Err(e)) => Err(format!("the run returned an error: {e}")),
            Err(_) => Err("the run panicked".into()),
        }
    }
}

/// What one run produced.
pub enum Results {
    Single(Metrics),
    Federated(FederatedMetrics),
}

/// The figures of a run the end-to-end metrics report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Smooth-playback fraction (paper Fig. 5), region-weighted when
    /// federated.
    pub mean_quality: f64,
    /// VM + storage cost, plus transfer and SLA penalty when federated.
    pub cloud_cost_usd: f64,
    /// Mean used ÷ mean reserved cloud bandwidth (paper Fig. 4).
    pub bw_utilization: f64,
}

impl Results {
    /// Each site's metrics with its VM price factor.
    pub fn sites(&self) -> Vec<(f64, &Metrics)> {
        match self {
            Self::Single(m) => vec![(1.0, m)],
            Self::Federated(f) => f
                .per_region
                .iter()
                .map(|r| (r.site.vm_price_factor, &r.metrics))
                .collect(),
        }
    }

    pub fn summary(&self) -> Summary {
        let sites = self.sites();
        let used: f64 = sites.iter().map(|(_, m)| m.mean_used_bandwidth()).sum();
        let reserved: f64 = sites.iter().map(|(_, m)| m.mean_reserved_bandwidth()).sum();
        let (mean_quality, cloud_cost_usd) = match self {
            Self::Single(m) => (m.mean_quality(), m.total_vm_cost + m.total_storage_cost),
            Self::Federated(f) => (f.mean_quality(), f.total_cost()),
        };
        Summary {
            mean_quality,
            cloud_cost_usd,
            bw_utilization: if reserved > 0.0 { used / reserved } else { 0.0 },
        }
    }

    /// A hash of every result: runs with equal fingerprints produced the
    /// same bits (floats are serialized in shortest round-trip form).
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (_, metrics) in self.sites() {
            serde_json::to_string(metrics)
                .expect("metrics serialize")
                .hash(&mut hasher);
        }
        if let Self::Federated(f) = self {
            for r in &f.per_region {
                for x in [
                    r.cloud_bytes,
                    r.redirected_bytes,
                    r.transfer_cost,
                    r.latency_penalty_cost,
                ] {
                    x.to_bits().hash(&mut hasher);
                }
            }
            for x in [
                f.total_vm_cost,
                f.total_storage_cost,
                f.total_transfer_cost,
                f.total_latency_penalty_cost,
            ] {
                x.to_bits().hash(&mut hasher);
            }
        }
        hasher.finish()
    }
}

/// Counts the operations of a run and checks every simulation result:
/// the same bits as the run's first result (across repetitions and
/// between traced and untraced runs), and quality and cost inside the
/// workload's reference range.
pub struct Checker {
    quality: [f64; 2],
    cost: [f64; 2],
    first: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: Workload) -> Self {
        let table: Value = serde_json::from_str(REFERENCE).expect("reference.json is JSON");
        let entry = table
            .get(workload.name())
            .expect("reference.json covers every workload");
        let range = |key: &str| -> [f64; 2] {
            serde::Deserialize::from_value(entry.get(key).expect("reference range present"))
                .expect("a reference range is two numbers")
        };
        Self {
            quality: range("mean_quality"),
            cost: range("cloud_cost_usd"),
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation, and its failure if it failed.
    pub fn count<T>(&mut self, op: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match op {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                eprintln!("perfbench: operation {} failed: {why}", self.attempted);
                None
            }
        }
    }

    /// Counts one simulation run; returns its results if it ran and
    /// passed every check.
    pub fn check(&mut self, run: Result<Results, String>) -> Option<Results> {
        let verified = run.and_then(|results| self.verify(&results).map(|()| results));
        self.count(verified)
    }

    fn verify(&mut self, results: &Results) -> Result<(), String> {
        let fingerprint = results.fingerprint();
        if *self.first.get_or_insert(fingerprint) != fingerprint {
            return Err("its results differ from the first run's".into());
        }
        let summary = results.summary();
        within("mean_quality", summary.mean_quality, self.quality)?;
        within("cloud_cost_usd", summary.cloud_cost_usd, self.cost)
    }

    /// The share of operations that did not fail.
    pub fn ok_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn within(name: &str, value: f64, [lo, hi]: [f64; 2]) -> Result<(), String> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(format!(
            "{name} {value} is outside its reference range [{lo}, {hi}]"
        ))
    }
}
