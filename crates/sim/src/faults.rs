//! The deterministic fault plane shared by every engine.
//!
//! A [`FaultSchedule`] is part of the seeded [`SimConfig`](crate::config::SimConfig):
//! a list of *timed, typed* events — correlated VM-fleet failure bursts
//! (with repair), site outages, tracker-measurement dropouts, and mid-run
//! cost shocks (budget cut / VM-price change) — that every engine applies
//! at the same simulated instants. Every site, of a round-engine
//! deployment (`crate::federation`) or of the event-driven engine, owns
//! one `FaultDriver` that fails, repairs and rents its fleet, so every
//! engine applies every kind through one code path. All fault mutation
//! happens in serial coordinator code *before* any parallel fan-out, and
//! the schedule itself is plain data, so the existing determinism
//! contract holds: the same seed plus the same schedule produces
//! bit-identical metrics serially and in parallel (see
//! `docs/RESILIENCE.md`).
//!
//! Event semantics:
//!
//! - **Fleet failure** ([`FleetFailure`]): at `at`, a fraction of each
//!   cluster's *running* VMs dies at every site and the same fraction of
//!   each site's hosts becomes unavailable (the broker rejects over-cap
//!   requests until the repair at `at + recovery_seconds`, which restores
//!   the fleet and resubmits the site's targets in force through
//!   [`RetryPolicy`]-governed retry).
//! - **Site outage** ([`SiteOutage`]): the named site's capacity drops
//!   to zero for the duration; the global placement optimizer re-plans
//!   around it immediately (an emergency re-plan, not waiting for the
//!   hourly boundary) and again at recovery. A single site has only
//!   site 0, and its outage leaves its viewers without cloud capacity.
//! - **Tracker dropout** ([`TrackerDropout`]): a provisioning boundary
//!   falling inside the window has no fresh measurements; the controller
//!   falls back to its last-known-good plan instead of re-planning.
//! - **Cost shock** ([`CostShock`]): at the first provisioning boundary
//!   at or after `at`, the VM budget is multiplied by
//!   `vm_budget_factor` and the planning-time VM prices by
//!   `vm_price_factor` (billing for already-running VMs continues at the
//!   contracted prices; the shock models the market the *next* rental
//!   negotiates).
//!
//! When post-fault capacity cannot meet demand, [`DegradeMode`] picks the
//! degradation policy: dilute every stream (the fluid allocator's
//! default behaviour under an online-capacity deficit) or shed new
//! arrivals for the duration of the outage to protect viewers already
//! being served.

use cloudmedia_cloud::broker::{Cloud, ResourceRequest, RetryPolicy, SubmitReceipt};
use cloudmedia_cloud::scheduler::PlacementPlan;
use cloudmedia_core::provisioning::Placement;
use cloudmedia_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, SimError};
use crate::metrics::Metrics;
use crate::telem;

/// A correlated VM-fleet failure burst: at `at`, `fraction` of each
/// cluster's running VMs dies and the same fraction of the fleet becomes
/// unavailable until the repair completes `recovery_seconds` later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetFailure {
    /// Failure instant, simulated seconds.
    pub at: f64,
    /// Fraction of the fleet lost, in `(0, 1]`.
    pub fraction: f64,
    /// Time until the repair restores the fleet, seconds (> 0; model a
    /// "permanent" loss by scheduling the repair beyond the horizon).
    pub recovery_seconds: f64,
}

impl FleetFailure {
    /// True while this failure's capacity is still gone.
    pub fn active_at(&self, t: f64) -> bool {
        self.at <= t && t < self.at + self.recovery_seconds
    }
}

/// A site outage: the site serves nothing for the duration and the
/// placement optimizer must route its regions' demand elsewhere. Every
/// engine applies it; a single site has only site 0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteOutage {
    /// Outage start, simulated seconds.
    pub at: f64,
    /// Index of the lost site (region index in the federation; 0 for a
    /// single site).
    pub site: usize,
    /// Outage duration, seconds (> 0).
    pub duration_seconds: f64,
}

impl SiteOutage {
    /// True while the site is down.
    pub fn active_at(&self, t: f64) -> bool {
        self.at <= t && t < self.at + self.duration_seconds
    }
}

/// A tracker-measurement dropout window: provisioning boundaries inside
/// it see no fresh statistics and reuse the last-known-good plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerDropout {
    /// Dropout start, simulated seconds.
    pub at: f64,
    /// Dropout duration, seconds (> 0).
    pub duration_seconds: f64,
}

impl TrackerDropout {
    /// True while measurements are lost.
    pub fn active_at(&self, t: f64) -> bool {
        self.at <= t && t < self.at + self.duration_seconds
    }
}

/// A mid-run economic shock, applied at the first provisioning boundary
/// at or after `at`. Factors compose multiplicatively across shocks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostShock {
    /// Shock instant, simulated seconds.
    pub at: f64,
    /// Multiplier on the VM rental budget `B_M` (1.0 = unchanged;
    /// 0.5 = the hour-N budget cut).
    pub vm_budget_factor: f64,
    /// Multiplier on the VM prices the *planner* sees from this point on
    /// (1.0 = unchanged). Billing of already-contracted rentals is not
    /// rewritten.
    pub vm_price_factor: f64,
}

/// What to do when post-fault capacity cannot meet demand.
///
/// ```
/// use cloudmedia_sim::faults::DegradeMode;
/// // The default matches the engines' no-fault behaviour: every stream
/// // shares the deficit.
/// assert_eq!(DegradeMode::default(), DegradeMode::DiluteAllStreams);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DegradeMode {
    /// Reject arrivals for the duration of a fleet outage so viewers
    /// already being served keep their bandwidth.
    ShedNewArrivals,
    /// Admit everyone and let the fluid allocator scale every stream
    /// down by the online-capacity ratio (the engines' default).
    #[default]
    DiluteAllStreams,
}

/// The full fault schedule of one run — plain seeded data, carried by
/// [`SimConfig`](crate::config::SimConfig) so serial and parallel
/// executions replay exactly the same shocks.
///
/// ```
/// use cloudmedia_sim::faults::{DegradeMode, FaultSchedule, FleetFailure};
///
/// let mut schedule = FaultSchedule::default();
/// assert!(schedule.is_empty());
/// schedule.vm_failures.push(FleetFailure {
///     at: 3600.0,
///     fraction: 0.5,
///     recovery_seconds: 600.0,
/// });
/// schedule.degrade = DegradeMode::ShedNewArrivals;
/// schedule.validate().unwrap();
/// assert!(schedule.outage_active(3900.0));
/// assert!(!schedule.outage_active(4200.0), "repaired");
/// assert!(schedule.shed_arrivals_at(3900.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultSchedule {
    /// Correlated VM-fleet failure bursts (all engines; every site of a
    /// deployment).
    pub vm_failures: Vec<FleetFailure>,
    /// Site outages (all engines; a single site has only site 0).
    pub site_outages: Vec<SiteOutage>,
    /// Tracker-measurement dropout windows (all engines).
    pub tracker_dropouts: Vec<TrackerDropout>,
    /// Budget / VM-price shocks (all engines).
    pub cost_shocks: Vec<CostShock>,
    /// Degradation policy under a post-fault capacity deficit.
    pub degrade: DegradeMode,
}

impl FaultSchedule {
    /// A single fleet-failure burst.
    pub fn vm_outage(at: f64, fraction: f64, recovery_seconds: f64) -> Self {
        Self {
            vm_failures: vec![FleetFailure {
                at,
                fraction,
                recovery_seconds,
            }],
            ..Self::default()
        }
    }

    /// A single site outage.
    pub fn site_outage(at: f64, site: usize, duration_seconds: f64) -> Self {
        Self {
            site_outages: vec![SiteOutage {
                at,
                site,
                duration_seconds,
            }],
            ..Self::default()
        }
    }

    /// A single tracker blackout window.
    pub fn tracker_blackout(at: f64, duration_seconds: f64) -> Self {
        Self {
            tracker_dropouts: vec![TrackerDropout {
                at,
                duration_seconds,
            }],
            ..Self::default()
        }
    }

    /// A budget cut (or raise) at hour `at`.
    pub fn budget_shock(at: f64, vm_budget_factor: f64) -> Self {
        Self {
            cost_shocks: vec![CostShock {
                at,
                vm_budget_factor,
                vm_price_factor: 1.0,
            }],
            ..Self::default()
        }
    }

    /// True when no fault of any kind is scheduled.
    pub fn is_empty(&self) -> bool {
        self.vm_failures.is_empty()
            && self.site_outages.is_empty()
            && self.tracker_dropouts.is_empty()
            && self.cost_shocks.is_empty()
    }

    /// Validates every event.
    ///
    /// # Errors
    ///
    /// Rejects non-finite times, fractions outside `(0, 1]`, and
    /// non-positive durations or factors.
    pub fn validate(&self) -> Result<(), SimError> {
        for f in &self.vm_failures {
            if !(f.at.is_finite() && f.at >= 0.0) {
                return Err(invalid_param("vm_failures", "`at` must be non-negative"));
            }
            if !(f.fraction > 0.0 && f.fraction <= 1.0) {
                return Err(invalid_param("vm_failures", "`fraction` must be in (0, 1]"));
            }
            if !(f.recovery_seconds.is_finite() && f.recovery_seconds > 0.0) {
                return Err(invalid_param(
                    "vm_failures",
                    "`recovery_seconds` must be positive (schedule the repair \
                     beyond the horizon to model a permanent loss)",
                ));
            }
        }
        for o in &self.site_outages {
            if !(o.at.is_finite() && o.at >= 0.0) {
                return Err(invalid_param("site_outages", "`at` must be non-negative"));
            }
            if !(o.duration_seconds.is_finite() && o.duration_seconds > 0.0) {
                return Err(invalid_param(
                    "site_outages",
                    "`duration_seconds` must be positive",
                ));
            }
        }
        for d in &self.tracker_dropouts {
            if !(d.at.is_finite() && d.at >= 0.0) {
                return Err(invalid_param(
                    "tracker_dropouts",
                    "`at` must be non-negative",
                ));
            }
            if !(d.duration_seconds.is_finite() && d.duration_seconds > 0.0) {
                return Err(invalid_param(
                    "tracker_dropouts",
                    "`duration_seconds` must be positive",
                ));
            }
        }
        for s in &self.cost_shocks {
            if !(s.at.is_finite() && s.at >= 0.0) {
                return Err(invalid_param("cost_shocks", "`at` must be non-negative"));
            }
            if !(s.vm_budget_factor.is_finite() && s.vm_budget_factor > 0.0) {
                return Err(invalid_param(
                    "cost_shocks",
                    "`vm_budget_factor` must be positive",
                ));
            }
            if !(s.vm_price_factor.is_finite() && s.vm_price_factor > 0.0) {
                return Err(invalid_param(
                    "cost_shocks",
                    "`vm_price_factor` must be positive",
                ));
            }
        }
        Ok(())
    }

    /// Checks the schedule against a run of `sites` sites: every site
    /// outage must name one of them (a single site has only site 0).
    ///
    /// # Errors
    ///
    /// Rejects a site outage whose site index is out of range.
    pub(crate) fn validate_sites(&self, sites: usize) -> Result<(), SimError> {
        match self.site_outages.iter().find(|o| o.site >= sites) {
            Some(o) => Err(invalid_param(
                "site_outages",
                format!("site index {} out of range for {sites} site(s)", o.site),
            )),
            None => Ok(()),
        }
    }

    /// True while any fleet-failure window is active.
    pub fn outage_active(&self, t: f64) -> bool {
        self.vm_failures.iter().any(|f| f.active_at(t))
    }

    /// True when the degradation policy sheds arrivals at `t`: shedding
    /// is selected *and* a fleet outage is in progress.
    pub fn shed_arrivals_at(&self, t: f64) -> bool {
        self.degrade == DegradeMode::ShedNewArrivals && self.outage_active(t)
    }

    /// True while any tracker dropout window covers `t`.
    pub fn dropout_active(&self, t: f64) -> bool {
        self.tracker_dropouts.iter().any(|d| d.active_at(t))
    }

    /// True while site `site` is down.
    pub fn site_down(&self, site: usize, t: f64) -> bool {
        self.site_outages
            .iter()
            .any(|o| o.site == site && o.active_at(t))
    }

    /// Down/up mask over `n_sites` sites at `t` (true = down).
    pub fn site_mask(&self, n_sites: usize, t: f64) -> Vec<bool> {
        (0..n_sites).map(|s| self.site_down(s, t)).collect()
    }

    /// Cumulative `(vm_budget_factor, vm_price_factor)` of every shock
    /// with `at <= t` (multiplicative composition, `(1, 1)` when none).
    pub fn shock_factors(&self, t: f64) -> (f64, f64) {
        self.cost_shocks
            .iter()
            .filter(|s| s.at <= t)
            .fold((1.0, 1.0), |(b, p), s| {
                (b * s.vm_budget_factor, p * s.vm_price_factor)
            })
    }

    /// The earliest scheduled fault instant, if any — the resilience
    /// report measures recovery from here.
    pub fn first_fault_at(&self) -> Option<f64> {
        let mut first: Option<f64> = None;
        let mut consider = |t: f64| {
            first = Some(match first {
                Some(f) => f.min(t),
                None => t,
            });
        };
        self.vm_failures.iter().for_each(|f| consider(f.at));
        self.site_outages.iter().for_each(|o| consider(o.at));
        self.tracker_dropouts.iter().for_each(|d| consider(d.at));
        self.cost_shocks.iter().for_each(|s| consider(s.at));
        first
    }

    /// Per-cluster availability caps while failures are active at `t`:
    /// `None` when the full fleet is available, otherwise the per-cluster
    /// VM counts that survive the worst still-active failure.
    pub fn fleet_caps_at(&self, max_vms: &[usize], t: f64) -> Option<Vec<usize>> {
        let worst = self
            .vm_failures
            .iter()
            .filter(|f| f.active_at(t))
            .map(|f| f.fraction)
            .fold(0.0f64, f64::max);
        if worst <= 0.0 {
            return None;
        }
        Some(
            max_vms
                .iter()
                .map(|&m| ((m as f64) * (1.0 - worst)).floor() as usize)
                .collect(),
        )
    }

    /// Site `site`'s per-cluster availability at `t`, the one rule every
    /// fleet boundary and every placement applies: none of the fleet
    /// while the site is down, else what the worst active fleet failure
    /// leaves of `max_vms` (all of it when none is active).
    pub(crate) fn site_caps_at(&self, site: usize, max_vms: &[usize], t: f64) -> Vec<usize> {
        if self.site_down(site, t) {
            vec![0; max_vms.len()]
        } else {
            self.fleet_caps_at(max_vms, t)
                .unwrap_or_else(|| max_vms.to_vec())
        }
    }
}

/// The named fault scenarios that `cloudmedia chaos` runs and the
/// `resilience` benchmark section records. Every fault instant is a
/// fixed fraction of the horizon, so any horizon exercises the full
/// fault-and-recovery arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPreset {
    /// Half the VM fleet fails at mid-run and is repaired a quarter
    /// horizon later.
    VmOutage,
    /// Site 1 of a federated deployment goes dark at 40 % of the
    /// horizon for a quarter horizon; the placement optimizer re-plans
    /// around it.
    SiteOutage,
    /// The VM rental budget is cut to 20 % at mid-run.
    BudgetCut,
    /// Tracker measurements go dark from 35 % to 65 % of the horizon;
    /// the controller replays its last-known-good plan.
    TrackerDropout,
}

impl ChaosPreset {
    /// Every preset.
    pub const ALL: [Self; 4] = [
        Self::VmOutage,
        Self::SiteOutage,
        Self::BudgetCut,
        Self::TrackerDropout,
    ];

    /// The preset's name, as `cloudmedia chaos` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Self::VmOutage => "vm-outage",
            Self::SiteOutage => "site-outage",
            Self::BudgetCut => "budget-cut",
            Self::TrackerDropout => "tracker-dropout",
        }
    }

    /// The preset's fault schedule for a run of `horizon` seconds.
    pub fn schedule(self, horizon: f64) -> FaultSchedule {
        match self {
            Self::VmOutage => FaultSchedule::vm_outage(0.5 * horizon, 0.5, 0.25 * horizon),
            Self::SiteOutage => FaultSchedule::site_outage(0.4 * horizon, 1, 0.25 * horizon),
            // 0.2 of the paper's $100/h ceiling undercuts the ~$29/h the
            // client-server deployment actually spends, so the cut binds
            // and the planner dilutes streams best-effort.
            Self::BudgetCut => FaultSchedule::budget_shock(0.5 * horizon, 0.2),
            Self::TrackerDropout => FaultSchedule::tracker_blackout(0.35 * horizon, 0.3 * horizon),
        }
    }
}

/// Counters the fault plane accumulates during a run; serialized into the
/// resilience report.
///
/// Covered by the same bit-identity contracts as
/// [`crate::metrics::Metrics`]: serial and parallel runs of one seeded
/// schedule produce equal counters (`crates/sim/tests/chaos.rs` and
/// `hot_shard_invariance.rs` pin them alongside the metrics).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultStats {
    /// Running VMs killed by fleet failures.
    pub vms_killed: u64,
    /// VM targets restored by repairs.
    pub vms_recovered: u64,
    /// Arrivals rejected by [`DegradeMode::ShedNewArrivals`].
    pub shed_arrivals: u64,
    /// Broker submissions retried (attempts beyond the first).
    pub retry_attempts: u64,
    /// Simulated control-plane backoff accrued across retries, seconds.
    pub retry_backoff_seconds: f64,
    /// Submissions that landed only after degrading (targets clamped to
    /// surviving capacity).
    pub degraded_submissions: u64,
    /// Provisioning boundaries that fell back to the last-known-good plan
    /// because the tracker was dark.
    pub fallback_intervals: u64,
    /// Emergency placement re-plans triggered by site outages and
    /// recoveries.
    pub emergency_replans: u64,
}

impl FaultStats {
    /// Folds a broker receipt into the counters.
    pub fn record_receipt(&mut self, receipt: &SubmitReceipt) {
        self.retry_attempts += u64::from(receipt.attempts.saturating_sub(1));
        self.retry_backoff_seconds += receipt.backoff_seconds;
        if receipt.degraded {
            self.degraded_submissions += 1;
        }
    }
}

/// A metrics bundle returned by the fault-aware entry points: the usual
/// time series plus what the fault plane did to produce them.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// The run's recorded metrics.
    pub metrics: Metrics,
    /// Fault-plane counters.
    pub fault_stats: FaultStats,
}

/// One boundary a site's fleet crosses: a failure instant or a repair.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Boundary {
    Failure(usize),
    Recovery,
}

/// Applies a [`FaultSchedule`] to one site's [`Cloud`] in serial
/// coordinator code: its fleet failures and repairs, and, through
/// [`FaultDriver::rent`], its outages. Every site of every engine owns
/// one. The driver is pure bookkeeping over the (sorted) schedule, so two
/// engines stepping the same schedule at the same instants mutate their
/// clouds identically.
#[derive(Debug)]
pub(crate) struct FaultDriver {
    schedule: FaultSchedule,
    /// The site whose fleet this driver fails, repairs and rents.
    site: usize,
    boundaries: Vec<(f64, Boundary)>,
    next: usize,
    retry: RetryPolicy,
    /// The site's VM targets in force, per cluster: what a repair
    /// resubmits. Empty before the first rent.
    targets: Vec<usize>,
}

/// Each cluster's fleet size at `cloud`.
fn fleet(cloud: &Cloud) -> Vec<usize> {
    cloud
        .vm_scheduler()
        .specs()
        .iter()
        .map(|s| s.max_vms)
        .collect()
}

impl FaultDriver {
    /// The driver of site `site`'s fleet.
    pub(crate) fn new(schedule: &FaultSchedule, site: usize) -> Self {
        let mut boundaries: Vec<(f64, Boundary)> = Vec::new();
        for (i, f) in schedule.vm_failures.iter().enumerate() {
            boundaries.push((f.at, Boundary::Failure(i)));
            boundaries.push((f.at + f.recovery_seconds, Boundary::Recovery));
        }
        // Stable order on time ties: failures before recoveries at the
        // same instant, then schedule order.
        boundaries.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| match (a.1, b.1) {
                    (Boundary::Failure(x), Boundary::Failure(y)) => x.cmp(&y),
                    (Boundary::Failure(_), Boundary::Recovery) => std::cmp::Ordering::Less,
                    (Boundary::Recovery, Boundary::Failure(_)) => std::cmp::Ordering::Greater,
                    (Boundary::Recovery, Boundary::Recovery) => std::cmp::Ordering::Equal,
                })
        });
        Self {
            schedule: schedule.clone(),
            site,
            boundaries,
            next: 0,
            retry: RetryPolicy::paper_default(),
            targets: Vec::new(),
        }
    }

    /// True while the site is down at `t`.
    pub(crate) fn site_down(&self, t: f64) -> bool {
        self.schedule.site_down(self.site, t)
    }

    /// Applies every boundary due at or before `clock`, counting into
    /// `stats`: failures kill the configured fraction of running VMs and
    /// cap the site's availability; repairs lift the cap and resubmit
    /// the targets in force through the retry policy (clamping again if
    /// another failure is still active). Availability follows
    /// [`FaultSchedule::site_caps_at`].
    pub(crate) fn apply_due(
        &mut self,
        clock: f64,
        cloud: &mut Cloud,
        stats: &mut FaultStats,
    ) -> Result<(), SimError> {
        while self.next < self.boundaries.len() && self.boundaries[self.next].0 <= clock {
            let (at, boundary) = self.boundaries[self.next];
            self.next += 1;
            let max_vms = fleet(cloud);
            let caps = self.schedule.site_caps_at(self.site, &max_vms, at);
            cloud.set_availability(&caps)?;
            match boundary {
                Boundary::Failure(i) => {
                    let fraction = self.schedule.vm_failures[i].fraction;
                    // Kill the failed fraction of what is actually
                    // running; survivors also respect the new cap.
                    let mut survivors = Vec::with_capacity(max_vms.len());
                    let mut killed = 0u64;
                    for (cluster, &cap) in caps.iter().enumerate() {
                        let running = cloud.vm_scheduler().running(cluster);
                        let kept =
                            (((running as f64) * (1.0 - fraction)).floor() as usize).min(cap);
                        killed += (running - kept) as u64;
                        survivors.push(kept);
                    }
                    stats.vms_killed += killed;
                    cloud.submit_request(&ResourceRequest {
                        vm_targets: survivors,
                        placement: None,
                    })?;
                }
                Boundary::Recovery => {
                    if self.targets.len() == max_vms.len() {
                        let receipt = cloud.submit_with_retry(
                            &ResourceRequest {
                                vm_targets: self.targets.clone(),
                                placement: None,
                            },
                            &self.retry,
                        )?;
                        stats.vms_recovered +=
                            receipt.vm_targets.iter().map(|&t| t as u64).sum::<u64>();
                        stats.record_receipt(&receipt);
                    }
                }
            }
        }
        Ok(())
    }

    /// The site's rent step at `clock`, the same for every engine: sets
    /// its availability by [`FaultSchedule::site_caps_at`], clamps
    /// `targets` to its fleet (to nothing while the site is down, when
    /// `placement` is dropped too), submits them — and the placement as
    /// the broker's map — through the retrying broker, and keeps them as
    /// the targets in force.
    ///
    /// # Errors
    ///
    /// Propagates broker failures.
    pub(crate) fn rent(
        &mut self,
        clock: f64,
        cloud: &mut Cloud,
        mut targets: Vec<usize>,
        placement: Option<&Placement>,
        stats: &mut FaultStats,
        tel: &Telemetry,
    ) -> Result<(), SimError> {
        let max_vms = fleet(cloud);
        let down = self.site_down(clock);
        // Respect the site's physical fleet: the paper fleet is far
        // larger than any default-week plan, so this is a guard, not a
        // steady-state path.
        for (t, &max) in targets.iter_mut().zip(&max_vms) {
            *t = if down { 0 } else { (*t).min(max) };
        }
        cloud.set_availability(&self.schedule.site_caps_at(self.site, &max_vms, clock))?;
        let receipt = {
            let _s = tel.span(telem::PROV_SUBMIT);
            cloud.submit_with_retry(
                &ResourceRequest {
                    vm_targets: targets.clone(),
                    placement: placement
                        .filter(|_| !down)
                        .map(|p| p.iter().copied().collect::<PlacementPlan>()),
                },
                &self.retry,
            )?
        };
        stats.record_receipt(&receipt);
        self.targets = targets;
        Ok(())
    }
}

/// Resilience report: the faulted run compared against a fault-free
/// baseline of the same configuration, sample by sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// The earliest scheduled fault instant (0 when the schedule is
    /// empty).
    pub fault_start: f64,
    /// Mean streaming quality of the fault-free baseline run.
    pub baseline_mean_quality: f64,
    /// Mean streaming quality of the faulted run.
    pub faulted_mean_quality: f64,
    /// Lowest sampled quality of the faulted run at or after
    /// `fault_start`.
    pub quality_floor: f64,
    /// Deepest per-sample quality gap `baseline − faulted` after
    /// `fault_start`.
    pub dip_depth: f64,
    /// Total sampled time the faulted quality trailed the baseline by
    /// more than the tolerance, seconds.
    pub dip_duration_seconds: f64,
    /// Time from `fault_start` to the last sample still trailing the
    /// baseline (0 when quality never dipped).
    pub time_to_recover_seconds: f64,
    /// Faulted total cost minus baseline total cost, dollars (negative
    /// when the fault *saved* money, e.g. a budget cut).
    pub cost_overshoot_dollars: f64,
    /// What the fault plane did during the run.
    pub fault_stats: FaultStats,
}

/// Per-sample quality gap below which the faulted run counts as
/// recovered.
const RECOVERY_TOLERANCE: f64 = 0.005;

impl ResilienceReport {
    /// Builds the report from a fault-free baseline and a faulted run of
    /// the same configuration (identical sampling cadence).
    pub fn from_runs(
        baseline: &Metrics,
        faulted: &Metrics,
        fault_start: f64,
        fault_stats: FaultStats,
    ) -> Self {
        let mut quality_floor = f64::INFINITY;
        let mut dip_depth = 0.0f64;
        let mut dip_duration = 0.0f64;
        let mut last_dip_time = None;
        let mut prev_time = fault_start;
        for (b, f) in baseline.samples.iter().zip(&faulted.samples) {
            if f.time < fault_start {
                prev_time = f.time;
                continue;
            }
            let window = (f.time - prev_time).max(0.0);
            prev_time = f.time;
            quality_floor = quality_floor.min(f.quality);
            let gap = b.quality - f.quality;
            dip_depth = dip_depth.max(gap);
            if gap > RECOVERY_TOLERANCE {
                dip_duration += window;
                last_dip_time = Some(f.time);
            }
        }
        if !quality_floor.is_finite() {
            quality_floor = 0.0;
        }
        let time_to_recover = last_dip_time.map_or(0.0, |t| (t - fault_start).max(0.0));
        Self {
            fault_start,
            baseline_mean_quality: baseline.mean_quality(),
            faulted_mean_quality: faulted.mean_quality(),
            quality_floor,
            dip_depth,
            dip_duration_seconds: dip_duration,
            time_to_recover_seconds: time_to_recover,
            cost_overshoot_dollars: (faulted.total_vm_cost + faulted.total_storage_cost)
                - (baseline.total_vm_cost + baseline.total_storage_cost),
            fault_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Sample;

    fn sample(time: f64, quality: f64) -> Sample {
        Sample {
            time,
            reserved_bandwidth: 0.0,
            used_bandwidth: 0.0,
            quality,
            active_peers: 1,
            per_channel_peers: vec![1],
            per_channel_quality: vec![quality],
            mean_startup_delay: 0.0,
        }
    }

    fn metrics(qualities: &[f64]) -> Metrics {
        let mut m = Metrics::default();
        for (i, &q) in qualities.iter().enumerate() {
            m.samples.push(sample(300.0 * (i + 1) as f64, q));
        }
        m
    }

    #[test]
    fn validation_rejects_bad_events() {
        let mut s = FaultSchedule::vm_outage(100.0, 0.5, 600.0);
        s.validate().unwrap();
        s.vm_failures[0].fraction = 1.5;
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::vm_outage(100.0, 0.5, 0.0);
        assert!(s.validate().is_err());
        s = FaultSchedule::site_outage(0.0, 1, -5.0);
        assert!(s.validate().is_err());
        s = FaultSchedule::tracker_blackout(f64::NAN, 60.0);
        assert!(s.validate().is_err());
        s = FaultSchedule::budget_shock(3600.0, 0.0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn windows_and_masks() {
        let mut s = FaultSchedule::site_outage(1000.0, 1, 500.0);
        s.tracker_dropouts.push(TrackerDropout {
            at: 2000.0,
            duration_seconds: 100.0,
        });
        assert!(!s.site_down(1, 999.0));
        assert!(s.site_down(1, 1000.0));
        assert!(!s.site_down(1, 1500.0), "half-open window");
        assert!(!s.site_down(0, 1200.0));
        assert_eq!(s.site_mask(3, 1200.0), vec![false, true, false]);
        assert!(s.dropout_active(2050.0));
        assert!(!s.dropout_active(2100.0));
        assert_eq!(s.first_fault_at(), Some(1000.0));
        assert!(FaultSchedule::default().first_fault_at().is_none());
    }

    #[test]
    fn shock_factors_compose() {
        let mut s = FaultSchedule::budget_shock(3600.0, 0.5);
        s.cost_shocks.push(CostShock {
            at: 7200.0,
            vm_budget_factor: 0.8,
            vm_price_factor: 1.25,
        });
        assert_eq!(s.shock_factors(0.0), (1.0, 1.0));
        assert_eq!(s.shock_factors(3600.0), (0.5, 1.0));
        let (b, p) = s.shock_factors(10_000.0);
        assert!((b - 0.4).abs() < 1e-12);
        assert!((p - 1.25).abs() < 1e-12);
    }

    #[test]
    fn fleet_caps_take_the_worst_active_failure() {
        let mut s = FaultSchedule::vm_outage(100.0, 0.5, 1000.0);
        s.vm_failures.push(FleetFailure {
            at: 200.0,
            fraction: 0.2,
            recovery_seconds: 2000.0,
        });
        let max = vec![75, 30, 45];
        assert_eq!(s.fleet_caps_at(&max, 50.0), None);
        assert_eq!(s.fleet_caps_at(&max, 300.0), Some(vec![37, 15, 22]));
        // First failure repaired at 1100; the 20% one still active.
        assert_eq!(s.fleet_caps_at(&max, 1500.0), Some(vec![60, 24, 36]));
        assert_eq!(s.fleet_caps_at(&max, 2300.0), None);
    }

    #[test]
    fn driver_kills_and_repairs_deterministically() {
        let mut cloud = Cloud::paper_default().unwrap();
        let schedule = FaultSchedule::vm_outage(200.0, 0.5, 300.0);
        let mut driver = FaultDriver::new(&schedule, 0);
        let mut stats = FaultStats::default();
        let tel = Telemetry::disabled();
        driver
            .rent(0.0, &mut cloud, vec![40, 10, 0], None, &mut stats, &tel)
            .unwrap();
        cloud.tick(100.0).unwrap();
        cloud.tick(200.0).unwrap();
        driver.apply_due(200.0, &mut cloud, &mut stats).unwrap();
        assert_eq!(stats.vms_killed, 25, "half of 40 + half of 10");
        assert_eq!(cloud.availability(), &[37, 15, 22]);
        // Mid-outage nothing more happens.
        cloud.tick(400.0).unwrap();
        driver.apply_due(400.0, &mut cloud, &mut stats).unwrap();
        assert_eq!(stats.vms_killed, 25);
        // Repair restores the fleet and resubmits the targets in force.
        cloud.tick(500.0).unwrap();
        driver.apply_due(500.0, &mut cloud, &mut stats).unwrap();
        assert_eq!(cloud.availability(), &[75, 30, 45]);
        assert_eq!(stats.vms_recovered, 50);
        cloud.tick(600.0).unwrap();
        assert!((cloud.running_bandwidth() - 50.0 * 1.25e6).abs() < 1.0);
    }

    #[test]
    fn a_down_site_rents_nothing_until_it_is_back() {
        let mut cloud = Cloud::paper_default().unwrap();
        let schedule = FaultSchedule::site_outage(100.0, 0, 200.0);
        let mut driver = FaultDriver::new(&schedule, 0);
        let mut stats = FaultStats::default();
        let tel = Telemetry::disabled();
        driver
            .rent(150.0, &mut cloud, vec![40, 10, 0], None, &mut stats, &tel)
            .unwrap();
        assert_eq!(cloud.availability(), &[0, 0, 0]);
        assert_eq!(
            driver.targets,
            vec![0, 0, 0],
            "a repair would relaunch nothing"
        );
        driver
            .rent(300.0, &mut cloud, vec![40, 10, 0], None, &mut stats, &tel)
            .unwrap();
        assert_eq!(cloud.availability(), &[75, 30, 45]);
        assert_eq!(driver.targets, vec![40, 10, 0]);
    }

    #[test]
    fn report_measures_dip_and_recovery() {
        let baseline = metrics(&[0.97, 0.97, 0.97, 0.97, 0.97, 0.97]);
        let faulted = metrics(&[0.97, 0.97, 0.80, 0.85, 0.97, 0.97]);
        // Samples at 300..1800; fault lands at 600.
        let r = ResilienceReport::from_runs(&baseline, &faulted, 600.0, FaultStats::default());
        assert!((r.dip_depth - 0.17).abs() < 1e-12);
        assert!((r.quality_floor - 0.80).abs() < 1e-12);
        assert!((r.dip_duration_seconds - 600.0).abs() < 1e-9);
        // Last trailing sample at t=1200 → 600 s to recover.
        assert!((r.time_to_recover_seconds - 600.0).abs() < 1e-9);
        let clean = ResilienceReport::from_runs(&baseline, &baseline, 600.0, FaultStats::default());
        assert_eq!(clean.time_to_recover_seconds, 0.0);
        assert_eq!(clean.dip_depth, 0.0);
    }
}
