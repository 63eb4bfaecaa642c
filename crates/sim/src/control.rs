//! The interval control path every engine shares (paper Sec. V-B).
//!
//! Every provisioning interval a CloudMedia site measures, plans, rents
//! and records: the tracker's measurements of the interval that just
//! ended feed the predictor and the storage/VM optimizer (or a baseline
//! planner), the plan's VM targets and storage placement are rented
//! through the cloud broker, and the plan is put in force. Its
//! per-channel reservation is what the round engines allocate from, and
//! its [`IntervalRecord`] is what the metrics keep.
//!
//! [`SiteControl`] owns that loop's state for one site: the planner, the
//! budget-shock factor already folded into it, the storage placement in
//! force, the last plan (replayed while the tracker is dark, and
//! re-placed by emergency re-plans), and the per-channel reservation.
//! Its two steps are [`SiteControl::plan`] and [`SiteControl::commit`].
//! Every round-engine run is a deployment of one or more sites
//! (`crate::federation`): it plans every site, runs the global placement
//! over the plans, rents each site's aggregate targets, and then commits
//! each site's plan; a single site is a one-site deployment. The
//! event-driven provisioner plans, rents and commits its one site the
//! same way. Both rent through the site's `FaultDriver`.
//!
//! The fault plane's control-path faults are decided here, each a pure
//! function of the interval's start time: cost shocks at the boundary
//! and tracker dropouts. The engines therefore stay bit-identical to
//! each other and across thread counts.

use cloudmedia_cloud::broker::{
    scale_fleet_capacity, scale_nfs_capacity, scale_vm_prices, Cloud, SlaTerms,
};
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_core::baseline::{BaselinePlanner, ProvisionerKind};
use cloudmedia_core::controller::{BudgetPolicy, Controller, ControllerConfig, ProvisioningPlan};
use cloudmedia_core::predictor::ChannelObservation;
use cloudmedia_core::provisioning::Placement;
use cloudmedia_telemetry::Telemetry;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::FaultSchedule;
use crate::metrics::IntervalRecord;
use crate::telem;

/// One interval's measurements: each channel's id and observation.
pub(crate) type Observations = Vec<(usize, ChannelObservation)>;

/// A site's cloud: the paper's Table II/III clusters grown by the run's
/// `fleet_scale`, with VM prices scaled by `vm_price_factor` (1 for a
/// single site and the event-driven engine; the federation's regional
/// sites bill at their own).
pub(crate) fn site_cloud(cfg: &SimConfig, vm_price_factor: f64) -> Result<Cloud, SimError> {
    Ok(Cloud::new(
        scale_fleet_capacity(
            &scale_vm_prices(&paper_virtual_clusters(), vm_price_factor),
            cfg.fleet_scale,
        ),
        scale_nfs_capacity(&paper_nfs_clusters(), cfg.fleet_scale),
        cfg.chunk_bytes() as u64,
    )?)
}

/// An interval's plan as [`SiteControl::plan`] made it.
#[derive(Debug)]
pub(crate) struct Planned {
    pub(crate) plan: ProvisioningPlan,
    /// The tracker was dark, so `plan` replays the last one.
    pub(crate) replayed: bool,
}

/// One site's interval control state; see the module docs.
#[derive(Debug)]
pub(crate) struct SiteControl {
    planner: Planner,
    /// The site's price book (before cost shocks) and VM bandwidths.
    sla: SlaTerms,
    faults: FaultSchedule,
    /// The first interval's observations, taken by the first plan.
    bootstrap: Option<Observations>,
    /// Budget-shock factor already folded into the planner's budget.
    applied_budget_factor: f64,
    /// The storage placement in force, in key order (kept across
    /// intervals that do not refresh it).
    placement: Option<Placement>,
    /// The last plan put in force, placement stripped: re-placing
    /// chunks is not part of replaying a stale plan.
    last_plan: Option<ProvisioningPlan>,
    /// Per-channel cloud bandwidth the plan in force reserves. The
    /// paper's port-forwarding sends chunk requests to designated VMs,
    /// and a shared VM serves consecutive chunks of one channel, so a
    /// channel can use its own reserved VMs for any of its chunks but
    /// cannot borrow another channel's.
    channel_reserved: Vec<f64>,
    reserved_total: f64,
}

impl SiteControl {
    /// The control state of a site renting from `cloud`, configured by
    /// `cfg` (planner, fault schedule, catalog size).
    ///
    /// # Errors
    ///
    /// Propagates planner construction failures.
    pub(crate) fn new(cfg: &SimConfig, cloud: &Cloud) -> Result<Self, SimError> {
        let sla = cloud.sla_terms();
        let planner = make_planner(cfg, sla.virtual_clusters[0].vm_bandwidth_bytes_per_sec)?;
        Ok(Self {
            planner,
            sla,
            faults: cfg.faults.clone(),
            bootstrap: Some(bootstrap_stats(cfg)),
            applied_budget_factor: 1.0,
            placement: None,
            last_plan: None,
            channel_reserved: vec![0.0; cfg.catalog.len()],
            reserved_total: 0.0,
        })
    }

    /// Per-VM bandwidth of the paper's Standard cluster, bytes/s.
    pub(crate) fn vm_bandwidth(&self) -> f64 {
        self.sla.virtual_clusters[0].vm_bandwidth_bytes_per_sec
    }

    /// Per-channel reservation of the plan in force, bytes/s.
    pub(crate) fn channel_reserved(&self) -> &[f64] {
        &self.channel_reserved
    }

    /// The reservation summed over channels, bytes/s.
    pub(crate) fn reserved_total(&self) -> f64 {
        self.reserved_total
    }

    /// The last plan put in force (placement stripped), if any.
    pub(crate) fn last_plan(&self) -> Option<&ProvisioningPlan> {
        self.last_plan.as_ref()
    }

    /// The price book plans are made against at `clock`: the site's,
    /// with any due price shock applied. Running rentals keep billing at
    /// the site's own prices.
    fn planning_sla(&self, clock: f64) -> SlaTerms {
        let (_, price_factor) = self.faults.shock_factors(clock);
        if price_factor == 1.0 {
            self.sla.clone()
        } else {
            self.sla.with_vm_price_factor(price_factor)
        }
    }

    /// The site's planning bandwidth price at `clock`, dollars per
    /// byte/s-hour (what the federation's global placement weighs).
    pub(crate) fn planning_price(&self, clock: f64) -> f64 {
        self.planning_sla(clock).bandwidth_price_per_bps_hour()
    }

    /// Plans the interval starting at `clock`. Due budget shocks are
    /// folded into the planner first. The first interval plans from the
    /// bootstrap observations; every later one calls `observe` for the
    /// tracker's measurements of the interval that just ended. While the
    /// tracker is dark those measurements are drained all the same, so
    /// collector state matches a fault-free run, and the last plan is
    /// replayed.
    ///
    /// # Errors
    ///
    /// Propagates `observe`'s errors and planner failures.
    pub(crate) fn plan(
        &mut self,
        clock: f64,
        tel: &Telemetry,
        observe: impl FnOnce() -> Result<Observations, SimError>,
    ) -> Result<Planned, SimError> {
        let (budget_factor, _) = self.faults.shock_factors(clock);
        if budget_factor != self.applied_budget_factor {
            self.planner
                .scale_vm_budget(budget_factor / self.applied_budget_factor)?;
            self.applied_budget_factor = budget_factor;
        }
        let observed = {
            let _s = tel.span(telem::PROV_TRACKER);
            match self.bootstrap.take() {
                Some(bootstrap) => bootstrap,
                None => observe()?,
            }
        };
        if let Some(last) = self.last_plan.as_ref() {
            if self.faults.dropout_active(clock) {
                return Ok(Planned {
                    plan: last.clone(),
                    replayed: true,
                });
            }
        }
        let sla = self.planning_sla(clock);
        let _s = tel.span(telem::PROV_PLAN);
        Ok(Planned {
            plan: self.planner.plan_interval(&observed, &sla)?,
            replayed: false,
        })
    }

    /// Puts `plan` in force at `clock`: its storage placement (when
    /// `placed`; a dark federated site rents none) replaces the one in
    /// force, its VM allocations become the per-channel reservation, and
    /// it becomes the replay fallback. Returns the interval's record,
    /// with `per_channel_peers` the viewers connected per channel.
    pub(crate) fn commit(
        &mut self,
        clock: f64,
        mut plan: ProvisioningPlan,
        placed: bool,
        per_channel_peers: Vec<usize>,
    ) -> IntervalRecord {
        let refreshed = plan.placement.is_some();
        if let Some(p) = plan.placement.take().filter(|_| placed) {
            self.placement = Some(p);
        }
        let n_channels = self.channel_reserved.len();
        let clusters = &self.sla.virtual_clusters;
        let mut per_channel_vm = vec![0.0; n_channels];
        self.channel_reserved.fill(0.0);
        for (key, allocs) in &plan.vm_plan.allocations {
            if key.channel >= n_channels {
                continue;
            }
            let bw: f64 = allocs
                .iter()
                .map(|a| a.vms * clusters[a.cluster].vm_bandwidth_bytes_per_sec)
                .sum();
            self.channel_reserved[key.channel] += bw;
            for a in allocs {
                per_channel_vm[key.channel] += clusters[a.cluster].utility * a.vms;
            }
        }
        self.reserved_total = self.channel_reserved.iter().sum();

        let mut per_channel_demand = vec![0.0; n_channels];
        let mut per_channel_storage = vec![0.0; n_channels];
        for d in &plan.chunk_demands {
            let c = d.key.channel;
            if c >= n_channels {
                continue;
            }
            per_channel_demand[c] += d.demand;
            let placed = self.placement.as_deref().and_then(|pl| {
                let i = pl.binary_search_by_key(&d.key, |&(key, _)| key).ok()?;
                Some(pl[i].1)
            });
            if let Some(f) = placed {
                per_channel_storage[c] += self.sla.nfs_clusters[f].utility * d.demand;
            }
        }
        let record = IntervalRecord {
            time: clock,
            vm_targets: plan.vm_targets.clone(),
            vm_hourly_cost: plan.vm_plan.integer_hourly_cost,
            total_cloud_demand: plan.total_cloud_demand,
            expected_peer_contribution: plan.expected_peer_contribution,
            per_channel_demand,
            per_channel_storage_utility: per_channel_storage,
            per_channel_vm_utility: per_channel_vm,
            placement_refreshed: refreshed,
            per_channel_peers,
        };
        self.last_plan = Some(plan);
        record
    }
}

/// Bootstrap observations for the very first interval: the provider's
/// "empirical user scale and viewing pattern information" (paper Sec. V-B)
/// — the catalog's base rates scaled by the diurnal multiplier at time 0.
fn bootstrap_stats(cfg: &SimConfig) -> Observations {
    let mult = cfg.trace.diurnal.multiplier(0.0);
    cfg.catalog
        .channels()
        .iter()
        .map(|spec| {
            (
                spec.id,
                ChannelObservation {
                    arrival_rate: spec.base_arrival_rate * mult,
                    alpha: spec.viewing.start_at_beginning,
                    routing: spec
                        .viewing
                        .routing_rows()
                        .expect("catalog channels validated at construction"),
                },
            )
        })
        .collect()
}

/// The pluggable provisioning strategy.
#[derive(Debug)]
enum Planner {
    /// The paper's model-driven controller (boxed: it dwarfs the
    /// baseline variant).
    Model(Box<Controller>),
    /// A baseline strategy (reactive or fixed).
    Baseline(BaselinePlanner),
}

/// Builds the configured provisioning planner for a run (the controller
/// configuration mirrors the paper's defaults with the run's overrides).
fn make_planner(cfg: &SimConfig, vm_bandwidth: f64) -> Result<Planner, SimError> {
    let controller_config = ControllerConfig {
        interval_seconds: cfg.provisioning_interval,
        vm_budget_per_hour: cfg.vm_budget_per_hour,
        storage_budget_per_hour: cfg.storage_budget_per_hour,
        mode: cfg.streaming_mode(),
        streaming_rate: cfg.streaming_rate,
        chunk_seconds: cfg.chunk_seconds,
        vm_bandwidth,
        safety_factor: cfg.safety_factor,
        target: cfg.provisioning_target,
        // Fault-plane runs degrade uniformly (diluting every stream)
        // instead of aborting when a mid-run budget shock makes the
        // configured budget infeasible; fault-free runs keep the strict
        // paper semantics of surfacing the "increase the budget" signal.
        budget_policy: if cfg.faults.is_empty() {
            BudgetPolicy::Strict
        } else {
            BudgetPolicy::BestEffort
        },
        ..ControllerConfig::paper_default(cfg.streaming_mode())
    };
    Ok(match cfg.provisioner {
        ProvisionerKind::Model => {
            Planner::Model(Box::new(Controller::new(controller_config, cfg.predictor)?))
        }
        baseline => Planner::Baseline(BaselinePlanner::new(
            baseline,
            cfg.streaming_rate,
            cfg.chunk_seconds,
            cfg.vm_budget_per_hour,
            cfg.storage_budget_per_hour,
        )?),
    })
}

impl Planner {
    fn plan_interval(
        &mut self,
        stats: &[(usize, ChannelObservation)],
        sla: &SlaTerms,
    ) -> Result<ProvisioningPlan, SimError> {
        Ok(match self {
            Planner::Model(c) => c.plan_interval(stats, sla)?,
            Planner::Baseline(b) => b.plan_interval(stats, sla)?,
        })
    }

    /// Scales the VM rental budget by `factor` (mid-run budget shocks
    /// apply to the model controller and the baselines alike).
    fn scale_vm_budget(&mut self, factor: f64) -> Result<(), SimError> {
        match self {
            Planner::Model(c) => c.scale_vm_budget(factor)?,
            Planner::Baseline(b) => b.scale_vm_budget(factor)?,
        }
        Ok(())
    }
}
