//! The federated multi-region simulator, and the one host every
//! round-engine run steps under (see "Execution" below).
//!
//! [`FederatedSimulator`] runs one full CloudMedia system per region —
//! each with its population share of the catalog, its diurnal pattern
//! shifted to local time, and its *own cloud site* billing at regional
//! prices — in lockstep rounds, and couples them through the global
//! placement optimizer ([`cloudmedia_core::federation`]): every
//! provisioning interval each region's controller derives its predicted
//! cloud demand exactly as in a single-site run, then the optimizer
//! decides how much of each region's demand is served by its local site
//! and how much is **redirected** to remote sites (peak overflow into
//! off-peak capacity, or price arbitrage into cheaper markets).
//!
//! # What redirection means mechanically
//!
//! The viewer-facing side of a region is unchanged: its channels keep
//! the reservation its controller planned, and its round engine (the
//! [`SimKernel::Indexed`] engine the single-site [`crate::Simulator`]
//! uses) allocates bandwidth per round as always.
//! What moves is *where the VMs backing that reservation run*: region
//! `i`'s integer VM targets are apportioned across sites according to
//! the placement (largest-remainder per cluster, so totals are
//! conserved), each site's broker receives the aggregate targets it
//! must run, and each site's billing meters its own fleet at its own
//! prices. A region whose capacity is partly remote sees its effective
//! online scale blend the boot progress of every site serving it.
//!
//! Redirected *traffic* is metered per round: the used cloud bandwidth
//! of region `i` times its current redirected share, integrated over
//! time, is billed the serving sites' egress price plus the policy's SLA
//! latency penalty (per gigabyte). The penalty monetizes the remote-
//! serving quality loss instead of simulating packet-level latency — the
//! same modeling level as the paper's cost objective.
//!
//! # Execution: one host for every round-engine run
//!
//! Each region is one site of the segment driver (`crate::segments`),
//! which steps every shard of every region through segments of rounds
//! in one pool fan-out and folds them in region and shard order. This
//! module's `Deployment` is the driver's only host: it keeps the
//! boundary work — each site's fleet failures and repairs (one
//! `FaultDriver` per site), the per-region plans and the global
//! placement at provisioning rounds, emergency re-plans when the site
//! mask changes, each round's `site_online` blending, and the
//! redirected-traffic metering. A single-site [`crate::Simulator`] run
//! is a one-site deployment of the same host, with its own
//! configuration, one uncapped reference-priced site without egress and
//! [`FederationPolicy::independent`]: for one site the placement keeps
//! everything local and the redirect metering adds nothing, so no fault
//! kind or result depends on which entry point a run came through.
//!
//! # The three deployments
//!
//! [`DeploymentKind`] selects the comparison points the `geo_federation`
//! benchmark and the acceptance test pin:
//!
//! - **Independent** — redirection disabled; every region serves all of
//!   its demand locally at its own prices (the two-extreme baseline the
//!   plain `geo_sim` bench measured).
//! - **Federated** — the optimizer redirects where marginal cost says
//!   so; total cost is bounded above by the independent deployment
//!   (all-local remains feasible) while every byte is still served from
//!   a region-priced site.
//! - **Central** — one site in the reference (cheapest) market serves
//!   the time-zone-multiplexed mixture of all regional demand curves;
//!   flattest curve and cheapest prices, but *every* remote viewer's
//!   latency is outside the model (the paper's motivation for regional
//!   sites in the first place).

use cloudmedia_cloud::broker::Cloud;
use cloudmedia_core::federation::{
    paper_sites, plan_global_placement, three_sites, validate_regions, FederationPolicy,
    RegionSpec, SiteSpec,
};
use cloudmedia_core::provisioning::Placement;
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::diurnal::DiurnalPattern;
use cloudmedia_workload::trace::child_seed;

use crate::allocation::apportion;
use crate::config::{SimConfig, SimKernel, SimMode};
use crate::control::{site_cloud, Planned, SiteControl};
use crate::error::{invalid_param, SimError};
use crate::faults::{FaultDriver, FaultStats};
use crate::footprint::PeerFootprint;
use crate::metrics::Metrics;
use crate::segments::{self, Site};
use crate::simulator::RoundEngine;
use crate::telem;

/// Which multi-region deployment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentKind {
    /// Per-region sites, no traffic exchange.
    Independent,
    /// Per-region sites plus the global placement optimizer.
    Federated,
    /// One reference-priced site serving the multiplexed mixture.
    Central,
}

/// Configuration of a federated run: the per-region template plus the
/// deployment's regions, site economics, and placement policy.
#[derive(Debug, Clone)]
pub struct FederatedConfig {
    /// Template configuration; each region derives its own copy (catalog
    /// scaled by population share, diurnal shifted to local time,
    /// distinct trace and behaviour seeds). The `kernel` must be the
    /// round engine (Indexed). `parallel_channels` (the default) steps
    /// the regions on the rayon pool and fans their plans out; shards
    /// never share an accumulator inside a segment of rounds and every
    /// cross-region coupling (global placement, site online fractions)
    /// happens at synchronization barriers, so the parallel and serial
    /// executions are **bit-identical** — pinned by
    /// `crates/sim/tests/federation.rs`. Disable it to force serial
    /// execution (debugging, single-core baselines).
    ///
    /// ```
    /// use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
    /// use cloudmedia_sim::config::SimMode;
    ///
    /// let mut cfg =
    ///     FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::ClientServer, 24.0);
    /// assert!(cfg.base.parallel_channels, "parallel by default");
    /// cfg.base.parallel_channels = false; // serial run: bit-identical metrics
    /// assert!(FederatedSimulator::new(cfg).is_ok());
    /// ```
    pub base: SimConfig,
    /// The regions (shares must sum to ~1).
    pub regions: Vec<RegionSpec>,
    /// One cloud site per region, in region order.
    pub sites: Vec<SiteSpec>,
    /// The placement policy.
    pub policy: FederationPolicy,
}

impl FederatedConfig {
    /// The paper-default three-site deployment ([`three_sites`] regions,
    /// [`paper_sites`] economics) for `kind`, over `hours` hours.
    pub fn paper_default(kind: DeploymentKind, mode: SimMode, hours: f64) -> Self {
        let mut base = SimConfig::paper_default(mode);
        base.trace.horizon_seconds = hours * 3600.0;
        match kind {
            DeploymentKind::Independent => Self {
                base,
                regions: three_sites(),
                sites: paper_sites(),
                policy: FederationPolicy::independent(),
            },
            DeploymentKind::Federated => Self {
                base,
                regions: three_sites(),
                sites: paper_sites(),
                policy: FederationPolicy::federated(),
            },
            DeploymentKind::Central => {
                // One site in the reference market serving the mixture of
                // the shifted regional patterns — time-zone multiplexing.
                let regions = three_sites();
                let parts: Vec<(f64, DiurnalPattern)> = regions
                    .iter()
                    .map(|r| {
                        (
                            r.population_share,
                            base.trace.diurnal.shifted(r.timezone_offset_hours),
                        )
                    })
                    .collect();
                base.trace.diurnal =
                    DiurnalPattern::mixture(&parts).expect("region shares are positive");
                let reference_factor = paper_sites()
                    .iter()
                    .map(|s| s.vm_price_factor)
                    .fold(f64::INFINITY, f64::min);
                Self {
                    base,
                    regions: vec![RegionSpec {
                        name: "central".into(),
                        population_share: 1.0,
                        timezone_offset_hours: 0.0,
                    }],
                    sites: vec![SiteSpec {
                        vm_price_factor: reference_factor,
                        capacity_cap_bps: f64::INFINITY,
                        egress_price_per_gb: 0.0,
                    }],
                    policy: FederationPolicy::independent(),
                }
            }
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects mismatched region/site lists, invalid regions or policy,
    /// an event-driven kernel (the federation drives round engines), and
    /// any invalid derived per-region configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        validate_regions(&self.regions).map_err(SimError::from)?;
        if self.sites.len() != self.regions.len() {
            return Err(invalid_param(
                "sites",
                format!(
                    "expected one site per region, got {} sites / {} regions",
                    self.sites.len(),
                    self.regions.len()
                ),
            ));
        }
        self.policy.validate().map_err(SimError::from)?;
        if self.base.kernel == SimKernel::EventDriven {
            return Err(invalid_param(
                "kernel",
                "the federated simulator drives the round engine; use Indexed \
                 (the event-driven engine models single-site redirection via \
                 DesScenario::remote_overflow)",
            ));
        }
        self.base.faults.validate_sites(self.regions.len())?;
        for idx in 0..self.regions.len() {
            self.region_config(idx).validate()?;
        }
        Ok(())
    }

    /// Region `idx`'s derived simulation configuration.
    fn region_config(&self, idx: usize) -> SimConfig {
        let r = &self.regions[idx];
        let mut cfg = self.base.clone();
        cfg.catalog = cfg.catalog.scaled(r.population_share);
        cfg.trace.diurnal = cfg.trace.diurnal.shifted(r.timezone_offset_hours);
        // Distinct seeds per region so the swarms are independent: the
        // arrivals, and the viewer behaviour (each region's channel
        // shards then draw `child_seed` streams of its own seed).
        cfg.trace.seed ^= (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cfg.behaviour_seed = child_seed(self.base.behaviour_seed, idx as u64);
        cfg
    }
}

/// One region's outcome of a federated run.
#[derive(Debug, Clone)]
pub struct RegionOutcome {
    /// The region.
    pub region: RegionSpec,
    /// Its site economics.
    pub site: SiteSpec,
    /// Viewer-side metric series (samples, intervals). `total_vm_cost`
    /// and `total_storage_cost` hold the *site's* bill — the VM-hours
    /// this region's cloud ran for everyone it served, local and
    /// imported, at its own prices.
    pub metrics: Metrics,
    /// Cloud-served bytes delivered to this region's viewers.
    pub cloud_bytes: f64,
    /// Of those, bytes served by a remote site.
    pub redirected_bytes: f64,
    /// Egress charges paid for this region's redirected bytes, dollars.
    pub transfer_cost: f64,
    /// SLA latency-penalty credits for those bytes, dollars.
    pub latency_penalty_cost: f64,
}

impl RegionOutcome {
    /// Fraction of this region's cloud-served bytes that came from a
    /// remote site.
    pub fn redirected_share(&self) -> f64 {
        if self.cloud_bytes <= 0.0 {
            return 0.0;
        }
        self.redirected_bytes / self.cloud_bytes
    }
}

/// Aggregate outcome of a federated run.
#[derive(Debug, Clone)]
pub struct FederatedMetrics {
    /// Per-region outcomes, in region order.
    pub per_region: Vec<RegionOutcome>,
    /// Σ site VM bills, dollars.
    pub total_vm_cost: f64,
    /// Σ site storage bills, dollars.
    pub total_storage_cost: f64,
    /// Σ egress charges, dollars.
    pub total_transfer_cost: f64,
    /// Σ SLA latency-penalty credits, dollars.
    pub total_latency_penalty_cost: f64,
    /// What the fault plane did during the run: emergency re-plans,
    /// fallback intervals, shed arrivals, retry totals. All zeros when
    /// the schedule is empty.
    pub fault_stats: FaultStats,
}

impl FederatedMetrics {
    /// The deployment's total cost: VM + storage + transfer + latency
    /// penalty, dollars.
    pub fn total_cost(&self) -> f64 {
        self.total_vm_cost
            + self.total_storage_cost
            + self.total_transfer_cost
            + self.total_latency_penalty_cost
    }

    /// Fraction of all cloud-served bytes that were redirected.
    pub fn redirected_share(&self) -> f64 {
        let total: f64 = self.per_region.iter().map(|r| r.cloud_bytes).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.per_region
            .iter()
            .map(|r| r.redirected_bytes)
            .sum::<f64>()
            / total
    }

    /// Population-weighted mean streaming quality.
    pub fn mean_quality(&self) -> f64 {
        let mut q = 0.0;
        let mut w = 0.0;
        for r in &self.per_region {
            q += r.region.population_share * r.metrics.mean_quality();
            w += r.region.population_share;
        }
        if w > 0.0 {
            q / w
        } else {
            1.0
        }
    }

    /// Peak concurrent viewers across regions (summed per region, not
    /// per instant — regions sample in lockstep, so sums align).
    pub fn peak_peers(&self) -> usize {
        let samples = self
            .per_region
            .iter()
            .map(|r| r.metrics.samples.len())
            .min()
            .unwrap_or(0);
        (0..samples)
            .map(|k| {
                self.per_region
                    .iter()
                    .map(|r| r.metrics.samples[k].active_peers)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}

/// One region's boundary state: its site's cloud and fault driver, its
/// control path, the placement bookkeeping that routes its demand, and
/// its redirected-traffic accounting. Its viewers live in the segment
/// driver's site.
struct RegionRuntime {
    /// The region's site (broker + schedulers + billing at its prices).
    cloud: Cloud,
    /// Fails, repairs and rents the site's fleet; holds the site's
    /// aggregate VM targets in force (its own + imports).
    faults: FaultDriver,
    /// The region's interval control path. Its plans and viewer-side
    /// reservation are the region's own; the VMs backing them run on
    /// the sites the global placement picks.
    control: SiteControl,
    /// Current interval's placement row: share of this region's demand
    /// served by each site.
    serve_share: Vec<f64>,
    /// Fraction of this region's cloud demand served remotely.
    redirect_fraction: f64,
    /// Blended egress price of the sites serving this region's exported
    /// traffic, dollars per GB.
    blended_egress_per_gb: f64,
    // Federation accounting.
    cloud_bytes: f64,
    redirected_bytes: f64,
    transfer_cost: f64,
    latency_penalty_cost: f64,
}

/// The one host of the segment driver. Every round-engine run is a
/// deployment of one or more sites: each region's boundary state, the
/// fault plane's site mask, and the coordinator's scratch. Everything
/// here is mutated serially, between segments or in the pre-step, so
/// serial and parallel execution stay bit-identical.
pub(crate) struct Deployment<'a> {
    fc: &'a FederatedConfig,
    regions: Vec<RegionRuntime>,
    stats: FaultStats,
    /// The site mask in force (true = down).
    site_mask: Vec<bool>,
    /// A round's `site_online` row: the fraction of the reservation each
    /// site backs that is running at the round's start (0 for a down
    /// site).
    site_online: Vec<f64>,
}

impl Deployment<'_> {
    /// The work before the segment that starts at `clock`, with
    /// `provision` set on a provisioning round: each site's due fleet
    /// failures and repairs, then either the per-region plans and the
    /// global placement, or an emergency re-plan when the site mask
    /// changed. Interval records go into each site's metrics.
    ///
    /// # Errors
    ///
    /// Propagates planning, placement and cloud failures.
    pub(crate) fn boundary<E: RoundEngine>(
        &mut self,
        clock: f64,
        provision: bool,
        sites: &mut [Site<'_, E>],
        tel: &Telemetry,
    ) -> Result<(), SimError> {
        for r in &mut self.regions {
            r.faults.apply_due(clock, &mut r.cloud, &mut self.stats)?;
        }
        let mask = self.fc.base.faults.site_mask(self.regions.len(), clock);
        if provision {
            let _interval_span = tel.span(telem::PROV_INTERVAL);
            self.provision(sites, clock, &mask, tel)?;
            self.site_mask = mask;
        } else if mask != self.site_mask {
            // A site went dark (or came back) between boundaries:
            // re-place the in-force plans around the new topology right
            // now instead of waiting for the next hourly tick.
            self.emergency_replan(clock, &mask, tel)?;
            self.stats.emergency_replans += 1;
            self.site_mask = mask;
        }
        Ok(())
    }

    /// Pre-steps the round `[t0, t1)`: applies each site's fleet
    /// boundaries due by `t0` (a no-op on a segment's first round),
    /// writes each region's online scale at the round's start into
    /// `online`, ticks every cloud to `t1`, and writes each site's
    /// running bandwidth after the tick into `running`.
    ///
    /// Regions couple only through the placement and the sites' boot
    /// progress, which depend on time and submissions, never on viewer
    /// state. A region's capacity comes online as fast as the sites
    /// actually serving it boot their fleets; a down site serves
    /// nothing, whatever its fleet state. Site `j`'s running bandwidth
    /// is measured against the reservation it backs,
    /// `Σ_i serve_share[i][j] · reserved_total_i`: for one site serving
    /// all of its own demand, that is `min(1, running / reserved)`.
    ///
    /// # Errors
    ///
    /// Propagates cloud failures.
    pub(crate) fn pre_round(
        &mut self,
        t0: f64,
        t1: f64,
        online: &mut [f64],
        running: &mut [f64],
    ) -> Result<(), SimError> {
        for r in &mut self.regions {
            r.faults.apply_due(t0, &mut r.cloud, &mut self.stats)?;
        }
        let regions = &self.regions;
        self.site_online.clear();
        self.site_online
            .extend(
                regions
                    .iter()
                    .zip(&self.site_mask)
                    .enumerate()
                    .map(|(j, (r, &down))| {
                        let backed: f64 = regions
                            .iter()
                            .map(|i| i.serve_share[j] * i.control.reserved_total())
                            .sum();
                        if down {
                            0.0
                        } else if backed > 0.0 {
                            (r.cloud.running_bandwidth() / backed).min(1.0)
                        } else {
                            1.0
                        }
                    }),
            );
        for (r, online) in self.regions.iter().zip(online.iter_mut()) {
            *online = if r.control.reserved_total() > 0.0 {
                r.serve_share
                    .iter()
                    .zip(&self.site_online)
                    .map(|(s, u)| s * u)
                    .sum::<f64>()
                    .min(1.0)
            } else {
                0.0
            };
        }
        for (r, running) in self.regions.iter_mut().zip(running.iter_mut()) {
            r.cloud.tick(t1)?;
            *running = r.cloud.running_bandwidth();
        }
        Ok(())
    }

    /// True when the site mask changes at `t1`, so the segment must end
    /// there.
    pub(crate) fn ends_segment(&self, t1: f64) -> bool {
        let faults = &self.fc.base.faults;
        (0..self.site_mask.len()).any(|j| faults.site_down(j, t1) != self.site_mask[j])
    }

    /// Region `site`'s control path: its per-channel reservation and VM
    /// bandwidth are what its shards allocate from.
    pub(crate) fn control(&self, site: usize) -> &SiteControl {
        &self.regions[site].control
    }

    /// Meters one round of region `site`'s cloud use, `bytes` over the
    /// round. Redirected traffic, the bytes times the region's
    /// redirected share, is billed the serving sites' egress price plus
    /// the SLA latency penalty.
    pub(crate) fn meter(&mut self, site: usize, bytes: f64) {
        let penalty_per_gb = self.fc.policy.latency_penalty_per_gb;
        let r = &mut self.regions[site];
        r.cloud_bytes += bytes;
        let redirected = bytes * r.redirect_fraction;
        if redirected > 0.0 {
            r.redirected_bytes += redirected;
            r.transfer_cost += redirected * r.blended_egress_per_gb / 1e9;
            r.latency_penalty_cost += redirected * penalty_per_gb / 1e9;
        }
    }

    /// Runs every region's site in lockstep to the horizon and assembles
    /// the outcome; with `footprint`, adds the sites' end-of-run
    /// footprint.
    fn run<E: RoundEngine>(
        mut self,
        mut sites: Vec<Site<'_, E>>,
        tel: &Telemetry,
        footprint: Option<&mut PeerFootprint>,
    ) -> Result<FederatedMetrics, SimError> {
        let fc = self.fc;
        segments::run(&fc.base, &mut sites, &mut self, tel)?;
        if let Some(out) = footprint {
            sites.iter().for_each(|site| site.add_footprint(out));
        }
        let mut per_region = Vec::with_capacity(sites.len());
        let mut total_vm = 0.0;
        let mut total_storage = 0.0;
        let mut total_transfer = 0.0;
        let mut total_penalty = 0.0;
        for (idx, (r, site)) in self.regions.into_iter().zip(sites).enumerate() {
            self.stats.shed_arrivals += site.shed();
            let mut metrics = site.metrics;
            metrics.total_vm_cost = r.cloud.billing().vm_cost().as_dollars();
            metrics.total_storage_cost = r.cloud.billing().storage_cost().as_dollars();
            total_vm += metrics.total_vm_cost;
            total_storage += metrics.total_storage_cost;
            total_transfer += r.transfer_cost;
            total_penalty += r.latency_penalty_cost;
            per_region.push(RegionOutcome {
                region: fc.regions[idx].clone(),
                site: fc.sites[idx].clone(),
                metrics,
                cloud_bytes: r.cloud_bytes,
                redirected_bytes: r.redirected_bytes,
                transfer_cost: r.transfer_cost,
                latency_penalty_cost: r.latency_penalty_cost,
            });
        }
        Ok(FederatedMetrics {
            per_region,
            total_vm_cost: total_vm,
            total_storage_cost: total_storage,
            total_transfer_cost: total_transfer,
            total_latency_penalty_cost: total_penalty,
            fault_stats: self.stats,
        })
    }

    /// One global provisioning boundary: per-region plans, the global
    /// placement, the integer VM-target apportionment, each site's
    /// broker submission, and each region's plan put in force. The fault
    /// plane hooks in here: each region's control path folds economic
    /// shocks and replays its last plan during tracker dropouts, and the
    /// site outage mask reroutes demand around dark sites.
    fn provision<E: RoundEngine>(
        &mut self,
        sites: &mut [Site<'_, E>],
        clock: f64,
        mask: &[bool],
        tel: &Telemetry,
    ) -> Result<(), SimError> {
        // 1. Per-region plans. Each region plans from its own trackers
        //    and controller, so the plans fan out on the pool; results,
        //    errors and fallbacks are reduced in region order.
        let mut outcomes: Vec<Option<Result<Planned, SimError>>> =
            self.regions.iter().map(|_| None).collect();
        let plan = |r: &mut RegionRuntime, site: &mut Site<'_, E>, out: &mut Option<_>| {
            *out = Some(r.control.plan(clock, tel, || site.interval_stats()));
        };
        let parallel = self.fc.base.parallel_channels && sites.len() > 1;
        let work = self
            .regions
            .iter_mut()
            .zip(sites.iter_mut())
            .zip(&mut outcomes);
        if parallel {
            let plan = &plan;
            rayon::scope(|s| {
                for ((r, site), out) in work {
                    s.spawn(move |_| plan(r, site, out));
                }
            });
        } else {
            for ((r, site), out) in work {
                plan(r, site, out);
            }
        }
        let mut plans = Vec::with_capacity(self.regions.len());
        for outcome in outcomes {
            let Planned { plan, replayed } = outcome.expect("every region planned")?;
            self.stats.fallback_intervals += u64::from(replayed);
            plans.push(plan);
        }

        // 2–3. Global placement, apportionment, and site submissions —
        //    shared with the emergency re-plan path.
        let demands: Vec<f64> = plans.iter().map(|p| p.total_cloud_demand).collect();
        let region_targets: Vec<Vec<usize>> = plans.iter().map(|p| p.vm_targets.clone()).collect();
        let storage: Vec<Option<&Placement>> = plans.iter().map(|p| p.placement.as_ref()).collect();
        self.place(clock, mask, &demands, &region_targets, &storage, tel)?;

        // 4. Put each region's plan in force: its viewer-side
        //    reservation comes from its own plan.
        for (((r, site), plan), &down) in self.regions.iter_mut().zip(sites).zip(plans).zip(mask) {
            let record = r.control.commit(clock, plan, !down, site.channel_peers());
            site.metrics.intervals.push(record);
        }
        Ok(())
    }

    /// Re-routes the in-force plans around a topology change (a site
    /// going dark or coming back) between provisioning boundaries: the
    /// last plans' demands and VM targets are re-placed over the
    /// surviving sites and resubmitted. No tracker is drained and no
    /// interval record is written — the next boundary plans from fresh
    /// measurements as usual.
    fn emergency_replan(
        &mut self,
        clock: f64,
        mask: &[bool],
        tel: &Telemetry,
    ) -> Result<(), SimError> {
        let n = self.regions.len();
        let mut demands = Vec::with_capacity(n);
        let mut region_targets = Vec::with_capacity(n);
        for r in &self.regions {
            let plan = r.control.last_plan();
            demands.push(plan.map_or(0.0, |p| p.total_cloud_demand));
            region_targets.push(plan.map(|p| p.vm_targets.clone()).unwrap_or_default());
        }
        self.place(clock, mask, &demands, &region_targets, &vec![None; n], tel)
    }

    /// The placement machinery shared by the hourly boundary and the
    /// emergency re-plan: runs the global optimizer over the effective
    /// topology (a down site advertises no capacity), apportions each
    /// region's integer VM targets across the sites serving it, rents
    /// every site's aggregate targets through its
    /// [`FaultDriver::rent`] (so down sites rent nothing and can host
    /// nothing while they are dark), and refreshes each region's
    /// redirection bookkeeping.
    fn place(
        &mut self,
        clock: f64,
        mask: &[bool],
        demands: &[f64],
        region_targets: &[Vec<usize>],
        storage: &[Option<&Placement>],
        tel: &Telemetry,
    ) -> Result<(), SimError> {
        let fc = self.fc;
        let n = self.regions.len();
        let site_prices: Vec<f64> = self
            .regions
            .iter()
            .map(|r| r.control.planning_price(clock))
            .collect();
        let placement = if mask.iter().any(|&d| d) {
            // `SiteSpec::validate` rejects a zero capacity cap, so a dark
            // site advertises the smallest positive one instead.
            let mut sites = fc.sites.to_vec();
            for (j, s) in sites.iter_mut().enumerate() {
                if mask[j] {
                    s.capacity_cap_bps = f64::MIN_POSITIVE;
                }
            }
            plan_global_placement(demands, &sites, &site_prices, &fc.policy)?
        } else {
            plan_global_placement(demands, &fc.sites, &site_prices, &fc.policy)?
        };

        let n_clusters = region_targets.first().map(Vec::len).unwrap_or_default();
        let mut site_targets = vec![vec![0usize; n_clusters]; n];
        for (i, targets) in region_targets.iter().enumerate() {
            let row = &placement.assignment[i];
            for (v, &target) in targets.iter().enumerate() {
                for (j, share) in apportion(target, row).into_iter().enumerate() {
                    site_targets[j][v] += share;
                }
            }
        }

        for (j, (r, targets)) in self.regions.iter_mut().zip(site_targets).enumerate() {
            r.faults.rent(
                clock,
                &mut r.cloud,
                targets,
                storage[j],
                &mut self.stats,
                tel,
            )?;

            // Redirection bookkeeping: where region j's demand is served.
            let row = &placement.assignment[j];
            let total: f64 = row.iter().sum();
            r.serve_share = if total > 0.0 {
                row.iter().map(|x| x / total).collect()
            } else {
                let mut s = vec![0.0; n];
                if !mask[j] {
                    s[j] = 1.0;
                }
                s
            };
            r.redirect_fraction = placement.redirect_fraction(j);
            let exported: f64 = total - row[j];
            r.blended_egress_per_gb = if exported > 0.0 {
                row.iter()
                    .enumerate()
                    .filter(|&(k, _)| k != j)
                    .map(|(k, x)| x * fc.sites[k].egress_price_per_gb)
                    .sum::<f64>()
                    / exported
            } else {
                0.0
            };
        }
        Ok(())
    }
}

/// The federated multi-region simulator. Construct with a
/// [`FederatedConfig`] and call [`FederatedSimulator::run`].
#[derive(Debug)]
pub struct FederatedSimulator {
    config: FederatedConfig,
}

impl FederatedSimulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(config: FederatedConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &FederatedConfig {
        &self.config
    }

    /// Runs every region in lockstep over the shared horizon and returns
    /// the per-region and aggregate outcome.
    ///
    /// # Errors
    ///
    /// Propagates trace generation, provisioning, placement, and cloud
    /// failures.
    pub fn run(&self) -> Result<FederatedMetrics, SimError> {
        self.run_with_telemetry(&Telemetry::disabled())
    }

    /// [`FederatedSimulator::run`] recording stage timings, per-region
    /// wall/peer rows, and counters into `tel`. Telemetry is a pure
    /// side channel — the returned metrics are bit-identical to
    /// [`FederatedSimulator::run`].
    ///
    /// # Errors
    ///
    /// Propagates trace generation, provisioning, placement, and cloud
    /// failures.
    pub fn run_with_telemetry(&self, tel: &Telemetry) -> Result<FederatedMetrics, SimError> {
        let fc = &self.config;
        let cfgs: Vec<SimConfig> = (0..fc.regions.len())
            .map(|idx| fc.region_config(idx))
            .collect();
        run(fc, &cfgs, tel, None, Site::indexed)
    }
}

/// Runs `fc`'s deployment on `cfgs`, one configuration per site in site
/// order (the federation derives them from `fc.base`; a single site
/// passes its own), with the round engine `site` builds each site on
/// (`Site::indexed` in production), recording telemetry into `tel`;
/// with `footprint`, also measures the end-of-run per-peer resident
/// footprint (`crate::footprint`).
///
/// # Errors
///
/// Propagates trace generation, provisioning, placement, and cloud
/// failures.
pub(crate) fn run<'a, E: RoundEngine>(
    fc: &FederatedConfig,
    cfgs: &'a [SimConfig],
    tel: &Telemetry,
    footprint: Option<&mut PeerFootprint>,
    site: impl Fn(&'a SimConfig) -> Result<Site<'a, E>, SimError>,
) -> Result<FederatedMetrics, SimError> {
    // Process-wide counter baseline, taken before the arrival streams
    // exist so their lazy draws are attributed to this run.
    let globals = telem::GlobalCounters::capture();
    let run_span = tel.span(telem::RUN_WALL);
    let n_sites = cfgs.len();
    let mut regions = Vec::with_capacity(n_sites);
    for (idx, cfg) in cfgs.iter().enumerate() {
        let cloud = site_cloud(cfg, fc.sites[idx].vm_price_factor)?;
        let control = SiteControl::new(cfg, &cloud)?;
        let mut serve_share = vec![0.0; n_sites];
        serve_share[idx] = 1.0;
        regions.push(RegionRuntime {
            cloud,
            faults: FaultDriver::new(&fc.base.faults, idx),
            control,
            serve_share,
            redirect_fraction: 0.0,
            blended_egress_per_gb: 0.0,
            cloud_bytes: 0.0,
            redirected_bytes: 0.0,
            transfer_cost: 0.0,
            latency_penalty_cost: 0.0,
        });
    }
    let host = Deployment {
        fc,
        regions,
        stats: FaultStats::default(),
        site_mask: vec![false; n_sites],
        site_online: Vec::with_capacity(n_sites),
    };
    let sites = cfgs.iter().map(site).collect::<Result<_, _>>()?;
    let metrics = host.run(sites, tel, footprint)?;
    drop(run_span);
    telem::record_fault_stats(tel, &metrics.fault_stats);
    globals.record_delta(tel);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_workload::catalog::Catalog;
    use cloudmedia_workload::viewing::ViewingModel;

    /// A small, fast three-region configuration.
    fn small(kind: DeploymentKind, hours: f64) -> FederatedConfig {
        let mut fc = FederatedConfig::paper_default(kind, SimMode::ClientServer, hours);
        fc.base.catalog =
            Catalog::zipf(3, 0.8, ViewingModel::paper_default(), 120.0, 300.0).unwrap();
        fc
    }

    /// Every region draws its own viewer behaviour: no two regions
    /// derive the same behaviour seed, so they never replay one set of
    /// per-channel streams.
    #[test]
    fn every_region_derives_its_own_behaviour_seed() {
        let fc = FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::P2p, 1.0);
        let seeds: std::collections::BTreeSet<u64> = (0..fc.regions.len())
            .map(|idx| fc.region_config(idx).behaviour_seed)
            .collect();
        assert_eq!(seeds.len(), fc.regions.len(), "shared seeds: {seeds:?}");
    }

    #[test]
    fn apportion_conserves_and_follows_shares() {
        assert_eq!(apportion(10, &[1.0, 0.0, 0.0]), vec![10, 0, 0]);
        assert_eq!(apportion(10, &[0.5, 0.5]), vec![5, 5]);
        let split = apportion(7, &[0.6, 0.3, 0.1]);
        assert_eq!(split.iter().sum::<usize>(), 7);
        assert!(split[0] >= split[1] && split[1] >= split[2], "{split:?}");
        assert_eq!(apportion(3, &[0.0, 0.0]), vec![3, 0], "degenerate shares");
        assert_eq!(apportion(0, &[0.4, 0.6]), vec![0, 0]);
    }

    #[test]
    fn independent_run_produces_sane_per_region_metrics() {
        let m = FederatedSimulator::new(small(DeploymentKind::Independent, 4.0))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(m.per_region.len(), 3);
        assert_eq!(m.redirected_share(), 0.0, "no redirection when disabled");
        assert_eq!(m.total_transfer_cost, 0.0);
        assert!(m.total_vm_cost > 0.0);
        assert!(m.mean_quality() > 0.9, "quality {}", m.mean_quality());
        for r in &m.per_region {
            assert_eq!(r.metrics.intervals.len(), 4, "one record per hour");
            assert!(!r.metrics.samples.is_empty());
        }
    }

    #[test]
    fn central_runs_one_region_with_the_mixture() {
        let m = FederatedSimulator::new(small(DeploymentKind::Central, 4.0))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(m.per_region.len(), 1);
        assert_eq!(m.redirected_share(), 0.0);
        assert!(m.total_vm_cost > 0.0);
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let a = FederatedSimulator::new(small(DeploymentKind::Federated, 3.0))
            .unwrap()
            .run()
            .unwrap();
        let b = FederatedSimulator::new(small(DeploymentKind::Federated, 3.0))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.total_cost(), b.total_cost());
        assert_eq!(a.redirected_share(), b.redirected_share());
        for (x, y) in a.per_region.iter().zip(&b.per_region) {
            assert_eq!(x.metrics, y.metrics);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut fc = small(DeploymentKind::Federated, 2.0);
        fc.sites.pop();
        assert!(FederatedSimulator::new(fc).is_err(), "site count mismatch");

        let mut fc = small(DeploymentKind::Federated, 2.0);
        fc.base.kernel = SimKernel::EventDriven;
        assert!(FederatedSimulator::new(fc).is_err(), "event-driven kernel");

        let mut fc = small(DeploymentKind::Federated, 2.0);
        fc.regions[0].population_share = 0.05;
        assert!(FederatedSimulator::new(fc).is_err(), "shares must sum to 1");
    }

    /// The federation on the reference engine: the same deployment
    /// with every region's site built on `Site::scan`.
    #[test]
    fn scan_and_indexed_federations_agree() {
        let fc = small(DeploymentKind::Federated, 3.0);
        let a = FederatedSimulator::new(fc.clone()).unwrap().run().unwrap();
        let cfgs: Vec<SimConfig> = (0..fc.regions.len())
            .map(|idx| fc.region_config(idx))
            .collect();
        let b = run(&fc, &cfgs, &Telemetry::disabled(), None, Site::scan).unwrap();
        for (x, y) in a.per_region.iter().zip(&b.per_region) {
            assert_eq!(x.metrics, y.metrics, "engines diverged");
        }
        assert_eq!(a.total_cost(), b.total_cost());
    }
}
