//! The provisioning component: the paper's control path, event-driven.
//!
//! Runs the round engines' hourly pipeline through the same
//! `crate::control` module — tracker measurements (fed by `Track*`
//! events from the sessions component) into the model-driven controller
//! or a baseline planner, the resulting VM targets and placement through
//! the cloud broker, usage-time billing — but at event granularity:
//! boot and shutdown completions fire `CloudSync` events that
//! re-announce the online capacity to the admission component
//! mid-interval, which is what makes VM boot delay a first-class
//! observable instead of a sub-round artifact.
//!
//! Faults: the site is site 0 of the configuration's fault schedule, and
//! its `FaultDriver` is the one every round-engine site owns. A
//! `FaultBoundary` event applies the fleet failures and repairs due (a
//! failed instance stops serving at once; billing runs until power-off,
//! as a real provider would meter a crashed-but-reserved instance), and
//! a site going down or coming back between ticks re-rents the plan in
//! force, as a one-site deployment does. Every tick rents through the
//! same driver.

use cloudmedia_cloud::broker::Cloud;
use cloudmedia_cloud::vm::{DEFAULT_BOOT_SECONDS, DEFAULT_SHUTDOWN_SECONDS};
use cloudmedia_des::{Component, Event, Kernel};
use cloudmedia_telemetry::Telemetry;

use super::events::{CmEvent, ADMISSION, PROVISIONER};
use super::DesScenario;
use crate::config::SimConfig;
use crate::control::{site_cloud, Planned, SiteControl};
use crate::error::SimError;
use crate::faults::{FaultDriver, FaultStats};
use crate::metrics::IntervalRecord;
use crate::tracker::Tracker;

/// The provisioning component; see the module docs.
#[derive(Debug)]
pub struct Provisioner {
    cloud: Cloud,
    /// The site's interval control path (planner, plan in force,
    /// per-channel reservation).
    site: SiteControl,
    /// Fails, repairs and rents the site's fleet.
    faults: FaultDriver,
    /// The site was down at the last tick or outage boundary.
    down: bool,
    /// When the next provisioning tick fires (infinite after the last):
    /// a site going down or coming back at that instant is the tick's to
    /// rent, as at a deployment's provisioning boundary.
    next_tick: f64,
    tracker: Tracker,
    provisioning_interval: f64,
    /// Connected sessions per channel, maintained from join/leave
    /// tracking events.
    counts: Vec<usize>,
    intervals: Vec<IntervalRecord>,
    /// Run horizon; provisioning ticks fire strictly before it (the
    /// round engines' `while clock < horizon` boundary), so the DES run
    /// records the same interval count and never plans a fleet that
    /// could not serve.
    horizon: f64,
    boot_seconds: f64,
    shutdown_seconds: f64,
    /// First control-path failure; the engine surfaces it after the run.
    error: Option<SimError>,
    /// Fault-plane counters.
    stats: FaultStats,
}

impl Provisioner {
    /// Builds the component: cloud (with scenario latency overrides),
    /// planner, tracker.
    ///
    /// # Errors
    ///
    /// Propagates cloud and controller construction failures.
    pub(crate) fn new(cfg: &SimConfig, scenario: &DesScenario) -> Result<Self, SimError> {
        let boot_seconds = scenario.vm_boot_seconds.unwrap_or(DEFAULT_BOOT_SECONDS);
        let shutdown_seconds = scenario
            .vm_shutdown_seconds
            .unwrap_or(DEFAULT_SHUTDOWN_SECONDS);
        let cloud = site_cloud(cfg, 1.0)?.with_vm_latencies(boot_seconds, shutdown_seconds);
        let site = SiteControl::new(cfg, &cloud)?;
        let tracker = Tracker::new(&cfg.catalog)?;
        Ok(Self {
            cloud,
            site,
            faults: FaultDriver::new(&cfg.faults, 0),
            down: false,
            next_tick: 0.0,
            tracker,
            provisioning_interval: cfg.provisioning_interval,
            counts: vec![0; cfg.catalog.len()],
            intervals: Vec::new(),
            horizon: cfg.trace.horizon_seconds,
            boot_seconds,
            shutdown_seconds,
            error: None,
            stats: FaultStats::default(),
        })
    }

    /// Per-VM bandwidth of the paper's Standard cluster (the admission
    /// component's per-connection cap).
    pub(crate) fn vm_bandwidth(&self) -> f64 {
        self.site.vm_bandwidth()
    }

    /// Bandwidth of VMs currently running, bytes/s.
    pub(crate) fn running_bandwidth(&self) -> f64 {
        self.cloud.running_bandwidth()
    }

    /// Settles cloud lifecycle and billing to the end of the run.
    pub(crate) fn finish(&mut self, horizon: f64) -> Result<(), SimError> {
        self.cloud.tick(horizon)?;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(())
    }

    /// The recorded provisioning intervals (consumes them).
    pub(crate) fn take_intervals(&mut self) -> Vec<IntervalRecord> {
        std::mem::take(&mut self.intervals)
    }

    /// Total VM rental cost so far, dollars.
    pub(crate) fn vm_cost(&self) -> f64 {
        self.cloud.billing().vm_cost().as_dollars()
    }

    /// Total storage cost so far, dollars.
    pub(crate) fn storage_cost(&self) -> f64 {
        self.cloud.billing().storage_cost().as_dollars()
    }

    /// The fault-plane counters (consumes them).
    pub(crate) fn take_fault_stats(&mut self) -> FaultStats {
        std::mem::take(&mut self.stats)
    }

    /// Announces the current capacity to the admission component.
    fn announce_capacity(&self, kernel: &mut Kernel<CmEvent>) {
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::CapacityUpdate {
                channel_reserved: self.site.channel_reserved().to_vec(),
                running_bandwidth: self.cloud.running_bandwidth(),
            },
        );
    }

    /// One provisioning interval: measure, plan, rent, record. While the
    /// site is down the plan rents nothing and places no storage.
    fn provision(&mut self, now: f64, kernel: &mut Kernel<CmEvent>) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        let tel = Telemetry::disabled();
        let Planned { plan, replayed } = self.site.plan(now, &tel, || {
            self.tracker.interval_stats(self.provisioning_interval)
        })?;
        self.stats.fallback_intervals += u64::from(replayed);
        self.down = self.faults.site_down(now);
        self.faults.rent(
            now,
            &mut self.cloud,
            plan.vm_targets.clone(),
            plan.placement.as_ref(),
            &mut self.stats,
            &tel,
        )?;
        let record = self.site.commit(now, plan, !self.down, self.counts.clone());
        self.intervals.push(record);
        // Reserved changed now; running changes when boots/shutdowns
        // complete — sync capacity at both lifecycle instants.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.boot_seconds, PROVISIONER, CmEvent::CloudSync);
        kernel.schedule_in(self.shutdown_seconds, PROVISIONER, CmEvent::CloudSync);
        // Ticks fire strictly inside the horizon, like the round loop's
        // `while clock < horizon` — a tick *at* the horizon would plan a
        // fleet that never serves and record a phantom interval.
        let next = now + self.provisioning_interval;
        self.next_tick = if next < self.horizon {
            kernel.schedule_at(next, PROVISIONER, CmEvent::ProvisionTick);
            next
        } else {
            f64::INFINITY
        };
        Ok(())
    }

    /// A fault boundary: the site's due fleet failures and repairs, then,
    /// if the site went down or came back since the last tick, an
    /// emergency re-rent of the plan in force (nothing while down).
    /// Capacity is announced now and again once the fleet has shut down
    /// or, when `restores`, booted.
    fn fault_boundary(
        &mut self,
        now: f64,
        restores: bool,
        kernel: &mut Kernel<CmEvent>,
    ) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        self.faults
            .apply_due(now, &mut self.cloud, &mut self.stats)?;
        let down = self.faults.site_down(now);
        if down != self.down && now != self.next_tick {
            let targets = self
                .site
                .last_plan()
                .map(|p| p.vm_targets.clone())
                .unwrap_or_default();
            self.faults.rent(
                now,
                &mut self.cloud,
                targets,
                None,
                &mut self.stats,
                &Telemetry::disabled(),
            )?;
            self.stats.emergency_replans += 1;
            self.down = down;
        }
        self.announce_capacity(kernel);
        let settle = if restores {
            self.boot_seconds
        } else {
            self.shutdown_seconds
        };
        kernel.schedule_in(settle, PROVISIONER, CmEvent::CloudSync);
        Ok(())
    }
}

impl Component<CmEvent> for Provisioner {
    fn handle(&mut self, event: Event<CmEvent>, kernel: &mut Kernel<CmEvent>) {
        let now = event.time;
        if self.error.is_some() {
            // The control path already failed; ignore further control
            // events and let the engine surface the stored error.
            return;
        }
        let result = match event.payload {
            CmEvent::ProvisionTick => self.provision(now, kernel),
            CmEvent::CloudSync => self.cloud.tick(now).map_err(SimError::from).map(|()| {
                self.announce_capacity(kernel);
            }),
            CmEvent::FaultBoundary { restores } => self.fault_boundary(now, restores, kernel),
            CmEvent::TrackJoin {
                channel,
                chunk,
                admitted,
            } => {
                self.tracker.record_join(channel, chunk);
                self.counts[channel] += usize::from(admitted);
                Ok(())
            }
            CmEvent::TrackTransition { channel, from, to } => {
                self.tracker.record_transition(channel, from, to);
                Ok(())
            }
            CmEvent::TrackLeave { channel, from } => {
                self.tracker.record_leave(channel, from);
                self.counts[channel] = self.counts[channel].saturating_sub(1);
                Ok(())
            }
            other => unreachable!("provisioner received {other:?}"),
        };
        if let Err(e) = result {
            self.error = Some(e);
        }
    }
}
