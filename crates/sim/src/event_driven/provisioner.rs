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
//! Failure injection: a `VmFailure { fraction }` event shuts down the
//! given fraction of each cluster's active instances immediately (they
//! stop serving traffic at once; billing runs until power-off, as a real
//! provider would meter a crashed-but-reserved instance). The next
//! provisioning tick re-plans from measured demand and relaunches.

use cloudmedia_cloud::broker::{Cloud, ResourceRequest, RetryPolicy};
use cloudmedia_cloud::vm::{DEFAULT_BOOT_SECONDS, DEFAULT_SHUTDOWN_SECONDS};
use cloudmedia_des::{Component, Event, Kernel};
use cloudmedia_telemetry::Telemetry;

use super::events::{CmEvent, ADMISSION, PROVISIONER};
use super::DesScenario;
use crate::config::SimConfig;
use crate::control::{site_cloud, SiteControl};
use crate::error::SimError;
use crate::faults::{FaultSchedule, FaultStats};
use crate::metrics::IntervalRecord;
use crate::tracker::Tracker;

/// The provisioning component; see the module docs.
#[derive(Debug)]
pub struct Provisioner {
    cloud: Cloud,
    /// The site's interval control path (planner, plan in force,
    /// per-channel reservation).
    site: SiteControl,
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
    vms_killed: u64,
    /// First control-path failure; the engine surfaces it after the run.
    error: Option<SimError>,
    /// The configuration's fault schedule (its availability caps; the
    /// control path reads the rest).
    faults: FaultSchedule,
    /// Broker retry policy for repair resubmissions.
    retry: RetryPolicy,
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
            tracker,
            provisioning_interval: cfg.provisioning_interval,
            counts: vec![0; cfg.catalog.len()],
            intervals: Vec::new(),
            horizon: cfg.trace.horizon_seconds,
            boot_seconds,
            shutdown_seconds,
            vms_killed: 0,
            error: None,
            faults: cfg.faults.clone(),
            retry: RetryPolicy::paper_default(),
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

    /// Instances killed by failure injections.
    pub(crate) fn vms_killed(&self) -> u64 {
        self.vms_killed
    }

    /// The fault-plane counters (consumes them).
    pub(crate) fn take_fault_stats(&mut self) -> FaultStats {
        self.stats.vms_killed = self.vms_killed;
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

    /// One provisioning interval: measure, plan, submit, record.
    fn provision(&mut self, now: f64, kernel: &mut Kernel<CmEvent>) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        let record = self.site.provision(
            now,
            &mut self.cloud,
            &mut self.stats,
            &Telemetry::disabled(),
            self.counts.clone(),
            || self.tracker.interval_stats(self.provisioning_interval),
        )?;
        self.intervals.push(record);
        // Reserved changed now; running changes when boots/shutdowns
        // complete — sync capacity at both lifecycle instants.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.boot_seconds, PROVISIONER, CmEvent::CloudSync);
        kernel.schedule_in(self.shutdown_seconds, PROVISIONER, CmEvent::CloudSync);
        // Ticks fire strictly inside the horizon, like the round loop's
        // `while clock < horizon` — a tick *at* the horizon would plan a
        // fleet that never serves and record a phantom interval.
        if now + self.provisioning_interval < self.horizon {
            kernel.schedule_in(
                self.provisioning_interval,
                PROVISIONER,
                CmEvent::ProvisionTick,
            );
        }
        Ok(())
    }

    /// Applies the fault schedule's availability cap for instant `now`
    /// (full availability when no scheduled failure is active — scenario
    /// failures never cap, preserving their historical semantics).
    fn sync_availability(&mut self, now: f64) -> Result<(), SimError> {
        let max_vms: Vec<usize> = self
            .cloud
            .vm_scheduler()
            .specs()
            .iter()
            .map(|s| s.max_vms)
            .collect();
        match self.faults.fleet_caps_at(&max_vms, now) {
            Some(caps) => self.cloud.set_availability(&caps)?,
            None => self.cloud.restore_full_availability(),
        }
        Ok(())
    }

    /// Kills `fraction` of each cluster's active instances.
    fn fail_vms(
        &mut self,
        now: f64,
        fraction: f64,
        kernel: &mut Kernel<CmEvent>,
    ) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        self.sync_availability(now)?;
        let fraction = fraction.clamp(0.0, 1.0);
        let clusters = self.cloud.vm_scheduler().clusters();
        let mut targets = Vec::with_capacity(clusters);
        let mut killed = 0u64;
        for c in 0..clusters {
            let active = self.cloud.vm_scheduler().running(c);
            let survivors = (((active as f64) * (1.0 - fraction)).floor() as usize)
                .min(self.cloud.capacity_limit(c));
            killed += (active - survivors) as u64;
            targets.push(survivors);
        }
        self.vms_killed += killed;
        self.cloud.submit_request(&ResourceRequest {
            vm_targets: targets,
            placement: None,
        })?;
        // Shutting-down instances stop serving immediately; announce the
        // loss now and settle billing when they power off.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.shutdown_seconds, PROVISIONER, CmEvent::CloudSync);
        Ok(())
    }

    /// A scheduled repair: lift the availability cap (to whatever any
    /// still-active failure allows) and relaunch the last planned VM
    /// targets through the retry policy.
    fn recover_vms(&mut self, now: f64, kernel: &mut Kernel<CmEvent>) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        self.sync_availability(now)?;
        if !self.site.last_targets().is_empty() {
            let receipt = self.cloud.submit_with_retry(
                &ResourceRequest {
                    vm_targets: self.site.last_targets().to_vec(),
                    placement: None,
                },
                &self.retry,
            )?;
            self.stats.vms_recovered += receipt.vm_targets.iter().map(|&t| t as u64).sum::<u64>();
            self.stats.record_receipt(&receipt);
        }
        // Reserved capacity changed now; running capacity follows when
        // the relaunched instances finish booting.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.boot_seconds, PROVISIONER, CmEvent::CloudSync);
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
            CmEvent::VmFailure { fraction } => self.fail_vms(now, fraction, kernel),
            CmEvent::VmRecovery => self.recover_vms(now, kernel),
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
