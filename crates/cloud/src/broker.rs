//! The consumer-facing cloud facade: broker, SLA negotiation, request
//! handling.
//!
//! This ties together the functional modules of the paper's Fig. 1: the
//! *broker* is the interface through which the VoD provider submits
//! requests; the *SLA negotiator* publishes prices, QoS (per-VM bandwidth)
//! and current availability; the *request monitor* forwards accepted
//! requests to the VM and NFS schedulers; billing meters usage over time.

use cloudmedia_telemetry::GlobalCounter;
use serde::{Deserialize, Serialize};

use crate::billing::BillingMeter;
use crate::cluster::{NfsClusterSpec, VirtualClusterSpec};
use crate::error::CloudError;
use crate::scheduler::{NfsScheduler, PlacementPlan, VmScheduler};

/// Process-wide count of resource requests submitted through any broker
/// (telemetry only — read as before/after deltas by the simulators; never
/// fed back into scheduling decisions).
pub static BROKER_SUBMITS: GlobalCounter = GlobalCounter::new();

/// SLA terms the negotiator publishes to a consumer: the price book and
/// current availability of each cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaTerms {
    /// Virtual cluster specifications (prices, utilities, fleet sizes,
    /// per-VM bandwidth QoS).
    pub virtual_clusters: Vec<VirtualClusterSpec>,
    /// NFS cluster specifications (prices, utilities, capacities).
    pub nfs_clusters: Vec<NfsClusterSpec>,
}

impl SlaTerms {
    /// The cheapest marginal price of cloud bandwidth under these terms,
    /// in dollars per (byte/s)·hour: the minimum over virtual clusters of
    /// `price / vm_bandwidth`. This is the unit price the federation
    /// optimizer uses to compare sites (the integer VM plan mixes
    /// clusters, but the greedy heuristic fills the best-value cluster
    /// first, so the cheapest ratio is the marginal one).
    pub fn bandwidth_price_per_bps_hour(&self) -> f64 {
        self.virtual_clusters
            .iter()
            .map(|c| c.price.dollars_per_hour / c.vm_bandwidth_bytes_per_sec)
            .fold(f64::INFINITY, f64::min)
    }

    /// A copy of these terms with every VM rental price multiplied by
    /// `factor` — the price book of a regional site whose market differs
    /// from the reference region's. Storage prices are left untouched
    /// (NFS cost is negligible at the paper's scale).
    pub fn with_vm_price_factor(&self, factor: f64) -> Self {
        Self {
            virtual_clusters: scale_vm_prices(&self.virtual_clusters, factor),
            nfs_clusters: self.nfs_clusters.clone(),
        }
    }
}

/// Virtual cluster specs with rental prices multiplied by `factor`;
/// shared by [`SlaTerms::with_vm_price_factor`] and the federated
/// simulator (which builds each regional [`Cloud`] from scaled specs so
/// billing happens at the site's own prices).
pub fn scale_vm_prices(specs: &[VirtualClusterSpec], factor: f64) -> Vec<VirtualClusterSpec> {
    specs
        .iter()
        .map(|c| VirtualClusterSpec {
            price: crate::pricing::Rate::per_hour(c.price.dollars_per_hour * factor),
            ..c.clone()
        })
        .collect()
}

/// Virtual cluster specs with fleet sizes (`max_vms`) multiplied by
/// `factor` (rounded up, so a factor of 1.0 is the identity). The
/// scale-out simulations use this to grow the paper's Table II testbed —
/// 150 VMs sized for ~2500 viewers — in proportion to the simulated
/// population, keeping per-VM bandwidth, utilities, and prices exactly
/// the paper's.
pub fn scale_fleet_capacity(specs: &[VirtualClusterSpec], factor: f64) -> Vec<VirtualClusterSpec> {
    specs
        .iter()
        .map(|c| VirtualClusterSpec {
            max_vms: (c.max_vms as f64 * factor).ceil() as usize,
            ..c.clone()
        })
        .collect()
}

/// NFS cluster specs with storage capacities multiplied by `factor`
/// (the scale-out analogue of [`scale_fleet_capacity`] for Table III).
pub fn scale_nfs_capacity(
    specs: &[crate::cluster::NfsClusterSpec],
    factor: f64,
) -> Vec<crate::cluster::NfsClusterSpec> {
    specs
        .iter()
        .map(|c| crate::cluster::NfsClusterSpec {
            capacity_bytes: (c.capacity_bytes as f64 * factor).ceil() as u64,
            ..c.clone()
        })
        .collect()
}

/// A resource change request submitted via the broker at the start of a
/// provisioning interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRequest {
    /// Target number of active VMs per virtual cluster.
    pub vm_targets: Vec<usize>,
    /// Optional new chunk placement (omitted when demand has not shifted
    /// enough to justify re-placement, per paper Sec. V-B).
    pub placement: Option<PlacementPlan>,
}

/// Deterministic retry policy for broker submissions: exponential backoff
/// with a hard cap, measured in *simulated* seconds. The sim's rejections
/// are deterministic, so retries exist to model the control-plane latency
/// a real provider pays before giving up and degrading — the backoff total
/// is charged to the resilience report, not to the data plane.
///
/// ```
/// use cloudmedia_cloud::broker::RetryPolicy;
/// let p = RetryPolicy::paper_default();
/// // Backoff doubles after each failed attempt, capped at the max.
/// assert_eq!(p.backoff_after(1), 5.0);
/// assert_eq!(p.backoff_after(2), 10.0);
/// assert_eq!(p.backoff_after(3), 20.0);
/// assert_eq!(p.backoff_after(10), p.max_backoff_seconds);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total submission attempts before degrading (>= 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, seconds.
    pub base_backoff_seconds: f64,
    /// Ceiling on any single backoff, seconds.
    pub max_backoff_seconds: f64,
}

impl RetryPolicy {
    /// Four attempts, 5 s base backoff, 60 s cap — well under the round
    /// length × attempt budget, so a degraded plan still lands within the
    /// provisioning boundary it was computed for.
    pub fn paper_default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_seconds: 5.0,
            max_backoff_seconds: 60.0,
        }
    }

    /// Backoff scheduled after the `failures`-th consecutive failure
    /// (1-based): `base × 2^(failures-1)`, capped.
    pub fn backoff_after(&self, failures: u32) -> f64 {
        let exp = failures.saturating_sub(1).min(52);
        (self.base_backoff_seconds * (1u64 << exp) as f64).min(self.max_backoff_seconds)
    }

    fn validate(&self) -> Result<(), CloudError> {
        if self.max_attempts == 0 {
            return Err(crate::error::invalid_param(
                "max_attempts",
                "must be at least 1",
            ));
        }
        if !(self.base_backoff_seconds.is_finite() && self.base_backoff_seconds >= 0.0) {
            return Err(crate::error::invalid_param(
                "base_backoff_seconds",
                "must be non-negative",
            ));
        }
        if !(self.max_backoff_seconds.is_finite() && self.max_backoff_seconds >= 0.0) {
            return Err(crate::error::invalid_param(
                "max_backoff_seconds",
                "must be non-negative",
            ));
        }
        Ok(())
    }
}

/// What [`Cloud::submit_with_retry`] actually did: how many attempts it
/// took, how much simulated backoff accrued, and whether the request had
/// to be degraded (VM targets clamped to current availability) to land.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SubmitReceipt {
    /// Submission attempts made (1 = accepted first try).
    pub attempts: u32,
    /// Total exponential backoff accrued across failed attempts, seconds.
    pub backoff_seconds: f64,
    /// True when the accepted request is the clamped (degraded) one.
    pub degraded: bool,
    /// The VM targets that were actually accepted.
    pub vm_targets: Vec<usize>,
}

/// The cloud provider: schedulers plus billing behind a broker interface.
#[derive(Debug)]
pub struct Cloud {
    vms: VmScheduler,
    nfs: NfsScheduler,
    billing: BillingMeter,
    clock: f64,
    /// Per-cluster availability cap (≤ the spec's `max_vms`). Normally
    /// equal to the fleet size; a correlated host failure lowers it until
    /// the repair completes, making over-cap submissions rejectable (and
    /// therefore retryable/degradable) instead of silently satisfiable.
    available: Vec<usize>,
}

impl Cloud {
    /// Builds a cloud from cluster specifications.
    ///
    /// # Errors
    ///
    /// Propagates specification validation failures.
    pub fn new(
        virtual_clusters: Vec<VirtualClusterSpec>,
        nfs_clusters: Vec<NfsClusterSpec>,
        chunk_bytes: u64,
    ) -> Result<Self, CloudError> {
        let billing = BillingMeter::new(&virtual_clusters, &nfs_clusters)?;
        let vms = VmScheduler::new(virtual_clusters)?;
        let nfs = NfsScheduler::new(nfs_clusters, chunk_bytes)?;
        let available = vms.specs().iter().map(|s| s.max_vms).collect();
        Ok(Self {
            vms,
            nfs,
            billing,
            clock: 0.0,
            available,
        })
    }

    /// The paper's experimental cloud: Table II VM clusters, Table III NFS
    /// clusters, 15 MB chunks.
    ///
    /// # Errors
    ///
    /// Never fails for the paper constants; the `Result` mirrors
    /// [`Cloud::new`].
    pub fn paper_default() -> Result<Self, CloudError> {
        Self::new(
            crate::cluster::paper_virtual_clusters(),
            crate::cluster::paper_nfs_clusters(),
            15_000_000,
        )
    }

    /// Overrides VM boot/shutdown latencies.
    pub fn with_vm_latencies(mut self, boot_seconds: f64, shutdown_seconds: f64) -> Self {
        self.vms = self.vms.with_latencies(boot_seconds, shutdown_seconds);
        self
    }

    /// The SLA negotiator: current terms for the consumer.
    pub fn sla_terms(&self) -> SlaTerms {
        SlaTerms {
            virtual_clusters: self.vms.specs().to_vec(),
            nfs_clusters: self.nfs.specs().to_vec(),
        }
    }

    /// Advances simulated time: progresses VM lifecycles and accrues
    /// billing for the elapsed period. Billing is exact regardless of tick
    /// granularity: the period is split at every shutdown completion so an
    /// instance is charged precisely from launch until fully off.
    ///
    /// # Errors
    ///
    /// Rejects time moving backwards.
    pub fn tick(&mut self, now: f64) -> Result<(), CloudError> {
        if now < self.clock {
            return Err(CloudError::TimeWentBackwards {
                last: self.clock,
                submitted: now,
            });
        }
        let mut cursor = self.clock;
        while let Some(change) = self.vms.next_billing_change(cursor, now) {
            self.billing
                .accrue(change, self.vms.billable_counts(), self.nfs.used_bytes())?;
            self.vms.tick(change)?;
            cursor = change;
        }
        self.billing
            .accrue(now, self.vms.billable_counts(), self.nfs.used_bytes())?;
        self.vms.tick(now)?;
        self.clock = now;
        Ok(())
    }

    /// Submits a resource request through the broker (the request monitor
    /// forwards it to the schedulers). Effective immediately at the current
    /// clock; VM changes take their boot/shutdown latency to materialize.
    ///
    /// # Errors
    ///
    /// Returns the first scheduler rejection; on VM-target rejection no
    /// placement change is applied either.
    pub fn submit_request(&mut self, request: &ResourceRequest) -> Result<(), CloudError> {
        BROKER_SUBMITS.inc();
        if request.vm_targets.len() != self.vms.clusters() {
            return Err(crate::error::invalid_param(
                "vm_targets",
                format!(
                    "expected {} clusters, got {}",
                    self.vms.clusters(),
                    request.vm_targets.len()
                ),
            ));
        }
        // Validate all VM targets before mutating anything.
        for (cluster, &target) in request.vm_targets.iter().enumerate() {
            let max = self.capacity_limit(cluster);
            if target > max {
                return Err(CloudError::InsufficientVms {
                    cluster,
                    requested: target,
                    available: max,
                });
            }
        }
        for (cluster, &target) in request.vm_targets.iter().enumerate() {
            self.vms.set_target(cluster, target, self.clock)?;
        }
        if let Some(plan) = &request.placement {
            self.nfs.apply_placement(plan.clone())?;
        }
        Ok(())
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The VM scheduler (read access for monitoring).
    pub fn vm_scheduler(&self) -> &VmScheduler {
        &self.vms
    }

    /// The NFS scheduler. `rejected_cloud_request_changes_nothing`
    /// (`tests/tests/failure_injection.rs`) reads the placement through
    /// it.
    pub fn nfs_scheduler(&self) -> &NfsScheduler {
        &self.nfs
    }

    /// The billing meter.
    pub fn billing(&self) -> &BillingMeter {
        &self.billing
    }

    /// Total bandwidth currently served by running VMs, bytes/second.
    pub fn running_bandwidth(&self) -> f64 {
        self.vms.total_running_bandwidth()
    }

    /// The number of VMs cluster `cluster` can currently host: the spec's
    /// fleet size, lowered by any outstanding availability cap.
    pub fn capacity_limit(&self, cluster: usize) -> usize {
        self.vms.specs()[cluster]
            .max_vms
            .min(self.available[cluster])
    }

    /// Current per-cluster availability caps. The fault driver's tests
    /// (`driver_kills_and_repairs_deterministically`,
    /// `a_down_site_rents_nothing_until_it_is_back` in the sim crate's
    /// `faults` module) read the caps it sets through this.
    pub fn availability(&self) -> &[usize] {
        &self.available
    }

    /// Caps each cluster's hostable VM count (clamped to the spec's
    /// `max_vms`) — the fault plane's handle for correlated host loss.
    /// Running instances above a lowered cap are not killed here; the
    /// caller decides which survive and submits the reduced targets.
    ///
    /// # Errors
    ///
    /// Rejects a cap vector whose length does not match the cluster count.
    pub fn set_availability(&mut self, caps: &[usize]) -> Result<(), CloudError> {
        if caps.len() != self.vms.clusters() {
            return Err(crate::error::invalid_param(
                "caps",
                format!(
                    "expected {} clusters, got {}",
                    self.vms.clusters(),
                    caps.len()
                ),
            ));
        }
        for (cluster, &cap) in caps.iter().enumerate() {
            self.available[cluster] = cap.min(self.vms.specs()[cluster].max_vms);
        }
        Ok(())
    }

    /// Submits a request under `policy`: retries `InsufficientVms`
    /// rejections with exponential backoff, and after the final attempt
    /// *degrades* — clamps every VM target to the cluster's current
    /// capacity limit and submits that instead, so a post-fault plan that
    /// exceeds the surviving fleet still lands (at reduced capacity)
    /// rather than leaving the previous interval's targets in place.
    ///
    /// Rejections in this model are deterministic, so the retries always
    /// observe the same answer; the accrued backoff is reported in the
    /// receipt as control-plane latency rather than being applied to the
    /// simulated clock.
    ///
    /// # Errors
    ///
    /// Propagates validation errors other than `InsufficientVms`, and any
    /// failure of the final degraded submission.
    pub fn submit_with_retry(
        &mut self,
        request: &ResourceRequest,
        policy: &RetryPolicy,
    ) -> Result<SubmitReceipt, CloudError> {
        policy.validate()?;
        let mut attempts = 0u32;
        let mut backoff = 0.0;
        loop {
            attempts += 1;
            match self.submit_request(request) {
                Ok(()) => {
                    return Ok(SubmitReceipt {
                        attempts,
                        backoff_seconds: backoff,
                        degraded: false,
                        vm_targets: request.vm_targets.clone(),
                    });
                }
                Err(CloudError::InsufficientVms { .. }) if attempts < policy.max_attempts => {
                    backoff += policy.backoff_after(attempts);
                }
                Err(CloudError::InsufficientVms { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        let clamped: Vec<usize> = request
            .vm_targets
            .iter()
            .enumerate()
            .map(|(cluster, &target)| target.min(self.capacity_limit(cluster)))
            .collect();
        self.submit_request(&ResourceRequest {
            vm_targets: clamped.clone(),
            placement: request.placement.clone(),
        })?;
        Ok(SubmitReceipt {
            attempts,
            backoff_seconds: backoff,
            degraded: true,
            vm_targets: clamped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::Money;
    use crate::scheduler::ChunkKey;

    #[test]
    fn sla_terms_reflect_paper_tables() {
        let cloud = Cloud::paper_default().unwrap();
        let terms = cloud.sla_terms();
        assert_eq!(terms.virtual_clusters.len(), 3);
        assert_eq!(terms.nfs_clusters.len(), 2);
    }

    #[test]
    fn end_to_end_request_provision_bill() {
        let mut cloud = Cloud::paper_default().unwrap();
        let mut placement = PlacementPlan::new();
        for i in 0..10 {
            placement.insert(
                ChunkKey {
                    channel: 0,
                    chunk: i,
                },
                1,
            );
        }
        cloud
            .submit_request(&ResourceRequest {
                vm_targets: vec![10, 0, 0],
                placement: Some(placement),
            })
            .unwrap();
        // After boot latency the bandwidth is online.
        cloud.tick(25.0).unwrap();
        assert!((cloud.running_bandwidth() - 10.0 * 1.25e6).abs() < 1.0);
        // One hour of 10 Standard VMs: $4.50 (+ tiny storage).
        cloud.tick(3625.0).unwrap();
        let vm_cost = cloud.billing().vm_cost().as_dollars();
        assert!((vm_cost - 0.45 * 10.0 * 3625.0 / 3600.0).abs() < 1e-9);
        let storage = cloud.billing().storage_cost().as_dollars();
        // 150 MB on High for ~1 h ~ 0.15 GB * 2.08e-4.
        assert!(storage > 0.0 && storage < 1e-3, "storage {storage}");
    }

    #[test]
    fn provisioning_latency_is_seconds_scale() {
        // The paper's point: parallel boot means even large scale-ups are
        // ready within one boot latency.
        let mut cloud = Cloud::paper_default().unwrap();
        cloud
            .submit_request(&ResourceRequest {
                vm_targets: vec![75, 30, 45],
                placement: None,
            })
            .unwrap();
        cloud.tick(25.0).unwrap();
        let total = 75.0 + 30.0 + 45.0;
        assert!((cloud.running_bandwidth() - total * 1.25e6).abs() < 1.0);
    }

    #[test]
    fn rejected_vm_target_applies_nothing() {
        let mut cloud = Cloud::paper_default().unwrap();
        let mut placement = PlacementPlan::new();
        placement.insert(
            ChunkKey {
                channel: 0,
                chunk: 0,
            },
            0,
        );
        let err = cloud
            .submit_request(&ResourceRequest {
                vm_targets: vec![10, 99, 0], // 99 > 30 Medium VMs
                placement: Some(placement),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            CloudError::InsufficientVms { cluster: 1, .. }
        ));
        cloud.tick(60.0).unwrap();
        assert_eq!(cloud.running_bandwidth(), 0.0, "no VMs launched");
        assert_eq!(
            cloud.nfs_scheduler().placed_chunks(),
            0,
            "no placement applied"
        );
    }

    #[test]
    fn scale_down_stops_billing_after_shutdown() {
        let mut cloud = Cloud::paper_default().unwrap();
        cloud
            .submit_request(&ResourceRequest {
                vm_targets: vec![20, 0, 0],
                placement: None,
            })
            .unwrap();
        cloud.tick(3600.0).unwrap();
        cloud
            .submit_request(&ResourceRequest {
                vm_targets: vec![0, 0, 0],
                placement: None,
            })
            .unwrap();
        cloud.tick(3610.0).unwrap(); // shutdown completes
        let cost_before = cloud.billing().total_cost();
        cloud.tick(7200.0).unwrap();
        let cost_after = cloud.billing().total_cost();
        assert!(
            (cost_after - cost_before).as_dollars() < 1e-9,
            "no further charges"
        );
    }

    #[test]
    fn zero_state_is_free() {
        let mut cloud = Cloud::paper_default().unwrap();
        cloud.tick(86_400.0).unwrap();
        assert_eq!(cloud.billing().total_cost(), Money::ZERO);
    }

    #[test]
    fn bandwidth_price_is_the_cheapest_cluster_ratio() {
        let sla = Cloud::paper_default().unwrap().sla_terms();
        // Paper Table II: Standard $0.45/h at 1.25 MB/s is the cheapest
        // ratio (3.6e-7 $/Bps·h); Medium and Advanced cost more per unit.
        assert!((sla.bandwidth_price_per_bps_hour() - 0.45 / 1.25e6).abs() < 1e-15);
    }

    #[test]
    fn availability_cap_rejects_then_degrade_clamps() {
        let mut cloud = Cloud::paper_default().unwrap();
        // Paper fleet: 75/30/45. Halve availability of cluster 0.
        cloud.set_availability(&[37, 30, 45]).unwrap();
        let request = ResourceRequest {
            vm_targets: vec![50, 0, 0],
            placement: None,
        };
        let err = cloud.submit_request(&request).unwrap_err();
        assert!(matches!(
            err,
            CloudError::InsufficientVms {
                cluster: 0,
                available: 37,
                ..
            }
        ));
        let receipt = cloud
            .submit_with_retry(&request, &RetryPolicy::paper_default())
            .unwrap();
        assert_eq!(receipt.attempts, 4);
        assert!(receipt.degraded);
        assert_eq!(receipt.vm_targets, vec![37, 0, 0]);
        // 5 + 10 + 20 seconds of exponential backoff across 3 failures.
        assert!((receipt.backoff_seconds - 35.0).abs() < 1e-12);
        // Repair restores the full fleet; the same request now lands.
        cloud.set_availability(&[75, 30, 45]).unwrap();
        let receipt = cloud
            .submit_with_retry(&request, &RetryPolicy::paper_default())
            .unwrap();
        assert_eq!(receipt.attempts, 1);
        assert!(!receipt.degraded);
        assert_eq!(receipt.backoff_seconds, 0.0);
    }

    #[test]
    fn retry_does_not_mask_other_errors() {
        let mut cloud = Cloud::paper_default().unwrap();
        let err = cloud
            .submit_with_retry(
                &ResourceRequest {
                    vm_targets: vec![1, 1], // wrong cluster count
                    placement: None,
                },
                &RetryPolicy::paper_default(),
            )
            .unwrap_err();
        assert!(matches!(err, CloudError::InvalidParameter { .. }));
    }

    #[test]
    fn backoff_caps_and_validates() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_seconds: 3.0,
            max_backoff_seconds: 10.0,
        };
        assert_eq!(p.backoff_after(1), 3.0);
        assert_eq!(p.backoff_after(2), 6.0);
        assert_eq!(p.backoff_after(3), 10.0, "capped");
        let mut cloud = Cloud::paper_default().unwrap();
        let bad = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::paper_default()
        };
        assert!(cloud
            .submit_with_retry(
                &ResourceRequest {
                    vm_targets: vec![0, 0, 0],
                    placement: None
                },
                &bad
            )
            .is_err());
    }

    #[test]
    fn vm_price_factor_scales_rental_only() {
        let sla = Cloud::paper_default().unwrap().sla_terms();
        let scaled = sla.with_vm_price_factor(1.5);
        for (a, b) in sla.virtual_clusters.iter().zip(&scaled.virtual_clusters) {
            assert!((b.price.dollars_per_hour - 1.5 * a.price.dollars_per_hour).abs() < 1e-12);
            assert_eq!(a.max_vms, b.max_vms);
            assert_eq!(a.vm_bandwidth_bytes_per_sec, b.vm_bandwidth_bytes_per_sec);
        }
        assert_eq!(sla.nfs_clusters, scaled.nfs_clusters);
        assert!(
            (scaled.bandwidth_price_per_bps_hour() - 1.5 * sla.bandwidth_price_per_bps_hour())
                .abs()
                < 1e-15
        );
    }
}
