//! VM and NFS schedulers.
//!
//! These are the cloud-side "VM Scheduler" and "NFS Scheduler" modules of
//! the paper's Fig. 1: the VM scheduler converges each virtual cluster's
//! fleet toward the consumer's requested instance counts (launching and
//! shutting down in parallel); the NFS scheduler applies chunk placements
//! onto storage clusters subject to capacity.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cluster::{NfsClusterSpec, VirtualClusterSpec};
use crate::error::CloudError;
use crate::vm::{VmInstance, DEFAULT_BOOT_SECONDS, DEFAULT_SHUTDOWN_SECONDS};

/// The VM scheduler: one fleet of instances per virtual cluster.
///
/// Fleet-wide aggregates (running/billable counts, the next lifecycle
/// transition time) are cached and refreshed only when instance states
/// can actually change, so the simulator's per-round `tick` calls cost
/// `O(clusters)` instead of `O(fleet)`: between a boot completing and the
/// next target change, every tick short-circuits.
#[derive(Debug, Clone)]
pub struct VmScheduler {
    specs: Vec<VirtualClusterSpec>,
    fleets: Vec<Vec<VmInstance>>,
    boot_seconds: f64,
    shutdown_seconds: f64,
    last_tick: f64,
    /// Cached billable (launched, not yet off) instances per cluster.
    billable_cache: Vec<usize>,
    /// Cached running instances per cluster.
    running_cache: Vec<usize>,
    /// Earliest future instant any instance changes lifecycle state
    /// (`ready_at` of a booting or `off_at` of a stopping instance);
    /// `+inf` when no instance is booting or stopping.
    next_transition: f64,
    /// Earliest `off_at` among shutting-down instances; `+inf` if none.
    earliest_off: f64,
}

impl VmScheduler {
    /// Creates a scheduler with pre-deployed (off) instances per cluster.
    ///
    /// # Errors
    ///
    /// Propagates cluster validation failures.
    pub fn new(specs: Vec<VirtualClusterSpec>) -> Result<Self, CloudError> {
        for s in &specs {
            s.validate()?;
        }
        let fleets: Vec<Vec<VmInstance>> = specs
            .iter()
            .map(|s| (0..s.max_vms).map(VmInstance::new).collect())
            .collect();
        let clusters = specs.len();
        let mut scheduler = Self {
            specs,
            fleets,
            boot_seconds: DEFAULT_BOOT_SECONDS,
            shutdown_seconds: DEFAULT_SHUTDOWN_SECONDS,
            last_tick: 0.0,
            billable_cache: vec![0; clusters],
            running_cache: vec![0; clusters],
            next_transition: f64::INFINITY,
            earliest_off: f64::INFINITY,
        };
        scheduler.refresh_caches();
        Ok(scheduler)
    }

    /// Recomputes the cached fleet aggregates from instance states.
    fn refresh_caches(&mut self) {
        self.next_transition = f64::INFINITY;
        self.earliest_off = f64::INFINITY;
        for (c, fleet) in self.fleets.iter().enumerate() {
            let mut billable = 0;
            let mut running = 0;
            for vm in fleet {
                match vm.state {
                    crate::vm::VmState::Running { .. } => {
                        running += 1;
                        billable += 1;
                    }
                    crate::vm::VmState::Booting { ready_at } => {
                        billable += 1;
                        self.next_transition = self.next_transition.min(ready_at);
                    }
                    crate::vm::VmState::ShuttingDown { off_at } => {
                        billable += 1;
                        self.next_transition = self.next_transition.min(off_at);
                        self.earliest_off = self.earliest_off.min(off_at);
                    }
                    crate::vm::VmState::Off => {}
                }
            }
            self.billable_cache[c] = billable;
            self.running_cache[c] = running;
        }
    }

    /// Overrides the boot/shutdown latencies (defaults follow the paper:
    /// 25 s boot, ~10 s shutdown).
    pub fn with_latencies(mut self, boot_seconds: f64, shutdown_seconds: f64) -> Self {
        self.boot_seconds = boot_seconds;
        self.shutdown_seconds = shutdown_seconds;
        self.refresh_caches();
        self
    }

    /// The cluster specifications.
    pub fn specs(&self) -> &[VirtualClusterSpec] {
        &self.specs
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.specs.len()
    }

    /// Advances every instance's lifecycle to `now`.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::TimeWentBackwards`] if `now` precedes the
    /// previous tick.
    pub fn tick(&mut self, now: f64) -> Result<(), CloudError> {
        if now < self.last_tick {
            return Err(CloudError::TimeWentBackwards {
                last: self.last_tick,
                submitted: now,
            });
        }
        self.last_tick = now;
        // Idle fast path: no instance can change state before
        // `next_transition`, so the per-instance walk is skippable.
        if now < self.next_transition {
            return Ok(());
        }
        for fleet in &mut self.fleets {
            for vm in fleet {
                vm.tick(now);
            }
        }
        self.refresh_caches();
        Ok(())
    }

    /// Converges cluster `cluster` toward `target` active (booting or
    /// running) instances: launches the shortfall from off instances, or
    /// shuts down the excess. Launches happen in parallel (all at `now`),
    /// matching the paper's parallel-provisioning observation.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownCluster`] for a bad index and
    /// [`CloudError::InsufficientVms`] if `target` exceeds the fleet size
    /// (nothing is changed in that case).
    pub fn set_target(
        &mut self,
        cluster: usize,
        target: usize,
        now: f64,
    ) -> Result<(), CloudError> {
        let spec_max = self
            .specs
            .get(cluster)
            .ok_or(CloudError::UnknownCluster { cluster })?
            .max_vms;
        if target > spec_max {
            return Err(CloudError::InsufficientVms {
                cluster,
                requested: target,
                available: spec_max,
            });
        }
        let fleet = &mut self.fleets[cluster];
        let mut active: Vec<usize> = Vec::new();
        let mut off: Vec<usize> = Vec::new();
        for (i, vm) in fleet.iter().enumerate() {
            match vm.state {
                crate::vm::VmState::Running { .. } | crate::vm::VmState::Booting { .. } => {
                    active.push(i);
                }
                crate::vm::VmState::Off => off.push(i),
                crate::vm::VmState::ShuttingDown { .. } => {}
            }
        }
        if active.len() < target {
            let need = target - active.len();
            for &i in off.iter().take(need) {
                fleet[i].launch(now, self.boot_seconds);
            }
            // If off instances cannot cover the shortfall, instances still
            // shutting down will become available on later ticks; the
            // controller re-issues targets each interval so this converges.
        } else if active.len() > target {
            // Shut down booting instances first (they serve no traffic yet).
            let excess = active.len() - target;
            let (booting, running): (Vec<usize>, Vec<usize>) = active
                .into_iter()
                .partition(|&i| matches!(fleet[i].state, crate::vm::VmState::Booting { .. }));
            for &i in booting.iter().chain(running.iter()).take(excess) {
                fleet[i].shutdown(now, self.shutdown_seconds);
            }
        }
        self.refresh_caches();
        Ok(())
    }

    /// Number of running instances in a cluster.
    pub fn running(&self, cluster: usize) -> usize {
        self.running_cache[cluster]
    }

    /// Number of billable (launched, not yet off) instances in a cluster.
    pub fn billable(&self, cluster: usize) -> usize {
        self.billable_cache[cluster]
    }

    /// Total bandwidth currently served by a cluster, bytes per second.
    pub fn running_bandwidth(&self, cluster: usize) -> f64 {
        self.running(cluster) as f64 * self.specs[cluster].vm_bandwidth_bytes_per_sec
    }

    /// Total running bandwidth across all clusters, bytes per second.
    pub fn total_running_bandwidth(&self) -> f64 {
        (0..self.clusters())
            .map(|c| self.running_bandwidth(c))
            .sum()
    }

    /// Per-cluster billable instance counts; consumed by billing.
    pub fn billable_counts(&self) -> &[usize] {
        &self.billable_cache
    }

    /// Earliest time in `(after, until]` at which some instance stops
    /// being billable (a shutdown completes). Billing must accrue at each
    /// such point to charge usage-time exactly.
    pub fn next_billing_change(&self, after: f64, until: f64) -> Option<f64> {
        let earliest = self.earliest_off;
        (earliest > after && earliest <= until).then_some(earliest)
    }
}

/// Key identifying a chunk in the storage system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkKey {
    /// Channel the chunk belongs to.
    pub channel: usize,
    /// Chunk index within the channel.
    pub chunk: usize,
}

/// A placement decision: every chunk mapped to an NFS cluster.
pub type PlacementPlan = BTreeMap<ChunkKey, usize>;

/// The NFS scheduler: tracks which cluster stores each chunk and enforces
/// capacity.
#[derive(Debug, Clone)]
pub struct NfsScheduler {
    specs: Vec<NfsClusterSpec>,
    placement: BTreeMap<ChunkKey, usize>,
    used_bytes: Vec<u64>,
    chunk_bytes: u64,
}

impl NfsScheduler {
    /// Creates a scheduler over the given clusters storing chunks of
    /// uniform size `chunk_bytes` (the paper's `r · T0`).
    ///
    /// # Errors
    ///
    /// Propagates cluster validation failures; rejects zero chunk size.
    pub fn new(specs: Vec<NfsClusterSpec>, chunk_bytes: u64) -> Result<Self, CloudError> {
        for s in &specs {
            s.validate()?;
        }
        if chunk_bytes == 0 {
            return Err(crate::error::invalid_param(
                "chunk_bytes",
                "must be positive",
            ));
        }
        let used = vec![0; specs.len()];
        Ok(Self {
            specs,
            placement: BTreeMap::new(),
            used_bytes: used,
            chunk_bytes,
        })
    }

    /// The cluster specifications.
    pub fn specs(&self) -> &[NfsClusterSpec] {
        &self.specs
    }

    /// Size of each stored chunk in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Replaces the current placement with `plan` atomically: validates
    /// every target cluster and all capacities first, then swaps.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; the existing placement is kept
    /// unchanged on error.
    pub fn apply_placement(&mut self, plan: PlacementPlan) -> Result<(), CloudError> {
        let mut used = vec![0u64; self.specs.len()];
        for (&_key, &cluster) in &plan {
            let spec = self
                .specs
                .get(cluster)
                .ok_or(CloudError::UnknownCluster { cluster })?;
            used[cluster] += self.chunk_bytes;
            if used[cluster] > spec.capacity_bytes {
                return Err(CloudError::InsufficientStorage {
                    cluster,
                    requested_bytes: used[cluster],
                    available_bytes: spec.capacity_bytes,
                });
            }
        }
        self.placement = plan;
        self.used_bytes = used;
        Ok(())
    }

    /// Bytes used on each cluster.
    pub fn used_bytes(&self) -> &[u64] {
        &self.used_bytes
    }

    /// Number of placed chunks. `rejected_cloud_request_changes_nothing`
    /// (`tests/tests/failure_injection.rs`) checks through it that a
    /// rejected request leaves the placement alone.
    pub fn placed_chunks(&self) -> usize {
        self.placement.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{paper_nfs_clusters, paper_virtual_clusters};

    fn scheduler() -> VmScheduler {
        VmScheduler::new(paper_virtual_clusters()).unwrap()
    }

    #[test]
    fn boot_latency_gates_running_count() {
        let mut s = scheduler();
        s.set_target(0, 10, 0.0).unwrap();
        s.tick(0.0).unwrap();
        assert_eq!(s.running(0), 0);
        assert_eq!(s.billable(0), 10, "billable from launch");
        s.tick(25.0).unwrap();
        assert_eq!(s.running(0), 10);
    }

    #[test]
    fn parallel_launch_all_ready_together() {
        // 40 VMs all boot in 25 s total, not serially.
        let mut s = scheduler();
        s.set_target(2, 40, 100.0).unwrap();
        s.tick(125.0).unwrap();
        assert_eq!(s.running(2), 40);
    }

    #[test]
    fn scale_down_shuts_down_excess() {
        let mut s = scheduler();
        s.set_target(0, 20, 0.0).unwrap();
        s.tick(25.0).unwrap();
        s.set_target(0, 5, 30.0).unwrap();
        assert_eq!(s.running(0), 5, "excess stop serving immediately");
        assert_eq!(s.billable(0), 20, "billed until fully off");
        s.tick(40.0).unwrap();
        assert_eq!(s.billable(0), 5);
    }

    #[test]
    fn booting_instances_shut_down_first() {
        let mut s = scheduler();
        s.set_target(0, 10, 0.0).unwrap();
        s.tick(25.0).unwrap(); // 10 running
        s.set_target(0, 15, 25.0).unwrap(); // 5 more booting
        s.set_target(0, 10, 30.0).unwrap(); // drop the 5 booting ones
        s.tick(30.0).unwrap();
        assert_eq!(s.running(0), 10, "running instances were preserved");
        s.tick(100.0).unwrap();
        assert_eq!(s.running(0), 10);
    }

    #[test]
    fn target_beyond_fleet_is_error() {
        let mut s = scheduler();
        let err = s.set_target(1, 31, 0.0).unwrap_err();
        assert!(matches!(
            err,
            CloudError::InsufficientVms {
                cluster: 1,
                requested: 31,
                available: 30
            }
        ));
    }

    #[test]
    fn unknown_cluster_is_error() {
        let mut s = scheduler();
        assert!(matches!(
            s.set_target(9, 1, 0.0),
            Err(CloudError::UnknownCluster { cluster: 9 })
        ));
    }

    #[test]
    fn time_backwards_is_error() {
        let mut s = scheduler();
        s.tick(100.0).unwrap();
        assert!(matches!(
            s.tick(50.0),
            Err(CloudError::TimeWentBackwards { .. })
        ));
    }

    #[test]
    fn running_bandwidth_scales_with_instances() {
        let mut s = scheduler();
        s.set_target(0, 4, 0.0).unwrap();
        s.tick(25.0).unwrap();
        assert!((s.running_bandwidth(0) - 4.0 * 1.25e6).abs() < 1e-6);
        assert!((s.total_running_bandwidth() - 4.0 * 1.25e6).abs() < 1e-6);
    }

    #[test]
    fn nfs_placement_respects_capacity() {
        // 15 MB chunks; 20 GB cluster fits 1333 chunks.
        let mut nfs = NfsScheduler::new(paper_nfs_clusters(), 15_000_000).unwrap();
        let mut plan = PlacementPlan::new();
        for i in 0..1000 {
            plan.insert(
                ChunkKey {
                    channel: 0,
                    chunk: i,
                },
                0,
            );
        }
        nfs.apply_placement(plan).unwrap();
        assert_eq!(nfs.placed_chunks(), 1000);
        assert_eq!(nfs.used_bytes()[0], 15_000_000_000);
        assert_eq!(nfs.used_bytes()[1], 0);
    }

    #[test]
    fn nfs_over_capacity_rejected_and_state_kept() {
        let mut nfs = NfsScheduler::new(paper_nfs_clusters(), 15_000_000).unwrap();
        let mut ok_plan = PlacementPlan::new();
        ok_plan.insert(
            ChunkKey {
                channel: 0,
                chunk: 0,
            },
            1,
        );
        nfs.apply_placement(ok_plan.clone()).unwrap();

        let mut bad = PlacementPlan::new();
        for i in 0..1400 {
            bad.insert(
                ChunkKey {
                    channel: 0,
                    chunk: i,
                },
                0,
            );
        }
        let err = nfs.apply_placement(bad).unwrap_err();
        assert!(matches!(
            err,
            CloudError::InsufficientStorage { cluster: 0, .. }
        ));
        // Old placement survives the failed apply.
        assert_eq!(nfs.used_bytes(), &[0, 15_000_000]);
        assert_eq!(nfs.placed_chunks(), 1);
    }

    #[test]
    fn nfs_unknown_cluster_rejected() {
        let mut nfs = NfsScheduler::new(paper_nfs_clusters(), 15_000_000).unwrap();
        let mut plan = PlacementPlan::new();
        plan.insert(
            ChunkKey {
                channel: 0,
                chunk: 0,
            },
            7,
        );
        assert!(matches!(
            nfs.apply_placement(plan),
            Err(CloudError::UnknownCluster { cluster: 7 })
        ));
    }
}
