//! The storage rental problem (paper Sec. V-A.1, Eqn. 6).
//!
//! Decide which NFS cluster stores each chunk so that aggregate retrieval
//! performance `Σ u_f Δ_i x_if` is maximized subject to one copy per
//! chunk, per-cluster capacity, and the hourly storage budget `B_S`. The
//! paper solves this Knapsack-like problem with a greedy heuristic —
//! hottest chunks onto the highest utility-per-dollar cluster — which we
//! implement alongside an exact enumerator used to measure the heuristic's
//! optimality gap.

use cloudmedia_cloud::cluster::{NfsClusterSpec, GIB};
use cloudmedia_cloud::scheduler::ChunkKey;
use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CoreError, ProblemKind};

/// Per-chunk cloud upload demand, the weight `Δ_i` in the objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkDemand {
    /// The chunk.
    pub key: ChunkKey,
    /// Cloud upload demand `Δ_i` for the chunk, bytes per second.
    pub demand: f64,
}

/// A chunk placement: each placed chunk and the NFS cluster that stores
/// it, in chunk-key order, one entry per chunk. (The cloud broker takes
/// it as a map, a `PlacementPlan`; collecting the entries builds one.)
pub type Placement = Vec<(ChunkKey, usize)>;

/// An entry of a key-ordered collection.
pub(crate) trait Keyed {
    /// The entry's chunk.
    fn key(&self) -> ChunkKey;
}

impl Keyed for ChunkDemand {
    fn key(&self) -> ChunkKey {
        self.key
    }
}

impl Keyed for (ChunkKey, usize) {
    fn key(&self) -> ChunkKey {
        self.0
    }
}

/// Pairs each entry of `left` with the entry of `right` that has the
/// same chunk, if any. Both must be in key order with one entry per
/// chunk; one merge pass walks them, visiting `left` in the order a
/// `BTreeMap` keyed by chunk would and finding what its `get` would.
pub(crate) fn left_join<'a, L: Keyed, R: Keyed>(
    left: &'a [L],
    mut right: &'a [R],
) -> impl Iterator<Item = (&'a L, Option<&'a R>)> {
    debug_assert!(left.is_sorted_by(|a, b| a.key() < b.key()));
    debug_assert!(right.is_sorted_by(|a, b| a.key() < b.key()));
    left.iter().map(move |l| {
        let key = l.key();
        while let Some((first, rest)) = right.split_first() {
            if first.key() >= key {
                break;
            }
            right = rest;
        }
        (l, right.first().filter(|r| r.key() == key))
    })
}

/// A solved storage rental plan.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePlan {
    /// Chunk → NFS cluster assignment.
    pub placement: Placement,
    /// Objective value `Σ u_f Δ_i x_if`.
    pub total_utility: f64,
    /// Hourly storage cost of the placement, dollars.
    pub hourly_cost: f64,
}

/// The storage rental problem instance.
#[derive(Debug, Clone)]
pub struct StorageProblem<'a> {
    /// Chunks to place with their demands.
    pub demands: &'a [ChunkDemand],
    /// Available NFS clusters.
    pub clusters: &'a [NfsClusterSpec],
    /// Uniform chunk size in bytes (`r · T0`).
    pub chunk_bytes: u64,
    /// Storage budget `B_S`, dollars per hour.
    pub budget_per_hour: f64,
}

impl StorageProblem<'_> {
    fn validate(&self) -> Result<(), CoreError> {
        if self.clusters.is_empty() {
            return Err(invalid_param(
                "clusters",
                "at least one NFS cluster required",
            ));
        }
        for c in self.clusters {
            c.validate()?;
        }
        if self.chunk_bytes == 0 {
            return Err(invalid_param("chunk_bytes", "must be positive"));
        }
        if !(self.budget_per_hour.is_finite() && self.budget_per_hour >= 0.0) {
            return Err(invalid_param(
                "budget_per_hour",
                format!("must be non-negative, got {}", self.budget_per_hour),
            ));
        }
        for d in self.demands {
            if !(d.demand.is_finite() && d.demand >= 0.0) {
                return Err(invalid_param(
                    "demands",
                    format!("chunk demand must be non-negative, got {}", d.demand),
                ));
            }
        }
        Ok(())
    }

    /// Per-chunk hourly cost on cluster `f`.
    fn chunk_cost(&self, f: usize) -> f64 {
        self.chunk_bytes as f64 / GIB * self.clusters[f].price_per_gb.dollars_per_hour
    }

    /// Per-cluster chunk capacity.
    fn capacity_chunks(&self, f: usize) -> usize {
        (self.clusters[f].capacity_bytes / self.chunk_bytes) as usize
    }

    /// Total capacity and minimum cost to place all chunks; used for the
    /// feasibility diagnostics the paper asks to surface.
    fn feasibility(&self) -> Result<f64, CoreError> {
        let total_capacity: usize = (0..self.clusters.len())
            .map(|f| self.capacity_chunks(f))
            .sum();
        if self.demands.len() > total_capacity {
            return Err(CoreError::CapacityExceeded {
                problem: ProblemKind::Storage,
                requested: self.demands.len() as f64,
                available: total_capacity as f64,
            });
        }
        // Cheapest assignment: fill lowest-price clusters first.
        let mut by_price: Vec<usize> = (0..self.clusters.len()).collect();
        by_price.sort_by(|&a, &b| {
            self.chunk_cost(a)
                .partial_cmp(&self.chunk_cost(b))
                .expect("prices are finite")
        });
        let mut remaining = self.demands.len();
        let mut min_cost = 0.0;
        for f in by_price {
            let take = remaining.min(self.capacity_chunks(f));
            min_cost += take as f64 * self.chunk_cost(f);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        Ok(min_cost)
    }

    /// The paper's greedy heuristic: chunks in decreasing demand order,
    /// clusters in decreasing utility-per-dollar order; each chunk goes to
    /// the best cluster with space, subject to the budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] (with the minimum budget that
    /// would fit) if the budget runs out before all chunks are placed, or
    /// [`CoreError::CapacityExceeded`] if the chunks cannot fit at all.
    pub fn greedy(&self) -> Result<StoragePlan, CoreError> {
        self.validate()?;
        let min_cost = self.feasibility()?;
        if min_cost > self.budget_per_hour + 1e-12 {
            return Err(CoreError::Infeasible {
                problem: ProblemKind::Storage,
                required_budget: min_cost,
                configured_budget: self.budget_per_hour,
            });
        }

        let mut chunk_order: Vec<usize> = (0..self.demands.len()).collect();
        chunk_order.sort_by(|&a, &b| {
            self.demands[b]
                .demand
                .partial_cmp(&self.demands[a].demand)
                .expect("demands are finite")
        });
        let mut cluster_order: Vec<usize> = (0..self.clusters.len()).collect();
        cluster_order.sort_by(|&a, &b| {
            self.clusters[b]
                .utility_per_dollar()
                .partial_cmp(&self.clusters[a].utility_per_dollar())
                .expect("utilities are finite")
        });

        let mut free: Vec<usize> = (0..self.clusters.len())
            .map(|f| self.capacity_chunks(f))
            .collect();
        let mut spent = 0.0;
        let mut assigned = vec![0; self.demands.len()];
        let mut total_utility = 0.0;
        for &ci in &chunk_order {
            let d = &self.demands[ci];
            let mut placed = false;
            for &f in &cluster_order {
                if free[f] == 0 {
                    continue;
                }
                let cost = self.chunk_cost(f);
                if spent + cost > self.budget_per_hour + 1e-12 {
                    // Budget cannot afford this cluster; try a cheaper one.
                    continue;
                }
                free[f] -= 1;
                spent += cost;
                total_utility += self.clusters[f].utility * d.demand;
                assigned[ci] = f;
                placed = true;
                break;
            }
            if !placed {
                return Err(CoreError::Infeasible {
                    problem: ProblemKind::Storage,
                    required_budget: min_cost.max(spent + self.cheapest_available_cost(&free)),
                    configured_budget: self.budget_per_hour,
                });
            }
        }
        Ok(StoragePlan {
            placement: self.key_ordered(&assigned, &chunk_order),
            total_utility,
            hourly_cost: spent,
        })
    }

    /// The placement of the demands in key order, one entry per chunk,
    /// from each demand's cluster (`assigned[i]` for `demands[i]`) and
    /// the order in which they were `placed`: a chunk listed twice keeps
    /// the cluster it was placed on last, as inserting into a map would.
    fn key_ordered(&self, assigned: &[usize], placed: &[usize]) -> Placement {
        let mut placement: Placement = placed
            .iter()
            .map(|&i| (self.demands[i].key, assigned[i]))
            .collect();
        placement.sort_by_key(|&(key, _)| key);
        placement.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        placement
    }

    fn cheapest_available_cost(&self, free: &[usize]) -> f64 {
        free.iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(f, _)| self.chunk_cost(f))
            .fold(f64::INFINITY, f64::min)
    }

    /// Exact solver by enumerating per-cluster chunk counts (feasible for
    /// the paper's 2 NFS clusters and test-sized instances). For a fixed
    /// count vector, the best assignment puts the hottest chunks on the
    /// highest-utility clusters.
    ///
    /// # Errors
    ///
    /// Same feasibility behaviour as [`StorageProblem::greedy`].
    pub fn exact(&self) -> Result<StoragePlan, CoreError> {
        self.validate()?;
        let min_cost = self.feasibility()?;
        if min_cost > self.budget_per_hour + 1e-12 {
            return Err(CoreError::Infeasible {
                problem: ProblemKind::Storage,
                required_budget: min_cost,
                configured_budget: self.budget_per_hour,
            });
        }
        let n_chunks = self.demands.len();
        let n_clusters = self.clusters.len();
        // Chunks sorted hottest first; prefix sums of demand for O(1)
        // utility of "next k chunks onto cluster f".
        let mut chunk_order: Vec<usize> = (0..n_chunks).collect();
        chunk_order.sort_by(|&a, &b| {
            self.demands[b]
                .demand
                .partial_cmp(&self.demands[a].demand)
                .expect("demands are finite")
        });
        // Clusters sorted by utility descending: for fixed counts, optimal
        // assignment is hottest chunks -> highest utility.
        let mut util_order: Vec<usize> = (0..n_clusters).collect();
        util_order.sort_by(|&a, &b| {
            self.clusters[b]
                .utility
                .partial_cmp(&self.clusters[a].utility)
                .expect("utilities are finite")
        });

        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut counts = vec![0usize; n_clusters];
        self.enumerate_counts(
            &mut counts,
            0,
            n_chunks,
            &chunk_order,
            &util_order,
            &mut best,
        );
        let (_, counts) = best.ok_or(CoreError::Infeasible {
            problem: ProblemKind::Storage,
            required_budget: min_cost,
            configured_budget: self.budget_per_hour,
        })?;

        // Materialize the placement from the winning counts.
        let mut assigned = vec![0; n_chunks];
        let mut total_utility = 0.0;
        let mut cost = 0.0;
        let mut cursor = 0usize;
        for &f in &util_order {
            for _ in 0..counts[f] {
                let ci = chunk_order[cursor];
                cursor += 1;
                assigned[ci] = f;
                total_utility += self.clusters[f].utility * self.demands[ci].demand;
                cost += self.chunk_cost(f);
            }
        }
        Ok(StoragePlan {
            placement: self.key_ordered(&assigned, &chunk_order[..cursor]),
            total_utility,
            hourly_cost: cost,
        })
    }

    fn enumerate_counts(
        &self,
        counts: &mut Vec<usize>,
        cluster: usize,
        remaining: usize,
        chunk_order: &[usize],
        util_order: &[usize],
        best: &mut Option<(f64, Vec<usize>)>,
    ) {
        if cluster == self.clusters.len() {
            if remaining != 0 {
                return;
            }
            // Budget check.
            let cost: f64 = (0..counts.len())
                .map(|f| counts[f] as f64 * self.chunk_cost(f))
                .sum();
            if cost > self.budget_per_hour + 1e-12 {
                return;
            }
            // Utility: hottest chunks to highest-utility clusters.
            let mut utility = 0.0;
            let mut cursor = 0usize;
            for &f in util_order {
                for _ in 0..counts[f] {
                    utility += self.clusters[f].utility * self.demands[chunk_order[cursor]].demand;
                    cursor += 1;
                }
            }
            if best.as_ref().is_none_or(|(u, _)| utility > *u) {
                *best = Some((utility, counts.clone()));
            }
            return;
        }
        if cluster == self.clusters.len() - 1 {
            // Last cluster must absorb the remainder.
            if remaining <= self.capacity_chunks(cluster) {
                counts[cluster] = remaining;
                self.enumerate_counts(counts, cluster + 1, 0, chunk_order, util_order, best);
                counts[cluster] = 0;
            }
            return;
        }
        let cap = self.capacity_chunks(cluster).min(remaining);
        for take in 0..=cap {
            counts[cluster] = take;
            self.enumerate_counts(
                counts,
                cluster + 1,
                remaining - take,
                chunk_order,
                util_order,
                best,
            );
        }
        counts[cluster] = 0;
    }
}

/// Convenience: builds demands from parallel per-channel demand vectors.
pub fn demands_from_channels(per_channel: &[(usize, Vec<f64>)]) -> Vec<ChunkDemand> {
    let mut out = Vec::new();
    for (channel, demands) in per_channel {
        for (chunk, &demand) in demands.iter().enumerate() {
            out.push(ChunkDemand {
                key: ChunkKey {
                    channel: *channel,
                    chunk,
                },
                demand,
            });
        }
    }
    out
}

/// Computes the aggregate utility of an existing placement under new
/// demands (the paper's Fig. 8 metric, re-evaluated each hour). Both
/// must be in key order with one entry per chunk, as the controller
/// keeps them; a placed chunk without a demand counts as zero.
pub(crate) fn placement_utility(
    placement: &[(ChunkKey, usize)],
    clusters: &[NfsClusterSpec],
    demands: &[ChunkDemand],
) -> f64 {
    left_join(placement, demands)
        .map(|(&(_, f), d)| clusters[f].utility * d.map_or(0.0, |d| d.demand))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_cloud::cluster::paper_nfs_clusters;
    use cloudmedia_cloud::pricing::Rate;

    fn demands(values: &[f64]) -> Vec<ChunkDemand> {
        values
            .iter()
            .enumerate()
            .map(|(i, &demand)| ChunkDemand {
                key: ChunkKey {
                    channel: 0,
                    chunk: i,
                },
                demand,
            })
            .collect()
    }

    /// The cluster `plan` stores chunk `chunk` of channel 0 on.
    fn cluster_of(plan: &StoragePlan, chunk: usize) -> usize {
        let key = ChunkKey { channel: 0, chunk };
        let i = plan
            .placement
            .binary_search_by_key(&key, |&(k, _)| k)
            .expect("chunk placed");
        plan.placement[i].1
    }

    fn problem<'a>(
        d: &'a [ChunkDemand],
        c: &'a [NfsClusterSpec],
        budget: f64,
    ) -> StorageProblem<'a> {
        StorageProblem {
            demands: d,
            clusters: c,
            chunk_bytes: 15_000_000,
            budget_per_hour: budget,
        }
    }

    #[test]
    fn greedy_places_hottest_on_best_value_cluster() {
        let clusters = paper_nfs_clusters();
        let d = demands(&[10.0, 5.0, 1.0]);
        let plan = problem(&d, &clusters, 1.0).greedy().unwrap();
        // Standard (u/p = 0.8/1.11e-4) beats High (1.0/2.08e-4); greedy
        // sends everything to Standard while it has space.
        for i in 0..3 {
            assert_eq!(cluster_of(&plan, i), 0);
        }
        assert!((plan.total_utility - 0.8 * 16.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_overflows_to_second_cluster_when_full() {
        // Tiny clusters: capacity 2 chunks each.
        let clusters = vec![
            NfsClusterSpec {
                name: "A".into(),
                utility: 1.0,
                price_per_gb: Rate::per_hour(1e-4),
                capacity_bytes: 30_000_000,
            },
            NfsClusterSpec {
                name: "B".into(),
                utility: 0.5,
                price_per_gb: Rate::per_hour(1e-4),
                capacity_bytes: 30_000_000,
            },
        ];
        let d = demands(&[4.0, 3.0, 2.0, 1.0]);
        let plan = problem(&d, &clusters, 1.0).greedy().unwrap();
        // Hot chunks 0,1 on A; 2,3 spill to B.
        assert_eq!(cluster_of(&plan, 0), 0);
        assert_eq!(cluster_of(&plan, 1), 0);
        assert_eq!(cluster_of(&plan, 2), 1);
        assert_eq!(cluster_of(&plan, 3), 1);
        assert!((plan.total_utility - (7.0 + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn infeasible_budget_reports_required() {
        let clusters = paper_nfs_clusters();
        let d = demands(&[1.0; 100]);
        let err = problem(&d, &clusters, 0.0).greedy().unwrap_err();
        match err {
            CoreError::Infeasible {
                problem: ProblemKind::Storage,
                required_budget,
                ..
            } => {
                // 100 chunks * 15 MB * 1.11e-4 / GB ~ 1.665e-4.
                assert!(required_budget > 0.0);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn capacity_exceeded_detected() {
        let clusters = vec![NfsClusterSpec {
            name: "tiny".into(),
            utility: 1.0,
            price_per_gb: Rate::per_hour(1e-4),
            capacity_bytes: 15_000_000, // one chunk
        }];
        let d = demands(&[1.0, 1.0]);
        assert!(matches!(
            problem(&d, &clusters, 100.0).greedy(),
            Err(CoreError::CapacityExceeded {
                problem: ProblemKind::Storage,
                ..
            })
        ));
    }

    #[test]
    fn exact_spends_loose_budget_on_utility() {
        // With an ample budget the exact optimizer puts everything on the
        // High cluster (utility 1.0); the paper's greedy stays on the
        // better-value Standard cluster (utility 0.8). Exact dominates.
        let clusters = paper_nfs_clusters();
        let d = demands(&[10.0, 5.0, 1.0]);
        let g = problem(&d, &clusters, 1.0).greedy().unwrap();
        let e = problem(&d, &clusters, 1.0).exact().unwrap();
        assert!(
            (e.total_utility - 1.0 * 16.0).abs() < 1e-9,
            "exact uses High"
        );
        assert!(
            (g.total_utility - 0.8 * 16.0).abs() < 1e-9,
            "greedy uses Standard"
        );
        assert!(e.total_utility > g.total_utility);
    }

    #[test]
    fn exact_beats_greedy_when_budget_forces_tradeoffs() {
        // High-utility cluster is expensive; budget fits only some chunks
        // there. Greedy by utility-per-dollar can misallocate; exact finds
        // the best split. Construct: cluster A u=1.0 p=10, cluster B u=0.9
        // p=1. u/p favours B strongly; with plenty of budget both work,
        // with tight budget exact may place the hottest on A if affordable.
        let clusters = vec![
            NfsClusterSpec {
                name: "A".into(),
                utility: 1.0,
                price_per_gb: Rate::per_hour(10.0),
                capacity_bytes: 150_000_000,
            },
            NfsClusterSpec {
                name: "B".into(),
                utility: 0.5,
                price_per_gb: Rate::per_hour(0.01),
                capacity_bytes: 15_000_000, // only one chunk fits
            },
        ];
        // Two chunks; B fits one, so one must go to A regardless.
        let d = demands(&[10.0, 1.0]);
        // Budget allows both on A? cost A per chunk = 0.015 GB * 10 = 0.15.
        // Budget 0.2: A+B = 0.15 + 0.00015 ok; A+A = 0.3 too dear.
        let g = problem(&d, &clusters, 0.2).greedy().unwrap();
        let e = problem(&d, &clusters, 0.2).exact().unwrap();
        // Optimal: hot chunk on A (u 1.0), cold on B: 10 + 0.5 = 10.5.
        assert!(
            (e.total_utility - 10.5).abs() < 1e-9,
            "exact utility {}",
            e.total_utility
        );
        assert!(e.total_utility >= g.total_utility - 1e-9);
    }

    #[test]
    fn exact_never_worse_than_greedy_randomized() {
        let clusters = paper_nfs_clusters();
        // Deterministic pseudo-random demands.
        let mut seed = 0xabcdef01u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 10.0
        };
        for trial in 0..20 {
            let vals: Vec<f64> = (0..12).map(|_| next()).collect();
            let d = demands(&vals);
            let budget = 0.001 + trial as f64 * 0.0005;
            let g = problem(&d, &clusters, budget).greedy();
            let e = problem(&d, &clusters, budget).exact();
            match (g, e) {
                (Ok(gp), Ok(ep)) => assert!(
                    ep.total_utility >= gp.total_utility - 1e-9,
                    "trial {trial}: exact {e} < greedy {g}",
                    e = ep.total_utility,
                    g = gp.total_utility
                ),
                (Err(_), Err(_)) => {}
                (g, e) => panic!("feasibility disagreement: greedy {g:?} exact {e:?}"),
            }
        }
    }

    #[test]
    fn plan_respects_budget_and_capacity() {
        let clusters = paper_nfs_clusters();
        let vals: Vec<f64> = (0..500).map(|i| (500 - i) as f64).collect();
        let d = demands(&vals);
        let budget = 0.002;
        let plan = problem(&d, &clusters, budget).greedy().unwrap();
        assert!(plan.hourly_cost <= budget + 1e-12);
        let mut counts = [0usize; 2];
        for &(_, f) in &plan.placement {
            counts[f] += 1;
        }
        assert!(counts[0] <= 1333);
        assert!(counts[1] <= 1333);
        assert_eq!(counts[0] + counts[1], 500);
    }

    #[test]
    fn placement_utility_reevaluates_under_new_demand() {
        let clusters = paper_nfs_clusters();
        let d = demands(&[10.0, 1.0]);
        let plan = problem(&d, &clusters, 1.0).greedy().unwrap();
        let new_demand = demands(&[2.0, 20.0]);
        let u = placement_utility(&plan.placement, &clusters, &new_demand);
        assert!((u - 0.8 * 22.0).abs() < 1e-9);
    }

    #[test]
    fn placement_comes_out_in_key_order_one_entry_per_chunk() {
        let clusters = paper_nfs_clusters();
        let key = |channel, chunk| ChunkKey { channel, chunk };
        let demand = |k, demand| ChunkDemand { key: k, demand };
        // Out of key order, with chunk (0, 1) listed twice: the map the
        // placement used to be kept the cluster placed last.
        let d = [
            demand(key(1, 0), 3.0),
            demand(key(0, 1), 5.0),
            demand(key(0, 0), 1.0),
            demand(key(0, 1), 2.0),
        ];
        for plan in [
            problem(&d, &clusters, 1.0).greedy().unwrap(),
            problem(&d, &clusters, 1.0).exact().unwrap(),
        ] {
            let keys: Vec<ChunkKey> = plan.placement.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, [key(0, 0), key(0, 1), key(1, 0)]);
        }
        // In key order, the placement follows the demands one to one.
        let sorted = [d[2], d[1], d[0]];
        let plan = problem(&sorted, &clusters, 1.0).greedy().unwrap();
        let keys: Vec<ChunkKey> = plan.placement.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, [key(0, 0), key(0, 1), key(1, 0)]);
    }

    #[test]
    fn demands_from_channels_flattens() {
        let d = demands_from_channels(&[(0, vec![1.0, 2.0]), (3, vec![5.0])]);
        assert_eq!(d.len(), 3);
        assert_eq!(
            d[2].key,
            ChunkKey {
                channel: 3,
                chunk: 0
            }
        );
        assert_eq!(d[2].demand, 5.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let clusters = paper_nfs_clusters();
        let d = demands(&[-1.0]);
        assert!(problem(&d, &clusters, 1.0).greedy().is_err());
        let d = demands(&[1.0]);
        let mut p = problem(&d, &clusters, 1.0);
        p.chunk_bytes = 0;
        assert!(p.greedy().is_err());
        let p = problem(&d, &[], 1.0);
        assert!(p.greedy().is_err());
    }
}
