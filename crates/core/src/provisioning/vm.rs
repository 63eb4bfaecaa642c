//! The VM configuration problem (paper Sec. V-A.2, Eqn. 7).
//!
//! Decide how many VMs to rent from each virtual cluster so that every
//! chunk's cloud demand `Δ_i` is covered (`Σ_v z_iv = Δ_i / R`), maximizing
//! aggregate VM performance `Σ u~_v z_iv` subject to per-cluster fleet
//! sizes `N_v` and the hourly rental budget `B_M`. Allocations `z_iv` may
//! be fractional — a shared VM serves several (preferably consecutive)
//! chunks. The paper's greedy heuristic fills from the best
//! utility-per-dollar cluster; an exact LP vertex enumerator measures its
//! optimality gap.

use std::slice;

use cloudmedia_cloud::cluster::VirtualClusterSpec;
use cloudmedia_cloud::scheduler::ChunkKey;
use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CoreError, ProblemKind};
use crate::provisioning::storage::ChunkDemand;

/// A fractional VM allocation for one chunk on one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkAllocation {
    /// Target virtual cluster.
    pub cluster: usize,
    /// Fraction of VMs allocated (`z_iv`), possibly fractional.
    pub vms: f64,
}

/// Per-chunk VM allocations in chunk-key order, stored flat: one entry
/// per chunk the plan served, each with its allocations in the order the
/// solver made them (possibly none, for a demand too small to draw a
/// VM fraction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkAllocations {
    /// Each chunk's key and one past its last allocation in `allocs`.
    chunks: Vec<(ChunkKey, usize)>,
    allocs: Vec<ChunkAllocation>,
}

impl ChunkAllocations {
    /// Groups allocations made chunk by chunk into key order: `made`
    /// holds every allocation in the order the solver made it, and
    /// `spans` each served demand's index and range in `made`, in that
    /// order. A chunk served twice keeps both lists, in the order made,
    /// as appending to a map entry would.
    fn from_spans(
        demands: &[ChunkDemand],
        spans: &mut [(usize, usize, usize)],
        made: &[ChunkAllocation],
    ) -> Self {
        let mut grouped = Self {
            chunks: Vec::with_capacity(spans.len()),
            allocs: Vec::with_capacity(made.len()),
        };
        spans.sort_unstable_by_key(|&(i, start, _)| (demands[i].key, start));
        for &(i, start, end) in spans.iter() {
            grouped.push(demands[i].key, &made[start..end]);
        }
        grouped
    }

    /// Appends `allocs` to the entry of `key`, which is the last entry or
    /// follows it in key order.
    fn push(&mut self, key: ChunkKey, allocs: &[ChunkAllocation]) {
        self.allocs.extend_from_slice(allocs);
        let end = self.allocs.len();
        match self.chunks.last_mut() {
            Some(last) if last.0 == key => last.1 = end,
            _ => self.chunks.push((key, end)),
        }
    }

    /// Number of chunks with an entry.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True if no chunk has an entry.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The allocations of `key`, if the chunk has an entry.
    pub fn get(&self, key: &ChunkKey) -> Option<&[ChunkAllocation]> {
        let i = self.chunks.binary_search_by_key(key, |&(k, _)| k).ok()?;
        let start = if i == 0 { 0 } else { self.chunks[i - 1].1 };
        Some(&self.allocs[start..self.chunks[i].1])
    }

    /// Every chunk with an entry and its allocations, in key order.
    pub fn iter(&self) -> ChunkAllocationsIter<'_> {
        ChunkAllocationsIter {
            chunks: self.chunks.iter(),
            allocs: &self.allocs,
            start: 0,
        }
    }
}

impl<'a> IntoIterator for &'a ChunkAllocations {
    type Item = (&'a ChunkKey, &'a [ChunkAllocation]);
    type IntoIter = ChunkAllocationsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over [`ChunkAllocations`] in key order.
#[derive(Debug, Clone)]
pub struct ChunkAllocationsIter<'a> {
    chunks: slice::Iter<'a, (ChunkKey, usize)>,
    allocs: &'a [ChunkAllocation],
    start: usize,
}

impl<'a> Iterator for ChunkAllocationsIter<'a> {
    type Item = (&'a ChunkKey, &'a [ChunkAllocation]);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, end) = self.chunks.next()?;
        let allocs = &self.allocs[self.start..*end];
        self.start = *end;
        Some((key, allocs))
    }
}

/// A solved VM configuration plan.
#[derive(Debug, Clone, PartialEq)]
pub struct VmPlan {
    /// Per-chunk allocations across clusters.
    pub allocations: ChunkAllocations,
    /// Total (fractional) VMs requested per cluster, `y_v = Σ_i z_iv`.
    pub vm_fractions: Vec<f64>,
    /// Integer VM targets per cluster (ceiling of the fractional totals:
    /// a partially used VM is still rented whole).
    pub vm_targets: Vec<usize>,
    /// Objective value `Σ u~_v z_iv`.
    pub total_utility: f64,
    /// Hourly rental cost of the fractional allocation, dollars.
    pub fractional_hourly_cost: f64,
    /// Hourly rental cost of the integer targets, dollars (what billing
    /// actually charges).
    pub integer_hourly_cost: f64,
}

impl VmPlan {
    /// Total VMs (fractional) across clusters.
    pub fn total_vms(&self) -> f64 {
        self.vm_fractions.iter().sum()
    }

    /// Total bandwidth reserved by the integer targets, bytes/s, given the
    /// per-cluster VM bandwidth.
    pub fn reserved_bandwidth(&self, clusters: &[VirtualClusterSpec]) -> f64 {
        self.vm_targets
            .iter()
            .zip(clusters)
            .map(|(&n, c)| n as f64 * c.vm_bandwidth_bytes_per_sec)
            .sum()
    }
}

/// The VM configuration problem instance.
#[derive(Debug, Clone)]
pub struct VmProblem<'a> {
    /// Chunks with their cloud demands `Δ_i` (bytes per second).
    pub demands: &'a [ChunkDemand],
    /// Available virtual clusters. All must share the same per-VM
    /// bandwidth `R` (the paper's assumption).
    pub clusters: &'a [VirtualClusterSpec],
    /// VM rental budget `B_M`, dollars per hour.
    pub budget_per_hour: f64,
}

impl VmProblem<'_> {
    fn validate(&self) -> Result<f64, CoreError> {
        if self.clusters.is_empty() {
            return Err(invalid_param(
                "clusters",
                "at least one virtual cluster required",
            ));
        }
        for c in self.clusters {
            c.validate()?;
        }
        let r = self.clusters[0].vm_bandwidth_bytes_per_sec;
        if self
            .clusters
            .iter()
            .any(|c| (c.vm_bandwidth_bytes_per_sec - r).abs() > 1e-9)
        {
            return Err(invalid_param(
                "clusters",
                "all clusters must share the same per-VM bandwidth R (paper assumption)",
            ));
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
        Ok(r)
    }

    /// Total VMs demanded, `D = Σ_i Δ_i / R`.
    fn total_vm_demand(&self, r: f64) -> f64 {
        self.demands.iter().map(|d| d.demand / r).sum()
    }

    /// Minimum hourly cost to serve `total` VMs: fill cheapest first.
    fn min_cost(&self, total: f64) -> f64 {
        let mut by_price: Vec<usize> = (0..self.clusters.len()).collect();
        by_price.sort_by(|&a, &b| {
            self.clusters[a]
                .price
                .dollars_per_hour
                .partial_cmp(&self.clusters[b].price.dollars_per_hour)
                .expect("prices are finite")
        });
        let mut remaining = total;
        let mut cost = 0.0;
        for v in by_price {
            let take = remaining.min(self.clusters[v].max_vms as f64);
            cost += take * self.clusters[v].price.dollars_per_hour;
            remaining -= take;
            if remaining <= 1e-12 {
                break;
            }
        }
        cost
    }

    fn check_feasible(&self, r: f64) -> Result<(), CoreError> {
        let demand = self.total_vm_demand(r);
        let capacity: f64 = self.clusters.iter().map(|c| c.max_vms as f64).sum();
        if demand > capacity + 1e-9 {
            return Err(CoreError::CapacityExceeded {
                problem: ProblemKind::VmConfiguration,
                requested: demand,
                available: capacity,
            });
        }
        let min_cost = self.min_cost(demand);
        if min_cost > self.budget_per_hour + 1e-9 {
            return Err(CoreError::Infeasible {
                problem: ProblemKind::VmConfiguration,
                required_budget: min_cost,
                configured_budget: self.budget_per_hour,
            });
        }
        Ok(())
    }

    /// The paper's greedy heuristic: clusters sorted by utility per dollar
    /// (`u~_v / p~_v`); each chunk draws as many VMs as possible from the
    /// best cluster with spare instances, then the next, while the budget
    /// lasts.
    ///
    /// # Errors
    ///
    /// [`CoreError::Infeasible`] when even the cheapest assignment exceeds
    /// the budget (with the required budget, as the paper's feedback
    /// signal); [`CoreError::CapacityExceeded`] when demand exceeds the
    /// fleet.
    pub fn greedy(&self) -> Result<VmPlan, CoreError> {
        let r = self.validate()?;
        self.check_feasible(r)?;
        let mut order: Vec<usize> = (0..self.clusters.len()).collect();
        order.sort_by(|&a, &b| {
            self.clusters[b]
                .utility_per_dollar()
                .partial_cmp(&self.clusters[a].utility_per_dollar())
                .expect("utilities are finite")
        });

        // Chunks in decreasing demand order for determinism (the paper
        // leaves chunk order unspecified).
        let mut chunk_order: Vec<usize> = (0..self.demands.len()).collect();
        chunk_order.sort_by(|&a, &b| {
            self.demands[b]
                .demand
                .partial_cmp(&self.demands[a].demand)
                .expect("demands are finite")
        });

        let mut free: Vec<f64> = self.clusters.iter().map(|c| c.max_vms as f64).collect();
        let mut budget = self.budget_per_hour;
        // Allocations in the order made, and each served chunk's range.
        let mut made = Vec::with_capacity(self.demands.len());
        let mut spans = Vec::with_capacity(self.demands.len());
        let mut fractions = vec![0.0; self.clusters.len()];
        let mut utility = 0.0;
        let mut cost = 0.0;

        for &ci in &chunk_order {
            let d = &self.demands[ci];
            let mut need = d.demand / r;
            if need <= 0.0 {
                continue;
            }
            let start = made.len();
            // Pass 1: best utility-per-dollar clusters while budget allows.
            for &v in &order {
                if need <= 1e-12 {
                    break;
                }
                let price = self.clusters[v].price.dollars_per_hour;
                let affordable = if price > 0.0 {
                    budget / price
                } else {
                    f64::INFINITY
                };
                let take = need.min(free[v]).min(affordable);
                if take <= 1e-12 {
                    continue;
                }
                free[v] -= take;
                budget -= take * price;
                need -= take;
                fractions[v] += take;
                utility += self.clusters[v].utility * take;
                cost += take * price;
                made.push(ChunkAllocation {
                    cluster: v,
                    vms: take,
                });
            }
            if need > 1e-9 {
                // Budget blocked the preferred clusters; feasibility check
                // guaranteed a cheaper assignment exists overall, but the
                // greedy order spent it. Retry cheapest-first for the rest.
                let mut by_price: Vec<usize> = (0..self.clusters.len()).collect();
                by_price.sort_by(|&a, &b| {
                    self.clusters[a]
                        .price
                        .dollars_per_hour
                        .partial_cmp(&self.clusters[b].price.dollars_per_hour)
                        .expect("prices are finite")
                });
                for &v in &by_price {
                    if need <= 1e-12 {
                        break;
                    }
                    let price = self.clusters[v].price.dollars_per_hour;
                    let affordable = if price > 0.0 {
                        budget / price
                    } else {
                        f64::INFINITY
                    };
                    let take = need.min(free[v]).min(affordable);
                    if take <= 1e-12 {
                        continue;
                    }
                    free[v] -= take;
                    budget -= take * price;
                    need -= take;
                    fractions[v] += take;
                    utility += self.clusters[v].utility * take;
                    cost += take * price;
                    made.push(ChunkAllocation {
                        cluster: v,
                        vms: take,
                    });
                }
            }
            spans.push((ci, start, made.len()));
            if need > 1e-9 {
                return Err(CoreError::Infeasible {
                    problem: ProblemKind::VmConfiguration,
                    required_budget: self.min_cost(self.total_vm_demand(r)),
                    configured_budget: self.budget_per_hour,
                });
            }
        }

        let vm_targets: Vec<usize> = fractions
            .iter()
            .zip(self.clusters)
            .map(|(&f, c)| ((f - 1e-9).max(0.0).ceil() as usize).min(c.max_vms))
            .collect();
        let integer_cost: f64 = vm_targets
            .iter()
            .zip(self.clusters)
            .map(|(&n, c)| n as f64 * c.price.dollars_per_hour)
            .sum();
        Ok(VmPlan {
            allocations: ChunkAllocations::from_spans(self.demands, &mut spans, &made),
            vm_fractions: fractions,
            vm_targets,
            total_utility: utility,
            fractional_hourly_cost: cost,
            integer_hourly_cost: integer_cost,
        })
    }

    /// Exact solution of the aggregated LP
    /// `max Σ u~_v y_v  s.t.  Σ y_v = D, 0 ≤ y_v ≤ N_v, Σ p~_v y_v ≤ B`
    /// by vertex enumeration (each variable pinned to a bound or free; at
    /// most two free variables are determined by the two tight
    /// constraints). The per-chunk split is then hottest-chunk-first onto
    /// the highest-utility clusters, which preserves the aggregate
    /// objective (it only depends on the per-cluster totals).
    ///
    /// # Errors
    ///
    /// Same feasibility behaviour as [`VmProblem::greedy`].
    pub fn exact(&self) -> Result<VmPlan, CoreError> {
        let r = self.validate()?;
        self.check_feasible(r)?;
        let n = self.clusters.len();
        let total = self.total_vm_demand(r);
        let prices: Vec<f64> = self
            .clusters
            .iter()
            .map(|c| c.price.dollars_per_hour)
            .collect();
        let utils: Vec<f64> = self.clusters.iter().map(|c| c.utility).collect();
        let caps: Vec<f64> = self.clusters.iter().map(|c| c.max_vms as f64).collect();

        let mut best: Option<(f64, Vec<f64>)> = None;
        // Enumerate bound assignments: 0 = at zero, 1 = at cap, 2 = free.
        let mut assign = vec![0u8; n];
        enumerate_assignments(&mut assign, 0, &mut |assign| {
            let free: Vec<usize> = (0..n).filter(|&i| assign[i] == 2).collect();
            if free.len() > 2 {
                return;
            }
            let mut y: Vec<f64> = (0..n)
                .map(|i| match assign[i] {
                    0 => 0.0,
                    1 => caps[i],
                    _ => 0.0,
                })
                .collect();
            let fixed_sum: f64 = (0..n).filter(|&i| assign[i] != 2).map(|i| y[i]).sum();
            let need = total - fixed_sum;
            match free.len() {
                0 => {
                    if need.abs() > 1e-9 {
                        return;
                    }
                }
                1 => {
                    let i = free[0];
                    if need < -1e-9 || need > caps[i] + 1e-9 {
                        return;
                    }
                    y[i] = need.clamp(0.0, caps[i]);
                }
                2 => {
                    // Two free vars: sum constraint + tight budget.
                    let (i, j) = (free[0], free[1]);
                    let fixed_cost: f64 = (0..n)
                        .filter(|&k| assign[k] != 2)
                        .map(|k| y[k] * prices[k])
                        .sum();
                    let budget_left = self.budget_per_hour - fixed_cost;
                    // y_i + y_j = need; p_i y_i + p_j y_j = budget_left.
                    let det = prices[i] - prices[j];
                    if det.abs() < 1e-12 {
                        return; // degenerate; covered by 1-free cases
                    }
                    let yi = (budget_left - prices[j] * need) / det;
                    let yj = need - yi;
                    if yi < -1e-9 || yi > caps[i] + 1e-9 || yj < -1e-9 || yj > caps[j] + 1e-9 {
                        return;
                    }
                    y[i] = yi.clamp(0.0, caps[i]);
                    y[j] = yj.clamp(0.0, caps[j]);
                }
                _ => unreachable!(),
            }
            // Check both constraints.
            let cost: f64 = (0..n).map(|k| y[k] * prices[k]).sum();
            if cost > self.budget_per_hour + 1e-6 {
                return;
            }
            let sum: f64 = y.iter().sum();
            if (sum - total).abs() > 1e-6 {
                return;
            }
            let value: f64 = (0..n).map(|k| y[k] * utils[k]).sum();
            if best.as_ref().is_none_or(|(b, _)| value > *b) {
                best = Some((value, y.to_vec()));
            }
        });

        let (utility, y) = best.ok_or(CoreError::Infeasible {
            problem: ProblemKind::VmConfiguration,
            required_budget: self.min_cost(total),
            configured_budget: self.budget_per_hour,
        })?;

        // Split per-cluster totals across chunks: hottest chunks onto the
        // highest-utility clusters (cosmetic for the aggregate objective).
        let mut chunk_order: Vec<usize> = (0..self.demands.len()).collect();
        chunk_order.sort_by(|&a, &b| {
            self.demands[b]
                .demand
                .partial_cmp(&self.demands[a].demand)
                .expect("demands are finite")
        });
        let mut util_order: Vec<usize> = (0..n).collect();
        util_order.sort_by(|&a, &b| utils[b].partial_cmp(&utils[a]).expect("finite"));
        let mut remaining = y.clone();
        let mut made = Vec::with_capacity(self.demands.len());
        let mut spans = Vec::with_capacity(self.demands.len());
        let mut cursor = 0usize;
        for &ci in &chunk_order {
            let d = &self.demands[ci];
            let mut need = d.demand / r;
            let start = made.len();
            while need > 1e-12 && cursor < n {
                let v = util_order[cursor];
                let take = need.min(remaining[v]);
                if take > 1e-12 {
                    remaining[v] -= take;
                    need -= take;
                    made.push(ChunkAllocation {
                        cluster: v,
                        vms: take,
                    });
                }
                if remaining[v] <= 1e-12 {
                    cursor += 1;
                } else {
                    break;
                }
            }
            spans.push((ci, start, made.len()));
        }

        let vm_targets: Vec<usize> = y
            .iter()
            .zip(self.clusters)
            .map(|(&f, c)| ((f - 1e-9).max(0.0).ceil() as usize).min(c.max_vms))
            .collect();
        let integer_cost: f64 = vm_targets
            .iter()
            .zip(&prices)
            .map(|(&count, &p)| count as f64 * p)
            .sum();
        let fractional_cost: f64 = y.iter().zip(&prices).map(|(&f, &p)| f * p).sum();
        Ok(VmPlan {
            allocations: ChunkAllocations::from_spans(self.demands, &mut spans, &made),
            vm_fractions: y,
            vm_targets,
            total_utility: utility,
            fractional_hourly_cost: fractional_cost,
            integer_hourly_cost: integer_cost,
        })
    }
}

fn enumerate_assignments(assign: &mut Vec<u8>, idx: usize, f: &mut impl FnMut(&[u8])) {
    if idx == assign.len() {
        f(assign);
        return;
    }
    for v in 0..3u8 {
        assign[idx] = v;
        enumerate_assignments(assign, idx + 1, f);
    }
    assign[idx] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_cloud::cluster::{paper_virtual_clusters, PAPER_VM_BANDWIDTH};

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

    fn problem<'a>(
        d: &'a [ChunkDemand],
        c: &'a [VirtualClusterSpec],
        budget: f64,
    ) -> VmProblem<'a> {
        VmProblem {
            demands: d,
            clusters: c,
            budget_per_hour: budget,
        }
    }

    #[test]
    fn greedy_covers_every_chunk_demand() {
        let clusters = paper_virtual_clusters();
        let d = demands(&[5e6, 2.5e6, 1.25e6]); // 4 + 2 + 1 VMs
        let plan = problem(&d, &clusters, 100.0).greedy().unwrap();
        assert!((plan.total_vms() - 7.0).abs() < 1e-9);
        for dd in &d {
            let got: f64 = plan
                .allocations
                .get(&dd.key)
                .unwrap()
                .iter()
                .map(|a| a.vms)
                .sum();
            assert!(
                (got - dd.demand / PAPER_VM_BANDWIDTH).abs() < 1e-9,
                "chunk {:?}: {got}",
                dd.key
            );
        }
    }

    #[test]
    fn greedy_prefers_best_utility_per_dollar() {
        // Standard has the best u/p; small demand fits entirely there.
        let clusters = paper_virtual_clusters();
        let d = demands(&[12.5e6]); // 10 VMs
        let plan = problem(&d, &clusters, 100.0).greedy().unwrap();
        assert!(
            (plan.vm_fractions[0] - 10.0).abs() < 1e-9,
            "all on Standard"
        );
        assert_eq!(plan.vm_targets, vec![10, 0, 0]);
        assert!((plan.integer_hourly_cost - 4.5).abs() < 1e-9);
    }

    #[test]
    fn greedy_overflows_to_next_cluster() {
        let clusters = paper_virtual_clusters();
        // 100 VMs: 75 Standard + 25 on next-best u/p (Advanced at 1.25).
        let d = demands(&[125e6]);
        let plan = problem(&d, &clusters, 100.0).greedy().unwrap();
        assert!((plan.vm_fractions[0] - 75.0).abs() < 1e-9);
        assert!((plan.vm_fractions[2] - 25.0).abs() < 1e-9);
        assert_eq!(plan.vm_fractions[1], 0.0);
    }

    #[test]
    fn fractional_allocations_ceil_to_targets() {
        let clusters = paper_virtual_clusters();
        let d = demands(&[1.9e6]); // 1.52 VMs
        let plan = problem(&d, &clusters, 100.0).greedy().unwrap();
        assert_eq!(plan.vm_targets[0], 2);
        assert!(plan.fractional_hourly_cost < plan.integer_hourly_cost);
    }

    #[test]
    fn capacity_exceeded_detected() {
        let clusters = paper_virtual_clusters();
        // 151 VMs > 150 fleet.
        let d = demands(&[151.0 * PAPER_VM_BANDWIDTH]);
        assert!(matches!(
            problem(&d, &clusters, 1e9).greedy(),
            Err(CoreError::CapacityExceeded {
                problem: ProblemKind::VmConfiguration,
                ..
            })
        ));
    }

    #[test]
    fn infeasible_budget_reports_required() {
        let clusters = paper_virtual_clusters();
        let d = demands(&[100.0 * PAPER_VM_BANDWIDTH]);
        let err = problem(&d, &clusters, 10.0).greedy().unwrap_err();
        match err {
            CoreError::Infeasible {
                required_budget,
                configured_budget,
                ..
            } => {
                // Cheapest 100 VMs: 75x$0.45 + 25x$0.70 = $51.25.
                assert!(
                    (required_budget - 51.25).abs() < 1e-6,
                    "required {required_budget}"
                );
                assert_eq!(configured_budget, 10.0);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn tight_budget_forces_cheap_clusters() {
        let clusters = paper_virtual_clusters();
        // 80 VMs; budget $40: cheapest is 75 Std ($33.75) + 5 Med ($3.5) =
        // $37.25. Advanced (u/p favoured over Medium) at $0.80 would cost
        // 75*0.45 + 5*0.8 = $37.75 — also feasible. Greedy: Std then Adv.
        let d = demands(&[80.0 * PAPER_VM_BANDWIDTH]);
        let plan = problem(&d, &clusters, 40.0).greedy().unwrap();
        assert!((plan.total_vms() - 80.0).abs() < 1e-9);
        assert!(plan.fractional_hourly_cost <= 40.0 + 1e-9);
    }

    #[test]
    fn exact_dominates_greedy_with_loose_budget() {
        // With budget to spare, exact rents the Advanced cluster
        // (utility 1.0); greedy sticks to Standard (best u/p, utility 0.6).
        let clusters = paper_virtual_clusters();
        let d = demands(&[5e6, 2.5e6]); // 6 VMs
        let g = problem(&d, &clusters, 100.0).greedy().unwrap();
        let e = problem(&d, &clusters, 100.0).exact().unwrap();
        assert!(
            (e.total_utility - 6.0).abs() < 1e-6,
            "exact all-Advanced: {}",
            e.total_utility
        );
        assert!(
            (g.total_utility - 3.6).abs() < 1e-6,
            "greedy all-Standard: {}",
            g.total_utility
        );
    }

    #[test]
    fn exact_never_worse_than_greedy_randomized() {
        let clusters = paper_virtual_clusters();
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 100) as f64
        };
        for trial in 0..30 {
            let vals: Vec<f64> = (0..8).map(|_| next() * PAPER_VM_BANDWIDTH / 10.0).collect();
            let d = demands(&vals);
            let budget = 20.0 + trial as f64 * 2.0;
            match (
                problem(&d, &clusters, budget).greedy(),
                problem(&d, &clusters, budget).exact(),
            ) {
                (Ok(g), Ok(e)) => assert!(
                    e.total_utility >= g.total_utility - 1e-6,
                    "trial {trial}: exact {eu} < greedy {gu}",
                    eu = e.total_utility,
                    gu = g.total_utility
                ),
                (Err(_), Err(_)) => {}
                (g, e) => panic!("feasibility disagreement: {g:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn exact_respects_budget_and_demand() {
        let clusters = paper_virtual_clusters();
        let d = demands(&[60.0 * PAPER_VM_BANDWIDTH]);
        let e = problem(&d, &clusters, 30.0).exact().unwrap();
        assert!((e.total_vms() - 60.0).abs() < 1e-6);
        assert!(e.fractional_hourly_cost <= 30.0 + 1e-6);
    }

    #[test]
    fn mismatched_vm_bandwidth_rejected() {
        let mut clusters = paper_virtual_clusters();
        clusters[1].vm_bandwidth_bytes_per_sec *= 2.0;
        let d = demands(&[1e6]);
        assert!(problem(&d, &clusters, 100.0).greedy().is_err());
    }

    #[test]
    fn zero_demand_needs_zero_vms() {
        let clusters = paper_virtual_clusters();
        let d = demands(&[0.0, 0.0]);
        let plan = problem(&d, &clusters, 100.0).greedy().unwrap();
        assert_eq!(plan.total_vms(), 0.0);
        assert_eq!(plan.vm_targets, vec![0, 0, 0]);
        assert_eq!(plan.integer_hourly_cost, 0.0);
    }

    #[test]
    fn reserved_bandwidth_uses_integer_targets() {
        let clusters = paper_virtual_clusters();
        let d = demands(&[1.9e6]);
        let plan = problem(&d, &clusters, 100.0).greedy().unwrap();
        assert!((plan.reserved_bandwidth(&clusters) - 2.0 * PAPER_VM_BANDWIDTH).abs() < 1e-6);
    }

    #[test]
    fn allocations_come_out_in_key_order_one_entry_per_chunk() {
        // 80 VMs fill Standard (75) and spill onto a second cluster, so a
        // chunk can hold two allocations; chunk 1 is listed twice and
        // keeps both lists, in the order made, as a map entry did.
        let mut d = demands(&[2.5e6, 90.0 * PAPER_VM_BANDWIDTH, 1.25e6]);
        d.push(ChunkDemand {
            key: ChunkKey {
                channel: 0,
                chunk: 1,
            },
            demand: 1.25e6,
        });
        d.swap(0, 2);
        let clusters = paper_virtual_clusters();
        for plan in [
            problem(&d, &clusters, 100.0).greedy().unwrap(),
            problem(&d, &clusters, 100.0).exact().unwrap(),
        ] {
            let keys: Vec<usize> = plan.allocations.iter().map(|(k, _)| k.chunk).collect();
            assert_eq!(keys, [0, 1, 2]);
            let chunk_1 = plan.allocations.get(&d[1].key).unwrap();
            let vms: f64 = chunk_1.iter().map(|a| a.vms).sum();
            assert!((vms - 91.0).abs() < 1e-9, "both listings served: {vms}");
        }
    }
}
