//! Property-based tests spanning crates: analysis outputs must stay
//! physical for arbitrary (valid) channel parameters, and the optimizers
//! must respect their constraints on random instances.

use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters, PAPER_VM_BANDWIDTH};
use cloudmedia_cloud::scheduler::ChunkKey;
use cloudmedia_core::analysis::{
    capacity_demand, p2p_capacity_with, pooled_capacity_demand, DemandPooling, PsiEstimator,
};
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_core::provisioning::storage::{ChunkDemand, StorageProblem};
use cloudmedia_core::provisioning::vm::VmProblem;
use cloudmedia_workload::viewing::ViewingModel;
use proptest::prelude::*;

fn channel_strategy() -> impl Strategy<Value = ChannelModel> {
    (
        2usize..24,    // chunks
        0.0..1.0f64,   // alpha
        0.0..0.4f64,   // jump prob
        0.02..0.4f64,  // leave prob
        0.001..0.6f64, // arrival rate
    )
        .prop_filter("jump+leave <= 1", |(_, _, j, l, _)| j + l <= 1.0)
        .prop_map(|(chunks, alpha, jump, leave, rate)| {
            let viewing = ViewingModel {
                chunks,
                start_at_beginning: alpha,
                jump_prob: jump,
                leave_prob: leave,
            };
            ChannelModel {
                id: 0,
                streaming_rate: 50_000.0,
                chunk_seconds: 300.0,
                vm_bandwidth: PAPER_VM_BANDWIDTH,
                arrival_rate: rate,
                alpha,
                routing: viewing.routing_rows().expect("validated by strategy"),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn capacity_demand_is_physical(channel in channel_strategy()) {
        let d = capacity_demand(&channel).unwrap();
        // Capacity covers the byte-throughput of every chunk.
        for (i, (&s, &l)) in d.upload_demand.iter().zip(&d.arrival_rates).enumerate() {
            let throughput = l * channel.chunk_bytes();
            prop_assert!(s >= throughput - 1e-6, "chunk {i}: {s} < throughput {throughput}");
        }
    }

    #[test]
    fn pooled_demand_never_exceeds_per_chunk_demand(channel in channel_strategy()) {
        let per = capacity_demand(&channel).unwrap().total_upload_demand();
        let pooled = pooled_capacity_demand(&channel).unwrap().total_upload_demand();
        prop_assert!(pooled <= per + 1e-6, "pooled {pooled} > per-chunk {per}");
    }

    #[test]
    fn p2p_outputs_stay_in_range(channel in channel_strategy(), upload in 0.0..200_000.0f64) {
        let p = p2p_capacity_with(&channel, upload, PsiEstimator::Independent, DemandPooling::ChannelPooled).unwrap();
        let population: f64 = channel.chunk_arrival_rates().unwrap().iter()
            .map(|l| l * channel.chunk_seconds).sum();
        for (i, &g) in p.peer_contribution.iter().enumerate() {
            prop_assert!(g >= 0.0);
            prop_assert!(p.cloud_demand[i] >= 0.0);
            prop_assert!(p.replicas[i] >= -1e-9);
            prop_assert!(p.replicas[i] <= population + 1e-6,
                "chunk {i}: {} replicas > population {population}", p.replicas[i]);
        }
        // Peers cannot contribute more bandwidth than they collectively have.
        prop_assert!(p.total_peer_contribution() <= population * upload + 1e-6);
    }

    #[test]
    fn vm_greedy_respects_all_constraints(
        demands in proptest::collection::vec(0.0..3.0f64, 1..60),
        budget in 10.0..200.0f64,
    ) {
        let clusters = paper_virtual_clusters();
        let demands: Vec<ChunkDemand> = demands.iter().enumerate().map(|(i, &d)| ChunkDemand {
            key: ChunkKey { channel: 0, chunk: i },
            demand: d * PAPER_VM_BANDWIDTH,
        }).collect();
        // Infeasible instances are allowed to error.
        if let Ok(plan) =
            (VmProblem { demands: &demands, clusters: &clusters, budget_per_hour: budget }).greedy()
        {
                prop_assert!(plan.fractional_hourly_cost <= budget + 1e-6);
                for (y, c) in plan.vm_fractions.iter().zip(&clusters) {
                    prop_assert!(*y <= c.max_vms as f64 + 1e-6);
                }
                for (t, c) in plan.vm_targets.iter().zip(&clusters) {
                    prop_assert!(*t <= c.max_vms);
                }
                // Every chunk's demand covered.
                for d in &demands {
                    let got: f64 = plan.allocations.get(&d.key)
                        .map(|v| v.iter().map(|a| a.vms).sum())
                        .unwrap_or(0.0);
                    prop_assert!((got - d.demand / PAPER_VM_BANDWIDTH).abs() < 1e-6);
                }
        }
    }

    #[test]
    fn storage_greedy_places_each_chunk_once(
        demands in proptest::collection::vec(0.0..50.0f64, 1..80),
        budget in 0.0001..0.01f64,
    ) {
        let clusters = paper_nfs_clusters();
        let demands: Vec<ChunkDemand> = demands.iter().enumerate().map(|(i, &d)| ChunkDemand {
            key: ChunkKey { channel: i % 3, chunk: i / 3 },
            demand: d,
        }).collect();
        if let Ok(plan) = (StorageProblem {
            demands: &demands,
            clusters: &clusters,
            chunk_bytes: 15_000_000,
            budget_per_hour: budget,
        }).greedy() {
            prop_assert_eq!(plan.placement.len(), demands.len());
            prop_assert!(plan.hourly_cost <= budget + 1e-9);
            let mut counts = vec![0usize; clusters.len()];
            for &(_, f) in &plan.placement {
                counts[f] += 1;
            }
            for (count, c) in counts.iter().zip(&clusters) {
                prop_assert!(*count as u64 * 15_000_000 <= c.capacity_bytes);
            }
        }
    }

    #[test]
    fn exact_optimizers_dominate_greedy(
        demands in proptest::collection::vec(0.1..2.0f64, 2..20),
        budget in 5.0..150.0f64,
    ) {
        let clusters = paper_virtual_clusters();
        let demands: Vec<ChunkDemand> = demands.iter().enumerate().map(|(i, &d)| ChunkDemand {
            key: ChunkKey { channel: 0, chunk: i },
            demand: d * PAPER_VM_BANDWIDTH,
        }).collect();
        let p = VmProblem { demands: &demands, clusters: &clusters, budget_per_hour: budget };
        if let (Ok(g), Ok(e)) = (p.greedy(), p.exact()) {
            prop_assert!(e.total_utility >= g.total_utility - 1e-6,
                "exact {e} < greedy {g}", e = e.total_utility, g = g.total_utility);
        }
    }
}
