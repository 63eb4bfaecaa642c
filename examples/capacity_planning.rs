//! Capacity planning: sweep the VM budget `B_M` and report the
//! feasibility frontier — at what budget does each demand level become
//! servable, and what does the greedy plan cost? Exercises the paper's
//! infeasibility signal ("the VoD provider should increase the budget").
//!
//! Run with: `cargo run -p cloudmedia-examples --bin capacity_planning`

use cloudmedia_cloud::cluster::paper_virtual_clusters;
use cloudmedia_cloud::scheduler::ChunkKey;
use cloudmedia_core::analysis::{p2p_capacity, pooled_capacity_demand, PsiEstimator};
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_core::provisioning::storage::ChunkDemand;
use cloudmedia_core::provisioning::vm::VmProblem;
use cloudmedia_core::CoreError;

fn demands_for(rate: f64, p2p: bool) -> Vec<ChunkDemand> {
    let channel = ChannelModel::paper_default(0, rate);
    let per_chunk = if p2p {
        p2p_capacity(&channel, 34_000.0, PsiEstimator::Independent)
            .expect("valid channel")
            .cloud_demand
    } else {
        pooled_capacity_demand(&channel)
            .expect("valid channel")
            .upload_demand
    };
    per_chunk
        .iter()
        .enumerate()
        .map(|(chunk, &demand)| ChunkDemand {
            key: ChunkKey { channel: 0, chunk },
            demand,
        })
        .collect()
}

fn main() {
    let clusters = paper_virtual_clusters();
    println!("mode,arrival_rate,budget,outcome,cost_per_hour,utility");
    for p2p in [false, true] {
        let mode = if p2p { "P2P" } else { "C/S" };
        for &rate in &[0.1, 0.3, 0.5] {
            let demands = demands_for(rate, p2p);
            for &budget in &[5.0, 20.0, 50.0, 100.0] {
                let problem = VmProblem {
                    demands: &demands,
                    clusters: &clusters,
                    budget_per_hour: budget,
                };
                match problem.greedy() {
                    Ok(plan) => println!(
                        "{mode},{rate},{budget},feasible,{:.2},{:.1}",
                        plan.integer_hourly_cost, plan.total_utility
                    ),
                    Err(CoreError::Infeasible {
                        required_budget, ..
                    }) => println!("{mode},{rate},{budget},needs_${required_budget:.2}_per_hour,,"),
                    Err(CoreError::CapacityExceeded {
                        requested,
                        available,
                        ..
                    }) => println!(
                        "{mode},{rate},{budget},exceeds_fleet_{requested:.0}_of_{available:.0},,"
                    ),
                    Err(e) => println!("{mode},{rate},{budget},error:{e},,"),
                }
            }
        }
    }
    println!(
        "\nP2P rows stay feasible at budgets where client-server needs more; \
              the infeasibility signal tells the provider the minimum viable budget."
    );
}
