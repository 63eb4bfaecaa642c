//! Quickstart: model one VoD channel, derive how much cloud capacity it
//! needs in client–server and P2P mode, and solve the two provisioning
//! optimizations for it.
//!
//! Run with: `cargo run -p cloudmedia-examples --bin quickstart`

use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_core::analysis::{
    capacity_demand, p2p_capacity, pooled_capacity_demand, PsiEstimator,
};
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_core::provisioning::storage::{ChunkDemand, StorageProblem};
use cloudmedia_core::provisioning::vm::VmProblem;

fn mbps(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1e6
}

fn main() {
    // A channel with the paper's parameters (20 five-minute chunks of a
    // 100-minute video at 400 kbps) and 0.15 viewer arrivals per second —
    // roughly 390 concurrent viewers at equilibrium.
    let channel = ChannelModel::paper_default(0, 0.15);
    println!(
        "channel: {} chunks, r = {:.0} kbps, T0 = {} s",
        channel.chunks(),
        channel.streaming_rate * 8.0 / 1e3,
        channel.chunk_seconds
    );

    // Sec. IV-B: per-chunk equilibrium demand via the Jackson network.
    let cs = capacity_demand(&channel).expect("channel is valid");
    println!("\nclient-server, per-chunk (paper-literal integer servers):");
    println!(
        "  total upload demand: {:.1} Mbps across {} servers",
        mbps(cs.total_upload_demand()),
        cs.total_servers()
    );

    // Fractional VM sharing within the channel (what the controller uses).
    let pooled = pooled_capacity_demand(&channel).expect("channel is valid");
    println!(
        "  pooled (VM-sharing) demand: {:.1} Mbps",
        mbps(pooled.total_upload_demand())
    );

    // Sec. IV-C: subtract the equilibrium peer contribution.
    let p2p =
        p2p_capacity(&channel, 34_000.0, PsiEstimator::Independent).expect("channel is valid");
    println!("\nP2P with mean peer upload 272 kbps:");
    println!(
        "  peers contribute: {:.1} Mbps",
        mbps(p2p.total_peer_contribution())
    );
    println!(
        "  cloud must supply: {:.1} Mbps",
        mbps(p2p.total_cloud_demand())
    );

    // Sec. V-A: provision the P2P demand on the paper's clusters.
    let demands: Vec<ChunkDemand> = p2p
        .cloud_demand
        .iter()
        .enumerate()
        .map(|(chunk, &demand)| ChunkDemand {
            key: cloudmedia_cloud::scheduler::ChunkKey { channel: 0, chunk },
            demand,
        })
        .collect();

    let vm_plan = VmProblem {
        demands: &demands,
        clusters: &paper_virtual_clusters(),
        budget_per_hour: 100.0,
    }
    .greedy()
    .expect("within budget");
    println!("\nVM configuration (greedy heuristic):");
    println!(
        "  targets per cluster [Standard, Medium, Advanced]: {:?}",
        vm_plan.vm_targets
    );
    println!("  hourly cost: ${:.2}", vm_plan.integer_hourly_cost);

    let storage_plan = StorageProblem {
        demands: &demands,
        clusters: &paper_nfs_clusters(),
        chunk_bytes: channel.chunk_bytes() as u64,
        budget_per_hour: 1.0,
    }
    .greedy()
    .expect("within budget");
    let on_standard = storage_plan
        .placement
        .iter()
        .filter(|&&(_, f)| f == 0)
        .count();
    println!("\nstorage rental (greedy heuristic):");
    println!(
        "  {} chunks placed ({} on Standard, {} on High), ${:.6}/hour",
        storage_plan.placement.len(),
        on_standard,
        storage_plan.placement.len() - on_standard,
        storage_plan.hourly_cost
    );
}
