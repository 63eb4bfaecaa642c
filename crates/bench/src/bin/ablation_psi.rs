//! Ablation — joint-ownership estimator: independence approximation vs
//! exact path-based Ψ, across channel loads.
//!
//! The paper delegates Ψ(π_j, π_k) to an unavailable technical report;
//! this ablation quantifies how much the estimator choice moves the
//! derived peer contribution and cloud demand.

use cloudmedia_core::analysis::{p2p_capacity, PsiEstimator};
use cloudmedia_core::channel::ChannelModel;

fn main() {
    println!("arrival_rate,estimator,peer_contribution_mbps,cloud_demand_mbps");
    for &rate in &[0.02, 0.05, 0.1, 0.2, 0.4] {
        let channel = ChannelModel::paper_default(0, rate);
        for (name, psi) in [
            ("independent", PsiEstimator::Independent),
            ("path_based", PsiEstimator::PathBased),
        ] {
            let p = p2p_capacity(&channel, 34_000.0, psi).expect("paper channel analyzes");
            println!(
                "{rate},{name},{:.2},{:.2}",
                p.total_peer_contribution() * 8.0 / 1e6,
                p.total_cloud_demand() * 8.0 / 1e6,
            );
        }
    }
}
