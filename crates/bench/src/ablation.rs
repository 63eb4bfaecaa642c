//! Ablations of choices the paper makes or leaves open, each written by
//! `run_all` as one CSV in `results/`:
//!
//! - `ablation_optimizer.csv` ([`optimizer_csv`]) — the paper's greedy
//!   provisioning heuristics vs exact optimizers: utility gap of the
//!   storage rental and VM configuration solutions across random demand
//!   profiles and budgets;
//! - `ablation_psi.csv` ([`psi_csv`]) — the joint-ownership estimator:
//!   independence approximation vs exact path-based Ψ across channel
//!   loads. The paper delegates Ψ(π_j, π_k) to an unavailable technical
//!   report; this quantifies how much the choice moves the derived peer
//!   contribution and cloud demand;
//! - `ablation_predictor.csv`, `ablation_provisioner.csv` and
//!   `ablation_provisioning_target.csv` ([`sim_tables`]) — the paper
//!   configuration simulated end to end in both streaming modes with one
//!   `SimConfig` field set per variant.

use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters, PAPER_VM_BANDWIDTH};
use cloudmedia_cloud::scheduler::ChunkKey;
use cloudmedia_core::analysis::{p2p_capacity, ProvisioningTarget, PsiEstimator};
use cloudmedia_core::baseline::ProvisionerKind;
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_core::predictor::PredictorKind;
use cloudmedia_core::provisioning::storage::{ChunkDemand, StorageProblem};
use cloudmedia_core::provisioning::vm::VmProblem;
use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;

/// A variant of a simulated ablation: its row label and the config
/// edit that applies it to the paper configuration.
type Variant = (&'static str, fn(&mut SimConfig));

/// One simulated ablation.
struct SimAblation {
    /// File name under `results/`.
    file: &'static str,
    /// Header of the CSV's first column, which holds the variant label.
    column: &'static str,
    /// The variants, in row order.
    variants: [Variant; 3],
}

const SIM_ABLATIONS: [SimAblation; 3] = [
    // The paper's last-interval predictor vs the moving-average and EWMA
    // extensions ("more accurate prediction methods ... can be applied",
    // Sec. V-B).
    SimAblation {
        file: "ablation_predictor.csv",
        column: "predictor",
        variants: [
            ("last_interval", |c| {
                c.predictor = PredictorKind::LastInterval
            }),
            ("moving_average_3", |c| {
                c.predictor = PredictorKind::MovingAverage { window: 3 }
            }),
            ("ewma_0.5", |c| {
                c.predictor = PredictorKind::Ewma { weight: 0.5 }
            }),
        ],
    },
    // The paper's model-driven controller vs a model-free reactive
    // autoscaler vs a dedicated (fixed) server fleet: the paper's core
    // economic claim made quantitative. Elasticity beats a peak-sized
    // private cluster on cost at equal quality, and the queueing model
    // beats naive reactivity on quality at similar cost.
    SimAblation {
        file: "ablation_provisioner.csv",
        column: "strategy",
        variants: [
            ("model (paper)", |c| c.provisioner = ProvisionerKind::Model),
            ("reactive +20%", |c| {
                c.provisioner = ProvisionerKind::Reactive { headroom: 0.2 }
            }),
            // Sized for the flash-crowd peak (~2500 viewers at r).
            ("fixed peak fleet", |c| {
                c.provisioner = ProvisionerKind::Fixed {
                    peak_demand: 2500.0 * 50_000.0 * 1.05,
                }
            }),
        ],
    },
    // The retrieval-time guarantee: the paper's mean-sojourn criterion vs
    // the tail-aware quantile extension (`P(S > T0) <= eps`).
    SimAblation {
        file: "ablation_provisioning_target.csv",
        column: "target",
        variants: [
            ("mean_sojourn", |c| {
                c.provisioning_target = ProvisioningTarget::MeanSojourn
            }),
            ("p95", |c| {
                c.provisioning_target = ProvisioningTarget::SojournQuantile { epsilon: 0.05 }
            }),
            ("p99", |c| {
                c.provisioning_target = ProvisioningTarget::SojournQuantile { epsilon: 0.01 }
            }),
        ],
    },
];

/// Runs the three simulated ablations over `hours` hours, all eighteen
/// runs in parallel, and returns each CSV with its file name.
///
/// # Panics
///
/// Panics if a simulation fails.
pub fn sim_tables(hours: f64) -> [(&'static str, String); 3] {
    let mut tables = SIM_ABLATIONS.map(|a| (a.file, String::new()));
    rayon::scope(|s| {
        for ((_, csv), ablation) in tables.iter_mut().zip(&SIM_ABLATIONS) {
            s.spawn(move |_| *csv = table(ablation, hours));
        }
    });
    tables
}

/// Runs one simulated ablation: every variant in both streaming modes,
/// the six runs in parallel. One CSV row per run, variants in order and
/// C/S before P2P within each, with the run's mean quality, mean hourly
/// VM cost and mean reserved bandwidth (Mbps).
fn table(ablation: &SimAblation, hours: f64) -> String {
    let runs: Vec<_> = ablation
        .variants
        .iter()
        .flat_map(|&variant| [SimMode::ClientServer, SimMode::P2p].map(|mode| (variant, mode)))
        .collect();
    let mut rows = vec![String::new(); runs.len()];
    rayon::scope(|s| {
        for (row, &((name, edit), mode)) in rows.iter_mut().zip(&runs) {
            s.spawn(move |_| {
                let mut cfg = SimConfig::paper_default(mode);
                cfg.trace.horizon_seconds = hours * 3600.0;
                edit(&mut cfg);
                let m = Simulator::new(cfg)
                    .expect("config is valid")
                    .run()
                    .expect("run succeeds");
                *row = format!(
                    "{name},{mode:?},{:.4},{:.2},{:.1}\n",
                    m.mean_quality(),
                    m.mean_vm_hourly_cost(),
                    m.mean_reserved_bandwidth() * 8.0 / 1e6,
                );
            });
        }
    });
    format!(
        "{},mode,mean_quality,mean_vm_cost_per_hour,mean_reserved_mbps\n{}",
        ablation.column,
        rows.concat()
    )
}

/// The greedy-vs-exact optimizer ablation over eight seeded trials of
/// 40 chunk demands each, at rising VM and storage budgets.
pub fn optimizer_csv() -> String {
    let nfs = paper_nfs_clusters();
    let vms = paper_virtual_clusters();
    let mut seed = 0xD15EA5Eu64;
    let mut out = String::from("problem,budget,greedy_utility,exact_utility,gap_percent\n");
    for trial in 0..8 {
        let d = demands(&mut seed, 40, 2.0 * PAPER_VM_BANDWIDTH);
        let budget = 20.0 + trial as f64 * 10.0;
        let p = VmProblem {
            demands: &d,
            clusters: &vms,
            budget_per_hour: budget,
        };
        if let (Ok(g), Ok(e)) = (p.greedy(), p.exact()) {
            let gap = (e.total_utility - g.total_utility) / e.total_utility * 100.0;
            out.push_str(&format!(
                "vm,{budget},{:.2},{:.2},{:.1}\n",
                g.total_utility, e.total_utility, gap
            ));
        }
        let sd = demands(&mut seed, 40, 10.0);
        let sbudget = 0.001 + trial as f64 * 0.002;
        let sp = StorageProblem {
            demands: &sd,
            clusters: &nfs,
            chunk_bytes: 15_000_000,
            budget_per_hour: sbudget,
        };
        if let (Ok(g), Ok(e)) = (sp.greedy(), sp.exact()) {
            let gap = (e.total_utility - g.total_utility) / e.total_utility * 100.0;
            out.push_str(&format!(
                "storage,{sbudget},{:.2},{:.2},{:.1}\n",
                g.total_utility, e.total_utility, gap
            ));
        }
    }
    out
}

/// `n` xorshift-drawn chunk demands on channel 0, uniform in
/// `[0, scale)` in steps of `scale / 1000`.
fn demands(seed: &mut u64, n: usize, scale: f64) -> Vec<ChunkDemand> {
    (0..n)
        .map(|i| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            ChunkDemand {
                key: ChunkKey {
                    channel: 0,
                    chunk: i,
                },
                demand: (*seed % 1000) as f64 / 1000.0 * scale,
            }
        })
        .collect()
}

/// The Ψ-estimator ablation: the paper channel's peer contribution and
/// cloud demand (Mbps) under each estimator at five arrival rates.
///
/// # Panics
///
/// Panics if the paper channel fails to analyze.
pub fn psi_csv() -> String {
    let mut out = String::from("arrival_rate,estimator,peer_contribution_mbps,cloud_demand_mbps\n");
    for &rate in &[0.02, 0.05, 0.1, 0.2, 0.4] {
        let channel = ChannelModel::paper_default(0, rate);
        for (name, psi) in [
            ("independent", PsiEstimator::Independent),
            ("path_based", PsiEstimator::PathBased),
        ] {
            let p = p2p_capacity(&channel, 34_000.0, psi).expect("paper channel analyzes");
            out.push_str(&format!(
                "{rate},{name},{:.2},{:.2}\n",
                p.total_peer_contribution() * 8.0 / 1e6,
                p.total_cloud_demand() * 8.0 / 1e6,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_simulated_ablation_writes_six_labelled_rows() {
        for (ablation, (file, csv)) in SIM_ABLATIONS.iter().zip(sim_tables(0.25)) {
            assert_eq!(file, ablation.file);
            let lines: Vec<&str> = csv.lines().collect();
            assert_eq!(
                lines[0],
                format!(
                    "{},mode,mean_quality,mean_vm_cost_per_hour,mean_reserved_mbps",
                    ablation.column
                )
            );
            let labels: Vec<String> = lines[1..]
                .iter()
                .map(|row| row.split(',').take(2).collect::<Vec<_>>().join(","))
                .collect();
            let want: Vec<String> = ablation
                .variants
                .iter()
                .flat_map(|(name, _)| [format!("{name},ClientServer"), format!("{name},P2p")])
                .collect();
            assert_eq!(labels, want, "{file}");
            for row in &lines[1..] {
                assert_eq!(row.split(',').count(), 5, "{file}: {row}");
            }
        }
    }
}
