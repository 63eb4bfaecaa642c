//! Criterion micro-benchmarks of the analysis and provisioning
//! algorithms: the per-interval controller work must stay far below the
//! hourly provisioning cadence (it runs once per interval for the whole
//! catalog).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cloudmedia_cloud::broker::SlaTerms;
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters, PAPER_VM_BANDWIDTH};
use cloudmedia_cloud::scheduler::ChunkKey;
use cloudmedia_core::analysis::p2p::{p2p_capacity_hetero, UploadClass};
use cloudmedia_core::analysis::{
    capacity_demand, p2p_capacity_with, pooled_capacity_demand, DemandPooling, PsiEstimator,
};
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_core::controller::{Controller, ControllerConfig};
use cloudmedia_core::predictor::{ChannelObservation, PredictorKind};
use cloudmedia_core::provisioning::storage::{ChunkDemand, StorageProblem};
use cloudmedia_core::provisioning::vm::VmProblem;
use cloudmedia_queueing::erlang::erlang_c;
use cloudmedia_queueing::mmm::{min_servers_for_sojourn, min_servers_for_sojourn_quantile};
use cloudmedia_sim::config::{SimConfig, SimMode};

fn bench_erlang(c: &mut Criterion) {
    c.bench_function("erlang_c_m100", |b| {
        b.iter(|| erlang_c(black_box(100), black_box(87.5)).unwrap())
    });
    c.bench_function("min_servers_heavy_load", |b| {
        b.iter(|| min_servers_for_sojourn(black_box(500.0), black_box(1.0 / 12.0), 300.0).unwrap())
    });
    c.bench_function("min_servers_quantile_heavy_load", |b| {
        b.iter(|| {
            min_servers_for_sojourn_quantile(black_box(500.0), black_box(1.0 / 12.0), 300.0, 0.05)
                .unwrap()
        })
    });
}

fn bench_capacity_analysis(c: &mut Criterion) {
    let channel = ChannelModel::paper_default(0, 0.15);
    c.bench_function("capacity_demand_20_chunks", |b| {
        b.iter(|| capacity_demand(black_box(&channel)).unwrap())
    });
    c.bench_function("pooled_capacity_demand_20_chunks", |b| {
        b.iter(|| pooled_capacity_demand(black_box(&channel)).unwrap())
    });
    c.bench_function("p2p_capacity_independent", |b| {
        b.iter(|| {
            p2p_capacity_with(
                black_box(&channel),
                34_000.0,
                PsiEstimator::Independent,
                DemandPooling::ChannelPooled,
            )
            .unwrap()
        })
    });
    c.bench_function("p2p_capacity_hetero_3_classes", |b| {
        let classes = [
            UploadClass {
                share: 0.5,
                upload: 20_000.0,
            },
            UploadClass {
                share: 0.3,
                upload: 40_000.0,
            },
            UploadClass {
                share: 0.2,
                upload: 80_000.0,
            },
        ];
        b.iter(|| {
            p2p_capacity_hetero(
                black_box(&channel),
                &classes,
                cloudmedia_core::analysis::P2pAnalysisOptions::default(),
            )
            .unwrap()
        })
    });
    c.bench_function("p2p_capacity_path_based", |b| {
        b.iter(|| {
            p2p_capacity_with(
                black_box(&channel),
                34_000.0,
                PsiEstimator::PathBased,
                DemandPooling::ChannelPooled,
            )
            .unwrap()
        })
    });
}

fn catalog_demands() -> Vec<ChunkDemand> {
    // 20 channels x 20 chunks of varied demand, the controller's real
    // per-interval input size.
    let mut out = Vec::new();
    for channel in 0..20 {
        for chunk in 0..20 {
            out.push(ChunkDemand {
                key: ChunkKey { channel, chunk },
                demand: ((channel * 7 + chunk * 3) % 13) as f64 * 0.2 * PAPER_VM_BANDWIDTH / 13.0,
            });
        }
    }
    out
}

fn bench_optimizers(c: &mut Criterion) {
    let demands = catalog_demands();
    let vms = paper_virtual_clusters();
    let nfs = paper_nfs_clusters();
    c.bench_function("vm_greedy_400_chunks", |b| {
        b.iter_batched(
            || demands.clone(),
            |d| {
                VmProblem {
                    demands: &d,
                    clusters: &vms,
                    budget_per_hour: 100.0,
                }
                .greedy()
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("vm_exact_400_chunks", |b| {
        b.iter_batched(
            || demands.clone(),
            |d| {
                VmProblem {
                    demands: &d,
                    clusters: &vms,
                    budget_per_hour: 100.0,
                }
                .exact()
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("storage_greedy_400_chunks", |b| {
        b.iter_batched(
            || demands.clone(),
            |d| {
                StorageProblem {
                    demands: &d,
                    clusters: &nfs,
                    chunk_bytes: 15_000_000,
                    budget_per_hour: 1.0,
                }
                .greedy()
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

/// The hourly tracker reports of the paper week's first day: each
/// channel's base rate times the diurnal multiplier averaged over the
/// past hour, with the viewing model's start split and routing.
fn paper_day_observations(cfg: &SimConfig) -> Vec<Vec<(usize, ChannelObservation)>> {
    (0..24)
        .map(|hour| {
            let multiplier = if hour == 0 {
                cfg.trace.diurnal.multiplier(0.0)
            } else {
                (0..60)
                    .map(|minute| {
                        let t = (hour - 1) as f64 * 3600.0 + (minute as f64 + 0.5) * 60.0;
                        cfg.trace.diurnal.multiplier(t)
                    })
                    .sum::<f64>()
                    / 60.0
            };
            cfg.catalog
                .channels()
                .iter()
                .map(|spec| {
                    let rate = spec.base_arrival_rate * multiplier;
                    let split = spec.viewing.arrival_split(rate).unwrap();
                    let obs = ChannelObservation {
                        arrival_rate: rate,
                        alpha: split[0] / rate,
                        routing: spec.viewing.routing_rows().unwrap(),
                    };
                    (spec.id, obs)
                })
                .collect()
        })
        .collect()
}

/// One `Controller::plan_interval` per iteration on the paper catalog
/// (20 channels × 20 chunks), cycling through the day's hourly reports
/// so placement refreshes and budget pressure occur as in a run.
fn bench_controller(c: &mut Criterion) {
    let sla = SlaTerms {
        virtual_clusters: paper_virtual_clusters(),
        nfs_clusters: paper_nfs_clusters(),
    };
    for (name, mode) in [
        ("controller_plan_interval_paper_p2p", SimMode::P2p),
        ("controller_plan_interval_paper_cs", SimMode::ClientServer),
    ] {
        let cfg = SimConfig::paper_default(mode);
        let hours = paper_day_observations(&cfg);
        let config = ControllerConfig {
            safety_factor: cfg.safety_factor,
            target: cfg.provisioning_target,
            ..ControllerConfig::paper_default(cfg.streaming_mode())
        };
        let mut controller = Controller::new(config, PredictorKind::LastInterval).unwrap();
        let mut hour = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                let stats = &hours[hour % hours.len()];
                hour += 1;
                controller.plan_interval(black_box(stats), &sla).unwrap()
            })
        });
    }
}

criterion_group!(
    benches,
    bench_erlang,
    bench_capacity_analysis,
    bench_controller,
    bench_optimizers
);
criterion_main!(benches);
