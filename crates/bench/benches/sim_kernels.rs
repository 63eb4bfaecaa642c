//! Criterion benchmarks of the simulator's hot-path kernels and of the
//! production round engine:
//!
//! - `allocate_pool`: the mask-sparse max–min kernel,
//! - `peer_allocation`: the mask-sparse rarest-first kernel,
//! - `simulator_e2e`: the week-long experiment at a reduced horizon on
//!   the Indexed engine, per streaming mode.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cloudmedia_sim::allocation::{allocate_pool_sparse, peer_allocation_sparse};
use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;

/// A 64-chunk demand vector with the sparsity the simulator actually
/// sees: a handful of requested chunks, the rest zero.
fn sparse_demands() -> (Vec<f64>, u64) {
    let mut demands = vec![0.0; 64];
    let mut mask = 0u64;
    for &(k, d) in &[(0usize, 2.5e6), (7, 1.25e6), (13, 4.0e5), (40, 9.0e5)] {
        demands[k] = d;
        mask |= 1 << k;
    }
    (demands, mask)
}

fn bench_allocate_pool(c: &mut Criterion) {
    let (demands, mask) = sparse_demands();
    let pool = 2.0e6; // scarce: forces the progressive fill + sort
    let mut group = c.benchmark_group("allocate_pool");
    let mut out = vec![0.0; 64];
    let mut order = Vec::new();
    group.bench_function("sparse_mask", |b| {
        b.iter(|| {
            allocate_pool_sparse(
                black_box(&demands),
                black_box(pool),
                &mut out,
                &mut order,
                black_box(mask),
            );
            let mut m = mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                out[k] = 0.0;
            }
        })
    });
    group.finish();
}

fn bench_peer_allocation(c: &mut Criterion) {
    let (requested, mask) = sparse_demands();
    let owners: Vec<usize> = (0..64).map(|i| (i * 7) % 50).collect();
    let owner_upload: Vec<f64> = (0..64).map(|i| 1e5 + (i as f64) * 3.0e4).collect();
    let mut group = c.benchmark_group("peer_allocation");
    let mut served = vec![0.0; 64];
    let mut order = Vec::new();
    group.bench_function("sparse_mask", |b| {
        b.iter(|| {
            peer_allocation_sparse(
                black_box(&requested),
                &owners,
                &owner_upload,
                black_box(3.0e6),
                &mut served,
                &mut order,
                black_box(mask),
            );
            let mut m = mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                served[k] = 0.0;
            }
        })
    });
    group.finish();
}

fn bench_simulator_e2e(c: &mut Criterion) {
    // The week-long experiment at a reduced horizon (12 h) so the bench
    // suite stays quick; `bench_sim --hours 168` measures the full week.
    let mut group = c.benchmark_group("simulator_e2e");
    group.sample_size(10);
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        group.bench_function(format!("{mode:?}/indexed_12h"), |b| {
            b.iter(|| {
                let mut cfg = SimConfig::paper_default(mode);
                cfg.trace.horizon_seconds = 12.0 * 3600.0;
                Simulator::new(cfg)
                    .expect("config is valid")
                    .run()
                    .expect("run succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_allocate_pool,
    bench_peer_allocation,
    bench_simulator_e2e
);
criterion_main!(benches);
